//! Analytic FEC performance: KP4 threshold behaviour and concatenation gain.
//!
//! Monte Carlo cannot reach post-KP4 error rates (~10⁻¹⁵); the standard
//! practice — used here and by every 802.3 link-budget spreadsheet — is the
//! binomial symbol-error tail: RS(544,514) fails only when more than t = 15
//! of its 544 symbols are hit.

use crate::rs::ReedSolomon;
use lightwave_optics::ber::Pam4Receiver;
use lightwave_units::{math, Ber, Db, Dbm};
use serde::{Deserialize, Serialize};

/// Probability that a 10-bit RS symbol is corrupted at bit-error rate `p`,
/// assuming independent bit errors.
pub(crate) fn symbol_error_prob(bit_ber: Ber) -> f64 {
    1.0 - (1.0 - bit_ber.prob()).powi(10)
}

/// Post-KP4 codeword (frame) error rate at a given input BER.
pub fn kp4_frame_error_rate(input_ber: Ber) -> f64 {
    let rs = ReedSolomon::kp4();
    let ps = symbol_error_prob(input_ber);
    math::binomial_tail_gt(rs.n() as u64, rs.t() as u64, ps)
}

/// Approximate post-KP4 output BER: when the decoder fails it typically
/// leaves ~t+1 symbol errors in an n-symbol block.
pub(crate) fn kp4_output_ber(input_ber: Ber) -> Ber {
    let rs = ReedSolomon::kp4();
    let fer = kp4_frame_error_rate(input_ber);
    Ber::new(fer * (rs.t() + 1) as f64 / rs.n() as f64)
}

/// The classic KP4 threshold claim: input 2×10⁻⁴ → (effectively) error-free.
///
/// Returns the output BER at exactly the threshold input.
pub fn kp4_output_at_threshold() -> Ber {
    kp4_output_ber(Ber::KP4_THRESHOLD)
}

/// Result of the Fig. 12 experiment: what the inner code buys.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConcatGain {
    /// Raw-BER threshold the inner code can clean down to KP4's threshold.
    pub inner_threshold: Ber,
    /// Receiver sensitivity without the inner code (link must hit 2e-4 raw).
    pub sensitivity_plain: Dbm,
    /// Receiver sensitivity with the inner code (link may run dirtier).
    pub sensitivity_concat: Dbm,
    /// Optical sensitivity improvement.
    pub gain: Db,
}

/// The concatenation gain through an optical receiver model at a given
/// MPI operating point (the two curves of Fig. 12 use −38 and −32 dB MPI).
///
/// `inner_threshold` is the measured raw-BER threshold of the inner code
/// ([`ConcatenatedCode::inner_threshold`] at the KP4 target); it does not
/// depend on the MPI point, so one search serves every curve.
///
/// [`ConcatenatedCode::inner_threshold`]: crate::concat::ConcatenatedCode::inner_threshold
pub fn concatenation_gain(
    rx: &Pam4Receiver,
    mpi_ratio: f64,
    inner_threshold: Ber,
) -> Option<ConcatGain> {
    let plain = rx.sensitivity(Ber::KP4_THRESHOLD, mpi_ratio, None)?;
    let concat = rx.sensitivity(inner_threshold, mpi_ratio, None)?;
    Some(ConcatGain {
        inner_threshold,
        sensitivity_plain: plain,
        sensitivity_concat: concat,
        gain: plain - concat,
    })
}

/// The paper's published operating point for the production (proprietary)
/// inner code: 1.6 dB sensitivity gain at the KP4 threshold (Fig. 12).
/// Our open Chase-decoded inner code lands somewhat below this; system
/// models that need the production figure use this constant, clearly
/// attributed (see DESIGN.md §5 substitution 3).
pub(crate) const PAPER_SFEC_GAIN_DB: f64 = 1.6;

/// Effective raw-BER threshold for a production link using the paper's
/// concatenated code, derived by walking 1.6 dB of optical gain back
/// through a thermal-noise-limited Q-model from the KP4 threshold.
pub fn paper_equivalent_inner_threshold() -> Ber {
    let q_at_kp4 = Ber::KP4_THRESHOLD.q_factor();
    // Optical dB map 1:1 onto Q in a thermal-limited IM-DD receiver.
    let q = q_at_kp4 / 10f64.powf(PAPER_SFEC_GAIN_DB / 10.0);
    Ber::from_q_factor(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concat::{ConcatenatedCode, InnerDecoding};
    use lightwave_optics::ber::mpi_db;

    /// Net electrical coding gain of the concatenated scheme at a target output
    /// BER, in dB: the SNR difference between uncoded and coded operation,
    /// accounting for the rate penalty.
    fn net_coding_gain_db(inner_threshold: Ber, target: Ber, rate: f64) -> f64 {
        let q_uncoded = target.q_factor();
        let q_coded = inner_threshold.q_factor();
        20.0 * (q_uncoded / q_coded).log10() + 10.0 * rate.log10()
    }

    /// Hard-decision inner decoding analytic output-BER estimate (union bound
    /// style): the SEC-DED block fails on ≥ 2 errors; on a detected double the
    /// 2 errors remain, and on ≥ 3 a miscorrection may add one.
    fn hamming_hard_output_ber(input_ber: Ber) -> Ber {
        let n = 128.0;
        let p = input_ber.prob();
        // P(exactly 2) leaves 2 bad bits; P(≥3) leaves ≈ 4 (3 + 1 miscorrect).
        let p2 = math::ln_binomial(128, 2).exp() * p.powi(2) * (1.0 - p).powi(126);
        let p3 = math::binomial_tail_gt(128, 2, p);
        Ber::new((p2 * 2.0 + p3 * 4.0) / n)
    }

    #[test]
    fn kp4_threshold_is_effectively_error_free() {
        // At 2e-4 input the output should be astronomically clean — this is
        // the whole reason the industry quotes "2e-4" as *the* threshold.
        let out = kp4_output_at_threshold();
        assert!(
            out.prob() < 1e-13,
            "KP4 at threshold gave {out}, expected < 1e-13"
        );
    }

    #[test]
    fn kp4_cliff_behaviour() {
        // An order of magnitude above threshold the code falls apart;
        // an order below, the output is beyond astronomically clean.
        assert!(kp4_output_ber(Ber::new(2e-3)).prob() > 1e-6);
        assert!(kp4_output_ber(Ber::new(2e-5)).prob() < 1e-30);
    }

    #[test]
    fn symbol_error_prob_is_about_10x_bit_ber_when_small() {
        let p = symbol_error_prob(Ber::new(1e-5));
        assert!((p / 1e-4 - 1.0).abs() < 0.01);
    }

    #[test]
    fn hamming_hard_analytic_matches_monte_carlo() {
        let code = ConcatenatedCode {
            inner_decoding: InnerDecoding::Hard,
            ..ConcatenatedCode::default()
        };
        let p = Ber::new(5e-3);
        let analytic = hamming_hard_output_ber(p).prob();
        let mc = code
            .inner_waterfall_point(p, 8000, 21)
            .expect("the point runs")
            .output_ber
            .prob();
        let ratio = mc / analytic;
        assert!(
            (0.4..2.5).contains(&ratio),
            "hard-decode MC {mc:.3e} vs analytic {analytic:.3e}"
        );
    }

    #[test]
    fn paper_equivalent_threshold_is_sane() {
        let t = paper_equivalent_inner_threshold();
        // 1.6 optical dB back from Q=3.54 → Q≈2.45 → BER ≈ 7e-3.
        assert!(
            (4e-3..1.2e-2).contains(&t.prob()),
            "paper-equivalent inner threshold {t} out of expected range"
        );
    }

    #[test]
    fn measured_concat_gain_is_material() {
        // Our open inner code should buy at least 1 dB of the paper's
        // 1.6 dB at the −32 dB MPI operating point of Fig. 12.
        let threshold = ConcatenatedCode::default()
            .inner_threshold(Ber::KP4_THRESHOLD, 1500, 5)
            .expect("the bisection runs");
        let rx = Pam4Receiver::cwdm4_50g();
        let gain = concatenation_gain(&rx, mpi_db(-32.0), threshold).expect("sensitivities exist");
        assert!(
            gain.gain.db() > 0.8,
            "concatenation gain {} too small",
            gain.gain
        );
        assert!(
            gain.gain.db() < 2.5,
            "concatenation gain {} implausibly large",
            gain.gain
        );
        assert!(gain.inner_threshold.prob() > Ber::KP4_THRESHOLD.prob());
    }

    #[test]
    fn net_coding_gain_positive_for_real_codes() {
        let g = net_coding_gain_db(Ber::new(2e-3), Ber::KP4_THRESHOLD, 0.9375 * 514.0 / 544.0);
        assert!(g > 0.0, "net coding gain {g} should be positive");
    }
}
