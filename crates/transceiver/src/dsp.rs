//! DSP ASIC configuration: OIM, FEC chain, equalizer, multi-rate support.
//!
//! §3.3.2: the DSP "not only provided a more robust, scalable solution by
//! relaxing the requirements on the optical and analog electrical
//! components, it also enabled new digital capabilities": the OIM notch
//! filter and the concatenated FEC. This module bundles those choices and
//! computes the *pre-FEC BER the optical link must deliver* — the single
//! number that connects the DSP to the link budget.

use lightwave_fec::concat::ConcatenatedCode;
use lightwave_optics::ber::OimConfig;
use lightwave_optics::dispersion::Equalizer;
use lightwave_optics::modulation::LaneRate;
use lightwave_units::{Ber, Nanos};
use serde::{Deserialize, Serialize};

/// FEC operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FecMode {
    /// Outer KP4 only — the standards-based configuration.
    Kp4Only,
    /// Concatenated: soft-decision inner code + KP4 (§3.3.2), evaluated
    /// with our open inner code's measured threshold.
    ConcatSfec {
        /// Raw-BER threshold the inner code cleans to the KP4 threshold.
        /// Obtain from `ConcatenatedCode::inner_threshold` (measured) or
        /// `analysis::paper_equivalent_inner_threshold` (production 1.6 dB
        /// calibration).
        inner_threshold: Ber,
    },
}

impl FecMode {
    /// Concatenated mode at the paper's production operating point.
    pub(crate) fn concat_paper_calibrated() -> FecMode {
        FecMode::ConcatSfec {
            inner_threshold: lightwave_fec::analysis::paper_equivalent_inner_threshold(),
        }
    }

    /// The pre-FEC (raw link) BER threshold this mode tolerates.
    pub fn raw_ber_threshold(self) -> Ber {
        match self {
            FecMode::Kp4Only => Ber::KP4_THRESHOLD,
            FecMode::ConcatSfec { inner_threshold } => inner_threshold,
        }
    }
}

/// Full DSP configuration of one transceiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DspConfig {
    /// Optical interference mitigation (notch filter), if enabled.
    pub oim: Option<OimConfig>,
    /// FEC chain.
    pub fec: FecMode,
    /// Receive equalizer.
    pub equalizer: Equalizer,
    /// Line rates this DSP can run (backward compatibility set).
    pub supported_rates: [bool; 3],
}

impl DspConfig {
    /// The production ML-superpod configuration: OIM on, concatenated FEC
    /// at the paper-calibrated operating point, MLSE.
    pub fn ml_production() -> DspConfig {
        DspConfig {
            oim: Some(OimConfig::default()),
            fec: FecMode::concat_paper_calibrated(),
            equalizer: Equalizer::Mlse,
            supported_rates: [true, true, true],
        }
    }

    /// A standards-based datacom configuration: no OIM, KP4 only, FFE.
    pub fn standards_based() -> DspConfig {
        DspConfig {
            oim: None,
            fec: FecMode::Kp4Only,
            equalizer: Equalizer::Ffe,
            supported_rates: [true, true, false],
        }
    }

    /// Whether a lane rate is supported.
    pub fn supports(&self, rate: LaneRate) -> bool {
        self.supported_rates[rate.generation() as usize]
    }

    /// Highest mutually-supported rate with a peer, if any — the §3.3.1
    /// backward-compatibility negotiation ("the mode of operation is
    /// software programmable").
    pub fn negotiate_rate(&self, peer: &DspConfig) -> Option<LaneRate> {
        LaneRate::ALL
            .into_iter()
            .find(|&r| self.supports(r) && peer.supports(r))
    }

    /// Added receive-path latency of the FEC chain at a line rate.
    pub fn fec_latency(&self, rate_gbps: f64) -> Nanos {
        let code = ConcatenatedCode::default();
        match self.fec {
            FecMode::Kp4Only => code.outer_latency(rate_gbps),
            FecMode::ConcatSfec { .. } => {
                code.outer_latency(rate_gbps) + code.inner_latency(rate_gbps)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_config_tolerates_dirtier_links() {
        let ml = DspConfig::ml_production();
        let std = DspConfig::standards_based();
        assert!(
            ml.fec.raw_ber_threshold().prob() > std.fec.raw_ber_threshold().prob(),
            "concatenated FEC must raise the tolerable raw BER"
        );
        assert_eq!(std.fec.raw_ber_threshold(), Ber::KP4_THRESHOLD);
    }

    #[test]
    fn rate_negotiation_backward_compat() {
        let new = DspConfig::ml_production(); // supports all three rates
        let old = DspConfig::standards_based(); // only NRZ25 + PAM4-50
        assert_eq!(new.negotiate_rate(&old), Some(LaneRate::Pam4_50));
        assert_eq!(new.negotiate_rate(&new), Some(LaneRate::Pam4_100));
        // A module supporting nothing in common fails negotiation.
        let only100 = DspConfig {
            supported_rates: [false, false, true],
            ..DspConfig::ml_production()
        };
        let only25 = DspConfig {
            supported_rates: [true, false, false],
            ..DspConfig::standards_based()
        };
        assert_eq!(only100.negotiate_rate(&only25), None);
    }

    #[test]
    fn concat_adds_little_latency() {
        let ml = DspConfig::ml_production();
        let std = DspConfig::standards_based();
        let added = ml.fec_latency(200.0).saturating_sub(std.fec_latency(200.0));
        assert!(
            added.0 < 20,
            "inner code adds {added} — must stay under the 20 ns budget"
        );
    }

    #[test]
    fn paper_calibrated_threshold_value() {
        if let FecMode::ConcatSfec { inner_threshold } = FecMode::concat_paper_calibrated() {
            assert!((4e-3..1.2e-2).contains(&inner_threshold.prob()));
        } else {
            panic!("expected concat mode");
        }
    }
}
