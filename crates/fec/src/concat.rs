//! The concatenated FEC chain: soft inner code + KP4 outer code.
//!
//! §3.3.2: "a new ultra-low latency (<20 ns for 200 Gb/s) soft decision FEC
//! (SFEC) code ... used as an inner code and concatenated with a standard
//! KP4 outer code". The inner code runs the link at a *higher* raw error
//! rate and cleans it to below the KP4 threshold; the outer KP4 then takes
//! the stream to effectively error-free. The sensitivity gain of Fig. 12 is
//! exactly the optical-power difference between "the link must deliver
//! 2×10⁻⁴ raw" and "the link must deliver whatever the inner code can clean
//! *down to* 2×10⁻⁴".
//!
//! This module provides the full encode → channel → decode chain, a
//! Monte-Carlo waterfall measurement of the inner code, and the latency
//! accounting that justifies "ultra-low latency".

use crate::hamming::{ExtHamming, HardDecode};
use crate::rs::ReedSolomon;
use lightwave_units::{math, Ber, Nanos};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use rand_distr::{standard_normal_from_bits, Normal, NormalEnvelope};
use serde::{Deserialize, Serialize};

/// How the inner code is decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InnerDecoding {
    /// Hard-decision SEC-DED only.
    Hard,
    /// Chase soft decoding flipping the `test_bits` least-reliable bits.
    Chase {
        /// Number of least-reliable positions in the test-pattern set.
        test_bits: usize,
    },
}

impl InnerDecoding {
    /// The production configuration used by the repro harness.
    pub(crate) const SOFT: InnerDecoding = InnerDecoding::Chase { test_bits: 6 };
}

/// The concatenated code: extended Hamming (128,120) inside RS(544,514).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcatenatedCode {
    /// Inner SEC-DED code.
    pub inner: ExtHamming,
    /// Outer KP4 code.
    pub outer: ReedSolomon,
    /// Inner decoding mode.
    pub inner_decoding: InnerDecoding,
}

impl Default for ConcatenatedCode {
    fn default() -> Self {
        ConcatenatedCode {
            inner: ExtHamming,
            outer: ReedSolomon::kp4(),
            inner_decoding: InnerDecoding::SOFT,
        }
    }
}

/// Result of a Monte-Carlo inner-code waterfall point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaterfallPoint {
    /// Channel (pre-FEC) BER simulated.
    pub input_ber: Ber,
    /// Measured BER of the decoded data bits.
    pub output_ber: Ber,
    /// Data bits simulated.
    pub bits: u64,
    /// Bit errors observed after decoding.
    pub errors: u64,
}

/// An input the waterfall cannot run on, by name: `blocks` (zero),
/// `input_ber` (outside (0, 0.5), where no noise calibrates to it) or
/// `test_bits` (a Chase decoder past 2⁸ patterns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterfallError {
    /// The input that is out of range.
    pub field: &'static str,
    /// What it held (a count as `f64`).
    pub value: f64,
}

impl std::fmt::Display for WaterfallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let WaterfallError { field, value } = self;
        write!(f, "waterfall input `{field}` is out of range: {value}")
    }
}

impl std::error::Error for WaterfallError {}

/// Absolute slack on a reliability's lower bound. Correctly rounded
/// arithmetic is monotone, so `1 − σ·bound` already bounds `|tx + σ·z|`
/// from below; the margin is a million times any rounding either side can
/// carry, in the style of `McChannel`'s gates.
const LOWER_MARGIN: f64 = 1e-9;

/// The Chase selection takes first, in position order, the bits whose
/// lower bound is at or below `1 − σ·EARLY_SIGMAS`: ≈ 21 of 128 at fig12's
/// σ, and they settle the test set in 95 % of blocks — only the other 5 %
/// visit the remaining positions. Any value decides the same word; this
/// one sets how many normals are read against how often the rest is
/// scanned (DESIGN §6.8 has the measurements).
const EARLY_SIGMAS: f64 = 1.4;

/// The binary-AWGN channel of the waterfall, gated, and the block in
/// flight: each bit's two raw words, a lower bound on each reliability
/// (the exact value where it is known), the reliabilities worked out so
/// far, and the positions whose bound is at or below `early_bound` — the
/// ones the Chase selection takes first.
struct AwgnChannel {
    noise: Normal<f64>,
    envelope: &'static NormalEnvelope,
    early_bound: f64,
    words: [(u64, u64); 128],
    lower: [f64; 128],
    exact: [f64; 128],
    known: u128,
    early: [usize; 128],
    early_len: usize,
}

/// What bit `pos` of `cw` arrives as: ±1 plus noise. Exactly `tx +
/// noise.sample(rng)` on the same two words — `Normal::sample` is mean +
/// std_dev·z.
fn received(noise: &Normal<f64>, cw: u128, pos: usize, (b1, b2): (u64, u64)) -> f64 {
    let tx = if (cw >> pos) & 1 == 1 { 1.0 } else { -1.0 };
    tx + (noise.mean() + noise.std_dev() * standard_normal_from_bits(b1, b2))
}

impl AwgnChannel {
    /// The channel whose raw BER is `p`: `Q(1/σ) = p`.
    fn new(p: f64) -> AwgnChannel {
        let noise = Normal::new(0.0, 1.0 / math::q_inverse(p)).expect("sigma positive");
        AwgnChannel {
            noise,
            envelope: NormalEnvelope::get(),
            early_bound: 1.0 - noise.std_dev() * EARLY_SIGMAS,
            words: [(0, 0); 128],
            lower: [0.0; 128],
            exact: [0.0; 128],
            known: 0,
            early: [0; 128],
            early_len: 0,
        }
    }

    /// A lower bound on `|received(..)|` from the same two words, for
    /// either `tx`: `|tx + σ·z| ≥ 1 − σ·|z|`, and `|z| ≤ bound`. Where it
    /// is positive, the sample has `tx`'s sign.
    fn lower_bound(&self, (b1, b2): (u64, u64)) -> f64 {
        1.0 - self.noise.std_dev() * self.envelope.bound(b1, b2) - LOWER_MARGIN
    }

    /// Sends `cw`: draws every bit's two words in order and returns the
    /// sliced word. A bit whose lower bound clears zero keeps `tx`'s sign
    /// unread; any other, a NaN bound included, is worked out and its value
    /// becomes its bound. With `test_bits > 0` the early positions are
    /// listed for the Chase selection.
    // `!(lower > ..)` rather than `<=`: a NaN bound must take the exact path.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn receive(&mut self, cw: u128, rng: &mut StdRng, test_bits: usize) -> u128 {
        let mut hard = cw;
        self.known = 0;
        self.early_len = 0;
        for pos in 0..ExtHamming::N {
            let words = (rng.next_u64(), rng.next_u64());
            self.words[pos] = words;
            let mut lower = self.lower_bound(words);
            if !(lower > 0.0) {
                let y = received(&self.noise, cw, pos, words);
                hard ^= u128::from((y > 0.0) != ((cw >> pos) & 1 == 1)) << pos;
                lower = y.abs();
                self.exact[pos] = lower;
                self.known |= 1 << pos;
            }
            self.lower[pos] = lower;
            // Appended unconditionally, kept if early: no branch to guess.
            self.early[self.early_len] = pos;
            self.early_len += usize::from(test_bits > 0 && !(lower > self.early_bound));
        }
        hard
    }

    /// Chase-decodes the block [`AwgnChannel::receive`] sent: the early
    /// positions first, the rest only if the test set is not settled by
    /// then, each reliability worked out on the first ask.
    fn chase_decode(&mut self, code: ExtHamming, cw: u128, hard: u128, test_bits: usize) -> u128 {
        let AwgnChannel {
            noise,
            early_bound,
            words,
            lower,
            exact,
            known,
            early,
            early_len,
            ..
        } = self;
        code.chase(
            hard,
            test_bits,
            lower,
            &early[..*early_len],
            *early_bound,
            |pos| {
                if (*known >> pos) & 1 == 0 {
                    exact[pos] = received(noise, cw, pos, words[pos]).abs();
                    *known |= 1 << pos;
                }
                exact[pos]
            },
        )
    }
}

impl ConcatenatedCode {
    /// Overall code rate (inner × outer).
    pub fn rate(&self) -> f64 {
        self.inner.rate() * self.outer.rate()
    }

    /// Monte-Carlo measurement of the inner decoder: random data blocks are
    /// sent over a binary-AWGN channel whose noise is calibrated to the
    /// requested raw BER (`Q(1/σ) = p`), decoded, and data-bit errors
    /// counted.
    ///
    /// Soft information is the analog sample magnitude, exactly what a
    /// PAM4 slicer's distance-to-threshold provides the DSP.
    ///
    /// Refused up front: `blocks == 0`, an input BER outside (0, 0.5) and
    /// a Chase decoder of more than eight test bits.
    ///
    /// The channel is gated (DESIGN §6.8): each bit draws the two raw words
    /// of its `Normal::sample`, in order, and its Box–Muller normal is
    /// worked out only where a decision can turn on it. The count is the
    /// eager channel's, bit for bit.
    pub fn inner_waterfall_point(
        &self,
        input_ber: Ber,
        blocks: u64,
        seed: u64,
    ) -> Result<WaterfallPoint, WaterfallError> {
        let p = input_ber.prob();
        let test_bits = match self.inner_decoding {
            InnerDecoding::Hard => 0,
            InnerDecoding::Chase { test_bits } => test_bits,
        };
        let refused = [
            ("blocks", blocks as f64, blocks > 0),
            ("input_ber", p, p > 0.0 && p < 0.5),
            ("test_bits", test_bits as f64, test_bits <= 8),
        ];
        if let Some(&(field, value, _)) = refused.iter().find(|row| !row.2) {
            return Err(WaterfallError { field, value });
        }

        let mut channel = AwgnChannel::new(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let code = self.inner;
        let mut errors = 0u64;
        for _ in 0..blocks {
            let data: u128 = rng.random::<u128>() >> 8;
            let cw = code.encode(data);
            let hard = channel.receive(cw, &mut rng, test_bits);
            let decoded_cw = match self.inner_decoding {
                InnerDecoding::Hard => match code.hard_decode(hard) {
                    HardDecode::Corrected { codeword, .. } => codeword,
                    HardDecode::Detected => hard,
                },
                InnerDecoding::Chase { test_bits } => {
                    channel.chase_decode(code, cw, hard, test_bits)
                }
            };
            errors += (code.extract_data(decoded_cw) ^ data).count_ones() as u64;
        }
        let bits = blocks * ExtHamming::K as u64;
        Ok(WaterfallPoint {
            input_ber,
            output_ber: Ber::new(errors as f64 / bits as f64),
            bits,
            errors,
        })
    }

    /// Finds the raw-BER threshold at which the inner decoder's output
    /// just meets `target` (typically the KP4 threshold 2×10⁻⁴), by
    /// bisection with `blocks` Monte-Carlo blocks per probe.
    ///
    /// This is the single number that sets the concatenation gain: the
    /// link may run at this raw BER instead of at `target` itself.
    /// Refuses what [`ConcatenatedCode::inner_waterfall_point`] refuses,
    /// at the first probe.
    pub fn inner_threshold(
        &self,
        target: Ber,
        blocks: u64,
        seed: u64,
    ) -> Result<Ber, WaterfallError> {
        let (mut lo, mut hi) = (1e-4f64, 3e-2f64);
        for round in 0..12 {
            // Geometric midpoint — BER thresholds live on a log scale.
            let mid = ((lo.ln() + hi.ln()) / 2.0).exp();
            let point = self.inner_waterfall_point(Ber::new(mid), blocks, seed ^ round)?;
            if point.output_ber.prob() > target.prob() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(Ber::new(((lo.ln() + hi.ln()) / 2.0).exp()))
    }

    /// Full end-to-end encode of a payload of 514 ten-bit symbols: outer RS
    /// encode, serialize to bits, chunk into 120-bit inner blocks (zero
    /// padded), inner encode. Returns the transmitted inner codewords.
    pub fn encode_frame(&self, payload: &[u16]) -> Vec<u128> {
        assert_eq!(
            payload.len(),
            self.outer.k(),
            "payload must be k outer symbols"
        );
        let outer_cw = self.outer.encode(payload);
        // Serialize 10-bit symbols to a bitstream.
        let mut bits: Vec<bool> = Vec::with_capacity(outer_cw.len() * 10);
        for &sym in &outer_cw {
            for b in 0..10 {
                bits.push((sym >> b) & 1 == 1);
            }
        }
        // Chunk into 120-bit inner data blocks.
        bits.resize(bits.len().div_ceil(ExtHamming::K) * ExtHamming::K, false);
        bits.chunks(ExtHamming::K)
            .map(|chunk| {
                let mut data: u128 = 0;
                for (i, &b) in chunk.iter().enumerate() {
                    if b {
                        data |= 1u128 << i;
                    }
                }
                self.inner.encode(data)
            })
            .collect()
    }

    /// Full end-to-end decode: inner decode each received block (hard
    /// decision here; channel soft info is exercised separately by the
    /// waterfall), reassemble the outer codeword, RS decode.
    ///
    /// Returns the recovered payload, or `None` if the outer decoder gave
    /// up (frame loss).
    pub fn decode_frame(&self, received: &[u128]) -> Option<Vec<u16>> {
        let mut bits: Vec<bool> = Vec::with_capacity(received.len() * ExtHamming::K);
        for &word in received {
            let cw = match self.inner.hard_decode(word) {
                HardDecode::Corrected { codeword, .. } => codeword,
                HardDecode::Detected => word,
            };
            let data = self.inner.extract_data(cw);
            for i in 0..ExtHamming::K {
                bits.push((data >> i) & 1 == 1);
            }
        }
        let n = self.outer.n();
        if bits.len() < n * 10 {
            return None;
        }
        let mut symbols: Vec<u16> = Vec::with_capacity(n);
        for s in 0..n {
            let mut sym: u16 = 0;
            for b in 0..10 {
                if bits[s * 10 + b] {
                    sym |= 1 << b;
                }
            }
            symbols.push(sym);
        }
        self.outer.decode(&mut symbols).ok()?;
        symbols.truncate(self.outer.k());
        Some(symbols)
    }

    /// Inner-decoder latency at a given line rate in Gb/s.
    ///
    /// Model: the decoder must buffer one block (serialization delay) plus
    /// a short pipeline (syndrome + Chase metric selection, a handful of
    /// block-clock cycles). The paper claims < 20 ns at 200 Gb/s; a
    /// 128-bit block at 200 Gb/s serializes in 0.64 ns, so even an
    /// 8-deep pipeline sits well inside the budget — the *reason* a short
    /// block code was chosen over a stronger, longer one.
    pub fn inner_latency(&self, rate_gbps: f64) -> Nanos {
        assert!(rate_gbps > 0.0, "rate must be positive");
        let block_ns = ExtHamming::N as f64 / rate_gbps; // bits / (Gb/s) = ns
        let pipeline_depth = match self.inner_decoding {
            InnerDecoding::Hard => 4.0,
            InnerDecoding::Chase { .. } => 8.0,
        };
        Nanos::from_secs_f64(pipeline_depth * block_ns * 1e-9)
    }

    /// Outer KP4 decoder latency at a line rate in Gb/s (one codeword of
    /// 5440 bits must be buffered, plus BM/Chien pipeline ≈ one more).
    pub fn outer_latency(&self, rate_gbps: f64) -> Nanos {
        assert!(rate_gbps > 0.0, "rate must be positive");
        let cw_ns = (self.outer.n() * 10) as f64 / rate_gbps;
        Nanos::from_secs_f64(2.0 * cw_ns * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where the envelope is tightest — each radius bin's last word against
    /// each cosine bin's edges, the points its own test probes — a bound
    /// that clears zero keeps `tx`'s sign and stays below the reliability,
    /// at fig12's bracket ends, its converged point, and well outside.
    #[test]
    fn the_lower_bound_holds_at_every_envelope_extreme() {
        const LAST: u64 = (1 << 56) - 1;
        let mut cleared = 0;
        for p in [1e-5, 1e-4, 4.4e-3, 3e-2, 0.2] {
            let channel = AwgnChannel::new(p);
            for r in 0..256u64 {
                for c in 0..256u64 {
                    for words in [(r << 56 | LAST, c << 56), (r << 56 | LAST, c << 56 | LAST)] {
                        let lower = channel.lower_bound(words);
                        if lower > 0.0 {
                            cleared += 1;
                            for cw in [0, 1] {
                                let y = received(&channel.noise, cw, 0, words);
                                assert_eq!(y > 0.0, cw == 1, "p {p}, words {words:x?}");
                                assert!(
                                    y.abs() >= lower,
                                    "p {p}, words {words:x?}: {y} vs {lower}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(cleared > 400_000, "{cleared}");
    }

    #[test]
    fn frame_roundtrip_clean() {
        let code = ConcatenatedCode::default();
        let payload: Vec<u16> = (0..514).map(|i| (i * 7 % 1024) as u16).collect();
        let tx = code.encode_frame(&payload);
        assert_eq!(tx.len(), 5440usize.div_ceil(120)); // 46 inner blocks
        let rx = code.decode_frame(&tx).expect("clean frame decodes");
        assert_eq!(rx, payload);
    }

    #[test]
    fn frame_survives_scattered_bit_errors() {
        let code = ConcatenatedCode::default();
        let payload: Vec<u16> = (0..514).map(|i| (i * 31 % 1024) as u16).collect();
        let mut tx = code.encode_frame(&payload);
        // One bit error in each of 20 different inner blocks: every one is
        // corrected by the inner code alone.
        for (i, block) in tx.iter_mut().enumerate().take(20) {
            *block ^= 1u128 << ((i * 11) % 128);
        }
        assert_eq!(code.decode_frame(&tx).expect("decodes"), payload);
    }

    #[test]
    fn frame_survives_inner_failures_via_outer_code() {
        let code = ConcatenatedCode::default();
        let payload: Vec<u16> = (0..514).map(|i| (i % 1024) as u16).collect();
        let mut tx = code.encode_frame(&payload);
        // Two 2-bit (detected-uncorrectable) inner blocks: the damage
        // passes through to the outer RS, which cleans it up.
        tx[3] ^= (1u128 << 40) | (1u128 << 90);
        tx[17] ^= (1u128 << 5) | (1u128 << 6);
        assert_eq!(code.decode_frame(&tx).expect("outer code rescues"), payload);
    }

    #[test]
    fn soft_beats_hard_decoding() {
        let hard = ConcatenatedCode {
            inner_decoding: InnerDecoding::Hard,
            ..ConcatenatedCode::default()
        };
        let soft = ConcatenatedCode::default();
        let p = Ber::new(4e-3);
        let h = hard
            .inner_waterfall_point(p, 3000, 99)
            .expect("the point runs");
        let s = soft
            .inner_waterfall_point(p, 3000, 99)
            .expect("the point runs");
        assert!(
            s.output_ber.prob() < h.output_ber.prob() / 2.0,
            "Chase ({}) should clearly beat hard decoding ({})",
            s.output_ber,
            h.output_ber
        );
    }

    #[test]
    fn inner_code_improves_ber_at_moderate_input() {
        let code = ConcatenatedCode::default();
        let p = Ber::new(2e-3);
        let point = code
            .inner_waterfall_point(p, 3000, 7)
            .expect("the point runs");
        assert!(
            point.output_ber.prob() < p.prob() / 5.0,
            "inner code must improve BER at 2e-3: got {}",
            point.output_ber
        );
    }

    #[test]
    fn waterfall_monotone_in_input_ber() {
        let code = ConcatenatedCode::default();
        let lo = code
            .inner_waterfall_point(Ber::new(1e-3), 2000, 11)
            .expect("the point runs");
        let hi = code
            .inner_waterfall_point(Ber::new(1e-2), 2000, 11)
            .expect("the point runs");
        assert!(hi.output_ber.prob() > lo.output_ber.prob());
    }

    #[test]
    fn inner_latency_meets_paper_budget() {
        // §3.3.2: < 20 ns at 200 Gb/s.
        let code = ConcatenatedCode::default();
        let lat = code.inner_latency(200.0);
        assert!(
            lat.0 < 20,
            "inner latency {lat} must be under the 20 ns budget"
        );
        // ... while the outer KP4 alone is several times that, which is why
        // the *inner* code had to be short.
        assert!(code.outer_latency(200.0).0 > 20);
    }

    #[test]
    fn overall_rate() {
        let code = ConcatenatedCode::default();
        let expected = (120.0 / 128.0) * (514.0 / 544.0);
        assert!((code.rate() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "payload must be k outer symbols")]
    fn encode_frame_rejects_bad_payload() {
        let _ = ConcatenatedCode::default().encode_frame(&[1, 2, 3]);
    }
}
