//! Offline stand-in for `rand_distr`: the Normal, LogNormal and Exp
//! distributions this workspace samples, over the `rand` shim.
//!
//! Normal sampling uses Box–Muller (two uniform draws per sample, one
//! cached), which is deterministic per generator stream — the property the
//! workspace actually depends on. Tail quality is more than sufficient for
//! the Monte-Carlo models here.

#![forbid(unsafe_code)]

use rand::RngCore;
use std::f64::consts::{PI, TAU};
use std::fmt;
use std::sync::OnceLock;

/// A parameter error from a distribution constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// A scale/shape parameter was not finite and positive.
    BadParam,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid distribution parameter")
    }
}

impl std::error::Error for Error {}

/// A distribution sampleable with any generator.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The normal (Gaussian) distribution N(mean, std_dev²).
///
/// Generic like rand_distr's (`Normal<f64>` in signatures works), but only
/// the `f64` instantiation is implemented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal<F = f64> {
    mean: F,
    std_dev: F,
}

impl Normal<f64> {
    /// Creates a normal distribution.
    ///
    /// Matches rand_distr: `std_dev` must be finite and non-negative
    /// (zero yields a point mass at `mean`).
    pub fn new(mean: f64, std_dev: f64) -> Result<Normal<f64>, Error> {
        if !(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0) {
            return Err(Error::BadParam);
        }
        Ok(Normal { mean, std_dev })
    }
}

impl Normal<f64> {
    /// The distribution mean (matches rand_distr's accessor).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation (matches rand_distr's accessor).
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Distribution<f64> for Normal<f64> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// One standard-normal draw via Box–Muller (cosine branch only, so each
/// sample consumes exactly two u64s — simple and stream-stable).
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    standard_normal_from_bits(rng.next_u64(), rng.next_u64())
}

/// The exact Box–Muller mapping from two raw u64 draws to one standard
/// normal. Public so that batched samplers can draw raw bits in blocks and
/// still land on the identical float every [`Normal::sample`] would have
/// produced from the same stream position — the single source of truth for
/// the bits→normal transform.
pub fn standard_normal_from_bits(b1: u64, b2: u64) -> f64 {
    // u1 in (0, 1] to keep ln() finite.
    let u1 = 1.0 - unit(b1);
    let u2 = unit(b2);
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Upper envelopes of the two factors of [`standard_normal_from_bits`],
/// each a 256-bin table indexed by the top 8 bits of its raw draw, so that
/// `|z| ≤ bound(b1, b2)` costs two loads and a multiply instead of
/// `ln`/`sqrt`/`cos`. Bin edges are exact dyadics and every entry is
/// widened by 1e-9 relative, far more than the transform's own rounding:
/// a kernel that skips a normal on the strength of this bound can never
/// disagree with the exact path.
pub struct NormalEnvelope {
    radius: [f64; 256],
    cosine: [f64; 256],
}

impl NormalEnvelope {
    /// The process-wide tables, built on first use.
    pub fn get() -> &'static NormalEnvelope {
        static TABLES: OnceLock<NormalEnvelope> = OnceLock::new();
        TABLES.get_or_init(|| NormalEnvelope {
            // √(−2·ln u1): u1 = 1 − unit(b1) is no smaller than its bin's
            // lower edge, nor than 2⁻⁵³, the least u1 the mapping produces
            // (the last bin's edge is 0), so every bound is finite.
            radius: std::array::from_fn(|bin| {
                let u1_min = (1.0 - (bin as f64 + 1.0) / 256.0).max(1.0 / (1u64 << 53) as f64);
                (-2.0 * u1_min.ln()).sqrt() * (1.0 + 1e-9)
            }),
            // |cos(TAU·u2)|: the extremum is at an endpoint of the bin
            // unless a multiple of π lies inside.
            cosine: std::array::from_fn(|bin| {
                let lo = TAU * (bin as f64 / 256.0);
                let hi = TAU * ((bin as f64 + 1.0) / 256.0);
                if bin == 0 || (hi / PI).floor() > (lo / PI).floor() {
                    1.0
                } else {
                    (lo.cos().abs().max(hi.cos().abs()) * (1.0 + 1e-9)).min(1.0)
                }
            }),
        })
    }

    /// An upper bound on `|standard_normal_from_bits(b1, b2)|`.
    #[inline]
    pub fn bound(&self, b1: u64, b2: u64) -> f64 {
        self.radius[(b1 >> 56) as usize] * self.cosine[(b2 >> 56) as usize]
    }

    /// The largest value [`NormalEnvelope::bound`] returns (≈ 8.57).
    pub fn max_bound(&self) -> f64 {
        self.radius[255]
    }
}

impl fmt::Debug for NormalEnvelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NormalEnvelope").finish_non_exhaustive()
    }
}

/// A cheap, division-free approximation of [`standard_normal_from_bits`]:
/// `ln` from a 64-bin reciprocal/log table and a degree-5 polynomial,
/// `cos(TAU·u2)` from a 256-entry turn table (exact at the quarter turns)
/// rotated by short sin/cos polynomials, and one `sqrt`. It is not the
/// exact transform: a kernel that advances state with it must carry
/// [`NormalApprox::MAX_ERROR`] per draw as an error bound, and take the
/// exact path wherever a decision could depend on the difference.
pub struct NormalApprox {
    /// Per bin of `z`'s bit pattern: `(1/c, −ln(1/c))` with `c` the bin's
    /// centre, except that the bin around 1 has `c = 1`, so near `u1 = 1`
    /// the reduced argument is exact and `ln` keeps its relative accuracy
    /// however small it gets (and is 0 at 1).
    ln: [(f64, f64); 64],
    /// `(cos, sin)` of `TAU·j/256`: the first quarter from libm, the rest
    /// by exact quarter-turn rotations.
    turn: [(f64, f64); 256],
}

/// The bit pattern of 0.68359375 = 1 − 2⁻⁸ − 40·2⁻⁷: [`NormalApprox`]'s
/// `ln` reduces its argument to `z ∈ [0.68359375, 1.3671875)` in 64 bins
/// of equal bit-pattern width, 2⁻⁷ below 1 and 2⁻⁶ above it, and bin 40
/// is `[1 − 2⁻⁸, 1 + 2⁻⁷)`, centred on 1 in bit patterns.
const LN_OFF: u64 = 0x3fe5_e000_0000_0000;

impl NormalApprox {
    /// The bound a caller carries per draw on `|approx − exact|`, where
    /// `exact` is [`standard_normal_from_bits`] through this platform's
    /// libm. The tables reach ≈ 3e-14; the unit test holds them to a
    /// hundredth of this, so a libm worse than assumed fails there.
    pub const MAX_ERROR: f64 = 1e-10;

    /// The process-wide tables, built on first use.
    pub fn get() -> &'static NormalApprox {
        static TABLES: OnceLock<NormalApprox> = OnceLock::new();
        TABLES.get_or_init(|| NormalApprox {
            ln: std::array::from_fn(|i| {
                let c = match i {
                    0..=39 => f64::from_bits(LN_OFF) + (i as f64 + 0.5) / 128.0,
                    40 => 1.0,
                    _ => 1.0 + 1.0 / 128.0 + (i as f64 - 40.5) / 64.0,
                };
                let inv_c: f64 = 1.0 / c;
                (inv_c, -inv_c.ln())
            }),
            turn: std::array::from_fn(|j| {
                let a = TAU * ((j % 64) as f64 / 256.0);
                let (c, s) = (a.cos(), a.sin());
                match j / 64 {
                    0 => (c, s),
                    1 => (-s, c),
                    2 => (-c, -s),
                    _ => (s, -c),
                }
            }),
        })
    }

    /// Pairs [`NormalApprox::sample_slice`] turns into normals per pass
    /// over its staging arrays.
    pub const CHUNK: usize = 64;

    /// Approximately `standard_normal_from_bits(b1, b2)`, within
    /// [`NormalApprox::MAX_ERROR`].
    #[inline]
    pub fn sample(&self, b1: u64, b2: u64) -> f64 {
        self.lookup(b1, b2).finish()
    }

    /// `out[i] = self.sample(b1[i], b2[i])`, bit for bit, in two loops
    /// per [`NormalApprox::CHUNK`] pairs: the integer work and table
    /// loads, then the float polynomials and `sqrt`, which vectorize.
    ///
    /// # Panics
    /// Panics unless the three slices have one length.
    pub fn sample_slice(&self, b1: &[u64], b2: &[u64], out: &mut [f64]) {
        assert!(
            b1.len() == out.len() && b2.len() == out.len(),
            "slice lengths differ"
        );
        let mut staged = [[0.0; Staged::FIELDS]; Self::CHUNK];
        for ((b1, b2), out) in b1
            .chunks(Self::CHUNK)
            .zip(b2.chunks(Self::CHUNK))
            .zip(out.chunks_mut(Self::CHUNK))
        {
            for ((s, &w1), &w2) in staged.iter_mut().zip(b1).zip(b2) {
                *s = self.lookup(w1, w2).0;
            }
            for (o, s) in out.iter_mut().zip(&staged) {
                *o = Staged(*s).finish();
            }
        }
    }

    /// The table loads and integer-to-float conversions of one sample.
    ///
    /// `ln u1` for `u1 = 1 − unit(b1) = n·2⁻⁵³`, with `n ∈ [1, 2⁵³]`
    /// exact as an `f64`: `n = 2ᵏ·z` with `z` in the table's range and
    /// `c` the centre of `z`'s bin. `cos(TAU·u2)` for `u2 = unit(b2)`: the
    /// turn table at the top 8 bits and the angle `θ < TAU/256` of the
    /// remaining 45.
    #[inline]
    fn lookup(&self, b1: u64, b2: u64) -> Staged {
        let n = ((1u64 << 53) - (b1 >> 11)) as f64;
        let tmp = n.to_bits().wrapping_sub(LN_OFF);
        let (inv_c, ln_c) = self.ln[((tmp >> 46) % 64) as usize];
        let k = ((tmp as i64 >> 52) - 53) as f64;
        let z = f64::from_bits(n.to_bits().wrapping_sub(tmp & (0xfff << 52)));
        let m = b2 >> 11;
        let (c, s) = self.turn[(m >> 45) as usize];
        let theta = (m & ((1 << 45) - 1)) as f64 * (TAU / (1u64 << 53) as f64);
        Staged([z, inv_c, ln_c, k, c, s, theta])
    }
}

/// One sample of [`NormalApprox`] between its two halves, `[z, 1/c, ln c,
/// k − 53, cos and sin of the turn, θ]`, with all its float arithmetic
/// still to do.
struct Staged([f64; Staged::FIELDS]);

impl Staged {
    const FIELDS: usize = 7;

    /// `√(−2·ln u1)·cos(TAU·u2)`: `z·(1/c) = 1 + r` with `|r| ≤ 2⁻⁷` and
    /// `ln u1 = (k − 53)·ln 2 + ln c + ln(1 + r)`, the polynomial in
    /// Estrin's form; the turn rotated by short sin/cos polynomials in θ.
    #[inline]
    fn finish(self) -> f64 {
        let [z, inv_c, ln_c, k, c, s, theta] = self.0;
        let r = z * inv_c - 1.0;
        let r2 = r * r;
        let poly = r2 * ((-0.5 + r * (1.0 / 3.0)) + r2 * (-0.25 + r * 0.2));
        let ln = k * std::f64::consts::LN_2 + ln_c + (r + poly);
        let t = theta * theta;
        let cos = 1.0 + t * (-0.5 + t * (1.0 / 24.0 + t * (-1.0 / 720.0)));
        let sin = theta * (1.0 + t * (-1.0 / 6.0 + t * (1.0 / 120.0)));
        (-2.0 * ln).sqrt() * (c * cos - s * sin)
    }
}

impl fmt::Debug for NormalApprox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NormalApprox").finish_non_exhaustive()
    }
}

/// The log-normal distribution: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    inner: Normal<f64>,
}

impl LogNormal {
    /// Creates a log-normal distribution with the given log-space parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<LogNormal, Error> {
        Ok(LogNormal {
            inner: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng).exp()
    }
}

/// The exponential distribution with rate `lambda`.
///
/// Generic like rand_distr's; only the `f64` instantiation is implemented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp<F = f64> {
    lambda: F,
}

impl Exp<f64> {
    /// Creates an exponential distribution with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Exp<f64>, Error> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(Error::BadParam);
        }
        Ok(Exp { lambda })
    }
}

impl Distribution<f64> for Exp<f64> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = 1.0 - unit(rng.next_u64()); // (0, 1]
        -u.ln() / self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn the_envelope_bounds_the_transform() {
        let env = NormalEnvelope::get();
        let holds = |b1: u64, b2: u64| {
            let z = standard_normal_from_bits(b1, b2);
            assert!(z.abs() <= env.bound(b1, b2), "{b1:#x} {b2:#x}: {z}");
        };
        // Every pair of bins at its extremes: the largest radius of a bin
        // is at its last word, the largest |cos| at its first or last.
        const LAST: u64 = (1 << 56) - 1;
        for r in 0..256u64 {
            for c in 0..256u64 {
                holds(r << 56 | LAST, c << 56);
                holds(r << 56 | LAST, c << 56 | LAST);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xE57E);
        for _ in 0..1_000_000 {
            holds(rng.next_u64(), rng.next_u64());
        }
        assert_eq!(env.max_bound(), env.bound(u64::MAX, 0));
        assert!(env.max_bound().is_finite());
    }

    /// The words at [`NormalApprox`]'s table edges: every `ln` bin edge at
    /// every binade `u1` reaches on the 2⁻⁵³ grid, with the word on either
    /// side of it, and both extremes of `u1` (`b1 < 2¹¹` gives exactly 1,
    /// `u64::MAX` gives 2⁻⁵³); every turn-table bin at both ends, the
    /// quarter turns among them.
    fn edge_words() -> (Vec<u64>, Vec<u64>) {
        let mut b1s = vec![0, (1 << 11) - 1, 1 << 11, u64::MAX];
        for k in 0..=47u64 {
            for i in 0..64u64 {
                let edge = f64::from_bits((LN_OFF + (i << 46)).wrapping_sub(k << 52));
                if edge >= 1.0 {
                    continue;
                }
                let word = ((1.0 - edge) * (1u64 << 53) as f64) as u64;
                for w in [word.saturating_sub(1), word, word + 1] {
                    b1s.push(w << 11);
                }
            }
        }
        let b2s = (0..256u64)
            .flat_map(|j| [j << 56, j << 56 | ((1 << 56) - 1)])
            .collect();
        (b1s, b2s)
    }

    #[test]
    fn the_approximation_is_a_hundredth_of_its_bound_from_libm() {
        let approx = NormalApprox::get();
        let tol = NormalApprox::MAX_ERROR / 100.0;
        let holds = |b1: u64, b2: u64| {
            let err = (approx.sample(b1, b2) - standard_normal_from_bits(b1, b2)).abs();
            assert!(err <= tol, "{b1:#x} {b2:#x}: off by {err:e}");
        };
        let (b1s, b2s) = edge_words();
        for &b1 in &b1s {
            for &b2 in &[0, 64 << 56, 128 << 56, 192 << 56, 0x1234_5678_9abc_def0] {
                holds(b1, b2);
            }
        }
        for &b2 in &b2s {
            for &b1 in &[0, u64::MAX, 1 << 63, 0x0123_4567_89ab_cdef] {
                holds(b1, b2);
            }
        }
        let mut rng = StdRng::seed_from_u64(0xA99_0C5);
        for _ in 0..10_000_000 {
            holds(rng.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn the_slice_form_is_sample_bit_for_bit() {
        let approx = NormalApprox::get();
        const C: usize = NormalApprox::CHUNK;
        // Each length a whole pass, a short one, or both.
        let holds = |b1: &[u64], b2: &[u64]| {
            for len in [1, C - 1, C, C + 1, 3 * C + 17] {
                for (w1, w2) in b1.chunks(len).zip(b2.chunks(len)) {
                    let mut out = vec![f64::NAN; w1.len()];
                    approx.sample_slice(w1, w2, &mut out);
                    for ((&x, &y), z) in w1.iter().zip(w2).zip(&out) {
                        let want = approx.sample(x, y);
                        assert_eq!(z.to_bits(), want.to_bits(), "{x:#x} {y:#x}: {z} vs {want}");
                    }
                }
            }
        };
        // Every b1 edge against every b2 edge, and the reverse pairing
        // cycled so that each b2 edge meets many b1 edges.
        let (b1s, b2s) = edge_words();
        let (p1, p2): (Vec<u64>, Vec<u64>) = b1s
            .iter()
            .flat_map(|&x| [0, 64 << 56, 128 << 56, 192 << 56].map(|y| (x, y)))
            .chain(
                b2s.iter()
                    .enumerate()
                    .map(|(i, &y)| (b1s[i * 7 % b1s.len()], y)),
            )
            .unzip();
        holds(&p1, &p2);
        let mut rng = StdRng::seed_from_u64(0x51_1CE);
        let (r1, r2): (Vec<u64>, Vec<u64>) = (0..1_000_000)
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .unzip();
        holds(&r1, &r2);
    }
}
