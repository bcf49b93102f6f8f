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
}
