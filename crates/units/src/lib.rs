//! Strongly-typed engineering units for lightwave-fabric modeling.
//!
//! Optical link budgets are a minefield of logarithmic/linear unit confusion:
//! a 2 dB insertion loss is a *ratio*, a −10 dBm launch power is an *absolute
//! power*, and adding two dBm values is almost always a bug. This crate makes
//! those distinctions type errors instead of silent miscalculations.
//!
//! The core types are:
//!
//! - [`Db`] — a dimensionless power ratio in decibels (gains and losses).
//! - [`Dbm`] — an absolute optical power referenced to 1 mW.
//! - [`Milliwatts`] — the same quantity in linear units.
//! - [`Nanometers`] / [`Gigahertz`] — wavelength and bandwidth.
//! - [`Gbps`] — data rate.
//! - [`Ber`] — a bit-error ratio with Q-factor conversions.
//! - [`Availability`] — a probability of being up, with series/parallel
//!   composition.
//!
//! Arithmetic follows link-budget conventions: `Dbm - Db = Dbm` (apply a
//! loss), `Dbm - Dbm = Db` (a margin), and `Db` values accumulate (`+=`,
//! `Sum`). There is deliberately no `Dbm + Dbm`.
//!
//! The [`math`] module provides the special functions (erfc, Q-function and
//! its inverse) used by the BER models in `lightwave-optics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod math;

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A dimensionless power ratio expressed in decibels.
///
/// Positive values are gains, negative values are losses when used as a gain;
/// by convention this library stores *insertion loss* and *return loss* as
/// positive-loss [`Db`] quantities and documents the sign at each use site.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Db(pub f64);

impl Db {
    /// Zero dB — unity gain.
    pub(crate) const ZERO: Db = Db(0.0);

    /// Creates a ratio from a linear power factor (e.g. `0.5` → `-3.01 dB`).
    ///
    /// # Panics
    /// Panics if `linear` is not finite and positive.
    pub fn from_linear(linear: f64) -> Db {
        assert!(
            linear.is_finite() && linear > 0.0,
            "linear ratio must be finite and > 0, got {linear}"
        );
        Db(10.0 * linear.log10())
    }

    /// Converts to a linear power factor (e.g. `-3 dB` → `~0.5`).
    pub fn linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// The raw decibel value.
    pub fn db(self) -> f64 {
        self.0
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Sum for Db {
    fn sum<I: Iterator<Item = Db>>(iter: I) -> Db {
        iter.fold(Db::ZERO, |a, b| Db(a.0 + b.0))
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

/// Absolute optical power in dBm (decibels referenced to 1 mW).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Dbm(pub f64);

impl Dbm {
    /// Converts to linear milliwatts.
    pub fn milliwatts(self) -> Milliwatts {
        Milliwatts(10f64.powf(self.0 / 10.0))
    }

    /// The raw dBm value.
    pub fn dbm(self) -> f64 {
        self.0
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

/// Linear optical power in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Milliwatts(pub f64);

impl Milliwatts {
    /// The raw mW value.
    pub fn mw(self) -> f64 {
        self.0
    }
}

/// An optical wavelength in nanometers.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Nanometers(pub f64);

impl Nanometers {
    /// Speed of light in vacuum, m/s.
    pub const C: f64 = 299_792_458.0;

    /// The raw nm value.
    pub fn nm(self) -> f64 {
        self.0
    }
}

/// A frequency or analog bandwidth in gigahertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Gigahertz(pub f64);

impl Gigahertz {
    /// The raw GHz value.
    pub fn ghz(self) -> f64 {
        self.0
    }
}

/// A data rate in gigabits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Gbps(pub f64);

impl Gbps {
    /// The raw Gb/s value.
    pub fn gbps(self) -> f64 {
        self.0
    }
}

/// A bit-error ratio.
///
/// Stored as a probability in `[0, 0.5]`; helpers convert to and from the
/// Gaussian Q-factor used by receiver-sensitivity models.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Ber(pub f64);

impl Ber {
    /// The KP4 (RS(544,514)) pre-FEC threshold of 2×10⁻⁴ used throughout the
    /// paper as the correctable operating point.
    pub const KP4_THRESHOLD: Ber = Ber(2.0e-4);

    /// Creates a BER, clamping into the meaningful `[0, 0.5]` range.
    pub fn new(p: f64) -> Ber {
        assert!(
            p.is_finite() && p >= 0.0,
            "BER must be finite and >= 0, got {p}"
        );
        Ber(p.min(0.5))
    }

    /// The raw error probability.
    pub fn prob(self) -> f64 {
        self.0
    }

    /// `-log10(BER)`, the "orders of magnitude" scale used in BER plots.
    ///
    /// Returns `f64::INFINITY` for a zero BER.
    pub(crate) fn neg_log10(self) -> f64 {
        if self.0 == 0.0 {
            f64::INFINITY
        } else {
            -self.0.log10()
        }
    }

    /// BER corresponding to a Gaussian Q-factor: `BER = Q(q) = erfc(q/√2)/2`.
    pub fn from_q_factor(q: f64) -> Ber {
        Ber(math::q_function(q))
    }

    /// The Gaussian Q-factor corresponding to this BER.
    pub fn q_factor(self) -> f64 {
        math::q_inverse(self.0)
    }

    /// True if this BER is at or below the given FEC threshold.
    pub fn meets(self, threshold: Ber) -> bool {
        self.0 <= threshold.0
    }

    /// Margin in orders of magnitude below `threshold` (positive = better).
    pub fn margin_orders(self, threshold: Ber) -> f64 {
        self.neg_log10() - threshold.neg_log10()
    }
}

impl fmt::Display for Ber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2e}", self.0)
    }
}

/// A steady-state availability: the long-run probability of being up.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Availability(f64);

impl Availability {
    /// Creates an availability.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64) -> Availability {
        assert!(
            (0.0..=1.0).contains(&p),
            "availability must be in [0,1], got {p}"
        );
        Availability(p)
    }

    /// From "number of nines": `nines(3)` = 99.9%.
    pub fn from_nines(nines: f64) -> Availability {
        Availability::new(1.0 - 10f64.powf(-nines))
    }

    /// The probability of being up.
    pub fn prob(self) -> f64 {
        self.0
    }

    /// The probability of being down.
    pub fn unavailability(self) -> f64 {
        1.0 - self.0
    }

    /// Availability of a series system: up only if *all* components are up.
    pub fn series(components: impl IntoIterator<Item = Availability>) -> Availability {
        Availability(components.into_iter().map(|a| a.0).product())
    }

    /// Availability of this component replicated `n` times in series.
    pub fn series_of(self, n: u32) -> Availability {
        Availability(self.0.powi(n as i32))
    }

    /// Availability of a parallel (redundant) pair: down only if *both* down.
    pub fn parallel(self, other: Availability) -> Availability {
        Availability(1.0 - (1.0 - self.0) * (1.0 - other.0))
    }
}

impl fmt::Display for Availability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}%", self.0 * 100.0)
    }
}

/// A duration in nanoseconds, the native tick of link- and switch-level models.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanos(pub u64);

impl Nanos {
    /// From milliseconds.
    pub fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// From seconds (fractional allowed; rounds to nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Nanos {
        assert!(
            s >= 0.0 && s.is_finite(),
            "duration must be finite and >= 0"
        );
        Nanos((s * 1e9).round() as u64)
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn db_linear_roundtrip() {
        for &x in &[0.01, 0.5, 1.0, 2.0, 100.0] {
            let db = Db::from_linear(x);
            assert!(close(db.linear(), x, 1e-12 * x.max(1.0)));
        }
    }

    #[test]
    fn db_3db_is_half_power() {
        assert!(close(Db(-3.0103).linear(), 0.5, 1e-4));
        assert!(close(Db::from_linear(2.0).db(), 3.0103, 1e-3));
    }

    #[test]
    fn dbm_arithmetic_follows_link_budget_rules() {
        let launch = Dbm(1.0);
        let after_loss = launch - Db(2.5);
        assert!(close(after_loss.dbm(), -1.5, 1e-12));
        let margin = launch - after_loss;
        assert!(close(margin.db(), 2.5, 1e-12));
    }

    #[test]
    fn dbm_mw_roundtrip() {
        let p = Dbm(-7.3);
        let back = Dbm(10.0 * p.milliwatts().mw().log10());
        assert!(close(back.dbm(), -7.3, 1e-12));
        assert!(close(Dbm(0.0).milliwatts().mw(), 1.0, 1e-12));
        assert!(close(Dbm(10.0).milliwatts().mw(), 10.0, 1e-12));
    }

    #[test]
    #[should_panic(expected = "must be finite and > 0")]
    fn db_from_linear_rejects_zero() {
        let _ = Db::from_linear(0.0);
    }

    #[test]
    fn gbps_transfer_time() {
        // 1 GiB at 100 Gb/s ≈ 85.9 ms.
        let t = 1024.0 * 1024.0 * 1024.0 * 8.0 / (Gbps(100.0).gbps() * 1e9);
        assert!(close(t, 0.0859, 1e-3), "got {t}");
    }

    #[test]
    fn ber_q_factor_known_points() {
        // Q = 7.03 → BER ≈ 1e-12 (textbook value).
        let ber = Ber::from_q_factor(7.034);
        assert!(close(ber.neg_log10(), 12.0, 0.05), "Q=7.034 gave BER {ber}");
        // Q ≈ 3.54 → BER ≈ 2e-4 (the KP4 threshold).
        let q = Ber::KP4_THRESHOLD.q_factor();
        assert!(close(q, 3.54, 0.01), "got q = {q}");
    }

    #[test]
    fn ber_q_roundtrip() {
        for &q in &[1.0, 2.0, 3.0, 4.5, 6.0, 7.5] {
            let ber = Ber::from_q_factor(q);
            assert!(close(ber.q_factor(), q, 1e-6), "roundtrip failed at q={q}");
        }
    }

    #[test]
    fn ber_margin_orders() {
        let b = Ber::new(2.0e-6);
        assert!(close(b.margin_orders(Ber::KP4_THRESHOLD), 2.0, 1e-9));
        assert!(b.meets(Ber::KP4_THRESHOLD));
        assert!(!Ber::new(1e-3).meets(Ber::KP4_THRESHOLD));
    }

    #[test]
    fn availability_composition() {
        let a = Availability::new(0.999);
        // 48 OCSes in series: 0.999^48 ≈ 0.9531.
        let fabric = a.series_of(48);
        assert!(close(fabric.prob(), 0.9531, 1e-3), "got {}", fabric.prob());
        // Redundant pair of 99% components → 99.99%.
        let pair = Availability::new(0.99).parallel(Availability::new(0.99));
        assert!(close(pair.prob(), 0.9999, 1e-12));
    }

    #[test]
    fn availability_nines() {
        assert!(close(Availability::from_nines(3.0).prob(), 0.999, 1e-12));
        // Expected downtime per year, in minutes.
        let dt = Availability::from_nines(4.0).unavailability() * 365.25 * 24.0 * 60.0;
        assert!(close(dt, 52.6, 0.5), "got {dt}");
    }

    #[test]
    #[should_panic(expected = "availability must be in [0,1]")]
    fn availability_rejects_out_of_range() {
        let _ = Availability::new(1.5);
    }

    #[test]
    fn nanos_display_scales() {
        assert_eq!(Nanos(12).to_string(), "12 ns");
        assert_eq!(Nanos(3_000).to_string(), "3.000 µs");
        assert_eq!(Nanos::from_millis(25).to_string(), "25.000 ms");
        assert_eq!(Nanos::from_secs_f64(1.5).to_string(), "1.500 s");
    }

    #[test]
    fn nanos_roundtrip_and_arith() {
        let t = Nanos::from_secs_f64(0.25);
        assert!(close(t.as_secs_f64(), 0.25, 1e-12));
        assert_eq!(Nanos(5) + Nanos(7), Nanos(12));
        assert_eq!(Nanos(5).saturating_sub(Nanos(7)), Nanos(0));
        assert_eq!(Nanos(5) * 3, Nanos(15));
    }
}
