//! Analytic PAM4/NRZ direct-detection BER model with MPI beat noise and the
//! OIM (optical interference mitigation) DSP notch filter of §3.3.2.
//!
//! The receiver model follows standard IM-DD link-budget practice:
//!
//! * the M amplitude levels are equally spaced between `P_min` and `P_max`
//!   set by the average power and extinction ratio;
//! * each level carries thermal (input-referred TIA), shot, and RIN noise;
//! * MPI adds a *signal-proportional* beat-noise term: the interferer's
//!   carrier beats against the signal carrier at the photodiode, producing
//!   noise with σ² ∝ m·P_level·P_avg. Because it scales with signal power,
//!   raising launch power cannot out-run it — MPI produces BER *floors*,
//!   which is exactly the behaviour Fig. 11 shows for −26 dB MPI;
//! * decision thresholds sit at the noise-weighted midpoints, giving the
//!   standard `BER = (2 / (M·log₂M)) · Σ_eyes Q(ΔI / (σ_lo + σ_hi))`.
//!
//! OIM reconstructs the narrow-band carrier-to-carrier beat in the digital
//! domain and removes it with a tracked notch filter (§4.1.2, patent
//! US10084547B2). We model it as a power suppression of the beat term with
//! a small wideband residual that the notch cannot capture.

use crate::modulation::LaneRate;
use lightwave_units::{math, Ber, Db, Dbm};
use serde::{Deserialize, Serialize};

/// Electron charge, coulombs.
const Q_ELECTRON: f64 = 1.602_176_634e-19;

/// Configuration of the OIM notch-filter DSP block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OimConfig {
    /// Power suppression of the tracked narrow-band beat component, dB
    /// (positive number; applied as attenuation).
    pub suppression: Db,
    /// Fraction of the beat power that is wide-band (outside the notch) and
    /// therefore survives regardless of suppression depth.
    pub wideband_residual: f64,
}

impl Default for OimConfig {
    fn default() -> Self {
        OimConfig {
            suppression: Db(13.0),
            wideband_residual: 0.02,
        }
    }
}

impl OimConfig {
    /// Effective multiplicative factor applied to the MPI power ratio.
    pub fn mpi_power_factor(&self) -> f64 {
        let suppressed = (1.0 - self.wideband_residual) * (-self.suppression).linear();
        suppressed + self.wideband_residual
    }
}

/// A direct-detection receiver for one WDM lane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pam4Receiver {
    /// Lane rate (sets baud, bandwidth, and level count).
    pub rate: LaneRate,
    /// Photodiode responsivity, A/W.
    pub responsivity: f64,
    /// Input-referred TIA noise current density, A/√Hz.
    pub thermal_noise_density: f64,
    /// Laser relative intensity noise, linear 1/Hz (e.g. 1e-14 = −140 dB/Hz).
    pub rin: f64,
    /// Transmitter extinction ratio, linear (P_max / P_min).
    pub extinction_ratio: f64,
    /// Polarization/coherence factor for MPI beating, in [0, 1].
    pub mpi_xi: f64,
    /// Implementation penalty applied to received power, dB (TDECQ-style
    /// lump for equalizer noise enhancement, jitter, etc.).
    pub implementation_penalty: Db,
}

impl Pam4Receiver {
    /// A calibrated 50 Gb/s PAM4 receiver (one lane of the 200 Gb/s CWDM4
    /// link evaluated in Fig. 11).
    pub fn cwdm4_50g() -> Pam4Receiver {
        Pam4Receiver {
            rate: LaneRate::Pam4_50,
            responsivity: 0.85,
            thermal_noise_density: 18e-12,
            rin: 1e-14,
            extinction_ratio: 4.0, // 6 dB
            // Worst-case co-polarized beating; the paper's tight component
            // specs are driven by exactly this corner.
            mpi_xi: 1.0,
            implementation_penalty: Db(1.0),
        }
    }

    /// A calibrated 100 Gb/s PAM4 receiver (one lane of the CWDM8 module).
    pub fn cwdm8_100g() -> Pam4Receiver {
        Pam4Receiver {
            rate: LaneRate::Pam4_100,
            responsivity: 0.8,
            thermal_noise_density: 20e-12,
            rin: 1e-14,
            extinction_ratio: 4.0,
            mpi_xi: 1.0,
            implementation_penalty: Db(1.5),
        }
    }

    /// Receiver electrical bandwidth in Hz.
    pub fn bandwidth_hz(&self) -> f64 {
        self.rate.rx_bandwidth().ghz() * 1e9
    }

    /// The receiver at one operating point — the one place the level
    /// powers (equally spaced between the extinction-ratio extremes around
    /// the received average), the noise terms and the OIM factor are worked
    /// out; `ber`, `thresholds` and the Monte-Carlo channel all read it.
    pub(crate) fn level_plan(
        &self,
        received: Dbm,
        mpi_ratio: f64,
        oim: Option<OimConfig>,
    ) -> LevelPlan {
        let effective = received - self.implementation_penalty;
        let p_received_w = effective.milliwatts().mw() * 1e-3;
        let er = self.extinction_ratio;
        let p_min = 2.0 * p_received_w / (er + 1.0);
        let p_max = er * p_min;
        let levels = self.rate.line_code().levels();
        let mut powers_w = [0.0; MAX_LEVELS];
        for (i, p) in powers_w[..levels].iter_mut().enumerate() {
            *p = p_min + (p_max - p_min) * i as f64 / (levels - 1) as f64;
        }
        let p_avg_w = powers_w[..levels].iter().sum::<f64>() / levels as f64;
        let m_eff = match oim {
            Some(cfg) => mpi_ratio * cfg.mpi_power_factor(),
            None => mpi_ratio,
        };
        let b = self.bandwidth_hz();
        let thermal = self.thermal_noise_density * self.thermal_noise_density * b;
        let currents = powers_w.map(|p| self.responsivity * p);
        let additive_var = currents.map(|i| {
            let shot = 2.0 * Q_ELECTRON * i * b;
            let rin = self.rin * i * i * b;
            thermal + shot + rin
        });
        // Carrier-carrier beat: i_beat = 2R√(P_level·P_mpi)·cos φ with
        // P_mpi = m·P_avg; mean-square over φ and polarization gives
        // σ² = 2·ξ·m·R²·P_level·P_avg.
        let sigma = std::array::from_fn(|l| {
            let mpi = 2.0
                * self.mpi_xi
                * m_eff
                * self.responsivity
                * self.responsivity
                * powers_w[l]
                * p_avg_w;
            (additive_var[l] + mpi).sqrt()
        });
        LevelPlan {
            levels,
            powers_w,
            currents,
            additive_var,
            sigma,
            p_mpi_w: m_eff * p_avg_w,
        }
    }

    /// Pre-FEC BER at a received average power, for a given linear MPI
    /// interferer-to-signal ratio, with optional OIM mitigation.
    pub fn ber(&self, received: Dbm, mpi_ratio: f64, oim: Option<OimConfig>) -> Ber {
        assert!(
            mpi_ratio >= 0.0 && mpi_ratio.is_finite(),
            "MPI ratio must be finite and >= 0, got {mpi_ratio}"
        );
        let plan = self.level_plan(received, mpi_ratio, oim);
        let m = plan.levels;
        let delta_i =
            self.responsivity * (plan.powers_w[m - 1] - plan.powers_w[0]) / (m - 1) as f64;
        let mut sum_q = 0.0;
        for t in 0..(m - 1) {
            let q_arg = delta_i / (plan.sigma[t] + plan.sigma[t + 1]);
            sum_q += math::q_function(q_arg);
        }
        let bits = self.rate.line_code().bits_per_symbol() as f64;
        Ber::new(2.0 * sum_q / (m as f64 * bits))
    }

    /// The decision thresholds (in amps) used by the analytic model — the
    /// noise-weighted midpoints between adjacent levels. Exposed so the
    /// Monte-Carlo simulator slices with the same thresholds.
    pub fn thresholds(&self, received: Dbm, mpi_ratio: f64, oim: Option<OimConfig>) -> Vec<f64> {
        let plan = self.level_plan(received, mpi_ratio, oim);
        (0..plan.levels - 1).map(|t| plan.threshold(t)).collect()
    }

    /// Receiver sensitivity: the lowest received power achieving
    /// `target` BER, found by bisection over [−30, +5] dBm.
    ///
    /// Returns `None` if the target is unreachable at any power (an MPI
    /// induced BER floor above the target).
    pub fn sensitivity(&self, target: Ber, mpi_ratio: f64, oim: Option<OimConfig>) -> Option<Dbm> {
        let (mut lo, mut hi) = (-30.0f64, 5.0f64);
        if self.ber(Dbm(hi), mpi_ratio, oim).prob() > target.prob() {
            return None; // floor above target
        }
        if self.ber(Dbm(lo), mpi_ratio, oim).prob() <= target.prob() {
            return Some(Dbm(lo)); // already sensitive at the bottom of range
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.ber(Dbm(mid), mpi_ratio, oim).prob() > target.prob() {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(Dbm(hi))
    }
}

/// The most levels a line code has (PAM4).
const MAX_LEVELS: usize = 4;

/// A [`Pam4Receiver`] at one (power, MPI, OIM) operating point, held on
/// the stack. Entries past `levels` describe a dark level (zero power,
/// thermal noise only) and are never read; all four are always computed
/// so the loops have a fixed length.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LevelPlan {
    /// Amplitude levels in use: 2 for NRZ, 4 for PAM4.
    pub levels: usize,
    /// Optical power of each level, watts.
    pub powers_w: [f64; MAX_LEVELS],
    /// Photocurrent of each level, amps.
    pub currents: [f64; MAX_LEVELS],
    /// Thermal + shot + RIN noise variance at each level, amps².
    pub additive_var: [f64; MAX_LEVELS],
    /// Total noise σ at each level, MPI beat included, amps.
    pub sigma: [f64; MAX_LEVELS],
    /// Interferer power after OIM, watts.
    pub p_mpi_w: f64,
}

impl LevelPlan {
    /// The noise-weighted midpoint between levels `t` and `t + 1`, amps.
    pub fn threshold(&self, t: usize) -> f64 {
        let (i, s) = (&self.currents, &self.sigma);
        (i[t] * s[t + 1] + i[t + 1] * s[t]) / (s[t] + s[t + 1])
    }
}

/// Converts an MPI level quoted in dB (e.g. −32.0) to the linear ratio.
pub fn mpi_db(db: f64) -> f64 {
    Db(db).linear()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_decreases_with_power_without_mpi() {
        let rx = Pam4Receiver::cwdm4_50g();
        let mut prev = 1.0;
        for p in [-16.0, -14.0, -12.0, -10.0, -8.0] {
            let ber = rx.ber(Dbm(p), 0.0, None).prob();
            assert!(ber < prev, "BER must fall as power rises (p={p})");
            prev = ber;
        }
    }

    #[test]
    fn clean_sensitivity_is_plausible_for_50g_pam4() {
        let rx = Pam4Receiver::cwdm4_50g();
        let s = rx.sensitivity(Ber::KP4_THRESHOLD, 0.0, None).unwrap();
        assert!(
            (-16.0..=-9.0).contains(&s.dbm()),
            "50G PAM4 KP4 sensitivity {s} outside plausible window"
        );
    }

    #[test]
    fn mpi_minus26_causes_floor_above_kp4() {
        // Fig. 11: the worst MPI condition cannot reach the KP4 threshold
        // without OIM — a BER floor.
        let rx = Pam4Receiver::cwdm4_50g();
        assert!(
            rx.sensitivity(Ber::KP4_THRESHOLD, mpi_db(-26.0), None)
                .is_none(),
            "-26 dB MPI should floor above 2e-4 without OIM"
        );
        // ... and OIM rescues it.
        assert!(rx
            .sensitivity(
                Ber::KP4_THRESHOLD,
                mpi_db(-26.0),
                Some(OimConfig::default())
            )
            .is_some());
    }

    #[test]
    fn oim_gain_exceeds_1db_at_minus32() {
        // §4.1.2: "for an MPI value of −32 dB, and a bit error rate of
        // 2×10⁻⁴ ... the algorithm improves the receiver sensitivity by
        // more than 1 dB".
        let rx = Pam4Receiver::cwdm4_50g();
        let without = rx
            .sensitivity(Ber::KP4_THRESHOLD, mpi_db(-32.0), None)
            .unwrap();
        let with = rx
            .sensitivity(
                Ber::KP4_THRESHOLD,
                mpi_db(-32.0),
                Some(OimConfig::default()),
            )
            .unwrap();
        let gain = (without - with).db();
        assert!(gain > 1.0, "OIM gain {gain:.2} dB should exceed 1 dB");
        assert!(gain < 4.0, "OIM gain {gain:.2} dB implausibly large");
    }

    #[test]
    fn oim_is_nearly_free_when_mpi_is_negligible() {
        let rx = Pam4Receiver::cwdm4_50g();
        let without = rx
            .sensitivity(Ber::KP4_THRESHOLD, mpi_db(-55.0), None)
            .unwrap();
        let with = rx
            .sensitivity(
                Ber::KP4_THRESHOLD,
                mpi_db(-55.0),
                Some(OimConfig::default()),
            )
            .unwrap();
        assert!((without - with).db().abs() < 0.1);
    }

    #[test]
    fn stronger_mpi_always_raises_ber() {
        let rx = Pam4Receiver::cwdm4_50g();
        let p = Dbm(-10.0);
        let mut prev = 0.0;
        for db in [-45.0, -38.0, -32.0, -26.0] {
            let ber = rx.ber(p, mpi_db(db), None).prob();
            assert!(ber >= prev, "BER must be monotone in MPI");
            prev = ber;
        }
    }

    #[test]
    fn thresholds_are_strictly_increasing() {
        let rx = Pam4Receiver::cwdm4_50g();
        let th = rx.thresholds(Dbm(-10.0), mpi_db(-32.0), None);
        assert_eq!(th.len(), 3);
        assert!(th.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn oim_factor_bounded_by_residual() {
        let cfg = OimConfig {
            suppression: Db(40.0),
            wideband_residual: 0.02,
        };
        let f = cfg.mpi_power_factor();
        assert!(
            (0.02..0.021).contains(&f),
            "residual floors the factor: {f}"
        );
    }

    #[test]
    fn nrz_outperforms_pam4_at_same_power() {
        // NRZ has one eye spanning the full OMA; PAM4 splits it in three.
        let pam4 = Pam4Receiver::cwdm4_50g();
        let nrz = Pam4Receiver {
            rate: LaneRate::Nrz25,
            ..pam4
        };
        let p = Dbm(-14.0);
        assert!(nrz.ber(p, 0.0, None).prob() < pam4.ber(p, 0.0, None).prob());
    }

    #[test]
    fn sensitivity_bisection_brackets_target() {
        let rx = Pam4Receiver::cwdm4_50g();
        let s = rx
            .sensitivity(Ber::KP4_THRESHOLD, mpi_db(-32.0), None)
            .unwrap();
        let at = rx.ber(s, mpi_db(-32.0), None).prob();
        assert!(
            (at / Ber::KP4_THRESHOLD.prob() - 1.0).abs() < 0.01,
            "BER at sensitivity {at:.3e} should sit on the threshold"
        );
    }
}
