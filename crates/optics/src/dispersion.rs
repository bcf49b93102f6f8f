//! Chromatic dispersion for O-band CWDM links and MLSE mitigation.
//!
//! §3.3.1 ("Fiber impairments"): both the 4×20 nm and 8×10 nm grids span an
//! 80 nm window around the 1310 nm zero-dispersion point of G.652 fiber, so
//! the outermost lanes see non-zero dispersion — an issue above 100 Gb/s at
//! datacenter reach. The paper mitigates with chirp management (EML) and
//! MLSE nonlinear equalization in the DSP. We model the residual penalty.

use crate::modulation::LaneRate;
use crate::wdm::WdmLane;
use lightwave_units::{Db, Nanometers};
use serde::{Deserialize, Serialize};

/// G.652 standard single-mode fiber dispersion parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiberDispersion {
    /// Zero-dispersion wavelength, nm.
    pub lambda0: Nanometers,
    /// Zero-dispersion slope S₀, ps/(nm²·km).
    pub slope: f64,
}

impl Default for FiberDispersion {
    fn default() -> Self {
        FiberDispersion {
            lambda0: Nanometers(1310.0),
            slope: 0.092,
        }
    }
}

impl FiberDispersion {
    /// Dispersion coefficient D(λ) in ps/(nm·km), from the standard
    /// Sellmeier-derived G.652 formula `D = S₀/4 · (λ − λ₀⁴/λ³)`.
    pub(crate) fn coefficient(&self, wavelength: Nanometers) -> f64 {
        let l = wavelength.nm();
        let l0 = self.lambda0.nm();
        self.slope / 4.0 * (l - l0.powi(4) / l.powi(3))
    }

    /// Accumulated dispersion over a span, ps/nm.
    pub(crate) fn accumulated(&self, wavelength: Nanometers, km: f64) -> f64 {
        assert!(km >= 0.0, "span length must be >= 0");
        self.coefficient(wavelength) * km
    }
}

/// Equalizer present in the receiver DSP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Equalizer {
    /// Linear feed-forward equalizer only.
    Ffe,
    /// Maximum-likelihood sequence estimation (§3.3.1's mitigation); roughly
    /// halves the residual intersymbol-interference penalty.
    Mlse,
}

/// Maximum penalty reported; beyond this the link is dispersion-limited.
pub(crate) const PENALTY_CAP_DB: f64 = 6.0;

/// Dispersion power penalty for one lane over one span.
///
/// Eye-closure model: the pulse spread `Δτ = |D·L| · Δλ_signal` (with
/// `Δλ_signal = baud · λ²/c`, the modulation-induced spectral width) closes
/// the eye, whose unimpaired width for an M-level format is `T/(M−1)` — a
/// PAM4 eye is a third of the symbol period, which is why dispersion bites
/// at 100G PAM4 but not 25G NRZ (§3.3.1). The power penalty is
/// `−10·log₁₀(1 − 2·(Δτ/T_eye)²)`, capped at `PENALTY_CAP_DB` once the
/// eye is effectively shut. MLSE halves the effective spread.
pub fn dispersion_penalty(
    fiber: &FiberDispersion,
    lane: &WdmLane,
    rate: LaneRate,
    km: f64,
    eq: Equalizer,
) -> Db {
    let d_total_ps_per_nm = fiber.accumulated(lane.center, km).abs();
    let lambda_m = lane.center.nm() * 1e-9;
    let baud = rate.baud();
    // Modulation spectral width in nm.
    let delta_lambda_nm = baud * lambda_m * lambda_m / Nanometers::C * 1e9;
    let spread_ps = d_total_ps_per_nm * delta_lambda_nm;
    let symbol_ps = 1e12 / baud;
    let eye_ps = symbol_ps / (rate.line_code().levels() - 1) as f64;
    let mut ratio = spread_ps / eye_ps;
    if eq == Equalizer::Mlse {
        ratio *= 0.5;
    }
    let closure = 1.0 - 2.0 * ratio * ratio;
    if closure <= 10f64.powf(-PENALTY_CAP_DB / 10.0) {
        return Db(PENALTY_CAP_DB);
    }
    Db((-10.0 * closure.log10()).min(PENALTY_CAP_DB))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wdm::WdmGrid;

    #[test]
    fn zero_dispersion_at_lambda0() {
        let f = FiberDispersion::default();
        assert!(f.coefficient(Nanometers(1310.0)).abs() < 1e-9);
    }

    #[test]
    fn outer_lanes_see_more_dispersion() {
        let f = FiberDispersion::default();
        let d_1311 = f.coefficient(Nanometers(1311.0)).abs();
        let d_1271 = f.coefficient(Nanometers(1271.0)).abs();
        let d_1331 = f.coefficient(Nanometers(1331.0)).abs();
        assert!(d_1271 > d_1311 && d_1331 > d_1311);
        // G.652 at 1331 nm is roughly +1.8 ps/nm/km.
        let d = f.coefficient(Nanometers(1331.0));
        assert!((1.0..3.0).contains(&d), "D(1331) = {d}");
        // ...and negative below λ₀.
        assert!(f.coefficient(Nanometers(1271.0)) < 0.0);
    }

    #[test]
    fn penalty_negligible_at_datacenter_reach_50g() {
        // 50G PAM4, 2 km, worst CWDM4 lane: the regime the paper ran first.
        let f = FiberDispersion::default();
        let lane = WdmGrid::Cwdm4.lane(3).unwrap();
        let p = dispersion_penalty(&f, &lane, LaneRate::Pam4_50, 2.0, Equalizer::Ffe);
        assert!(p.db() < 0.5, "50G/2km penalty {p} should be small");
    }

    #[test]
    fn penalty_matters_above_100g_and_mlse_helps() {
        // §3.3.1: "chromatic dispersion is an issue for data rates above
        // 100 Gb/s for the link lengths used for our use cases".
        let f = FiberDispersion::default();
        let lane = WdmGrid::Cwdm8.lane(7).unwrap(); // 1341 nm, worst lane
        let ffe = dispersion_penalty(&f, &lane, LaneRate::Pam4_100, 2.0, Equalizer::Ffe);
        let mlse = dispersion_penalty(&f, &lane, LaneRate::Pam4_100, 2.0, Equalizer::Mlse);
        assert!(
            ffe.db() > 0.4,
            "100G worst-lane penalty {ffe} should be material"
        );
        assert!(
            mlse.db() < ffe.db() * 0.6,
            "MLSE should substantially cut it"
        );
    }

    #[test]
    fn penalty_grows_with_length() {
        let f = FiberDispersion::default();
        let lane = WdmGrid::Cwdm8.lane(0).unwrap();
        let p1 = dispersion_penalty(&f, &lane, LaneRate::Pam4_100, 1.0, Equalizer::Ffe);
        let p4 = dispersion_penalty(&f, &lane, LaneRate::Pam4_100, 4.0, Equalizer::Ffe);
        assert!(p4.db() > p1.db());
    }

    #[test]
    #[should_panic(expected = "span length")]
    fn negative_span_rejected() {
        let f = FiberDispersion::default();
        let _ = f.accumulated(Nanometers(1310.0), -1.0);
    }
}
