//! OSFP module families and their fabric-level consequences.
//!
//! Three families matter to the paper's story (Fig. 9, §4.2.2):
//!
//! | family        | λ plan      | fibers | bidi | Gb/s per fiber | OCS ports/module |
//! |---------------|-------------|--------|------|----------------|------------------|
//! | CWDM4 duplex  | 4 × 20 nm   | 4      | no   | 200 (one way)  | 4                |
//! | CWDM4 bidi    | 4 × 20 nm   | 2      | yes  | 400 (both ways)| 2                |
//! | CWDM8 bidi    | 8 × 10 nm   | 1      | yes  | 800 (both ways)| 1                |
//!
//! Halving fibers halves OCS ports, which halves the number of OCSes a
//! 4096-TPU superpod needs (96 → 48 → 24) — which is what moves fabric
//! availability from 90% to 95% to 98% in Fig. 15a.

use lightwave_optics::modulation::LaneRate;
use lightwave_optics::wdm::WdmGrid;
use lightwave_units::Dbm;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// The three transceiver families of the superpod evolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleFamily {
    /// Standard CWDM4 duplex: one Tx fiber + one Rx fiber per 200G engine.
    Cwdm4Duplex,
    /// Custom CWDM4 bidi: 2 engines, 2 integrated circulators, one
    /// bidirectional fiber per engine (2×400G module of Fig. 9 top).
    Cwdm4Bidi,
    /// Custom CWDM8 bidi: 8 λ at 10 nm spacing, one circulator, a single
    /// bidirectional fiber (800G module of Fig. 9 bottom).
    Cwdm8Bidi,
}

impl ModuleFamily {
    /// All families, oldest first.
    pub const ALL: [ModuleFamily; 3] = [
        ModuleFamily::Cwdm4Duplex,
        ModuleFamily::Cwdm4Bidi,
        ModuleFamily::Cwdm8Bidi,
    ];

    /// The wavelength grid.
    pub fn grid(self) -> WdmGrid {
        match self {
            ModuleFamily::Cwdm4Duplex | ModuleFamily::Cwdm4Bidi => WdmGrid::Cwdm4,
            ModuleFamily::Cwdm8Bidi => WdmGrid::Cwdm8,
        }
    }

    /// Whether the module carries both directions on one strand.
    pub(crate) fn is_bidi(self) -> bool {
        !matches!(self, ModuleFamily::Cwdm4Duplex)
    }

    /// Per-lane rate used in the superpod deployments.
    pub fn lane_rate(self) -> LaneRate {
        match self {
            ModuleFamily::Cwdm4Duplex | ModuleFamily::Cwdm4Bidi => LaneRate::Pam4_50,
            ModuleFamily::Cwdm8Bidi => LaneRate::Pam4_100,
        }
    }

    /// Number of optical engines (Tx/Rx WDM groups) in the module.
    pub fn engines(self) -> usize {
        match self {
            ModuleFamily::Cwdm4Duplex | ModuleFamily::Cwdm4Bidi => 2,
            ModuleFamily::Cwdm8Bidi => 1,
        }
    }

    /// OCS ports consumed per module — the number that drives fabric cost
    /// and availability. A duplex engine needs two ports (Tx path and Rx
    /// path); a bidi engine needs one.
    pub fn ocs_ports_per_module(self) -> usize {
        match self {
            ModuleFamily::Cwdm4Duplex => 4,
            ModuleFamily::Cwdm4Bidi => 2,
            ModuleFamily::Cwdm8Bidi => 1,
        }
    }

    /// OCSes required for a full 4096-TPU superpod using this family
    /// (Appendix A wiring: 64 cubes × 96 optical link-fibers per cube,
    /// opposing faces paired, 128 usable ports per OCS).
    pub fn superpod_ocs_count(self) -> usize {
        match self {
            ModuleFamily::Cwdm4Duplex => 96,
            ModuleFamily::Cwdm4Bidi => 48,
            ModuleFamily::Cwdm8Bidi => 24,
        }
    }

    /// Typical per-lane launch power.
    pub(crate) fn nominal_launch(self) -> Dbm {
        match self {
            ModuleFamily::Cwdm4Duplex => Dbm(0.5),
            ModuleFamily::Cwdm4Bidi => Dbm(1.0),
            ModuleFamily::Cwdm8Bidi => Dbm(1.5),
        }
    }

    /// Module electrical power draw, watts (OSFP class).
    pub fn power_w(self) -> f64 {
        match self {
            ModuleFamily::Cwdm4Duplex => 10.0,
            ModuleFamily::Cwdm4Bidi => 12.0,
            ModuleFamily::Cwdm8Bidi => 16.0,
        }
    }
}

/// A manufactured transceiver instance with sampled per-unit variation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transceiver {
    /// Family.
    pub family: ModuleFamily,
    /// Actual per-lane launch power (unit-to-unit variation).
    pub launch: Dbm,
    /// Receiver sensitivity offset from nominal, dB (positive = worse).
    pub sensitivity_offset_db: f64,
    /// Residual BER floor of this unit with all DSP mitigation on —
    /// jitter, skew, and reflections the notch cannot capture. This is the
    /// quantity whose population spread is visible in Fig. 13.
    pub residual_floor: f64,
}

impl Transceiver {
    /// Samples a manufactured unit.
    pub fn sample(family: ModuleFamily, rng: &mut StdRng) -> Transceiver {
        let launch = Normal::<f64>::new(family.nominal_launch().dbm(), 0.5)
            .expect("valid sigma")
            .sample(rng);
        let sens = Normal::<f64>::new(0.0, 0.4)
            .expect("valid sigma")
            .sample(rng)
            .clamp(-1.0, 1.5);
        // Log-normal residual floor centered near 1e-6 — approximately two
        // orders of magnitude below the KP4 threshold, matching the
        // Fig. 13 fleet ("approximately two orders of magnitude of BER
        // margin").
        let log_floor = Normal::<f64>::new(-6.0, 0.45)
            .expect("valid sigma")
            .sample(rng)
            .clamp(-8.5, -4.6);
        Transceiver {
            family,
            launch: Dbm(launch),
            sensitivity_offset_db: sens,
            residual_floor: 10f64.powf(log_floor),
        }
    }

    /// A nominal (golden-sample) unit.
    pub fn nominal(family: ModuleFamily) -> Transceiver {
        Transceiver {
            family,
            launch: family.nominal_launch(),
            sensitivity_offset_db: 0.0,
            residual_floor: 1e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwave_units::Gbps;

    /// One-way bandwidth carried per fiber strand. Each engine is a full
    /// WDM group on its own strand(s): a duplex engine needs two strands
    /// for this bandwidth, a bidi engine carries it *both ways* on one.
    fn bandwidth_per_fiber(f: ModuleFamily) -> Gbps {
        Gbps(f.lane_rate().bit_rate().gbps() * f.grid().lane_count() as f64)
    }
    use rand::SeedableRng;

    #[test]
    fn bidi_halves_ocs_ports() {
        assert_eq!(ModuleFamily::Cwdm4Duplex.ocs_ports_per_module(), 4);
        assert_eq!(ModuleFamily::Cwdm4Bidi.ocs_ports_per_module(), 2);
        assert_eq!(ModuleFamily::Cwdm8Bidi.ocs_ports_per_module(), 1);
    }

    #[test]
    fn superpod_ocs_counts_match_paper() {
        // §4.2.2: 96 with standard CWDM4 duplex, 48 with CWDM4 bidi,
        // 24 with CWDM8 bidi.
        assert_eq!(ModuleFamily::Cwdm4Duplex.superpod_ocs_count(), 96);
        assert_eq!(ModuleFamily::Cwdm4Bidi.superpod_ocs_count(), 48);
        assert_eq!(ModuleFamily::Cwdm8Bidi.superpod_ocs_count(), 24);
    }

    #[test]
    fn bandwidth_per_fiber_progression() {
        // CWDM4 engines: 4 λ × 53.125 G ≈ 212.5 G one-way per strand; the
        // bidi variant carries that both ways on ONE strand where duplex
        // needs two. CWDM8: 8 λ × 106.25 G ≈ 850 G on one strand.
        let d = bandwidth_per_fiber(ModuleFamily::Cwdm4Duplex).gbps();
        let b4 = bandwidth_per_fiber(ModuleFamily::Cwdm4Bidi).gbps();
        let b8 = bandwidth_per_fiber(ModuleFamily::Cwdm8Bidi).gbps();
        assert!((d - 212.5).abs() < 0.5);
        assert!((b4 - d).abs() < 0.5, "same one-way rate per strand");
        assert!((b8 / b4 - 4.0).abs() < 0.01, "2× lanes × 2× rate");
    }

    #[test]
    fn module_bandwidths_and_lanes() {
        // Every OSFP family is 8 electrical lanes wide.
        for f in ModuleFamily::ALL {
            assert_eq!(f.engines() * f.grid().lane_count(), 8, "{f:?}");
        }
        // 2 × 200G CWDM4 engines ≈ 425 G gross; 800G CWDM8 ≈ 850 G gross.
        let module = |f: ModuleFamily| bandwidth_per_fiber(f).gbps() * f.engines() as f64;
        assert!((module(ModuleFamily::Cwdm4Bidi) - 425.0).abs() < 1.0);
        assert!((module(ModuleFamily::Cwdm8Bidi) - 850.0).abs() < 1.0);
    }

    #[test]
    fn sampled_units_vary_but_stay_physical() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut floors = Vec::new();
        for _ in 0..500 {
            let t = Transceiver::sample(ModuleFamily::Cwdm4Bidi, &mut rng);
            assert!(
                (-1.0..=3.5).contains(&t.launch.dbm()),
                "launch {}",
                t.launch
            );
            assert!(t.residual_floor > 0.0 && t.residual_floor < 1e-4);
            floors.push(t.residual_floor);
        }
        let mean_log = floors.iter().map(|f| f.log10()).sum::<f64>() / floors.len() as f64;
        assert!(
            (-6.5..=-5.5).contains(&mean_log),
            "floor population center {mean_log}"
        );
    }

    #[test]
    fn grid_assignment() {
        assert_eq!(ModuleFamily::Cwdm4Bidi.grid(), WdmGrid::Cwdm4);
        assert_eq!(ModuleFamily::Cwdm8Bidi.grid(), WdmGrid::Cwdm8);
        assert!(ModuleFamily::Cwdm8Bidi.is_bidi());
        assert!(!ModuleFamily::Cwdm4Duplex.is_bidi());
    }
}
