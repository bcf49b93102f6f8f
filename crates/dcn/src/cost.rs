//! Component-structure cost and power models.
//!
//! Two comparisons from the paper are reproduced here, both as *structural*
//! models (which components exist in which design) with calibrated unit
//! constants (documented in DESIGN.md §5 — absolute prices are not public,
//! component *structure* is):
//!
//! 1. **Table 1** — three ways to interconnect a 4096-TPU superpod:
//!    an EPS-based DCN fabric (1.24× cost / 1.10× power), a reconfigurable
//!    lightwave fabric (1.06× / 1.01×), and a static fiber shuffle (1×).
//! 2. **Fig. 1 / §4.2** — spine-full Clos versus spine-free DCN:
//!    ~30% capex and ~41% power saving (Poutievski et al. \[47\]).

use serde::{Deserialize, Serialize};

// Unit costs and powers of fabric components, calibrated to the
// published ratios (DESIGN.md §5). Costs are in "engine units" (one WDM
// transceiver engine = 1.0), powers in watts.

/// One WDM engine (one module end of one circuit), cost units.
const ENGINE_COST: f64 = 1.0;
/// One WDM engine, watts.
const ENGINE_POWER: f64 = 6.0;
/// Installed fiber per circuit, cost units.
const FIBER_COST: f64 = 0.2;
/// One OCS duplex port-pair (chassis amortized over 128 usable), cost.
const OCS_PORT_COST: f64 = 0.132;
/// One OCS chassis, watts (§4.1.1: ≤ 108 W; ~43 W typical draw).
const OCS_CHASSIS_POWER: f64 = 43.0;
/// One EPS fabric port including switch-silicon share and the
/// switch-side optics, cost units.
const EPS_PORT_COST: f64 = 0.53;
/// One EPS fabric port, watts (silicon + switch-side optics).
const EPS_PORT_POWER: f64 = 6.6;
/// Intra-cube electrical ICI power per cube (rack), watts.
const ICI_POWER_PER_CUBE: f64 = 2600.0;

/// The three superpod interconnect options of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuperpodFabric {
    /// Electrical-packet-switched DCN fabric.
    EpsDcn,
    /// Reconfigurable lightwave (OCS) fabric.
    Lightwave,
    /// Static point-to-point fiber shuffle.
    Static,
}

/// Cost and power of one superpod interconnect option.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct FabricBill {
    /// Total cost, engine units.
    pub cost: f64,
    /// Total power, watts.
    pub power: f64,
}

/// Inter-cube bidi circuits in a full pod: 64 cubes × 48 face-link pairs.
pub(crate) const POD_CIRCUITS: usize = 64 * 48;
/// OCSes in the lightwave option (CWDM4 bidi modules).
pub(crate) const POD_OCS: usize = 48;

/// Bill of materials for a superpod interconnect.
pub(crate) fn superpod_fabric(kind: SuperpodFabric) -> FabricBill {
    let circuits = POD_CIRCUITS as f64;
    let engines = 2.0 * circuits; // one engine at each end of each circuit
    let base_cost = engines * ENGINE_COST + circuits * FIBER_COST;
    let base_power = engines * ENGINE_POWER + 64.0 * ICI_POWER_PER_CUBE;
    match kind {
        SuperpodFabric::Static => FabricBill {
            cost: base_cost,
            power: base_power,
        },
        SuperpodFabric::Lightwave => FabricBill {
            cost: base_cost + circuits * OCS_PORT_COST,
            power: base_power + POD_OCS as f64 * OCS_CHASSIS_POWER,
        },
        SuperpodFabric::EpsDcn => FabricBill {
            // Every circuit terminates on an EPS fabric port instead of
            // being patched through; the port bundles switch silicon and
            // switch-side optics.
            cost: base_cost + circuits * EPS_PORT_COST,
            power: base_power + circuits * EPS_PORT_POWER,
        },
    }
}

/// Table 1: cost and power of each option normalized to the static fabric.
pub fn table1() -> [(SuperpodFabric, f64, f64); 3] {
    let s = superpod_fabric(SuperpodFabric::Static);
    let mk = |k| {
        let b = superpod_fabric(k);
        (k, b.cost / s.cost, b.power / s.power)
    };
    [
        mk(SuperpodFabric::EpsDcn),
        mk(SuperpodFabric::Lightwave),
        mk(SuperpodFabric::Static),
    ]
}

/// DCN fabric style for the Fig. 1 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum DcnStyle {
    /// Traditional Clos with spine blocks.
    SpineFull,
    /// Spine layer replaced by OCSes (Fig. 1b).
    SpineFree,
}

/// Per-AB-uplink bill for a DCN fabric (aggregation-block internals are a
/// common cost `ab_base` so savings are expressed against a whole fabric,
/// as in \[47\]).
pub(crate) fn dcn_per_uplink(style: DcnStyle) -> FabricBill {
    // Common: the AB's own switching/serving share per uplink.
    let ab_base_cost = 1.15;
    let ab_base_power = 12.5;
    match style {
        DcnStyle::SpineFull => FabricBill {
            // AB-side engine + spine-side engine + spine switch port.
            cost: ab_base_cost + 2.0 * ENGINE_COST + FIBER_COST + 0.1,
            power: ab_base_power + 2.0 * ENGINE_POWER + 8.0,
        },
        DcnStyle::SpineFree => FabricBill {
            // AB-side engine only; the uplink patches through an OCS port
            // to a peer AB (whose engine is accounted on its own uplink).
            cost: ab_base_cost + ENGINE_COST + FIBER_COST + OCS_PORT_COST / 2.0,
            power: ab_base_power + ENGINE_POWER + OCS_CHASSIS_POWER / 128.0,
        },
    }
}

/// Fig. 1 savings: (capex saving, power saving) of spine-free vs
/// spine-full, as fractions.
pub fn spine_free_savings() -> (f64, f64) {
    let full = dcn_per_uplink(DcnStyle::SpineFull);
    let free = dcn_per_uplink(DcnStyle::SpineFree);
    (1.0 - free.cost / full.cost, 1.0 - free.power / full.power)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_ratios_match_paper() {
        // Table 1: DCN 1.24×/1.10×, Lightwave 1.06×/1.01×, Static 1×/1×.
        let rows = table1();
        let find = |k: SuperpodFabric| rows.iter().find(|r| r.0 == k).copied().unwrap();
        let (_, c_eps, p_eps) = find(SuperpodFabric::EpsDcn);
        let (_, c_lw, p_lw) = find(SuperpodFabric::Lightwave);
        let (_, c_st, p_st) = find(SuperpodFabric::Static);
        assert!((c_eps - 1.24).abs() < 0.02, "EPS cost {c_eps:.3}");
        assert!((p_eps - 1.10).abs() < 0.02, "EPS power {p_eps:.3}");
        assert!((c_lw - 1.06).abs() < 0.01, "lightwave cost {c_lw:.3}");
        assert!((p_lw - 1.01).abs() < 0.005, "lightwave power {p_lw:.3}");
        assert_eq!((c_st, p_st), (1.0, 1.0));
    }

    #[test]
    fn lightwave_premium_is_small_absolute() {
        // The abstract's framing: the reconfigurable fabric costs < 6%
        // over static while unlocking the §4.2 gains.
        let s = superpod_fabric(SuperpodFabric::Static);
        let l = superpod_fabric(SuperpodFabric::Lightwave);
        assert!((l.cost - s.cost) / s.cost <= 0.06 + 1e-9);
    }

    #[test]
    fn spine_free_savings_match_poutievski() {
        // §4.2: "30% reduction in CapEx and 41% reduction in OpEx".
        let (capex, power) = spine_free_savings();
        assert!((capex - 0.30).abs() < 0.03, "capex saving {capex:.3}");
        assert!((power - 0.41).abs() < 0.03, "power saving {power:.3}");
    }

    #[test]
    fn ocs_chassis_power_stays_within_rating() {
        // The lightwave bill's power over the static one is its chassis.
        let s = superpod_fabric(SuperpodFabric::Static);
        let l = superpod_fabric(SuperpodFabric::Lightwave);
        let per_chassis = (l.power - s.power) / POD_OCS as f64;
        assert!(
            per_chassis < 108.0,
            "under the Palomar max: {per_chassis} W"
        );
    }

    #[test]
    fn eps_always_most_expensive() {
        let e = superpod_fabric(SuperpodFabric::EpsDcn);
        let l = superpod_fabric(SuperpodFabric::Lightwave);
        let s = superpod_fabric(SuperpodFabric::Static);
        assert!(e.cost > l.cost && l.cost > s.cost);
        assert!(e.power > l.power && l.power > s.power);
    }
}
