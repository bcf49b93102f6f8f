//! Planned maintenance: FRU replacement on live switches.
//!
//! §3.2.2: PSUs and fans hot-swap "while maintaining functionality"; HV
//! driver boards are field-replaceable but drop the mirror state of their
//! port group — which is exactly why they were made replaceable ("the HV
//! drivers for the mirrors was one of the largest reliability challenges
//! for the switch"). A production maintenance workflow must therefore
//! *plan* a swap: know which circuits will blink, for how long, and
//! verify everything re-aligns afterwards.

use crate::fleet::{OcsFleet, OcsId};
use lightwave_ocs::camera::{AlignmentLoop, ALIGNMENT_TOLERANCE};
use lightwave_ocs::chassis::FruKind;
use lightwave_ocs::PortId;
use lightwave_transceiver::bringup::LinkBringup;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};

/// A maintenance plan for one FRU replacement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenancePlan {
    /// Target switch.
    pub ocs: OcsId,
    /// Chassis slot to replace.
    pub slot: usize,
    /// The FRU kind in that slot.
    pub kind: FruKind,
    /// Circuits (north ports) that will lose light during the swap.
    pub disturbed_circuits: Vec<PortId>,
    /// Expected outage per disturbed circuit: mirror re-alignment plus
    /// transceiver re-acquisition.
    pub expected_outage: Nanos,
}

/// Errors planning maintenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaintenanceError {
    /// No such switch.
    UnknownSwitch(OcsId),
    /// Slot index out of range.
    BadSlot(usize),
}

impl std::fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintenanceError::UnknownSwitch(id) => write!(f, "unknown switch {id}"),
            MaintenanceError::BadSlot(s) => write!(f, "no chassis slot {s}"),
        }
    }
}

impl std::error::Error for MaintenanceError {}

/// Plans the replacement of `slot` on `ocs`: computes which live circuits
/// will blink and the expected per-circuit outage.
pub fn plan_replacement(
    fleet: &OcsFleet,
    ocs_id: OcsId,
    slot: usize,
) -> Result<MaintenancePlan, MaintenanceError> {
    let ocs = fleet
        .get(ocs_id)
        .ok_or(MaintenanceError::UnknownSwitch(ocs_id))?;
    let slots = ocs_chassis_slots(ocs);
    let kind = slots
        .get(slot)
        .copied()
        .ok_or(MaintenanceError::BadSlot(slot))?;
    let disturbed_circuits: Vec<PortId> = if kind.swap_drops_mirror_state() {
        let group = hv_port_group(ocs, slot);
        ocs.mapping()
            .pairs()
            .filter(|&(n, _)| group.contains(&n))
            .map(|(n, _)| n)
            .collect()
    } else {
        Vec::new()
    };
    // Outage = camera re-alignment (nominal) + transceiver bring-up.
    let expected_outage = if disturbed_circuits.is_empty() {
        Nanos(0)
    } else {
        AlignmentLoop::default().nominal_switching_time(ALIGNMENT_TOLERANCE)
            + LinkBringup::nominal_duration()
    };
    Ok(MaintenancePlan {
        ocs: ocs_id,
        slot,
        kind,
        disturbed_circuits,
        expected_outage,
    })
}

/// Executes a plan: fails and replaces the FRU, leaving the switch to
/// re-align whatever the swap dropped. Returns the plan's disturbed set
/// for auditing against what actually blinked.
pub fn execute(fleet: &mut OcsFleet, plan: &MaintenancePlan) -> Result<(), MaintenanceError> {
    let ocs = fleet
        .get_mut(plan.ocs)
        .ok_or(MaintenanceError::UnknownSwitch(plan.ocs))?;
    ocs.fail_fru(plan.slot);
    ocs.replace_fru(plan.slot);
    Ok(())
}

/// The FRU kind in each chassis slot (mirrors `Chassis::new`'s layout:
/// 2 PSUs, 4 fans, 8 HV drivers, CPU, FPGA).
fn ocs_chassis_slots(_ocs: &lightwave_ocs::PalomarOcs) -> Vec<FruKind> {
    let mut v = vec![FruKind::PowerSupply; 2];
    v.extend(vec![FruKind::Fan; 4]);
    v.extend(vec![FruKind::HvDriver; 8]);
    v.push(FruKind::Cpu);
    v.push(FruKind::Fpga);
    v
}

/// Ports driven by the HV driver in `slot` (or all ports for the FPGA).
fn hv_port_group(ocs: &lightwave_ocs::PalomarOcs, slot: usize) -> Vec<PortId> {
    use lightwave_ocs::chassis::PORTS_PER_HV_DRIVER;
    let slots = ocs_chassis_slots(ocs);
    match slots[slot] {
        FruKind::Fpga => (0..ocs.ports() as PortId).collect(),
        FruKind::HvDriver => {
            let hv_index = slots[..slot]
                .iter()
                .filter(|k| **k == FruKind::HvDriver)
                .count();
            let base = (hv_index % 4) * PORTS_PER_HV_DRIVER;
            (base..base + PORTS_PER_HV_DRIVER)
                .map(|p| p as PortId)
                .collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwave_ocs::PortMapping;

    fn fleet_with_circuits() -> OcsFleet {
        let mut fleet = OcsFleet::build(2, 31);
        let mapping = PortMapping::from_pairs((0..40u16).map(|i| (i, i + 64))).expect("valid");
        fleet.get_mut(0).unwrap().apply_mapping(&mapping).unwrap();
        fleet.advance(Nanos::from_millis(400));
        fleet
    }

    #[test]
    fn psu_swap_plans_zero_disturbance() {
        let fleet = fleet_with_circuits();
        let plan = plan_replacement(&fleet, 0, 1).unwrap();
        assert_eq!(plan.kind, FruKind::PowerSupply);
        assert!(plan.disturbed_circuits.is_empty());
        assert_eq!(plan.expected_outage, Nanos(0));
    }

    #[test]
    fn hv_swap_plans_its_port_group_and_recovers() {
        let mut fleet = fleet_with_circuits();
        // Slot 6 = first HV driver = ports 0..34; circuits live on 0..40,
        // so 34 circuits blink.
        let plan = plan_replacement(&fleet, 0, 6).unwrap();
        assert_eq!(plan.kind, FruKind::HvDriver);
        assert_eq!(plan.disturbed_circuits.len(), 34);
        assert!(plan.expected_outage.as_millis_f64() > 5.0);

        execute(&mut fleet, &plan).unwrap();
        let ocs = fleet.get(0).unwrap();
        for &n in &plan.disturbed_circuits {
            assert!(!ocs.circuit_ready(n), "port {n} must be re-aligning");
        }
        // Untouched circuits never blinked.
        assert!(ocs.circuit_ready(36));
        fleet.advance(Nanos::from_millis(400));
        let ocs = fleet.get(0).unwrap();
        for &n in &plan.disturbed_circuits {
            assert!(ocs.circuit_ready(n), "port {n} must have recovered");
        }
    }

    #[test]
    fn fpga_swap_is_a_full_blink() {
        let fleet = fleet_with_circuits();
        let plan = plan_replacement(&fleet, 0, 15).unwrap();
        assert_eq!(plan.kind, FruKind::Fpga);
        assert_eq!(plan.disturbed_circuits.len(), 40, "every live circuit");
    }

    #[test]
    fn planning_errors() {
        let fleet = fleet_with_circuits();
        assert_eq!(
            plan_replacement(&fleet, 9, 0).unwrap_err(),
            MaintenanceError::UnknownSwitch(9)
        );
        assert_eq!(
            plan_replacement(&fleet, 0, 99).unwrap_err(),
            MaintenanceError::BadSlot(99)
        );
    }

    #[test]
    fn outage_is_sub_second() {
        // The §4.2.2 premise: reconfiguration-class outages are tens of
        // milliseconds, versus hours for hardware repair.
        let fleet = fleet_with_circuits();
        let plan = plan_replacement(&fleet, 0, 6).unwrap();
        assert!(plan.expected_outage.as_secs_f64() < 1.0);
    }
}
