//! Planned maintenance: FRU replacement on live switches.
//!
//! §3.2.2: PSUs and fans hot-swap "while maintaining functionality"; HV
//! driver boards are field-replaceable but drop the mirror state of their
//! port group — which is exactly why they were made replaceable ("the HV
//! drivers for the mirrors was one of the largest reliability challenges
//! for the switch"). A production maintenance workflow must therefore
//! *plan* a swap: know which circuits will blink, for how long, and
//! verify everything re-aligns afterwards.

use crate::controller::CommitError;
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

/// Plans the replacement of `slot` on `ocs`: computes which live circuits
/// will blink and the expected per-circuit outage. A switch the fleet
/// does not have is [`CommitError::UnknownSwitch`]; a slot the switch's
/// chassis does not have is the switch's own refusal.
pub fn plan_replacement(
    fleet: &OcsFleet,
    ocs_id: OcsId,
    slot: usize,
) -> Result<MaintenancePlan, CommitError> {
    let ocs = fleet
        .get(ocs_id)
        .ok_or(CommitError::UnknownSwitch(ocs_id))?;
    let refused = |error| CommitError::Invalid { ocs: ocs_id, error };
    let chassis = ocs.chassis();
    let kind = chassis.slot(slot).map_err(refused)?.kind;
    let group = chassis.ports_dropped_by(slot).map_err(refused)?;
    let disturbed_circuits: Vec<PortId> = ocs
        .mapping()
        .pairs()
        .filter(|&(n, _)| group.contains(&n))
        .map(|(n, _)| n)
        .collect();
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
/// re-align whatever the swap dropped. Refuses as
/// [`plan_replacement`] does, with nothing changed.
pub fn execute(fleet: &mut OcsFleet, plan: &MaintenancePlan) -> Result<(), CommitError> {
    let ocs = fleet
        .get_mut(plan.ocs)
        .ok_or(CommitError::UnknownSwitch(plan.ocs))?;
    ocs.fail_fru(plan.slot)
        .and_then(|()| ocs.replace_fru(plan.slot))
        .map_err(|error| CommitError::Invalid {
            ocs: plan.ocs,
            error,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwave_ocs::OcsError;

    fn fleet_with_circuits() -> OcsFleet {
        let mut fleet = OcsFleet::build(2, 31);
        let circuits: Vec<_> = (0..40u16).map(|i| (i, i + 64)).collect();
        fleet
            .get_mut(0)
            .unwrap()
            .apply_delta(&circuits, &[])
            .unwrap();
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
    fn planning_and_executing_refuse_what_the_fleet_lacks() {
        let mut fleet = fleet_with_circuits();
        assert_eq!(
            plan_replacement(&fleet, 9, 0).unwrap_err(),
            CommitError::UnknownSwitch(9)
        );
        let no_slot = CommitError::Invalid {
            ocs: 0,
            error: OcsError::SlotOutOfRange(99),
        };
        assert_eq!(plan_replacement(&fleet, 0, 99).unwrap_err(), no_slot);
        // A plan made for another fleet, or edited: the switch refuses it.
        let mut plan = plan_replacement(&fleet, 0, 6).unwrap();
        plan.slot = 99;
        let health = fleet.health();
        assert_eq!(execute(&mut fleet, &plan).unwrap_err(), no_slot);
        plan.ocs = 9;
        assert_eq!(
            execute(&mut fleet, &plan).unwrap_err(),
            CommitError::UnknownSwitch(9)
        );
        assert_eq!(fleet.health(), health, "a refused plan changed the fleet");
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
