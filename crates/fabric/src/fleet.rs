//! The OCS fleet: a set of Palomar switches under one simulation clock.

use lightwave_ocs::{OcsHealth, PalomarOcs};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a switch within the fleet.
pub type OcsId = u32;

/// Fleet-wide health roll-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetHealth {
    /// Switch count.
    pub switches: usize,
    /// Switches whose chassis is operational.
    pub operational: usize,
    /// Total live circuits.
    pub circuits: usize,
    /// Circuits still aligning.
    pub pending: usize,
    /// Total power draw, watts.
    pub power_w: f64,
    /// Per-switch health.
    pub per_switch: BTreeMap<OcsId, OcsHealth>,
}

/// A fleet of Palomar OCSes, kept in id order.
#[derive(Debug, Default)]
pub struct OcsFleet {
    /// Each switch under its id, ascending.
    switches: Vec<(OcsId, PalomarOcs)>,
}

impl OcsFleet {
    /// An empty fleet.
    pub fn new() -> OcsFleet {
        OcsFleet::default()
    }

    /// Builds a fleet of `n` switches with deterministic per-switch seeds.
    pub fn build(n: usize, seed: u64) -> OcsFleet {
        let mut fleet = OcsFleet {
            switches: Vec::with_capacity(n),
        };
        for i in 0..n {
            fleet.add(PalomarOcs::new(
                i as OcsId,
                seed.wrapping_add(i as u64 * 7919),
            ));
        }
        fleet
    }

    /// Adds a switch.
    ///
    /// # Panics
    /// Panics if the id is already present.
    pub fn add(&mut self, ocs: PalomarOcs) {
        let id = ocs.id();
        let Err(slot) = self.switches.binary_search_by_key(&id, |&(i, _)| i) else {
            panic!("duplicate OCS id {id}");
        };
        self.switches.insert(slot, (id, ocs));
    }

    /// Where switch `id` sits: its own id when the fleet is numbered
    /// `0..n` (as [`OcsFleet::build`] numbers it), else by search.
    fn slot(&self, id: OcsId) -> Option<usize> {
        if matches!(self.switches.get(id as usize), Some(&(i, _)) if i == id) {
            return Some(id as usize);
        }
        self.switches.binary_search_by_key(&id, |&(i, _)| i).ok()
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True if the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// Immutable access to a switch.
    pub fn get(&self, id: OcsId) -> Option<&PalomarOcs> {
        self.slot(id).map(|slot| &self.switches[slot].1)
    }

    /// Mutable access to a switch.
    pub fn get_mut(&mut self, id: OcsId) -> Option<&mut PalomarOcs> {
        self.slot(id).map(|slot| &mut self.switches[slot].1)
    }

    /// Iterates switches in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&OcsId, &PalomarOcs)> {
        self.switches.iter().map(|(id, ocs)| (id, ocs))
    }

    /// Advances every switch's clock.
    pub fn advance(&mut self, dt: Nanos) {
        for (_, ocs) in &mut self.switches {
            ocs.advance(dt);
        }
    }

    /// Circuits still aligning fleet-wide — [`FleetHealth::pending`]
    /// without the census around it.
    pub fn pending(&self) -> usize {
        self.switches
            .iter()
            .map(|(_, ocs)| ocs.pending_circuits())
            .sum()
    }

    /// Fleet-wide alarm roll-up: every alarm at or above `severity`,
    /// tagged with its switch — the page-generating view of §3.2.2's
    /// "telemetry and anomaly reporting".
    pub fn alarms_at_least(
        &self,
        severity: lightwave_ocs::telemetry::Severity,
    ) -> Vec<(OcsId, lightwave_ocs::telemetry::Alarm)> {
        let mut out = Vec::new();
        for (&id, ocs) in self.iter() {
            for alarm in ocs.telemetry().alarms_at_least(severity) {
                out.push((id, alarm.clone()));
            }
        }
        out
    }

    /// Fleet health roll-up.
    pub fn health(&self) -> FleetHealth {
        let per_switch: BTreeMap<OcsId, OcsHealth> =
            self.iter().map(|(&id, ocs)| (id, ocs.health())).collect();
        FleetHealth {
            switches: per_switch.len(),
            operational: per_switch.values().filter(|h| h.operational).count(),
            circuits: per_switch.values().map(|h| h.circuits).sum(),
            pending: per_switch.values().map(|h| h.pending).sum(),
            power_w: per_switch.values().map(|h| h.power_w).sum(),
            per_switch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_creates_distinct_switches() {
        let fleet = OcsFleet::build(4, 99);
        assert_eq!(fleet.len(), 4);
        // Different seeds → different optical cores.
        let a = fleet.get(0).unwrap().optical_core().insertion_loss(0, 0);
        let b = fleet.get(1).unwrap().optical_core().insertion_loss(0, 0);
        assert_ne!(a.db(), b.db());
    }

    #[test]
    #[should_panic(expected = "duplicate OCS id")]
    fn duplicate_id_rejected() {
        let mut fleet = OcsFleet::new();
        fleet.add(PalomarOcs::new(0, 1));
        fleet.add(PalomarOcs::new(0, 2));
    }

    #[test]
    fn arbitrary_ids_are_kept_in_order_and_found() {
        let mut fleet = OcsFleet::new();
        for id in [40, 3, 0, 17] {
            fleet.add(PalomarOcs::new(id, id as u64));
        }
        let ids: Vec<OcsId> = fleet.iter().map(|(&id, _)| id).collect();
        assert_eq!(ids, [0, 3, 17, 40]);
        for id in ids {
            assert_eq!(fleet.get(id).unwrap().id(), id);
            assert_eq!(fleet.get_mut(id).unwrap().id(), id);
        }
        assert!(fleet.get(1).is_none() && fleet.get(41).is_none());
    }

    #[test]
    fn advance_and_health_roll_up() {
        let mut fleet = OcsFleet::build(3, 5);
        fleet.get_mut(0).unwrap().connect(1, 2).unwrap();
        fleet.get_mut(1).unwrap().connect(3, 4).unwrap();
        let h = fleet.health();
        assert_eq!(h.circuits, 2);
        assert_eq!(h.pending, 2);
        assert_eq!(h.operational, 3);
        fleet.advance(Nanos::from_millis(200));
        let h = fleet.health();
        assert_eq!(h.pending, 0);
        assert!(h.power_w > 180.0, "3 chassis draw real power");
    }

    #[test]
    fn failed_switch_counts_against_operational() {
        let mut fleet = OcsFleet::build(2, 5);
        let ocs = fleet.get_mut(1).unwrap();
        ocs.fail_fru(0);
        ocs.fail_fru(1);
        assert_eq!(fleet.health().operational, 1);
    }

    #[test]
    fn alarm_rollup_tags_the_switch() {
        use lightwave_ocs::telemetry::{AlarmCode, Severity};
        let mut fleet = OcsFleet::build(3, 6);
        {
            let ocs = fleet.get_mut(2).unwrap();
            ocs.fail_fru(0);
            ocs.fail_fru(1); // second PSU: ChassisDown (critical)
        }
        fleet.get_mut(0).unwrap().fail_fru(2); // one fan: warning only
        let critical = fleet.alarms_at_least(Severity::Critical);
        assert_eq!(critical.len(), 1);
        assert_eq!(critical[0].0, 2, "the alarm names the down switch");
        assert!(matches!(critical[0].1.code, AlarmCode::ChassisDown));
        let warnings = fleet.alarms_at_least(Severity::Warning);
        assert!(
            warnings.len() >= 3,
            "FRU warnings from both switches roll up"
        );
        assert!(warnings.iter().any(|(id, _)| *id == 0));
    }
}
