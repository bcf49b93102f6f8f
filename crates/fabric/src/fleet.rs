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

/// A fleet of Palomar OCSes, kept in id order, and the one owner of fabric
/// time: the fleet keeps the clock, and a member's own clock is brought up
/// to it only when the member is handed out mutably or may have an
/// alignment falling due. Advancing a fleet with nothing mid-alignment is
/// one compare, whatever its size.
#[derive(Debug, Default)]
pub struct OcsFleet {
    /// Each switch under its id, ascending.
    switches: Vec<Member>,
    /// Fabric time.
    now: Nanos,
    /// No member's alignment is due before this: a lower bound, never
    /// late. Every mutable hand-out pulls it down to `now`, and the next
    /// [`OcsFleet::advance`] re-derives it from the listed switches' own
    /// [`PalomarOcs::next_due`].
    due: Nanos,
    /// Slots of the members that may hold pending alignments: every member
    /// handed out mutably since it was last seen with none. Allocated with
    /// the fleet (one entry per member at most), never on the request path.
    moving: Vec<usize>,
}

/// One switch of a fleet.
#[derive(Debug)]
struct Member {
    id: OcsId,
    /// Whether [`OcsFleet::moving`] lists this slot.
    listed: bool,
    ocs: PalomarOcs,
}

impl OcsFleet {
    /// An empty fleet at time zero.
    pub fn new() -> OcsFleet {
        OcsFleet::default()
    }

    /// Builds a fleet of `n` switches with deterministic per-switch seeds.
    pub fn build(n: usize, seed: u64) -> OcsFleet {
        let mut fleet = OcsFleet {
            switches: Vec::with_capacity(n),
            moving: Vec::with_capacity(n),
            ..OcsFleet::default()
        };
        for i in 0..n {
            fleet.add(PalomarOcs::new(
                i as OcsId,
                seed.wrapping_add(i as u64 * 7919),
            ));
        }
        fleet
    }

    /// Adds a switch. A late joiner takes the fleet's clock: it is brought
    /// up to fleet time as if it had idled in the fleet since its own time
    /// zero, completing whatever alignments of its own fell due on the way.
    ///
    /// # Panics
    /// Panics if the id is already present, or if the switch's clock is
    /// ahead of the fleet's (the fleet cannot run a member backwards).
    pub fn add(&mut self, mut ocs: PalomarOcs) {
        let id = ocs.id();
        let Err(slot) = self.switches.binary_search_by_key(&id, |m| m.id) else {
            panic!("duplicate OCS id {id}");
        };
        assert!(
            ocs.now() <= self.now,
            "OCS {id} is at {}, ahead of the fleet's {}",
            ocs.now(),
            self.now
        );
        ocs.advance_to(self.now);
        let aligning = ocs.pending_circuits() > 0;
        self.switches.insert(
            slot,
            Member {
                id,
                listed: false,
                ocs,
            },
        );
        for later in self.moving.iter_mut().filter(|s| **s >= slot) {
            *later += 1;
        }
        self.moving.reserve(self.switches.len() - self.moving.len());
        if aligning {
            self.hand_out(slot);
        }
    }

    /// Where switch `id` sits: its own id when the fleet is numbered
    /// `0..n` (as [`OcsFleet::build`] numbers it), else by search.
    fn slot(&self, id: OcsId) -> Option<usize> {
        if matches!(self.switches.get(id as usize), Some(m) if m.id == id) {
            return Some(id as usize);
        }
        self.switches.binary_search_by_key(&id, |m| m.id).ok()
    }

    /// Fabric time: the one clock every member is brought up to.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of switches.
    pub fn len(&self) -> usize {
        self.switches.len()
    }

    /// True if the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty()
    }

    /// Immutable access to a switch. Everything read through it is exact
    /// at fleet time — no due alignment is ever left uncompleted — except
    /// the member's private [`PalomarOcs::now`], which may lag
    /// [`OcsFleet::now`] until the member is next handed out mutably.
    pub fn get(&self, id: OcsId) -> Option<&PalomarOcs> {
        self.slot(id).map(|slot| &self.switches[slot].ocs)
    }

    /// Mutable access to a switch, brought up to fleet time first, so
    /// whatever the caller does is stamped with [`OcsFleet::now`]. The
    /// fleet cannot see what that is — it may start alignments — so the
    /// member is listed and revisited by the next [`OcsFleet::advance`].
    /// Tick the fleet, never the member.
    #[inline]
    pub fn get_mut(&mut self, id: OcsId) -> Option<&mut PalomarOcs> {
        self.slot(id).map(|slot| self.hand_out(slot))
    }

    #[inline]
    fn hand_out(&mut self, slot: usize) -> &mut PalomarOcs {
        let member = &mut self.switches[slot];
        if !member.listed {
            member.listed = true;
            self.moving.push(slot);
        }
        self.due = self.now;
        member.ocs.advance_to(self.now);
        &mut member.ocs
    }

    /// Iterates switches in id order; each as [`OcsFleet::get`] shows it.
    pub fn iter(&self) -> impl Iterator<Item = (&OcsId, &PalomarOcs)> {
        self.switches.iter().map(|m| (&m.id, &m.ocs))
    }

    /// Advances fabric time, completing the alignments that finish. Until
    /// time reaches the earliest pending alignment this is one compare;
    /// then only the switches that may have circuits in motion are visited.
    #[inline]
    pub fn advance(&mut self, dt: Nanos) {
        self.now += dt;
        if self.now >= self.due {
            self.settle();
        }
    }

    /// [`OcsFleet::advance`] to an absolute time. The clock never runs
    /// backwards — a `now` behind it changes nothing.
    #[inline]
    pub fn advance_to(&mut self, now: Nanos) {
        self.now = self.now.max(now);
        if self.now >= self.due {
            self.settle();
        }
    }

    /// Brings every listed switch to fleet time, drops the ones with
    /// nothing left in motion and re-derives `due` from the rest.
    fn settle(&mut self) {
        let (now, switches) = (self.now, &mut self.switches);
        let mut due = Nanos(u64::MAX);
        self.moving.retain(|&slot| {
            let member = &mut switches[slot];
            member.ocs.advance_to(now);
            member.listed = member.ocs.pending_circuits() > 0;
            if member.listed {
                due = due.min(member.ocs.next_due());
            }
            member.listed
        });
        self.due = due;
    }

    /// Circuits still aligning fleet-wide — [`FleetHealth::pending`]
    /// without the census around it.
    pub fn pending(&self) -> usize {
        self.iter().map(|(_, ocs)| ocs.pending_circuits()).sum()
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
    fn member_clocks_lag_until_handed_out_but_nothing_else_does() {
        let mut fleet = OcsFleet::build(3, 5);
        let ready = fleet.get_mut(1).unwrap().connect(3, 4).unwrap();
        fleet.advance(Nanos(ready.0 - 1));
        assert!(
            !fleet.get(1).unwrap().circuit_ready(3),
            "one short of ready"
        );
        fleet.advance(Nanos(1));
        assert!(fleet.get(1).unwrap().circuit_ready(3), "exactly at ready");
        assert_eq!(fleet.get(1).unwrap().now(), ready, "visited when due");
        // Nothing is in motion any more: the fleet's clock moves alone.
        fleet.advance(Nanos::from_millis(500));
        assert_eq!(fleet.now(), ready + Nanos::from_millis(500));
        assert_eq!(fleet.get(1).unwrap().now(), ready, "a member may lag");
        assert_eq!(fleet.get(0).unwrap().now(), Nanos(0));
        // A hand-out brings the member to fleet time: its alarm says so.
        fleet.get_mut(0).unwrap().fail_fru(2);
        let switch = fleet.get(0).unwrap();
        assert_eq!(switch.now(), fleet.now());
        assert_eq!(switch.telemetry().alarms()[0].at, fleet.now());
    }

    #[test]
    fn a_late_joiner_takes_the_fleet_clock() {
        let mut fleet = OcsFleet::new();
        fleet.add(PalomarOcs::new(3, 3));
        fleet.add(PalomarOcs::new(40, 40));
        fleet.advance(Nanos::from_millis(5));
        let ready = fleet.get_mut(40).unwrap().connect(1, 2).unwrap();
        fleet.advance(Nanos::from_millis(1));
        // Joins between the two (switch 40 moves up a slot mid-alignment),
        // its clock four milliseconds behind the fleet's and an alignment
        // of its own in flight.
        let mut joiner = PalomarOcs::new(17, 17);
        let joiner_ready = joiner.connect(5, 6).unwrap();
        joiner.advance(Nanos::from_millis(2));
        assert!(joiner_ready < ready);
        fleet.add(joiner);
        assert_eq!(fleet.get(17).unwrap().now(), fleet.now());
        assert_eq!(fleet.pending(), 2);
        fleet.advance_to(joiner_ready);
        assert!(
            fleet.get(17).unwrap().circuit_ready(5),
            "due by its own time"
        );
        assert!(!fleet.get(40).unwrap().circuit_ready(1));
        fleet.advance_to(ready);
        assert!(fleet.get(40).unwrap().circuit_ready(1), "still tracked");
        assert_eq!(fleet.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "ahead of the fleet")]
    fn a_joiner_from_the_future_is_rejected() {
        let mut fleet = OcsFleet::build(1, 5);
        let mut joiner = PalomarOcs::new(9, 9);
        joiner.advance(Nanos(1));
        fleet.add(joiner);
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
