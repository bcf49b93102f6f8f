//! The OCS fleet: a set of Palomar switches under one simulation clock.

use crate::controller::{CommitError, SwitchOps, SwitchReports, Table};
use lightwave_ocs::{OcsHealth, PalomarOcs, PortId, SharedDelta};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// A fleet of Palomar OCSes, switch `i` in slot `i`, and the one owner of
/// fabric time: the fleet keeps the clock, and a member's own clock is
/// brought up to it only when the member is handed out mutably, a
/// transaction touches it, or it may have an alignment falling due.
/// Advancing a fleet with nothing mid-alignment is one compare, whatever
/// its size.
#[derive(Debug)]
pub struct OcsFleet {
    /// Switch `i` at index `i`.
    switches: Vec<Member>,
    /// Fabric time.
    now: Nanos,
    /// No member's alignment is due before this: a lower bound, never
    /// late. Every mutable hand-out pulls it down to `now`, a transaction
    /// down to the [`PalomarOcs::next_due`] of each member it leaves
    /// aligning, and the next [`OcsFleet::advance`] re-derives it from the
    /// listed switches' own.
    due: Nanos,
    /// Slots of the members that may hold pending alignments: every member
    /// handed out mutably, or left aligning by a transaction, since it was
    /// last seen with none. Allocated with the fleet (one entry per member
    /// at most), never on the request path.
    moving: Vec<usize>,
    /// The transaction tables: each one is either held by reports or
    /// free for the next transaction to refill. A new one is built only
    /// when every table is held, so there are only ever as many as were
    /// once held at the same time.
    tables: Vec<Arc<Table>>,
    /// The delta each run of the transaction in hand shares, first run
    /// first: copied in by the first pass, read by the second. Recycled,
    /// so there are only ever as many as the most runs one transaction
    /// had.
    runs: Vec<SharedDelta>,
    /// `(slot, run)` of each switch of the transaction in hand, in view
    /// order, recorded by the first pass for the second.
    members: Vec<(usize, usize)>,
}

/// One switch of a fleet.
#[derive(Debug)]
struct Member {
    /// Whether [`OcsFleet::moving`] lists this slot.
    listed: bool,
    ocs: PalomarOcs,
}

impl OcsFleet {
    /// Builds a fleet of `n` switches numbered `0..n`, with deterministic
    /// per-switch seeds, at time zero.
    pub fn build(n: usize, seed: u64) -> OcsFleet {
        let member = |i: usize| Member {
            listed: false,
            ocs: PalomarOcs::new(i as OcsId, seed.wrapping_add(i as u64 * 7919)),
        };
        OcsFleet {
            switches: (0..n).map(member).collect(),
            now: Nanos(0),
            due: Nanos(0),
            moving: Vec::with_capacity(n),
            tables: Vec::new(),
            runs: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Where switch `id` sits: its own id.
    fn slot(&self, id: OcsId) -> Option<usize> {
        let slot = id as usize;
        (slot < self.switches.len()).then_some(slot)
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

    /// The first table no report holds any more, taken out of the pool
    /// and cleared — or, when every table is held, a new one sized to the
    /// fleet. Either way the caller holds the only reference; it goes
    /// back with [`OcsFleet::keep`].
    pub(crate) fn take_table(&mut self) -> Arc<Table> {
        let free = self
            .tables
            .iter_mut()
            .position(|t| Arc::get_mut(t).map(Table::clear).is_some());
        match free {
            Some(slot) => self.tables.swap_remove(slot),
            None => Arc::new(Table::sized(self.switches.len())),
        }
    }

    /// Puts a filled table back in the pool and returns the report that
    /// holds it until the last copy of that report is dropped.
    pub(crate) fn keep(&mut self, table: Arc<Table>) -> SwitchReports {
        self.tables.push(Arc::clone(&table));
        SwitchReports::on(table)
    }

    /// Runs one incremental transaction — the fleet half of
    /// [`FabricController::commit_view`](crate::FabricController::commit_view):
    /// every switch `view` names is brought to fleet time and validates
    /// its share, then every one applies it. Only a member the transaction
    /// leaves with alignments in flight is listed, and `due` comes down to
    /// its own next due time, not to `now`: a transaction that starts no
    /// alignment — a release — leaves the next advance one compare. Returns
    /// each switch's summary, ascending by id, in a recycled table; on
    /// error nothing has been applied.
    ///
    /// Consecutive switches whose lists are the same slices, or equal
    /// ones, form a run: the run's lists are copied once into a
    /// [`SharedDelta`], checked in full by its first switch and by any
    /// switch that cannot show it holds the same circuits as the last one
    /// checked, and applied by each without being checked again
    /// ([`PalomarOcs::vet_shared`]). The first pass walks the view once
    /// and records each switch's run; the second walks that record.
    ///
    /// # Panics
    /// Panics if the view's ids are not strictly ascending.
    pub(crate) fn transact<'a>(
        &mut self,
        view: impl Iterator<Item = SwitchOps<'a>>,
    ) -> Result<SwitchReports, CommitError> {
        self.members.clear();
        // Room for the whole fleet at the first transaction: one block.
        self.members.reserve(self.switches.len());
        let mut last = None;
        // The lists the current run was last handed, and the runs so far.
        let mut shared: (&[(PortId, PortId)], &[PortId]) = (&[], &[]);
        let mut runs = 0;
        for (id, add, remove) in view {
            assert!(last < Some(id), "switch {id} out of order in the view");
            last = Some(id);
            let slot = self.slot(id).ok_or(CommitError::UnknownSwitch(id))?;
            let same = runs > 0
                && ((std::ptr::eq(add, shared.0) && std::ptr::eq(remove, shared.1))
                    || self.runs[runs - 1].holds(add, remove));
            if !same {
                if runs == self.runs.len() {
                    self.runs.push(SharedDelta::default());
                }
                self.runs[runs].refill(add, remove);
                runs += 1;
            }
            shared = (add, remove);
            let ocs = &mut self.switches[slot].ocs;
            ocs.advance_to(self.now);
            ocs.vet_shared(&mut self.runs[runs - 1])
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
            self.members.push((slot, runs - 1));
        }
        let mut table = self.take_table();
        // `take_table` returns a table no report holds.
        #[allow(clippy::expect_used)]
        let rows = Arc::get_mut(&mut table).expect("a taken table is unheld");
        for &(slot, run) in &self.members {
            let member = &mut self.switches[slot];
            let done = member
                .ocs
                .apply_shared(&mut self.runs[run])
                .map_err(|error| CommitError::Invalid {
                    ocs: slot as OcsId,
                    error,
                })?;
            if member.ocs.pending_circuits() > 0 {
                if !member.listed {
                    member.listed = true;
                    self.moving.push(slot);
                }
                self.due = self.due.min(member.ocs.next_due());
            }
            rows.push(slot as OcsId, done);
        }
        Ok(self.keep(table))
    }

    /// Iterates switches in id order; each as [`OcsFleet::get`] shows it.
    pub fn iter(&self) -> impl Iterator<Item = (OcsId, &PalomarOcs)> {
        (0..).zip(self.switches.iter().map(|m| &m.ocs))
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

    /// Fleet health roll-up.
    pub fn health(&self) -> FleetHealth {
        let per_switch: BTreeMap<OcsId, OcsHealth> =
            self.iter().map(|(id, ocs)| (id, ocs.health())).collect();
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
    use lightwave_ocs::{PortId, PortMapping, ReconfigSummary};

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
        fleet.get_mut(0).unwrap().fail_fru(2).unwrap();
        let switch = fleet.get(0).unwrap();
        assert_eq!(switch.now(), fleet.now());
        assert_eq!(switch.telemetry().alarms()[0].at, fleet.now());
    }

    #[test]
    fn a_release_lists_no_switch_and_the_next_advance_is_one_compare() {
        let mut fleet = OcsFleet::build(3, 5);
        let (add, remove) = ([(1, 2), (3, 4)], [1, 3]);
        let ops = |add, remove| [0, 2].map(|id| (id, add, remove)).into_iter();
        fleet.advance(Nanos(1));
        assert_eq!(fleet.due, Nanos(u64::MAX), "nothing in motion");
        fleet.transact(ops(&add[..], &[][..])).unwrap();
        assert_eq!(fleet.moving, [0, 2], "both switches aligning");
        assert!(
            fleet.due > fleet.now,
            "due at the first ready time, not now"
        );
        fleet.advance(Nanos::from_millis(300));
        assert!(fleet.moving.is_empty(), "settled");
        // The release starts no alignment: no switch is listed and `due`
        // stays where it was, so the next advance visits no member.
        fleet.transact(ops(&[][..], &remove[..])).unwrap();
        assert!(fleet.moving.is_empty());
        assert_eq!(fleet.due, Nanos(u64::MAX));
        assert_eq!(fleet.pending(), 0);
        assert_eq!(fleet.health().circuits, 0);
        // A refused transaction lists nothing and applies nothing.
        let spoiled = fleet.transact(ops(&add[..], &remove[..]));
        assert!(matches!(spoiled, Err(CommitError::Invalid { ocs: 0, .. })));
        assert!(fleet.moving.is_empty() && fleet.health().circuits == 0);
    }

    #[test]
    fn a_full_target_commit_that_starts_no_alignment_lists_no_switch() {
        let mut c = crate::FabricController::new(OcsFleet::build(3, 5));
        let mut target = crate::FabricTarget::new();
        for id in [0, 2] {
            target.set(id, PortMapping::from_pairs([(1, 2), (3, 4)]).unwrap());
        }
        c.commit(&target).unwrap();
        assert_eq!(c.fleet.moving, [0, 2], "both switches aligning");
        c.advance(Nanos::from_millis(300));
        assert!(c.fleet.moving.is_empty(), "settled");
        // The same target again, and a resync's single-switch target of
        // what the switch already carries: empty deltas, nothing listed,
        // and the next advance is one compare.
        let report = c.commit(&target).unwrap();
        assert_eq!((report.added, report.untouched), (0, 4));
        let mut resync = crate::FabricTarget::new();
        resync.set(2, c.fleet.get(2).unwrap().mapping());
        let report = c.commit(&resync).unwrap();
        assert!(report.per_switch.contains_key(&2));
        assert!(c.fleet.moving.is_empty());
        assert_eq!(c.fleet.due, Nanos(u64::MAX));
    }

    #[test]
    fn a_held_report_keeps_its_rows_while_later_transactions_refill_the_free_tables() {
        let mut fleet = OcsFleet::build(4, 5);
        let (pairs, circuit, north) = ([(0, 1), (1, 0)], [(2, 3)], [2]);
        let none: (&[(PortId, PortId)], &[PortId]) = (&[], &[]);
        let held = fleet
            .transact([0, 2, 3].map(|id| (id, &pairs[..], none.1)).into_iter())
            .unwrap();
        let rows: Vec<(OcsId, ReconfigSummary)> = held.iter().map(|(&id, &r)| (id, r)).collect();
        let copy = held.clone();
        assert_eq!(fleet.tables.len(), 1, "a copy is a count on the same table");
        // Establish and tear down one circuit on switch 1, over and over:
        // each report is dropped at once, so every round refills the one
        // table no report holds.
        for round in 0..4 {
            let (add, remove) = match round % 2 {
                0 => (&circuit[..], none.1),
                _ => (none.0, &north[..]),
            };
            let report = fleet.transact([(1, add, remove)].into_iter()).unwrap();
            assert!(report.keys().eq(&[1]));
            assert_eq!(fleet.tables.len(), 2, "the held table and one recycled");
        }
        // Two more held at once: a third table, and nothing refilled under
        // a report.
        let [second, third] = [(&circuit[..], none.1), (none.0, &north[..])]
            .map(|(add, remove)| fleet.transact([(1, add, remove)].into_iter()).unwrap());
        assert_eq!(fleet.tables.len(), 3);
        assert_ne!(second, third);
        assert_eq!((second.len(), third.len()), (1, 1));
        assert!(held
            .iter()
            .map(|(&id, &r)| (id, r))
            .eq(rows.iter().copied()));
        assert_eq!(held, copy);
        // With every report gone, the next transaction takes a free table.
        drop((held, copy, second, third));
        fleet
            .transact([(1, &circuit[..], none.1)].into_iter())
            .unwrap();
        assert_eq!(fleet.tables.len(), 3);
    }

    #[test]
    fn failed_switch_counts_against_operational() {
        let mut fleet = OcsFleet::build(2, 5);
        let ocs = fleet.get_mut(1).unwrap();
        ocs.fail_fru(0).unwrap();
        ocs.fail_fru(1).unwrap();
        assert_eq!(fleet.health().operational, 1);
    }

    #[test]
    fn alarm_rollup_tags_the_switch() {
        use lightwave_ocs::telemetry::{AlarmCause, Severity};
        let mut fleet = OcsFleet::build(3, 6);
        {
            let ocs = fleet.get_mut(2).unwrap();
            ocs.fail_fru(0).unwrap();
            ocs.fail_fru(1).unwrap(); // second PSU: ChassisDown (critical)
        }
        fleet.get_mut(0).unwrap().fail_fru(2).unwrap(); // one fan: warning only
        let alarms: Vec<_> = fleet
            .iter()
            .flat_map(|(id, ocs)| ocs.telemetry().alarms().iter().map(move |a| (id, a)))
            .collect();
        assert!(
            alarms.iter().all(|(id, a)| a.switch == *id),
            "each switch logs its own id on its alarms"
        );
        let critical: Vec<_> = alarms
            .iter()
            .filter(|(_, a)| a.severity == Severity::Critical)
            .collect();
        assert_eq!(critical.len(), 1);
        assert_eq!(critical[0].0, 2, "the alarm names the down switch");
        assert_eq!(critical[0].1.cause, AlarmCause::ChassisDown);
        assert!(alarms.len() >= 3, "FRU warnings from both switches roll up");
        assert!(alarms.iter().any(|(id, _)| *id == 0));
    }
}
