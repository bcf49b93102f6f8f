//! Target-state fabric reconfiguration.
//!
//! The controller follows the intent/commit pattern of production SDN
//! control planes: callers declare the *desired* port mapping of every
//! switch ([`FabricTarget`]), the controller validates the whole
//! transaction against every switch first, and only then applies — so a
//! typo'd mapping on switch 47 cannot leave switches 0–46 half
//! reconfigured. Application is minimal-delta per switch: circuits present
//! in both the old and new state are never touched (the paper's job
//! isolation requirement, §2.3), and the report proves it.

use crate::fleet::{OcsFleet, OcsId};
use lightwave_ocs::{OcsError, PortId, PortMapping, ReconfigSummary};
use lightwave_transceiver::bringup::LinkBringup;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The desired state of (part of) the fabric: per-switch port mappings.
/// Switches not mentioned keep their current configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricTarget {
    targets: BTreeMap<OcsId, PortMapping>,
}

impl FabricTarget {
    /// An empty target (a no-op commit).
    pub fn new() -> FabricTarget {
        FabricTarget::default()
    }

    /// Sets the full desired mapping of one switch.
    pub fn set(&mut self, ocs: OcsId, mapping: PortMapping) -> &mut Self {
        self.targets.insert(ocs, mapping);
        self
    }

    /// The mapping for one switch, if declared.
    pub fn get(&self, ocs: OcsId) -> Option<&PortMapping> {
        self.targets.get(&ocs)
    }

    /// Switches touched by this target.
    pub fn switches(&self) -> impl Iterator<Item = OcsId> + '_ {
        self.targets.keys().copied()
    }

    /// Total circuits across all declared mappings.
    pub fn circuit_count(&self) -> usize {
        self.targets.values().map(|m| m.len()).sum()
    }
}

/// An incremental change to one switch: circuits to establish and tear
/// down, leaving everything else untouched. Unlike a full [`PortMapping`],
/// a delta carries only what changes — validating and applying it is
/// O(delta), not O(circuits on the switch).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchDelta {
    /// Circuits to establish (north, south).
    pub add: Vec<(PortId, PortId)>,
    /// Circuits to tear down (north ports).
    pub remove: Vec<PortId>,
}

impl SwitchDelta {
    /// True when this delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty()
    }
}

/// One switch's share of an incremental transaction, borrowed from
/// whoever owns the lists: the switch, the circuits to establish (north,
/// south) and the circuits to tear down (north ports).
pub type SwitchOps<'a> = (OcsId, &'a [(PortId, PortId)], &'a [PortId]);

/// The incremental counterpart of [`FabricTarget`]: per-switch deltas.
/// Switches not mentioned are guaranteed untouched, and mentioned
/// switches keep every circuit the delta does not name.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricDelta {
    deltas: BTreeMap<OcsId, SwitchDelta>,
}

impl FabricDelta {
    /// An empty delta (a no-op commit).
    pub fn new() -> FabricDelta {
        FabricDelta::default()
    }

    /// The (possibly fresh) delta for one switch.
    pub fn entry(&mut self, ocs: OcsId) -> &mut SwitchDelta {
        self.deltas.entry(ocs).or_default()
    }

    /// The delta for one switch, if declared.
    pub fn get(&self, ocs: OcsId) -> Option<&SwitchDelta> {
        self.deltas.get(&ocs)
    }

    /// Switches touched by this delta, in id order.
    pub fn switches(&self) -> impl Iterator<Item = OcsId> + '_ {
        self.deltas.keys().copied()
    }

    /// Per-switch deltas, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (OcsId, &SwitchDelta)> {
        self.deltas.iter().map(|(&id, d)| (id, d))
    }

    /// The delta as [`FabricController::commit_view`] takes it.
    pub fn view(&self) -> impl Iterator<Item = SwitchOps<'_>> + Clone {
        self.deltas
            .iter()
            .map(|(&id, d)| (id, &d.add[..], &d.remove[..]))
    }

    /// True when no switch is touched.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Circuits established across all switches.
    pub fn added(&self) -> usize {
        self.deltas.values().map(|d| d.add.len()).sum()
    }

    /// Circuits torn down across all switches.
    pub fn removed(&self) -> usize {
        self.deltas.values().map(|d| d.remove.len()).sum()
    }
}

/// Why a commit was rejected (nothing was applied).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// The target names a switch the fleet does not have.
    UnknownSwitch(OcsId),
    /// A switch rejected its mapping during validation.
    Invalid {
        /// The offending switch.
        ocs: OcsId,
        /// The underlying error.
        error: OcsError,
    },
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::UnknownSwitch(id) => write!(f, "unknown switch {id}"),
            CommitError::Invalid { ocs, error } => write!(f, "switch {ocs}: {error}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// What a transaction did on each switch it touched: one row per switch,
/// ascending by id, in a single exact-capacity allocation (none for a
/// transaction that touched no switch). Read like the map it replaced.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchReports(Vec<(OcsId, ReconfigSummary)>);

impl SwitchReports {
    /// Touched switches.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the transaction touched no switch.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Touched switch ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &OcsId> {
        self.0.iter().map(|(id, _)| id)
    }

    /// Per-switch rows, ascending by id.
    pub fn iter(&self) -> <&SwitchReports as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// What the transaction did on switch `id`, if it touched it.
    pub fn get(&self, id: &OcsId) -> Option<&ReconfigSummary> {
        let row = self.0.binary_search_by_key(id, |&(i, _)| i).ok()?;
        Some(&self.0[row].1)
    }

    /// Whether the transaction touched switch `id`.
    pub fn contains_key(&self, id: &OcsId) -> bool {
        self.get(id).is_some()
    }
}

impl<'a> IntoIterator for &'a SwitchReports {
    type Item = (&'a OcsId, &'a ReconfigSummary);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (OcsId, ReconfigSummary)>,
        fn(&'a (OcsId, ReconfigSummary)) -> Self::Item,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().map(|(id, r)| (id, r))
    }
}

/// What a committed transaction did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitReport {
    /// What it did on each touched switch.
    pub per_switch: SwitchReports,
    /// Circuits left untouched fabric-wide (the isolation audit).
    pub untouched: usize,
    /// Circuits added fabric-wide.
    pub added: usize,
    /// Circuits removed fabric-wide.
    pub removed: usize,
    /// Time until every moved circuit is optically settled *and* its
    /// transceivers have re-acquired (OCS settle + link bring-up).
    pub traffic_ready_at: Nanos,
}

/// The fabric controller: owns the fleet and serializes reconfiguration.
#[derive(Debug, Default)]
pub struct FabricController {
    /// The switch fleet, which also keeps fabric time.
    pub fleet: OcsFleet,
}

impl FabricController {
    /// Wraps a fleet.
    pub fn new(fleet: OcsFleet) -> FabricController {
        FabricController { fleet }
    }

    /// Current fabric time: [`OcsFleet::now`].
    pub fn now(&self) -> Nanos {
        self.fleet.now()
    }

    /// Validates `target` against every named switch without applying:
    /// a dry run of the checks each switch will make.
    pub fn validate(&self, target: &FabricTarget) -> Result<(), CommitError> {
        for (&id, mapping) in &target.targets {
            let ocs = self.fleet.get(id).ok_or(CommitError::UnknownSwitch(id))?;
            ocs.validate_mapping(mapping)
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
        }
        Ok(())
    }

    /// Validates then applies the whole transaction. On error nothing has
    /// been applied.
    pub fn commit(&mut self, target: &FabricTarget) -> Result<CommitReport, CommitError> {
        self.validate(target)?;
        let mut per_switch = Vec::with_capacity(target.targets.len());
        for (&id, mapping) in &target.targets {
            let ocs = self.fleet.get_mut(id).expect("validated");
            let report = ocs
                .apply_mapping(mapping)
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
            per_switch.push((id, report.summary()));
        }
        Ok(self.report(per_switch))
    }

    /// Totals a transaction's per-switch rows (ascending by id).
    fn report(&self, per_switch: Vec<(OcsId, ReconfigSummary)>) -> CommitReport {
        let (mut untouched, mut added, mut removed, mut latest) = (0, 0, 0, self.now());
        for (_, r) in &per_switch {
            untouched += r.untouched;
            added += r.added;
            removed += r.removed;
            latest = latest.max(r.ready_at);
        }
        // Moved circuits need transceiver re-acquisition after the mirrors
        // settle; only transactions that added circuits pay bring-up.
        let traffic_ready_at = if added > 0 {
            latest + LinkBringup::nominal_duration()
        } else {
            latest
        };
        CommitReport {
            per_switch: SwitchReports(per_switch),
            untouched,
            added,
            removed,
            traffic_ready_at,
        }
    }

    /// Validates then applies an incremental transaction. On error nothing
    /// has been applied. The O(delta) counterpart of
    /// [`FabricController::commit`]: no switch's full mapping is collected,
    /// rebuilt, or diffed anywhere on this path, and each switch checks its
    /// delta once — in the validation pass; the apply pass finds it
    /// remembered (see [`PalomarOcs::apply_delta`](lightwave_ocs::PalomarOcs::apply_delta)).
    pub fn commit_delta(&mut self, delta: &FabricDelta) -> Result<CommitReport, CommitError> {
        self.commit_view(delta.view())
    }

    /// [`FabricController::commit_delta`] for a caller that owns the
    /// circuit lists already: `view` yields each touched switch once,
    /// ascending by id, and is walked twice — every switch validates its
    /// share, then every switch applies it. Nothing is copied out of the
    /// lists; the report's table is the one allocation. Only the circuits
    /// the view establishes are vetted against degraded ports — untouched
    /// circuits are never re-checked (the same wedge-avoidance contract
    /// as [`FabricController::validate`]).
    ///
    /// # Panics
    /// Panics if the view's ids are not strictly ascending.
    pub fn commit_view<'a>(
        &mut self,
        view: impl Iterator<Item = SwitchOps<'a>> + Clone,
    ) -> Result<CommitReport, CommitError> {
        let mut touched = 0;
        let mut last = None;
        for (id, add, remove) in view.clone() {
            assert!(last < Some(id), "switch {id} out of order in the view");
            last = Some(id);
            let ocs = self
                .fleet
                .get_mut(id)
                .ok_or(CommitError::UnknownSwitch(id))?;
            ocs.validate_delta(add, remove)
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
            touched += 1;
        }
        let mut per_switch = Vec::with_capacity(touched);
        for (id, add, remove) in view {
            let ocs = self.fleet.get_mut(id).expect("validated");
            let done = ocs
                .apply_delta_summary(add, remove)
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
            per_switch.push((id, done));
        }
        Ok(self.report(per_switch))
    }

    /// Advances fabric time.
    #[inline]
    pub fn advance(&mut self, dt: Nanos) {
        self.fleet.advance(dt);
    }

    /// True when no switch has circuits still aligning.
    pub fn settled(&self) -> bool {
        self.fleet.pending() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwave_ocs::PortMapping;

    fn controller(n: usize) -> FabricController {
        FabricController::new(OcsFleet::build(n, 17))
    }

    #[test]
    fn commit_applies_across_switches() {
        let mut c = controller(3);
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap());
        t.set(2, PortMapping::from_pairs([(5, 6)]).unwrap());
        let report = c.commit(&t).unwrap();
        assert_eq!(report.added, 3);
        assert_eq!(report.removed, 0);
        assert!(report.traffic_ready_at > Nanos(0));
        c.advance(Nanos::from_millis(300));
        assert!(c.settled());
        assert_eq!(c.fleet.health().circuits, 3);
    }

    #[test]
    fn unknown_switch_rejects_whole_transaction() {
        let mut c = controller(2);
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        t.set(9, PortMapping::from_pairs([(0, 1)]).unwrap());
        assert_eq!(c.commit(&t).unwrap_err(), CommitError::UnknownSwitch(9));
        // Atomicity: switch 0 must be untouched.
        assert_eq!(c.fleet.health().circuits, 0);
    }

    #[test]
    fn down_switch_rejects_without_partial_apply() {
        let mut c = controller(2);
        {
            let ocs = c.fleet.get_mut(1).unwrap();
            ocs.fail_fru(0);
            ocs.fail_fru(1);
        }
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        t.set(1, PortMapping::from_pairs([(2, 3)]).unwrap());
        match c.commit(&t).unwrap_err() {
            CommitError::Invalid { ocs: 1, error } => {
                assert_eq!(error, OcsError::ChassisDown)
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(c.fleet.health().circuits, 0, "atomic: nothing applied");
    }

    #[test]
    fn out_of_range_target_rejects_before_any_switch_applies() {
        let mut c = controller(2);
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        t.set(1, PortMapping::from_pairs([(2, 9999)]).unwrap());
        let error = OcsError::Crossbar(lightwave_ocs::CrossbarError::PortOutOfRange(9999));
        assert_eq!(
            c.commit(&t).unwrap_err(),
            CommitError::Invalid { ocs: 1, error }
        );
        assert_eq!(c.fleet.health().circuits, 0, "atomic: nothing applied");
    }

    #[test]
    fn incremental_commit_preserves_running_circuits() {
        let mut c = controller(1);
        let mut t1 = FabricTarget::new();
        t1.set(
            0,
            PortMapping::from_pairs([(0, 10), (1, 11), (2, 12)]).unwrap(),
        );
        c.commit(&t1).unwrap();
        c.advance(Nanos::from_millis(300));
        // Second generation: keep (0,10) and (1,11), move (2,12)→(2,13).
        let mut t2 = FabricTarget::new();
        t2.set(
            0,
            PortMapping::from_pairs([(0, 10), (1, 11), (2, 13)]).unwrap(),
        );
        let report = c.commit(&t2).unwrap();
        assert_eq!(report.untouched, 2);
        assert_eq!(report.added, 1);
        assert_eq!(report.removed, 1);
        // Untouched circuits still carrying mid-transaction.
        let ocs = c.fleet.get(0).unwrap();
        assert!(ocs.circuit_ready(0) && ocs.circuit_ready(1));
        assert!(!ocs.circuit_ready(2));
    }

    #[test]
    fn degraded_port_under_running_circuit_does_not_wedge_the_switch() {
        let mut c = controller(1);
        let mut t1 = FabricTarget::new();
        t1.set(0, PortMapping::from_pairs([(0, 10), (40, 50)]).unwrap());
        c.commit(&t1).unwrap();
        c.advance(Nanos::from_millis(300));
        // HV driver 0 (ports 0..34) fails under the live (0, 10) circuit.
        c.fleet.get_mut(0).unwrap().fail_fru(6);
        // Removing the *other* circuit must still commit: (0, 10) is
        // untouched, so its degraded ports are not re-checked (pre-fix,
        // every transaction on this switch was rejected forever).
        let mut t2 = FabricTarget::new();
        t2.set(0, PortMapping::from_pairs([(0, 10)]).unwrap());
        let report = c.commit(&t2).unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(report.untouched, 1);
        // Establishing a new circuit on the degraded group still rejects.
        let mut t3 = FabricTarget::new();
        t3.set(0, PortMapping::from_pairs([(0, 10), (1, 11)]).unwrap());
        match c.commit(&t3).unwrap_err() {
            CommitError::Invalid { ocs: 0, error } => {
                assert_eq!(error, OcsError::PortDegraded(1))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn noop_commit_is_instant() {
        let mut c = controller(1);
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 10)]).unwrap());
        c.commit(&t).unwrap();
        c.advance(Nanos::from_millis(300));
        let before = c.now();
        let report = c.commit(&t).unwrap();
        assert_eq!(report.added, 0);
        assert_eq!(report.untouched, 1);
        assert_eq!(report.traffic_ready_at, before, "no settle needed");
    }

    #[test]
    fn delta_commit_applies_only_the_delta() {
        let mut c = controller(3);
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap());
        t.set(1, PortMapping::from_pairs([(5, 6)]).unwrap());
        c.commit(&t).unwrap();
        c.advance(Nanos::from_millis(300));
        // Delta: move (2, 3) → (2, 4) on switch 0; switch 1 not mentioned.
        let mut d = FabricDelta::new();
        d.entry(0).add.push((2, 4));
        d.entry(0).remove.push(2);
        let report = c.commit_delta(&d).unwrap();
        assert_eq!(report.added, 1);
        assert_eq!(report.removed, 1);
        assert_eq!(report.untouched, 1, "switch 0's (0,1) kept");
        assert_eq!(report.per_switch.keys().copied().collect::<Vec<_>>(), [0]);
        assert!(c.fleet.get(0).unwrap().circuit_ready(0), "never blinked");
        assert!(c.fleet.get(1).unwrap().circuit_ready(5), "never touched");
        assert!(report.traffic_ready_at > c.now(), "bring-up still paid");
    }

    #[test]
    fn delta_commit_is_atomic_across_switches() {
        let mut c = controller(2);
        let mut d = FabricDelta::new();
        d.entry(0).add.push((0, 1));
        d.entry(9).add.push((0, 1));
        assert_eq!(
            c.commit_delta(&d).unwrap_err(),
            CommitError::UnknownSwitch(9)
        );
        assert_eq!(c.fleet.health().circuits, 0, "atomic: nothing applied");
        // Same with a down switch late in the iteration order.
        {
            let ocs = c.fleet.get_mut(1).unwrap();
            ocs.fail_fru(0);
            ocs.fail_fru(1);
        }
        let mut d = FabricDelta::new();
        d.entry(0).add.push((0, 1));
        d.entry(1).add.push((2, 3));
        match c.commit_delta(&d).unwrap_err() {
            CommitError::Invalid { ocs: 1, error } => assert_eq!(error, OcsError::ChassisDown),
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(c.fleet.health().circuits, 0, "atomic: nothing applied");
    }

    #[test]
    fn view_commit_borrows_one_list_for_many_switches() {
        // The way a pod commits: the same two lists on every switch of a
        // dimension, nothing owned by the transaction.
        let mut c = controller(4);
        let add = [(0, 1), (1, 0)];
        let switches = [0, 2, 3];
        let report = c
            .commit_view(switches.iter().map(|&id| (id, &add[..], &[][..])))
            .unwrap();
        assert_eq!((report.added, report.removed, report.untouched), (6, 0, 0));
        assert!(report.per_switch.keys().eq(&switches));
        assert!(!report.per_switch.contains_key(&1));
        let row = report.per_switch.get(&2).unwrap();
        assert_eq!((row.added, row.removed, row.untouched), (2, 0, 0));
        assert!(row.ready_at > c.now() && row.ready_at < report.traffic_ready_at);
        // Tear down through the owned-delta entry point: the same routine.
        let mut d = FabricDelta::new();
        d.entry(2).remove.extend([0, 1]);
        let report = c.commit_delta(&d).unwrap();
        assert_eq!((report.added, report.removed, report.untouched), (0, 2, 0));
        assert_eq!(c.fleet.health().circuits, 4);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn view_commit_rejects_unordered_switches() {
        let mut c = controller(3);
        let add = [(0, 1)];
        let _ = c.commit_view([2, 1].iter().map(|&id| (id, &add[..], &[][..])));
    }

    #[test]
    fn settled_agrees_with_the_health_census() {
        let mut c = controller(3);
        let agree = |c: &FabricController| {
            assert_eq!(c.settled(), c.fleet.health().pending == 0);
            assert_eq!(c.fleet.pending(), c.fleet.health().pending);
            c.settled()
        };
        assert!(agree(&c), "nothing aligning before");
        let mut d = FabricDelta::new();
        d.entry(0).add.push((0, 1));
        d.entry(2).add.extend([(2, 3), (4, 5)]);
        c.commit_delta(&d).unwrap();
        assert!(!agree(&c), "three circuits aligning");
        assert_eq!(c.fleet.pending(), 3);
        c.advance(Nanos::from_millis(300));
        assert!(agree(&c), "all aligned after");
    }

    #[test]
    fn empty_delta_commit_reports_current_time() {
        let mut c = controller(1);
        c.advance(Nanos::from_millis(250));
        let report = c.commit_delta(&FabricDelta::new()).unwrap();
        assert_eq!(report.added + report.removed + report.untouched, 0);
        assert_eq!(report.traffic_ready_at, Nanos::from_millis(250));
    }

    #[test]
    fn empty_commit_reports_fleet_time_however_the_fleet_was_advanced() {
        // The controller used to keep a clock of its own, which advancing
        // through the `pub` fleet left behind.
        let mut c = controller(2);
        c.advance(Nanos::from_millis(100));
        c.fleet.advance(Nanos::from_millis(150));
        let report = c.commit_delta(&FabricDelta::new()).unwrap();
        assert_eq!(report.traffic_ready_at, c.now());
        assert_eq!(c.now(), c.fleet.now());
        assert_eq!(c.now(), Nanos::from_millis(250));
    }

    #[test]
    fn delta_commit_skips_degraded_check_for_untouched_circuits() {
        let mut c = controller(1);
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 10), (40, 50)]).unwrap());
        c.commit(&t).unwrap();
        c.advance(Nanos::from_millis(300));
        // HV driver 0 (ports 0..34) fails under the live (0, 10) circuit.
        c.fleet.get_mut(0).unwrap().fail_fru(6);
        // Removing the other circuit still commits: (0, 10) is untouched.
        let mut d = FabricDelta::new();
        d.entry(0).remove.push(40);
        let report = c.commit_delta(&d).unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(report.untouched, 1);
        // Establishing on the degraded group still rejects.
        let mut d = FabricDelta::new();
        d.entry(0).add.push((1, 11));
        match c.commit_delta(&d).unwrap_err() {
            CommitError::Invalid { ocs: 0, error } => {
                assert_eq!(error, OcsError::PortDegraded(1))
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn unmentioned_switches_keep_their_config() {
        let mut c = controller(2);
        let mut t1 = FabricTarget::new();
        t1.set(1, PortMapping::from_pairs([(7, 8)]).unwrap());
        c.commit(&t1).unwrap();
        c.advance(Nanos::from_millis(300));
        let mut t2 = FabricTarget::new();
        t2.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        c.commit(&t2).unwrap();
        assert_eq!(
            c.fleet.get(1).unwrap().mapping().len(),
            1,
            "switch 1 untouched"
        );
    }
}
