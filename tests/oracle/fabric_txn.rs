//! The reference fabric transaction: the pod → fabric → switch path as it
//! stood before transactions became borrowed views (PR 16), moved here
//! verbatim as a test oracle. `pairs_for` walks `required_hops()`,
//! `delta_for` builds an owned `FabricDelta` with a `SwitchDelta` (two
//! `Vec`s) per touched switch and a `BTreeSet` of the skipped ones, and
//! `commit_delta` collects a `BTreeMap<OcsId, ReconfigReport>` from the
//! list-returning `apply_delta`. Only the type names changed, and the pod
//! owns its fleet directly, where the parent reached it through
//! `FabricController`; the fleet is the eager reference one, which ticks
//! every switch on every advance and keeps the clock, so nothing here
//! runs on the library's fleet. It is deliberately the slow, obvious
//! version: `tests/fabric_txn_model.rs` holds the production pod to its
//! results, reports and switch state under arbitrary interleavings.

#[path = "eager_fleet.rs"]
mod eager_fleet;

use eager_fleet::EagerFleet;
use lightwave::fabric::{CommitError, FabricDelta, FabricTarget, OcsId};
use lightwave::ocs::{PortId, PortMapping, ReconfigReport};
use lightwave::superpod::geometry::{Dim, LINKS_PER_FACE, POD_CUBES};
use lightwave::superpod::wiring::{ocs_for, ocs_role, SUPERPOD_OCS_COUNT};
use lightwave::superpod::{CubeId, CubeSet, PodError, Slice, SliceHandle};
use lightwave::transceiver::bringup::LinkBringup;
use lightwave::units::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// The parent commit's `CommitReport`: one owned `ReconfigReport`, lists
/// included, per touched switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// Per-switch reconfiguration reports.
    pub per_switch: BTreeMap<OcsId, ReconfigReport>,
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

type DimPairs = [Vec<(PortId, PortId)>; 3];

#[derive(Debug)]
struct LiveSlice {
    slice: Slice,
    pairs: DimPairs,
}

/// The parent commit's `Superpod` with its `FabricController` folded in.
#[derive(Debug)]
pub struct OraclePod {
    /// The switch fleet (fault injection reaches in, as
    /// `pod.fabric_mut().fleet` does on the production pod).
    pub fleet: EagerFleet,
    slices: BTreeMap<SliceHandle, LiveSlice>,
    desired: [BTreeMap<PortId, PortId>; 3],
    busy: CubeSet,
    failed: CubeSet,
    desynced: BTreeSet<OcsId>,
    next_handle: u64,
}

impl OraclePod {
    /// Builds a pod with a deterministic fabric seed.
    pub fn new(seed: u64) -> OraclePod {
        OraclePod {
            fleet: EagerFleet::build(SUPERPOD_OCS_COUNT, seed),
            slices: BTreeMap::new(),
            desired: Default::default(),
            busy: CubeSet::EMPTY,
            failed: CubeSet::EMPTY,
            desynced: BTreeSet::new(),
            next_handle: 1,
        }
    }

    /// Controller time.
    pub fn now(&self) -> Nanos {
        self.fleet.now()
    }

    /// Cubes not in any slice and not failed.
    pub fn idle_set(&self) -> CubeSet {
        (0..POD_CUBES as CubeId)
            .filter(|&c| !self.busy.contains(c) && !self.failed.contains(c))
            .collect()
    }

    /// Live slice handles, ascending.
    pub fn handles(&self) -> Vec<SliceHandle> {
        self.slices.keys().copied().collect()
    }

    /// Marks a cube failed.
    pub fn mark_cube_failed(&mut self, cube: CubeId) {
        self.failed.insert(cube);
    }

    /// Returns a repaired cube to service.
    pub fn mark_cube_repaired(&mut self, cube: CubeId) {
        self.failed.remove(cube);
    }

    /// Switches carrying a stale mapping.
    pub fn desynced(&self) -> &BTreeSet<OcsId> {
        &self.desynced
    }

    fn pairs_for(slice: &Slice) -> DimPairs {
        let mut pairs: DimPairs = Default::default();
        if slice.cubes.len() == 1 {
            return pairs;
        }
        for hop in slice.required_hops() {
            if let Some(p) = hop.pair() {
                pairs[hop.dim.index()].push(p);
            }
        }
        for list in &mut pairs {
            list.sort_unstable();
        }
        pairs
    }

    fn delta_for(&self, pairs: &DimPairs, add: bool) -> (FabricDelta, BTreeSet<OcsId>) {
        let mut delta = FabricDelta::new();
        let mut skipped = BTreeSet::new();
        for dim in Dim::ALL {
            let list = &pairs[dim.index()];
            if list.is_empty() {
                continue;
            }
            for k in 0..LINKS_PER_FACE {
                let ocs = ocs_for(dim, k);
                let up = self.fleet.get(ocs).map(|s| s.is_up()).unwrap_or(false);
                if !up || self.desynced.contains(&ocs) {
                    skipped.insert(ocs);
                    continue;
                }
                let d = delta.entry(ocs);
                if add {
                    d.add.extend_from_slice(list);
                } else {
                    d.remove.extend(list.iter().map(|&(n, _)| n));
                }
            }
        }
        (delta, skipped)
    }

    /// Totals a transaction's per-switch reports.
    fn report(&self, per_switch: BTreeMap<OcsId, ReconfigReport>) -> OracleReport {
        let (mut untouched, mut added, mut removed, mut latest) = (0, 0, 0, self.now());
        for r in per_switch.values() {
            untouched += r.untouched;
            added += r.added.len();
            removed += r.removed.len();
            latest = latest.max(r.ready_at);
        }
        let traffic_ready_at = if added > 0 {
            latest + LinkBringup::nominal_duration()
        } else {
            latest
        };
        OracleReport {
            per_switch,
            untouched,
            added,
            removed,
            traffic_ready_at,
        }
    }

    /// `FabricController::commit` (full targets; resync) over the
    /// switch's public delta API: each switch's diff against its target,
    /// validated, then applied.
    fn commit(&mut self, target: &FabricTarget) -> Result<OracleReport, CommitError> {
        let mut deltas = BTreeMap::new();
        for id in target.switches() {
            let ocs = self
                .fleet
                .get_mut(id)
                .ok_or(CommitError::UnknownSwitch(id))?;
            let delta = ocs
                .delta_to(target.get(id).expect("declared"))
                .and_then(|d| ocs.validate_delta(&d.add, &d.remove).map(|()| d))
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
            deltas.insert(id, delta);
        }
        let mut per_switch = BTreeMap::new();
        for (id, delta) in deltas {
            let ocs = self.fleet.get_mut(id).expect("validated");
            let report = ocs
                .apply_delta(&delta.add, &delta.remove)
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
            per_switch.insert(id, report);
        }
        Ok(self.report(per_switch))
    }

    /// The parent's `FabricController::commit_delta`.
    fn commit_delta(&mut self, delta: &FabricDelta) -> Result<OracleReport, CommitError> {
        for (id, d) in delta.iter() {
            let ocs = self
                .fleet
                .get_mut(id)
                .ok_or(CommitError::UnknownSwitch(id))?;
            ocs.validate_delta(&d.add, &d.remove)
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
        }
        let mut per_switch = BTreeMap::new();
        for (id, d) in delta.iter() {
            let ocs = self.fleet.get_mut(id).expect("validated");
            let report = ocs
                .apply_delta(&d.add, &d.remove)
                .map_err(|error| CommitError::Invalid { ocs: id, error })?;
            per_switch.insert(id, report);
        }
        Ok(self.report(per_switch))
    }

    /// Anti-entropy over the desynced switches that are back up.
    pub fn resync(&mut self) -> Vec<(OcsId, Result<ReconfigReport, CommitError>)> {
        let mut out = Vec::new();
        if self.desynced.is_empty() {
            return out;
        }
        let ready: Vec<OcsId> = self
            .desynced
            .iter()
            .copied()
            .filter(|&ocs| self.fleet.get(ocs).map(|s| s.is_up()).unwrap_or(false))
            .collect();
        for ocs in ready {
            let (dim, _) = ocs_role(ocs);
            let mapping =
                PortMapping::from_pairs(self.desired[dim.index()].iter().map(|(&n, &s)| (n, s)))
                    .expect("desired state is bijective by construction");
            let mut target = FabricTarget::new();
            target.set(ocs, mapping);
            match self.commit(&target) {
                Ok(mut report) => {
                    self.desynced.remove(&ocs);
                    let per = report
                        .per_switch
                        .remove(&ocs)
                        .expect("single-switch commit reports its switch");
                    out.push((ocs, Ok(per)));
                }
                Err(e) => out.push((ocs, Err(e))),
            }
        }
        out
    }

    /// Composes a slice.
    pub fn compose(&mut self, slice: Slice) -> Result<(SliceHandle, OracleReport), PodError> {
        for &c in &slice.cubes {
            if self.busy.contains(c) {
                return Err(PodError::CubeBusy(c));
            }
            if self.failed.contains(c) {
                return Err(PodError::CubeFailed(c));
            }
        }
        let pairs = Self::pairs_for(&slice);
        let (delta, skipped) = self.delta_for(&pairs, true);
        let report = self.commit_delta(&delta)?;
        let handle = SliceHandle(self.next_handle);
        self.next_handle += 1;
        for &c in &slice.cubes {
            self.busy.insert(c);
        }
        for (dim, list) in self.desired.iter_mut().zip(&pairs) {
            for &(n, s) in list {
                let prev = dim.insert(n, s);
                debug_assert!(prev.is_none(), "disjoint slices produce disjoint ports");
            }
        }
        self.slices.insert(handle, LiveSlice { slice, pairs });
        self.desynced.extend(skipped);
        Ok((handle, report))
    }

    /// Releases a slice.
    pub fn release(&mut self, h: SliceHandle) -> Result<OracleReport, PodError> {
        let Some(live) = self.slices.get(&h) else {
            return Err(PodError::UnknownSlice(h));
        };
        let (delta, skipped) = self.delta_for(&live.pairs, false);
        let report = self.commit_delta(&delta)?;
        let live = self.slices.remove(&h).expect("checked");
        for &c in &live.slice.cubes {
            self.busy.remove(c);
        }
        for (dim, list) in self.desired.iter_mut().zip(&live.pairs) {
            for &(n, _) in list {
                dim.remove(&n);
            }
        }
        self.desynced.extend(skipped);
        Ok(report)
    }

    /// Advances fabric time.
    pub fn advance(&mut self, dt: Nanos) {
        self.fleet.advance(dt);
    }
}
