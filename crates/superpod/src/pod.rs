//! The [`Superpod`] facade: slices composed and released on a live fabric.
//!
//! The pod owns the 48-OCS lightwave fabric and the cube inventory. Every
//! slice composition is a fabric *transaction*, committed incrementally:
//! the pod keeps a persistent desired state — a per-dimension aggregate
//! mapping maintained by delta — so a transaction touches only the
//! switches whose mapping actually changes, and carries only the
//! added/removed pairs. The transaction is a *view* of two per-dimension
//! scratch lists the pod owns and reuses — a compose's ring pairs, a
//! release's north ports, each rebuilt from the slice's cubes — walked
//! switch by switch over a touched-switch mask: nothing is built per
//! switch or kept per slice, and a single-cube slice, whose mask is empty,
//! costs no switch work at all. The live slices sit in a slot table sized
//! by use: every live slice holds at least one cube and no two share one,
//! so there are never more than [`POD_CUBES`] of them (DESIGN §6.6, "Sized
//! to the pod"), a compose takes its slot from a free-slot mask, and a
//! slot is the [`Slice`] itself, its cubes inline ("Cube lists are
//! values").
//! Running slices never blink (§4.2.4: "slices for new model placements
//! ... can be dynamically scheduled without interfering with existing
//! models running on a different slice"), and compose/release cost is
//! O(slice), not O(pod).

use crate::geometry::{CubeId, CubeSet, Dim, LINKS_PER_FACE, POD_CUBES};
use crate::slice::{Slice, SliceError};
use crate::wiring::{ocs_for, ocs_role, SUPERPOD_OCS_COUNT};
use lightwave_fabric::{
    CommitError, CommitReport, FabricController, FabricTarget, OcsFleet, OcsId, SwitchOps,
};
use lightwave_ocs::{PortId, PortMapping, ReconfigSummary};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Identifier of an active slice within the pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SliceHandle(pub u64);

/// Pod-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PodError {
    /// A requested cube is already part of an active slice.
    CubeBusy(CubeId),
    /// A requested cube is marked failed.
    CubeFailed(CubeId),
    /// No such slice.
    UnknownSlice(SliceHandle),
    /// The slice is one [`Slice::new`] refuses (its fields are public and
    /// it deserializes); the error names the first offender.
    BadSlice(SliceError),
    /// The fabric rejected the transaction.
    Fabric(CommitError),
}

impl From<CommitError> for PodError {
    fn from(e: CommitError) -> Self {
        PodError::Fabric(e)
    }
}

impl std::fmt::Display for PodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PodError::CubeBusy(c) => write!(f, "cube {c} already in a slice"),
            PodError::CubeFailed(c) => write!(f, "cube {c} is failed"),
            PodError::UnknownSlice(h) => write!(f, "unknown slice {h:?}"),
            PodError::BadSlice(e) => write!(f, "malformed slice: {e}"),
            PodError::Fabric(e) => write!(f, "fabric: {e}"),
        }
    }
}

impl std::error::Error for PodError {}

/// The circuit pairs a slice pins per torus dimension. The wiring plan
/// puts identical mappings on all 16 switches of one dimension, so one
/// pair list per dimension fully describes a slice's optical footprint.
type DimPairs = [Vec<(PortId, PortId)>; 3];

/// "No circuit" in a [`Superpod::desired`] table: ports are cube ids, all
/// below [`POD_CUBES`].
const FREE: PortId = PortId::MAX;

/// The handle a free slot of [`Superpod::held`] holds. Handles are issued
/// from 1, and a lookup refuses this one before it searches, so a free
/// slot never matches a handle.
const FREE_SLOT: SliceHandle = SliceHandle(0);

const _: () = assert!(
    SUPERPOD_OCS_COUNT <= u64::BITS as usize,
    "a switch mask is a u64 with bit `ocs` for switch `ocs`"
);
const _: () = assert!(
    POD_CUBES <= u64::BITS as usize,
    "a free-slot mask is a u64 with bit `slot` for slot `slot`"
);

/// Takes the lowest switch out of a switch mask.
fn pop_switch(mask: &mut u64) -> Option<OcsId> {
    if *mask == 0 {
        return None;
    }
    let ocs = mask.trailing_zeros();
    *mask &= *mask - 1;
    Some(ocs)
}

/// One slice's transaction as the fabric commits it: every switch of
/// `switches`, ascending, with its dimension's lists. All 16 switches of
/// a dimension share the same two slices of memory.
#[derive(Clone)]
struct SliceView<'a> {
    /// Switches not yet visited.
    switches: u64,
    add: [&'a [(PortId, PortId)]; 3],
    remove: [&'a [PortId]; 3],
}

impl<'a> Iterator for SliceView<'a> {
    type Item = SwitchOps<'a>;

    fn next(&mut self) -> Option<SwitchOps<'a>> {
        let ocs = pop_switch(&mut self.switches)?;
        let dim = ocs as usize / LINKS_PER_FACE;
        Some((ocs, self.add[dim], self.remove[dim]))
    }
}

/// A TPU v4 superpod: 64 cubes + 48 OCSes.
#[derive(Debug)]
pub struct Superpod {
    fabric: FabricController,
    /// The handle each slot of `live` holds, [`FREE_SLOT`] where none. A
    /// compose takes the lowest free slot; the table grows only when every
    /// slot is taken, so it is as long as the most slices ever live at
    /// once — at most [`POD_CUBES`].
    held: Vec<SliceHandle>,
    /// The live slice in each slot; `None` exactly where `held` is free.
    live: Vec<Option<Slice>>,
    /// The slots of `held` that exist and are free, as a bit mask: a
    /// compose takes the lowest set bit, a release sets its slot's.
    free_slots: u64,
    /// The aggregate desired mapping per dimension (all 16 switches of a
    /// dimension carry the same mapping), maintained by delta — the
    /// persistent state that makes compose/release O(slice) and resync a
    /// cheap lookup. Indexed by north port; [`FREE`] where no slice pins
    /// the port.
    desired: [[PortId; POD_CUBES]; 3],
    /// Scratch for [`Superpod::compose`]: the ring pairs of the slice
    /// being composed, per dimension. Rewritten by every compose before it
    /// is read, so nothing of one transaction reaches the next.
    pairs: DimPairs,
    /// Scratch for [`Superpod::release`]: the north ports of the slice
    /// being released, per dimension, rewritten the same way.
    norths: [Vec<PortId>; 3],
    /// Cubes inside an active slice. With `failed` this is the whole cube
    /// inventory: the idle set is always exactly `!(busy | failed)`.
    busy: CubeSet,
    /// Cubes marked failed (busy or not).
    failed: CubeSet,
    /// Switches that missed a committed transaction (down at the time)
    /// and still carry a stale mapping. Excluded from new transactions
    /// until [`Superpod::resync`] reconciles them — a down switch must
    /// degrade slices (§4.2.2), never block compose/release pod-wide.
    desynced: BTreeSet<OcsId>,
    next_handle: u64,
}

impl Superpod {
    /// Builds a pod with a deterministic fabric seed.
    pub fn new(seed: u64) -> Superpod {
        Superpod {
            fabric: FabricController::new(OcsFleet::build(SUPERPOD_OCS_COUNT, seed)),
            held: Vec::new(),
            live: Vec::new(),
            free_slots: 0,
            desired: [[FREE; POD_CUBES]; 3],
            pairs: Default::default(),
            norths: Default::default(),
            busy: CubeSet::EMPTY,
            failed: CubeSet::EMPTY,
            desynced: BTreeSet::new(),
            next_handle: 1,
        }
    }

    /// The fabric controller (telemetry, health, time).
    pub fn fabric(&self) -> &FabricController {
        &self.fabric
    }

    /// Mutable fabric access (failure injection in tests/experiments).
    pub fn fabric_mut(&mut self) -> &mut FabricController {
        &mut self.fabric
    }

    /// Cubes not in any slice and not failed — O(1).
    pub fn idle_set(&self) -> CubeSet {
        CubeSet(!(self.busy.0 | self.failed.0))
    }

    /// [`Superpod::idle_set`] as an ascending list.
    pub fn idle_cubes(&self) -> Vec<CubeId> {
        self.idle_set().iter().collect()
    }

    /// The slot holding `h`, if it is live.
    fn slot_of(&self, h: SliceHandle) -> Option<usize> {
        if h == FREE_SLOT {
            return None;
        }
        self.held.iter().position(|&held| held == h)
    }

    /// Active slices, in handle order.
    pub fn slices(&self) -> impl Iterator<Item = (SliceHandle, &Slice)> {
        let mut live: Vec<_> = self
            .held
            .iter()
            .zip(&self.live)
            .filter_map(|(&h, live)| Some((h, live.as_ref()?)))
            .collect();
        live.sort_unstable_by_key(|&(h, _)| h);
        live.into_iter()
    }

    /// Looks up a slice.
    pub fn slice(&self, h: SliceHandle) -> Option<&Slice> {
        self.live[self.slot_of(h)?].as_ref()
    }

    /// Marks a cube failed (host/server failure). Idle cubes simply leave
    /// the pool; cubes inside slices degrade their slice (the caller —
    /// scheduler or availability model — decides what to do about it).
    /// An id outside the pod names no cube and is ignored.
    pub fn mark_cube_failed(&mut self, cube: CubeId) {
        self.failed.insert(cube);
    }

    /// Returns a repaired cube to service (ids outside the pod ignored).
    pub fn mark_cube_repaired(&mut self, cube: CubeId) {
        self.failed.remove(cube);
    }

    /// Writes the circuit pairs a slice pins per dimension into `pairs`,
    /// sorted by north port for deterministic delta ordering: every cube
    /// of a ring longer than one hops to the next cube of its ring,
    /// wrapping at the edge. Single-cube dimensions contribute nothing
    /// (their rings are electrical), so a single-cube slice has no optical
    /// hop at all.
    fn pairs_for(slice: &Slice, pairs: &mut DimPairs) {
        let grid = slice.shape.cube_grid();
        // Cubes are row-major, first dimension fastest.
        let strides = [1, grid[0], grid[0] * grid[1]];
        for ((list, len), stride) in pairs.iter_mut().zip(grid).zip(strides) {
            list.clear();
            if len == 1 {
                continue;
            }
            for (at, &from) in slice.cubes.iter().enumerate() {
                let coord = at / stride % len;
                let next = if coord + 1 == len {
                    at - coord * stride
                } else {
                    at + stride
                };
                list.push((from as PortId, slice.cubes[next] as PortId));
            }
            list.sort_unstable();
        }
    }

    /// The switches a transaction commits on, and the ones it must leave
    /// out, as switch masks: only the dimensions it `spans` are touched,
    /// and down and desynced switches are skipped so one failed chassis
    /// cannot veto pod-wide transactions.
    fn switch_masks(&self, spans: [bool; 3]) -> (u64, u64) {
        let (mut touched, mut skipped) = (0u64, 0u64);
        for dim in Dim::ALL {
            if !spans[dim.index()] {
                continue;
            }
            for k in 0..LINKS_PER_FACE {
                let ocs = ocs_for(dim, k);
                let up = self.fabric.fleet.get(ocs).is_some_and(|s| s.is_up());
                if up && !self.desynced.contains(&ocs) {
                    touched |= 1 << ocs;
                } else {
                    skipped |= 1 << ocs;
                }
            }
        }
        (touched, skipped)
    }

    /// Records the switches a committed transaction skipped.
    fn mark_desynced(&mut self, mut skipped: u64) {
        while let Some(ocs) = pop_switch(&mut skipped) {
            self.desynced.insert(ocs);
        }
    }

    /// One dimension's desired circuits, ascending by north port.
    fn desired_pairs(table: &[PortId; POD_CUBES]) -> impl Iterator<Item = (PortId, PortId)> + '_ {
        (0..)
            .zip(table)
            .filter(|&(_, &s)| s != FREE)
            .map(|(n, &s)| (n, s))
    }

    /// The one property no outside check can see: the delta-maintained
    /// `desired` tables equal a from-scratch rebuild from the slice set.
    /// (That every up, in-sync switch carries that mapping is checked from
    /// outside: `tests/incremental_commits.rs`, chaos invariant (b).)
    #[cfg(test)]
    fn assert_desired_matches_rebuild(&self) {
        let mut rebuilt: [std::collections::BTreeMap<PortId, PortId>; 3] = Default::default();
        for slice in self.live.iter().flatten() {
            for hop in slice.required_hops() {
                if let Some((n, s)) = hop.pair() {
                    let prev = rebuilt[hop.dim.index()].insert(n, s);
                    assert!(prev.is_none(), "disjoint slices produce disjoint ports");
                }
            }
        }
        for (rebuilt, table) in rebuilt.iter().zip(&self.desired) {
            assert!(
                rebuilt
                    .iter()
                    .map(|(&n, &s)| (n, s))
                    .eq(Self::desired_pairs(table)),
                "incremental desired state diverged from full rebuild"
            );
        }
    }

    /// Switches carrying a stale mapping (they were down during one or
    /// more committed transactions). [`Superpod::resync`] reconciles.
    pub fn desynced(&self) -> &BTreeSet<OcsId> {
        &self.desynced
    }

    /// Anti-entropy: re-applies the desired state to every desynced
    /// switch that is back up, one single-switch transaction each so a
    /// still-broken switch cannot hold the others hostage. Successfully
    /// reconciled switches rejoin future transactions; failures stay
    /// desynced and are reported.
    pub fn resync(&mut self) -> Vec<(OcsId, Result<ReconfigSummary, CommitError>)> {
        let mut out = Vec::new();
        if self.desynced.is_empty() {
            return out;
        }
        // Collect only the revived switches (no clone of the whole set).
        let ready: Vec<OcsId> = self
            .desynced
            .iter()
            .copied()
            .filter(|&ocs| {
                self.fabric
                    .fleet
                    .get(ocs)
                    .map(|s| s.is_up())
                    .unwrap_or(false)
            })
            .collect();
        for ocs in ready {
            // The full desired mapping is a cheap lookup in the persistent
            // per-dimension aggregate — no rebuild from the slice set.
            let (dim, _) = ocs_role(ocs);
            let mapping = PortMapping::from_pairs(Self::desired_pairs(&self.desired[dim.index()]))
                .expect("desired state is bijective by construction");
            let mut target = FabricTarget::new();
            target.set(ocs, mapping);
            match self.fabric.commit(&target) {
                Ok(report) => {
                    self.desynced.remove(&ocs);
                    let per = report
                        .per_switch
                        .get(&ocs)
                        .expect("single-switch commit reports its switch");
                    out.push((ocs, Ok(*per)));
                }
                Err(e) => out.push((ocs, Err(e))),
            }
        }
        out
    }

    /// Composes a slice: validates cube availability, commits the
    /// incremental fabric transaction (only the switches whose mapping
    /// changes, only this slice's pairs), and returns the handle plus the
    /// commit report. The fabric validates the whole transaction before
    /// applying and the pod mutates nothing until the commit succeeds, so
    /// on error nothing has been applied anywhere. A slice [`Slice::new`]
    /// would refuse is refused first, before anything is read or touched:
    /// a slice holds at least one cube of the pod, which is what bounds
    /// the slot table.
    pub fn compose(&mut self, slice: Slice) -> Result<(SliceHandle, CommitReport), PodError> {
        slice.check().map_err(PodError::BadSlice)?;
        for &c in &slice.cubes {
            if self.busy.contains(c) {
                return Err(PodError::CubeBusy(c));
            }
            if self.failed.contains(c) {
                return Err(PodError::CubeFailed(c));
            }
        }
        Self::pairs_for(&slice, &mut self.pairs);
        let (switches, skipped) = self.switch_masks(self.pairs.each_ref().map(|l| !l.is_empty()));
        let pairs = &self.pairs;
        let report = self.fabric.commit_view(SliceView {
            switches,
            add: [&pairs[0], &pairs[1], &pairs[2]],
            remove: [&[]; 3],
        })?;
        // Success: mutate the persistent state in place.
        let handle = SliceHandle(self.next_handle);
        self.next_handle += 1;
        for &c in &slice.cubes {
            self.busy.insert(c);
        }
        for (table, list) in self.desired.iter_mut().zip(pairs) {
            for &(n, s) in list {
                debug_assert_eq!(table[n as usize], FREE, "disjoint slices, disjoint ports");
                table[n as usize] = s;
            }
        }
        let live = Some(slice);
        match self.free_slots {
            0 => {
                // One slot more, never doubled: the table is exactly as
                // long as the most slices ever live at once.
                debug_assert!(self.held.len() < POD_CUBES, "a live slice holds a cube");
                self.held.reserve_exact(1);
                self.held.push(handle);
                self.live.reserve_exact(1);
                self.live.push(live);
            }
            free => {
                let slot = free.trailing_zeros() as usize;
                self.free_slots &= free - 1;
                self.held[slot] = handle;
                self.live[slot] = live;
            }
        }
        self.mark_desynced(skipped);
        Ok((handle, report))
    }

    /// Releases a slice, freeing its cubes and tearing down its circuits —
    /// an incremental transaction carrying only this slice's pairs as
    /// removals. On a dimension the slice spans, every one of its cubes
    /// hops to the next cube of its ring, so the north ports to tear down
    /// there are exactly its cubes, ascending. On error nothing has been
    /// applied.
    pub fn release(&mut self, h: SliceHandle) -> Result<CommitReport, PodError> {
        let slot = self.slot_of(h).ok_or(PodError::UnknownSlice(h))?;
        let slice = self.live[slot].as_ref().expect("a held slot is live");
        let cubes: CubeSet = slice.cubes.iter().copied().collect();
        for (norths, len) in self.norths.iter_mut().zip(slice.shape.cube_grid()) {
            norths.clear();
            if len > 1 {
                norths.extend(cubes.iter().map(PortId::from));
            }
        }
        let (switches, skipped) = self.switch_masks(self.norths.each_ref().map(|l| !l.is_empty()));
        let norths = &self.norths;
        let report = self.fabric.commit_view(SliceView {
            switches,
            add: [&[]; 3],
            remove: [&norths[0], &norths[1], &norths[2]],
        })?;
        self.live[slot] = None;
        self.held[slot] = FREE_SLOT;
        self.free_slots |= 1 << slot;
        self.busy = self.busy.difference(cubes);
        for (table, norths) in self.desired.iter_mut().zip(&self.norths) {
            for &n in norths {
                table[n as usize] = FREE;
            }
        }
        self.mark_desynced(skipped);
        Ok(report)
    }

    /// Advances fabric time.
    #[inline]
    pub fn advance(&mut self, dt: Nanos) {
        self.fabric.advance(dt);
    }

    /// [`Superpod::advance`] to an absolute time; never backwards.
    #[inline]
    pub fn advance_to(&mut self, now: Nanos) {
        self.fabric.fleet.advance_to(now);
    }

    /// True when every circuit in the fabric is aligned and carrying.
    pub fn settled(&self) -> bool {
        self.fabric.settled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::SliceShape;

    fn slice_of(cubes: Vec<CubeId>, a: usize, b: usize, c: usize) -> Slice {
        Slice::new(SliceShape::new(a, b, c).unwrap(), cubes).unwrap()
    }

    /// The live slice holding `cube`, found through [`Superpod::slices`].
    fn holder(pod: &Superpod, cube: CubeId) -> Option<SliceHandle> {
        pod.slices()
            .find(|(_, s)| s.cubes.contains(&cube))
            .map(|(h, _)| h)
    }

    #[test]
    fn compose_full_pod() {
        let mut pod = Superpod::new(1);
        let slice = slice_of((0..64).collect(), 16, 16, 16);
        let (h, report) = pod.compose(slice).unwrap();
        // 64 cubes × 3 dims × 16 circuits/hop = 3072 circuits.
        assert_eq!(report.added, 3072);
        pod.advance(Nanos::from_millis(300));
        assert!(pod.settled());
        assert!(pod.idle_cubes().is_empty());
        assert_eq!(pod.slice(h).unwrap().chip_count(), 4096);
    }

    #[test]
    fn concurrent_slices_are_isolated() {
        let mut pod = Superpod::new(2);
        let (h1, _) = pod.compose(slice_of(vec![0, 1], 8, 4, 4)).unwrap();
        pod.advance(Nanos::from_millis(300));
        // Composing a second slice must not disturb the first: every
        // circuit of slice 1 shows up as "untouched" in the commit.
        let (h2, report) = pod
            .compose(slice_of(vec![10, 20, 30, 40], 16, 4, 4))
            .unwrap();
        // Slice 1 spans only X (8×4×4 = a 2-cube X ring; Y and Z rings are
        // electrical): 2 pairs × 16 X switches = 32 circuits, all preserved
        // on the switches slice 2 touches.
        assert_eq!(report.untouched, 32);
        assert_eq!(report.removed, 0);
        assert_ne!(h1, h2);
        assert_eq!(pod.idle_cubes().len(), 64 - 6);
    }

    #[test]
    fn cube_conflicts_rejected() {
        let mut pod = Superpod::new(3);
        pod.compose(slice_of(vec![5, 6], 8, 4, 4)).unwrap();
        assert_eq!(
            pod.compose(slice_of(vec![6, 7], 8, 4, 4)).unwrap_err(),
            PodError::CubeBusy(6)
        );
        pod.mark_cube_failed(9);
        assert_eq!(
            pod.compose(slice_of(vec![9], 4, 4, 4)).unwrap_err(),
            PodError::CubeFailed(9)
        );
    }

    #[test]
    fn release_frees_cubes_without_touching_others() {
        let mut pod = Superpod::new(4);
        let (h1, _) = pod.compose(slice_of(vec![0, 1], 8, 4, 4)).unwrap();
        let (h2, _) = pod.compose(slice_of(vec![2, 3], 8, 4, 4)).unwrap();
        pod.advance(Nanos::from_millis(300));
        let report = pod.release(h1).unwrap();
        // Each 8×4×4 slice pins 2 pairs × 16 X switches = 32 circuits.
        assert_eq!(report.removed, 32);
        assert_eq!(report.untouched, 32, "slice 2 untouched");
        assert_eq!(report.added, 0);
        assert!(pod.idle_cubes().contains(&0));
        assert!(pod.slice(h2).is_some());
        assert_eq!(pod.release(h1).unwrap_err(), PodError::UnknownSlice(h1));
    }

    #[test]
    fn swap_failed_cube_reconfigures_around_it() {
        // The §4.2.2 availability story: a reconfigurable fabric swaps a
        // bad cube for a spare; the slice is re-composed on good cubes.
        let mut pod = Superpod::new(5);
        let (h, _) = pod.compose(slice_of(vec![0, 1, 2, 3], 16, 4, 4)).unwrap();
        pod.advance(Nanos::from_millis(300));
        // Cube 2 dies.
        pod.mark_cube_failed(2);
        let old = pod.slice(h).unwrap().clone();
        pod.release(h).unwrap();
        let spare = pod
            .idle_cubes()
            .into_iter()
            .find(|c| !old.cubes.contains(c))
            .unwrap();
        let cubes = old.cubes.iter().map(|&c| if c == 2 { spare } else { c });
        let (h2, _) = pod
            .compose(Slice::new(old.shape, cubes.collect::<Vec<_>>()).unwrap())
            .unwrap();
        pod.advance(Nanos::from_millis(300));
        assert!(pod.settled());
        assert_eq!(pod.slice(h2).unwrap().chip_count(), 256);
    }

    #[test]
    fn cube_ids_outside_the_pod_are_ignored() {
        // An id past 63 names no cube: nothing is recorded for it.
        let mut pod = Superpod::new(13);
        for bad in [64, 200, 255] {
            pod.mark_cube_failed(bad);
            assert!(!pod.failed.contains(bad), "cube {bad} names nothing");
            assert_eq!(holder(&pod, bad), None);
            pod.mark_cube_repaired(bad);
        }
        assert_eq!(pod.idle_set().len(), POD_CUBES);
        // The last real cube still behaves.
        pod.mark_cube_failed(63);
        assert!(pod.failed.contains(63));
        assert_eq!(pod.idle_cubes(), (0..63).collect::<Vec<CubeId>>());
        pod.mark_cube_repaired(63);
        let (h, _) = pod.compose(slice_of(vec![63], 4, 4, 4)).unwrap();
        assert_eq!(holder(&pod, 63), Some(h));
        assert!(!pod.idle_set().contains(63));
    }

    #[test]
    fn a_cube_is_found_in_the_slice_holding_it() {
        let mut pod = Superpod::new(6);
        let (h, _) = pod.compose(slice_of(vec![11, 13], 8, 4, 4)).unwrap();
        assert_eq!(holder(&pod, 11), Some(h));
        assert_eq!(holder(&pod, 12), None);
    }

    #[test]
    fn down_switch_never_blocks_transactions_and_resyncs() {
        let mut pod = Superpod::new(9);
        let (h1, _) = pod.compose(slice_of(vec![0, 1], 8, 4, 4)).unwrap();
        pod.advance(Nanos::from_millis(300));
        // OCS 5 loses its control CPU: chassis down.
        pod.fabric_mut()
            .fleet
            .get_mut(5)
            .unwrap()
            .fail_fru(14)
            .unwrap();
        // Transactions proceed around the dark switch: compose a second
        // slice and release the first (the pre-fix control plane rejected
        // both with ChassisDown, leaking the released slice's capacity).
        let (h2, report) = pod.compose(slice_of(vec![2, 3], 8, 4, 4)).unwrap();
        assert!(!report.per_switch.contains_key(&5), "down switch skipped");
        pod.release(h1).unwrap();
        assert!(pod.desynced().contains(&5), "missed transactions recorded");
        // Repair + anti-entropy: switch 5 converges on the live state.
        pod.fabric_mut()
            .fleet
            .get_mut(5)
            .unwrap()
            .replace_fru(14)
            .unwrap();
        let reports = pod.resync();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].1.is_ok());
        assert!(pod.desynced().is_empty());
        pod.advance(Nanos::from_millis(300));
        // Switch 5 (dimension X) now carries exactly slice 2's X-ring.
        let mapping = pod.fabric().fleet.get(5).unwrap().mapping();
        let pairs: Vec<_> = mapping.pairs().collect();
        assert_eq!(pairs, vec![(2, 3), (3, 2)]);
        assert!(pod.slice(h2).is_some());
    }

    #[test]
    fn single_cube_compose_touches_zero_switches() {
        // All three rings of a single-cube slice are electrical: composing
        // one on a loaded pod is a zero-switch transaction, and so is
        // releasing it.
        let mut pod = Superpod::new(11);
        pod.compose(slice_of(vec![0, 1, 2, 3], 16, 4, 4)).unwrap();
        pod.assert_desired_matches_rebuild();
        pod.advance(Nanos::from_millis(300));
        let before = pod.fabric().fleet.health().circuits;
        let (h, report) = pod.compose(slice_of(vec![9], 4, 4, 4)).unwrap();
        pod.assert_desired_matches_rebuild();
        assert!(report.per_switch.is_empty(), "no switch touched");
        assert_eq!(report.added + report.removed + report.untouched, 0);
        assert_eq!(report.traffic_ready_at, pod.fabric().now(), "instant");
        assert_eq!(pod.fabric().fleet.health().circuits, before);
        let report = pod.release(h).unwrap();
        pod.assert_desired_matches_rebuild();
        assert!(report.per_switch.is_empty());
        assert_eq!(pod.fabric().fleet.health().circuits, before);
    }

    #[test]
    fn failed_compose_applies_nothing() {
        // The in-place transaction keeps the on-error-nothing-applied
        // guarantee the old clone-the-world pattern provided.
        let mut pod = Superpod::new(12);
        let (h1, _) = pod.compose(slice_of(vec![0, 1], 8, 4, 4)).unwrap();
        pod.assert_desired_matches_rebuild();
        pod.advance(Nanos::from_millis(300));
        let circuits_before = pod.fabric().fleet.health().circuits;
        // HV driver 0 on X-switch 3 degrades ports 0..34 — the new slice's
        // pairs (2,3)/(3,2) land on degraded ports there, so validation
        // rejects the whole transaction.
        pod.fabric_mut()
            .fleet
            .get_mut(3)
            .unwrap()
            .fail_fru(6)
            .unwrap();
        let err = pod.compose(slice_of(vec![2, 3], 8, 4, 4)).unwrap_err();
        assert!(
            matches!(err, PodError::Fabric(_)),
            "fabric rejected: {err:?}"
        );
        // Nothing changed anywhere: no cubes claimed, no circuits touched,
        // no desired-state drift, handle not burned on other switches.
        pod.assert_desired_matches_rebuild();
        assert!(pod.idle_cubes().contains(&2) && pod.idle_cubes().contains(&3));
        assert_eq!(pod.slices().count(), 1);
        assert_eq!(pod.fabric().fleet.health().circuits, circuits_before);
        assert!(pod.desynced().is_empty());
        assert_eq!(holder(&pod, 2), None);
        // Slice 1 still fully alive.
        assert!(pod.slice(h1).is_some());
        pod.release(h1).unwrap();
        pod.assert_desired_matches_rebuild();
    }

    #[test]
    fn fabric_power_scales_with_circuits() {
        let mut pod = Superpod::new(7);
        let idle_power = pod.fabric().fleet.health().power_w;
        pod.compose(slice_of((0..64).collect(), 16, 16, 16))
            .unwrap();
        let loaded = pod.fabric().fleet.health().power_w;
        assert!(loaded > idle_power);
        // 48 chassis stay within rating: < 48 × 108 W.
        assert!(loaded < 48.0 * 108.0);
    }
}
