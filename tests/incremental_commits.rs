//! Property tests for the incremental (delta-based) fabric commit path.
//!
//! The pod maintains its desired state by delta: compose/release build a
//! transaction carrying only the touched switches' added/removed pairs,
//! never a full rebuild. The reference algorithm — rebuild every
//! dimension's mapping from the live slice set via `required_hops()` —
//! must agree with what the switches actually carry after *any*
//! interleaving of composes, releases, FRU faults, repairs, and resyncs.
//! Down and desynced switches are exempt until anti-entropy reconciles
//! them (that exemption is itself part of the contract).

use lightwave::fabric::OcsId;
use lightwave::ocs::PortId;
use lightwave::superpod::slice::{Slice, SliceShape};
use lightwave::superpod::wiring::{ocs_role, SUPERPOD_OCS_COUNT};
use lightwave::superpod::{CubeId, Superpod};
use lightwave::units::Nanos;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Compose a slice over the first idle cubes (1, 2, 4, or 8 of them).
    Compose { cubes: usize },
    /// Release the nth live slice (mod the live count).
    Release { nth: usize },
    /// Fail a chassis FRU slot (0–1 PSUs, 2–5 fans, 6–13 HV drivers,
    /// 14 CPU, 15 FPGA — 14/15 down the whole chassis).
    FailFru { ocs: OcsId, slot: usize },
    /// Field-replace a FRU slot.
    ReplaceFru { ocs: OcsId, slot: usize },
    /// Advance fabric time.
    Advance { millis: u64 },
    /// Anti-entropy pass over desynced switches.
    Resync,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4).prop_map(|i| Op::Compose {
            cubes: [1, 2, 4, 8][i]
        }),
        (0usize..8).prop_map(|nth| Op::Release { nth }),
        (0..SUPERPOD_OCS_COUNT as OcsId, 0usize..16)
            .prop_map(|(ocs, slot)| Op::FailFru { ocs, slot }),
        (0..SUPERPOD_OCS_COUNT as OcsId, 0usize..16)
            .prop_map(|(ocs, slot)| Op::ReplaceFru { ocs, slot }),
        (1u64..400).prop_map(|millis| Op::Advance { millis }),
        (0u64..1).prop_map(|_| Op::Resync),
    ]
}

/// The slice shape (in chips) spanning `cubes` racks.
fn shape_for(cubes: usize) -> SliceShape {
    let (a, b, c) = match cubes {
        1 => (4, 4, 4),
        2 => (8, 4, 4),
        4 => (8, 8, 4),
        _ => (8, 8, 8),
    };
    SliceShape::new(a, b, c).expect("valid shape")
}

/// The full-rebuild reference: every dimension's desired mapping,
/// recomputed from scratch from the live slice set — exactly what the
/// pre-incremental control plane recomputed on every transaction.
fn reference_mappings(pod: &Superpod) -> [BTreeMap<PortId, PortId>; 3] {
    let mut reference: [BTreeMap<PortId, PortId>; 3] = Default::default();
    for (_, slice) in pod.slices() {
        for hop in slice.required_hops() {
            if let Some((n, s)) = hop.pair() {
                let prev = reference[hop.dim.index()].insert(n, s);
                assert!(prev.is_none(), "disjoint slices, disjoint ports");
            }
        }
    }
    reference
}

/// Every up, in-sync switch must carry its dimension's reference mapping
/// byte-identically. Down/desynced switches are exempt until resync.
fn check_equivalence(pod: &Superpod) -> Result<(), TestCaseError> {
    let reference = reference_mappings(pod);
    for ocs in 0..SUPERPOD_OCS_COUNT as OcsId {
        let sw = pod.fabric().fleet.get(ocs).expect("48 switches");
        if !sw.is_up() || pod.desynced().contains(&ocs) {
            continue;
        }
        let (dim, _) = ocs_role(ocs);
        let live: BTreeMap<PortId, PortId> = sw.mapping().pairs().collect();
        prop_assert_eq!(
            &live,
            &reference[dim.index()],
            "switch {} diverged from the full-rebuild reference",
            ocs
        );
    }
    Ok(())
}

fn apply(pod: &mut Superpod, op: Op) {
    match op {
        Op::Compose { cubes } => {
            let idle: Vec<CubeId> = pod.idle_cubes().into_iter().take(cubes).collect();
            if idle.len() < cubes {
                return;
            }
            let slice = Slice::new(shape_for(cubes), idle).expect("valid slice");
            // May legitimately fail (degraded ports under the delta);
            // on error nothing is applied, which the check verifies.
            let _ = pod.compose(slice);
        }
        Op::Release { nth } => {
            let handles: Vec<_> = pod.slices().map(|(h, _)| h).collect();
            if handles.is_empty() {
                return;
            }
            let h = handles[nth % handles.len()];
            let _ = pod.release(h);
        }
        Op::FailFru { ocs, slot } => {
            pod.fabric_mut()
                .fleet
                .get_mut(ocs)
                .expect("valid")
                .fail_fru(slot);
        }
        Op::ReplaceFru { ocs, slot } => {
            pod.fabric_mut()
                .fleet
                .get_mut(ocs)
                .expect("valid")
                .replace_fru(slot);
        }
        Op::Advance { millis } => pod.advance(Nanos::from_millis(millis)),
        Op::Resync => {
            let _ = pod.resync();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of compose/release/fault/repair/resync leaves
    /// every up, in-sync switch byte-identical to the full-rebuild
    /// reference — checked after *every* op, not just at the end.
    #[test]
    fn incremental_path_matches_full_rebuild(
        seed in 0u64..1024,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut pod = Superpod::new(seed);
        for &op in &ops {
            apply(&mut pod, op);
            check_equivalence(&pod)?;
        }
        // Repair everything, resync, and the whole fleet must converge.
        for ocs in 0..SUPERPOD_OCS_COUNT as OcsId {
            for slot in 0..16 {
                pod.fabric_mut().fleet.get_mut(ocs).unwrap().replace_fru(slot);
            }
        }
        pod.resync();
        prop_assert!(pod.desynced().is_empty(), "full repair reconciles all");
        check_equivalence(&pod)?;
    }
}
