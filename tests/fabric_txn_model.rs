//! Fabric transactions against their oracle (DESIGN §6.6, "A transaction
//! is a view").
//!
//! `Superpod::compose`/`release` hand the fabric a borrowed view of the
//! slice's own pair lists over a touched-switch mask, and the commit
//! report is one dense per-switch table. `oracle::OraclePod` is the path
//! they replaced — an owned `FabricDelta` per transaction, a
//! `BTreeMap<OcsId, ReconfigReport>` per report — kept verbatim as the
//! reference. Driven through the same arbitrary interleaving of composes
//! (non-contiguous cubes, busy and failed cubes included), releases, FRU
//! faults and repairs, cube failures, wiped switches, resyncs and clock
//! advances on same-seed fleets, the two must return the same `Ok`/`Err`,
//! report the same totals, touched switches and per-switch rows, and leave
//! all 48 switches, the desynced set and the idle set in the same state.

#[path = "oracle/fabric_txn.rs"]
mod oracle;

use lightwave::fabric::{CommitError, CommitReport, OcsId};
use lightwave::ocs::{OcsError, PalomarOcs, PortMapping, ReconfigReport, ReconfigSummary};
use lightwave::superpod::wiring::SUPERPOD_OCS_COUNT;
use lightwave::superpod::{CubeId, PodError, Slice, SliceHandle, SliceShape, Superpod};
use lightwave::units::Nanos;
use oracle::{OraclePod, OracleReport};
use proptest::prelude::*;

/// The chip shapes of 1-, 2-, 4- and 8-cube slices, as the service's
/// production mix requests them.
const SHAPES: [[usize; 3]; 4] = [[4, 4, 4], [8, 4, 4], [8, 8, 4], [8, 8, 8]];

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Compose `SHAPES[shape]` over cubes `start, start + stride, …`
    /// (mod 64; `stride` is odd, so the walk is a permutation). With
    /// `idle_only` the walk skips cubes that are busy or failed; without
    /// it a busy or failed cube is taken as it comes and the compose must
    /// be refused.
    Compose {
        shape: usize,
        start: u8,
        stride: u8,
        idle_only: bool,
    },
    /// Release the nth live slice (mod the live count), or a handle that
    /// was never issued when none is live.
    Release {
        nth: usize,
    },
    /// HV-driver slots (6–13) degrade ports, so a compose landing on them
    /// is refused; CPU/FPGA slots (14/15) and both PSUs (0+1) down the
    /// chassis, so the switch is skipped and desynced.
    FailFru {
        ocs: OcsId,
        slot: usize,
    },
    ReplaceFru {
        ocs: OcsId,
        slot: usize,
    },
    /// Ids past 63 name no cube.
    FailCube(CubeId),
    RepairCube(CubeId),
    /// Every circuit on one switch torn down behind the pod's back: the
    /// next release touching it is refused (`NotConnected`).
    WipeSwitch {
        ocs: OcsId,
    },
    Resync,
    Advance {
        micros: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ocs = || 0..SUPERPOD_OCS_COUNT as OcsId;
    let compose = |idle_only| {
        (0..SHAPES.len(), 0u8..64, 0u8..32).prop_map(move |(shape, start, half)| Op::Compose {
            shape,
            start,
            stride: 2 * half + 1,
            idle_only,
        })
    };
    prop_oneof![
        compose(true),
        compose(true),
        compose(true),
        compose(false),
        (0usize..8).prop_map(|nth| Op::Release { nth }),
        (0usize..8).prop_map(|nth| Op::Release { nth }),
        (ocs(), 0usize..16).prop_map(|(ocs, slot)| Op::FailFru { ocs, slot }),
        (ocs(), 0usize..16).prop_map(|(ocs, slot)| Op::ReplaceFru { ocs, slot }),
        (0u8..70).prop_map(Op::FailCube),
        (0u8..70).prop_map(Op::RepairCube),
        ocs().prop_map(|ocs| Op::WipeSwitch { ocs }),
        Just(Op::Resync),
        (1u64..400_000).prop_map(|micros| Op::Advance { micros }),
    ]
}

fn shape(i: usize) -> SliceShape {
    let [a, b, c] = SHAPES[i];
    SliceShape::new(a, b, c).expect("legal shape")
}

/// The cubes a [`Op::Compose`] asks for, or `None` when fewer than the
/// shape needs are idle.
fn pick_cubes(pod: &Superpod, op: Op) -> Option<Slice> {
    let Op::Compose {
        shape: i,
        start,
        stride,
        idle_only,
    } = op
    else {
        unreachable!("compose ops only")
    };
    let idle = pod.idle_set();
    let need = shape(i).cube_count();
    let cubes: Vec<CubeId> = (0..64u32)
        .map(|k| ((start as u32 + k * stride as u32) % 64) as CubeId)
        .filter(|&c| !idle_only || idle.contains(c))
        .take(need)
        .collect();
    (cubes.len() == need).then(|| Slice::new(shape(i), cubes).expect("distinct cubes in range"))
}

/// A switch-side fault, applied identically to both fleets.
fn fault(ocs: &mut PalomarOcs, op: Op) {
    match op {
        Op::FailFru { slot, .. } => ocs.fail_fru(slot),
        Op::ReplaceFru { slot, .. } => ocs.replace_fru(slot),
        Op::WipeSwitch { .. } => {
            // Refused on a down chassis; then it is not a fault either.
            let _ = ocs.apply_mapping(&PortMapping::new());
        }
        _ => unreachable!("switch faults only"),
    }
}

/// The oracle's owned per-switch report says what the table row says.
fn same_report(got: &CommitReport, want: &OracleReport) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        (got.added, got.removed, got.untouched, got.traffic_ready_at),
        (
            want.added,
            want.removed,
            want.untouched,
            want.traffic_ready_at
        )
    );
    // The map-shaped read API, each accessor against the map itself.
    prop_assert_eq!(got.per_switch.len(), want.per_switch.len());
    prop_assert_eq!(got.per_switch.is_empty(), want.per_switch.is_empty());
    prop_assert!(got.per_switch.keys().eq(want.per_switch.keys()));
    let rows: Vec<(OcsId, ReconfigSummary)> =
        got.per_switch.iter().map(|(&id, &r)| (id, r)).collect();
    let by_ref: Vec<(OcsId, ReconfigSummary)> = (&got.per_switch)
        .into_iter()
        .map(|(&id, &r)| (id, r))
        .collect();
    let want_rows: Vec<(OcsId, ReconfigSummary)> = want
        .per_switch
        .iter()
        .map(|(&id, r)| (id, r.summary()))
        .collect();
    prop_assert_eq!(&rows, &want_rows);
    prop_assert_eq!(&by_ref, &want_rows);
    for id in 0..SUPERPOD_OCS_COUNT as OcsId + 2 {
        prop_assert_eq!(
            got.per_switch.contains_key(&id),
            want.per_switch.contains_key(&id)
        );
        prop_assert_eq!(
            got.per_switch.get(&id).copied(),
            want.per_switch.get(&id).map(ReconfigReport::summary)
        );
    }
    Ok(())
}

fn same_outcome<T>(
    got: Result<(T, CommitReport), PodError>,
    want: Result<(T, OracleReport), PodError>,
) -> Result<(), TestCaseError>
where
    T: PartialEq + std::fmt::Debug,
{
    match (got, want) {
        (Ok((g, got)), Ok((w, want))) => {
            prop_assert_eq!(g, w);
            same_report(&got, &want)
        }
        (Err(g), Err(w)) => {
            prop_assert_eq!(g, w);
            Ok(())
        }
        (g, w) => Err(TestCaseError::fail(format!(
            "pod {:?}, oracle {:?}",
            g.map(|(t, _)| t),
            w.map(|(t, _)| t)
        ))),
    }
}

/// Everything the two pods must agree on between calls.
fn same_state(pod: &Superpod, model: &OraclePod) -> Result<(), TestCaseError> {
    prop_assert_eq!(pod.fabric().now(), model.now());
    prop_assert_eq!(pod.idle_set(), model.idle_set());
    prop_assert_eq!(pod.desynced(), model.desynced());
    prop_assert_eq!(
        pod.slices().map(|(h, _)| h).collect::<Vec<_>>(),
        model.handles()
    );
    for id in 0..SUPERPOD_OCS_COUNT as OcsId {
        let (a, b) = (
            pod.fabric().fleet.get(id).expect("48 switches"),
            model.fleet.get(id).expect("48 switches"),
        );
        prop_assert_eq!(a.mapping(), b.mapping(), "switch {}", id);
        prop_assert_eq!(a.health(), b.health(), "switch {}", id);
    }
    prop_assert_eq!(
        pod.settled(),
        pod.fabric().fleet.health().pending == 0,
        "settled() is the census's pending count"
    );
    Ok(())
}

/// Applies one op to both pods and holds them to each other.
fn step(pod: &mut Superpod, model: &mut OraclePod, op: Op) -> Result<(), TestCaseError> {
    match op {
        Op::Compose { .. } => {
            if let Some(slice) = pick_cubes(pod, op) {
                same_outcome(pod.compose(slice.clone()), model.compose(slice))?;
            }
        }
        Op::Release { nth } => {
            let live = model.handles();
            let h = match live.len() {
                0 => SliceHandle(u64::MAX),
                n => live[nth % n],
            };
            same_outcome(
                pod.release(h).map(|r| ((), r)),
                model.release(h).map(|r| ((), r)),
            )?;
        }
        Op::FailFru { ocs, .. } | Op::ReplaceFru { ocs, .. } | Op::WipeSwitch { ocs } => {
            fault(pod.fabric_mut().fleet.get_mut(ocs).expect("48"), op);
            fault(model.fleet.get_mut(ocs).expect("48"), op);
        }
        Op::FailCube(c) => {
            pod.mark_cube_failed(c);
            model.mark_cube_failed(c);
        }
        Op::RepairCube(c) => {
            pod.mark_cube_repaired(c);
            model.mark_cube_repaired(c);
        }
        Op::Resync => {
            let want: Vec<_> = model
                .resync()
                .into_iter()
                .map(|(id, r)| (id, r.map(|r| r.summary())))
                .collect();
            prop_assert_eq!(pod.resync(), want);
        }
        Op::Advance { micros } => {
            pod.advance(Nanos::from_micros(micros));
            model.advance(Nanos::from_micros(micros));
        }
    }
    same_state(pod, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Call by call, the view-committing pod and the delta-building pod
    /// return equal results and stay in equal states on same-seed fleets.
    #[test]
    fn pod_matches_the_reference_under_arbitrary_interleavings(
        seed in 0u64..4096,
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let (mut pod, mut model) = (Superpod::new(seed), OraclePod::new(seed));
        for &op in &ops {
            step(&mut pod, &mut model, op)?;
        }
    }
}

fn slice_of(cubes: Vec<CubeId>, shape_index: usize) -> Slice {
    Slice::new(shape(shape_index), cubes).expect("valid slice")
}

/// A refused transaction leaves nothing behind for the next one: a
/// release that fails after the pod wrote the slice's north ports into its
/// scratch lists, and a compose refused on a degraded port, are each
/// followed by transactions whose reports equal the oracle's.
#[test]
fn refused_transactions_leave_the_scratch_unobservable() {
    let (mut pod, mut model) = (Superpod::new(31), OraclePod::new(31));
    let run = |pod: &mut Superpod, model: &mut OraclePod, op: Op| {
        step(pod, model, op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
    };
    let settle = Op::Advance { micros: 300_000 };
    // An 8-cube slice (all three dimensions) and a 2-cube one (X only).
    let big = slice_of(vec![40, 3, 17, 60, 9, 22, 51, 34], 3);
    let small = slice_of(vec![5, 44], 1);
    let (h_big, _) = pod.compose(big.clone()).expect("idle cubes");
    model.compose(big).expect("idle cubes");
    let (h_small, _) = pod.compose(small.clone()).expect("idle cubes");
    model.compose(small).expect("idle cubes");
    run(&mut pod, &mut model, settle);

    // Y-switch 20 loses its circuits behind the pod's back: releasing the
    // big slice is refused there, after its 8 + 8 + 8 north ports were
    // written to the scratch.
    run(&mut pod, &mut model, Op::WipeSwitch { ocs: 20 });
    let refused = pod
        .release(h_big)
        .expect_err("switch 20 has nothing to remove");
    assert!(
        matches!(
            refused,
            PodError::Fabric(CommitError::Invalid {
                ocs: 20,
                error: OcsError::Crossbar(_)
            })
        ),
        "{refused:?}"
    );
    assert_eq!(model.release(h_big).map(drop), Err(refused));
    same_state(&pod, &model).expect("nothing applied on either side");

    // The small slice's release carries its own two north ports and no
    // trace of the big slice's.
    let got = pod.release(h_small).expect("X switches are intact");
    let want = model.release(h_small).expect("X switches are intact");
    same_report(&got, &want).expect("release after a refused release");
    assert_eq!((got.removed, got.per_switch.len()), (2 * 16, 16));

    // The pod still believes switch 20 carries the big slice, so that
    // release keeps being refused — equally on both sides — until the
    // circuits are back. Put them back by hand (switch 21 carries the
    // same Y mapping) and release for real.
    let pairs: Vec<(u16, u16)> = pod
        .fabric()
        .fleet
        .get(21)
        .expect("48 switches")
        .mapping()
        .pairs()
        .collect();
    for ocs in [pod.fabric_mut().fleet.get_mut(20), model.fleet.get_mut(20)] {
        ocs.expect("48 switches")
            .apply_delta(&pairs, &[])
            .expect("switch 20 is empty and healthy");
    }
    run(&mut pod, &mut model, settle);
    let got = pod.release(h_big).expect("circuits restored");
    let want = model.release(h_big).expect("circuits restored");
    same_report(&got, &want).expect("release after repair");
    assert_eq!(got.removed, 8 * 48);

    // HV driver 0 on X-switch 3 degrades ports 0..34: a compose pinning
    // (5, 44) there is refused, and the compose after it — on healthy
    // ports — reports what the oracle reports.
    run(&mut pod, &mut model, Op::FailFru { ocs: 3, slot: 6 });
    let refused = pod
        .compose(slice_of(vec![5, 44], 1))
        .expect_err("port 5 is degraded");
    assert_eq!(
        refused,
        PodError::Fabric(CommitError::Invalid {
            ocs: 3,
            error: OcsError::PortDegraded(5)
        })
    );
    assert_eq!(
        model.compose(slice_of(vec![5, 44], 1)).map(drop),
        Err(refused)
    );
    same_state(&pod, &model).expect("nothing applied on either side");
    let next = slice_of(vec![44, 50, 47, 61], 2);
    let (_, got) = pod.compose(next.clone()).expect("healthy ports");
    let (_, want) = model.compose(next).expect("healthy ports");
    same_report(&got, &want).expect("compose after a refused compose");
    assert_eq!((got.added, got.per_switch.len()), (4 * 32, 32));
    same_state(&pod, &model).expect("both pods end equal");
}
