//! Stateful model test of the admission path (ROADMAP item 5d).
//!
//! `ServiceCore` runs on per-class FIFO queues, a completion-ordered
//! `running` list and the pod's `CubeSet`; `oracle::OracleCore` is the
//! implementation it replaced — one `Vec` queue scanned in full, the idle
//! set rebuilt as a `BTreeSet` per pass — kept verbatim as the reference.
//! Driven through the same arbitrary interleaving of submits, clock
//! advances, drains, cube failures and switch faults on twin same-seed
//! pods, the two must emit the same events call by call, hold the same
//! report, list the same running requests in the same order and leave the
//! pods in the same state.
//!
//! The same file holds the `CubeSet`-vs-`BTreeSet` model checks the
//! rewrite rests on: set operations, both allocators over either
//! representation, and `Slice::new`'s first-offender errors.

#[path = "oracle/service_core.rs"]
mod oracle;

use lightwave::fabric::OcsId;
use lightwave::ocs::{PalomarOcs, PortId};
use lightwave::scheduler::{Allocator, Contiguous, Pooled};
use lightwave::service::{
    arrival, chips_for_cubes, Mix, PolicyConfig, Priority, ServiceCore, ServiceEvent, SliceIntent,
};
use lightwave::superpod::slice::SliceError;
use lightwave::superpod::wiring::SUPERPOD_OCS_COUNT;
use lightwave::superpod::{CubeId, CubeList, CubeSet, Slice, SliceShape, Superpod};
use lightwave::units::Nanos;
use oracle::OracleCore;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Where a submitted intent's content comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// `arrival(seed, k, Mix::Production)`: all classes, 1–8 cubes,
    /// the stream's own malformed intents.
    Production,
    /// `arrival(seed, k, Mix::SingleCube)`.
    SingleCube,
    /// Hand-rolled: any class, any row of [`FREE_CHIPS`] (legal, large,
    /// malformed), any hold including zero.
    Free {
        class: usize,
        chips: usize,
        hold_ms: u64,
    },
}

/// Chip dimensions for [`Source::Free`]: the menu, pod-filling shapes,
/// and three that validation must refuse.
const FREE_CHIPS: [[usize; 3]; 9] = [
    [4, 4, 4],
    [8, 4, 4],
    [8, 8, 4],
    [8, 8, 8],
    [16, 16, 8],
    [16, 16, 16],
    [6, 4, 4],
    [0, 4, 4],
    [16, 16, 32],
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit(Source),
    Advance {
        micros: u64,
    },
    Drain,
    /// Ids past 63 name no cube; the pod must ignore them.
    FailCube(CubeId),
    RepairCube(CubeId),
    /// HV-driver slots degrade ports (compose refused), CPU/FPGA slots
    /// down the chassis (switch skipped, desynced).
    FailFru {
        ocs: OcsId,
        slot: usize,
    },
    ReplaceFru {
        ocs: OcsId,
        slot: usize,
    },
    /// Every circuit on one switch torn down behind the pod's back: the
    /// next release touching it is refused (`NotConnected`).
    WipeSwitch {
        ocs: OcsId,
    },
    Resync,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ocs = || 0..SUPERPOD_OCS_COUNT as OcsId;
    let free = || {
        (0usize..3, 0..FREE_CHIPS.len(), 0u64..400).prop_map(|(class, chips, hold_ms)| {
            Op::Submit(Source::Free {
                class,
                chips,
                hold_ms,
            })
        })
    };
    prop_oneof![
        Just(Op::Submit(Source::Production)),
        Just(Op::Submit(Source::Production)),
        Just(Op::Submit(Source::SingleCube)),
        free(),
        free(),
        (1u64..200_000).prop_map(|micros| Op::Advance { micros }),
        (1u64..2_000).prop_map(|micros| Op::Advance { micros }),
        Just(Op::Drain),
        (0u8..70).prop_map(Op::FailCube),
        (0u8..70).prop_map(Op::RepairCube),
        (ocs(), 0usize..16).prop_map(|(ocs, slot)| Op::FailFru { ocs, slot }),
        (ocs(), 0usize..16).prop_map(|(ocs, slot)| Op::ReplaceFru { ocs, slot }),
        ocs().prop_map(|ocs| Op::WipeSwitch { ocs }),
        Just(Op::Resync),
    ]
}

fn intent_for(source: Source, seed: u64, k: u64, request: u64) -> SliceIntent {
    let mut intent = match source {
        Source::Production => arrival(seed, k, Mix::Production).intent,
        Source::SingleCube => arrival(seed, k, Mix::SingleCube).intent,
        Source::Free {
            class,
            chips,
            hold_ms,
        } => SliceIntent {
            request,
            class: Priority::ALL[class],
            chips: FREE_CHIPS[chips],
            hold: Nanos::from_millis(hold_ms),
        },
    };
    intent.request = request;
    intent
}

/// A pod-side fault, applied identically to both twins.
fn fault(pod: &mut Superpod, op: Op) {
    fn switch(pod: &mut Superpod, ocs: OcsId) -> &mut PalomarOcs {
        pod.fabric_mut().fleet.get_mut(ocs).expect("48 switches")
    }
    match op {
        Op::FailCube(c) => pod.mark_cube_failed(c),
        Op::RepairCube(c) => pod.mark_cube_repaired(c),
        Op::FailFru { ocs, slot } => switch(pod, ocs).fail_fru(slot).expect("16 slots"),
        Op::ReplaceFru { ocs, slot } => switch(pod, ocs).replace_fru(slot).expect("16 slots"),
        Op::WipeSwitch { ocs } => {
            // A delta that tears every circuit down. Refused on a down
            // chassis; then it is not a fault either.
            let ocs = switch(pod, ocs);
            let every: Vec<PortId> = ocs.mapping().pairs().map(|(n, _)| n).collect();
            let _ = ocs.apply_delta(&[], &every);
        }
        Op::Resync => {
            let _ = pod.resync();
        }
        Op::Submit(_) | Op::Advance { .. } | Op::Drain => unreachable!("core ops"),
    }
}

/// Everything the two cores and their pods must agree on between calls.
fn check_twins(
    core: &ServiceCore,
    pod: &Superpod,
    model: &OracleCore,
    model_pod: &Superpod,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(core.report(), model.report());
    // The core keeps no clock: the pod's fabric time is the only one, and
    // it is where the reference's own stored clock says it should be.
    prop_assert_eq!(pod.fabric().now(), model.now());
    prop_assert_eq!(model_pod.fabric().now(), model.now());
    prop_assert_eq!(core.queue_depth(), model.queue_depth());
    // The same requests in the same order: latest completion first.
    prop_assert_eq!(core.running().collect::<Vec<_>>(), model.running());
    prop_assert_eq!(core.conservation(), Ok(()));
    prop_assert_eq!(model.conservation(), Ok(()));
    prop_assert_eq!(pod.idle_cubes(), model_pod.idle_cubes());
    prop_assert_eq!(
        pod.idle_set(),
        pod.idle_cubes().into_iter().collect::<CubeSet>()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Call by call, the production core and the reference core emit equal
    /// event vectors and stay in equal states on twin pods.
    #[test]
    fn core_matches_the_reference_under_arbitrary_interleavings(
        seed in 0u64..4096,
        limit in 0usize..3,
        preemption in 0u8..2,
        // Indices are `k ^ scramble`: unique, but not ascending.
        scramble in 0u64..8,
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let cfg = PolicyConfig {
            queue_limit: [0, 4, 256][limit],
            preemption: preemption == 1,
        };
        let (mut core, mut model) = (ServiceCore::new(cfg), OracleCore::new(cfg));
        let (mut pod, mut model_pod) = (Superpod::new(seed), Superpod::new(seed));
        let (mut out, mut model_out) = (Vec::new(), Vec::new());
        let mut submitted = 0u64;
        for &op in &ops {
            out.clear();
            model_out.clear();
            match op {
                Op::Submit(source) => {
                    let intent = intent_for(source, seed, submitted, submitted ^ scramble);
                    submitted += 1;
                    core.submit(&mut pod, &intent, &mut out);
                    model.submit(&mut model_pod, &intent, &mut model_out);
                }
                Op::Advance { micros } => {
                    let to = pod.fabric().now() + Nanos(micros * 1_000);
                    core.advance_to(&mut pod, to, &mut out);
                    model.advance_to(&mut model_pod, to, &mut model_out);
                }
                Op::Drain => {
                    let end = core.drain(&mut pod, &mut out);
                    prop_assert_eq!(end, model.drain(&mut model_pod, &mut model_out));
                }
                other => {
                    fault(&mut pod, other);
                    fault(&mut model_pod, other);
                }
            }
            prop_assert_eq!(&out, &model_out, "events diverged at {:?}", op);
            check_twins(&core, &pod, &model, &model_pod)?;
        }
        out.clear();
        model_out.clear();
        core.drain(&mut pod, &mut out);
        model.drain(&mut model_pod, &mut model_out);
        prop_assert_eq!(&out, &model_out, "final drain diverged");
        check_twins(&core, &pod, &model, &model_pod)?;
    }

    /// Arbitrary insert/remove sequences: `CubeSet` is a `BTreeSet` of
    /// the ids below 64, and ignores the rest.
    #[test]
    fn cube_set_matches_the_btreeset_model(
        ops in proptest::collection::vec((0u8..2, any::<u8>()), 0..200),
    ) {
        let mut set = CubeSet::EMPTY;
        let mut model: BTreeSet<CubeId> = BTreeSet::new();
        for &(insert, cube) in &ops {
            let in_pod = cube < 64;
            if insert == 1 {
                prop_assert_eq!(set.insert(cube), in_pod && model.insert(cube));
            } else {
                prop_assert_eq!(set.remove(cube), model.remove(&cube));
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.contains(cube), model.contains(&cube));
            prop_assert!(set.iter().eq(model.iter().copied()), "ascending iteration");
            prop_assert_eq!(set, CubeSet::from(&model));
        }
    }

    /// Either representation of the idle set, same allocation — for both
    /// disciplines and every shape the service or the scheduler asks for.
    #[test]
    fn allocators_agree_across_idle_set_representations(
        idle in proptest::collection::vec(0u8..64, 0..64),
    ) {
        let model: BTreeSet<CubeId> = idle.into_iter().collect();
        let set = CubeSet::from(&model);
        let shapes = [1, 2, 4, 8]
            .map(chips_for_cubes)
            .into_iter()
            .chain([[12, 4, 4], [16, 8, 8], [16, 16, 4], [16, 16, 16], [4, 4, 256]]);
        for [a, b, c] in shapes {
            let shape = SliceShape::new(a, b, c).expect("legal shape");
            let pooled = Pooled.allocate(shape, set);
            prop_assert_eq!(&pooled, &Pooled.allocate(shape, &model));
            // Pooling is a count, not a search: the lowest idle ids.
            let lowest = model.iter().copied().take(shape.cube_count()).collect::<CubeList>();
            prop_assert_eq!(pooled, (lowest.len() == shape.cube_count()).then_some(lowest));
            let boxed = Contiguous.allocate(shape, set);
            prop_assert_eq!(&boxed, &Contiguous.allocate(shape, &model));
            if let Some(cubes) = boxed {
                prop_assert!(cubes.iter().all(|c| model.contains(c)));
                prop_assert!(Slice::new(shape, cubes).is_ok());
            }
        }
    }
}

/// `Slice::new` names the first offending cube, range before duplicate —
/// the errors the `BTreeSet`-backed check returned for these lists.
#[test]
fn slice_new_reports_the_same_first_offender() {
    let pair = SliceShape::new(8, 4, 4).expect("2 cubes");
    let quad = SliceShape::new(16, 4, 4).expect("4 cubes");
    let golden: [(SliceShape, Vec<CubeId>, SliceError); 6] = [
        (
            pair,
            vec![0],
            SliceError::WrongCubeCount { got: 1, need: 2 },
        ),
        (pair, vec![63, 63], SliceError::DuplicateCube(63)),
        (pair, vec![0, 99], SliceError::BadCube(99)),
        (pair, vec![64, 64], SliceError::BadCube(64)),
        (quad, vec![5, 7, 5, 200], SliceError::DuplicateCube(5)),
        (quad, vec![3, 200, 3, 3], SliceError::BadCube(200)),
    ];
    for (shape, cubes, expect) in golden {
        assert_eq!(Slice::new(shape, cubes.clone()), Err(expect), "{cubes:?}");
    }
    assert!(Slice::new(quad, vec![63, 0, 17, 40]).is_ok());
}

/// The re-queue rule: a preempted victim goes back to its own index in
/// its class queue — ahead of later arrivals of that class — and serves
/// its full hold again once re-admitted.
#[test]
fn preempted_victim_regains_its_fifo_slot_and_restarts_its_hold() {
    let half_pod = [16, 16, 8]; // 32 cubes
    let hold = Nanos::from_millis(100);
    let training = |request| SliceIntent {
        request,
        class: Priority::Training,
        chips: half_pod,
        hold,
    };
    let mut core = ServiceCore::new(PolicyConfig::default());
    let mut pod = Superpod::new(0x5EED);
    let mut events = Vec::new();

    // Two training slices fill the pod, 11 the younger; 12 queues.
    core.submit(&mut pod, &training(10), &mut events);
    core.advance_to(&mut pod, Nanos::from_millis(1), &mut events);
    core.submit(&mut pod, &training(11), &mut events);
    core.advance_to(&mut pod, Nanos::from_millis(2), &mut events);
    core.submit(&mut pod, &training(12), &mut events);
    assert_eq!((core.running().count(), core.queue_depth()), (2, 1));

    // An inference request for half the pod evicts the youngest, 11.
    let urgent = SliceIntent {
        request: 13,
        class: Priority::Inference,
        chips: half_pod,
        hold: Nanos::from_millis(10),
    };
    events.clear();
    core.submit(&mut pod, &urgent, &mut events);
    assert!(
        matches!(
            events[..],
            [
                ServiceEvent::Enqueued { request: 13, .. },
                ServiceEvent::Preempted {
                    request: 11,
                    victim_of: 13,
                    ..
                },
                ServiceEvent::Admitted { request: 13, .. },
            ]
        ),
        "{events:?}"
    );
    assert_eq!(core.queue_depth(), 2, "11 and 12 wait");

    events.clear();
    core.drain(&mut pod, &mut events);
    let admitted: Vec<(u64, Nanos)> = events
        .iter()
        .filter_map(|e| match e {
            ServiceEvent::Admitted { request, at, .. } => Some((*request, *at)),
            _ => None,
        })
        .collect();
    assert_eq!(
        admitted.iter().map(|a| a.0).collect::<Vec<_>>(),
        [11, 12],
        "the victim's original index outranks the later arrival"
    );
    let completed_11 = events
        .iter()
        .find_map(|e| match e {
            ServiceEvent::Completed {
                request: 11, at, ..
            } => Some(*at),
            _ => None,
        })
        .expect("11 completes");
    assert!(
        completed_11 >= admitted[0].1 + hold,
        "re-admitted at {:?}, done at {completed_11:?}: the hold restarts in full",
        admitted[0].1
    );
    assert_eq!(
        core.report().classes[Priority::Training.rank()].preempted,
        1
    );
    assert_eq!(core.report().completed(), 4);
    assert_eq!(core.conservation(), Ok(()));
    assert_eq!(pod.idle_set(), CubeSet::ALL);
}

/// The one-clock rule (DESIGN §6.5): the core stores no time, so a caller
/// that ticks the pod between calls has moved the only clock there is —
/// the next stamp reads it, and asking for an earlier time changes nothing.
#[test]
fn a_pod_ticked_behind_the_cores_back_still_has_one_clock() {
    let ms = Nanos::from_millis;
    let mut core = ServiceCore::new(PolicyConfig::default());
    let mut pod = Superpod::new(0x5EED);
    let mut events = Vec::new();
    core.advance_to(&mut pod, ms(5), &mut events);
    pod.advance(ms(7));
    let intent = SliceIntent {
        request: 0,
        class: Priority::Training,
        chips: [4, 4, 4],
        hold: ms(1),
    };
    core.submit(&mut pod, &intent, &mut events);
    core.advance_to(&mut pod, ms(6), &mut events);
    assert_eq!(pod.fabric().now(), ms(12), "never backwards");
    assert_eq!(core.drain(&mut pod, &mut events), pod.fabric().now());
    let stamps: Vec<Nanos> = events
        .iter()
        .map(|e| match e {
            ServiceEvent::Enqueued { at, .. }
            | ServiceEvent::Admitted { at, .. }
            | ServiceEvent::Completed { at, .. }
            | ServiceEvent::Rejected { at, .. }
            | ServiceEvent::Preempted { at, .. } => *at,
        })
        .collect();
    assert_eq!(stamps, [ms(12), ms(12), ms(13)]);
    assert_eq!(core.report().horizon, ms(13));
}

/// The victim rule's other edge: a head that cannot fit, with only its
/// own class and a higher one serving, evicts nobody — preemption takes
/// strictly lower classes only — and waits for a completion instead.
/// (The head needs more than its own class holds, so a rule that took
/// same-class victims evicts one and stops, rather than trading the cubes
/// back and forth.)
#[test]
fn a_head_with_no_lower_class_serving_preempts_nobody() {
    let ms = Nanos::from_millis;
    let intent = |request, class, chips, hold| SliceIntent {
        request,
        class,
        chips,
        hold: ms(hold),
    };
    let mut core = ServiceCore::new(PolicyConfig::default());
    let mut pod = Superpod::new(0x5EED);
    let mut events = Vec::new();
    let inference = intent(1, Priority::Inference, [16, 16, 12], 50); // 48 cubes
    core.submit(&mut pod, &inference, &mut events);
    let training = intent(2, Priority::Training, [8, 8, 8], 100); // 8 cubes
    core.submit(&mut pod, &training, &mut events);
    assert_eq!(pod.idle_set().len(), 8);

    events.clear();
    let head = intent(3, Priority::Training, [16, 16, 8], 10); // 32 cubes
    core.submit(&mut pod, &head, &mut events);
    assert!(
        matches!(events[..], [ServiceEvent::Enqueued { request: 3, .. }]),
        "{events:?}"
    );
    assert_eq!(
        core.running()
            .map(|(request, _, _)| request)
            .collect::<Vec<_>>(),
        [2, 1],
        "latest completion first"
    );
    assert_eq!(core.queue_depth(), 1);

    // The inference slice completes first and the head takes its cubes.
    events.clear();
    core.drain(&mut pod, &mut events);
    let admitted: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ServiceEvent::Admitted { request, .. } => Some(*request),
            ServiceEvent::Preempted { request, .. } => panic!("{request} preempted"),
            _ => None,
        })
        .collect();
    assert_eq!(admitted, [3]);
    assert_eq!(core.report().completed(), 3);
    assert_eq!(core.conservation(), Ok(()));
}

/// Completion order is `(ends_at, index)`: two slices that end at the same
/// instant complete in index order, whichever slots they hold, and a later
/// end waits however small its index.
#[test]
fn a_shared_end_completes_in_index_order() {
    let ms = Nanos::from_millis;
    let single = |request, hold| SliceIntent {
        request,
        class: Priority::Training,
        chips: [4, 4, 4],
        hold: ms(hold),
    };
    let cfg = PolicyConfig::default();
    let (mut core, mut model) = (ServiceCore::new(cfg), OracleCore::new(cfg));
    let (mut pod, mut model_pod) = (Superpod::new(0x5EED), Superpod::new(0x5EED));
    let (mut events, mut model_events) = (Vec::new(), Vec::new());
    // 9 serves in slot 0 and 4 in slot 1, both until 10 ms; 2 until 20 ms.
    for intent in [single(9, 10), single(4, 10), single(2, 20)] {
        core.submit(&mut pod, &intent, &mut events);
        model.submit(&mut model_pod, &intent, &mut model_events);
    }
    assert_eq!(
        core.running()
            .map(|(request, _, _)| request)
            .collect::<Vec<_>>(),
        [2, 9, 4],
        "latest completion first"
    );
    assert_eq!(core.running().collect::<Vec<_>>(), model.running());
    events.clear();
    model_events.clear();
    core.drain(&mut pod, &mut events);
    model.drain(&mut model_pod, &mut model_events);
    assert_eq!(events, model_events);
    let completed: Vec<(u64, Nanos)> = events
        .iter()
        .filter_map(|e| match e {
            ServiceEvent::Completed { request, at, .. } => Some((*request, *at)),
            _ => None,
        })
        .collect();
    assert_eq!(completed, [(4, ms(10)), (9, ms(10)), (2, ms(20))]);
}
