//! Deterministic perf guards: allocation counts, not wall clock, so the
//! numbers repeat exactly on any machine (ROADMAP item 2's in-run gate).
//! The admission path:
//!
//! - A `submit` that ends head-of-line blocked behind a queue at its bound
//!   of 256 allocates **nothing**, idle cubes or not: the per-class queue
//!   and the caller's event `Vec` are warm, the idle set is a `CubeSet`
//!   word, and `Pooled` says no before building anything.
//! - A single-cube admission plus the completion that frees it allocates
//!   [`ADMIT_COMPLETE_ALLOCS`] blocks.
//! - A multi-cube admission plus its completion — two fabric transactions
//!   over 16, 32 or 48 switches — allocates [`MULTI_CUBE_ALLOCS`] blocks,
//!   and `Superpod::settled()` none.
//! - `Superpod::advance` allocates **nothing**: not on an idle pod (one
//!   compare), not with all 48 switches mid-alignment, not on the advance
//!   that completes them (the fleet's list of switches in motion is built
//!   with the pod).
//!
//! Construction (DESIGN §6.8, "Matter is lazy"):
//!
//! - `Superpod::new` allocates [`POD_NEW_ALLOCS`] blocks — fewer than the
//!   48 optical cores alone would take, because it fabricates none.
//! - Fleet health on a pod that has composed, released and advanced
//!   allocates fewer blocks than one core's fabrication: it builds none.
//! - The first `insertion_loss` on a switch allocates exactly one core's
//!   blocks, the second nothing, and no other switch's core is built.
//!
//! And the inner-code Monte-Carlo loop (`inner_waterfall_point`, Chase
//! decoding included) allocates **nothing**, however many blocks it runs.
//!
//! The counter is per-thread: the tests cannot add to each other's
//! count.

use lightwave::fec::ConcatenatedCode;
use lightwave::ocs::loss::OpticalCore;
use lightwave::service::{PolicyConfig, Priority, ServiceCore, ServiceEvent, SliceIntent};
use lightwave::superpod::{Slice, SliceShape, Superpod};
use lightwave::units::{Ber, Nanos};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Blocks allocated by one single-cube admit + completion, measured when
/// the per-class-queue core merged (PR 13): the allocator's cube list and
/// the copy of the slice geometry the `Admitted` event carries. The pod's
/// slice map and the core's `running` list reuse their storage.
const ADMIT_COMPLETE_ALLOCS: u64 = 2;

/// Blocks allocated by one admit + completion of an `[8,4,4]`, `[8,8,4]`
/// and `[8,8,8]` request (2, 4 and 8 cubes; 1, 2 and 3 torus dimensions),
/// measured when transactions became borrowed views (PR 16): the two of
/// the single-cube path, one pair list per spanned dimension, and one
/// per-switch table per commit report (compose, release). The owned
/// `FabricDelta` / `BTreeMap`-report path before it averaged 82.5 / 154.3
/// / 239.2 on this same test (81 / 157 / 242 as ISSUE 16 counted them).
const MULTI_CUBE_ALLOCS: [([usize; 3], u64); 3] = [([8, 4, 4], 5), ([8, 8, 4], 6), ([8, 8, 8], 7)];

/// Blocks allocated by `Superpod::new`, measured when the optical core
/// became lazy (PR 21). Eagerly fabricated cores were 22 blocks a switch on
/// top: 338 + 48 × 22 = 1 394.
const POD_NEW_ALLOCS: u64 = 338;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    // `try_with`: a thread tearing down may allocate after its TLS is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations are exactly the ones `System`
// needs; the counter is a const-initialized thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` blocks, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` is a live `System` block of `layout`; `new_size`
        // obeys the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn single_cube(request: u64, hold: Nanos) -> SliceIntent {
    SliceIntent {
        request,
        class: Priority::Inference,
        chips: [4, 4, 4],
        hold,
    }
}

#[test]
fn admission_path_allocation_counts() {
    const STEPS: u64 = 100;
    let forever = Nanos::from_millis(1_000_000_000);
    let mut out = Vec::new();

    // Blocked at depth 256: 63 slices run, the head of the queue wants two
    // cubes and one is idle, 255 more requests wait behind it. Every
    // further arrival is enqueued, finds the head blocked, and leaves.
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(PolicyConfig::default());
    let mut next = 0u64;
    for _ in 0..63 + 256 + 8 {
        out.clear();
        let mut intent = single_cube(next, forever);
        if next == 63 {
            intent.chips = [8, 4, 4];
        }
        core.submit(&mut pod, &intent, &mut out);
        next += 1;
    }
    assert_eq!((core.running().count(), core.queue_depth()), (63, 256));
    assert_eq!(pod.idle_set().len(), 1);
    let blocked = allocations(|| {
        for _ in 0..STEPS {
            out.clear();
            core.submit(&mut pod, &single_cube(next, forever), &mut out);
            next += 1;
        }
    });
    assert!(
        matches!(
            out[..],
            [ServiceEvent::Enqueued { .. }, ServiceEvent::Rejected { .. }]
        ),
        "{out:?}"
    );
    assert_eq!(core.queue_depth(), 256);
    assert_eq!(blocked, 0, "a blocked submit allocates nothing");

    // Admit + complete on the empty-queue path, eight long slices in the
    // background so the pod's slice map is not at the empty/non-empty edge.
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(PolicyConfig {
        queue_limit: 0,
        preemption: false,
    });
    let hold = Nanos::from_millis(1);
    let mut step = |core: &mut ServiceCore, pod: &mut Superpod, hold: Nanos| {
        out.clear();
        let now = pod.fabric().now() + Nanos::from_millis(2);
        core.advance_to(pod, now, &mut out);
        core.submit(pod, &single_cube(next, hold), &mut out);
        next += 1;
    };
    for warm in 0..16 {
        step(&mut core, &mut pod, if warm < 8 { forever } else { hold });
    }
    assert_eq!(core.running().count(), 9);
    let admitted = allocations(|| {
        for _ in 0..STEPS {
            step(&mut core, &mut pod, hold);
        }
    });
    assert_eq!(core.report().completed(), 7 + STEPS);
    assert_eq!(core.report().blocked(), 0);
    assert!(
        admitted <= ADMIT_COMPLETE_ALLOCS * STEPS,
        "{admitted} allocations over {STEPS} admit+complete steps; \
         {ADMIT_COMPLETE_ALLOCS} per step at merge"
    );
}

#[test]
fn multi_cube_admission_allocation_counts() {
    const STEPS: u64 = 50;
    let forever = Nanos::from_millis(1_000_000_000);
    let hold = Nanos::from_millis(1);
    let mut out = Vec::new();
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(PolicyConfig {
        queue_limit: 0,
        preemption: false,
    });
    let mut next = 0u64;
    // 200 ms between requests: the previous one has completed and its
    // circuits have aligned, so every step is one admission, one completion.
    let mut step = |core: &mut ServiceCore, pod: &mut Superpod, chips, hold| {
        out.clear();
        let now = pod.fabric().now() + Nanos::from_millis(200);
        core.advance_to(pod, now, &mut out);
        let intent = SliceIntent {
            request: next,
            class: Priority::Inference,
            chips,
            hold,
        };
        core.submit(pod, &intent, &mut out);
        next += 1;
    };
    // Four long-lived slices in the background, then every shape a few
    // times over so each switch's lists have their capacity.
    for chips in [[8, 8, 8], [8, 8, 4], [8, 4, 4], [4, 4, 4]] {
        step(&mut core, &mut pod, chips, forever);
    }
    for warm in 0..12 {
        step(&mut core, &mut pod, MULTI_CUBE_ALLOCS[warm % 3].0, hold);
    }
    assert_eq!(core.running().count(), 5);
    for (chips, at_merge) in MULTI_CUBE_ALLOCS {
        let admitted = allocations(|| {
            for _ in 0..STEPS {
                step(&mut core, &mut pod, chips, hold);
            }
        });
        assert!(
            admitted <= at_merge * STEPS,
            "{chips:?}: {admitted} allocations over {STEPS} admit+complete steps; \
             {at_merge} per step at merge"
        );
    }
    assert_eq!(core.report().completed(), 11 + 3 * STEPS);
    assert_eq!(core.report().blocked(), 0);

    // `settled()` reads one integer per switch: no census is built, while
    // circuits align (the last admission's) or after.
    let mut settled = [true; 2];
    let allocs = allocations(|| {
        settled[0] = pod.settled();
        pod.advance(Nanos::from_millis(200));
        settled[1] = pod.settled();
    });
    assert_eq!(settled, [false, true]);
    assert_eq!(allocs, 0, "settled() allocates nothing");
}

#[test]
fn pod_advance_allocates_nothing() {
    let tick = Nanos::from_micros(100);
    let ticks = |pod: &mut Superpod| allocations(|| (0..100).for_each(|_| pod.advance(tick)));
    let mut pod = Superpod::new(7);
    let idle = ticks(&mut pod);
    // All 48 switches start aligning; 10 ms on, none has finished.
    let shape = SliceShape::new(8, 8, 8).expect("legal shape");
    pod.compose(Slice::new(shape, (0..8).collect()).expect("eight distinct cubes"))
        .expect("an empty pod has room");
    let in_flight = ticks(&mut pod);
    assert!(!pod.settled());
    assert_eq!(pod.fabric().fleet.health().pending, 8 * 48);
    let completing = allocations(|| pod.advance(Nanos::from_millis(200)));
    assert!(pod.settled());
    assert_eq!([idle, in_flight, completing], [0, 0, 0]);
}

#[test]
fn construction_and_health_fabricate_no_core() {
    let one_core = allocations(|| drop(OpticalCore::fabricate(136, 7)));
    assert!(one_core >= 10, "two dies, four port tables: {one_core}");

    let mut pod = None;
    let new = allocations(|| pod = Some(Superpod::new(7)));
    let mut pod = pod.expect("built");
    assert!(
        new <= POD_NEW_ALLOCS && new < 48 * one_core,
        "Superpod::new allocated {new} blocks; {POD_NEW_ALLOCS} at merge, \
         48 cores alone are {}",
        48 * one_core
    );

    // Every switch carries circuits, drops some, and time passes.
    let shape = SliceShape::new(8, 8, 8).expect("legal shape");
    let (handle, _) = pod
        .compose(Slice::new(shape, (0..8).collect()).expect("eight distinct cubes"))
        .expect("an empty pod has room");
    pod.compose(Slice::new(shape, (8..16).collect()).expect("eight distinct cubes"))
        .expect("room for a second");
    pod.advance(Nanos::from_millis(200));
    pod.release(handle).expect("live slice");
    pod.advance(Nanos::from_millis(200));
    let mut circuits = 0;
    let health = allocations(|| circuits = pod.fabric().fleet.health().circuits);
    assert_eq!(circuits, 8 * 48);
    assert!(
        health < one_core,
        "fleet health allocated {health} blocks, a core is {one_core}: it built one"
    );

    // The first reader of one switch's optics pays for that switch's core.
    let fleet = &pod.fabric().fleet;
    let ocs = fleet.get(20).expect("48 switches");
    let (north, _) = ocs.mapping().pairs().next().expect("carries circuits");
    let first = allocations(|| assert!(ocs.insertion_loss(north).is_some()));
    let second = allocations(|| assert!(ocs.insertion_loss(north).is_some()));
    assert_eq!([first, second], [one_core, 0]);
    let after = allocations(|| drop(fleet.health()));
    assert_eq!(after, health, "reading one core built no other");
}

#[test]
fn inner_waterfall_point_allocates_nothing() {
    let code = ConcatenatedCode::default();
    let mut errors = 0;
    let allocs = allocations(|| {
        errors = code.inner_waterfall_point(Ber::new(5e-3), 200, 1).errors;
    });
    assert!(errors > 0, "5e-3 is dirty enough that Chase has work to do");
    assert_eq!(allocs, 0, "200 blocks of encode, channel, Chase decode");
}
