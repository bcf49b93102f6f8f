//! Deterministic perf guards: allocation counts, not wall clock, so the
//! numbers repeat exactly on any machine (ROADMAP item 2's in-run gate).
//! The admission path:
//!
//! - A `submit` that ends head-of-line blocked behind a queue at its bound
//!   of 256 allocates **nothing**, idle cubes or not: the per-class queue
//!   and the caller's event `Vec` are warm, the idle set is a `CubeSet`
//!   word, and `Pooled` says no before building anything.
//! - A single-cube admission plus the completion that frees it allocates
//!   exactly [`ADMIT_COMPLETE_ALLOCS`] blocks of at most
//!   [`ADMIT_COMPLETE_BYTES`] bytes between them: nothing.
//! - A multi-cube admission plus its completion — two fabric transactions
//!   over 16, 32 or 48 switches — allocates [`MULTI_CUBE_ALLOCS`] blocks
//!   once the pod has served one such pair: nothing, since each commit
//!   report holds a table the fleet recycles. The first pair on a fresh
//!   pod allocates exactly [`MULTI_CUBE_COLD_ALLOCS`]. `Superpod::settled()`
//!   allocates nothing.
//! - A warm cell serving the production mix allocates as many blocks over
//!   2 000 requests as over their first 200: nothing per request.
//! - A slice's cube list is a value (DESIGN §6.6, "Cube lists are
//!   values"): cloning a slice of 22 cubes allocates nothing, one of 23
//!   exactly the one block its boxed ids take.
//! - `ClusterSim::run` allocates as many blocks over 800 h as over 200 h:
//!   its tables reach their length early, and a placed job allocates
//!   nothing.
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
//! The Fig. 13 census (DESIGN §6.8, "The census allocates per shard")
//! allocates [`CENSUS_SHARD_ALLOCS`] blocks a shard and nothing a port,
//! at any port count and in every module family, and a WDM lane is read
//! without a block.
//!
//! And the inner-code Monte-Carlo loop (`inner_waterfall_point`, Chase
//! decoding included) allocates **nothing**, however many blocks it runs.
//!
//! The counter is per-thread: the tests cannot add to each other's
//! count.

use lightwave::fec::ConcatenatedCode;
use lightwave::ocs::loss::OpticalCore;
use lightwave::optics::wdm::WdmGrid;
use lightwave::par::Pool;
use lightwave::scheduler::sim::default_mix;
use lightwave::scheduler::{ClusterSim, Contiguous, Pooled};
use lightwave::service::{
    arrival, PolicyConfig, Priority, ServiceConfig, ServiceCore, ServiceEvent, SliceIntent,
};
use lightwave::superpod::{CubeList, Slice, SliceShape, Superpod};
use lightwave::transceiver::fleet::fleet_census;
use lightwave::transceiver::module::ModuleFamily;
use lightwave::units::{Ber, Nanos};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Blocks allocated by one single-cube admit + completion: none. The
/// allocator's pick, the pod's slice and the copy the `Admitted` event
/// carries each hold the cube inline (DESIGN §6.6, "Cube lists are
/// values"), and the pod's live-slice table and the core's running table
/// are slot tables that reuse their slots ("Sized to the pod"). While the
/// cube list was a `Vec` it was 2: the allocator's list and the event's
/// copy.
const ADMIT_COMPLETE_ALLOCS: u64 = 0;

/// Bytes those blocks ask for, together: none. A collected byte `Vec` of
/// 8 and the event's one-byte copy made 9; while the pod kept its live
/// slices in a `BTreeMap`, slices completing out of handle order made its
/// ≈ 1.4 KB nodes come and go, and lwbench's `single_loss` read 210.7
/// bytes a request.
const ADMIT_COMPLETE_BYTES: u64 = 0;

/// Blocks allocated by one admit + completion of an `[8,4,4]`, `[8,8,4]`
/// and `[8,8,8]` request (2, 4 and 8 cubes; 1, 2 and 3 torus dimensions)
/// once the pod has served one such pair: none. Each commit report holds
/// a table the fleet recycles (DESIGN §6.6, "A report is a value"), and
/// by the next pair both of this pair's are free again; the pod's pair
/// and north-port lists are scratch it reuses. While each report owned
/// its rows it was 2 (one `Vec` a report); with `Vec` cube lists and a
/// pair list per spanned dimension kept per slice 5 / 6 / 7; and the
/// owned `FabricDelta` / `BTreeMap`-report path before transactions
/// became borrowed views averaged 82.5 / 154.3 / 239.2.
const MULTI_CUBE_ALLOCS: [([usize; 3], u64); 3] = [([8, 4, 4], 0), ([8, 8, 4], 0), ([8, 8, 8], 0)];

/// Blocks the first such pair allocates on a fresh pod and core, by
/// shape: the touched switches' own lists at their first circuits, and
/// the pod's, the core's and the caller's tables at their first use,
/// with the fleet's two transaction tables (three blocks each: the
/// `Arc`, its ids, its runs), the list that pools them, and the fleet's
/// run buffers and member list. 63 / 113 / 214 while every touched
/// switch copied its delta into two `Vec`s of its own; a run of switches
/// now shares one copy (DESIGN §6.6, "A run of switches checks its
/// shared delta once").
const MULTI_CUBE_COLD_ALLOCS: [u64; 3] = [35, 54, 124];

/// Production-mix requests a cell serves before its allocations are
/// counted: two fifths of a `prod_steady` rep. What a warm cell still
/// allocates is growth to a new high-water mark — a batch holding more
/// reports than any before takes one more table, a switch with more
/// circuits aligning at once than ever grows its pending list, a table
/// first holding more runs grows them — and that grows rarer as the cell
/// runs: at this seed 46 requests of the first 1 000 allocate, 18 of
/// the next 9 000, 1 of the next 10 000 and none of the 2 000 after.
const WARM_CELL_REQUESTS: u64 = 20_000;

/// Blocks allocated by `Superpod::new`, measured when the optical core
/// became lazy (PR 21). Eagerly fabricated cores were 22 blocks a switch on
/// top: 338 + 48 × 22 = 1 394. All 338 are the fleet's: the live-slice
/// table starts empty and grows at the first compose.
const POD_NEW_ALLOCS: u64 = 338;

/// Blocks a census shard allocates, on a pool of one worker: its link's
/// component buffer, the MPI scratch's `(T_i, r_i)` and ratio buffers, and
/// its sample `Vec`, each at its exact size once. A port allocates
/// nothing. While every port built its own component `Vec`, `MpiBudget`
/// (the fold and the sorted list) and lane and report `Vec`s it was 5 a
/// port, and a full shard's samples grew by doubling: 85 a shard.
const CENSUS_SHARD_ALLOCS: u64 = 4;

/// Blocks a census allocates besides its shards': the pool's shard plan,
/// result slots and busy counters, and the margin list the median is
/// selected from.
const CENSUS_FIXED_ALLOCS: u64 = 4;

/// What a census of `shards` shards allocates. Past one shard the merge
/// reserves the whole census once. The pool's caller folds the results
/// straight out of their slots; while the pool collected the slots into
/// the results in place, it shrank the block whenever the slots' bytes
/// were not a whole number of results (40 bytes a slot against 32 a
/// result): one block more unless the shard count divided by four.
fn census_allocs(shards: usize) -> u64 {
    let merge = u64::from(shards > 1);
    CENSUS_FIXED_ALLOCS + merge + CENSUS_SHARD_ALLOCS * shards as u64
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count(bytes: usize) {
    // `try_with`: a thread tearing down may allocate after its TLS is gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations are exactly the ones `System`
// needs; the counter is a const-initialized thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` blocks, with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` is a live `System` block of `layout`; `new_size`
        // obeys the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    allocations_and_bytes(f).0
}

/// Allocations `f` performs on this thread, and the bytes they ask for.
fn allocations_and_bytes(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
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

    // Admit + complete on the empty-queue path: an arrival every 2 ms,
    // holds spread over 1–80 ms, so about 20 slices are live and they
    // complete in an order that has nothing to do with their handles.
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(PolicyConfig {
        queue_limit: 0,
        preemption: false,
    });
    let mut step = |core: &mut ServiceCore, pod: &mut Superpod| {
        out.clear();
        let now = pod.fabric().now() + Nanos::from_millis(2);
        core.advance_to(pod, now, &mut out);
        let hold = Nanos::from_millis(1 + next * 37 % 80);
        core.submit(pod, &single_cube(next, hold), &mut out);
        next += 1;
    };
    // Two periods of the hold pattern: the tables reach their length.
    for _ in 0..160 {
        step(&mut core, &mut pod);
    }
    let before = core.report().completed();
    let (admitted, bytes) = allocations_and_bytes(|| {
        for _ in 0..STEPS {
            step(&mut core, &mut pod);
        }
    });
    assert!(core.report().completed() - before > STEPS / 2);
    assert_eq!(core.report().blocked(), 0);
    assert_eq!(
        admitted,
        ADMIT_COMPLETE_ALLOCS * STEPS,
        "allocations over {STEPS} admit+complete steps; {ADMIT_COMPLETE_ALLOCS} per step"
    );
    assert_eq!(
        bytes,
        ADMIT_COMPLETE_BYTES * STEPS,
        "bytes over {STEPS} admit+complete steps; {ADMIT_COMPLETE_BYTES} per step"
    );
}

#[test]
fn multi_cube_admission_allocation_counts() {
    const STEPS: u64 = 50;
    let hold = Nanos::from_millis(1);
    let mut last = None;
    for ((chips, warm), cold) in MULTI_CUBE_ALLOCS.into_iter().zip(MULTI_CUBE_COLD_ALLOCS) {
        let mut pod = Superpod::new(7);
        let mut core = ServiceCore::new(PolicyConfig {
            queue_limit: 0,
            preemption: false,
        });
        let mut out = Vec::new();
        let mut next = 0u64;
        // One admission, then 200 ms: the slice completes and its circuits
        // are torn down. Both reports stay in `out` until the next pair.
        let mut pair = |core: &mut ServiceCore, pod: &mut Superpod| {
            out.clear();
            let intent = SliceIntent {
                request: next,
                class: Priority::Inference,
                chips,
                hold,
            };
            core.submit(pod, &intent, &mut out);
            let now = pod.fabric().now() + Nanos::from_millis(200);
            core.advance_to(pod, now, &mut out);
            next += 1;
        };
        let first = allocations(|| pair(&mut core, &mut pod));
        let warmed = allocations(|| {
            for _ in 0..STEPS {
                pair(&mut core, &mut pod);
            }
        });
        assert_eq!(
            (first, warmed),
            (cold, warm * STEPS),
            "{chips:?}: allocations of the first admit+complete pair, then of \
             {STEPS} more; {cold} and {warm} per pair at merge"
        );
        assert_eq!(core.report().completed(), 1 + STEPS);
        assert_eq!(core.report().blocked(), 0);
        last = Some(pod);
    }

    // `settled()` reads one integer per switch: no census is built, while
    // circuits align (a fresh admission's) or after.
    let mut pod = last.expect("three shapes ran");
    let shape = SliceShape::new(8, 8, 8).expect("legal shape");
    pod.compose(Slice::new(shape, (0..8).collect::<CubeList>()).expect("eight distinct cubes"))
        .expect("an idle pod has room");
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
fn a_warm_production_cell_allocates_nothing_per_request() {
    // The production mix (1- to 64-cube slices, every policy path) on one
    // cell, driven the way `run_cell_with` drives it. Once its tables have
    // reached their length, what 2 000 requests allocate is what their
    // first 200 did: the growth, nothing per request.
    let cfg = ServiceConfig::default();
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(cfg.policy);
    let mut events = Vec::new();
    let mut now = Nanos(0);
    let mut serve = |requests: std::ops::Range<u64>| {
        for i in requests {
            let a = arrival(cfg.seed, i, cfg.mix);
            now += cfg.scaled_gap(a.gap_unit_micros);
            core.advance_to(&mut pod, now, &mut events);
            core.submit(&mut pod, &a.intent, &mut events);
            events.clear();
        }
    };
    serve(0..WARM_CELL_REQUESTS);
    let first = allocations(|| serve(WARM_CELL_REQUESTS..WARM_CELL_REQUESTS + 200));
    let rest = allocations(|| serve(WARM_CELL_REQUESTS + 200..WARM_CELL_REQUESTS + 2_000));
    assert_eq!(
        first + rest,
        first,
        "2 000 requests against their first 200"
    );
    assert!(core.report().completed() > 1_500);
}

#[test]
fn pod_advance_allocates_nothing() {
    let tick = Nanos(100_000);
    let ticks = |pod: &mut Superpod| allocations(|| (0..100).for_each(|_| pod.advance(tick)));
    let mut pod = Superpod::new(7);
    let idle = ticks(&mut pod);
    // All 48 switches start aligning; 10 ms on, none has finished.
    let shape = SliceShape::new(8, 8, 8).expect("legal shape");
    pod.compose(Slice::new(shape, (0..8).collect::<CubeList>()).expect("eight distinct cubes"))
        .expect("an empty pod has room");
    let in_flight = ticks(&mut pod);
    assert!(!pod.settled());
    assert_eq!(pod.fabric().fleet.health().pending, 8 * 48);
    let completing = allocations(|| pod.advance(Nanos::from_millis(200)));
    assert!(pod.settled());
    assert_eq!([idle, in_flight, completing], [0, 0, 0]);
}

#[test]
fn a_slice_of_up_to_22_cubes_clones_without_a_block() {
    // 22 = 2 × 11 and 23 are cube grids [2, 11, 1] and [1, 23, 1].
    for (chips, blocks) in [([4, 4, 4], 0), ([8, 44, 4], 0), ([4, 92, 4], 1)] {
        let shape = SliceShape::new(chips[0], chips[1], chips[2]).expect("legal shape");
        let cubes = (0..shape.cube_count() as u8).collect::<CubeList>();
        let slice = Slice::new(shape, cubes).expect("distinct cubes");
        let mut copy = None;
        assert_eq!(
            allocations(|| copy = Some(slice.clone())),
            blocks,
            "{} cubes",
            shape.cube_count()
        );
        assert_eq!(copy.as_ref(), Some(&slice));
    }
}

#[test]
fn cluster_sim_allocates_nothing_per_placed_job() {
    // A loaded cluster: hundreds of placements between 200 h and 800 h,
    // while at this seed its release list and queue reach, by 200 h, the
    // longest they will be. What a run allocates is their growth, nothing
    // per job: a handful of blocks either way.
    let sim = ClusterSim::new(default_mix(), 1.0);
    let (short, long, seed) = (200.0, 800.0, 1);
    let pooled = [short, long].map(|h| {
        allocations(|| {
            sim.run(&Pooled, h, seed);
        })
    });
    let contiguous = [short, long].map(|h| {
        allocations(|| {
            sim.run(&Contiguous, h, seed);
        })
    });
    let placed = sim.run(&Pooled, long, seed).completed - sim.run(&Pooled, short, seed).completed;
    assert!(placed > 300, "{placed} jobs placed in between");
    assert_eq!(pooled[0], pooled[1], "pooled: {pooled:?}");
    assert_eq!(contiguous[0], contiguous[1], "contiguous: {contiguous:?}");
    assert!(
        pooled[1].max(contiguous[1]) <= 6,
        "{pooled:?} {contiguous:?}"
    );
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
        .compose(Slice::new(shape, (0..8).collect::<CubeList>()).expect("eight distinct cubes"))
        .expect("an empty pod has room");
    pod.compose(Slice::new(shape, (8..16).collect::<CubeList>()).expect("eight distinct cubes"))
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
        errors = code
            .inner_waterfall_point(Ber::new(5e-3), 200, 1)
            .expect("the point runs")
            .errors;
    });
    assert!(errors > 0, "5e-3 is dirty enough that Chase has work to do");
    assert_eq!(allocs, 0, "200 blocks of encode, channel, Chase decode");
}

#[test]
fn a_census_allocates_per_shard_not_per_port() {
    // Shard counts 1 to 12, fig13's quick depth (37) and the full pod
    // (384); each at a whole number of shards and with the last shard
    // taking 15 more ports, which must cost nothing.
    for family in ModuleFamily::ALL {
        for shards in (1..=12).chain([37, 384]) {
            let want = census_allocs(shards);
            for ports in [16 * shards, 16 * shards + 15] {
                let pool = Pool::new(1);
                let blocks = allocations(|| drop(fleet_census(&pool, ports, family, 42)));
                assert_eq!(blocks, want, "{family:?}: {ports} ports in {shards} shards");
            }
        }
    }
}

#[test]
fn a_wdm_lane_is_read_without_a_block() {
    for grid in [WdmGrid::Cwdm4, WdmGrid::Cwdm8] {
        let blocks = allocations(|| {
            for i in 0..=grid.lane_count() {
                std::hint::black_box(grid.lane(i));
            }
        });
        assert_eq!(blocks, 0, "{grid:?}");
    }
}
