//! Admission-path benchmarks: the per-request host cost of the slice
//! service, layer by layer.
//!
//! `lwbench`'s `single_backlog` / `single_loss` workloads measure these
//! paths end to end; the benches here time each one alone — a `submit`
//! that ends head-of-line blocked at the queue bound, a `submit` that
//! admits on the empty-queue path, the same with about 50 slices live
//! (the core's and the pod's slot tables at `single_loss` occupancy), the
//! pod's zero-switch compose/release bookkeeping, and one pooled
//! allocation — so a regression in one shows without a full benchmark run.

use criterion::{criterion_group, criterion_main, Criterion};
use lightwave::scheduler::{Allocator, Pooled};
use lightwave::service::{PolicyConfig, Priority, ServiceCore, SliceIntent};
use lightwave::superpod::{CubeSet, Slice, SliceShape, Superpod};
use lightwave::units::Nanos;
use std::hint::black_box;

fn single_cube(request: u64, hold: Nanos) -> SliceIntent {
    SliceIntent {
        request,
        class: Priority::Inference,
        chips: [4, 4, 4],
        hold,
    }
}

/// A full pod behind a queue at its bound of 256: every further submit is
/// enqueued, finds the head blocked, and is turned away.
fn submit_blocked(c: &mut Criterion) {
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(PolicyConfig::default());
    let mut out = Vec::new();
    let forever = Nanos::from_millis(1_000_000_000);
    let mut next = 0u64;
    while core.queue_depth() < 256 {
        core.submit(&mut pod, &single_cube(next, forever), &mut out);
        next += 1;
    }
    assert_eq!(core.running().count(), 64);
    c.bench_function("submit_blocked_depth_256", |b| {
        b.iter(|| {
            out.clear();
            core.submit(&mut pod, &single_cube(next, forever), &mut out);
            next += 1;
            black_box(out.len())
        })
    });
    assert_eq!(core.queue_depth(), 256);
}

/// Pure loss, one slice in flight: each step completes the previous
/// request and admits the next — one release, one compose, no queue.
fn submit_admit(c: &mut Criterion) {
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(PolicyConfig {
        queue_limit: 0,
        preemption: false,
    });
    let mut out = Vec::new();
    let hold = Nanos::from_millis(1);
    let mut next = 0u64;
    c.bench_function("submit_admit_single_cube_loss", |b| {
        b.iter(|| {
            out.clear();
            let now = pod.fabric().now() + hold + hold;
            core.advance_to(&mut pod, now, &mut out);
            core.submit(&mut pod, &single_cube(next, hold), &mut out);
            next += 1;
            black_box(out.len())
        })
    });
    assert_eq!(core.report().blocked(), 0);
}

/// Pure loss at about 50 erlangs, the `single_loss` regime: an arrival
/// every 2 ms, holds spread over 1–200 ms, so about 50 slices are live and
/// each step's completions come in no order their handles or indices
/// predict.
fn admit_complete_single_cube(c: &mut Criterion) {
    let mut pod = Superpod::new(7);
    let mut core = ServiceCore::new(PolicyConfig {
        queue_limit: 0,
        preemption: false,
    });
    let mut out = Vec::new();
    let mut next = 0u64;
    let mut step = move |core: &mut ServiceCore, pod: &mut Superpod| {
        out.clear();
        let now = pod.fabric().now() + Nanos::from_millis(2);
        core.advance_to(pod, now, &mut out);
        let hold = Nanos::from_millis(1 + next * 37 % 200);
        core.submit(pod, &single_cube(next, hold), &mut out);
        next += 1;
        out.len()
    };
    for _ in 0..400 {
        step(&mut core, &mut pod);
    }
    c.bench_function("service_core_admit_complete_single_cube", |b| {
        b.iter(|| black_box(step(&mut core, &mut pod)))
    });
    assert!(core.running().count() > 40);
}

/// A single-cube slice pins no circuit: compose + release is the pod's
/// own bookkeeping and an empty fabric transaction.
fn pod_bookkeeping(c: &mut Criterion) {
    let mut pod = Superpod::new(7);
    let shape = SliceShape::new(4, 4, 4).expect("one cube");
    c.bench_function("superpod_single_cube_compose_release", |b| {
        b.iter(|| {
            let slice = Slice::new(shape, vec![9]).expect("valid");
            let (handle, report) = pod.compose(slice).expect("cube 9 is idle");
            black_box(report);
            black_box(pod.release(handle).expect("live"))
        })
    });
}

fn pooled_allocation(c: &mut Criterion) {
    // 40 idle cubes scattered over the pod.
    let idle: CubeSet = (0..64).filter(|c| c % 8 < 5).collect();
    assert_eq!(idle.len(), 40);
    let shape = SliceShape::new(8, 8, 8).expect("8 cubes");
    c.bench_function("pooled_allocate_8_of_40_idle", |b| {
        b.iter(|| black_box(Pooled.allocate(black_box(shape), black_box(idle))))
    });
}

criterion_group!(
    benches,
    submit_blocked,
    submit_admit,
    admit_complete_single_cube,
    pod_bookkeeping,
    pooled_allocation
);
criterion_main!(benches);
