//! OCS and fabric-transaction benchmarks.
//!
//! The control plane must plan and validate fabric-wide transactions fast
//! (milliseconds of software against milliseconds of mirror settle); these
//! benches keep the delta planner, the full-pod composition, and the
//! optical-core census honest — and time the three layers the slice-request
//! path spends its switch time in (one switch's `apply_delta`, one
//! dimension's `commit_delta`, one circuit's camera alignment) and the
//! pod's compose + release transaction pair above them (48 switches for
//! an 8-cube slice, none for a single cube), so that a regression there
//! shows without a full `lwbench` run. The `fleet_*` benches time fabric
//! time itself: an idle advance must cost the same on 48 switches and on
//! 512, and the advance that completes alignments must pay for the
//! switches in motion only. Construction has its own four: building a pod
//! (`superpod_new`) must stay far below 48 × `optical_core_fabricate_136`,
//! because a switch fabricates its core on first read and knows its spares
//! from `spares_as_built_136` alone — which is all `fleet_health_48_untouched`
//! may cost per switch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lightwave::fabric::{FabricController, FabricDelta, OcsFleet};
use lightwave::ocs::camera::{AlignmentLoop, ALIGNMENT_TOLERANCE};
use lightwave::ocs::loss::OpticalCore;
use lightwave::ocs::{Crossbar, PalomarOcs, PortMapping};
use lightwave::superpod::geometry::{Dim, LINKS_PER_FACE};
use lightwave::superpod::slice::{Slice, SliceShape};
use lightwave::superpod::wiring::ocs_for;
use lightwave::superpod::Superpod;
use lightwave::units::Nanos;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;

fn crossbar_delta(c: &mut Criterion) {
    let mut xb = Crossbar::new(136);
    for i in 0..128u16 {
        xb.connect(i, (i * 7 + 3) % 136).unwrap();
    }
    // Target: move half the circuits.
    let target = PortMapping::from_pairs((0..128u16).map(|i| {
        (
            i,
            if i % 2 == 0 {
                (i * 7 + 3) % 136
            } else {
                (i * 11 + 5) % 136
            },
        )
    }))
    .unwrap();
    c.bench_function("crossbar_delta_128_circuits", |b| {
        b.iter(|| black_box(xb.delta_to(black_box(&target))))
    });
}

fn ocs_apply_mapping(c: &mut Criterion) {
    let target = PortMapping::from_pairs((0..64u16).map(|i| (i, i + 64))).unwrap();
    c.bench_function("ocs_apply_mapping_64", |b| {
        b.iter_batched(
            || PalomarOcs::new(0, 42),
            |mut ocs| {
                ocs.apply_mapping(&target).expect("valid");
                black_box(ocs)
            },
            BatchSize::SmallInput,
        )
    });
}

/// The circuits a small slice pins on one switch, and where they move to.
const FOUR: [(u16, u16); 4] = [(100, 101), (102, 103), (104, 105), (106, 107)];
const MOVED: [(u16, u16); 4] = [(100, 103), (102, 105), (104, 107), (106, 101)];

/// One switch visit of a commit on a half-full switch: 4 circuits torn
/// down, 4 established, the tick that completes their alignment.
fn ocs_apply_delta(c: &mut Criterion) {
    let mut ocs = PalomarOcs::new(0, 42);
    let half: Vec<(u16, u16)> = (0..64u16).map(|i| (i, (i * 7 + 3) % 64)).collect();
    ocs.apply_delta(&half, &[]).expect("valid");
    ocs.apply_delta(&FOUR, &[]).expect("valid");
    let norths = FOUR.map(|(n, _)| n);
    let mut moves = [MOVED, FOUR].into_iter().cycle();
    c.bench_function("ocs_apply_delta_4_adds_4_removes_half_full", |b| {
        b.iter(|| {
            let add = moves.next().expect("cycles");
            ocs.validate_delta(&add, &norths).expect("valid");
            black_box(ocs.apply_delta(&add, &norths).expect("valid"));
            ocs.advance(Nanos::from_millis(40));
        })
    });
}

/// One dimension's transaction as a slice compose or release commits it:
/// the same 4 pairs on each of the dimension's 16 switches, added by one
/// commit and removed by the next.
fn fabric_commit_delta(c: &mut Criterion) {
    let mut fabric = FabricController::new(OcsFleet::build(48, 17));
    let (mut compose, mut release) = (FabricDelta::new(), FabricDelta::new());
    for k in 0..LINKS_PER_FACE {
        compose.entry(ocs_for(Dim::Y, k)).add.extend(FOUR);
        let torn_down = FOUR.iter().map(|&(n, _)| n);
        release.entry(ocs_for(Dim::Y, k)).remove.extend(torn_down);
    }
    let mut deltas = [&compose, &release].into_iter().cycle();
    c.bench_function("fabric_commit_delta_one_dimension_16_switches", |b| {
        b.iter(|| {
            let delta = deltas.next().expect("cycles");
            black_box(fabric.commit_delta(delta).expect("valid"));
            fabric.advance(Nanos::from_millis(40));
        })
    });
}

/// Every third switch: the 16 of a 48-switch fleet that carry circuits.
fn carrying() -> impl Iterator<Item = u32> {
    (0..16).map(|k| 3 * k)
}

/// `n` switches, [`FOUR`] up and aligned on each carrying one.
fn settled_fleet(n: usize) -> OcsFleet {
    let mut fleet = OcsFleet::build(n, 17);
    for id in carrying() {
        let ocs = fleet.get_mut(id).expect("in range");
        ocs.apply_delta(&FOUR, &[]).expect("valid");
    }
    fleet.advance(Nanos::from_millis(40));
    fleet
}

/// The tick of a fleet with nothing mid-alignment — every service step of
/// a single-cube workload, twice. The campus-sized twin must read the same.
fn fleet_advance_idle(c: &mut Criterion) {
    for n in [48, 512] {
        let mut fleet = settled_fleet(n);
        c.bench_function(format!("fleet_advance_idle_{n}_switches"), |b| {
            b.iter(|| fleet.advance(black_box(Nanos(1_000))))
        });
    }
}

/// The tick that does real work, on a warm fleet: 16 of 48 switches start
/// one alignment each, the advance completes all 16, and the circuits come
/// down again so that the next iteration finds the same state.
fn fleet_advance_aligning(c: &mut Criterion) {
    let mut fleet = settled_fleet(48);
    c.bench_function("fleet_advance_16_of_48_aligning", |b| {
        b.iter(|| {
            for id in carrying() {
                let ocs = fleet.get_mut(id).expect("in range");
                black_box(ocs.connect(110, 111).expect("free"));
            }
            fleet.advance(Nanos::from_millis(40));
            for id in carrying() {
                let ocs = fleet.get_mut(id).expect("in range");
                ocs.disconnect(110).expect("live");
            }
        })
    });
}

/// The hand-out path: a switch is lent out mutably (nothing is started on
/// it) and the next tick has to look at it again.
fn fleet_get_mut_then_advance(c: &mut Criterion) {
    let mut fleet = settled_fleet(48);
    c.bench_function("fleet_get_mut_then_advance", |b| {
        b.iter(|| {
            black_box(fleet.get_mut(21).expect("in range").pending_circuits());
            fleet.advance(black_box(Nanos(1_000)));
        })
    });
}

/// One circuit's camera alignment on the same stream: the exact servo
/// loop, the prepared kernel the switch runs, and the ten raw draws the
/// RNG contract makes the floor of any kernel.
fn camera_alignment(c: &mut Criterion) {
    let servo = AlignmentLoop::default();
    let mut rng = StdRng::seed_from_u64(9);
    c.bench_function("alignment_converge_exact", |b| {
        b.iter(|| black_box(servo.converge(ALIGNMENT_TOLERANCE, &mut rng)))
    });
    let kernel = servo.prepare(ALIGNMENT_TOLERANCE);
    let mut rng = StdRng::seed_from_u64(9);
    c.bench_function("alignment_kernel", |b| {
        b.iter(|| black_box(kernel.run(&mut rng)))
    });
    let mut rng = StdRng::seed_from_u64(9);
    c.bench_function("alignment_raw_draws_floor", |b| {
        b.iter(|| black_box((0..10).fold(0, |x, _| x ^ rng.next_u64())))
    });
}

/// What a pod costs to build, what one core costs whoever reads it first,
/// what a switch pays at construction instead, and the health scrape of a
/// fleet nobody has asked about its optics (no core is built by it).
fn construction(c: &mut Criterion) {
    c.bench_function("superpod_new", |b| {
        b.iter(|| black_box(Superpod::new(black_box(7))))
    });
    c.bench_function("optical_core_fabricate_136", |b| {
        b.iter(|| black_box(OpticalCore::fabricate(136, black_box(7))))
    });
    c.bench_function("spares_as_built_136", |b| {
        b.iter(|| black_box(OpticalCore::spares_as_built(136, black_box(7))))
    });
    let fleet = settled_fleet(48);
    c.bench_function("fleet_health_48_untouched", |b| {
        b.iter(|| black_box(fleet.health()))
    });
}

fn optical_census(c: &mut Criterion) {
    let core = OpticalCore::fabricate(136, 7);
    c.bench_function("insertion_loss_census_136x136", |b| {
        b.iter(|| black_box(core.insertion_loss_census()))
    });
}

fn pod_compose_full(c: &mut Criterion) {
    c.bench_function("superpod_compose_4096_chips", |b| {
        b.iter_batched(
            || Superpod::new(1),
            |mut pod| {
                let slice =
                    Slice::new(SliceShape::new(16, 16, 16).unwrap(), (0..64).collect()).unwrap();
                pod.compose(slice).expect("empty pod");
                black_box(pod)
            },
            BatchSize::LargeInput,
        )
    });
}

/// A pod half full: 32 cubes in four 8-cube slices, every switch
/// carrying circuits (still aligning until the caller advances).
fn loaded_pod() -> Superpod {
    let mut pod = Superpod::new(2);
    for k in 0..4u8 {
        let cubes: Vec<u8> = (k * 8..k * 8 + 8).collect();
        pod.compose(Slice::new(SliceShape::new(8, 8, 8).unwrap(), cubes).unwrap())
            .expect("idle cubes");
    }
    pod
}

fn pod_incremental_slice(c: &mut Criterion) {
    c.bench_function("superpod_add_256_chip_slice", |b| {
        b.iter_batched(
            loaded_pod,
            |mut pod| {
                let cubes: Vec<u8> = (40..44).collect();
                pod.compose(Slice::new(SliceShape::new(16, 4, 4).unwrap(), cubes).unwrap())
                    .expect("fits");
                black_box(pod)
            },
            BatchSize::LargeInput,
        )
    });
}

/// One request's two transactions on a loaded pod: compose the slice,
/// the tick that completes its alignments, release it.
fn pod_compose_release(c: &mut Criterion, name: &str, slice: Slice) {
    let mut pod = loaded_pod();
    pod.advance(Nanos::from_millis(300));
    c.bench_function(name, |b| {
        b.iter(|| {
            let (handle, composed) = pod.compose(slice.clone()).expect("idle cubes");
            black_box(composed);
            pod.advance(Nanos::from_millis(40));
            black_box(pod.release(handle).expect("live slice"));
        })
    });
}

/// The multi-cube transaction pair: 8 non-contiguous cubes, all three
/// dimensions, 48 switches, 384 circuits up and down again.
fn pod_compose_release_8_cubes(c: &mut Criterion) {
    let cubes = vec![61, 34, 47, 40, 55, 38, 50, 43];
    let slice = Slice::new(SliceShape::new(8, 8, 8).unwrap(), cubes).unwrap();
    pod_compose_release(c, "superpod_compose_release_8_cubes_loaded_pod", slice);
}

/// The zero-switch twin: a single cube's rings are electrical, so both
/// transactions must stay bookkeeping only however the multi-cube path is
/// built.
fn pod_compose_release_single_cube(c: &mut Criterion) {
    let slice = Slice::new(SliceShape::new(4, 4, 4).unwrap(), vec![47]).unwrap();
    pod_compose_release(c, "superpod_compose_release_single_cube_loaded_pod", slice);
}

criterion_group!(
    benches,
    crossbar_delta,
    ocs_apply_mapping,
    ocs_apply_delta,
    fabric_commit_delta,
    fleet_advance_idle,
    fleet_advance_aligning,
    fleet_get_mut_then_advance,
    camera_alignment,
    construction,
    optical_census,
    pod_compose_full,
    pod_incremental_slice,
    pod_compose_release_8_cubes,
    pod_compose_release_single_cube
);
criterion_main!(benches);
