//! Planner and analytics benchmarks: the algorithms a control plane runs
//! in its decision loop.

use criterion::{criterion_group, criterion_main, Criterion};
use lightwave::availability::{cube_availability, reconfigurable_goodput};
use lightwave::dcn::campus::CampusSim;
use lightwave::dcn::{flowsim, te, TrafficMatrix};
use lightwave::mlperf::{LlmConfig, SliceOptimizer};
use lightwave::optics::ber::{mpi_db, Pam4Receiver};
use lightwave::par::Pool;
use lightwave::scheduler::sim::default_mix;
use lightwave::scheduler::{ClusterSim, Contiguous, Pooled};
use lightwave::superpod::collective_sim::{simulate_torus_all_reduce, Uniform};
use lightwave::superpod::slice::SliceShape;
use lightwave::transceiver::fleet::fleet_census;
use lightwave::transceiver::ModuleFamily;
use lightwave::units::{Availability, Ber, Dbm};
use std::hint::black_box;

fn shape_search(c: &mut Criterion) {
    let opt = SliceOptimizer::tpu_v4();
    c.bench_function("slice_shape_search_4096", |b| {
        b.iter(|| black_box(opt.optimize(black_box(&LlmConfig::llm1()), 4096)))
    });
}

fn te_solver(c: &mut Criterion) {
    let tm = TrafficMatrix::gravity(32, 20.0, 7);
    c.bench_function("te_engineer_32_abs", |b| {
        b.iter(|| black_box(te::engineer(black_box(&tm), 62)))
    });
}

fn flow_allocation(c: &mut Criterion) {
    let tm = TrafficMatrix::hotspot(16, 40.0, 8, 30.0, 3);
    let mesh = te::engineer(&tm, 30).expect("the budget reaches every peer");
    c.bench_function("flowsim_allocate_16_abs", |b| {
        b.iter(|| black_box(flowsim::allocate(black_box(&mesh), &tm, 100.0)))
    });
}

fn ber_analytics(c: &mut Criterion) {
    let rx = Pam4Receiver::cwdm4_50g();
    c.bench_function("analytic_ber", |b| {
        b.iter(|| black_box(rx.ber(black_box(Dbm(-12.0)), mpi_db(-32.0), None)))
    });
    c.bench_function("sensitivity_bisection", |b| {
        b.iter(|| black_box(rx.sensitivity(Ber::KP4_THRESHOLD, mpi_db(-32.0), None)))
    });
}

fn goodput_analytics(c: &mut Criterion) {
    let ca = cube_availability(Availability::from_nines(3.0));
    c.bench_function("goodput_1024_slice", |b| {
        b.iter(|| black_box(reconfigurable_goodput(16, ca, 0.97)))
    });
}

fn campus_epochs(c: &mut Criterion) {
    let sim = CampusSim::default_campus();
    c.bench_function("campus_10_epochs", |b| b.iter(|| black_box(sim.run(10, 7))));
}

fn collective_step_sim(c: &mut Criterion) {
    let shape = SliceShape::new(16, 16, 16).unwrap();
    c.bench_function("collective_sim_full_pod", |b| {
        b.iter(|| {
            black_box(simulate_torus_all_reduce(
                shape,
                256e6,
                &[0, 1, 2],
                &Uniform(100e9),
                300e-9,
            ))
        })
    });
}

fn fleet_ber_census(c: &mut Criterion) {
    let pool = Pool::from_env();
    c.bench_function("fleet_census_500_ports", |b| {
        b.iter(|| black_box(fleet_census(&pool, 500, ModuleFamily::Cwdm4Bidi, 42)))
    });
}

/// sched1's three runs at quick depth: the overloaded default mix, where
/// the backfill pass walks a queue of hundreds of jobs per event.
fn cluster_sim(c: &mut Criterion) {
    let sim = ClusterSim::new(default_mix(), 0.25);
    let mut g = c.benchmark_group("cluster_sim");
    g.bench_function("pooled_800h", |b| {
        b.iter(|| black_box(sim.run(&Pooled, 800.0, 42)))
    });
    g.bench_function("contiguous_800h", |b| {
        b.iter(|| black_box(sim.run(&Contiguous, 800.0, 42)))
    });
    g.bench_function("defrag_600h", |b| {
        b.iter(|| black_box(sim.run_contiguous_with_defrag(600.0, 0.05, 42)))
    });
    g.finish();
}

criterion_group!(
    benches,
    shape_search,
    te_solver,
    flow_allocation,
    ber_analytics,
    goodput_analytics,
    campus_epochs,
    collective_step_sim,
    fleet_ber_census,
    cluster_sim
);
criterion_main!(benches);
