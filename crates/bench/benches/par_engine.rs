//! Micro-benchmarks for the `lightwave-par` deterministic engine: the
//! Monte-Carlo BER and pool-availability hot paths at 1/2/4 workers, plus
//! the raw dispatch overhead of an (almost) empty shard.
//!
//! On a ≥ 4-core machine the 4-worker rows should land near 4× the
//! 1-worker rows (near-linear scaling); on fewer cores they degrade
//! gracefully toward parity. Scaling is the machine's business — the
//! *results* are bit-identical at every row by the engine's contract.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lightwave::availability::{cube_availability, monte_carlo_pool_availability};
use lightwave::optics::ber::{mpi_db, Pam4Receiver};
use lightwave::optics::montecarlo::{simulate_ber_par, simulate_ber_seeded};
use lightwave::units::{Availability, Dbm};
use lightwave_par::Pool;

const WORKERS: [usize; 3] = [1, 2, 4];

fn bench_mc_ber(c: &mut Criterion) {
    let rx = Pam4Receiver::cwdm4_50g();
    let symbols = 200_000u64;
    let mut g = c.benchmark_group("par_engine/mc_ber");
    g.throughput(Throughput::Elements(symbols));
    g.bench_function("serial", |b| {
        b.iter(|| {
            black_box(simulate_ber_seeded(
                &rx,
                Dbm(-12.5),
                mpi_db(-32.0),
                None,
                symbols,
                42,
            ))
        })
    });
    for workers in WORKERS {
        let pool = Pool::new(workers);
        g.bench_function(format!("pool_{workers}t"), |b| {
            b.iter(|| {
                black_box(
                    simulate_ber_par(&pool, &rx, Dbm(-12.5), mpi_db(-32.0), None, symbols, 42).0,
                )
            })
        });
    }
    g.finish();
}

fn bench_pool_availability(c: &mut Criterion) {
    let ca = cube_availability(Availability::new(0.999));
    let trials = 20_000u64;
    let mut g = c.benchmark_group("par_engine/pool_availability");
    g.throughput(Throughput::Elements(trials));
    for workers in WORKERS {
        let pool = Pool::new(workers);
        g.bench_function(format!("pool_{workers}t"), |b| {
            b.iter(|| black_box(monte_carlo_pool_availability(&pool, ca, 48, trials, 11)))
        });
    }
    g.finish();
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    // 64 one-trial shards of trivial work: what the scoped pool itself
    // costs (spawn + atomic pulls + ordered merge).
    let mut g = c.benchmark_group("par_engine/dispatch");
    for workers in WORKERS {
        let pool = Pool::new(workers);
        g.bench_function(format!("64_empty_shards_{workers}t"), |b| {
            b.iter(|| {
                let (sum, _) =
                    pool.run_trials(1, 64, 1, |_rng, i| black_box(i), |a, b| a.wrapping_add(b));
                black_box(sum)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mc_ber,
    bench_pool_availability,
    bench_dispatch_overhead
);
criterion_main!(benches);
