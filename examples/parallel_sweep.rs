//! Deterministic parallel sweeps on the `lightwave-par` engine.
//!
//! ```text
//! cargo run --release --example parallel_sweep
//! LIGHTWAVE_THREADS=4 cargo run --release --example parallel_sweep
//! ```
//!
//! Runs the two evaluation-scale Monte-Carlo workloads — receiver BER
//! vs power (Fig. 11) and pool availability (Fig. 15) — on a worker
//! pool, then re-runs the BER point on a single worker to demonstrate
//! the engine's contract: **thread count is a throughput knob, never a
//! results knob**. Engine utilization lands in the same `FleetTelemetry`
//! sink the rest of the fleet reports into.

use lightwave::availability::{
    cube_availability, monte_carlo_pool_availability, POOL_SHARD_TRIALS,
};
use lightwave::optics::ber::{mpi_db, Pam4Receiver};
use lightwave::optics::montecarlo::simulate_ber_par;
use lightwave::par::{Pool, THREADS_ENV};
use lightwave::telemetry::FleetTelemetry;
use lightwave::units::{Availability, Dbm, Nanos};

fn main() {
    let pool = Pool::from_env();
    println!(
        "pool: {} worker(s) ({}={})\n",
        pool.threads(),
        THREADS_ENV,
        std::env::var(THREADS_ENV).unwrap_or_else(|_| "unset".into())
    );

    let mut sink = FleetTelemetry::new();
    let mut tick_ms = 1u64;

    // ── BER vs received power, 2²⁰ symbols per point ──────────────────
    let rx = Pam4Receiver::cwdm4_50g();
    let symbols = 1u64 << 20;
    println!("PAM4 BER vs power (MPI −30 dB, {symbols} symbols/point):");
    for tenth_dbm in (-150i32..=-120).step_by(10) {
        let p = Dbm(f64::from(tenth_dbm) / 10.0);
        let (r, stats) = simulate_ber_par(&pool, &rx, p, mpi_db(-30.0), None, symbols, 42);
        let at = Nanos::from_millis(tick_ms);
        let g = sink
            .metrics
            .gauge("sweep_ber", &[("dbm", &format!("{}", p.0))]);
        sink.metrics.set(g, at, r.ber.0);
        stats.record_into(&mut sink.metrics, at);
        println!(
            "  {:>6.1} dBm: BER {:.3e}  ({} shards, utilization {:.0}%)",
            p.0,
            r.ber.0,
            stats.shards,
            stats.utilization() * 100.0
        );
        tick_ms += 1;
    }

    // ── Pool availability, Fig. 15 machinery ──────────────────────────
    let trials = POOL_SHARD_TRIALS * 16;
    let ca = cube_availability(Availability::new(0.999));
    let est = monte_carlo_pool_availability(&pool, ca, 48, trials, 7);
    let g = sink
        .metrics
        .gauge("sweep_pool_availability", &[("need", "48")]);
    sink.metrics.set(g, Nanos::from_millis(tick_ms), est);
    println!("\npool availability (48-of-64 cubes, {trials} trials): {est:.4}");

    // ── The contract, demonstrated ────────────────────────────────────
    let one = Pool::new(1);
    let (serial, _) = simulate_ber_par(&one, &rx, Dbm(-13.0), mpi_db(-30.0), None, symbols, 42);
    let (pooled, _) = simulate_ber_par(&pool, &rx, Dbm(-13.0), mpi_db(-30.0), None, symbols, 42);
    assert_eq!(serial, pooled);
    assert_eq!(serial.ber.0.to_bits(), pooled.ber.0.to_bits());
    println!(
        "\n1 worker vs {}: identical bits (errors {}, BER {:.3e}) — \
         thread count never changes results",
        pool.threads(),
        pooled.errors,
        pooled.ber.0
    );

    println!(
        "\ntelemetry sink now holds {} metric series (incl. engine utilization)",
        sink.metrics.len()
    );
}
