//! Fabric-as-a-service, end to end: a year of slice requests served by
//! real superpods, stress-tested, and checked against queueing theory.
//!
//! ```text
//! cargo run --release --example fabric_service            # 1M requests
//! cargo run --release --example fabric_service -- --smoke # CI-sized
//! ```
//!
//! Three acts:
//!
//! 1. **The open-loop run** — the configured arrival stream through
//!    [`run_sharded`] (watching nothing) on [`Pool::from_env`], so
//!    `LIGHTWAVE_THREADS` controls the worker count. Writes
//!    `service_report.json`; CI runs this example at
//!    `LIGHTWAVE_THREADS=1` and `=4` and `cmp`s the two artifacts byte
//!    for byte (a smaller in-process 1-vs-2-thread check runs here too,
//!    so the example self-verifies on one machine).
//! 2. **Erlang B** — the single-cube loss configuration swept across
//!    offered loads; measured blocking vs the closed form.
//! 3. **Chaos** — a service hunt: arrival schedules interleaved with
//!    hardware faults, every extended invariant checked, byte-identical
//!    at any thread count.
//!
//! The traced cell lives in `request_scope`, which writes one cell's
//! lifecycle trace beside the scope report of the same run.

use lightwave::chaos::{hunt_service, ChaosConfig, HuntConfig};
use lightwave::par::Pool;
use lightwave::service::{erlang_b, run_sharded, Mix, PolicyConfig, ServiceConfig};
use lightwave::units::Nanos;
use std::path::PathBuf;

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn out_dir() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    let dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/service"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

fn main() {
    let smoke = flag("--smoke");
    let dir = out_dir();
    let requests: u64 = if smoke { 10_000 } else { 1_000_000 };
    let pool = Pool::from_env();

    // ── Act 1: the open-loop run ─────────────────────────────────────
    let cfg = ServiceConfig {
        requests,
        ..ServiceConfig::default()
    };
    println!(
        "act 1: {requests} production arrivals, {} worker thread(s)",
        pool.threads()
    );
    let t0 = std::time::Instant::now();
    let (report, (), stats) = run_sharded(&pool, &cfg, |_| ());
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(report.submitted, requests);
    println!(
        "  {} admitted, {} blocked, {} preempted, {} completed over {} cells",
        report.classes.iter().map(|c| c.admitted).sum::<u64>(),
        report.blocked(),
        report.preempted(),
        report.completed(),
        report.cells,
    );
    println!(
        "  {:.0} req/s wall ({} shards, {:.0}% pool utilization), {:.1}% cube utilization, p99 admit wait {:.0} us",
        requests as f64 / secs,
        stats.shards,
        stats.utilization() * 100.0,
        report.utilization() * 100.0,
        report.wait_quantile_micros(0.99).unwrap_or(0.0),
    );

    // The artifact CI diffs across thread counts. Byte-identical because
    // per-cell reports merge in shard order whatever worker ran them.
    let snapshot = serde_json::to_string_pretty(&report.snapshot()).expect("snapshot serializes");
    let report_path = dir.join("service_report.json");
    std::fs::write(&report_path, snapshot + "\n").expect("write service_report.json");
    println!("  wrote {}", report_path.display());

    // Self-check on this machine: a smaller run, explicit 1 vs 2 threads.
    let small = ServiceConfig {
        requests: if smoke { 1_500 } else { 4_000 },
        ..ServiceConfig::default()
    };
    let (one, ..) = run_sharded(&Pool::new(1), &small, |_| ());
    let (two, ..) = run_sharded(&Pool::new(2), &small, |_| ());
    assert_eq!(one, two, "thread count must not change the report");
    println!("  replay check: 1-thread and 2-thread reports identical");

    // ── Act 2: Erlang B ──────────────────────────────────────────────
    // Single-cube mix, no queue, no preemption: each cell is an
    // M/G/64/64 loss system. Mean hold is 100 ms, so offered load is
    // 100 ms / gap erlangs.
    println!("act 2: blocking vs offered load (measured | Erlang B)");
    let n = if smoke { 1_500 } else { 4_000 };
    for gap_ms in [10u64, 3, 1] {
        let loss = ServiceConfig {
            requests: n,
            mean_gap: Nanos::from_millis(gap_ms),
            mix: Mix::SingleCube,
            policy: PolicyConfig {
                queue_limit: 0,
                preemption: false,
            },
            shard_size: n, // one cell: blocking is a pod-level statistic
            ..ServiceConfig::default()
        };
        let (r, ..) = run_sharded(&pool, &loss, |_| ());
        let erlangs = 100.0 / gap_ms as f64;
        println!(
            "  E = {erlangs:>5.1} erlangs on 64 cubes: {:>6.2}% | {:>6.2}%",
            r.blocking_probability() * 100.0,
            erlang_b(erlangs, 64) * 100.0,
        );
    }

    // ── Act 3: chaos ─────────────────────────────────────────────────
    let hunt_cfg = HuntConfig {
        seed: 5,
        schedules: if smoke { 6 } else { 24 },
        chaos: ChaosConfig::default(),
    };
    let hunt = hunt_service(&pool, &hunt_cfg);
    print!(
        "act 3: service hunt under hardware faults\n{}",
        hunt.table()
    );
    assert!(
        hunt.violations().next().is_none(),
        "service hunt must be invariant-clean"
    );
    println!("done: all acts passed");
}
