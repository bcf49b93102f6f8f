//! Campus-scale observability: hierarchical rollups, burn-rate SLO
//! alerting, and the queryable `campus_health.json` (DESIGN §6.9).
//!
//! ```text
//! cargo run --release --example campus_health            # 120k arrivals
//! cargo run --release --example campus_health -- --smoke # CI-sized
//! ```
//!
//! Three acts:
//!
//! 1. **The campus snapshot** — [`run_sharded`] drives the open-loop
//!    service engine under one [`CampusObserver`] per cell; every cell is
//!    one *pod* feeding the port → switch → pod → campus [`RollupTree`]
//!    and its error-budget ledger. The cluster-to-cluster TE layer
//!    ([`CampusSim`]) folds its per-epoch outcomes into the *same* tree,
//!    and the merged result is
//!    queried top-down — drill into a pod, a switch, the dominant
//!    metric per level — then written as `campus_health.json`. CI runs
//!    this example at `LIGHTWAVE_THREADS=1` and `=4` and `cmp`s the
//!    artifact byte for byte.
//! 2. **The determinism check** — an in-process 1-vs-4-thread replay:
//!    the snapshot JSON must be byte-identical (integer-exact
//!    aggregates, shard-order merges).
//! 3. **The burn-rate page** — a synthetic pod outage pushes both the
//!    fast and the slow window past 10× budget burn: the ledger pages
//!    *once* (pod + campus), repeats coalesce without escalation, and
//!    the burn/budget series are recorded as counter tracks. (The real
//!    run's burn and budget, pod by pod, are `campus_health.json`'s
//!    `slo.pods`; this act's hand-built ledger writes no file.)

use lightwave::dcn::campus::CampusSim;
use lightwave::par::Pool;
use lightwave::service::{run_sharded, CampusObserver, ServiceConfig};
use lightwave::telemetry::timeseries::{dequantize, SeriesStore};
use lightwave::telemetry::{BurnRateLedger, CampusHealthDoc, FleetTelemetry};
use lightwave::units::Nanos;
use std::path::PathBuf;

/// Pod id the DCN topology-engineering layer reports under — far above
/// the service shard range, so the two producers never collide.
const DCN_POD: u32 = 1_000;

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
        .unwrap_or_else(|| PathBuf::from("target/campus"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

fn main() {
    let smoke = flag("--smoke");
    let dir = out_dir();
    let pool = Pool::from_env();
    let requests: u64 = if smoke { 8_000 } else { 120_000 };
    let epochs: usize = if smoke { 10 } else { 30 };

    // ── Act 1: the campus snapshot ───────────────────────────────────
    let cfg = ServiceConfig {
        requests,
        shard_size: 2_048,
        ..ServiceConfig::default()
    };
    println!(
        "act 1: {requests} arrivals across {} pods, {} worker thread(s)",
        (requests / cfg.shard_size).max(1),
        pool.threads()
    );
    let (report, mut obs, _) = run_sharded(&pool, &cfg, |_| CampusObserver::new());
    let admitted: u64 = report.classes.iter().map(|c| c.admitted).sum();
    let blocked: u64 = report.classes.iter().map(|c| c.blocked).sum();
    println!(
        "  service: {} submitted, {} admitted, {} blocked",
        report.submitted, admitted, blocked
    );
    // The TE layer reports through the same plane (one pseudo-pod).
    let te = CampusSim::default_campus()
        .run(epochs, 42)
        .expect("the budget reaches every peer");
    te.fold_into_rollup(&mut obs.rollup, DCN_POD, Nanos::from_secs_f64(60.0));
    println!(
        "  dcn: {epochs} TE epochs folded under pod {DCN_POD} (gain {:.2}x)",
        te.aggregate_gain()
    );

    let doc = obs.health_doc();
    obs.rollup.check_consistency().expect("rollup consistent");
    println!(
        "  campus: {} pods / {} leaf ports / {} metrics, dominant metric {:?}",
        doc.pods.len(),
        doc.ports,
        obs.rollup.metric_names().len(),
        doc.dominant_cause().unwrap_or("none"),
    );
    // Top-down drill: campus → pod → switch.
    let pod0 = doc.pod(0).expect("pod 0 present");
    let sw = pod0.switches.first().expect("pod 0 has switches");
    println!(
        "  drill: pod 0 dominant {:?}; switch {} dominant {:?}",
        pod0.node.dominant_cause, sw.switch, sw.node.dominant_cause
    );
    let te_pod = doc.pod(DCN_POD).expect("TE pseudo-pod present");
    let eng = te_pod
        .node
        .metric("te_engineered_gbps")
        .expect("TE throughput rolled up");
    println!(
        "  drill: pod {DCN_POD} saw {} TE samples, mean {:.0} Gb/s engineered",
        eng.count,
        dequantize(eng.mean_micros().unwrap_or(0))
    );
    let json = doc.to_json();
    let path = dir.join("campus_health.json");
    std::fs::write(&path, &json).expect("write campus_health.json");
    println!("  wrote {} ({} bytes)", path.display(), json.len());

    // ── Act 2: the determinism check ─────────────────────────────────
    let small = ServiceConfig {
        requests: 4_000,
        shard_size: 512,
        ..ServiceConfig::default()
    };
    let (r1, mut o1, _) = run_sharded(&Pool::new(1), &small, |_| CampusObserver::new());
    let (r4, mut o4, _) = run_sharded(&Pool::new(4), &small, |_| CampusObserver::new());
    assert_eq!(r1, r4, "thread count must not change the service report");
    let d1 = o1.health_doc().to_json();
    let d4 = o4.health_doc().to_json();
    assert_eq!(d1, d4, "thread count must not change campus_health.json");
    let parsed = CampusHealthDoc::from_json(&d1).expect("snapshot round-trips");
    assert_eq!(parsed.to_json(), d1, "parse → serialize is the identity");
    println!("act 2: 1-thread and 4-thread campus_health.json byte-identical");

    // ── Act 3: the burn-rate page ────────────────────────────────────
    // One pod suffers a 10-second outage: with a 200 ppm budget that is
    // >10x burn over BOTH the 300 s fast window and the 3600 s slow
    // window, so the multi-window condition pages — exactly once.
    let mut sink = FleetTelemetry::new();
    let mut ledger = BurnRateLedger::default();
    let mut store = SeriesStore::default();
    for pod in 0..4u32 {
        ledger.observe(Nanos(0), pod, true);
    }
    let t_down = Nanos::from_secs_f64(100.0);
    let t_up = Nanos::from_secs_f64(110.0);
    ledger.observe(t_down, 3, false);
    ledger.observe(t_up, 3, true);
    ledger.record_series(&mut store, t_down);
    let fired = ledger.poll(&mut sink, t_up);
    assert!(fired.contains(&3), "the outage pod pages");
    ledger.record_series(&mut store, t_up);
    // Repeated polls while the condition holds must NOT re-page.
    for i in 1..=5u64 {
        let again = ledger.poll(&mut sink, t_up + Nanos::from_secs_f64(i as f64));
        assert!(again.is_empty(), "the page latch holds: no repeat pages");
    }
    let assessed = ledger.assess(t_up);
    println!(
        "act 3: pod-3 outage burned {} ms of budget — {} page(s), \
         fast burn {}x, budget remaining {:.1}%",
        assessed.pods[3].spent_nanos / 1_000_000,
        sink.alarms.pages(),
        assessed.pods[3].fast_burn_milli / 1000,
        assessed.campus.remaining_milli as f64 / 10.0
    );
    // Two hours later the windows have drained: the alert clears.
    let t_clear = t_up + Nanos::from_secs_f64(7_200.0);
    ledger.poll(&mut sink, t_clear);
    ledger.record_series(&mut store, t_clear);
    let cleared = ledger.assess(t_clear);
    assert!(!cleared.pods[3].alerting, "the alert clears after recovery");

    // The burn/budget series are ordinary counter tracks, ready for
    // `to_chrome_trace_with_counters` beside a tracer of the same run.
    let tracks = store.tracks();
    println!(
        "  {} counter samples on {} burn/budget tracks",
        tracks.iter().map(|t| t.points.len()).sum::<usize>(),
        tracks.len()
    );
    println!("done: all acts passed");
}
