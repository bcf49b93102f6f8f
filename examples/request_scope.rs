//! "Why was this request slow?" — request-level critical-path
//! attribution with the always-on scope layer (DESIGN §6.7).
//!
//! ```text
//! cargo run --release --example request_scope            # 200k requests
//! cargo run --release --example request_scope -- --smoke # CI-sized
//! ```
//!
//! Three acts:
//!
//! 1. **The attributed fleet run** — [`run_sharded`] under one
//!    [`ScopeCollector`] per cell, over the production mix with 1-in-64
//!    sampling. The scope report folds each sampled request's lifecycle
//!    into per-class × per-phase exemplar histograms and names the
//!    dominant phase at p50/p99/p99.9, printed as a table.
//! 2. **The determinism check** — an in-process 1-vs-2-thread replay:
//!    snapshot JSON must be byte-identical (sampling and span ids are
//!    pure in `(seed, request)`; merges are lattice joins).
//! 3. **The report and the trace it points into** — one fully sampled
//!    cell under a ([`ScopeCollector`], [`Lifecycle`]) pair, written as
//!    `scope_report.json` and `request_scope_trace.json`. Every tail
//!    bucket's exemplar carries the span id of that request's root
//!    lifecycle span and the annotated Perfetto export flags exactly
//!    those spans, so the p99 row of the report links straight to the
//!    slow request's span tree in the trace beside it (`validate_trace`
//!    checks the pair from the bytes, both ways).

use lightwave::par::{Pool, Shard};
use lightwave::service::{run_cell_with, run_sharded, Lifecycle, ScopeCollector, ServiceConfig};
use lightwave::trace::to_chrome_trace;
use lightwave::trace::validate::validate_chrome_trace;
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
        .unwrap_or_else(|| PathBuf::from("target/scope"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

fn main() {
    let smoke = flag("--smoke");
    let dir = out_dir();
    let requests: u64 = if smoke { 12_000 } else { 200_000 };
    let pool = Pool::from_env();

    // ── Act 1: the attributed fleet run ──────────────────────────────
    let cfg = ServiceConfig {
        requests,
        ..ServiceConfig::default()
    };
    let every = 64;
    println!(
        "act 1: {requests} arrivals, 1-in-{every} sampling, {} worker thread(s)",
        pool.threads()
    );
    let (report, scope, _) = run_sharded(&pool, &cfg, |_| ScopeCollector::new(cfg.seed, every));
    assert_eq!(report.submitted, requests);
    println!(
        "  {} sampled ({} rejected, {} in flight at drain), {} commits observed",
        scope.sampled,
        scope.rejected,
        scope.inflight,
        scope.touched_switches.count(),
    );
    print!("{}", scope.render());

    // ── Act 2: the determinism check ─────────────────────────────────
    let small = ServiceConfig {
        requests: if smoke { 2_000 } else { 6_000 },
        shard_size: 512,
        ..ServiceConfig::default()
    };
    let one_in_8 = |_| ScopeCollector::new(small.seed, 8);
    let (r1, s1, _) = run_sharded(&Pool::new(1), &small, one_in_8);
    let (r2, s2, _) = run_sharded(&Pool::new(2), &small, one_in_8);
    assert_eq!(r1, r2, "thread count must not change the service report");
    assert_eq!(
        serde_json::to_string(&s1.snapshot()).expect("json"),
        serde_json::to_string(&s2.snapshot()).expect("json"),
        "thread count must not change the scope report"
    );
    println!("act 2: 1-thread and 2-thread scope reports byte-identical");

    // ── Act 3: the report and the trace it points into ───────────────
    // Full sampling on a small observed cell: every request gets a root
    // lifecycle span, and every histogram bucket's exemplar records the
    // root span id of the request that set it. Tracing is a per-request
    // prefix: each traced admission drags its whole reconfiguration span
    // tree into the export.
    let traced = ServiceConfig {
        requests: 240,
        ..ServiceConfig::default()
    };
    let whole = Shard {
        index: 0,
        start: 0,
        len: traced.requests,
    };
    let watchers = (
        ScopeCollector::new(traced.seed, 1),
        Lifecycle::new(traced.seed, 48, 1),
    );
    let (cell, (cell_scope, watched)) = run_cell_with(&traced, whole, watchers);
    let snapshot =
        serde_json::to_string_pretty(&cell_scope.snapshot()).expect("scope snapshot serializes");
    let report_path = dir.join("scope_report.json");
    std::fs::write(&report_path, snapshot + "\n").expect("write scope_report.json");
    let exemplars = cell_scope.exemplar_spans();
    let trace = to_chrome_trace(&watched.tracer, &watched.series.tracks(), &exemplars);
    let tstats = validate_chrome_trace(&trace).expect("exported trace validates");
    println!(
        "act 3: fully sampled cell served {} requests; {} exemplar spans \
         flagged in a {}-span trace",
        cell.completed(),
        exemplars.len(),
        tstats.complete,
    );
    for p in cell_scope.critical_paths() {
        if p.quantile_permille == 990 {
            println!(
                "  {} p99 exemplar: request {} span {:016x} — open the trace and \
                 look for the flagged span",
                p.class.name(),
                p.request,
                p.span,
            );
        }
    }
    let trace_path = dir.join("request_scope_trace.json");
    std::fs::write(&trace_path, trace).expect("write request_scope_trace.json");
    println!(
        "  wrote {} and {} (open at ui.perfetto.dev)",
        report_path.display(),
        trace_path.display()
    );
    println!("done: all acts passed");
}
