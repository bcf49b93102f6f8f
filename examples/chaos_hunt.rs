//! Deterministic chaos hunt over the lightwave control plane.
//!
//! ```text
//! cargo run --release --example chaos_hunt [-- --smoke] [-- --out-dir DIR]
//! ```
//!
//! Three acts:
//!
//! 1. **Clean hunt** — 500 seeded fault schedules (50 with `--smoke`)
//!    drive the real ocs → fabric → scheduler → superpod stack through
//!    FRU failures, stuck mirrors, camera rejections, relock storms,
//!    preemptions and maintenance, re-checking the invariant library
//!    after every event. The honest control plane must come back
//!    violation-free, and the report is byte-identical at any
//!    `LIGHTWAVE_THREADS` (asserted in-process).
//! 2. **Planted defect** — the same hunt with the harness's
//!    flight-recorder poll disabled ([`InjectedBug::SkipFlightPoll`], a
//!    test-only hook). The first Critical incident without a postmortem
//!    dump is caught, and the offending schedule is delta-debugged to a
//!    1-minimal repro.
//! 3. **Repro artifacts** — the shrunk schedule lands in `--out-dir`
//!    (default `target/chaos`) as `chaos_repro.jsonl` (runnable, see
//!    README). The repro is re-parsed and replayed before the run
//!    reports success: same violation, from the bytes on disk.

use lightwave::chaos::{
    hunt, parse_repro, shrink, write_repro, ChaosConfig, FaultSchedule, HuntConfig, InjectedBug,
};
use lightwave::par::Pool;
use std::path::PathBuf;

const SEED: u64 = 2024;

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn out_dir() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/chaos"))
}

fn main() {
    let smoke = flag("--smoke");
    let schedules: u64 = if smoke { 50 } else { 500 };
    let pool = Pool::from_env();
    println!(
        "== chaos hunt: seed {SEED}, {schedules} schedules, {} worker(s) ==",
        pool.threads()
    );

    // Act 1: the honest control plane survives the full fault menu.
    let clean_cfg = HuntConfig {
        seed: SEED,
        schedules,
        chaos: ChaosConfig::default(),
    };
    let clean = hunt(&pool, &clean_cfg);
    print!("{}", clean.table());
    assert!(
        clean.violations().next().is_none(),
        "the honest control plane must be violation-free"
    );
    // Thread-count invariance, checked every run (the smoke gate).
    let serial = hunt(&Pool::new(1), &clean_cfg);
    let quad = hunt(&Pool::new(4), &clean_cfg);
    assert!(
        serial == clean && quad == clean,
        "report depends on thread count"
    );
    println!("thread-count invariance: 1 == 4 == {} ✓\n", pool.threads());

    // Act 2: plant a defect, catch it, shrink the catch.
    let bad_chaos = ChaosConfig {
        inject: Some(InjectedBug::SkipFlightPoll),
    };
    let bad = hunt(
        &pool,
        &HuntConfig {
            seed: SEED,
            schedules,
            chaos: bad_chaos,
        },
    );
    print!("{}", bad.table());
    let first = bad
        .violations()
        .next()
        .expect("the planted defect must be caught");
    let violation = first.violation.as_ref().expect("filtered");
    let full = FaultSchedule::generate(SEED, first.index);
    let shrunk = shrink(&full, &bad_chaos).expect("a violating schedule shrinks");
    println!(
        "first catch: schedule #{} ({} events) -> {} events after {} executor runs",
        first.index,
        shrunk.original_events,
        shrunk.schedule.events.len(),
        shrunk.runs
    );
    assert_eq!(shrunk.violation.invariant, violation.invariant);
    assert!(
        shrunk.schedule.events.len() <= 5,
        "minimal repros of this defect are tiny"
    );

    // Act 3: the artifact, then replay from the bytes on disk.
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create out dir");
    let repro_path = dir.join("chaos_repro.jsonl");
    let repro = write_repro(
        &shrunk.schedule,
        &bad_chaos,
        Some(shrunk.violation.invariant),
    );
    std::fs::write(&repro_path, &repro).expect("write repro");
    println!("wrote {}", repro_path.display());

    let parsed = parse_repro(&std::fs::read_to_string(&repro_path).expect("read repro"))
        .expect("repro parses");
    let replayed = parsed.replay();
    let violation = replayed
        .violation
        .expect("the JSONL repro must replay to a violation");
    assert_eq!(
        violation, shrunk.violation,
        "the JSONL repro must replay to the same violation"
    );
    println!("replayed from disk: {violation} ✓");
}
