//! Causal-trace postmortem: a fault mid-reconfiguration, replayed.
//!
//! ```text
//! cargo run --release --example trace_postmortem [-- --out-dir DIR]
//! ```
//!
//! Runs the instrumented §4.2.2 fault-recovery scenario: a 1024-chip job
//! placed on the fabric, a cube failure recovered by recomposing onto a
//! spare — and, mid-reconfiguration, both PSUs on one OCS die. Two
//! artifacts land in `--out-dir` (default `target/trace`):
//!
//! - `trace.json` — the full Chrome trace-event timeline. Open it at
//!   <https://ui.perfetto.dev>: switches, pods, and virtual workers are
//!   named lanes; drain → settle → verify → undrain chains render as
//!   flow arrows.
//! - `flight.jsonl` — the flight recorder's postmortem bundle, dumped
//!   the moment the chassis-down incident went Critical.
//!
//! Both files are validated in-process before the run reports success,
//! and both are byte-identical at any `LIGHTWAVE_THREADS`.

use lightwave::prelude::*;
use lightwave::run_traced_fault_recovery;
use lightwave::trace::validate::validate_chrome_trace;
use lightwave::trace::{to_chrome_trace, FlightDump};
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/trace"))
}

fn main() {
    println!("=== reconfiguration postmortem, traced ===\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create output directory");

    let pool = Pool::from_env();
    println!(
        "running the fault-recovery scenario ({} workers)...",
        pool.threads()
    );
    let out = run_traced_fault_recovery(11, &pool);

    println!(
        "  {} spans, {} instants on {} lanes",
        out.tracer.spans().len(),
        out.tracer.instants().len(),
        out.tracer.lanes().len()
    );
    println!(
        "  {} alarm(s) ingested, {} incident(s), Critical dumped: {:?}",
        out.telemetry.alarms.ingested(),
        out.telemetry.alarms.incidents().len(),
        out.dumped
    );
    assert!(
        !out.dumped.is_empty(),
        "the chassis-down Critical must trigger a flight dump"
    );

    // The Perfetto timeline.
    let trace = to_chrome_trace(&out.tracer, &[], &Default::default());
    let stats = validate_chrome_trace(&trace).expect("export validates");
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, &trace).expect("write trace.json");
    println!(
        "\nwrote {} ({} events: {} spans, {} flows, {} instants)",
        trace_path.display(),
        stats.total(),
        stats.complete,
        stats.flows,
        stats.instants
    );

    // The flight-recorder postmortem bundle.
    let dump = out.recorder.latest_dump().expect("dump taken");
    let jsonl = dump.to_jsonl();
    let read = FlightDump::from_jsonl(&jsonl).expect("the bundle reads back");
    assert_eq!(&read, dump, "the bundle reads back as the dump it was");
    let lines = jsonl.lines().count();
    let flight_path = dir.join("flight.jsonl");
    std::fs::write(&flight_path, &jsonl).expect("write flight.jsonl");
    println!(
        "wrote {} (incident {}, {} entries, {} JSONL lines)",
        flight_path.display(),
        dump.incident,
        dump.entries.len(),
        lines
    );

    println!("\nopen the timeline: https://ui.perfetto.dev → Open trace file → trace.json");
}
