//! Fleet-health analytics end to end: streaming detectors catch slow
//! degradation before it becomes an outage.
//!
//! ```text
//! cargo run --release --example fleet_health [-- --smoke] [-- --out-dir DIR]
//! ```
//!
//! Five acts:
//!
//! 1. **Degradation corpus** — seeded slow-degradation schedules
//!    ([`FaultSchedule::generate_degradation`]): optical loss creeping up
//!    25–40 mdb at a time, or transceivers flapping a few times per
//!    detector window. Every schedule ends in the hard failure the creep
//!    foreshadows; the CUSUM / rate-spike detectors must trip **before**
//!    the Critical lands, and the lead time is reported.
//! 2. **Clean corpus** — the uniform chaos-fault corpus from
//!    `chaos_hunt`, which contains spare swaps, FRU failures and relock
//!    storms but no *trends*. The detectors must stay silent: zero trips
//!    across the whole corpus, at any worker count.
//! 3. **Determinism** — the corpus's health dashboards and JSONL reports
//!    are rendered on 1-thread and 4-thread pools in-process and must be
//!    byte-identical (the artifacts written below are `cmp`'d across
//!    `LIGHTWAVE_THREADS` values in CI).
//! 4. **Artifacts** — schedule 0's dashboard is printed; its JSONL
//!    report (`fleet_health.jsonl`), Perfetto trace with counter tracks
//!    (`fleet_health_trace.json`, openable at <https://ui.perfetto.dev>)
//!    and the postmortem bundle with embedded counter history
//!    (`fleet_postmortem.jsonl`) land in `--out-dir` (default
//!    `target/fleet_health`). All three come from one run and name the
//!    degrading switch by one id: a `Switch` row, counter tracks labelled
//!    `switch=N`, and the bundle header's `switch`.
//! 5. **Preempt vs react** — the maintenance-advisor availability model:
//!    a year of the production pod with 90% detector recall turning 30 s
//!    emergency swaps into 5 s planned drains.

use lightwave::availability::timeline::{simulate_preempt, PreemptParams};
use lightwave::chaos::{run_schedule, run_schedule_world, FaultSchedule};
use lightwave::par::Pool;
use lightwave::telemetry::health::HealthJsonl;
use lightwave::telemetry::Severity;
use lightwave::trace::validate::validate_chrome_trace;
use lightwave::trace::{to_chrome_trace, FlightDump};
use lightwave::units::Nanos;
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
        .unwrap_or_else(|| PathBuf::from("target/fleet_health"))
}

/// First Critical incident time in a finished world, if any.
fn first_critical(world: &lightwave::chaos::World) -> Option<Nanos> {
    world
        .telemetry
        .alarms
        .incidents()
        .iter()
        .filter(|i| i.severity == Severity::Critical)
        .map(|i| i.last_at)
        .min()
}

fn main() {
    let smoke = flag("--smoke");
    let degradations: u64 = if smoke { 8 } else { 24 };
    let clean: u64 = if smoke { 50 } else { 200 };
    let pool = Pool::from_env();
    println!(
        "== fleet health: seed {SEED}, {degradations} degradation + {clean} clean schedules, {} worker(s) ==",
        pool.threads()
    );

    // Act 1: every slow-degradation schedule trips a detector before the
    // hard failure it foreshadows.
    let mut lead_ms = Vec::new();
    for index in 0..degradations {
        let schedule = FaultSchedule::generate_degradation(SEED, index);
        let (outcome, world) = run_schedule_world(&schedule, None);
        assert!(
            outcome.violation.is_none(),
            "degradation schedule #{index} violated an invariant: {:?}",
            outcome.violation
        );
        assert!(
            outcome.trend_trips >= 1,
            "degradation schedule #{index} was not detected"
        );
        let trip = world.health.first_trip_at().expect("tripped");
        let critical = first_critical(&world).expect("every schedule ends in a Critical");
        assert!(
            trip < critical,
            "schedule #{index}: trip at {trip:?} did not precede Critical at {critical:?}"
        );
        lead_ms.push(critical.saturating_sub(trip).as_millis_f64());
    }
    let avg_lead = lead_ms.iter().sum::<f64>() / lead_ms.len() as f64;
    let min_lead = lead_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "act 1: {degradations}/{degradations} degradations caught before failure \
         (lead time avg {avg_lead:.0} ms, min {min_lead:.0} ms) ✓"
    );

    // Act 2: the clean corpus has incidents but no trends — zero trips.
    let indices: Vec<u64> = (0..clean).collect();
    let trips_on = |p: &Pool| {
        p.map_reduce(
            &indices,
            |i, _| run_schedule(&FaultSchedule::generate(SEED, *i), None).trend_trips as u64,
            |a, b| a + b,
        )
        .0
        .expect("non-empty corpus")
    };
    let trips = trips_on(&pool);
    assert_eq!(trips, 0, "false positives on the clean corpus");
    println!("act 2: 0 detector trips across {clean} clean schedules ✓");

    // Act 3: health exports are a pure function of the schedule — the
    // worker count must not leak into a single byte.
    let render_on = |p: &Pool| {
        let deg: Vec<u64> = (0..degradations).collect();
        p.map_reduce(
            &deg,
            |i, _| {
                let (_, w) =
                    run_schedule_world(&FaultSchedule::generate_degradation(SEED, *i), None);
                let now = w.now();
                format!("{}{}", w.health.dashboard(now), w.health.to_jsonl(now))
            },
            |a, b| a + &b,
        )
        .0
        .expect("non-empty corpus")
    };
    let serial = render_on(&Pool::new(1));
    let quad = render_on(&Pool::new(4));
    assert!(serial == quad, "health exports depend on thread count");
    println!(
        "act 3: dashboards + JSONL byte-identical at 1 == 4 workers ({} bytes) ✓",
        serial.len()
    );

    // Act 4: artifacts from the first loss-creep schedule, re-validated
    // from the bytes on disk.
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create out dir");
    let (_, world) = run_schedule_world(&FaultSchedule::generate_degradation(SEED, 0), None);
    let now = world.now();

    print!("{}", world.health.dashboard(now));
    let jsonl = world.health.to_jsonl(now);
    let lines = HealthJsonl::from_jsonl(&jsonl)
        .expect("the health log reads back")
        .len();
    std::fs::write(dir.join("fleet_health.jsonl"), &jsonl).expect("write jsonl");

    let trace = to_chrome_trace(
        &world.tracer,
        &world.health.counter_tracks(),
        &Default::default(),
    );
    let stats = validate_chrome_trace(&trace).expect("trace validates");
    assert!(stats.counters > 0, "counter tracks made it into the trace");
    std::fs::write(dir.join("fleet_health_trace.json"), &trace).expect("write trace");

    let dump = world
        .recorder
        .latest_dump()
        .expect("the FPGA death dumped a postmortem");
    assert!(
        !dump.counters.is_empty(),
        "postmortem embeds the blast-radius counter history"
    );
    let postmortem = dump.to_jsonl();
    let read = FlightDump::from_jsonl(&postmortem).expect("the postmortem reads back");
    assert_eq!(&read, dump, "the postmortem reads back as the dump it was");
    std::fs::write(dir.join("fleet_postmortem.jsonl"), &postmortem).expect("write postmortem");
    println!(
        "act 4: wrote {} ({} JSONL lines, {} counter events, {} postmortem samples)",
        dir.display(),
        lines,
        stats.counters,
        dump.counters.len()
    );

    // Act 5: what detection is worth — a year of the production pod.
    let params = PreemptParams::production_year();
    let report =
        simulate_preempt(&params, SEED).expect("the production year is a runnable timeline");
    let saved_pct = 100.0 * (1.0 - report.preemptive.down_hours / report.reactive.down_hours);
    println!(
        "act 5: preempt vs react, production year (recall {:.0}%):",
        params.detector_recall * 100.0
    );
    println!(
        "  reactive:   delivered {:.6}, {:6.2} slice-down hours over {} failures",
        report.reactive.delivered, report.reactive.down_hours, report.reactive.failures
    );
    println!(
        "  preemptive: delivered {:.6}, {:6.2} slice-down hours ({} caught early)",
        report.preemptive.delivered, report.preemptive.down_hours, report.caught
    );
    println!("  unplanned downtime cut by {saved_pct:.0}%");
    assert!(report.preemptive.down_hours < report.reactive.down_hours);
    println!("\nfleet health: all acts passed ✓");
}
