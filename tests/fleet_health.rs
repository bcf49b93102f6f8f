//! The fleet-health analytics oracle (DESIGN.md §6.4), end to end
//! against the chaos harness:
//!
//! - every seeded slow-degradation schedule trips a streaming detector
//!   **before** the hard failure it foreshadows reaches Critical;
//! - the uniform 200-schedule clean corpus — spare swaps, FRU deaths,
//!   relock storms, but no trends — produces **zero** detector trips;
//! - health reports, dashboards and JSONL exports are byte-identical at
//!   1 and 4 worker threads;
//! - the postmortem bundle for a degradation-driven Critical embeds the
//!   blast-radius counter history.

use lightwave::chaos::{run_schedule, run_schedule_world, FaultSchedule, World};
use lightwave::par::Pool;
use lightwave::telemetry::health::HealthJsonl;
use lightwave::telemetry::Severity;
use lightwave::trace::validate::validate_chrome_trace;
use lightwave::trace::{to_chrome_trace, FlightDump};
use lightwave::units::Nanos;

/// The pinned oracle seed, shared with `tests/chaos_determinism.rs`.
const SEED: u64 = 2024;

fn first_critical(world: &World) -> Option<Nanos> {
    world
        .telemetry
        .alarms
        .incidents()
        .iter()
        .filter(|i| i.severity == Severity::Critical)
        .map(|i| i.last_at)
        .min()
}

#[test]
fn every_degradation_schedule_is_caught_before_the_hard_failure() {
    for index in 0..16u64 {
        let schedule = FaultSchedule::generate_degradation(SEED, index);
        let (outcome, world) = run_schedule_world(&schedule, None);
        assert!(
            outcome.violation.is_none(),
            "schedule #{index}: {:?}",
            outcome.violation
        );
        assert!(outcome.trend_trips >= 1, "schedule #{index} undetected");
        let trip = world.health.first_trip_at().expect("tripped");
        let critical = first_critical(&world)
            .unwrap_or_else(|| panic!("schedule #{index} must end in a Critical"));
        assert!(
            trip < critical,
            "schedule #{index}: trip {trip:?} vs Critical {critical:?}"
        );
    }
}

#[test]
fn clean_corpus_produces_zero_detector_trips() {
    // The uniform generator's fault menu includes spare-consuming mirror
    // failures (a legitimate single-step loss jump), FRU deaths and
    // relock storms — incidents, not trends. 200 schedules, no trips.
    let indices: Vec<u64> = (0..200).collect();
    let (total, _) = Pool::from_env().map_reduce(
        &indices,
        |i, _| {
            let out = run_schedule(&FaultSchedule::generate(SEED, *i), None);
            assert!(
                out.violation.is_none(),
                "schedule #{i}: {:?}",
                out.violation
            );
            out.trend_trips as u64
        },
        |a, b| a + b,
    );
    assert_eq!(total.expect("corpus non-empty"), 0, "false positives");
}

#[test]
fn health_exports_are_byte_identical_across_thread_counts() {
    let render_on = |threads: usize| {
        let indices: Vec<u64> = (0..8).collect();
        Pool::new(threads)
            .map_reduce(
                &indices,
                |i, _| {
                    let (_, w) =
                        run_schedule_world(&FaultSchedule::generate_degradation(SEED, *i), None);
                    let now = w.now();
                    let report = serde_json::to_string(&w.health.report(now)).expect("serializes");
                    format!(
                        "{report}\n{}\n{}",
                        w.health.dashboard(now),
                        w.health.to_jsonl(now)
                    )
                },
                |a, b| a + &b,
            )
            .0
            .expect("non-empty")
    };
    let serial = render_on(1);
    let quad = render_on(4);
    assert!(serial == quad, "health exports depend on thread count");
    assert!(serial.contains("\"fleet_score\""), "report serialized");
}

#[test]
fn degradation_postmortem_embeds_counter_history_and_trace_validates() {
    // Index 0 is the pinned loss-creep family (even parity): CUSUM trip,
    // then the FPGA dies and the recorder dumps.
    let (_, world) = run_schedule_world(&FaultSchedule::generate_degradation(SEED, 0), None);
    let dump = world.recorder.latest_dump().expect("Critical dumped");
    assert!(!dump.counters.is_empty(), "counter history embedded");
    let bundle = dump.to_jsonl();
    let read = FlightDump::from_jsonl(&bundle).expect("the postmortem reads back");
    assert_eq!(&read, dump);
    assert_eq!(
        read.to_jsonl(),
        bundle,
        "read and written again, the same bytes"
    );

    let trace = to_chrome_trace(
        &world.tracer,
        &world.health.counter_tracks(),
        &Default::default(),
    );
    let stats = validate_chrome_trace(&trace).expect("trace validates");
    assert!(stats.counters > 0, "counter tracks exported");

    let jsonl = world.health.to_jsonl(world.now());
    let records = HealthJsonl::from_jsonl(&jsonl).expect("the health log reads back");
    assert!(records.len() >= 2);
    let rewritten: String = records
        .iter()
        .map(|record| serde_json::to_string(record).expect("serializes") + "\n")
        .collect();
    assert_eq!(rewritten, jsonl, "read and written again, the same bytes");
}
