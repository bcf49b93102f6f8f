//! The chaos harness's determinism contract (DESIGN.md §6.3),
//! round-tripped end to end:
//!
//! - hunt reports and shrunk repros are byte-identical at 1 and 4
//!   worker threads (`LIGHTWAVE_THREADS` invariance);
//! - a ≥200-schedule corpus over the honest control plane is
//!   violation-free;
//! - a documented known-bad schedule (a planted harness defect) is
//!   caught, delta-debugged to ≤5 events, and replayed to the same
//!   violation from its emitted JSONL repro.

use lightwave::chaos::{
    hunt, parse_repro, run_schedule, shrink, write_repro, FaultKind, FaultSchedule, HuntConfig,
    InjectedBug, InvariantKind,
};
use lightwave::par::Pool;

/// The pinned hunt seed; every assertion below is a pure function of it.
const SEED: u64 = 2024;

fn run_hunt(threads: usize, schedules: u64, inject: Option<InjectedBug>) -> String {
    let report = hunt(
        &Pool::new(threads),
        &HuntConfig {
            seed: SEED,
            schedules,
            inject,
        },
        FaultSchedule::generate,
    );
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn violation_reports_are_byte_identical_across_thread_counts() {
    for inject in [
        None,
        Some(InjectedBug::SkipFlightPoll),
        Some(InjectedBug::SkipAdmissionRevoke),
    ] {
        let serial = run_hunt(1, 40, inject);
        let quad = run_hunt(4, 40, inject);
        assert!(
            serial == quad,
            "{inject:?}: hunt report depends on thread count"
        );
    }
}

#[test]
fn shrunk_repros_are_byte_identical_across_thread_counts() {
    let inject = Some(InjectedBug::SkipFlightPoll);
    let mut repros = Vec::new();
    for threads in [1usize, 4] {
        let report = hunt(
            &Pool::new(threads),
            &HuntConfig {
                seed: SEED,
                schedules: 40,
                inject,
            },
            FaultSchedule::generate,
        );
        let first = report.violations().next().expect("planted defect caught");
        let shrunk = shrink(&FaultSchedule::generate(SEED, first.index), inject)
            .expect("a violating schedule shrinks");
        repros.push(write_repro(
            &shrunk.schedule,
            inject,
            Some(shrunk.violation.invariant),
        ));
    }
    assert!(
        repros[0] == repros[1],
        "shrunk repro bytes depend on thread count"
    );
}

#[test]
fn two_hundred_schedule_corpus_is_violation_free() {
    let report = hunt(
        &Pool::new(4),
        &HuntConfig {
            seed: SEED,
            schedules: 200,
            inject: None,
        },
        FaultSchedule::generate,
    );
    assert_eq!(report.outcomes.len(), 200);
    if let Some(bad) = report.violations().next() {
        panic!(
            "honest control plane violated an invariant: {}",
            bad.violation.as_ref().expect("filtered")
        );
    }
    // The corpus exercised real control-plane work, not vacuous no-ops.
    let composes: u32 = report.outcomes.iter().map(|o| o.composes).sum();
    let releases: u32 = report.outcomes.iter().map(|o| o.releases).sum();
    let dumps: u32 = report.outcomes.iter().map(|o| o.critical_dumps).sum();
    let alarms: u64 = report.outcomes.iter().map(|o| o.alarms).sum();
    assert!(composes > 200, "corpus composes slices ({composes})");
    assert!(releases > 50, "corpus releases slices ({releases})");
    assert!(dumps > 10, "corpus drives Critical incidents ({dumps})");
    assert!(alarms > 500, "corpus raises alarms ({alarms})");
}

#[test]
fn known_bad_schedule_is_caught_shrunk_and_replayed() {
    // The documented known-bad schedule: hunt seed 2024, index 8. Its
    // event #10 is `FailFru { ocs: 29, slot: 15 }` — an FPGA death,
    // which downs the chassis and raises a Critical incident. With the
    // harness's flight-recorder poll planted off (a test-only hook,
    // not product code), invariant (c) — every Critical incident has
    // exactly one flight dump — fires on that event.
    let inject = Some(InjectedBug::SkipFlightPoll);
    let bad_event = FaultKind::FailFru { ocs: 29, slot: 15 };
    let s = FaultSchedule::generate(SEED, 8);
    assert!(
        s.events.contains(&bad_event),
        "the documented trigger is in the generated schedule: {:?}",
        s.events
    );
    let out = run_schedule(&s, inject);
    let v = out.violation.expect("the planted defect is caught");
    assert_eq!(v.invariant, InvariantKind::CriticalWithoutDump);
    // The honest control plane passes the identical schedule.
    assert!(
        run_schedule(&s, None).violation.is_none(),
        "only the planted defect violates"
    );
    // Delta-debugging strips the schedule to the single essential event.
    let shrunk = shrink(&s, inject).expect("violating schedule shrinks");
    assert!(
        shrunk.schedule.events.len() <= 5,
        "minimal repro has {} events",
        shrunk.schedule.events.len()
    );
    assert_eq!(shrunk.schedule.events, vec![bad_event]);
    // And the emitted JSONL replays to the same violation.
    let text = write_repro(&shrunk.schedule, inject, Some(shrunk.violation.invariant));
    let repro = parse_repro(&text).expect("emitted repro parses");
    assert_eq!(repro.invariant, Some(InvariantKind::CriticalWithoutDump));
    let replayed = repro.replay();
    assert_eq!(
        replayed.violation,
        Some(shrunk.violation),
        "replay from JSONL reproduces the exact violation"
    );
}
