//! The tracing determinism contract (DESIGN.md §6.2), round-tripped:
//! the instrumented fault-recovery scenario run twice with the same seed
//! at 1 and at 4 workers must export byte-identical artifacts — the
//! Chrome trace-event JSON *and* the flight-recorder postmortem bundle.

use lightwave::par::Pool;
use lightwave::run_traced_fault_recovery;
use lightwave::trace::to_chrome_trace;
use lightwave::units::Nanos;
use lightwave_bench::artifacts::fnv1a64;

fn artifacts(threads: usize) -> (String, String) {
    let out = run_traced_fault_recovery(11, &Pool::new(threads));
    let trace = to_chrome_trace(&out.tracer);
    let flight = out
        .recorder
        .latest_dump()
        .expect("the Critical incident dumps")
        .to_jsonl();
    (trace, flight)
}

#[test]
fn trace_json_is_byte_identical_at_1_and_4_workers() {
    let (trace1, flight1) = artifacts(1);
    let (trace4, flight4) = artifacts(4);
    assert!(
        trace1 == trace4,
        "trace.json must not depend on worker count"
    );
    assert!(
        flight1 == flight4,
        "flight.jsonl must not depend on worker count"
    );
    // And rerunning at the same width is exactly reproducible too.
    let (trace1b, _) = artifacts(1);
    assert!(trace1 == trace1b, "same seed, same bytes");
}

#[test]
fn exported_artifacts_validate() {
    use lightwave::trace::validate::{validate_chrome_trace, validate_flight_jsonl};
    let (trace, flight) = artifacts(2);
    let stats = validate_chrome_trace(&trace).expect("trace validates");
    assert!(stats.complete > 50, "a real timeline, not a stub");
    assert!(stats.flows > 0, "phase chains render as flow arrows");
    assert!(stats.instants > 0, "the PSU fault mark is present");
    let lines = validate_flight_jsonl(&flight).expect("bundle parses");
    assert!(lines > 10, "a real postmortem bundle");
}

/// The scenario's three artifacts, captured at `5863c20` (before the
/// lower-layer `*_traced` twins were deleted): span ids depend on
/// allocation order, so the Chrome trace is held byte for byte — it is
/// the file `trace_postmortem` writes — and the flight bundle and the
/// telemetry export by length and hash. Re-captured once since (PR 23):
/// the trace opens with a `schema` member and the bundle's header line
/// with `schema` and `switch`; every other byte is that capture's.
#[test]
fn artifacts_match_the_parent_capture() {
    let pinned = include_str!("vectors/lower_seam/trace.json");
    for threads in [1, 4] {
        let out = run_traced_fault_recovery(11, &Pool::new(threads));
        assert!(
            to_chrome_trace(&out.tracer) == pinned,
            "trace.json moved at {threads} workers"
        );
        let flight = out.recorder.latest_dump().expect("dumped").to_jsonl();
        assert_eq!(
            (flight.len(), fnv1a64(flight.as_bytes())),
            (39_264, 0x64a38fdb204b2d31),
            "flight.jsonl moved at {threads} workers"
        );
        // The scenario ends at 600 ms of sim time.
        let telemetry = out.telemetry.to_jsonl(Nanos::from_millis(600));
        assert_eq!(
            (telemetry.len(), fnv1a64(telemetry.as_bytes())),
            (78_182, 0xc3e63e2ad9026e25),
            "telemetry JSONL moved at {threads} workers"
        );
    }
}
