//! Versioned documents are input from outside the program (ROADMAP 2b):
//! a parser may refuse one, it may never panic on one.
//!
//! Six readers so far (lwbench's golden and snapshot readers are the
//! seventh, and sit on the same JSON parser), all but the intent fed
//! arbitrary strings and valid documents with one scalar replaced:
//!
//! - [`CampusHealthDoc::from_json`] (`lightwave/campus-health/v2`);
//! - [`HistogramSnapshot`] / [`ExemplarSnapshot`] and their `restore`,
//!   which rebuild the dense histogram a snapshot describes — `None` for
//!   a bucket exponent outside `−128..=127`, a repeated exponent, counts
//!   that do not sum, a `min`/`max` outside the listed buckets, or
//!   exemplars without their bucket;
//! - [`parse_repro`] (`lightwave/chaos-repro/v2`) and [`Repro::replay`],
//!   which runs what was parsed through the real control plane: a
//!   document the parser accepts replays to an outcome whatever switch,
//!   slot, port or count its events name — the executor rejects an event
//!   on hardware its world does not have, and counts it;
//! - [`validate_chrome_trace`], the validator under every trace the
//!   artifact reader opens;
//! - [`FlightDump::from_jsonl`] (`lightwave/flight/v1`) and
//!   [`HealthJsonl::from_jsonl`] (`lightwave/fleet-health/v2`), the
//!   readers beside the two JSONL writers: a bundle or a health log is
//!   read only as its header declares it, line for line;
//! - [`SliceIntent::validate`], the service's only ingress type, and
//!   [`ServiceCore::submit`] behind it: every field at its edges is refused
//!   or served on a live pod, in both build profiles alike.
//!
//! Under all of them the JSON parser refuses nesting past 128 levels: a
//! document of 100 000 open brackets used to overflow the stack and abort
//! the process from any of these entry points.

use lightwave::chaos::{
    parse_repro, write_repro, FaultKind, FaultSchedule, Repro, ScheduleOutcome,
};
use lightwave::service::{
    IntentError, PolicyConfig, Priority, RejectReason, ServiceCore, ServiceEvent, SliceIntent,
};
use lightwave::superpod::slice::ShapeError;
use lightwave::superpod::Superpod;
use lightwave::telemetry::health::HealthJsonl;
use lightwave::telemetry::rollup::{CampusHealthDoc, PortPath, RollupTree};
use lightwave::telemetry::{
    AlarmCause, AlarmRecord, BurnRateLedger, ExemplarHistogram, ExemplarSnapshot, FleetHealth,
    FleetTelemetry, HistogramSnapshot, SeriesStore, Severity,
};
use lightwave::trace::validate::validate_chrome_trace;
use lightwave::trace::{to_chrome_trace, FlightDump, FlightRecorder, Lane, SpanKind, Tracer};
use lightwave::units::Nanos;
use proptest::prelude::*;

/// Runs every reader over `text`; the only thing asserted is that each
/// returns. What a reader accepted is then used the way a consumer would.
fn read_everything(text: &str) {
    if let Ok(doc) = CampusHealthDoc::from_json(text) {
        let _ = (doc.to_json(), doc.top_burners(3), doc.dominant_cause());
        let _ = doc.pod(0).and(doc.switch(0, 1));
    }
    if let Ok(snap) = serde_json::from_str::<HistogramSnapshot>(text) {
        if let Some(h) = snap.restore() {
            let _ = (h.quantile(0.5), h.quantile_bucket(0.99));
            assert_eq!(h.snapshot().restore(), Some(h), "restore is lossless");
        }
    }
    if let Ok(snap) = serde_json::from_str::<ExemplarSnapshot>(text) {
        if let Some(h) = snap.restore() {
            let _ = (h.quantile(0.5), h.quantile_exemplar(0.99));
        }
    }
    if let Ok(repro) = parse_repro(text) {
        let outcome = repro.replay();
        assert!(outcome.events_applied as usize <= repro.schedule.events.len());
    }
    if let Ok(stats) = validate_chrome_trace(text) {
        let _ = stats.total();
    }
    if let Ok(dump) = FlightDump::from_jsonl(text) {
        let _ = (dump.to_jsonl(), dump.entries.len(), dump.counters.len());
    }
    if let Ok(records) = HealthJsonl::from_jsonl(text) {
        for record in &records {
            let _ = serde_json::to_string(record).expect("a record read serializes");
        }
    }
}

/// A trace export with every event phase in it (metadata, spans, a flow
/// pair, an instant, counter samples, an exemplar flag) and the flight
/// bundle of the Critical on its switch, counter history included.
fn trace_and_flight() -> (String, String) {
    let mut tracer = Tracer::new(11);
    let custom = |name: &str| SpanKind::Custom {
        name: name.to_string(),
    };
    let root = tracer.span(Lane::Control, None, Nanos(0), Nanos(5_000), custom("root"));
    let a = tracer.span(
        Lane::Switch(4),
        Some(root),
        Nanos(0),
        Nanos(2_000),
        custom("a"),
    );
    let b = tracer.span(
        Lane::Switch(4),
        Some(root),
        Nanos(2_000),
        Nanos(5_000),
        custom("b"),
    );
    tracer.link_follows(b, a);
    tracer.instant(Lane::Switch(4), Nanos(1_000), "alarm");
    let mut store = SeriesStore::default();
    let drift = store.series("health_port_drift_db", &[("port", "3"), ("switch", "4")]);
    store.push_micros(drift, Nanos(1_000), 30_000);
    store.push_micros(drift, Nanos(2_000), -60_000);
    let mut telemetry = FleetTelemetry::new();
    telemetry.ingest_alarm(AlarmRecord {
        at: Nanos(2_500),
        severity: Severity::Critical,
        switch: 4,
        cause: AlarmCause::ChassisDown,
    });
    let mut recorder = FlightRecorder::new(16);
    recorder.poll(&tracer, &telemetry, &store);
    let flight = recorder.latest_dump().expect("dumped").to_jsonl();
    let exemplars = [a.0].into_iter().collect();
    let trace = to_chrome_trace(&tracer, &store.tracks(), &exemplars);
    (trace, flight)
}

/// A health log with every record kind in it: the `Meta` line, a
/// `Switch` row, its `Action` and the detector trips of a creeping port.
fn health_log() -> String {
    let mut health = FleetHealth::default();
    let mut sink = FleetTelemetry::new();
    for i in 1..=8u64 {
        let drift_db = i as f64 * 0.03;
        health.ingest_drift(&mut sink, Nanos::from_millis(i * 100), 4, true, 3, drift_db);
    }
    health.to_jsonl(Nanos::from_secs_f64(2.0))
}

/// A short schedule with every [`FaultKind`] in it, on a pod that has
/// live slices when the faults land.
fn repro_events() -> Vec<FaultKind> {
    vec![
        FaultKind::Compose { cubes: 2 },
        FaultKind::Arrival { nth: 0 },
        FaultKind::Advance { millis: 60 },
        FaultKind::FailFru { ocs: 3, slot: 7 },
        FaultKind::FailMirror {
            ocs: 0,
            north: true,
            port: 0,
        },
        FaultKind::DegradeMirror {
            ocs: 16,
            north: false,
            port: 9,
            mdb: 30,
        },
        FaultKind::VerifyReject { ocs: 0 },
        FaultKind::LinkFlap { ocs: 5, port: 2 },
        FaultKind::RelockStorm { ocs: 5, ports: 3 },
        FaultKind::Maintenance { ocs: 17, slot: 6 },
        FaultKind::ReplaceFru { ocs: 3, slot: 7 },
        FaultKind::Compose { cubes: 1 },
        FaultKind::Release { nth: 0 },
        FaultKind::Preempt,
        FaultKind::Advance { millis: 400 },
    ]
}

fn repro_text(events: Vec<FaultKind>) -> String {
    let schedule = FaultSchedule {
        seed: 21,
        index: 4,
        events,
    };
    write_repro(&schedule, None, None)
}

/// Through the document, the way a repro reaches the executor.
fn replay(events: Vec<FaultKind>) -> ScheduleOutcome {
    let repro: Repro = parse_repro(&repro_text(events)).expect("a written repro parses");
    repro.replay()
}

fn campus_doc() -> String {
    let mut tree = RollupTree::new();
    tree.record("relocks", PortPath::new(0, 1, 4), Nanos(5), 1.0);
    tree.record("drift_db", PortPath::new(1, 0, 0), Nanos(7), -0.25);
    let mut burn = BurnRateLedger::default();
    burn.observe(Nanos(0), 0, true);
    burn.observe(Nanos(40), 1, false);
    CampusHealthDoc::build(&tree, burn.assess(Nanos(100)), Nanos(100)).to_json()
}

fn exemplar_histogram() -> ExemplarHistogram {
    let mut h = ExemplarHistogram::new();
    for (i, v) in [1e-6, 3e-6, 0.5, 0.0, 42.0, 47.5].into_iter().enumerate() {
        h.record(v, i as u64, 100 + i as u64);
    }
    h
}

/// Byte spans of every scalar token of a JSON text: string literals
/// (keys included, quotes included), numbers, `true`/`false`/`null`.
fn scalar_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += 1 + usize::from(bytes[i] == b'\\');
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' | b'a'..=b'z' => {
                while i < bytes.len() && !b",:]} \n".contains(&bytes[i]) {
                    i += 1;
                }
            }
            _ => {
                i += 1;
                continue;
            }
        }
        spans.push(start..i);
    }
    spans
}

/// What a scalar is replaced with: out-of-range and wrong-sign numbers,
/// wrong types, the two exponents of the `restore` bug report, a number
/// past `f64`'s range, a leading zero, and a key named twice (in a key's
/// place; in a value's it is malformed).
const REPLACEMENTS: [&str; 16] = [
    "200",
    "-300",
    "-1",
    "0",
    "40000",
    "18446744073709551616",
    "1e400",
    "01",
    r#""k":0,"k""#,
    "-0.5",
    "null",
    "true",
    "\"x\"",
    "\"\"",
    "[]",
    "{}",
];

#[test]
fn out_of_range_bucket_exponents_are_refused_not_indexed() {
    // The two documents of the bug report: 200 indexed past the dense
    // table, -300 wrapped to a huge index.
    for exp in ["200", "-300"] {
        let text =
            format!(r#"{{"count":1,"nonfinite":0,"min":1.5,"max":1.5,"buckets":[[{exp},1]]}}"#);
        let snap: HistogramSnapshot = serde_json::from_str(&text).expect("well-formed");
        assert_eq!(snap.restore(), None, "exponent {exp}");
    }
    let good = r#"{"count":1,"nonfinite":0,"min":1.5,"max":1.5,"buckets":[[0,1]]}"#;
    let snap: HistogramSnapshot = serde_json::from_str(good).expect("well-formed");
    assert_eq!(snap.restore().expect("in range").count(), 1);
}

#[test]
fn each_inconsistency_of_a_snapshot_is_refused() {
    let hist = exemplar_histogram();
    let good = hist.hist().snapshot();
    assert_eq!(good.restore().as_ref(), Some(hist.hist()));
    let bad = |edit: fn(&mut HistogramSnapshot)| {
        let mut snap = good.clone();
        edit(&mut snap);
        snap.restore()
    };
    assert_eq!(bad(|s| s.buckets[1].0 = s.buckets[0].0), None, "repeated");
    assert_eq!(bad(|s| s.buckets.swap(0, 1)), None, "not ascending");
    assert_eq!(bad(|s| s.count += 1), None, "counts do not sum");
    assert_eq!(bad(|s| s.min = None), None, "count without a range");
    assert_eq!(bad(|s| s.min = Some(1e9)), None, "min above max");
    assert_eq!(bad(|s| s.min = Some(-0.5)), None, "min not a sample");
    assert_eq!(bad(|s| s.min = Some(3e-6)), None, "min past bucket one");
    assert_eq!(bad(|s| s.max = Some(100.0)), None, "max past the last");
    assert_eq!(bad(|s| s.max = Some(f64::INFINITY)), None, "max infinite");
    assert_eq!(bad(|s| s.buckets.push((9, 0))), None, "empty bucket listed");

    let good = hist.snapshot();
    assert_eq!(good.restore(), Some(hist));
    let mut orphan = good.clone();
    orphan.exemplars[0].exp = 200;
    assert_eq!(orphan.restore(), None, "exemplar without its bucket");
    let mut wild = good;
    wild.counts.buckets[0].0 = 200;
    wild.exemplars[0].exp = 200;
    assert_eq!(wild.restore(), None, "exponent outside the bucket range");
}

#[test]
fn every_single_scalar_mutation_of_a_valid_document_returns() {
    let hist = exemplar_histogram();
    let (trace, flight) = trace_and_flight();
    let stats = validate_chrome_trace(&trace).expect("the export validates");
    assert_eq!((stats.complete, stats.flows, stats.counters), (3, 2, 2));
    let dump = FlightDump::from_jsonl(&flight).expect("the bundle reads back");
    assert_eq!((dump.entries.len(), dump.counters.len()), (3 + 1, 2));
    let health = health_log();
    let records = HealthJsonl::from_jsonl(&health).expect("the health log reads back");
    assert!(records.len() > 3, "{health}");
    let documents = [
        campus_doc(),
        serde_json::to_string(&hist.hist().snapshot()).expect("serializes"),
        serde_json::to_string(&hist.snapshot()).expect("serializes"),
        repro_text(repro_events()),
        trace,
        flight,
        health,
    ];
    let mut mutants = 0;
    for text in &documents {
        read_everything(text);
        for span in scalar_spans(text) {
            for replacement in REPLACEMENTS {
                let mutant = format!("{}{replacement}{}", &text[..span.start], &text[span.end..]);
                read_everything(&mutant);
                mutants += 1;
            }
        }
    }
    assert!(
        mutants > 8_000,
        "only {mutants} mutants: the spans were lost"
    );
}

/// A truncated JSON document is never a document, and a truncated bundle
/// or health log is never one either, even where the cut falls between
/// lines: its header declares the lines it has.
#[test]
fn a_trace_or_a_bundle_cut_short_anywhere_is_refused() {
    let (trace, flight) = trace_and_flight();
    for cut in 0..trace.len() {
        assert!(validate_chrome_trace(&trace[..cut]).is_err(), "byte {cut}");
    }
    // Only the last newline may go: a line cut just before its newline
    // is still that line.
    for cut in 0..flight.len() {
        let read = FlightDump::from_jsonl(&flight[..cut]);
        assert_eq!(
            read.is_ok(),
            cut == flight.len() - 1,
            "byte {cut}: {read:?}"
        );
    }
    let health = health_log();
    for cut in (0..health.len()).filter(|&cut| health.is_char_boundary(cut)) {
        let read = HealthJsonl::from_jsonl(&health[..cut]);
        assert_eq!(
            read.is_ok(),
            cut == health.len() - 1,
            "byte {cut}: {read:?}"
        );
    }
}

/// Read back and written again, a bundle and a health log are the bytes
/// their writers wrote (the parser reads floats exactly).
#[test]
fn a_bundle_and_a_health_log_read_back_write_the_same_bytes() {
    let (_, flight) = trace_and_flight();
    let dump = FlightDump::from_jsonl(&flight).expect("the bundle reads back");
    assert_eq!(dump.to_jsonl(), flight);
    let health = health_log();
    let records = HealthJsonl::from_jsonl(&health).expect("the health log reads back");
    let rewritten: String = records
        .iter()
        .map(|record| serde_json::to_string(record).expect("serializes") + "\n")
        .collect();
    assert_eq!(rewritten, health);
}

/// `"[".repeat(100_000)` and its object twin aborted the process with a
/// stack overflow from every reader in this file (and from lwbench's):
/// the parser under all of them recursed once per level, without a bound.
#[test]
fn nesting_past_the_bound_is_refused_by_every_reader_not_a_stack_overflow() {
    for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        let refused = validate_chrome_trace(&deep).unwrap_err();
        assert!(refused.contains("recursion limit exceeded"), "{refused}");
        let refused = FlightDump::from_jsonl(&deep).unwrap_err();
        assert!(refused.contains("recursion limit exceeded"), "{refused}");
        let refused = HealthJsonl::from_jsonl(&deep).unwrap_err();
        assert!(refused.contains("recursion limit exceeded"), "{refused}");
        assert!(parse_repro(&deep).is_err());
        assert!(CampusHealthDoc::from_json(&deep).is_err());
        assert!(serde_json::from_str::<HistogramSnapshot>(&deep).is_err());
        assert!(serde_json::from_str::<ExemplarSnapshot>(&deep).is_err());
        // Inside an otherwise valid document too.
        let nested = format!(r#"{{"displayTimeUnit":"ms","traceEvents":{deep}"#);
        assert!(validate_chrome_trace(&nested).is_err());
    }
    // What the bound leaves alone: nothing this repository writes nests
    // past ten levels.
    let (trace, flight) = trace_and_flight();
    assert!(validate_chrome_trace(&trace).is_ok() && FlightDump::from_jsonl(&flight).is_ok());
    assert!(HealthJsonl::from_jsonl(&health_log()).is_ok());
}

#[test]
fn a_repro_cut_short_anywhere_is_refused() {
    let text = repro_text(repro_events());
    assert_eq!(replay(repro_events()).violation, None);
    for cut in 0..text.len() - 1 {
        assert!(parse_repro(&text[..cut]).is_err(), "cut at byte {cut}");
    }
}

#[test]
fn a_repro_header_that_lies_is_refused() {
    let text = repro_text(repro_events());
    let n = repro_events().len();
    let with = |from: &str, to: &str| {
        assert!(text.contains(from), "{from}");
        parse_repro(&text.replacen(from, to, 1))
    };
    let count = format!("\"events\":{n}");
    for lie in [
        "0".to_string(),
        (n - 1).to_string(),
        (n + 1).to_string(),
        u64::MAX.to_string(), // was `Vec::with_capacity`: capacity overflow
        "18446744073709551616".to_string(),
        (1u64 << 40).to_string(), // was an allocation abort no test can catch
    ] {
        let refused = with(&count, &format!("\"events\":{lie}")).unwrap_err();
        assert!(
            refused.contains("declares") || refused.contains("bad header"),
            "{refused}"
        );
    }
    for (from, to) in [
        ("chaos-repro/v2", "chaos-repro/v1"),
        ("chaos-repro/v2", "chaos-repro/v3"),
        ("\"schema\"", "\"format\""),
    ] {
        let refused = with(from, to).unwrap_err();
        assert!(
            refused.contains("unsupported schema") || refused.contains("bad header"),
            "{refused}"
        );
    }
    assert!(with(&count, &count).is_ok());
}

/// `text` with the integer after the first `"key":` re-spelled by
/// `respell` (quoted, or written as a float).
fn respelled(text: &str, key: &str, respell: impl Fn(&str) -> String) -> String {
    let field = format!("\"{key}\":");
    let at = text
        .find(&field)
        .unwrap_or_else(|| panic!("{key} in {text}"))
        + field.len();
    let at = at + text[at..].bytes().take_while(|&b| b == b' ').count();
    let digits = text[at..].bytes().take_while(u8::is_ascii_digit).count();
    assert!(digits > 0, "{key} is an integer in {text}");
    format!(
        "{}{}{}",
        &text[..at],
        respell(&text[at..at + digits]),
        &text[at + digits..]
    )
}

/// A JSON integer is read as an integer, and a quoted one or a float is
/// not, in every reader: the parser once read `"7"` and `0.0` as integers
/// for any integer field, so a repro with `"seed":"7"` replayed.
#[test]
fn a_quoted_or_float_integer_is_refused_by_every_reader() {
    let quoted = |n: &str| format!("\"{n}\"");
    let float = |n: &str| format!("{n}.0");
    let repro = repro_text(repro_events());
    let health = health_log();
    let campus = campus_doc();
    assert!(parse_repro(&repro).is_ok() && HealthJsonl::from_jsonl(&health).is_ok());
    assert!(CampusHealthDoc::from_json(&campus).is_ok());
    for key in ["seed", "index", "events"] {
        for respell in [&quoted as &dyn Fn(&str) -> String, &float] {
            let err = parse_repro(&respelled(&repro, key, respell)).unwrap_err();
            assert!(err.contains("expected integer"), "{key}: {err}");
        }
    }
    for key in ["fleet_score", "switches", "generated_at"] {
        let err = HealthJsonl::from_jsonl(&respelled(&health, key, quoted)).unwrap_err();
        assert!(err.contains("expected integer"), "{key}: {err}");
        assert!(HealthJsonl::from_jsonl(&respelled(&health, key, float)).is_err());
    }
    for key in ["ports", "generated_at"] {
        assert!(CampusHealthDoc::from_json(&respelled(&campus, key, quoted)).is_err());
        assert!(CampusHealthDoc::from_json(&respelled(&campus, key, float)).is_err());
    }
}

/// The parser once read `1e400` as ∞, `01` as 1 and kept the first of two
/// values for one key; every reader now refuses all three.
#[test]
fn an_overflowing_number_a_leading_zero_or_a_repeated_key_is_refused_by_every_reader() {
    let huge = |_: &str| "1e400".to_string();
    let zero = |n: &str| format!("0{n}");
    let refused = |text: &str, key: &str, read: &dyn Fn(&str) -> bool| {
        let twice = |n: &str| format!("{n},\"{key}\":{n}");
        for respell in [&huge as &dyn Fn(&str) -> String, &zero, &twice] {
            let mutant = respelled(text, key, respell);
            assert!(!read(&mutant), "{key}: {mutant}");
        }
    };
    let repro = repro_text(repro_events());
    let health = health_log();
    let campus = campus_doc();
    for key in ["seed", "index", "events"] {
        refused(&repro, key, &|t| parse_repro(t).is_ok());
    }
    for key in ["fleet_score", "switches", "generated_at"] {
        refused(&health, key, &|t| HealthJsonl::from_jsonl(t).is_ok());
    }
    for key in ["ports", "generated_at"] {
        refused(&campus, key, &|t| CampusHealthDoc::from_json(t).is_ok());
    }
}

/// The six documents that once panicked the reader or its replay, each
/// named by where it panicked, and two maintenance events a replay once
/// dropped without counting them. On hardware the world does not have an
/// event is rejected: counted, and otherwise the outcome is the outcome
/// of the schedule without it.
#[test]
fn the_six_repro_documents_that_panicked_now_return() {
    // `Vec::with_capacity(header.events)`, repro.rs: capacity overflow.
    let lie = repro_text(vec![FaultKind::Preempt]).replacen(
        "\"events\":1",
        "\"events\":18446744073709551615",
        1,
    );
    assert!(parse_repro(&lie).unwrap_err().contains("declares"));

    let absent = [
        // `Chassis::fail_slot`, chassis.rs: index out of bounds.
        ("FailFru slot 16", FaultKind::FailFru { ocs: 3, slot: 16 }),
        // `Chassis::replace_slot`, chassis.rs: index out of bounds.
        (
            "ReplaceFru slot 16",
            FaultKind::ReplaceFru { ocs: 3, slot: 16 },
        ),
        // `expect("generator stays in range")`, executor.rs.
        ("FailFru ocs 48", FaultKind::FailFru { ocs: 48, slot: 0 }),
        // `MemsDie::fail_and_swap`, mems.rs: index out of bounds.
        (
            "FailMirror port 136",
            FaultKind::FailMirror {
                ocs: 0,
                north: true,
                port: 136,
            },
        ),
        // `MemsDie::degrade`, mems.rs: index out of bounds.
        (
            "DegradeMirror port 136",
            FaultKind::DegradeMirror {
                ocs: 0,
                north: false,
                port: 136,
                mdb: 30,
            },
        ),
        // `plan_replacement` refused these, and the replay returned
        // without counting the refusal.
        (
            "Maintenance slot 16",
            FaultKind::Maintenance { ocs: 3, slot: 16 },
        ),
        (
            "Maintenance ocs 48",
            FaultKind::Maintenance { ocs: 48, slot: 0 },
        ),
    ];
    let without = replay(repro_events());
    for (name, event) in absent {
        let mut events = repro_events();
        events.push(event);
        let with = replay(events);
        assert_eq!(
            with,
            ScheduleOutcome {
                events_applied: without.events_applied + 1,
                rejected: without.rejected + 1,
                ..without.clone()
            },
            "{name}"
        );
    }
}

/// Two more the suite below found: a repeated `Arrival` index tripped
/// `ServiceCore::submit`'s uniqueness assertion, and 4 296 maximal
/// `Advance`s (584 years) overflowed the sim clock.
#[test]
fn a_repeated_arrival_and_an_advance_past_the_horizon_are_rejected() {
    let without = replay(repro_events());
    let mut events = repro_events();
    events.push(FaultKind::Arrival { nth: 0 });
    let with = replay(events);
    assert_eq!(
        (with.rejected, with.svc_admitted, with.violation),
        (without.rejected + 1, without.svc_admitted, None)
    );

    let mut events = repro_events();
    let max = FaultKind::Advance { millis: u32::MAX };
    events.extend([max; 2_200]);
    events.push(FaultKind::Compose { cubes: 2 });
    let n = events.len() as u32;
    let outcome = replay(events);
    assert_eq!((outcome.events_applied, &outcome.violation), (n, &None));
    assert!(outcome.rejected > without.rejected, "{outcome:?}");
    assert_eq!(outcome.composes, without.composes + 1);
}

/// Every integer field of every event at 0, at the last value its
/// generator draws, one past it, at the hardware's edge where that is
/// further out, and at its type's maximum.
#[test]
fn every_fault_field_at_its_edges_replays_to_an_outcome() {
    const U8: u64 = u8::MAX as u64;
    const U16: u64 = u16::MAX as u64;
    let ocs = [0, 47, 48, U8];
    let slot = [0, 15, 16, U8];
    let port = [0, 63, 64, 135, 136, U8];
    let mut mutants: Vec<FaultKind> = Vec::new();
    let mut each = |values: &[u64], make: &dyn Fn(u64) -> FaultKind| {
        mutants.extend(values.iter().map(|&v| make(v)));
    };
    each(&[0, 8, 9, U8], &|v| FaultKind::Compose { cubes: v as u8 });
    each(&[0, 7, 8, U8], &|v| FaultKind::Release { nth: v as u8 });
    each(&[0, 400, 401, u32::MAX as u64], &|v| FaultKind::Advance {
        millis: v as u32,
    });
    each(&[0, 43, 44, U16], &|v| FaultKind::Arrival { nth: v as u16 });
    for v in ocs {
        let ocs = v as u8;
        each(&slot, &|v| FaultKind::FailFru { ocs, slot: v as u8 });
        each(&slot, &|v| FaultKind::ReplaceFru { ocs, slot: v as u8 });
        each(&slot, &|v| FaultKind::Maintenance { ocs, slot: v as u8 });
        each(&port, &|v| FaultKind::FailMirror {
            ocs,
            north: v % 2 == 0,
            port: v as u8,
        });
        each(&port, &|v| FaultKind::DegradeMirror {
            ocs,
            north: v % 2 == 1,
            port: v as u8,
            mdb: 30,
        });
        each(&port, &|v| FaultKind::LinkFlap { ocs, port: v as u8 });
        each(&[0, 16, 17, U8], &|v| FaultKind::RelockStorm {
            ocs,
            ports: v as u8,
        });
        each(&[0], &|_| FaultKind::VerifyReject { ocs });
    }
    each(&[0, 40, 41, U16], &|v| FaultKind::DegradeMirror {
        ocs: 16,
        north: true,
        port: 9,
        mdb: v as u16,
    });
    assert!(mutants.len() > 150, "{} mutants", mutants.len());
    // Several to a world, so that a world is asked more than one question
    // and a mutant meets the damage its predecessors left.
    for chunk in mutants.chunks(6) {
        let mut events = repro_events();
        for (i, &event) in chunk.iter().enumerate() {
            events.insert(3 + 2 * i, event);
        }
        let n = events.len();
        let outcome = replay(events);
        assert!(outcome.events_applied as usize <= n, "{chunk:?}");
    }
}

/// A valid intent: one cube, one millisecond.
fn intent() -> SliceIntent {
    SliceIntent {
        request: 0,
        class: Priority::Training,
        chips: [4, 4, 4],
        hold: Nanos::from_millis(1),
    }
}

/// Submits `intents` one after another to a core on a live pod whose clock
/// is already running, draining after each, and returns how many were
/// refused as invalid. Nothing may panic and no request may leak.
fn submit_and_drain(intents: &[SliceIntent]) -> u64 {
    let mut core = ServiceCore::new(PolicyConfig::default());
    let mut pod = Superpod::new(0x5EED);
    let mut events = Vec::new();
    core.advance_to(&mut pod, Nanos::from_millis(5), &mut events);
    for intent in intents {
        events.clear();
        core.submit(&mut pod, intent, &mut events);
        let refused = matches!(
            events[..],
            [ServiceEvent::Rejected {
                why: RejectReason::Invalid,
                ..
            }]
        );
        assert_eq!(refused, intent.validate().is_err(), "{intent:?}");
        let end = core.drain(&mut pod, &mut events);
        assert_eq!(end, pod.fabric().now());
        assert_eq!(core.conservation(), Ok(()), "{intent:?}");
        assert_eq!((core.queue_depth(), core.running().count()), (0, 0));
    }
    let report = core.report();
    assert_eq!(report.submitted, intents.len() as u64);
    assert_eq!(report.invalid + report.completed(), report.submitted);
    report.invalid
}

/// `[1 << 34, 1 << 34, 4]`: the cube count overflowed `usize` — a panic in
/// debug, and in release a product that wrapped to 0 cubes, passed the
/// pod-size check and came back `Ok`.
#[test]
fn a_shape_whose_cube_count_overflows_is_too_large_not_a_panic() {
    let huge = SliceIntent {
        chips: [1 << 34, 1 << 34, 4],
        ..intent()
    };
    assert_eq!(
        huge.validate(),
        Err(IntentError::Shape(ShapeError::TooLarge {
            cubes: usize::MAX
        }))
    );
    assert_eq!(submit_and_drain(&[huge]), 1);
}

/// `hold: u64::MAX` at any `now > 0`: `serving_from + hold` overflowed at
/// admission — a panic in debug, an `ends_at` in the past in release.
#[test]
fn a_hold_that_outlasts_the_clock_is_refused_not_admitted() {
    let forever = SliceIntent {
        hold: Nanos(u64::MAX),
        ..intent()
    };
    assert_eq!(forever.validate(), Err(IntentError::HoldTooLong));
    assert_eq!(submit_and_drain(&[forever]), 1);
}

/// Every field of a valid intent at 0, 1, its legal maximum, one past it
/// and its type's maximum — through `validate` and through `submit` +
/// `drain`, one world for all of them so that an intent meets the clock
/// its predecessors left.
#[test]
fn every_intent_field_at_its_edges_is_refused_or_served() {
    let mut mutants: Vec<SliceIntent> = Vec::new();
    for request in [0, 1, u64::MAX - 64, u64::MAX] {
        mutants.push(SliceIntent {
            request,
            ..intent()
        });
    }
    for class in Priority::ALL {
        mutants.push(SliceIntent { class, ..intent() });
    }
    // 256 chips is the longest legal dimension (4×4×256 fills the pod),
    // 260 the next multiple of the cube edge.
    let long = [0, 1, 4, 256, 257, 260, 1 << 34, usize::MAX - 3, usize::MAX];
    for dim in 0..3 {
        for chips in long {
            let mut intent = intent();
            intent.chips[dim] = chips;
            mutants.push(intent);
        }
    }
    for chips in [
        [16, 16, 16],
        [16, 16, 20],
        [256, 256, 256],
        [usize::MAX - 3; 3],
    ] {
        mutants.push(SliceIntent { chips, ..intent() });
    }
    let max = SliceIntent::MAX_HOLD;
    for hold in [Nanos(0), Nanos(1), max, Nanos(max.0 + 1), Nanos(u64::MAX)] {
        mutants.push(SliceIntent { hold, ..intent() });
    }
    let legal = |intent: &SliceIntent| {
        let chips = intent.chips;
        let shape = chips.iter().all(|&d| d > 0 && d % 4 == 0 && d <= 256)
            && chips.iter().map(|&d| d / 4).product::<usize>() <= 64;
        shape && intent.hold > Nanos(0) && intent.hold <= max
    };
    let invalid = mutants.iter().filter(|intent| !legal(intent)).count() as u64;
    assert!(invalid > 20 && mutants.len() as u64 - invalid > 15);
    for intent in &mutants {
        assert_eq!(intent.validate().is_ok(), legal(intent), "{intent:?}");
    }
    assert_eq!(submit_and_drain(&mutants), invalid);
}

#[test]
fn a_wrong_format_tag_is_an_error() {
    for (from, to) in [
        ("campus-health/v2", "campus-health/v1"),
        ("campus-health/v2", "campus-health/v3"),
        ("\"schema\"", "\"format\""),
    ] {
        assert!(campus_doc().contains(from), "{from}");
        assert!(CampusHealthDoc::from_json(&campus_doc().replace(from, to)).is_err());
    }
    assert!(CampusHealthDoc::from_json(&campus_doc()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (read as lossy UTF-8) and arbitrary runs of JSON
    /// tokens: nothing a reader is handed makes it panic.
    #[test]
    fn arbitrary_text_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        tokens in proptest::collection::vec(
            proptest::sample::select(vec![
                "{", "}", "[", "]", ",", ":", "\"", "\\", "\"schema\"", "\"buckets\"",
                "\"count\"", "\"counts\"", "\"exemplars\"", "\"min\"", "null", "true",
                "-", "0", "1", "200", "-300", "1e400", "1.5", " ", "\n", "\u{e9}",
                "\"events\"", "\"FailFru\"", "\"slot\"", "\"Preempt\"",
                "\"traceEvents\"", "\"displayTimeUnit\"", "\"ms\"", "\"ph\"", "\"X\"", "\"C\"",
            ]),
            0..60,
        ),
    ) {
        read_everything(&String::from_utf8_lossy(&bytes));
        read_everything(&tokens.concat());
    }

    /// A valid document cut short or with one byte overwritten.
    #[test]
    fn truncated_and_overwritten_documents_never_panic(
        cut in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (trace, flight) = trace_and_flight();
        for text in [campus_doc(), repro_text(repro_events()), trace, flight, health_log()] {
            let mut cut = cut % (text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            read_everything(&text[..cut]);
            let mut bytes = text.into_bytes();
            let at = at % bytes.len();
            bytes[at] = byte;
            read_everything(&String::from_utf8_lossy(&bytes));
        }
    }
}
