//! Chrome trace-event / Perfetto JSON export.
//!
//! The export is the JSON object format the Chrome tracing profiler and
//! <https://ui.perfetto.dev> both open: a `traceEvents` array of complete
//! (`"X"`), metadata (`"M"`), instant (`"i"`) and flow (`"s"`/`"f"`)
//! events, timestamps in **microseconds**. Lanes map to `(pid, tid)`
//! pairs via [`Lane::pid_tid`] — switches group under one process,
//! virtual workers under another — and metadata events name them.
//!
//! Everything is emitted in a deterministic order (metadata by lane
//! order, then spans in completion order, then instants), so a seeded
//! run exports a byte-identical `trace.json` at any worker count.

use crate::span::{Lane, SpanRecord};
use crate::tracer::Tracer;
use lightwave_telemetry::CounterTrack;
use serde::ser::{Serialize, Serializer};
use serde::Content;
use std::collections::BTreeSet;

/// The `schema` member every exported trace document opens with.
pub const TRACE_SCHEMA: &str = "lightwave/trace/v1";

/// Timestamp conversion: sim-time nanoseconds → trace microseconds.
fn micros(ns: u64) -> Content {
    Content::F64(ns as f64 / 1000.0)
}

fn obj(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Content::Str(k.to_string()), v))
            .collect(),
    )
}

fn str_c(s: impl Into<String>) -> Content {
    Content::Str(s.into())
}

fn u64_c(v: impl Into<u64>) -> Content {
    Content::U64(v.into())
}

fn metadata_events(lanes: &[Lane], out: &mut Vec<Content>) {
    let mut named_pids = std::collections::BTreeSet::new();
    for &lane in lanes {
        let (pid, tid) = lane.pid_tid();
        if named_pids.insert(pid) {
            out.push(obj(vec![
                ("name", str_c("process_name")),
                ("ph", str_c("M")),
                ("pid", u64_c(pid)),
                ("tid", u64_c(0u32)),
                ("args", obj(vec![("name", str_c(lane.process_name()))])),
            ]));
        }
        out.push(obj(vec![
            ("name", str_c("thread_name")),
            ("ph", str_c("M")),
            ("pid", u64_c(pid)),
            ("tid", u64_c(tid)),
            ("args", obj(vec![("name", str_c(lane.thread_name()))])),
        ]));
    }
}

fn span_args(span: &SpanRecord, exemplars: &BTreeSet<u64>) -> Content {
    let mut entries = vec![("span", str_c(span.id.to_string()))];
    if let Some(p) = span.parent {
        entries.push(("parent", str_c(p.to_string())));
    }
    if let Some(f) = span.follows {
        entries.push(("follows", str_c(f.to_string())));
    }
    if exemplars.contains(&span.id.0) {
        // A scope-report bucket retained this span as its exemplar:
        // flag it so "why was this request slow?" investigations can
        // search `exemplar` in the Perfetto UI and land directly on it.
        entries.push(("exemplar", Content::Bool(true)));
    }
    entries.push(("kind", span.kind.to_content()));
    obj(entries)
}

fn span_events(span: &SpanRecord, exemplars: &BTreeSet<u64>, out: &mut Vec<Content>) {
    let (pid, tid) = span.lane.pid_tid();
    out.push(obj(vec![
        ("name", str_c(span.kind.name())),
        ("cat", str_c(span.kind.category())),
        ("ph", str_c("X")),
        ("ts", micros(span.start.0)),
        ("dur", micros(span.end.0 - span.start.0)),
        ("pid", u64_c(pid)),
        ("tid", u64_c(tid)),
        ("args", span_args(span, exemplars)),
    ]));
}

/// Flow arrows bind by (cat, name, id); the follower span's id is the
/// arrow id, so every follows-from link gets its own arrow.
fn flow_events(span: &SpanRecord, spans: &[SpanRecord], out: &mut Vec<Content>) {
    let Some(from) = span.follows else { return };
    let Some(source) = spans.iter().find(|s| s.id == from) else {
        return;
    };
    let (spid, stid) = source.lane.pid_tid();
    let (fpid, ftid) = span.lane.pid_tid();
    let id = str_c(span.id.to_string());
    out.push(obj(vec![
        ("name", str_c("follows")),
        ("cat", str_c("flow")),
        ("ph", str_c("s")),
        ("id", id.clone()),
        ("ts", micros(source.end.0)),
        ("pid", u64_c(spid)),
        ("tid", u64_c(stid)),
    ]));
    out.push(obj(vec![
        ("name", str_c("follows")),
        ("cat", str_c("flow")),
        ("ph", str_c("f")),
        ("bp", str_c("e")),
        ("id", id),
        ("ts", micros(span.start.0)),
        ("pid", u64_c(fpid)),
        ("tid", u64_c(ftid)),
    ]));
}

struct TraceJson(Content);

impl Serialize for TraceJson {
    fn to_content(&self) -> Content {
        self.0.clone()
    }

    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(self.0.clone())
    }
}

/// `"C"` counter events render fleet-health series (drift, relock
/// totals) as counter tracks under the control-plane process, aligned
/// with the span timeline. Values are dequantized from the series'
/// integer micro-units, so the emitted text is a pure function of the
/// retained samples.
fn counter_events(tracks: &[CounterTrack], out: &mut Vec<Content>) {
    let (pid, tid) = Lane::Control.pid_tid();
    for track in tracks {
        for p in &track.points {
            out.push(obj(vec![
                ("name", str_c(track.name.clone())),
                ("cat", str_c("counter")),
                ("ph", str_c("C")),
                ("ts", micros(p.at.0)),
                ("pid", u64_c(pid)),
                ("tid", u64_c(tid)),
                (
                    "args",
                    obj(vec![("value", Content::F64(p.value_micros as f64 / 1e6))]),
                ),
            ]));
        }
    }
}

/// Renders the tracer's completed spans and instants as a Chrome
/// trace-event JSON document (open it at <https://ui.perfetto.dev>).
///
/// Open spans are *not* exported — end them first; the flight recorder
/// is the tool for mid-flight state.
pub fn to_chrome_trace(tracer: &Tracer) -> String {
    to_chrome_trace_with_counters(tracer, &[])
}

/// [`to_chrome_trace`] plus counter tracks (`"C"` events) — pass
/// [`SeriesStore::tracks`](lightwave_telemetry::SeriesStore::tracks) or
/// [`FleetHealth::counter_tracks`](lightwave_telemetry::FleetHealth::counter_tracks)
/// to see the health time-series alongside the causal span timeline.
pub fn to_chrome_trace_with_counters(tracer: &Tracer, counters: &[CounterTrack]) -> String {
    to_chrome_trace_annotated(tracer, counters, &BTreeSet::new())
}

/// [`to_chrome_trace_with_counters`] plus exemplar annotation: spans
/// whose ids are in `exemplars` (the span ids a scope report's histogram
/// buckets retained) gain an `"exemplar": true` arg. `request_scope`
/// writes `scope_report.json` and `request_scope_trace.json` from one
/// fully sampled cell, so every tail bucket of that report names a span
/// of that trace, findable by searching `exemplar` in the Perfetto UI
/// (the artifact reader in `lightwave-bench` checks the pair both ways).
/// With an empty set this is byte-identical to the plain export.
pub fn to_chrome_trace_annotated(
    tracer: &Tracer,
    counters: &[CounterTrack],
    exemplars: &BTreeSet<u64>,
) -> String {
    let mut events = Vec::new();
    metadata_events(&tracer.lanes(), &mut events);
    let spans = tracer.spans();
    for span in spans {
        span_events(span, exemplars, &mut events);
        flow_events(span, spans, &mut events);
    }
    for inst in tracer.instants() {
        let (pid, tid) = inst.lane.pid_tid();
        events.push(obj(vec![
            ("name", str_c(inst.name.clone())),
            ("cat", str_c("mark")),
            ("ph", str_c("i")),
            ("s", str_c("t")),
            ("ts", micros(inst.at.0)),
            ("pid", u64_c(pid)),
            ("tid", u64_c(tid)),
        ]));
    }
    counter_events(counters, &mut events);
    let doc = obj(vec![
        ("schema", str_c(TRACE_SCHEMA)),
        ("displayTimeUnit", str_c("ms")),
        ("traceEvents", Content::Seq(events)),
    ]);
    serde_json::to_string(&TraceJson(doc)).expect("content trees always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;
    use lightwave_units::Nanos;

    fn sample_tracer() -> Tracer {
        let mut t = Tracer::new(11);
        let root = t.span(
            Lane::Control,
            None,
            Nanos(0),
            Nanos(5_000),
            SpanKind::ReconfigCommit {
                switch: 4,
                added: 2,
                removed: 0,
                untouched: 3,
            },
        );
        let a = t.span(
            Lane::Switch(4),
            Some(root),
            Nanos(0),
            Nanos(2_000),
            SpanKind::Custom {
                name: "a".to_string(),
            },
        );
        let b = t.span(
            Lane::Switch(4),
            Some(root),
            Nanos(2_000),
            Nanos(5_000),
            SpanKind::Custom {
                name: "b".to_string(),
            },
        );
        t.link_follows(b, a);
        t.instant(Lane::Control, Nanos(1_000), "alarm");
        t
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(
            to_chrome_trace(&sample_tracer()),
            to_chrome_trace(&sample_tracer())
        );
    }

    #[test]
    fn export_contains_expected_shapes() {
        let json = to_chrome_trace(&sample_tracer());
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"s\""), "flow start for follows link");
        assert!(
            json.contains("\"ph\":\"f\""),
            "flow finish for follows link"
        );
        assert!(json.contains("\"ph\":\"i\""), "instant mark");
        assert!(json.contains("process_name"));
        assert!(json.contains("ocs-4"), "switch lane named");
        // ts is microseconds: the 2_000 ns boundary renders as 2.
        assert!(json.contains("\"ts\":2"));
    }

    #[test]
    fn export_validates_against_schema() {
        let json = to_chrome_trace(&sample_tracer());
        let stats = crate::validate::validate_chrome_trace(&json).expect("valid");
        assert_eq!(stats.complete, 3);
        assert!(stats.metadata >= 3, "process + thread names");
        assert_eq!(stats.flows, 2, "one s + one f");
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 0);
    }

    #[test]
    fn counter_tracks_export_as_c_events() {
        use lightwave_telemetry::{Sample, SeriesStore};
        let mut store = SeriesStore::default();
        let id = store.series("health_port_drift_db", &[("switch", "4")]);
        store.push_micros(id, Nanos(1_000), 30_000);
        store.push_micros(id, Nanos(2_000), 60_000);
        let tracks = store.tracks();
        assert_eq!(tracks[0].points.len(), 2);
        assert_eq!(
            tracks[0].points[0],
            Sample {
                at: Nanos(1_000),
                value_micros: 30_000
            }
        );
        let json = to_chrome_trace_with_counters(&sample_tracer(), &tracks);
        let stats = crate::validate::validate_chrome_trace(&json).expect("valid");
        assert_eq!(stats.counters, 2);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("health_port_drift_db"));
        assert!(json.contains("\"value\":0.03"), "dequantized micro-units");
        // Plain export is the zero-counter case of the same path.
        assert_eq!(
            to_chrome_trace(&sample_tracer()),
            to_chrome_trace_with_counters(&sample_tracer(), &[])
        );
    }
}
