//! The flight recorder: a bounded ring of recent spans and events that
//! snapshots itself into a postmortem bundle the moment a `Critical`
//! alarm fires.
//!
//! §3.2.2's operational lesson (and Mission Apollo's): when a
//! reconfiguration goes wrong, the page is only the start — the operator
//! needs to *replay what the control plane did* around the failure. The
//! recorder keeps the last N completed spans and telemetry events, and
//! wires into [`lightwave_telemetry::AlarmAggregator`] incidents: every
//! incident whose severity reaches [`Severity::Critical`] triggers exactly
//! one dump,
//! regardless of whether the aggregator paged, coalesced, escalated, or
//! even already cleared it — a Critical is never dropped.

use crate::span::SpanRecord;
use crate::tracer::Tracer;
use lightwave_telemetry::{
    series_switch, CounterSample, Event, EventBus, FleetTelemetry, Incident, SeriesStore, Severity,
};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// One ring entry: a completed span or a published telemetry event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlightEntry {
    /// A completed span.
    Span(SpanRecord),
    /// A telemetry event.
    Event(Event),
}

/// The `schema` member a flight bundle's header line opens with.
pub const FLIGHT_SCHEMA: &str = "lightwave/flight/v1";

/// How many of its most recent retained samples each health series on an
/// incident's switch contributes to that incident's bundle.
pub(crate) const COUNTER_SAMPLES_PER_SERIES: usize = 16;

/// A snapshot taken when an incident went Critical.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FlightDump {
    /// The triggering incident's id.
    pub incident: u64,
    /// The switch the incident is on: the id `fleet_health.jsonl` rows
    /// and the trace's `ocs-N` lanes use.
    pub switch: u32,
    /// The incident's severity at dump time (always Critical today).
    pub severity: Severity,
    /// Sim-time of the incident's last activity when the dump was taken.
    pub at: Nanos,
    /// The ring contents, oldest first.
    pub entries: Vec<FlightEntry>,
    /// Recent health counter samples for the incident's blast radius:
    /// the last `COUNTER_SAMPLES_PER_SERIES` of every series on its
    /// switch in the store [`FlightRecorder::poll`] was handed.
    pub counters: Vec<CounterSample>,
}

impl FlightDump {
    /// Serializes the bundle as JSON-lines: one header object, then one
    /// object per entry, oldest first. When the dump embeds counter
    /// samples, they follow the entries, one line each.
    /// [`FlightDump::from_jsonl`] reads it back.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = serde_json::to_string(&FlightHeader {
            schema: FLIGHT_SCHEMA.to_string(),
            incident: self.incident,
            switch: self.switch,
            severity: self.severity,
            at: self.at,
            entries: self.entries.len() as u64,
            counters: self.counters.len() as u64,
        })
        .expect("header serializes");
        out.push_str(&header);
        out.push('\n');
        for entry in &self.entries {
            out.push_str(&serde_json::to_string(entry).expect("entries serialize"));
            out.push('\n');
        }
        for sample in &self.counters {
            out.push_str(&serde_json::to_string(sample).expect("samples serialize"));
            out.push('\n');
        }
        out
    }

    /// Reads back what [`FlightDump::to_jsonl`] wrote: a header line with
    /// [`FLIGHT_SCHEMA`], exactly the `entries` [`FlightEntry`] lines and
    /// then the `counters` [`CounterSample`] lines it declares, each
    /// sample on the header's switch, and nothing after them. The error
    /// names the line that breaks a rule.
    pub fn from_jsonl(text: &str) -> Result<FlightDump, String> {
        let mut lines = text.lines();
        let first = lines.next().unwrap_or("");
        let header: FlightHeader =
            serde_json::from_str(first).map_err(|e| format!("header: {e}"))?;
        if header.schema != FLIGHT_SCHEMA {
            return Err(format!(
                "schema {:?}, want {FLIGHT_SCHEMA:?}",
                header.schema
            ));
        }
        // Grown from the lines read: the header's counts are numbers from
        // the document and size nothing.
        let mut entries = Vec::new();
        for i in 0..header.entries {
            let line = lines
                .next()
                .ok_or_else(|| format!("header declares more than {i} entries"))?;
            entries.push(serde_json::from_str(line).map_err(|e| format!("entry {i}: {e}"))?);
        }
        let mut counters = Vec::new();
        for i in 0..header.counters {
            let line = lines
                .next()
                .ok_or_else(|| format!("header declares more than {i} counters"))?;
            let sample: CounterSample =
                serde_json::from_str(line).map_err(|e| format!("counter {i}: {e}"))?;
            if series_switch(&sample.series) != Some(header.switch) {
                return Err(format!(
                    "counter {i} ({}) is not on the header's switch {}",
                    sample.series, header.switch
                ));
            }
            counters.push(sample);
        }
        if lines.next().is_some() {
            return Err("lines past what the header declares".to_string());
        }
        Ok(FlightDump {
            incident: header.incident,
            switch: header.switch,
            severity: header.severity,
            at: header.at,
            entries,
            counters,
        })
    }
}

#[derive(Serialize, Deserialize)]
struct FlightHeader {
    schema: String,
    incident: u64,
    switch: u32,
    severity: Severity,
    at: Nanos,
    entries: u64,
    counters: u64,
}

/// The bounded-ring flight recorder.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<FlightEntry>,
    evicted: u64,
    span_cursor: usize,
    event_cursor: u64,
    dumped: BTreeSet<u64>,
    dumps: Vec<FlightDump>,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` entries (≥ 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight-recorder capacity must be positive");
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            evicted: 0,
            span_cursor: 0,
            event_cursor: 0,
            dumped: BTreeSet::new(),
            dumps: Vec::new(),
        }
    }

    /// The configured retention.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Entries evicted from the ring (bounded retention, counted — never
    /// silent).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    fn push(&mut self, entry: FlightEntry) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(entry);
    }

    /// Records one completed span directly.
    pub(crate) fn record_span(&mut self, span: SpanRecord) {
        self.push(FlightEntry::Span(span));
    }

    /// Records one telemetry event directly.
    pub(crate) fn record_event(&mut self, event: Event) {
        self.push(FlightEntry::Event(event));
    }

    /// Pulls everything new since the last sync: the tracer's completed
    /// spans (completion order), then the bus's retained events
    /// (publish order). Cursor-based, so each span/event lands in the
    /// ring exactly once.
    pub fn sync(&mut self, tracer: &Tracer, bus: &EventBus) {
        let spans = tracer.spans();
        for span in &spans[self.span_cursor.min(spans.len())..] {
            self.record_span(span.clone());
        }
        self.span_cursor = spans.len();

        let retained: Vec<&Event> = bus.recent().collect();
        let first = bus.published() - retained.len() as u64;
        for (idx, event) in (first..bus.published()).zip(retained) {
            if idx >= self.event_cursor {
                self.record_event(event.clone());
            }
        }
        self.event_cursor = bus.published();
    }

    fn dump_incident(&mut self, incident: &Incident, counters: Vec<CounterSample>) {
        self.dumps.push(FlightDump {
            incident: incident.id,
            switch: incident.switch,
            severity: incident.severity,
            at: incident.last_at,
            entries: self.ring.iter().cloned().collect(),
            counters,
        });
        self.dumped.insert(incident.id);
    }

    /// Syncs the ring from `tracer` + the telemetry event bus, then scans
    /// *every* incident the aggregator has ever opened and dumps each
    /// Critical one exactly once. Because incident severity never
    /// decreases and the incident log is append-only, this catches a
    /// Critical that was raised *and cleared* between polls — the
    /// never-drop-Critical contract. Each new dump also embeds the last
    /// `COUNTER_SAMPLES_PER_SERIES` retained samples of every series in
    /// `store` labeled with the incident's switch — the postmortem bundle
    /// answers "what were the drift/relock counters doing just before
    /// this went Critical?" without a second tool; an empty store embeds
    /// none. Returns the incidents dumped now.
    pub fn poll(
        &mut self,
        tracer: &Tracer,
        telemetry: &FleetTelemetry,
        store: &SeriesStore,
    ) -> Vec<u64> {
        self.sync(tracer, &telemetry.events);
        let mut dumped_now = Vec::new();
        for inc in telemetry.alarms.incidents() {
            if inc.severity == Severity::Critical && !self.dumped.contains(&inc.id) {
                let counters = store.recent_for_switch(inc.switch, COUNTER_SAMPLES_PER_SERIES);
                self.dump_incident(inc, counters);
                dumped_now.push(inc.id);
            }
        }
        dumped_now
    }

    /// Every dump taken, in trigger order.
    pub fn dumps(&self) -> &[FlightDump] {
        &self.dumps
    }

    /// The most recent dump, if any.
    pub fn latest_dump(&self) -> Option<&FlightDump> {
        self.dumps.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Lane, SpanKind};
    use lightwave_telemetry::{AlarmCause, AlarmRecord};

    fn span_kind() -> SpanKind {
        SpanKind::Custom {
            name: "work".to_string(),
        }
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut rec = FlightRecorder::new(3);
        let mut t = Tracer::new(1);
        for i in 0..5u64 {
            t.span(Lane::Control, None, Nanos(i), Nanos(i + 1), span_kind());
        }
        rec.sync(&t, &EventBus::default());
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        // Second sync adds nothing: the cursor advanced.
        rec.sync(&t, &EventBus::default());
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
    }

    #[test]
    fn critical_raised_and_cleared_within_debounce_window_still_dumps() {
        // The never-drop-Critical regression (ISSUE 3 satellite): a
        // Critical that the aggregator absorbs into an existing incident
        // and that clears before the next poll must still produce a
        // postmortem bundle.
        let mut telemetry = FleetTelemetry::new();
        let mut tracer = Tracer::new(9);
        let mut rec = FlightRecorder::new(16);
        tracer.span(Lane::Switch(2), None, Nanos(0), Nanos(10), span_kind());
        // A Warning incident opens...
        telemetry.ingest_alarm(AlarmRecord {
            at: Nanos::from_millis(1),
            severity: Severity::Warning,
            switch: 2,
            cause: AlarmCause::FruFailed { slot: 0 },
        });
        assert!(
            rec.poll(&tracer, &telemetry, &SeriesStore::default())
                .is_empty(),
            "warning: no dump"
        );
        // ...a Critical repeat is absorbed into it (same debounce window)...
        telemetry.ingest_alarm(AlarmRecord {
            at: Nanos::from_millis(2),
            severity: Severity::Critical,
            switch: 2,
            cause: AlarmCause::FruFailed { slot: 1 },
        });
        // ...and the incident clears before anyone polls.
        telemetry.advance(Nanos::from_secs_f64(60.0));
        assert!(!telemetry.alarms.incidents()[0].is_open());
        let dumped = rec.poll(&tracer, &telemetry, &SeriesStore::default());
        assert_eq!(dumped, vec![0], "cleared Critical still dumps");
        let dump = rec.latest_dump().expect("dumped");
        assert_eq!(dump.severity, Severity::Critical);
        assert!(dump
            .entries
            .iter()
            .any(|e| matches!(e, FlightEntry::Span(_))));
        assert!(dump
            .entries
            .iter()
            .any(|e| matches!(e, FlightEntry::Event(_))));
        // Exactly once: a later poll does not re-dump.
        assert!(rec
            .poll(&tracer, &telemetry, &SeriesStore::default())
            .is_empty());
    }

    #[test]
    fn dump_jsonl_is_parseable_and_complete() {
        let mut telemetry = FleetTelemetry::new();
        let mut tracer = Tracer::new(4);
        let mut rec = FlightRecorder::new(32);
        let parent = tracer.span(
            Lane::Switch(1),
            None,
            Nanos(0),
            Nanos(1000),
            SpanKind::ReconfigCommit {
                switch: 1,
                added: 2,
                removed: 0,
                untouched: 5,
            },
        );
        crate::tracer::reconfig_phase_spans(&mut tracer, parent, 1, Nanos(0), Nanos(1000));
        telemetry.ingest_alarm(AlarmRecord {
            at: Nanos(500),
            severity: Severity::Critical,
            switch: 1,
            cause: AlarmCause::ChassisDown,
        });
        let dumped = rec.poll(&tracer, &telemetry, &SeriesStore::default());
        assert_eq!(dumped.len(), 1);
        let dump = rec.latest_dump().expect("dump");
        let jsonl = dump.to_jsonl();
        assert_eq!(
            jsonl.lines().count(),
            1 + 5 + 1,
            "header + 5 spans + 1 event"
        );
        assert!(jsonl.contains("MirrorSettle"), "phase chain in the bundle");
        assert_eq!(FlightDump::from_jsonl(&jsonl).as_ref(), Ok(dump));
    }

    #[test]
    fn poll_with_series_embeds_blast_radius_counters() {
        let mut telemetry = FleetTelemetry::new();
        let tracer = Tracer::new(6);
        let mut rec = FlightRecorder::new(16);
        // Health series for two switches; only the incident's switch
        // lands in the bundle, and only its most recent samples.
        let mut store = SeriesStore::default();
        let hot = store.series("health_port_drift_db", &[("port", "3"), ("switch", "7")]);
        let cold = store.series("health_port_drift_db", &[("port", "3"), ("switch", "8")]);
        let n = COUNTER_SAMPLES_PER_SERIES as i64 + 2;
        for i in 0..n {
            store.push_micros(hot, Nanos(i as u64 * 100), 30_000 * (i + 1));
            store.push_micros(cold, Nanos(i as u64 * 100), 10_000);
        }
        telemetry.ingest_alarm(AlarmRecord {
            at: Nanos(100 * n as u64),
            severity: Severity::Critical,
            switch: 7,
            cause: AlarmCause::ChassisDown,
        });
        let dumped = rec.poll(&tracer, &telemetry, &store);
        assert_eq!(dumped.len(), 1);
        let dump = rec.latest_dump().expect("dump");
        assert_eq!(dump.counters.len(), COUNTER_SAMPLES_PER_SERIES);
        assert!(dump.counters.iter().all(|c| c.series.contains("switch=7")));
        assert_eq!(
            dump.counters[0].value_micros,
            30_000 * 3,
            "the oldest two left out"
        );
        assert_eq!(dump.counters.last().unwrap().value_micros, 30_000 * n);
        let jsonl = dump.to_jsonl();
        assert_eq!(
            jsonl.lines().count(),
            1 + 1 + COUNTER_SAMPLES_PER_SERIES,
            "header + 1 event + the counter samples"
        );
        assert!(jsonl.contains(&format!("\"counters\":{COUNTER_SAMPLES_PER_SERIES}")));
        assert_eq!(FlightDump::from_jsonl(&jsonl).as_ref(), Ok(dump));
    }

    #[test]
    fn a_bundle_reads_back_only_as_its_header_declares_it() {
        let mut telemetry = FleetTelemetry::new();
        let mut tracer = Tracer::new(6);
        tracer.span(Lane::Switch(7), None, Nanos(0), Nanos(10), span_kind());
        let mut store = SeriesStore::default();
        let drift = store.series("health_port_drift_db", &[("port", "3"), ("switch", "7")]);
        store.push_micros(drift, Nanos(5), 30_000);
        telemetry.ingest_alarm(AlarmRecord {
            at: Nanos(20),
            severity: Severity::Critical,
            switch: 7,
            cause: AlarmCause::ChassisDown,
        });
        let mut rec = FlightRecorder::new(16);
        rec.poll(&tracer, &telemetry, &store);
        let jsonl = rec.latest_dump().expect("dump").to_jsonl();
        let [header, span, event, counter] = jsonl.lines().collect::<Vec<_>>()[..] else {
            panic!("header, span, event, counter: {jsonl}");
        };
        assert!(header.contains("\"entries\":2,\"counters\":1"), "{header}");
        let read = |lines: &[&str]| FlightDump::from_jsonl(&(lines.join("\n") + "\n"));
        assert!(read(&[header, span, event, counter]).is_ok());
        let refused = |lines: &[&str], why: &str| {
            let err = read(lines).unwrap_err();
            assert!(err.contains(why), "{lines:?}: {err}");
        };
        refused(&[header, span, event], "more than 0 counters");
        refused(&[header, span], "more than 1 entries");
        refused(&[header, span, event, counter, counter], "lines past");
        refused(&[header, span, counter, event], "entry 1");
        refused(&[header, counter, span, event], "entry 0");
        let moved = counter.replace("switch=7", "switch=8");
        refused(
            &[header, span, event, &moved],
            "not on the header's switch 7",
        );
        let loose = header.replace("\"switch\":7", "\"switch\":7.0");
        refused(
            &[&loose, span, event, counter],
            "expected integer, found float",
        );
        let quoted = header.replace("\"counters\":1", "\"counters\":\"1\"");
        refused(
            &[&quoted, span, event, counter],
            "expected integer, found string",
        );
        let renamed = header.replace("flight/v1", "flight/v2");
        refused(&[&renamed, span, event, counter], "schema");
        refused(&[], "header");
    }
}
