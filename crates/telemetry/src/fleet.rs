//! The fleet observability facade: one struct wiring the three stores
//! together, with alarm→event plumbing.

use crate::alarms::{AlarmAggregator, AlarmRecord, IngestOutcome};
use crate::events::{EventBus, EventKind};
use crate::export;
use crate::slo::SloTracker;
use lightwave_units::Nanos;

/// Fleet-wide telemetry: events + alarm incidents + SLO.
///
/// Instrumentation modules in the device and control-plane crates
/// (`ocs::instrument`, `fabric::instrument`, …) record into this through
/// `&mut` — plain ownership, no interior mutability, fully deterministic.
#[derive(Debug, Default)]
pub struct FleetTelemetry {
    /// Structured event stream with bounded retention.
    pub events: EventBus,
    /// Alarm ingestion, debounce, blast-radius correlation.
    pub alarms: AlarmAggregator,
    /// Availability vs the 99.98% OCS target.
    pub slo: SloTracker,
}

impl FleetTelemetry {
    /// A facade with default policies (1024-event retention, default
    /// aggregation windows, 99.98% SLO target).
    pub fn new() -> FleetTelemetry {
        FleetTelemetry::default()
    }

    /// Ingests an alarm and publishes the matching incident-lifecycle
    /// event (opened/escalated); absorbed alarms publish nothing.
    pub fn ingest_alarm(&mut self, rec: AlarmRecord) -> IngestOutcome {
        let at = rec.at;
        let outcome = self.alarms.ingest(rec);
        match outcome {
            IngestOutcome::Paged { incident } => {
                let severity = self
                    .alarms
                    .incident(incident)
                    .expect("incident just opened")
                    .severity;
                self.events.emit(
                    at,
                    "alarms",
                    EventKind::IncidentOpened { incident, severity },
                );
            }
            IngestOutcome::Escalated { incident } => {
                let to = self
                    .alarms
                    .incident(incident)
                    .expect("incident exists")
                    .severity;
                self.events
                    .emit(at, "alarms", EventKind::IncidentEscalated { incident, to });
            }
            IngestOutcome::Coalesced { .. } | IngestOutcome::Correlated { .. } => {}
        }
        outcome
    }

    /// Advances aggregation time: quiet incidents clear (each publishing
    /// an [`EventKind::IncidentCleared`] event).
    pub fn advance(&mut self, now: Nanos) {
        for id in self.alarms.advance(now) {
            let correlated = self
                .alarms
                .incident(id)
                .expect("cleared incident exists")
                .correlated;
            self.events.emit(
                now,
                "alarms",
                EventKind::IncidentCleared {
                    incident: id,
                    correlated,
                },
            );
        }
    }

    /// Renders the text dashboard as of `now`.
    pub fn dashboard(&self, now: Nanos) -> String {
        export::text_dashboard(self, now)
    }

    /// Serializes the full state as JSON-lines as of `now`.
    pub fn to_jsonl(&self, now: Nanos) -> String {
        export::to_jsonl(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alarms::AlarmCause;
    use crate::severity::Severity;

    #[test]
    fn alarm_lifecycle_flows_into_events() {
        let mut t = FleetTelemetry::new();
        t.ingest_alarm(AlarmRecord {
            at: Nanos::from_millis(1),
            severity: Severity::Critical,
            switch: 0,
            cause: AlarmCause::ChassisDown,
        });
        // Repeat coalesces: no second event.
        t.ingest_alarm(AlarmRecord {
            at: Nanos::from_millis(2),
            severity: Severity::Critical,
            switch: 0,
            cause: AlarmCause::ChassisDown,
        });
        t.advance(Nanos::from_secs_f64(60.0));
        let kinds: Vec<_> = t.events.recent().map(|e| &e.kind).collect();
        assert_eq!(kinds.len(), 2, "opened + cleared, repeat suppressed");
        assert!(matches!(kinds[0], EventKind::IncidentOpened { .. }));
        assert!(matches!(kinds[1], EventKind::IncidentCleared { .. }));
    }

    #[test]
    fn exports_do_not_panic_on_empty_state() {
        let t = FleetTelemetry::new();
        let dash = t.dashboard(Nanos(0));
        assert!(dash.contains("INCIDENTS"));
        let jsonl = t.to_jsonl(Nanos(0));
        assert!(jsonl.lines().count() >= 2, "meta + slo lines");
    }
}
