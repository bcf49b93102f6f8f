//! Exporters: a human-readable text dashboard and machine-readable
//! JSON-lines.
//!
//! Both walk the underlying stores in deterministic order (id-ordered
//! incidents, publication-ordered events, name-sorted SLO objects) and
//! stamp nothing but simulation time, so a seeded simulation exports
//! byte-identical output on every run — asserted by an integration test
//! at the workspace root.

use crate::alarms::Incident;
use crate::events::Event;
use crate::fleet::FleetTelemetry;
use crate::slo::SloReport;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One line of the JSONL export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JsonlRecord {
    /// Header line: what this export contains.
    Meta {
        /// Simulation time of the export.
        exported_at: Nanos,
        /// Retained event count.
        events: u64,
        /// Incident count (open + cleared).
        incidents: u64,
    },
    /// One retained event.
    Event {
        /// The event.
        event: Event,
    },
    /// One incident.
    Incident {
        /// The incident.
        incident: Incident,
    },
    /// The SLO assessment.
    Slo {
        /// The report.
        report: SloReport,
    },
}

/// Serializes the full telemetry state as JSON-lines, one record per
/// line: a `Meta` header, then events, incidents, and the SLO report.
pub fn to_jsonl(t: &FleetTelemetry, now: Nanos) -> String {
    let mut out = String::new();
    let mut push = |rec: &JsonlRecord| {
        out.push_str(&serde_json::to_string(rec).expect("telemetry types serialize"));
        out.push('\n');
    };
    push(&JsonlRecord::Meta {
        exported_at: now,
        events: t.events.recent().count() as u64,
        incidents: t.alarms.incidents().len() as u64,
    });
    for event in t.events.recent() {
        push(&JsonlRecord::Event {
            event: event.clone(),
        });
    }
    for incident in t.alarms.incidents() {
        push(&JsonlRecord::Incident {
            incident: incident.clone(),
        });
    }
    push(&JsonlRecord::Slo {
        report: t.slo.report(now),
    });
    out
}

/// Renders the fleet dashboard as plain text: incidents, SLO standing,
/// and the recent-event tail.
pub(crate) fn text_dashboard(t: &FleetTelemetry, now: Nanos) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "── fleet telemetry @ {now} ──");

    let open: Vec<&Incident> = t.alarms.open_incidents().collect();
    let _ = writeln!(
        s,
        "\nINCIDENTS ({} open / {} total; {} pages, {} alarms suppressed)",
        open.len(),
        t.alarms.incidents().len(),
        t.alarms.pages(),
        t.alarms.suppressed(),
    );
    for inc in t.alarms.incidents() {
        let state = if inc.is_open() { "OPEN " } else { "clear" };
        let _ = writeln!(
            s,
            "  #{:<3} [{}] {} ocs-{} {:?} ×{} (+{} correlated) since {}",
            inc.id,
            state,
            inc.severity.label(),
            inc.switch,
            inc.class,
            inc.occurrences,
            inc.correlated,
            inc.opened_at,
        );
    }

    let slo = t.slo.report(now);
    let _ = writeln!(
        s,
        "\nSLO (target {:.4}%, fleet {:.4}%, {} violating)",
        slo.target * 100.0,
        slo.fleet_availability * 100.0,
        slo.violating,
    );
    for o in &slo.objects {
        let flag = if o.in_violation { " VIOLATION" } else { "" };
        let _ = writeln!(
            s,
            "  {:<20} avail {:.4}% down {} budget {:>5.1}% left{flag}",
            o.object,
            o.availability * 100.0,
            o.downtime,
            o.budget_remaining * 100.0,
        );
    }

    let tail: Vec<&Event> = t.events.recent().collect();
    let show = tail.len().min(12);
    let _ = writeln!(
        s,
        "\nEVENTS (last {show} of {} published, {} evicted)",
        t.events.published(),
        t.events.dropped(),
    );
    for e in &tail[tail.len() - show..] {
        let _ = writeln!(
            s,
            "  {:>12}  {:<10} {:?}",
            e.at.to_string(),
            e.source,
            e.kind
        );
    }
    s
}
