//! Bridges one switch's telemetry surface into the fleet observability
//! subsystem (`lightwave-telemetry`).
//!
//! The split mirrors the paper's architecture: each Palomar exposes raw
//! counters and alarms (§3.2.2, [`crate::telemetry`]), and a fleet
//! control plane scrapes them into correlated incidents, availability
//! SLOs and the health detectors. [`OcsInstruments`] is the per-switch
//! scraper: a switch id and one cursor into each of the switch's two
//! append-only logs (alarms, drift), so a scrape costs `O(changed)`.

use crate::palomar::{PalomarOcs, ReconfigSummary};
use lightwave_telemetry::{EventKind, FleetHealth, FleetTelemetry};
use lightwave_trace::{reconfig_phase_spans, Lane, SpanId, SpanKind, Tracer};
use lightwave_units::Nanos;

/// One switch's scrape state: its id and the cursors into its two
/// append-only logs.
#[derive(Debug, Clone)]
pub struct OcsInstruments {
    switch: u32,
    /// How many per-switch alarms have already been forwarded (the
    /// switch's alarm log is append-only, so this is a scrape cursor).
    cursor: usize,
    /// Drift-log entries already forwarded to the health layer.
    drift_cursor: usize,
}

impl OcsInstruments {
    /// A scraper for `switch` that has forwarded nothing yet.
    pub fn new(switch: u32) -> OcsInstruments {
        OcsInstruments {
            switch,
            cursor: 0,
            drift_cursor: 0,
        }
    }

    /// Records a completed bulk reconfiguration as a
    /// [`EventKind::Reconfig`] event.
    ///
    /// `started` is the simulation time the reconfiguration was issued;
    /// the duration is `report.ready_at - started` (zero when the delta
    /// added nothing).
    pub fn record_reconfig(
        &self,
        sink: &mut FleetTelemetry,
        started: Nanos,
        report: &ReconfigSummary,
    ) {
        sink.events.emit(
            started,
            "ocs",
            EventKind::Reconfig {
                switch: self.switch,
                added: report.added as u32,
                removed: report.removed as u32,
                untouched: report.untouched as u32,
                duration: report.ready_at.saturating_sub(started),
            },
        );
    }

    /// Records the up/down observation feeding the availability SLO for
    /// `ocs-<id>`.
    pub fn record_health(&self, sink: &mut FleetTelemetry, at: Nanos, up: bool) {
        sink.slo.observe(at, &format!("ocs-{}", self.switch), up);
    }

    /// Forwards drift-log entries appended since the last scrape into the
    /// fleet-health detector bank (CUSUM + EWMA per port). Returns how
    /// many entries were forwarded — the log is append-only, so each
    /// scrape costs `O(changed)`.
    pub fn forward_drift(
        &mut self,
        sink: &mut FleetTelemetry,
        health: &mut FleetHealth,
        ocs: &PalomarOcs,
    ) -> usize {
        let log = ocs.drift_log();
        let fresh = &log[self.drift_cursor.min(log.len())..];
        let n = fresh.len();
        for change in fresh {
            health.ingest_drift(
                sink,
                change.at,
                self.switch,
                change.north,
                change.port,
                change.drift_db,
            );
        }
        self.drift_cursor = log.len();
        n
    }

    /// Forwards any alarms the switch raised since the last scrape into
    /// the fleet aggregator (debounce + blast-radius correlation happen
    /// there). Returns how many alarms were forwarded.
    pub fn forward_alarms(&mut self, sink: &mut FleetTelemetry, ocs: &PalomarOcs) -> usize {
        let alarms = ocs.telemetry().alarms();
        let fresh = &alarms[self.cursor.min(alarms.len())..];
        let n = fresh.len();
        for alarm in fresh {
            sink.ingest_alarm(alarm.clone());
        }
        self.cursor = alarms.len();
        n
    }

    /// One full scrape: the SLO observation, then alarm forwarding.
    pub fn scrape(&mut self, sink: &mut FleetTelemetry, at: Nanos, ocs: &PalomarOcs) {
        self.record_health(sink, at, ocs.is_up());
        self.forward_alarms(sink, ocs);
    }
}

/// Renders one switch's reconfiguration as a causal span on its timeline
/// lane: one [`SpanKind::ReconfigCommit`] covering
/// `started..report.ready_at`, with the four reconfiguration phases
/// (drain → mirror-settle → camera-verify → undrain) as child spans when
/// the delta actually moved mirrors. Returns the commit span so callers
/// can hang further causality off it.
///
/// The event side of the same report is
/// [`OcsInstruments::record_reconfig`]; callers that want both call both.
pub fn trace_reconfig(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    switch: u32,
    started: Nanos,
    report: &ReconfigSummary,
) -> SpanId {
    let span = tracer.span(
        Lane::Switch(switch),
        parent,
        started,
        report.ready_at.max(started),
        SpanKind::ReconfigCommit {
            switch,
            added: report.added as u32,
            removed: report.removed as u32,
            untouched: report.untouched as u32,
        },
    );
    if report.added > 0 {
        reconfig_phase_spans(tracer, span, switch, started, report.ready_at);
    }
    span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconfig_emits_an_event() {
        let mut sink = FleetTelemetry::new();
        let mut ocs = PalomarOcs::new(3, 42);
        let inst = OcsInstruments::new(3);
        let started = ocs.now();
        let report = ocs.apply_delta(&[(0, 10), (1, 11)], &[]).unwrap();
        inst.record_reconfig(&mut sink, started, &report.summary());
        let EventKind::Reconfig {
            switch: 3,
            added: 2,
            duration,
            ..
        } = sink.events.recent().last().unwrap().kind
        else {
            panic!("expected a Reconfig event");
        };
        assert!(duration > Nanos::from_millis(1), "ms-class switch duration");
    }

    #[test]
    fn alarm_forwarding_is_incremental() {
        let mut sink = FleetTelemetry::new();
        let mut ocs = PalomarOcs::new(0, 4);
        let mut inst = OcsInstruments::new(0);
        ocs.fail_mirror(true, 9).unwrap();
        assert_eq!(inst.forward_alarms(&mut sink, &ocs), 1);
        assert_eq!(inst.forward_alarms(&mut sink, &ocs), 0, "cursor advanced");
        ocs.fail_mirror(true, 9).unwrap();
        assert_eq!(inst.forward_alarms(&mut sink, &ocs), 1);
        assert_eq!(sink.alarms.ingested(), 2);
    }

    #[test]
    fn drift_forwarding_is_incremental_and_feeds_health() {
        let mut sink = FleetTelemetry::new();
        let mut health = FleetHealth::default();
        let mut ocs = PalomarOcs::new(5, 21);
        let mut inst = OcsInstruments::new(5);
        ocs.degrade_mirror(true, 3, 0.03).unwrap();
        ocs.degrade_mirror(true, 3, 0.03).unwrap();
        assert_eq!(inst.forward_drift(&mut sink, &mut health, &ocs), 2);
        assert_eq!(inst.forward_drift(&mut sink, &mut health, &ocs), 0);
        ocs.degrade_mirror(true, 3, 0.03).unwrap();
        assert_eq!(inst.forward_drift(&mut sink, &mut health, &ocs), 1);
        // The health layer retained the samples under this switch's label.
        assert_eq!(health.store().recent_for_switch(5, 8).len(), 3);
    }

    #[test]
    fn health_scrape_drives_slo() {
        let mut sink = FleetTelemetry::new();
        let mut ocs = PalomarOcs::new(2, 8);
        let mut inst = OcsInstruments::new(2);
        inst.scrape(&mut sink, Nanos(0), &ocs);
        ocs.fail_fru(0).unwrap();
        ocs.fail_fru(1).unwrap(); // both PSUs: chassis down
        ocs.advance(Nanos::from_secs_f64(10.0));
        inst.scrape(&mut sink, ocs.now(), &ocs);
        let report = sink.slo.report(Nanos::from_secs_f64(20.0));
        let o = report.objects.iter().find(|o| o.object == "ocs-2").unwrap();
        assert!(o.in_violation, "10 s+ outage blows the 99.98% budget");
        assert!(o.downtime >= Nanos::from_secs_f64(10.0));
    }
}
