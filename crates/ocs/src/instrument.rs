//! Bridges one switch's telemetry surface into the fleet observability
//! subsystem (`lightwave-telemetry`).
//!
//! The split mirrors the paper's architecture: each Palomar exposes raw
//! counters and alarms (§3.2.2, [`crate::telemetry`]), and a fleet
//! control plane scrapes them into aggregated metrics, correlated
//! incidents, and availability SLOs. [`OcsInstruments`] is the per-switch
//! scraper: registered once, then recorded through copy handles on the
//! hot path.

use crate::palomar::{OcsHealth, PalomarOcs, ReconfigSummary};
use crate::telemetry::{Alarm, AlarmCode};
use lightwave_telemetry::{
    AlarmCause, AlarmRecord, CounterId, EventKind, FleetHealth, FleetTelemetry, GaugeId,
    HistogramId, RateWindow,
};
use lightwave_trace::{reconfig_phase_spans, Lane, SpanId, SpanKind, Tracer};
use lightwave_units::{Db, Nanos};

/// Fleet-metric handles for one switch, labeled `{switch=<id>}`.
#[derive(Debug, Clone)]
pub struct OcsInstruments {
    switch: u32,
    reconfigs: CounterId,
    circuits_preserved: CounterId,
    alarms_forwarded: CounterId,
    relocks: CounterId,
    switch_duration_ms: HistogramId,
    loss_drift_db: HistogramId,
    circuits: GaugeId,
    spares_north: GaugeId,
    spares_south: GaugeId,
    power_w: GaugeId,
    reconfig_rate: RateWindow,
    relock_rate: RateWindow,
    /// How many per-switch alarms have already been forwarded (the
    /// switch's alarm log is append-only, so this is a scrape cursor).
    cursor: usize,
    /// Alignment events already mirrored into the fleet relock counter.
    relocks_seen: u64,
    /// Drift-log entries already forwarded to the health layer.
    drift_cursor: usize,
}

impl OcsInstruments {
    /// Registers the per-switch instruments in `sink`'s metrics registry.
    pub fn register(sink: &mut FleetTelemetry, switch: u32) -> OcsInstruments {
        let id = switch.to_string();
        let labels: &[(&str, &str)] = &[("switch", &id)];
        let m = &mut sink.metrics;
        let reconfigs = m.counter("ocs_reconfigs_total", labels);
        let relocks = m.counter("ocs_relocks_total", labels);
        OcsInstruments {
            switch,
            reconfigs,
            circuits_preserved: m.counter("ocs_circuits_preserved_total", labels),
            alarms_forwarded: m.counter("ocs_alarms_forwarded_total", labels),
            relocks,
            switch_duration_ms: m.histogram("ocs_switch_duration_ms", labels),
            loss_drift_db: m.histogram("ocs_loss_drift_db", labels),
            circuits: m.gauge("ocs_circuits", labels),
            spares_north: m.gauge("ocs_mirror_spares_north", labels),
            spares_south: m.gauge("ocs_mirror_spares_south", labels),
            power_w: m.gauge("ocs_power_w", labels),
            reconfig_rate: m.rate_window(reconfigs, "ocs_reconfigs_per_sec", labels),
            relock_rate: m.rate_window(relocks, "ocs_relocks_per_sec", labels),
            cursor: 0,
            relocks_seen: 0,
            drift_cursor: 0,
        }
    }

    /// Records a completed bulk reconfiguration: switch duration
    /// histogram, delta counters, and a [`EventKind::Reconfig`] event.
    ///
    /// `started` is the simulation time the reconfiguration was issued;
    /// the duration is `report.ready_at - started` (zero when the delta
    /// added nothing).
    pub fn record_reconfig(
        &mut self,
        sink: &mut FleetTelemetry,
        started: Nanos,
        report: &ReconfigSummary,
    ) {
        let duration = report.ready_at.saturating_sub(started);
        sink.metrics.inc(self.reconfigs, started, 1);
        sink.metrics
            .inc(self.circuits_preserved, started, report.untouched as u64);
        if report.added > 0 {
            sink.metrics
                .observe(self.switch_duration_ms, started, duration.as_millis_f64());
        }
        sink.events.emit(
            started,
            "ocs",
            EventKind::Reconfig {
                switch: self.switch,
                added: report.added as u32,
                removed: report.removed as u32,
                untouched: report.untouched as u32,
                duration,
            },
        );
    }

    /// Records a health snapshot: circuit/spare/power gauges plus the
    /// up/down observation feeding the availability SLO for `ocs-<id>`.
    pub fn record_health(&mut self, sink: &mut FleetTelemetry, at: Nanos, health: &OcsHealth) {
        sink.metrics.set(self.circuits, at, health.circuits as f64);
        sink.metrics
            .set(self.spares_north, at, health.mirror_spares.0 as f64);
        sink.metrics
            .set(self.spares_south, at, health.mirror_spares.1 as f64);
        sink.metrics.set(self.power_w, at, health.power_w);
        sink.slo
            .observe(at, &format!("ocs-{}", self.switch), health.operational);
    }

    /// Records the proactive-maintenance drift census: every port whose
    /// serving mirror drifted past `threshold` feeds the loss-drift
    /// histogram.
    pub fn record_drift(&mut self, sink: &mut FleetTelemetry, at: Nanos, ocs: &PalomarOcs) {
        for (_, _, drift) in ocs.drift_report(Db(0.0)) {
            sink.metrics.observe(self.loss_drift_db, at, drift.db());
        }
    }

    /// Mirrors the switch's alignment (relock) tally into the fleet
    /// `ocs_relocks_total` counter as an exact integer delta, then rolls
    /// the per-second rate windows. The published rates are a pure
    /// function of the counter history and the scrape stamps, so they
    /// replay bit-identically (DESIGN.md §6.4).
    pub fn record_rates(&mut self, sink: &mut FleetTelemetry, at: Nanos, ocs: &PalomarOcs) {
        let total = ocs.telemetry().counters.alignments;
        let delta = total.saturating_sub(self.relocks_seen);
        if delta > 0 {
            sink.metrics.inc(self.relocks, at, delta);
        }
        self.relocks_seen = total;
        self.relock_rate.observe(&mut sink.metrics, at);
        self.reconfig_rate.observe(&mut sink.metrics, at);
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
            let rec = alarm_record(self.switch, alarm);
            sink.metrics.inc(self.alarms_forwarded, alarm.at, 1);
            sink.ingest_alarm(rec);
        }
        self.cursor = alarms.len();
        n
    }

    /// One full scrape: health gauges, drift census, relock/reconfig
    /// rates, alarm forwarding.
    pub fn scrape(&mut self, sink: &mut FleetTelemetry, at: Nanos, ocs: &PalomarOcs) {
        let health = ocs.health();
        self.record_health(sink, at, &health);
        self.record_drift(sink, at, ocs);
        self.record_rates(sink, at, ocs);
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
/// The metrics side of the same report is
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

/// Converts a per-switch [`Alarm`] into the fleet aggregator's record.
///
/// The only lossy step is [`AlarmCode::HighLoss`]'s `f64` reading, which
/// is quantized to milli-dB so the fleet cause is hashable/orderable.
pub fn alarm_record(switch: u32, alarm: &Alarm) -> AlarmRecord {
    let cause = match alarm.code {
        AlarmCode::MirrorFailed {
            north_die,
            port,
            spare_used,
        } => AlarmCause::MirrorFailed {
            north_die,
            port,
            spare_used,
        },
        AlarmCode::AlignmentTimeout { north } => AlarmCause::AlignmentTimeout { north },
        AlarmCode::FruFailed { slot } => AlarmCause::FruFailed { slot: slot as u32 },
        AlarmCode::ChassisDown => AlarmCause::ChassisDown,
        AlarmCode::HighLoss {
            north,
            south,
            loss_db,
        } => AlarmCause::HighLoss {
            north,
            south,
            loss_mdb: (loss_db * 1000.0).round() as i32,
        },
    };
    AlarmRecord {
        at: alarm.at,
        severity: alarm.severity,
        switch,
        cause,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::PortMapping;
    use crate::telemetry::Severity;

    #[test]
    fn reconfig_feeds_metrics_and_events() {
        let mut sink = FleetTelemetry::new();
        let mut ocs = PalomarOcs::new(3, 42);
        let mut inst = OcsInstruments::register(&mut sink, 3);
        let target = PortMapping::from_pairs([(0, 10), (1, 11)]).unwrap();
        let started = ocs.now();
        let report = ocs.apply_mapping(&target).unwrap();
        inst.record_reconfig(&mut sink, started, &report.summary());
        assert_eq!(
            sink.metrics.counter_value(inst.reconfigs),
            1,
            "one reconfig recorded"
        );
        let h = sink.metrics.histogram_value(inst.switch_duration_ms);
        assert_eq!(h.count(), 1);
        assert!(h.max().unwrap() > 1.0, "ms-class switch duration");
        assert!(matches!(
            sink.events.recent().last().unwrap().kind,
            EventKind::Reconfig {
                switch: 3,
                added: 2,
                ..
            }
        ));
    }

    #[test]
    fn alarm_forwarding_is_incremental() {
        let mut sink = FleetTelemetry::new();
        let mut ocs = PalomarOcs::new(0, 4);
        let mut inst = OcsInstruments::register(&mut sink, 0);
        ocs.fail_mirror(true, 9);
        assert_eq!(inst.forward_alarms(&mut sink, &ocs), 1);
        assert_eq!(inst.forward_alarms(&mut sink, &ocs), 0, "cursor advanced");
        ocs.fail_mirror(true, 9);
        assert_eq!(inst.forward_alarms(&mut sink, &ocs), 1);
        assert_eq!(sink.alarms.ingested(), 2);
    }

    #[test]
    fn high_loss_quantizes_to_milli_db() {
        let alarm = Alarm {
            at: Nanos(5),
            severity: Severity::Warning,
            code: AlarmCode::HighLoss {
                north: 1,
                south: 2,
                loss_db: 2.1234,
            },
        };
        let rec = alarm_record(7, &alarm);
        assert_eq!(
            rec.cause,
            AlarmCause::HighLoss {
                north: 1,
                south: 2,
                loss_mdb: 2123
            }
        );
        assert_eq!(rec.switch, 7);
    }

    #[test]
    fn rates_mirror_alignments_and_publish_per_second() {
        let mut sink = FleetTelemetry::new();
        let mut ocs = PalomarOcs::new(1, 11);
        let mut inst = OcsInstruments::register(&mut sink, 1);
        for i in 0..4u16 {
            ocs.connect(i, i + 64).unwrap();
        }
        inst.record_rates(&mut sink, Nanos(0), &ocs);
        assert_eq!(sink.metrics.counter_value(inst.relocks), 4);
        // Second scrape with no new alignments adds nothing.
        inst.record_rates(&mut sink, Nanos(1), &ocs);
        assert_eq!(sink.metrics.counter_value(inst.relocks), 4);
        // After the 1 s window rolls over, the rate gauge publishes.
        inst.record_rates(&mut sink, Nanos::from_secs_f64(1.5), &ocs);
        assert_eq!(sink.metrics.gauge_value(inst.relock_rate.gauge()), 4.0);
    }

    #[test]
    fn drift_forwarding_is_incremental_and_feeds_health() {
        let mut sink = FleetTelemetry::new();
        let mut health = FleetHealth::default();
        let mut ocs = PalomarOcs::new(5, 21);
        let mut inst = OcsInstruments::register(&mut sink, 5);
        ocs.degrade_mirror(true, 3, 0.03);
        ocs.degrade_mirror(true, 3, 0.03);
        assert_eq!(inst.forward_drift(&mut sink, &mut health, &ocs), 2);
        assert_eq!(inst.forward_drift(&mut sink, &mut health, &ocs), 0);
        ocs.degrade_mirror(true, 3, 0.03);
        assert_eq!(inst.forward_drift(&mut sink, &mut health, &ocs), 1);
        // The health layer retained the samples under this switch's label.
        assert_eq!(health.store().recent_for_switch(5, 8).len(), 3);
    }

    #[test]
    fn health_scrape_drives_slo() {
        let mut sink = FleetTelemetry::new();
        let mut ocs = PalomarOcs::new(2, 8);
        let mut inst = OcsInstruments::register(&mut sink, 2);
        inst.scrape(&mut sink, Nanos(0), &ocs);
        ocs.fail_fru(0);
        ocs.fail_fru(1); // both PSUs: chassis down
        ocs.advance(Nanos::from_secs_f64(10.0));
        inst.scrape(&mut sink, ocs.now(), &ocs);
        let report = sink.slo.report(Nanos::from_secs_f64(20.0));
        let o = report.objects.iter().find(|o| o.object == "ocs-2").unwrap();
        assert!(o.in_violation, "10 s+ outage blows the 99.98% budget");
        assert!(o.downtime >= Nanos::from_secs_f64(10.0));
    }
}
