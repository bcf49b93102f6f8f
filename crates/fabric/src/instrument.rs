//! Bridges the fabric control plane into the fleet observability
//! subsystem (`lightwave-telemetry`).
//!
//! Two views feed in here:
//!
//! - **commits** — each controller transaction records its delta size,
//!   disturbed-circuit count, the non-disruption audit (untouched
//!   circuits), and time-to-traffic-ready;
//! - **fleet scrapes** — every switch's health gauges, loss-drift census,
//!   availability SLO observation, and raw alarms (which the aggregator
//!   debounces and correlates), via a per-switch [`OcsInstruments`].

use crate::controller::CommitReport;
use crate::fleet::{OcsFleet, OcsId};
use lightwave_ocs::instrument::OcsInstruments;
use lightwave_telemetry::{CounterId, EventKind, FleetTelemetry, HistogramId, RateWindow};
use lightwave_units::Nanos;
use std::collections::BTreeMap;

/// Fleet-metric handles for the fabric controller.
#[derive(Debug)]
pub struct FabricInstruments {
    commits: CounterId,
    circuits_added: CounterId,
    circuits_removed: CounterId,
    circuits_untouched: CounterId,
    delta_size: HistogramId,
    settle_ms: HistogramId,
    touched_switches: HistogramId,
    pairs_added: HistogramId,
    pairs_removed: HistogramId,
    /// Per-second commit rate over fixed windows, rolled by every
    /// recorded commit and every fleet scrape.
    commit_rate: RateWindow,
    per_switch: BTreeMap<OcsId, OcsInstruments>,
}

impl FabricInstruments {
    /// Registers the controller-level instruments in `sink`'s metrics
    /// registry; per-switch instruments register lazily at first use.
    pub fn register(sink: &mut FleetTelemetry) -> FabricInstruments {
        let m = &mut sink.metrics;
        let commits = m.counter("fabric_commits_total", &[]);
        FabricInstruments {
            commits,
            circuits_added: m.counter("fabric_circuits_added_total", &[]),
            circuits_removed: m.counter("fabric_circuits_removed_total", &[]),
            circuits_untouched: m.counter("fabric_circuits_untouched_total", &[]),
            delta_size: m.histogram("fabric_commit_delta_circuits", &[]),
            settle_ms: m.histogram("fabric_commit_settle_ms", &[]),
            touched_switches: m.histogram("fabric_commit_touched_switches", &[]),
            pairs_added: m.histogram("fabric_commit_pairs_added", &[]),
            pairs_removed: m.histogram("fabric_commit_pairs_removed", &[]),
            commit_rate: m.rate_window(commits, "fabric_commits_per_sec", &[]),
            per_switch: BTreeMap::new(),
        }
    }

    /// Records a committed transaction: delta counters, disturbed-circuit
    /// and settle-time histograms, and a [`EventKind::Commit`] event.
    ///
    /// `at` is the simulation time the commit was issued.
    pub fn record_commit(&mut self, sink: &mut FleetTelemetry, at: Nanos, report: &CommitReport) {
        sink.metrics.inc(self.commits, at, 1);
        self.commit_rate.observe(&mut sink.metrics, at);
        sink.metrics
            .inc(self.circuits_added, at, report.added as u64);
        sink.metrics
            .inc(self.circuits_removed, at, report.removed as u64);
        sink.metrics
            .inc(self.circuits_untouched, at, report.untouched as u64);
        sink.metrics
            .observe(self.delta_size, at, (report.added + report.removed) as f64);
        // Commit shape: how wide the transaction fanned out (touched
        // switches) and the per-direction delta-pair counts — the
        // distributions PR 7's incremental composer is meant to keep
        // small, now visible per commit rather than only as totals.
        if !report.per_switch.is_empty() {
            sink.metrics
                .observe(self.touched_switches, at, report.per_switch.len() as f64);
        }
        if report.added > 0 {
            sink.metrics
                .observe(self.pairs_added, at, report.added as f64);
        }
        if report.removed > 0 {
            sink.metrics
                .observe(self.pairs_removed, at, report.removed as f64);
        }
        let settle = report.traffic_ready_at.saturating_sub(at);
        if report.added > 0 {
            sink.metrics
                .observe(self.settle_ms, at, settle.as_millis_f64());
        }
        sink.events.emit(
            at,
            "fabric",
            EventKind::Commit {
                switches: report.per_switch.len() as u32,
                added: report.added as u32,
                removed: report.removed as u32,
                untouched: report.untouched as u32,
                settle,
            },
        );
        // Fan the per-switch reports into each switch's own instruments
        // (reconfig counters + switch-duration histogram).
        for (&id, switch_report) in &report.per_switch {
            self.per_switch
                .entry(id)
                .or_insert_with(|| OcsInstruments::register(sink, id))
                .record_reconfig(sink, at, switch_report);
        }
    }

    /// Scrapes every switch in the fleet: health gauges, drift census,
    /// SLO observations, and alarm forwarding into the aggregator.
    pub fn scrape_fleet(&mut self, sink: &mut FleetTelemetry, fleet: &OcsFleet) {
        let at = fleet.now();
        for (&id, ocs) in fleet.iter() {
            let inst = self
                .per_switch
                .entry(id)
                .or_insert_with(|| OcsInstruments::register(sink, id));
            inst.scrape(sink, at, ocs);
        }
        self.commit_rate.observe(&mut sink.metrics, at);
        sink.advance(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CommitError, FabricController, FabricTarget};
    use lightwave_ocs::PortMapping;

    /// What a caller does: commit, then record the report at the time the
    /// commit was issued. A failed commit returns before anything is
    /// recorded.
    fn commit(
        inst: &mut FabricInstruments,
        sink: &mut FleetTelemetry,
        c: &mut FabricController,
        t: &FabricTarget,
    ) -> Result<CommitReport, CommitError> {
        let at = c.now();
        let report = c.commit(t)?;
        inst.record_commit(sink, at, &report);
        Ok(report)
    }

    #[test]
    fn recorded_commit_feeds_delta_counters_and_event() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::register(&mut sink);
        let mut c = FabricController::new(OcsFleet::build(2, 17));
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap());
        t.set(1, PortMapping::from_pairs([(5, 6)]).unwrap());
        let report = commit(&mut inst, &mut sink, &mut c, &t).unwrap();
        assert_eq!(report.added, 3);
        assert_eq!(
            sink.metrics
                .find("fabric_commits_total", &[])
                .map(|v| format!("{v:?}")),
            Some("Counter(1)".to_string())
        );
        assert!(sink.events.recent().any(|e| matches!(
            e.kind,
            EventKind::Commit {
                switches: 2,
                added: 3,
                ..
            }
        )));
    }

    #[test]
    fn commit_shape_histograms_track_touch_and_pair_counts() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::register(&mut sink);
        let mut c = FabricController::new(OcsFleet::build(3, 17));
        // Commit 1: two switches, 3 pairs added, nothing removed.
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap());
        t.set(1, PortMapping::from_pairs([(5, 6)]).unwrap());
        commit(&mut inst, &mut sink, &mut c, &t).unwrap();
        // Commit 2: narrow delta — switch 0 drops one pair.
        t.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        commit(&mut inst, &mut sink, &mut c, &t).unwrap();
        let hist = |name: &str| match sink.metrics.find(name, &[]) {
            Some(lightwave_telemetry::metrics::MetricValue::Histogram(h)) => h.clone(),
            other => panic!("{name}: {other:?}"),
        };
        let touched = hist("fabric_commit_touched_switches");
        assert_eq!(touched.count(), 2);
        assert_eq!(touched.max(), Some(2.0), "widest commit touched 2");
        let added = hist("fabric_commit_pairs_added");
        assert_eq!(added.count(), 1, "removal-only commit records no add");
        assert_eq!(added.max(), Some(3.0));
        let removed = hist("fabric_commit_pairs_removed");
        assert_eq!(removed.count(), 1);
        assert_eq!(removed.max(), Some(1.0));
    }

    #[test]
    fn failed_commit_records_nothing() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::register(&mut sink);
        let mut c = FabricController::new(OcsFleet::build(1, 3));
        let mut t = FabricTarget::new();
        t.set(9, PortMapping::from_pairs([(0, 1)]).unwrap());
        assert!(commit(&mut inst, &mut sink, &mut c, &t).is_err());
        assert_eq!(sink.events.published(), 0);
    }

    #[test]
    fn commit_rate_gauge_publishes_on_window_rollover() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::register(&mut sink);
        let mut c = FabricController::new(OcsFleet::build(1, 17));
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        commit(&mut inst, &mut sink, &mut c, &t).unwrap();
        // Advance past the 1 s window; the next scrape publishes the rate.
        c.fleet.advance(Nanos::from_secs_f64(1.5));
        inst.scrape_fleet(&mut sink, &c.fleet);
        assert_eq!(sink.metrics.gauge_value(inst.commit_rate.gauge()), 1.0);
    }

    #[test]
    fn fleet_scrape_forwards_alarms_once() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::register(&mut sink);
        let mut fleet = OcsFleet::build(2, 5);
        fleet.get_mut(1).unwrap().fail_mirror(true, 4);
        inst.scrape_fleet(&mut sink, &fleet);
        assert_eq!(sink.alarms.ingested(), 1);
        inst.scrape_fleet(&mut sink, &fleet);
        assert_eq!(sink.alarms.ingested(), 1, "scrape cursor advanced");
        assert_eq!(sink.slo.len(), 2, "both switches SLO-tracked");
    }
}
