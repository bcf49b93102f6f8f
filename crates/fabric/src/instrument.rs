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

use crate::controller::{CommitError, CommitReport, FabricController, FabricTarget};
use crate::fleet::{OcsFleet, OcsId};
use lightwave_ocs::instrument::OcsInstruments;
use lightwave_telemetry::rollup::{PortPath, RollupTree};
use lightwave_telemetry::{CounterId, EventKind, FleetTelemetry, HistogramId, RateWindow};
use lightwave_trace::{Lane, SpanId, SpanKind, Tracer};
use lightwave_units::Nanos;
use std::collections::BTreeMap;

/// Fleet-metric handles for the fabric controller.
#[derive(Debug, Default)]
pub struct FabricInstruments {
    handles: Option<Handles>,
    /// Per-second commit rate over fixed windows. Lives outside
    /// [`Handles`] because the window carries mutable cursor state and
    /// `Handles` is cloned out on each record.
    commit_rate: Option<RateWindow>,
    per_switch: BTreeMap<OcsId, OcsInstruments>,
}

#[derive(Debug, Clone)]
struct Handles {
    commits: CounterId,
    circuits_added: CounterId,
    circuits_removed: CounterId,
    circuits_untouched: CounterId,
    delta_size: HistogramId,
    settle_ms: HistogramId,
    touched_switches: HistogramId,
    pairs_added: HistogramId,
    pairs_removed: HistogramId,
}

impl Handles {
    fn register(sink: &mut FleetTelemetry) -> Handles {
        let m = &mut sink.metrics;
        Handles {
            commits: m.counter("fabric_commits_total", &[]),
            circuits_added: m.counter("fabric_circuits_added_total", &[]),
            circuits_removed: m.counter("fabric_circuits_removed_total", &[]),
            circuits_untouched: m.counter("fabric_circuits_untouched_total", &[]),
            delta_size: m.histogram("fabric_commit_delta_circuits", &[]),
            settle_ms: m.histogram("fabric_commit_settle_ms", &[]),
            touched_switches: m.histogram("fabric_commit_touched_switches", &[]),
            pairs_added: m.histogram("fabric_commit_pairs_added", &[]),
            pairs_removed: m.histogram("fabric_commit_pairs_removed", &[]),
        }
    }
}

impl FabricInstruments {
    /// Registers the controller-level instruments in `sink`'s metrics
    /// registry; per-switch instruments register lazily at first scrape.
    pub fn register(sink: &mut FleetTelemetry) -> FabricInstruments {
        FabricInstruments {
            handles: Some(Handles::register(sink)),
            commit_rate: None,
            per_switch: BTreeMap::new(),
        }
    }

    fn handles(&mut self, sink: &mut FleetTelemetry) -> Handles {
        self.handles
            .get_or_insert_with(|| Handles::register(sink))
            .clone()
    }

    /// Rolls the commit-rate window at sim time `at`, publishing the
    /// `fabric_commits_per_sec` gauge on rollover.
    fn roll_commit_rate(&mut self, sink: &mut FleetTelemetry, at: Nanos) {
        let commits = self.handles(sink).commits;
        let mut rate = *self.commit_rate.get_or_insert_with(|| {
            sink.metrics.rate_window(
                commits,
                "fabric_commits_per_sec",
                &[],
                Nanos::from_secs_f64(1.0),
            )
        });
        rate.observe(&mut sink.metrics, at);
        self.commit_rate = Some(rate);
    }

    /// Records a committed transaction: delta counters, disturbed-circuit
    /// and settle-time histograms, and a [`EventKind::Commit`] event.
    ///
    /// `at` is the simulation time the commit was issued.
    pub fn record_commit(&mut self, sink: &mut FleetTelemetry, at: Nanos, report: &CommitReport) {
        self.record_commit_impl(sink, at, report, None);
    }

    /// [`Self::record_commit`] plus a causal span tree: one
    /// [`SpanKind::FabricCommit`] on the control lane covering
    /// `at..traffic_ready_at`, with each touched switch's
    /// [`SpanKind::ReconfigCommit`] (and its four phases) as children.
    /// Returns the commit span.
    pub fn record_commit_traced(
        &mut self,
        sink: &mut FleetTelemetry,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        at: Nanos,
        report: &CommitReport,
    ) -> SpanId {
        let commit = tracer.begin(
            Lane::Control,
            parent,
            at,
            SpanKind::FabricCommit {
                switches: report.per_switch.len() as u32,
                added: report.added as u32,
                removed: report.removed as u32,
                untouched: report.untouched as u32,
            },
        );
        self.record_commit_impl(sink, at, report, Some((tracer, commit)));
        tracer.end(commit, report.traffic_ready_at.max(at));
        commit
    }

    fn record_commit_impl(
        &mut self,
        sink: &mut FleetTelemetry,
        at: Nanos,
        report: &CommitReport,
        mut trace: Option<(&mut Tracer, SpanId)>,
    ) {
        let h = self.handles(sink);
        sink.metrics.inc(h.commits, at, 1);
        self.roll_commit_rate(sink, at);
        sink.metrics.inc(h.circuits_added, at, report.added as u64);
        sink.metrics
            .inc(h.circuits_removed, at, report.removed as u64);
        sink.metrics
            .inc(h.circuits_untouched, at, report.untouched as u64);
        sink.metrics
            .observe(h.delta_size, at, (report.added + report.removed) as f64);
        // Commit shape: how wide the transaction fanned out (touched
        // switches) and the per-direction delta-pair counts — the
        // distributions PR 7's incremental composer is meant to keep
        // small, now visible per commit rather than only as totals.
        if !report.per_switch.is_empty() {
            sink.metrics
                .observe(h.touched_switches, at, report.per_switch.len() as f64);
        }
        if report.added > 0 {
            sink.metrics.observe(h.pairs_added, at, report.added as f64);
        }
        if report.removed > 0 {
            sink.metrics
                .observe(h.pairs_removed, at, report.removed as f64);
        }
        let settle = report.traffic_ready_at.saturating_sub(at);
        if report.added > 0 {
            sink.metrics
                .observe(h.settle_ms, at, settle.as_millis_f64());
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
            let inst = self
                .per_switch
                .entry(id)
                .or_insert_with(|| OcsInstruments::register(sink, id));
            match trace.as_mut() {
                Some((tracer, commit)) => {
                    inst.record_reconfig_traced(sink, tracer, Some(*commit), at, switch_report);
                }
                None => inst.record_reconfig(sink, at, switch_report),
            }
        }
    }

    /// Folds a committed transaction into the campus rollup tree: per
    /// touched switch, the circuits moved (`fabric_commit_moves`) and
    /// preserved (`fabric_commit_untouched`) at that switch's leaf
    /// under `pod`, plus the fabric-wide settle time on the pod-level
    /// pseudo-switch leaf `u32::MAX`.
    pub fn roll_commit(tree: &mut RollupTree, pod: u32, at: Nanos, report: &CommitReport) {
        let moves = tree.metric("fabric_commit_moves");
        let kept = tree.metric("fabric_commit_untouched");
        for (&id, r) in &report.per_switch {
            let path = PortPath::new(pod, id, 0);
            let delta = (r.added + r.removed) as f64;
            tree.ingest(moves, path, at, delta);
            tree.ingest(kept, path, at, r.untouched as f64);
        }
        if report.added > 0 {
            let settle = report.traffic_ready_at.saturating_sub(at);
            tree.record(
                "fabric_settle_ms",
                PortPath::new(pod, u32::MAX, 0),
                at,
                settle.as_millis_f64(),
            );
        }
    }

    /// Commits `target` through `controller`, recording the outcome.
    /// Failed commits record nothing (nothing was applied).
    pub fn commit_observed(
        &mut self,
        sink: &mut FleetTelemetry,
        controller: &mut FabricController,
        target: &FabricTarget,
    ) -> Result<CommitReport, CommitError> {
        let at = controller.now();
        let report = controller.commit(target)?;
        self.record_commit(sink, at, &report);
        Ok(report)
    }

    /// [`Self::commit_observed`] with the span tree of
    /// [`Self::record_commit_traced`]. Failed commits record and trace
    /// nothing.
    pub fn commit_observed_traced(
        &mut self,
        sink: &mut FleetTelemetry,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        controller: &mut FabricController,
        target: &FabricTarget,
    ) -> Result<(CommitReport, SpanId), CommitError> {
        let at = controller.now();
        let report = controller.commit(target)?;
        let span = self.record_commit_traced(sink, tracer, parent, at, &report);
        Ok((report, span))
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
        self.roll_commit_rate(sink, at);
        sink.advance(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwave_ocs::PortMapping;

    #[test]
    fn observed_commit_records_delta_and_event() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::register(&mut sink);
        let mut c = FabricController::new(OcsFleet::build(2, 17));
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap());
        t.set(1, PortMapping::from_pairs([(5, 6)]).unwrap());
        let report = inst.commit_observed(&mut sink, &mut c, &t).unwrap();
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
    fn traced_commit_builds_the_span_tree() {
        let mut sink = FleetTelemetry::new();
        let mut tracer = Tracer::new(99);
        let mut inst = FabricInstruments::register(&mut sink);
        let mut c = FabricController::new(OcsFleet::build(2, 17));
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap());
        t.set(1, PortMapping::from_pairs([(5, 6)]).unwrap());
        let (report, commit) = inst
            .commit_observed_traced(&mut sink, &mut tracer, None, &mut c, &t)
            .unwrap();
        assert_eq!(report.added, 3);
        assert_eq!(tracer.open_count(), 0, "commit span closed");
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.id == commit).unwrap();
        assert!(matches!(
            root.kind,
            SpanKind::FabricCommit {
                switches: 2,
                added: 3,
                ..
            }
        ));
        let reconfigs: Vec<_> = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::ReconfigCommit { .. }))
            .collect();
        assert_eq!(reconfigs.len(), 2, "one per touched switch");
        for r in &reconfigs {
            assert_eq!(r.parent, Some(commit));
        }
        // Both switches added circuits ⇒ both get the 4-phase chain.
        let phases = spans
            .iter()
            .filter(|s| matches!(s.kind, SpanKind::Phase { .. }))
            .count();
        assert_eq!(phases, 8);
        // Metrics recorded exactly once (no double fan-out).
        assert_eq!(
            sink.metrics
                .find("fabric_commits_total", &[])
                .map(|v| format!("{v:?}")),
            Some("Counter(1)".to_string())
        );
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
        inst.commit_observed(&mut sink, &mut c, &t).unwrap();
        // Commit 2: narrow delta — switch 0 drops one pair.
        t.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        inst.commit_observed(&mut sink, &mut c, &t).unwrap();
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
        assert!(inst.commit_observed(&mut sink, &mut c, &t).is_err());
        assert_eq!(sink.events.published(), 0);
    }

    #[test]
    fn commit_rate_gauge_publishes_on_window_rollover() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::register(&mut sink);
        let mut c = FabricController::new(OcsFleet::build(1, 17));
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1)]).unwrap());
        inst.commit_observed(&mut sink, &mut c, &t).unwrap();
        // Advance past the 1 s window; the next scrape publishes the rate.
        c.fleet.advance(Nanos::from_secs_f64(1.5));
        inst.scrape_fleet(&mut sink, &c.fleet);
        let rate = inst.commit_rate.expect("window registered");
        assert_eq!(sink.metrics.gauge_value(rate.gauge()), 1.0);
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
