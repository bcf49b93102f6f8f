//! Bridges collective-simulation results into the fleet observability
//! subsystem (`lightwave-telemetry`) — in particular straggler
//! detection.
//!
//! Ring collectives are synchronous, so one derated link stalls every
//! chip in its dimension at every step ([`crate::collective_sim`]). The
//! detector compares an observed run against its healthy baseline
//! phase-by-phase and raises per-dimension straggler alarms, closing the
//! §4.2.2 loop: detect the slow cube, then reconfigure the slice off it.

use crate::collective_sim::SimOutcome;
use lightwave_fabric::{CommitError, CommitReport, OcsId};
use lightwave_ocs::instrument::trace_reconfig;
use lightwave_ocs::ReconfigSummary;
use lightwave_telemetry::rollup::{PortPath, RollupTree};
use lightwave_telemetry::{
    AlarmCause, AlarmRecord, CounterId, EventKind, FleetTelemetry, HistogramId, Severity,
};
use lightwave_trace::{Lane, SpanId, SpanKind, Tracer};
use lightwave_units::Nanos;

/// A phase-time slowdown past this ratio over baseline flags a straggler.
pub const STRAGGLER_THRESHOLD: f64 = 1.2;

/// One detected straggler dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    /// Torus dimension whose phases slowed.
    pub dim: u8,
    /// Worst phase slowdown over baseline, percent (e.g. 300 = 4×).
    pub slowdown_pct: u32,
}

/// Fleet-metric handles for one pod's collectives, labeled `{pod=<id>}`.
#[derive(Debug, Clone)]
pub struct CollectiveInstruments {
    pod: u32,
    collective_s: HistogramId,
    phase_s: HistogramId,
    steps: CounterId,
    stragglers: CounterId,
}

impl CollectiveInstruments {
    /// Registers the per-pod instruments in `sink`'s metrics registry.
    pub fn register(sink: &mut FleetTelemetry, pod: u32) -> CollectiveInstruments {
        let id = pod.to_string();
        let labels: &[(&str, &str)] = &[("pod", &id)];
        let m = &mut sink.metrics;
        CollectiveInstruments {
            pod,
            collective_s: m.histogram("pod_collective_s", labels),
            phase_s: m.histogram("pod_collective_phase_s", labels),
            steps: m.counter("pod_collective_steps_total", labels),
            stragglers: m.counter("pod_stragglers_detected_total", labels),
        }
    }

    /// Records one simulated collective's timings.
    pub fn record_collective(&mut self, sink: &mut FleetTelemetry, at: Nanos, run: &SimOutcome) {
        sink.metrics.observe(self.collective_s, at, run.total);
        for &p in &run.phase_times {
            if p > 0.0 {
                sink.metrics.observe(self.phase_s, at, p);
            }
        }
        sink.metrics.inc(self.steps, at, run.steps as u64);
    }

    /// Compares an observed collective against its healthy baseline
    /// phase-by-phase and alarms every dimension whose worst phase ran
    /// more than [`STRAGGLER_THRESHOLD`]× slower.
    ///
    /// `dims` must be the dimension order both runs were simulated with
    /// (phases are `dims` forward for reduce-scatter, then reversed for
    /// all-gather). Slowdowns past 2× alarm Critical — the job is losing
    /// more time than a slice reconfiguration costs.
    pub fn detect_stragglers(
        &mut self,
        sink: &mut FleetTelemetry,
        at: Nanos,
        dims: &[usize],
        healthy: &SimOutcome,
        observed: &SimOutcome,
    ) -> Vec<Straggler> {
        assert_eq!(
            healthy.phase_times.len(),
            observed.phase_times.len(),
            "baseline and observation must have the same phase structure"
        );
        assert_eq!(healthy.phase_times.len(), 2 * dims.len());
        // Phase i covers dims[i] on the way out, dims[2d-1-i] on the way
        // back; fold both into a per-dimension worst slowdown.
        let mut worst_pct = vec![0u32; dims.len()];
        for (i, (&h, &o)) in healthy
            .phase_times
            .iter()
            .zip(&observed.phase_times)
            .enumerate()
        {
            if h <= 0.0 {
                continue;
            }
            let ratio = o / h;
            if ratio > STRAGGLER_THRESHOLD {
                let di = if i < dims.len() {
                    i
                } else {
                    2 * dims.len() - 1 - i
                };
                let pct = ((ratio - 1.0) * 100.0).round() as u32;
                worst_pct[di] = worst_pct[di].max(pct);
            }
        }
        let mut found = Vec::new();
        for (di, &pct) in worst_pct.iter().enumerate() {
            if pct == 0 {
                continue;
            }
            let dim = dims[di] as u8;
            found.push(Straggler {
                dim,
                slowdown_pct: pct,
            });
            sink.metrics.inc(self.stragglers, at, 1);
            sink.events.emit(
                at,
                "superpod",
                EventKind::StragglerDetected {
                    dim,
                    slowdown_pct: pct,
                },
            );
            sink.ingest_alarm(AlarmRecord {
                at,
                severity: if pct >= 100 {
                    Severity::Critical
                } else {
                    Severity::Warning
                },
                switch: self.pod,
                cause: AlarmCause::Straggler { dim },
            });
        }
        found
    }
}

/// Renders a slice composition as a span tree: a
/// [`SpanKind::SliceCompose`] on the pod's lane covering
/// `at..traffic_ready_at`, with each touched switch's
/// [`SpanKind::ReconfigCommit`] — and its drain → settle → verify →
/// undrain phase chain — as children. Commits are incremental
/// (DESIGN §6.6), so "touched" means exactly the switches of the
/// slice's optical dimensions: an all-electrical single-cube compose
/// renders as a childless instant-width span. Returns the compose span.
pub fn trace_compose(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    pod: u32,
    at: Nanos,
    cubes: u32,
    report: &CommitReport,
) -> SpanId {
    let kind = SpanKind::SliceCompose {
        cubes,
        circuits: report.added as u32,
    };
    trace_topology_change(tracer, parent, pod, at, kind, report)
}

/// Renders a slice release the same way ([`trace_compose`]), as a
/// [`SpanKind::SliceRelease`] span tree. Returns the release span.
pub fn trace_release(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    pod: u32,
    at: Nanos,
    cubes: u32,
    report: &CommitReport,
) -> SpanId {
    let kind = SpanKind::SliceRelease {
        cubes,
        circuits: report.removed as u32,
    };
    trace_topology_change(tracer, parent, pod, at, kind, report)
}

fn trace_topology_change(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    pod: u32,
    at: Nanos,
    kind: SpanKind,
    report: &CommitReport,
) -> SpanId {
    let span = tracer.begin(Lane::Pod(pod), parent, at, kind);
    for (&switch, sw) in &report.per_switch {
        trace_reconfig(tracer, Some(span), switch, at, sw);
    }
    tracer.end(span, report.traffic_ready_at.max(at));
    span
}

/// Folds a slice composition or release into the campus rollup tree:
/// one `pod_slice_moves` sample per touched switch (at that switch's
/// leaf under `pod`), plus a pod-scoped `pod_slice_settle_ms` sample on
/// pseudo-switch `u32::MAX` when circuits were added — the one renderer
/// of a [`CommitReport`] into the rollup tree.
pub fn roll_topology_change(tree: &mut RollupTree, pod: u32, at: Nanos, report: &CommitReport) {
    let moves = tree.metric("pod_slice_moves");
    for (&switch, sw) in &report.per_switch {
        let delta = (sw.added + sw.removed) as f64;
        tree.ingest(moves, PortPath::new(pod, switch, 0), at, delta);
    }
    if report.added > 0 {
        let settle = report.traffic_ready_at.saturating_sub(at);
        tree.record(
            "pod_slice_settle_ms",
            PortPath::new(pod, u32::MAX, 0),
            at,
            settle.as_millis_f64(),
        );
    }
}

/// Records one [`Superpod::resync`](crate::Superpod::resync) pass into
/// the fleet sink. Anti-entropy used to be invisible in telemetry — a
/// revived switch silently rejoined the fabric between composes. Each
/// reconciled switch now bumps `pod_resyncs_total{pod=..}` and publishes
/// an informational [`EventKind::Resync`] event; each switch that stayed
/// desynced bumps `pod_resync_failures_total{pod=..}`. Returns the
/// number of switches reconciled.
pub fn record_resync(
    sink: &mut FleetTelemetry,
    pod: u32,
    at: Nanos,
    results: &[(OcsId, Result<ReconfigSummary, CommitError>)],
) -> usize {
    let id = pod.to_string();
    let labels: &[(&str, &str)] = &[("pod", &id)];
    let ok = sink.metrics.counter("pod_resyncs_total", labels);
    let failed = sink.metrics.counter("pod_resync_failures_total", labels);
    let mut reconciled = 0;
    for (ocs, result) in results {
        match result {
            Ok(report) => {
                reconciled += 1;
                sink.metrics.inc(ok, at, 1);
                sink.events.emit(
                    at,
                    &format!("pod-{pod}"),
                    EventKind::Resync {
                        switch: *ocs,
                        added: report.added as u32,
                        removed: report.removed as u32,
                        untouched: report.untouched as u32,
                    },
                );
            }
            Err(_) => sink.metrics.inc(failed, at, 1),
        }
    }
    reconciled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective_sim::{simulate_torus_all_reduce, Uniform, WithStraggler};
    use crate::slice::SliceShape;
    use crate::torus::Chip;

    fn shape() -> SliceShape {
        SliceShape::new(8, 8, 8).expect("valid")
    }

    #[test]
    fn healthy_run_detects_nothing() {
        let mut sink = FleetTelemetry::new();
        let mut inst = CollectiveInstruments::register(&mut sink, 0);
        let run = simulate_torus_all_reduce(shape(), 256e6, &[0, 1, 2], &Uniform(100e9), 300e-9);
        inst.record_collective(&mut sink, Nanos(0), &run);
        let found = inst.detect_stragglers(&mut sink, Nanos(0), &[0, 1, 2], &run, &run);
        assert!(found.is_empty());
        assert_eq!(sink.alarms.pages(), 0);
        let h = sink.metrics.histogram_value(inst.collective_s);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn derated_link_is_pinned_to_its_dimension() {
        let mut sink = FleetTelemetry::new();
        let mut inst = CollectiveInstruments::register(&mut sink, 7);
        let base = 100e9;
        let healthy = simulate_torus_all_reduce(shape(), 256e6, &[0, 1, 2], &Uniform(base), 300e-9);
        let bad = WithStraggler {
            base,
            chip: Chip { coords: [3, 5, 2] },
            dim: 1,
            derated: base / 4.0,
        };
        let observed = simulate_torus_all_reduce(shape(), 256e6, &[0, 1, 2], &bad, 300e-9);
        let found = inst.detect_stragglers(&mut sink, Nanos(5), &[0, 1, 2], &healthy, &observed);
        assert_eq!(found.len(), 1, "exactly the derated dimension flags");
        assert_eq!(found[0].dim, 1);
        assert!(found[0].slowdown_pct > 100, "4× derate ⇒ ≈300% slower");
        // A >2× slowdown pages Critical on pod 7.
        let inc = sink.alarms.open_incidents().next().unwrap();
        assert_eq!(inc.severity, Severity::Critical);
        assert_eq!(inc.switch, 7);
        assert!(sink
            .events
            .recent()
            .any(|e| matches!(e.kind, EventKind::StragglerDetected { dim: 1, .. })));
    }
}
