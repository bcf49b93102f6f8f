//! Bridges the pod into the fleet observability subsystem
//! (`lightwave-telemetry`): straggler detection, resync events, and the
//! compose/release span trees.
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
use lightwave_telemetry::{AlarmCause, AlarmRecord, EventKind, FleetTelemetry, Severity};
use lightwave_trace::{Lane, SpanId, SpanKind, Tracer};
use lightwave_units::Nanos;

/// A phase-time slowdown past this ratio over baseline flags a straggler.
pub(crate) const STRAGGLER_THRESHOLD: f64 = 1.2;

/// One detected straggler dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    /// Torus dimension whose phases slowed.
    pub dim: u8,
    /// Worst phase slowdown over baseline, percent (e.g. 300 = 4×).
    pub slowdown_pct: u32,
}

/// Compares an observed collective on `pod` against its healthy
/// baseline phase-by-phase and alarms every dimension whose worst phase
/// ran more than `STRAGGLER_THRESHOLD`× slower.
///
/// `dims` must be the dimension order both runs were simulated with
/// (phases are `dims` forward for reduce-scatter, then reversed for
/// all-gather). Slowdowns past 2× alarm Critical — the job is losing
/// more time than a slice reconfiguration costs.
pub fn detect_stragglers(
    sink: &mut FleetTelemetry,
    pod: u32,
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
            switch: pod,
            cause: AlarmCause::Straggler { dim },
        });
    }
    found
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

/// Records one [`Superpod::resync`](crate::Superpod::resync) pass into
/// the fleet sink: each reconciled switch publishes an informational
/// [`EventKind::Resync`] event, so a revived switch does not rejoin the
/// fabric unseen between composes. Returns the number of switches
/// reconciled.
pub fn record_resync(
    sink: &mut FleetTelemetry,
    pod: u32,
    at: Nanos,
    results: &[(OcsId, Result<ReconfigSummary, CommitError>)],
) -> usize {
    let mut reconciled = 0;
    for (ocs, report) in results {
        if let Ok(report) = report {
            reconciled += 1;
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
        let run = simulate_torus_all_reduce(shape(), 256e6, &[0, 1, 2], &Uniform(100e9), 300e-9);
        let found = detect_stragglers(&mut sink, 0, Nanos(0), &[0, 1, 2], &run, &run);
        assert!(found.is_empty());
        assert_eq!(sink.alarms.pages(), 0);
        assert_eq!(sink.events.published(), 0);
    }

    #[test]
    fn derated_link_is_pinned_to_its_dimension() {
        let mut sink = FleetTelemetry::new();
        let base = 100e9;
        let healthy = simulate_torus_all_reduce(shape(), 256e6, &[0, 1, 2], &Uniform(base), 300e-9);
        let bad = WithStraggler {
            base,
            chip: Chip { coords: [3, 5, 2] },
            dim: 1,
            derated: base / 4.0,
        };
        let observed = simulate_torus_all_reduce(shape(), 256e6, &[0, 1, 2], &bad, 300e-9);
        let found = detect_stragglers(&mut sink, 7, Nanos(5), &[0, 1, 2], &healthy, &observed);
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
