//! Bridges cluster-simulation results into the fleet observability
//! subsystem (`lightwave-telemetry`).
//!
//! Each recorded run is labeled by its scheduling discipline
//! (`pooled`, `contiguous`, `contiguous+defrag`, …) so the §4.2.4
//! utilization comparison reads directly off the dashboard: the pooled
//! discipline holds >98% utilization with zero fragmentation stalls,
//! while the static discipline pays in stalls or in defrag migrations.

use crate::sim::SimReport;
use lightwave_telemetry::{CounterId, FleetTelemetry, GaugeId, HistogramId};
use lightwave_units::Nanos;

/// Fleet-metric handles for one scheduling discipline, labeled
/// `{discipline=<name>}`.
#[derive(Debug, Clone)]
pub struct SchedulerInstruments {
    utilization: GaugeId,
    wait_hours: HistogramId,
    completed: CounterId,
    fragmentation_stalls: CounterId,
    unsupported: CounterId,
    defrag_migrations: CounterId,
    runs: CounterId,
}

impl SchedulerInstruments {
    /// Registers the per-discipline instruments in `sink`'s metrics
    /// registry.
    pub fn register(sink: &mut FleetTelemetry, discipline: &str) -> SchedulerInstruments {
        let labels: &[(&str, &str)] = &[("discipline", discipline)];
        let m = &mut sink.metrics;
        SchedulerInstruments {
            utilization: m.gauge("sched_utilization", labels),
            wait_hours: m.histogram("sched_mean_wait_hours", labels),
            completed: m.counter("sched_jobs_completed_total", labels),
            fragmentation_stalls: m.counter("sched_fragmentation_stalls_total", labels),
            unsupported: m.counter("sched_jobs_unsupported_total", labels),
            defrag_migrations: m.counter("sched_defrag_migrations_total", labels),
            runs: m.counter("sched_runs_total", labels),
        }
    }

    /// Records one simulation run's report.
    pub fn record_run(&mut self, sink: &mut FleetTelemetry, at: Nanos, report: &SimReport) {
        sink.metrics.inc(self.runs, at, 1);
        sink.metrics.set(self.utilization, at, report.utilization);
        sink.metrics
            .observe(self.wait_hours, at, report.mean_wait_hours);
        sink.metrics.inc(self.completed, at, report.completed);
        sink.metrics
            .inc(self.fragmentation_stalls, at, report.fragmentation_stalls);
        sink.metrics.inc(self.unsupported, at, report.unsupported);
        sink.metrics
            .inc(self.defrag_migrations, at, report.migrations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Pooled;
    use crate::sim::{default_mix, ClusterSim};

    #[test]
    fn run_report_lands_in_labeled_metrics() {
        let mut sink = FleetTelemetry::new();
        let mut pooled = SchedulerInstruments::register(&mut sink, "pooled");
        let mut defrag = SchedulerInstruments::register(&mut sink, "contiguous+defrag");
        let sim = ClusterSim::new(default_mix(), 0.25);
        let rp = sim.run(&Pooled, 300.0, 42);
        let rd = sim.run_contiguous_with_defrag(300.0, 0.05, 42);
        pooled.record_run(&mut sink, Nanos(0), &rp);
        defrag.record_run(&mut sink, Nanos(0), &rd);
        assert_eq!(sink.metrics.counter_value(pooled.defrag_migrations), 0);
        assert!(sink.metrics.counter_value(defrag.defrag_migrations) > 0);
        assert!(sink.metrics.gauge_value(pooled.utilization) > 0.9);
        assert_eq!(
            sink.metrics.counter_value(pooled.fragmentation_stalls),
            0,
            "pooling cannot fragment"
        );
    }
}
