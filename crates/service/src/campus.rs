//! Campus observability for the open-loop engine: every service cell
//! feeds a [`RollupTree`] + [`BurnRateLedger`] pair, and the sharded
//! run merges them in shard order into one queryable
//! [`CampusHealthDoc`].
//!
//! The cell model maps onto the campus hierarchy directly: each shard
//! is one *pod* (its own fresh `Superpod`; as an [`Observer`] the pod id
//! is the step's cell index), each pod's OCS switches are the switch
//! level, and admission outcomes drive the pod's error-budget ledger the
//! same way [`Lifecycle`](crate::Lifecycle) drives the flat
//! [`SloTracker`](lightwave_telemetry::SloTracker). Everything folded
//! here is integer-exact (`Aggregate` merges / nanosecond ledgers), so
//! `campus_health.json` from a [`run_sharded`](crate::run_sharded) under
//! this observer is byte-identical at any `LIGHTWAVE_THREADS`
//! (DESIGN §6.9).

use crate::engine::{Observer, ShardObserver, Step};
use crate::queue::{RejectReason, ServiceEvent};
use lightwave_telemetry::rollup::{CampusHealthDoc, PortPath, RollupMetric, RollupTree};
use lightwave_telemetry::slo::BurnRateLedger;
use lightwave_units::Nanos;

/// Pseudo-switch id for pod-scoped (not per-OCS) service metrics —
/// admission waits and rejects attribute to the pod, not a switch.
pub const POD_SCOPE_SWITCH: u32 = u32::MAX;

/// Campus observability state for one service cell (or the shard-order
/// merge of many): the rollup tree plus the burn-rate ledger, with the
/// pre-interned service metrics.
#[derive(Debug, Clone)]
pub struct CampusObserver {
    /// The port → switch → pod → campus aggregation tree.
    pub rollup: RollupTree,
    /// Per-pod + campus error-budget burn ledger (admission SLO).
    pub burn: BurnRateLedger,
    /// Latest sim time observed (the snapshot stamp).
    pub end: Nanos,
    m_compose: RollupMetric,
    m_release: RollupMetric,
    m_wait: RollupMetric,
    m_rejected: RollupMetric,
}

impl Default for CampusObserver {
    fn default() -> CampusObserver {
        CampusObserver::new()
    }
}

impl CampusObserver {
    /// A fresh observer. Metrics are interned up front in a fixed
    /// order, so every cell's intern table is identical and merged
    /// snapshots never depend on which event fired first.
    pub fn new() -> CampusObserver {
        let mut rollup = RollupTree::new();
        let m_compose = rollup.metric("svc_compose_moves");
        let m_release = rollup.metric("svc_release_moves");
        let m_wait = rollup.metric("svc_wait_ms");
        let m_rejected = rollup.metric("svc_rejected");
        CampusObserver {
            rollup,
            burn: BurnRateLedger::default(),
            end: Nanos(0),
            m_compose,
            m_release,
            m_wait,
            m_rejected,
        }
    }

    /// Folds one event batch from `pod`'s cell into the rollup and the
    /// burn ledger. O(events · touched switches); no propagation (that
    /// is [`RollupTree::scrape`]'s job, paid at snapshot time).
    pub fn observe(&mut self, pod: u32, events: &[ServiceEvent]) {
        for ev in events {
            match ev {
                ServiceEvent::Enqueued { .. } => {}
                ServiceEvent::Rejected { why, at, .. } => {
                    self.end = self.end.max(*at);
                    self.rollup.ingest(
                        self.m_rejected,
                        PortPath::new(pod, POD_SCOPE_SWITCH, 0),
                        *at,
                        1.0,
                    );
                    if *why == RejectReason::QueueFull {
                        self.burn.observe(*at, pod, false);
                    }
                }
                ServiceEvent::Admitted {
                    at, waited, report, ..
                } => {
                    self.end = self.end.max(*at);
                    self.burn.observe(*at, pod, true);
                    // Nanos folded as micro-units render as exact ms.
                    self.rollup.ingest_micros(
                        self.m_wait,
                        PortPath::new(pod, POD_SCOPE_SWITCH, 0),
                        *at,
                        waited.0 as i64,
                    );
                    for (&ocs, r) in &report.per_switch {
                        let moves = (r.added + r.removed) as f64;
                        self.rollup
                            .ingest(self.m_compose, PortPath::new(pod, ocs, 0), *at, moves);
                    }
                }
                ServiceEvent::Preempted { at, report, .. }
                | ServiceEvent::Completed { at, report, .. } => {
                    self.end = self.end.max(*at);
                    for (&ocs, r) in &report.per_switch {
                        let moves = (r.added + r.removed) as f64;
                        self.rollup
                            .ingest(self.m_release, PortPath::new(pod, ocs, 0), *at, moves);
                    }
                }
            }
        }
    }

    /// Merges another observer (consuming it): rollups merge node-wise,
    /// ledgers union by pod, and the stamp takes the max. Exact in
    /// shard order.
    pub fn merge(&mut self, other: CampusObserver) {
        self.rollup.merge(other.rollup);
        self.burn.merge(other.burn);
        self.end = self.end.max(other.end);
    }

    /// Scrapes pending deltas and builds the versioned
    /// `campus_health.json` snapshot as of the latest observed time.
    pub fn health_doc(&mut self) -> CampusHealthDoc {
        self.rollup.scrape();
        let slo = self.burn.assess(self.end);
        CampusHealthDoc::build(&self.rollup, slo, self.end)
    }
}

impl Observer for CampusObserver {
    type Output = CampusObserver;

    fn batch(&mut self, step: &Step<'_>, events: &[ServiceEvent]) {
        self.observe(step.cell as u32, events);
    }

    fn finish(self, _end: Nanos) -> CampusObserver {
        self
    }
}

impl ShardObserver for CampusObserver {
    fn merge(into: &mut CampusObserver, later: CampusObserver) {
        into.merge(later);
    }
}
