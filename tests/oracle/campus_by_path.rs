//! The reference campus observer: `CampusObserver::observe` as it was
//! before the observer kept its pod's resolved leaves, moved here as a
//! test oracle. Every sample is ingested by its `PortPath`, so the tree
//! looks each leaf up afresh and there is no cache to go stale.
//! `tests/campus_health.rs` holds the production observer to it.

use lightwave::service::{RejectReason, ServiceEvent, POD_SCOPE_SWITCH};
use lightwave::telemetry::rollup::{CampusHealthDoc, PortPath, RollupMetric, RollupTree};
use lightwave::telemetry::BurnRateLedger;
use lightwave::units::Nanos;

/// The rollup tree and burn ledger a `CampusObserver` keeps, fed by path.
pub struct PathObserver {
    rollup: RollupTree,
    burn: BurnRateLedger,
    end: Nanos,
    m_compose: RollupMetric,
    m_release: RollupMetric,
    m_wait: RollupMetric,
    m_rejected: RollupMetric,
}

impl PathObserver {
    /// The metrics interned in the production observer's order.
    pub fn new() -> PathObserver {
        let mut rollup = RollupTree::new();
        let m_compose = rollup.metric("svc_compose_moves");
        let m_release = rollup.metric("svc_release_moves");
        let m_wait = rollup.metric("svc_wait_ms");
        let m_rejected = rollup.metric("svc_rejected");
        PathObserver {
            rollup,
            burn: BurnRateLedger::default(),
            end: Nanos(0),
            m_compose,
            m_release,
            m_wait,
            m_rejected,
        }
    }

    /// Folds one event batch from `pod`'s cell in, every sample by path.
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

    /// Merges another reference observer in.
    pub fn merge(&mut self, other: PathObserver) {
        self.rollup.merge(other.rollup);
        self.burn.merge(other.burn);
        self.end = self.end.max(other.end);
    }

    /// The `campus_health.json` document as of the latest observed time.
    pub fn health_doc(&self) -> CampusHealthDoc {
        let slo = self.burn.assess(self.end);
        CampusHealthDoc::build(&self.rollup, slo, self.end)
    }
}
