//! Parallel schedule hunting.
//!
//! A hunt runs schedules `0..n` of one seed through the executor on a
//! [`lightwave_par::Pool`]. Each schedule is an independent splitmix
//! stream and the executor is pure, so the report is byte-identical at
//! any thread count — the pool's ordered reduction does the rest.

use crate::executor::{run_schedule, InjectedBug, ScheduleOutcome};
use crate::invariant::InvariantKind;
use crate::schedule::FaultSchedule;
use lightwave_par::Pool;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Hunt parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HuntConfig {
    /// Hunt seed: schedule `i` is the generator's schedule `(seed, i)`.
    pub seed: u64,
    /// How many schedules to run.
    pub schedules: u64,
    /// The bug planted in every schedule's run (`None` = honest control
    /// plane).
    pub inject: Option<InjectedBug>,
}

/// The deterministic result of one hunt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HuntReport {
    /// The hunt seed.
    pub seed: u64,
    /// Per-schedule outcomes, in schedule-index order.
    pub outcomes: Vec<ScheduleOutcome>,
}

impl HuntReport {
    /// Outcomes that violated an invariant.
    pub fn violations(&self) -> impl Iterator<Item = &ScheduleOutcome> {
        self.outcomes.iter().filter(|o| o.violation.is_some())
    }

    /// Violation counts per invariant.
    pub(crate) fn tally(&self) -> BTreeMap<InvariantKind, usize> {
        let mut tally = BTreeMap::new();
        for o in self.violations() {
            *tally
                .entry(o.violation.as_ref().expect("filtered").invariant)
                .or_insert(0) += 1;
        }
        tally
    }

    /// A deterministic human-readable summary table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let total: u32 = self.outcomes.iter().map(|o| o.composes).sum();
        let releases: u32 = self.outcomes.iter().map(|o| o.releases).sum();
        let rejected: u32 = self.outcomes.iter().map(|o| o.rejected).sum();
        let alarms: u64 = self.outcomes.iter().map(|o| o.alarms).sum();
        let dumps: u32 = self.outcomes.iter().map(|o| o.critical_dumps).sum();
        out.push_str(&format!(
            "hunt seed {}: {} schedules, {} composes, {} releases, {} rejected, {} alarms, {} flight dumps\n",
            self.seed,
            self.outcomes.len(),
            total,
            releases,
            rejected,
            alarms,
            dumps
        ));
        let svc_admitted: u64 = self.outcomes.iter().map(|o| o.svc_admitted).sum();
        let svc_blocked: u64 = self.outcomes.iter().map(|o| o.svc_blocked).sum();
        let svc_preempted: u64 = self.outcomes.iter().map(|o| o.svc_preempted).sum();
        let svc_completed: u64 = self.outcomes.iter().map(|o| o.svc_completed).sum();
        if svc_admitted + svc_blocked + svc_preempted + svc_completed > 0 {
            out.push_str(&format!(
                "service: {svc_admitted} admitted, {svc_blocked} blocked, {svc_preempted} preempted, {svc_completed} completed\n"
            ));
        }
        let tally = self.tally();
        if tally.is_empty() {
            out.push_str("violations: none\n");
        } else {
            out.push_str("violations:\n");
            for (kind, count) in &tally {
                out.push_str(&format!("  {kind:<30} {count}\n"));
            }
            for o in self.violations() {
                let v = o.violation.as_ref().expect("filtered");
                out.push_str(&format!("  schedule #{:<5} {v}\n", o.index));
            }
        }
        out
    }
}

/// Runs the hunt on `pool`: schedule `i` is `generate(cfg.seed, i)` —
/// [`FaultSchedule::generate`] for hardware faults alone,
/// [`FaultSchedule::generate_service`] for fabric-as-a-service arrivals
/// that admit, preempt, and complete while hardware faults inject.
/// Deterministic in everything but wall time: the same `cfg` and
/// generator yield the same report at any thread count.
pub fn hunt(pool: &Pool, cfg: &HuntConfig, generate: fn(u64, u64) -> FaultSchedule) -> HuntReport {
    let indices: Vec<u64> = (0..cfg.schedules).collect();
    let (seed, inject) = (cfg.seed, cfg.inject);
    let (outcomes, _stats) = pool.map_reduce(
        &indices,
        |&index, _| vec![run_schedule(&generate(seed, index), inject)],
        |mut a, b| {
            a.extend(b);
            a
        },
    );
    HuntReport {
        seed,
        outcomes: outcomes.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hunt_is_thread_count_invariant() {
        let cfg = HuntConfig {
            seed: 33,
            schedules: 12,
            inject: None,
        };
        let serial = hunt(&Pool::new(1), &cfg, FaultSchedule::generate);
        let parallel = hunt(&Pool::new(4), &cfg, FaultSchedule::generate);
        assert_eq!(serial, parallel);
        assert_eq!(serial.outcomes.len(), 12);
        // Outcomes arrive in schedule order regardless of which worker
        // ran them.
        for (i, o) in serial.outcomes.iter().enumerate() {
            assert_eq!(o.index, i as u64);
        }
    }

    #[test]
    fn service_hunt_is_thread_count_invariant() {
        let cfg = HuntConfig {
            seed: 5,
            schedules: 8,
            inject: None,
        };
        let serial = hunt(&Pool::new(1), &cfg, FaultSchedule::generate_service);
        let parallel = hunt(&Pool::new(4), &cfg, FaultSchedule::generate_service);
        assert_eq!(serial, parallel);
        assert!(
            serial.outcomes.iter().all(|o| o.violation.is_none()),
            "clean corpus: {:?}",
            serial.outcomes.iter().find(|o| o.violation.is_some())
        );
        let admitted: u64 = serial.outcomes.iter().map(|o| o.svc_admitted).sum();
        assert!(admitted > 0, "arrivals admit under faults");
        assert!(
            serial.table().contains("service:"),
            "table shows svc totals"
        );
    }

    #[test]
    fn table_reports_clean_hunts() {
        let cfg = HuntConfig {
            seed: 33,
            schedules: 4,
            inject: None,
        };
        let report = hunt(&Pool::new(2), &cfg, FaultSchedule::generate);
        assert!(report.table().contains("4 schedules"));
    }
}
