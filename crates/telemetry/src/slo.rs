//! Availability SLO tracking with error budgets.
//!
//! §4.1.1 reports the Palomar OCS fleet at ≥ 99.98% availability; Fig. 15
//! builds the fabric-availability story on per-OCS availability. The
//! tracker consumes up/down state transitions (in simulation time) per
//! tracked object and reports, per object and fleet-wide: achieved
//! availability, accumulated downtime, and the remaining error budget
//! against the target — the quantity an operator actually plans
//! maintenance around.

use crate::alarms::{AlarmCause, AlarmRecord, TrendSignal};
use crate::fleet::FleetTelemetry;
use crate::severity::Severity;
use crate::timeseries::SeriesStore;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// The paper's OCS availability target (§4.1.1).
pub const OCS_AVAILABILITY_TARGET: f64 = 0.9998;

/// The 99.98% target as an error budget in parts-per-million of time —
/// the integer form every burn-rate quantity is derived from.
pub const OCS_ERROR_BUDGET_PPM: u64 = 200;

/// Fast burn-rate alert window (300 s): makes the page responsive.
pub const BURN_FAST_WINDOW: Nanos = Nanos(300_000_000_000);

/// Slow burn-rate alert window (3 600 s): keeps one transient blip from
/// paging.
pub const BURN_SLOW_WINDOW: Nanos = Nanos(3_600_000_000_000);

/// Paging threshold: burn rate ×1000 that **both** windows must reach
/// (10× the budget's pace) — the Google-SRE multi-window shape.
pub const PAGE_BURN_MILLI: u64 = 10_000;

const _: () = assert!(
    OCS_ERROR_BUDGET_PPM > 0,
    "zero error budget never pages sanely"
);
const _: () = assert!(BURN_FAST_WINDOW.0 > 0 && BURN_SLOW_WINDOW.0 >= BURN_FAST_WINDOW.0);

/// Switch id burn-rate alarms carry for the campus-wide object (per-pod
/// alarms carry the pod id).
pub const CAMPUS_ALARM_SWITCH: u32 = u32::MAX;

/// One object's up/down history, as far as downtime needs it — the state
/// machine under both [`SloTracker`] and [`BurnRateLedger`].
#[derive(Debug, Clone)]
struct Downtime {
    first_seen: Nanos,
    up: bool,
    since: Nanos,
    /// Total downtime over closed intervals.
    accrued: Nanos,
}

impl Downtime {
    /// The first observation of an object starts its observation window
    /// (it is not assumed to have existed since t=0).
    fn open(at: Nanos, up: bool) -> Downtime {
        Downtime {
            first_seen: at,
            up,
            since: at,
            accrued: Nanos(0),
        }
    }

    /// Records the state as of `at`. A repeated observation of the same
    /// state is idempotent and returns `None`; a change returns `Some` of
    /// the down interval `(start, end)` it closed, if it closed one (a
    /// down interval accrues when it closes).
    #[inline]
    fn observe(&mut self, at: Nanos, up: bool) -> Option<Option<(Nanos, Nanos)>> {
        if self.up == up {
            return None;
        }
        let closed = self.down_since().map(|since| {
            self.accrued += at.saturating_sub(since);
            (since, at)
        });
        self.up = up;
        self.since = at;
        Some(closed)
    }

    /// Start of the open down interval, if the object is down.
    fn down_since(&self) -> Option<Nanos> {
        (!self.up).then_some(self.since)
    }

    /// Accrued downtime as of `now`: an open down interval counts up to it.
    fn downtime_at(&self, now: Nanos) -> Nanos {
        self.accrued
            + self
                .down_since()
                .map_or(Nanos(0), |since| now.saturating_sub(since))
    }

    /// Folds in another history of the same object: windows union,
    /// closed downtime adds, and the later state wins — exact for
    /// sequential episodes.
    fn merge(&mut self, other: Downtime) {
        self.first_seen = self.first_seen.min(other.first_seen);
        self.accrued += other.accrued;
        if other.since > self.since {
            self.up = other.up;
            self.since = other.since;
        }
    }
}

#[derive(Debug, Clone)]
struct ObjectState {
    history: Downtime,
    transitions: u64,
}

/// Per-object SLO assessment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSlo {
    /// The tracked object (e.g. `ocs-3`).
    pub object: String,
    /// Achieved availability over the observed window, in `[0, 1]`.
    pub availability: f64,
    /// Accumulated downtime.
    pub downtime: Nanos,
    /// Downtime the target allows over the observed window.
    pub error_budget: Nanos,
    /// Fraction of the error budget still unspent, in `[0, 1]`.
    pub budget_remaining: f64,
    /// True when achieved availability is below target.
    pub in_violation: bool,
    /// Up/down state transitions observed.
    pub transitions: u64,
}

/// Fleet SLO assessment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// The availability target ([`OCS_AVAILABILITY_TARGET`]).
    pub target: f64,
    /// Per-object assessments, object-name-sorted.
    pub objects: Vec<ObjectSlo>,
    /// Observation-time-weighted fleet availability.
    pub fleet_availability: f64,
    /// Objects currently in violation.
    pub violating: usize,
}

/// Tracks availability of a set of named objects against the paper's
/// 99.98% OCS target ([`OCS_AVAILABILITY_TARGET`]).
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    objects: BTreeMap<String, ObjectState>,
}

impl SloTracker {
    /// Records that `object` is `up`/down as of simulation time `at`.
    ///
    /// The first observation of an object starts its observation window
    /// (it is not assumed to have existed since t=0). Repeated
    /// observations of the same state are idempotent.
    pub fn observe(&mut self, at: Nanos, object: &str, up: bool) {
        match self.objects.get_mut(object) {
            None => {
                self.objects.insert(
                    object.to_string(),
                    ObjectState {
                        history: Downtime::open(at, up),
                        transitions: 0,
                    },
                );
            }
            Some(state) => {
                state.transitions += u64::from(state.history.observe(at, up).is_some());
            }
        }
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when nothing is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Assesses every object as of simulation time `now`.
    pub fn report(&self, now: Nanos) -> SloReport {
        let mut objects = Vec::with_capacity(self.objects.len());
        let mut observed_total = 0u128;
        let mut up_total = 0u128;
        for (name, state) in &self.objects {
            let observed = now.saturating_sub(state.history.first_seen);
            let downtime = state.history.downtime_at(now);
            let availability = if observed.0 == 0 {
                1.0
            } else {
                1.0 - downtime.0 as f64 / observed.0 as f64
            };
            let error_budget = Nanos((observed.0 as f64 * (1.0 - OCS_AVAILABILITY_TARGET)) as u64);
            let budget_remaining = if error_budget.0 == 0 {
                if downtime.0 == 0 {
                    1.0
                } else {
                    0.0
                }
            } else {
                ((error_budget.0 as f64 - downtime.0 as f64) / error_budget.0 as f64)
                    .clamp(0.0, 1.0)
            };
            observed_total += observed.0 as u128;
            up_total += (observed.0 - downtime.0.min(observed.0)) as u128;
            objects.push(ObjectSlo {
                object: name.clone(),
                availability,
                downtime,
                error_budget,
                budget_remaining,
                in_violation: availability < OCS_AVAILABILITY_TARGET,
                transitions: state.transitions,
            });
        }
        let fleet_availability = if observed_total == 0 {
            1.0
        } else {
            up_total as f64 / observed_total as f64
        };
        SloReport {
            target: OCS_AVAILABILITY_TARGET,
            violating: objects.iter().filter(|o| o.in_violation).count(),
            objects,
            fleet_availability,
        }
    }
}

#[derive(Debug, Clone)]
struct BurnState {
    history: Downtime,
    /// Closed down intervals `(start, end)`, oldest first, trimmed to
    /// the slow window at poll time (bounded memory).
    intervals: VecDeque<(Nanos, Nanos)>,
    /// Sticky page latch: set while the multi-window condition holds,
    /// so one breach episode pages exactly once.
    alerting: bool,
}

/// One object's burn-rate assessment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurnStatus {
    /// Object name (`pod-<id>` or `campus`).
    pub object: String,
    /// Pod id (`None` for the campus row).
    pub pod: Option<u32>,
    /// Fast-window burn rate ×1000 (1000 = exactly budget pace).
    pub fast_burn_milli: u64,
    /// Slow-window burn rate ×1000.
    pub slow_burn_milli: u64,
    /// Downtime the budget allows over the observed window, nanos.
    pub budget_nanos: u64,
    /// Downtime spent, nanos.
    pub spent_nanos: u64,
    /// Budget remaining ×1000 of the allowance, clamped to `[0, 1000]`.
    pub remaining_milli: u64,
    /// Whether the paired-window page condition currently holds.
    pub alerting: bool,
}

/// The campus burn-rate / error-budget assessment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurnReport {
    /// Error budget in ppm of time ([`OCS_ERROR_BUDGET_PPM`]).
    pub budget_ppm: u64,
    /// Fast alert window ([`BURN_FAST_WINDOW`]).
    pub fast_window: Nanos,
    /// Slow alert window ([`BURN_SLOW_WINDOW`]).
    pub slow_window: Nanos,
    /// Paging threshold, burn ×1000 ([`PAGE_BURN_MILLI`]).
    pub page_burn_milli: u64,
    /// Per-pod rows, pod-sorted.
    pub pods: Vec<BurnStatus>,
    /// The campus-wide ledger row (sums of the pod ledgers).
    pub campus: BurnStatus,
    /// Pods currently in the paging condition.
    pub alerting: usize,
}

/// Multi-window burn-rate tracking with an error-budget ledger per pod
/// and campus-wide.
///
/// Feeds on the same up/down transitions as [`SloTracker`], but keeps
/// enough (bounded) interval history to answer *windowed* downtime —
/// the quantity burn rates are defined over. A page fires only when
/// **both** [`BURN_FAST_WINDOW`] and [`BURN_SLOW_WINDOW`] burn the error
/// budget at [`PAGE_BURN_MILLI`] or faster. Every derived number is
/// integer arithmetic on [`Nanos`], so reports and the alarms raised
/// through [`BurnRateLedger::poll`] are byte-identical at any worker
/// count, and ledgers for disjoint pod sets merge exactly.
#[derive(Debug, Clone, Default)]
pub struct BurnRateLedger {
    pods: BTreeMap<u32, BurnState>,
    /// The campus object's page latch (same rising-edge rule as a pod's).
    campus_alerting: bool,
}

impl BurnRateLedger {
    /// Records that `pod` is `up`/down as of sim time `at`. First
    /// observation opens the pod's window; same-state repeats are
    /// idempotent (the [`SloTracker::observe`] contract).
    pub fn observe(&mut self, at: Nanos, pod: u32, up: bool) {
        match self.pods.get_mut(&pod) {
            None => {
                self.pods.insert(
                    pod,
                    BurnState {
                        history: Downtime::open(at, up),
                        intervals: VecDeque::new(),
                        alerting: false,
                    },
                );
            }
            Some(s) => {
                if let Some(Some(closed)) = s.history.observe(at, up) {
                    s.intervals.push_back(closed);
                }
            }
        }
    }

    /// Pods tracked.
    pub fn len(&self) -> usize {
        self.pods.len()
    }

    /// True when nothing is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.pods.is_empty()
    }

    /// Downtime of `s` inside `[now - window, now]`.
    fn windowed_downtime(s: &BurnState, now: Nanos, window: Nanos) -> Nanos {
        let lo = now.saturating_sub(window);
        let mut down = 0u64;
        for &(start, end) in &s.intervals {
            let a = start.max(lo);
            let b = end.min(now);
            down += b.saturating_sub(a).0;
        }
        if let Some(since) = s.history.down_since() {
            let a = since.max(lo);
            down += now.saturating_sub(a).0;
        }
        Nanos(down)
    }

    /// One row of the report: burn rates of `fast`/`slow` windowed
    /// downtime for an object `n` pods wide, and its budget ledger.
    fn status(
        pod: Option<u32>,
        n: u64,
        fast: Nanos,
        slow: Nanos,
        budget: u64,
        spent: u64,
    ) -> BurnStatus {
        // burn = (down / window) / (budget_ppm / 1e6); ×1000 for milli.
        let burn_milli = |down: Nanos, window: Nanos| {
            let num = down.0 as u128 * 1_000_000_000u128;
            let den = (window.0 * n) as u128 * OCS_ERROR_BUDGET_PPM as u128;
            (num / den.max(1)) as u64
        };
        let (fast_burn_milli, slow_burn_milli) = (
            burn_milli(fast, BURN_FAST_WINDOW),
            burn_milli(slow, BURN_SLOW_WINDOW),
        );
        BurnStatus {
            object: pod.map_or_else(|| "campus".to_string(), |p| format!("pod-{p}")),
            pod,
            fast_burn_milli,
            slow_burn_milli,
            budget_nanos: budget,
            spent_nanos: spent,
            remaining_milli: remaining_milli(budget, spent),
            alerting: fast_burn_milli.min(slow_burn_milli) >= PAGE_BURN_MILLI,
        }
    }

    /// Assesses every pod and the campus sum as of sim time `now`. A
    /// pod row's `alerting` is its page latch as of the last
    /// [`BurnRateLedger::poll`]; the campus row's is the condition itself.
    pub fn assess(&self, now: Nanos) -> BurnReport {
        let mut pods = Vec::with_capacity(self.pods.len());
        let (mut fast_down, mut slow_down) = (Nanos(0), Nanos(0));
        let (mut campus_budget, mut campus_spent) = (0u64, 0u64);
        for (&pod, s) in &self.pods {
            let fast = Self::windowed_downtime(s, now, BURN_FAST_WINDOW);
            let slow = Self::windowed_downtime(s, now, BURN_SLOW_WINDOW);
            let observed = now.saturating_sub(s.history.first_seen);
            let budget = (observed.0 as u128 * OCS_ERROR_BUDGET_PPM as u128 / 1_000_000) as u64;
            let spent = s.history.downtime_at(now).0;
            fast_down += fast;
            slow_down += slow;
            campus_budget += budget;
            campus_spent += spent;
            pods.push(BurnStatus {
                alerting: s.alerting,
                ..Self::status(Some(pod), 1, fast, slow, budget, spent)
            });
        }
        // Campus burn is pod-count-normalized: the campus window is
        // n pods × the wall window, so one pod down at exactly budget
        // pace reads the same burn at both levels divided by fleet size.
        let n = pods.len().max(1) as u64;
        BurnReport {
            budget_ppm: OCS_ERROR_BUDGET_PPM,
            fast_window: BURN_FAST_WINDOW,
            slow_window: BURN_SLOW_WINDOW,
            page_burn_milli: PAGE_BURN_MILLI,
            campus: Self::status(None, n, fast_down, slow_down, campus_budget, campus_spent),
            alerting: pods.iter().filter(|p| p.alerting).count(),
            pods,
        }
    }

    /// Evaluates the paired-window page condition for every pod and the
    /// campus, raising a Warning [`TrendSignal::ErrorBudgetBurn`] alarm
    /// through `sink` on each **rising edge** (the sticky latch clears
    /// when the condition lapses, so a sustained breach pages once).
    /// Trend-class incidents never auto-escalate ([`crate::alarms`]).
    /// Also trims interval history outside the slow window. Returns the
    /// pods that newly entered the paging condition
    /// ([`CAMPUS_ALARM_SWITCH`] stands for the campus object).
    pub fn poll(&mut self, sink: &mut FleetTelemetry, now: Nanos) -> Vec<u32> {
        let lo = now.saturating_sub(BURN_SLOW_WINDOW);
        for s in self.pods.values_mut() {
            while s.intervals.front().is_some_and(|&(_, end)| end < lo) {
                s.intervals.pop_front();
            }
        }
        let report = self.assess(now);
        let mut fired = Vec::new();
        for ((&pod, s), row) in self.pods.iter_mut().zip(&report.pods) {
            let firing = row.fast_burn_milli.min(row.slow_burn_milli) >= PAGE_BURN_MILLI;
            if firing && !s.alerting {
                fired.push(pod);
            }
            s.alerting = firing;
        }
        if report.campus.alerting && !self.campus_alerting {
            fired.push(CAMPUS_ALARM_SWITCH);
        }
        self.campus_alerting = report.campus.alerting;
        for &switch in &fired {
            sink.ingest_alarm(AlarmRecord {
                at: now,
                severity: Severity::Warning,
                switch,
                cause: AlarmCause::TrendAnomaly {
                    signal: TrendSignal::ErrorBudgetBurn,
                    port: 0,
                },
            });
        }
        fired
    }

    /// Pushes burn-rate and budget-remaining samples for the campus and
    /// every pod into `store` — the series export
    /// [`SeriesStore::tracks`] turns into Perfetto `ph:"C"` counter
    /// tracks (`slo_burn_fast_milli`, `slo_budget_remaining_milli`).
    pub fn record_series(&self, store: &mut SeriesStore, now: Nanos) {
        let report = self.assess(now);
        let mut rows: Vec<(&BurnStatus, String)> = vec![(&report.campus, "campus".to_string())];
        for p in &report.pods {
            rows.push((p, p.object.clone()));
        }
        for (status, scope) in rows {
            let labels: &[(&str, &str)] = &[("scope", &scope)];
            let burn = store.series("slo_burn_fast_milli", labels);
            store.push_micros(burn, now, status.fast_burn_milli as i64);
            let slow = store.series("slo_burn_slow_milli", labels);
            store.push_micros(slow, now, status.slow_burn_milli as i64);
            let rem = store.series("slo_budget_remaining_milli", labels);
            store.push_micros(rem, now, status.remaining_milli as i64);
        }
    }

    /// Merges another ledger (consuming it). Exact when the pod sets
    /// are disjoint — the sharded-cell case, where each cell owns its
    /// pod ids; on overlap the interval histories concatenate and
    /// spent/first-seen fold, which is exact for sequential episodes.
    /// Page latches (per pod and campus) OR.
    pub fn merge(&mut self, other: BurnRateLedger) {
        for (pod, s) in other.pods {
            match self.pods.get_mut(&pod) {
                None => {
                    self.pods.insert(pod, s);
                }
                Some(mine) => {
                    mine.history.merge(s.history);
                    mine.intervals.extend(s.intervals);
                    mine.alerting |= s.alerting;
                }
            }
        }
        self.campus_alerting |= other.campus_alerting;
    }
}

/// Budget remaining ×1000 of the allowance, clamped to `[0, 1000]`.
fn remaining_milli(budget: u64, spent: u64) -> u64 {
    if budget == 0 {
        return if spent == 0 { 1000 } else { 0 };
    }
    (budget.saturating_sub(spent) as u128 * 1000 / budget as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(secs: f64) -> Nanos {
        Nanos::from_secs_f64(secs)
    }

    #[test]
    fn downtime_accrues_only_while_down() {
        let mut t = SloTracker::default();
        t.observe(s(0.0), "ocs-0", true);
        t.observe(s(100.0), "ocs-0", false);
        t.observe(s(101.0), "ocs-0", true);
        // 1 s down in 10 000 s is 99.99%: inside the 99.98% target.
        let r = t.report(s(10_000.0));
        let o = &r.objects[0];
        assert_eq!(o.downtime, s(1.0));
        assert!((o.availability - 0.9999).abs() < 1e-9);
        assert!(!o.in_violation);
        assert_eq!(o.transitions, 2);
        assert_eq!(r.target, OCS_AVAILABILITY_TARGET);
    }

    #[test]
    fn ongoing_outage_counts_up_to_now() {
        let mut t = SloTracker::default();
        t.observe(s(0.0), "ocs-1", true);
        t.observe(s(10.0), "ocs-1", false);
        let r = t.report(s(20.0));
        assert_eq!(r.objects[0].downtime, s(10.0));
        assert!(r.objects[0].in_violation, "50% uptime misses 99.98%");
        assert_eq!(r.violating, 1);
        assert_eq!(r.objects[0].budget_remaining, 0.0);
    }

    #[test]
    fn error_budget_against_paper_target() {
        // 99.98% over a simulated day allows 0.0002 × 86400 s ≈ 17.3 s.
        let mut t = SloTracker::default();
        t.observe(s(0.0), "ocs-2", true);
        t.observe(s(1000.0), "ocs-2", false);
        t.observe(s(1008.0), "ocs-2", true); // 8 s outage
        let r = t.report(s(86_400.0));
        let o = &r.objects[0];
        assert!(!o.in_violation, "8 s of downtime fits the daily budget");
        let budget_s = o.error_budget.as_secs_f64();
        assert!((budget_s - 17.28).abs() < 0.01, "budget {budget_s} s");
        assert!(o.budget_remaining > 0.5 && o.budget_remaining < 0.6);
    }

    #[test]
    fn late_joining_objects_observe_from_first_seen() {
        let mut t = SloTracker::default();
        t.observe(s(0.0), "a", true);
        t.observe(s(500.0), "b", true); // turned up mid-simulation
        let r = t.report(s(1000.0));
        assert_eq!(r.objects.len(), 2);
        assert!((r.fleet_availability - 1.0).abs() < 1e-12);
        // 500 s observed, not 1000: a 0.02% budget of ≈ 0.1 s.
        let b = r.objects.iter().find(|o| o.object == "b").unwrap();
        assert_eq!(
            b.error_budget,
            Nanos((500e9 * (1.0 - OCS_AVAILABILITY_TARGET)) as u64)
        );
        assert!((b.error_budget.as_secs_f64() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn idempotent_same_state_observations() {
        let mut t = SloTracker::default();
        t.observe(s(0.0), "a", false);
        t.observe(s(5.0), "a", false);
        t.observe(s(10.0), "a", true);
        let r = t.report(s(20.0));
        assert_eq!(r.objects[0].downtime, s(10.0));
        assert_eq!(r.objects[0].transitions, 1);
    }

    #[test]
    fn burn_rate_is_windowed_and_integer_exact() {
        let mut l = BurnRateLedger::default();
        l.observe(s(0.0), 0, true);
        // 3 s outage well inside both windows.
        l.observe(s(100.0), 0, false);
        l.observe(s(103.0), 0, true);
        let r = l.assess(s(200.0));
        let p = &r.pods[0];
        // fast: 3 s / 300 s = 1% downtime = 50x the 200 ppm budget.
        assert_eq!(p.fast_burn_milli, 50_000);
        // slow: 3 s / 3600 s over a 200 ppm budget ≈ 4.166x pace.
        assert_eq!(p.slow_burn_milli, 4_166);
        assert_eq!(p.spent_nanos, s(3.0).0);
        // After the fast window slides past the outage, fast burn is 0
        // but the ledger still remembers the spend.
        let later = l.assess(s(500.0));
        assert_eq!(later.pods[0].fast_burn_milli, 0);
        assert_eq!(later.pods[0].spent_nanos, s(3.0).0);
        assert!(later.pods[0].slow_burn_milli > 0);
    }

    #[test]
    fn paired_windows_gate_the_page_and_latch_fires_once() {
        let mut sink = crate::fleet::FleetTelemetry::new();
        let mut l = BurnRateLedger::default();
        l.observe(s(0.0), 3, true);
        assert!(l.poll(&mut sink, s(5.0)).is_empty(), "clean pod: no page");
        // 30 s outage: fast burn 30/300/200ppm = 500x, slow burn
        // 30/3600/200ppm ≈ 41.7x — both over the 10x threshold.
        l.observe(s(1_000.0), 3, false);
        l.observe(s(1_030.0), 3, true);
        let fired = l.poll(&mut sink, s(1_031.0));
        assert!(fired.contains(&3), "pod 3 pages");
        assert!(
            fired.contains(&CAMPUS_ALARM_SWITCH),
            "single-pod campus follows"
        );
        assert_eq!(l.len(), 1, "the campus latch is not a pod");
        let pages = sink.alarms.pages();
        // Condition still holds: the latch suppresses a second page.
        assert!(l.poll(&mut sink, s(1_032.0)).is_empty());
        assert_eq!(sink.alarms.pages(), pages);
        // Condition lapses (fast window slides clear), then a new
        // breach pages again.
        assert!(l.poll(&mut sink, s(1_400.0)).is_empty());
        assert!(!l.assess(s(1_400.0)).pods[0].alerting);
        l.observe(s(1_500.0), 3, false);
        l.observe(s(1_530.0), 3, true);
        assert!(l.poll(&mut sink, s(1_531.0)).contains(&3));
    }

    #[test]
    fn slow_window_vetoes_a_transient_blip() {
        let mut sink = crate::fleet::FleetTelemetry::new();
        let mut l = BurnRateLedger::default();
        l.observe(s(0.0), 0, true);
        // 3 s blip: fast burn 50x (pages on its own), slow burn
        // 3/3600/200ppm ≈ 4.17x — under threshold, so no page.
        l.observe(s(5_000.0), 0, false);
        l.observe(s(5_003.0), 0, true);
        assert!(l.poll(&mut sink, s(5_004.0)).is_empty());
        assert_eq!(sink.alarms.pages(), 0);
        let p = &l.assess(s(5_004.0)).pods[0];
        assert!(p.fast_burn_milli >= PAGE_BURN_MILLI && p.slow_burn_milli < PAGE_BURN_MILLI);
    }

    #[test]
    fn ledger_merge_of_disjoint_pods_is_exact() {
        let outage = |l: &mut BurnRateLedger, pod: u32, from: f64, to: f64| {
            l.observe(s(0.0), pod, true);
            l.observe(s(from), pod, false);
            l.observe(s(to), pod, true);
        };
        let mut whole = BurnRateLedger::default();
        outage(&mut whole, 0, 100.0, 103.0);
        outage(&mut whole, 1, 200.0, 210.0);
        let mut a = BurnRateLedger::default();
        outage(&mut a, 0, 100.0, 103.0);
        let mut b = BurnRateLedger::default();
        outage(&mut b, 1, 200.0, 210.0);
        a.merge(b);
        assert_eq!(whole.assess(s(400.0)), a.assess(s(400.0)));
        assert_eq!(a.len(), 2);

        // One side has already paged the campus (a 30 s outage, as
        // above): the latch survives the merge from either side, so the
        // merged ledger does not page the same breach a second time.
        let mut sink = crate::fleet::FleetTelemetry::new();
        let mut paged = BurnRateLedger::default();
        outage(&mut paged, 0, 1_000.0, 1_030.0);
        assert!(paged
            .poll(&mut sink, s(1_031.0))
            .contains(&CAMPUS_ALARM_SWITCH));
        let mut quiet = BurnRateLedger::default();
        quiet.observe(s(0.0), 1, true);
        for (mut into, from) in [(paged.clone(), quiet.clone()), (quiet, paged)] {
            into.merge(from);
            assert_eq!(into.len(), 2);
            // Two pods wide the campus still burns 250x / 20.8x.
            assert!(into.assess(s(1_031.0)).campus.alerting);
            assert!(into.poll(&mut sink, s(1_031.0)).is_empty());
        }
    }

    #[test]
    fn budget_ledger_sums_to_campus() {
        let mut l = BurnRateLedger::default();
        l.observe(s(0.0), 0, true);
        l.observe(s(0.0), 1, true);
        l.observe(s(10.0), 1, false);
        l.observe(s(12.0), 1, true);
        let r = l.assess(s(1_000.0));
        assert_eq!(
            r.campus.spent_nanos,
            r.pods.iter().map(|p| p.spent_nanos).sum::<u64>()
        );
        assert_eq!(
            r.campus.budget_nanos,
            r.pods.iter().map(|p| p.budget_nanos).sum::<u64>()
        );
        assert!(r.pods[0].remaining_milli == 1000);
        assert!(r.pods[1].remaining_milli < 1000);
    }

    #[test]
    fn burn_series_export_covers_campus_and_pods() {
        let mut l = BurnRateLedger::default();
        l.observe(s(0.0), 0, true);
        l.observe(s(0.0), 7, true);
        let mut store = crate::timeseries::SeriesStore::default();
        l.record_series(&mut store, s(60.0));
        let tracks = store.tracks();
        // 3 series × (campus + 2 pods).
        assert_eq!(tracks.len(), 9);
        assert!(tracks
            .iter()
            .any(|t| t.name == "slo_budget_remaining_milli{scope=campus}"));
        assert!(tracks
            .iter()
            .any(|t| t.name == "slo_burn_fast_milli{scope=pod-7}"));
    }
}
