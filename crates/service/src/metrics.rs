//! Mergeable queueing metrics: the service's deterministic report.
//!
//! Every field is an integer counter, a mergeable log2 histogram, or a
//! sum of sim-time spans — so reports from independent cells merge
//! associatively in shard order and the merged result is byte-identical
//! at any `LIGHTWAVE_THREADS` (wall-clock never enters). The blocking /
//! utilization / goodput definitions follow the wavelength-allocation
//! simulator pattern: offered = everything submitted, blocked = turned
//! away at capacity, carried = admitted and completed.

use crate::intent::Priority;
use lightwave_telemetry::{HistogramSnapshot, LogHistogram};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};

/// Per-priority-class tallies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassStats {
    /// Valid intents submitted in this class.
    pub offered: u64,
    /// Requests admitted (counting re-admissions after preemption).
    pub admitted: u64,
    /// Requests turned away because the queue was at its bound.
    pub blocked: u64,
    /// Preemption evictions suffered (the request re-queues, so this can
    /// exceed per-request counts).
    pub preempted: u64,
    /// Requests that ran to completion.
    pub completed: u64,
    /// Admissions with zero sim-time wait (the common uncontended case;
    /// the log histogram can't bucket zero, so it is counted here and
    /// [`ServiceReport::wait_quantile_micros`] folds it back in).
    pub immediate: u64,
    /// *Positive* admission wait times, in microseconds of sim time.
    pub wait_micros: LogHistogram,
}

impl ClassStats {
    /// Folds another cell's tallies in (integer-exact).
    pub fn merge(&mut self, other: &ClassStats) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.blocked += other.blocked;
        self.preempted += other.preempted;
        self.completed += other.completed;
        self.immediate += other.immediate;
        self.wait_micros.merge(&other.wait_micros);
    }
}

/// The deterministic outcome of a service run (one cell, or any merge of
/// cells). Contains **no wall-clock observations** — see
/// [`RunStats`](lightwave_par::RunStats) for those.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceReport {
    /// Total intents submitted (valid or not).
    pub submitted: u64,
    /// Intents rejected at validation.
    pub invalid: u64,
    /// Admitted requests the pod refused to compose (possible only under
    /// fault injection; terminal).
    pub compose_failed: u64,
    /// Completed slices whose release transaction was rejected (possible
    /// only under fault injection; the cubes stay owned by the pod).
    pub release_failed: u64,
    /// Per-class tallies, indexed by [`Priority::rank`].
    pub classes: [ClassStats; 3],
    /// Cube-nanoseconds of occupancy (admission to release or eviction).
    pub busy_cube_nanos: u128,
    /// Cube-nanoseconds of *completed* service — occupancy that was not
    /// wasted by a later eviction.
    pub goodput_cube_nanos: u128,
    /// Sim-time served, summed over cells.
    pub horizon: Nanos,
    /// Independent cells merged into this report.
    pub cells: u64,
}

/// Cubes per pod, for utilization math.
pub const POD_CUBES: u128 = lightwave_superpod::POD_CUBES as u128;

impl ServiceReport {
    /// Folds another cell's report in. Associative and
    /// order-independent in value; merge in shard order anyway so
    /// byte-level comparisons stay trivial.
    pub fn merge(&mut self, other: &ServiceReport) {
        self.submitted += other.submitted;
        self.invalid += other.invalid;
        self.compose_failed += other.compose_failed;
        self.release_failed += other.release_failed;
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
        self.busy_cube_nanos += other.busy_cube_nanos;
        self.goodput_cube_nanos += other.goodput_cube_nanos;
        self.horizon += other.horizon;
        self.cells += other.cells;
    }

    /// Valid intents offered across classes.
    pub fn offered(&self) -> u64 {
        self.classes.iter().map(|c| c.offered).sum()
    }

    /// Requests blocked at the queue bound, across classes.
    pub fn blocked(&self) -> u64 {
        self.classes.iter().map(|c| c.blocked).sum()
    }

    /// Completions across classes.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Preemption evictions across classes.
    pub fn preempted(&self) -> u64 {
        self.classes.iter().map(|c| c.preempted).sum()
    }

    /// Blocking probability: blocked / valid offered.
    pub fn blocking_probability(&self) -> f64 {
        if self.offered() == 0 {
            return 0.0;
        }
        self.blocked() as f64 / self.offered() as f64
    }

    /// Mean cube occupancy over the served horizon, `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.horizon.0 == 0 {
            return 0.0;
        }
        self.busy_cube_nanos as f64 / (POD_CUBES * self.horizon.0 as u128) as f64
    }

    /// Fraction of occupancy that completed (1.0 = no work wasted to
    /// preemption).
    pub fn goodput_fraction(&self) -> f64 {
        if self.busy_cube_nanos == 0 {
            return 1.0;
        }
        self.goodput_cube_nanos as f64 / self.busy_cube_nanos as f64
    }

    /// Admission-wait quantile in microseconds, merged across classes.
    /// Zero-wait admissions are part of the distribution (as exact 0.0),
    /// so at low load every quantile is 0.
    pub fn wait_quantile_micros(&self, q: f64) -> Option<f64> {
        let mut all = LogHistogram::new();
        let mut immediate = 0;
        for c in &self.classes {
            immediate += c.immediate;
            all.merge(&c.wait_micros);
        }
        quantile_with_immediate(immediate, &all, q)
    }

    /// Serializable form for artifacts and byte-level comparison.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            schema: SERVICE_REPORT_SCHEMA.to_string(),
            submitted: self.submitted,
            invalid: self.invalid,
            compose_failed: self.compose_failed,
            release_failed: self.release_failed,
            classes: Priority::ALL
                .iter()
                .map(|&p| {
                    let c = &self.classes[p.rank()];
                    ClassSnapshot {
                        class: p.name().to_string(),
                        offered: c.offered,
                        admitted: c.admitted,
                        blocked: c.blocked,
                        preempted: c.preempted,
                        completed: c.completed,
                        immediate: c.immediate,
                        wait_micros: c.wait_micros.snapshot(),
                    }
                })
                .collect(),
            busy_cube_nanos: self.busy_cube_nanos,
            goodput_cube_nanos: self.goodput_cube_nanos,
            horizon_nanos: self.horizon.0,
            cells: self.cells,
        }
    }

    /// A deterministic human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "service: {} submitted over {} cell(s), {:.3}s served\n",
            self.submitted,
            self.cells,
            self.horizon.as_secs_f64()
        ));
        out.push_str(&format!(
            "  blocking {:.4}%  utilization {:.1}%  goodput {:.1}%  invalid {}  compose-failed {}\n",
            self.blocking_probability() * 100.0,
            self.utilization() * 100.0,
            self.goodput_fraction() * 100.0,
            self.invalid,
            self.compose_failed,
        ));
        for &p in &Priority::ALL {
            let c = &self.classes[p.rank()];
            let p50 = quantile_with_immediate(c.immediate, &c.wait_micros, 0.50).unwrap_or(0.0);
            let p99 = quantile_with_immediate(c.immediate, &c.wait_micros, 0.99).unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<12} offered {:<8} admitted {:<8} blocked {:<6} preempted {:<5} done {:<8} wait p50/p99 {:.0}/{:.0} us\n",
                p.name(),
                c.offered,
                c.admitted,
                c.blocked,
                c.preempted,
                c.completed,
                p50,
                p99,
            ));
        }
        out
    }
}

/// The `schema` member `service_report.json` opens with.
pub const SERVICE_REPORT_SCHEMA: &str = "lightwave/service-report/v1";

/// Serializable [`ServiceReport`] (histograms as sparse snapshots).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// [`SERVICE_REPORT_SCHEMA`].
    pub schema: String,
    /// See [`ServiceReport::submitted`].
    pub submitted: u64,
    /// See [`ServiceReport::invalid`].
    pub invalid: u64,
    /// See [`ServiceReport::compose_failed`].
    pub compose_failed: u64,
    /// See [`ServiceReport::release_failed`].
    pub release_failed: u64,
    /// Per-class tallies, highest precedence first.
    pub classes: Vec<ClassSnapshot>,
    /// See [`ServiceReport::busy_cube_nanos`].
    pub busy_cube_nanos: u128,
    /// See [`ServiceReport::goodput_cube_nanos`].
    pub goodput_cube_nanos: u128,
    /// See [`ServiceReport::horizon`].
    pub horizon_nanos: u64,
    /// See [`ServiceReport::cells`].
    pub cells: u64,
}

/// One class of a [`ServiceSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSnapshot {
    /// Class name.
    pub class: String,
    /// See [`ClassStats::offered`].
    pub offered: u64,
    /// See [`ClassStats::admitted`].
    pub admitted: u64,
    /// See [`ClassStats::blocked`].
    pub blocked: u64,
    /// See [`ClassStats::preempted`].
    pub preempted: u64,
    /// See [`ClassStats::completed`].
    pub completed: u64,
    /// See [`ClassStats::immediate`].
    pub immediate: u64,
    /// Positive-wait histogram snapshot (microseconds).
    pub wait_micros: HistogramSnapshot,
}

/// Quantile of the union of `immediate` exact-zero waits and the
/// positive waits in `hist`. Zeros sort first, so when the target rank
/// falls inside them the quantile is exactly 0.0; otherwise the rank is
/// shifted into the histogram.
fn quantile_with_immediate(immediate: u64, hist: &LogHistogram, q: f64) -> Option<f64> {
    let total = immediate + hist.count();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * total as f64).ceil() as u64).max(1);
    if target <= immediate {
        return Some(0.0);
    }
    hist.quantile((target - immediate) as f64 / hist.count() as f64)
}

/// Erlang B blocking probability for `erlangs` of offered load on
/// `servers` circuits, via the numerically stable recurrence
/// `B(E, m) = E·B(E, m-1) / (m + E·B(E, m-1))`. The `faas1` experiment
/// checks the single-cube mix against this at low load.
pub fn erlang_b(erlangs: f64, servers: u32) -> f64 {
    let mut b = 1.0;
    for m in 1..=servers {
        b = erlangs * b / (m as f64 + erlangs * b);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_integer_exact_and_commutative_in_value() {
        let mut a = ServiceReport {
            submitted: 10,
            busy_cube_nanos: 1_000,
            horizon: Nanos(500),
            cells: 1,
            ..ServiceReport::default()
        };
        a.classes[0].offered = 9;
        a.classes[0].wait_micros.record(125.0);
        let mut b = ServiceReport {
            submitted: 4,
            cells: 1,
            ..ServiceReport::default()
        };
        b.classes[0].offered = 4;
        b.classes[0].wait_micros.record(3_000.0);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.submitted, 14);
        assert_eq!(ab.classes[0].wait_micros, ba.classes[0].wait_micros);
        assert_eq!(ab.cells, 2);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut r = ServiceReport {
            submitted: 3,
            cells: 1,
            ..ServiceReport::default()
        };
        r.classes[1].offered = 3;
        r.classes[1].wait_micros.record(42.0);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: ServiceSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.classes.len(), 3);
        assert_eq!(back.classes[1].class, "training");
    }

    #[test]
    fn erlang_b_matches_known_values() {
        // B(E=1, m=1) = 1/2; B(E=2, m=2) = 2/5.
        assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-12);
        assert!((erlang_b(2.0, 2) - 0.4).abs() < 1e-12);
        // Monotone in load, vanishing at low load on 64 servers.
        assert!(erlang_b(4.0, 64) < 1e-9);
        assert!(erlang_b(90.0, 64) > erlang_b(60.0, 64));
    }

    #[test]
    fn zero_waits_are_part_of_the_quantile() {
        let mut r = ServiceReport::default();
        // 98 instant admissions, 2 slow ones: p50 is exactly 0, p99 is
        // in the slow tail.
        r.classes[0].immediate = 98;
        r.classes[0].wait_micros.record(1_000.0);
        r.classes[0].wait_micros.record(2_000.0);
        assert_eq!(r.wait_quantile_micros(0.50), Some(0.0));
        assert!(r.wait_quantile_micros(0.99).unwrap() >= 1_000.0);
        // All-immediate: every quantile is zero, not `None`.
        let mut s = ServiceReport::default();
        s.classes[2].immediate = 7;
        assert_eq!(s.wait_quantile_micros(0.99), Some(0.0));
    }

    #[test]
    fn ratios_handle_empty_reports() {
        let r = ServiceReport::default();
        assert_eq!(r.blocking_probability(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.goodput_fraction(), 1.0);
        assert!(r.wait_quantile_micros(0.99).is_none());
    }
}
