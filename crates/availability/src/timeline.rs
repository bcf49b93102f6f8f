//! Continuous-time availability simulation: why reconfiguration *speed*
//! matters, not just combinatorics.
//!
//! The static analysis in the crate root answers "how much capacity can I
//! promise"; this module answers "what actually happens over a year".
//! Cubes fail as Poisson processes and take hours to repair. A slice on a
//! *static* fabric is down for the whole repair. A slice on a
//! *reconfigurable* fabric swaps the dead cube for a spare in seconds
//! (OCS settle + transceiver bring-up + job restart) — so its downtime
//! per failure is four orders of magnitude shorter, spares permitting.

use lightwave_units::Availability;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};

/// Parameters of a timeline run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineParams {
    /// Mean time between failures of one cube, hours.
    pub cube_mtbf_hours: f64,
    /// Mean repair time of a failed cube, hours.
    pub cube_mttr_hours: f64,
    /// Cubes per slice.
    pub slice_cubes: usize,
    /// Number of slices running.
    pub slices: usize,
    /// Spare (idle) cubes in the pool.
    pub spare_cubes: usize,
    /// Time to reconfigure a slice onto a spare, seconds.
    pub reconfig_secs: f64,
    /// Simulated horizon, hours.
    pub horizon_hours: f64,
}

impl TimelineParams {
    /// A year of a production-flavored pod: three 1024-chip slices plus
    /// 16 spare cubes (the Fig. 15b holdback), cube MTBF from 99.9%-
    /// available servers (24 units × their failure rate), 4 h repairs,
    /// 30 s to recompose a slice.
    pub fn production_year() -> TimelineParams {
        // Cube availability 0.976 with 4 h MTTR ⇒ MTBF ≈ 163 h.
        let a = 0.999f64.powf(24.0);
        let mttr = 4.0;
        TimelineParams {
            cube_mtbf_hours: mttr * a / (1.0 - a),
            cube_mttr_hours: mttr,
            slice_cubes: 16,
            slices: 3,
            spare_cubes: 16,
            reconfig_secs: 30.0,
            horizon_hours: 365.25 * 24.0,
        }
    }

    /// The steady-state availability of one cube implied by these rates.
    pub fn cube_availability(&self) -> Availability {
        Availability::new(self.cube_mtbf_hours / (self.cube_mtbf_hours + self.cube_mttr_hours))
    }
}

/// Outcome of one policy over the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Fraction of slice-hours actually delivered.
    pub delivered: f64,
    /// Cube failures that hit a running slice.
    pub failures: u64,
    /// Total slice-down hours.
    pub down_hours: f64,
}

/// Reconfigurable-vs-static outcome of one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineReport {
    /// The reconfigurable fabric (swap to spare in `reconfig_secs`).
    pub reconfigurable: PolicyOutcome,
    /// The static fabric (down for the repair).
    pub static_fabric: PolicyOutcome,
}

/// A parameter the timeline loop cannot run on: the field of
/// [`TimelineParams`] or [`PreemptParams`] that is out of range, by name.
///
/// In range: `slices` and `slice_cubes` at least 1; `cube_mtbf_hours` and
/// `horizon_hours` positive and finite (an infinite horizon never ends);
/// `cube_mttr_hours` and the three `*_secs` finite and not negative;
/// `detector_recall` a probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineError {
    /// The field that is out of range.
    pub field: &'static str,
    /// What it held (a count as `f64`).
    pub value: f64,
}

impl std::fmt::Display for TimelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let TimelineError { field, value } = self;
        write!(f, "timeline parameter `{field}` is out of range: {value}")
    }
}

impl std::error::Error for TimelineError {}

/// What a field may hold.
type Range = fn(f64) -> bool;
const AT_LEAST_ONE: Range = |v| v >= 1.0;
const POSITIVE: Range = |v| v.is_finite() && v > 0.0;
/// An MTBF whose failure rate the exponential can be built on.
const FINITE_RATE: Range = |v| POSITIVE(1.0 / v);
/// A time the loop adds up: NaN or ∞ would poison every total.
const DURATION: Range = |v| v.is_finite() && v >= 0.0;
const PROBABILITY: Range = |v| (0.0..=1.0).contains(&v);

/// The first of `(field, value, range)` out of its range, as the error.
fn check(rows: &[(&'static str, f64, Range)]) -> Result<(), TimelineError> {
    match rows.iter().find(|(_, value, range)| !range(*value)) {
        Some(&(field, value, _)) => Err(TimelineError { field, value }),
        None => Ok(()),
    }
}

/// Simulates both policies against independent failure traces drawn from
/// the same seed (per-policy traces are statistically identical).
pub fn simulate(params: &TimelineParams, seed: u64) -> Result<TimelineReport, TimelineError> {
    check(&[("reconfig_secs", params.reconfig_secs, DURATION)])?;
    let reconfig_hours = params.reconfig_secs / 3600.0;
    let [reconfigurable] = run(params, seed ^ 0xAB, |_| Some([reconfig_hours]))?;
    let [static_fabric] = run(params, seed, |_| None::<[f64; 1]>)?;
    Ok(TimelineReport {
        reconfigurable,
        static_fabric,
    })
}

/// The one event loop: cubes fail as Poisson processes on `stream` and
/// repair in `cube_mttr_hours`; a failure that hits a running slice asks
/// `swap_rule` what the fabric does about it. The rule may draw from the
/// stream, and answers `None` — this fabric cannot swap, the slice waits
/// out the repair — or the downtime a swap onto a spare costs under each
/// of the `N` policies being compared on this one trace. A swap the rule
/// allows still needs a spare that is not itself under repair; without one
/// the slice waits out the repair under every policy.
fn run<const N: usize>(
    p: &TimelineParams,
    stream: u64,
    mut swap_rule: impl FnMut(&mut StdRng) -> Option<[f64; N]>,
) -> Result<[PolicyOutcome; N], TimelineError> {
    check(&[
        ("slices", p.slices as f64, AT_LEAST_ONE),
        ("slice_cubes", p.slice_cubes as f64, AT_LEAST_ONE),
        ("cube_mtbf_hours", p.cube_mtbf_hours, FINITE_RATE),
        ("cube_mttr_hours", p.cube_mttr_hours, DURATION),
        ("horizon_hours", p.horizon_hours, POSITIVE),
    ])?;

    let mut rng = StdRng::seed_from_u64(stream);
    let fail = Exp::<f64>::new(1.0 / p.cube_mtbf_hours).expect("checked: a positive finite rate");
    let total_cubes = p.slices * p.slice_cubes + p.spare_cubes;

    // Event-driven over per-cube next-failure times and repair
    // completions.
    #[derive(Clone, Copy)]
    struct CubeState {
        next_failure: f64,
        /// Repair completes at this time (cube unusable until then).
        repaired_at: f64,
    }
    let mut cubes: Vec<CubeState> = (0..total_cubes)
        .map(|_| CubeState {
            next_failure: fail.sample(&mut rng),
            repaired_at: 0.0,
        })
        .collect();
    // Slice i currently uses cubes assignment[i]; a swap replaces the
    // failed member by any spare that is not under repair.
    let mut assignment: Vec<Vec<usize>> = (0..p.slices)
        .map(|s| (s * p.slice_cubes..(s + 1) * p.slice_cubes).collect())
        .collect();
    let mut spares: Vec<usize> = (p.slices * p.slice_cubes..total_cubes).collect();

    let mut down_hours = [0.0f64; N];
    let mut failures = 0u64;
    let mut now = 0.0f64;
    while now < p.horizon_hours {
        // Next failure of any cube that is currently in service.
        let (idx, t) = cubes
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.next_failure.max(c.repaired_at)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("event times are never NaN"))
            .expect("cubes exist");
        // (A failure scheduled during repair fires after the repair.)
        now = t;
        if now >= p.horizon_hours {
            break;
        }
        let repaired_at = now + p.cube_mttr_hours;
        cubes[idx].repaired_at = repaired_at;
        cubes[idx].next_failure = repaired_at + fail.sample(&mut rng);

        // Which slice (if any) lost a member?
        if let Some(slice) = assignment.iter().position(|a| a.contains(&idx)) {
            failures += 1;
            // The rule speaks (and draws) before the pool is looked at, so
            // a stream never depends on whether a spare happened to be free.
            let swapped = swap_rule(&mut rng).and_then(|cost| {
                let pos = spares.iter().position(|&s| cubes[s].repaired_at <= now)?;
                let spare = spares.remove(pos);
                let member = assignment[slice]
                    .iter_mut()
                    .find(|m| **m == idx)
                    .expect("member present");
                *member = spare;
                spares.push(idx); // the broken cube repairs in the pool
                Some(cost)
            });
            let cost = swapped.unwrap_or([p.cube_mttr_hours; N]);
            for (total, hours) in down_hours.iter_mut().zip(cost) {
                *total += hours;
            }
        }
    }

    let slice_hours = p.slices as f64 * p.horizon_hours;
    Ok(down_hours.map(|down_hours| PolicyOutcome {
        delivered: 1.0 - (down_hours / slice_hours).min(1.0),
        failures,
        down_hours,
    }))
}

/// Parameters of a preempt-vs-react comparison (the fleet-health
/// maintenance-advisor experiment).
///
/// The premise: most hard cube failures are foreshadowed by a detectable
/// degradation trend — optical loss creeping up, relock rates rising —
/// and a streaming detector catches that trend with probability
/// [`detector_recall`](PreemptParams::detector_recall) before the cube
/// actually dies. A *caught* failure becomes planned maintenance: the
/// advisor drains the slice onto a spare in
/// [`drain_secs`](PreemptParams::drain_secs) while everything still
/// works. A *missed* failure is an emergency: detection, alarm
/// correlation, spare swap, camera re-verification and job restart take
/// [`emergency_secs`](PreemptParams::emergency_secs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptParams {
    /// Failure/repair statistics and pool shape.
    pub base: TimelineParams,
    /// Probability the detectors flag a failing cube before it dies.
    pub detector_recall: f64,
    /// Planned drain-and-swap time for a caught failure, seconds.
    pub drain_secs: f64,
    /// Emergency swap time for a missed failure, seconds.
    pub emergency_secs: f64,
}

impl PreemptParams {
    /// The production-year pool with the fleet-health advisor in front:
    /// 90% detector recall, 5 s planned drains, 30 s emergency swaps
    /// (the base model's reconfiguration time).
    pub fn production_year() -> PreemptParams {
        let base = TimelineParams::production_year();
        PreemptParams {
            detector_recall: 0.9,
            drain_secs: 5.0,
            emergency_secs: base.reconfig_secs,
            base,
        }
    }
}

/// Preemptive-vs-reactive outcome of one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptReport {
    /// Advisor on: caught failures drain in `drain_secs`.
    pub preemptive: PolicyOutcome,
    /// Advisor off: every failure is an emergency swap.
    pub reactive: PolicyOutcome,
    /// Failures the detectors caught ahead of time (one draw per failure,
    /// which the reactive policy ignores).
    pub caught: u64,
}

/// Simulates the advisor-on and advisor-off policies against the *same*
/// failure trace and the *same* detector-catch draws: one pass over one
/// stream with a downtime total per policy, so the comparison is paired
/// per event by construction.
pub fn simulate_preempt(params: &PreemptParams, seed: u64) -> Result<PreemptReport, TimelineError> {
    use rand::Rng;
    check(&[
        ("detector_recall", params.detector_recall, PROBABILITY),
        ("drain_secs", params.drain_secs, DURATION),
        ("emergency_secs", params.emergency_secs, DURATION),
    ])?;
    let drain_hours = params.drain_secs / 3600.0;
    let emergency_hours = params.emergency_secs / 3600.0;
    let mut caught = 0u64;
    let [preemptive, reactive] = run(&params.base, seed ^ 0x9E37, |rng| {
        let detected = rng.random_bool(params.detector_recall);
        caught += u64::from(detected);
        let advised = if detected {
            drain_hours
        } else {
            emergency_hours
        };
        Some([advised, emergency_hours])
    })?;
    Ok(PreemptReport {
        preemptive,
        reactive,
        caught,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconfiguration_speed_is_the_whole_game() {
        // Same failure statistics, four-orders-of-magnitude different
        // per-failure downtime.
        let report = simulate(&TimelineParams::production_year(), 42).unwrap();
        let r = report.reconfigurable;
        let s = report.static_fabric;
        assert!(
            r.delivered > 0.999,
            "swap-in-seconds keeps slices essentially always up: {}",
            r.delivered
        );
        assert!(
            s.delivered < 0.98,
            "repair-in-hours costs real availability: {}",
            s.delivered
        );
        assert!(r.down_hours < s.down_hours / 50.0);
    }

    #[test]
    fn static_downtime_matches_analytic_expectation() {
        // Expected static slice unavailability ≈ k·MTTR/MTBF (small-rate
        // approximation of 1 − A_c^k).
        let p = TimelineParams::production_year();
        let report = simulate(&p, 7).unwrap();
        let per_cube_unavail = p.cube_mttr_hours / (p.cube_mtbf_hours + p.cube_mttr_hours);
        let expected = 1.0 - (1.0 - per_cube_unavail).powi(p.slice_cubes as i32);
        let measured = 1.0 - report.static_fabric.delivered;
        assert!(
            (measured / expected - 1.0).abs() < 0.35,
            "measured {measured:.4} vs analytic {expected:.4}"
        );
    }

    #[test]
    fn no_failures_no_downtime() {
        let p = TimelineParams {
            cube_mtbf_hours: 1e12,
            ..TimelineParams::production_year()
        };
        let report = simulate(&p, 3).unwrap();
        assert_eq!(report.reconfigurable.failures, 0);
        assert_eq!(report.reconfigurable.delivered, 1.0);
        assert_eq!(report.static_fabric.delivered, 1.0);
    }

    #[test]
    fn spare_exhaustion_degrades_gracefully() {
        // Zero spares: the reconfigurable fabric degenerates to static
        // behaviour (nothing to swap in).
        let p = TimelineParams {
            spare_cubes: 0,
            ..TimelineParams::production_year()
        };
        let report = simulate(&p, 11).unwrap();
        let gap = (report.reconfigurable.delivered - report.static_fabric.delivered).abs();
        assert!(
            gap < 0.01,
            "without spares the policies converge: gap {gap:.4}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = TimelineParams::production_year();
        assert_eq!(simulate(&p, 5), simulate(&p, 5));
    }

    #[test]
    fn preempt_beats_react_on_the_paired_trace() {
        let p = PreemptParams::production_year();
        let report = simulate_preempt(&p, 42).unwrap();
        // Identical failure traces by construction.
        assert_eq!(report.preemptive.failures, report.reactive.failures);
        assert!(report.caught > 0 && report.caught <= report.preemptive.failures);
        // Every caught failure trades a 30 s emergency for a 5 s drain.
        assert!(report.preemptive.down_hours < report.reactive.down_hours);
        let saved = report.reactive.down_hours - report.preemptive.down_hours;
        let expected = report.caught as f64 * (p.emergency_secs - p.drain_secs) / 3600.0;
        assert!(
            (saved - expected).abs() < 1e-9,
            "saved {saved} vs expected {expected}"
        );
    }

    #[test]
    fn zero_recall_collapses_to_reactive() {
        let p = PreemptParams {
            detector_recall: 0.0,
            ..PreemptParams::production_year()
        };
        let report = simulate_preempt(&p, 9).unwrap();
        assert_eq!(report.caught, 0);
        assert_eq!(report.preemptive, report.reactive);
    }

    #[test]
    fn preempt_is_deterministic_per_seed() {
        let p = PreemptParams::production_year();
        assert_eq!(simulate_preempt(&p, 5), simulate_preempt(&p, 5));
    }

    #[test]
    fn production_params_are_self_consistent() {
        let p = TimelineParams::production_year();
        // Implied cube availability matches the Fig. 15b model's 0.976.
        assert!((p.cube_availability().prob() - 0.999f64.powf(24.0)).abs() < 1e-9);
    }
}
