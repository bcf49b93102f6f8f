//! Delta-debugging schedule shrinking.
//!
//! Given a schedule whose execution violates an invariant, [`shrink`]
//! reduces the event list to a locally minimal one that still violates
//! the *same* invariant. Soundness rests on the executor's purity
//! contract (see `executor.rs`): the world seed is `(seed, index)`, not
//! the event list, so dropping events never perturbs the behavior of
//! the events that remain — every candidate is a faithful sub-run.
//!
//! The reducer is classic ddmin over complements (Zeller & Hildebrandt)
//! followed by a one-at-a-time sweep to a fixpoint, so the result is
//! 1-minimal: removing any single remaining event loses the violation.

use crate::executor::{run_schedule, InjectedBug};
use crate::invariant::Violation;
use crate::schedule::{FaultKind, FaultSchedule};

/// The outcome of shrinking one violating schedule.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The minimal schedule (same `seed`/`index`, reduced events).
    pub schedule: FaultSchedule,
    /// The violation the minimal schedule still triggers.
    pub violation: Violation,
    /// Events in the original schedule.
    pub original_events: usize,
    /// Executor runs spent shrinking.
    pub runs: u32,
}

/// Shrinks `schedule` to a 1-minimal event list that still violates the
/// same [`crate::invariant::InvariantKind`] as the full schedule with
/// `inject` planted. Returns
/// `None` if the full schedule does not violate anything.
pub fn shrink(schedule: &FaultSchedule, inject: Option<InjectedBug>) -> Option<ShrinkResult> {
    let full = run_schedule(schedule, inject);
    let target = full.violation?.invariant;
    let mut runs = 0u32;
    let mut test = |events: &[FaultKind]| -> Option<Violation> {
        runs += 1;
        let candidate = FaultSchedule {
            seed: schedule.seed,
            index: schedule.index,
            events: events.to_vec(),
        };
        run_schedule(&candidate, inject)
            .violation
            .filter(|v| v.invariant == target)
    };

    let mut cur = schedule.events.clone();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let mut reduced = false;
        for i in 0..n {
            let complement = drop_chunk(&cur, n, i);
            if test(&complement).is_some() {
                cur = complement;
                reduced = true;
                break;
            }
        }
        if reduced {
            n = 2.max(n - 1);
        } else {
            if n >= cur.len() {
                break;
            }
            n = (2 * n).min(cur.len());
        }
    }
    // One-at-a-time sweep: ddmin at max granularity already tried every
    // single removal, but removals can unlock each other — iterate to a
    // fixpoint for true 1-minimality.
    loop {
        let mut improved = false;
        for i in 0..cur.len() {
            let mut candidate = cur.clone();
            candidate.remove(i);
            if test(&candidate).is_some() {
                cur = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }

    let minimal = FaultSchedule {
        seed: schedule.seed,
        index: schedule.index,
        events: cur,
    };
    let violation = run_schedule(&minimal, inject)
        .violation
        .expect("minimal schedule still violates by construction");
    Some(ShrinkResult {
        schedule: minimal,
        violation,
        original_events: schedule.events.len(),
        runs: runs + 1,
    })
}

/// `events` with chunk `i` of an `n`-way partition removed.
fn drop_chunk(events: &[FaultKind], n: usize, i: usize) -> Vec<FaultKind> {
    let len = events.len();
    let chunk = len.div_ceil(n);
    let start = (i * chunk).min(len);
    let end = ((i + 1) * chunk).min(len);
    let mut out = Vec::with_capacity(len - (end - start));
    out.extend_from_slice(&events[..start]);
    out.extend_from_slice(&events[end..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::InjectedBug;
    use crate::invariant::InvariantKind;

    #[test]
    fn drop_chunk_partitions_exactly() {
        let ev: Vec<FaultKind> = (0..5).map(|i| FaultKind::Advance { millis: i }).collect();
        // 2-way partition of 5: chunks [0..3), [3..5).
        assert_eq!(drop_chunk(&ev, 2, 0).len(), 2);
        assert_eq!(drop_chunk(&ev, 2, 1).len(), 3);
        // n == len: single-event removals.
        for i in 0..5 {
            let d = drop_chunk(&ev, 5, i);
            assert_eq!(d.len(), 4);
            assert!(!d.contains(&FaultKind::Advance { millis: i as u32 }));
        }
    }

    #[test]
    fn clean_schedule_does_not_shrink() {
        let s = FaultSchedule::generate(11, 0);
        assert!(shrink(&s, None).is_none());
    }

    #[test]
    fn planted_violation_shrinks_to_the_essential_events() {
        // Pad a known 2-event repro with noise the shrinker must strip.
        let s = FaultSchedule {
            seed: 5,
            index: 0,
            events: vec![
                FaultKind::Compose { cubes: 1 },
                FaultKind::Advance { millis: 5 },
                FaultKind::LinkFlap { ocs: 9, port: 3 },
                FaultKind::Compose { cubes: 2 },
                FaultKind::RelockStorm { ocs: 3, ports: 12 },
                FaultKind::Advance { millis: 20 },
                FaultKind::Preempt,
            ],
        };
        let inject = Some(InjectedBug::SkipFlightPoll);
        let r = shrink(&s, inject).expect("full schedule violates");
        assert_eq!(r.violation.invariant, InvariantKind::CriticalWithoutDump);
        // The storm alone escalates to Critical: a 1-event repro.
        assert_eq!(
            r.schedule.events,
            vec![FaultKind::RelockStorm { ocs: 3, ports: 12 }]
        );
        assert_eq!(r.original_events, 7);
        // The minimal schedule is independently runnable.
        let replay = run_schedule(&r.schedule, inject);
        assert_eq!(replay.violation, Some(r.violation));
    }
}
