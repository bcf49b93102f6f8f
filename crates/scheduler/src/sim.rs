//! Discrete-event cluster simulation: arrivals, queueing, utilization.
//!
//! The experiment behind §4.2.4's ">98% utilization" claim: feed the same
//! job stream to a pooled (OCS) scheduler and a contiguous (static)
//! scheduler and compare achieved utilization, queue delays, and
//! fragmentation stalls (a job that waits even though enough cubes are
//! idle — impossible under pooling, routine under contiguity).

use crate::alloc::Allocator;
use lightwave_superpod::geometry::{CubeId, CubeSet};
use lightwave_superpod::slice::SliceShape;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A job template for the workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Requested slice shape.
    pub shape: SliceShape,
    /// Mean duration, hours.
    pub mean_hours: f64,
    /// Relative arrival weight.
    pub weight: f64,
}

/// The TPU-fleet-flavored default mix: mostly small jobs, a tail of big
/// ones (shapes all fit both disciplines, isolating *fragmentation* as
/// the difference rather than shape support).
pub fn default_mix() -> Vec<JobSpec> {
    let s = |a, b, c| SliceShape::new(a, b, c).expect("valid shape");
    vec![
        JobSpec {
            shape: s(4, 4, 4),
            mean_hours: 2.0,
            weight: 0.40,
        },
        JobSpec {
            shape: s(8, 4, 4),
            mean_hours: 3.0,
            weight: 0.25,
        },
        JobSpec {
            shape: s(8, 8, 4),
            mean_hours: 4.0,
            weight: 0.15,
        },
        JobSpec {
            shape: s(8, 8, 8),
            mean_hours: 6.0,
            weight: 0.12,
        },
        JobSpec {
            shape: s(16, 8, 8),
            mean_hours: 8.0,
            weight: 0.05,
        },
        JobSpec {
            shape: s(16, 16, 4),
            mean_hours: 8.0,
            weight: 0.03,
        },
    ]
}

/// Simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Fraction of cube-hours spent running jobs.
    pub utilization: f64,
    /// Jobs completed.
    pub completed: u64,
    /// Mean queue wait, hours.
    pub mean_wait_hours: f64,
    /// Scheduling attempts that failed *despite* enough idle cubes for the
    /// request (fragmentation stalls).
    pub fragmentation_stalls: u64,
    /// Jobs rejected because the discipline can never place their shape.
    pub unsupported: u64,
    /// Running jobs moved by defragmentation (each paying the migration
    /// cost). Always 0 for disciplines without defrag.
    pub migrations: u64,
}

/// The cluster simulator.
#[derive(Debug)]
pub struct ClusterSim {
    mix: Vec<JobSpec>,
    /// Mean inter-arrival time, hours.
    pub mean_interarrival_hours: f64,
}

#[derive(Debug, Clone)]
struct PendingJob {
    /// Position of the job's spec in the mix.
    spec: usize,
    /// Cubes the spec's shape needs, kept here because the backfill pass
    /// reads it for every queued job on every event.
    need: usize,
    duration: f64,
    arrived: f64,
}

/// The specs (by position in the mix) that a backfill pass has already
/// failed to place. `allocate` and `repack` are pure functions of (shape,
/// idle, running), so a failure stands for every later queue entry of
/// that spec until a placement or a successful repack changes `idle` or
/// `running` — where the pass clears the memo. The hundreds of queued
/// jobs of an overloaded cluster then cost one attempt per spec, not one
/// each. Only the attempt is skipped: every entry still takes its
/// fragmentation-stall tally from the live `idle`.
///
/// One word of bits on the stack; specs past the 64th are never
/// remembered and are simply tried every time.
#[derive(Debug, Clone, Copy, Default)]
struct FailedSpecs(u64);

impl FailedSpecs {
    fn contains(self, spec: usize) -> bool {
        spec < 64 && (self.0 >> spec) & 1 == 1
    }

    fn insert(&mut self, spec: usize) {
        if spec < 64 {
            self.0 |= 1 << spec;
        }
    }
}

impl ClusterSim {
    /// A simulator over a workload mix.
    ///
    /// # Panics
    /// Panics on an empty mix, a spec whose `weight` or `mean_hours` is
    /// not finite and positive, or a non-positive inter-arrival time.
    pub fn new(mix: Vec<JobSpec>, mean_interarrival_hours: f64) -> ClusterSim {
        assert!(!mix.is_empty(), "need at least one job spec");
        assert!(mean_interarrival_hours > 0.0);
        for (i, spec) in mix.iter().enumerate() {
            assert!(
                spec.weight.is_finite() && spec.weight > 0.0,
                "job spec {i} ({:?}): weight must be finite and positive, got {}",
                spec.shape,
                spec.weight
            );
            assert!(
                spec.mean_hours.is_finite() && spec.mean_hours > 0.0,
                "job spec {i} ({:?}): mean_hours must be finite and positive, got {}",
                spec.shape,
                spec.mean_hours
            );
        }
        ClusterSim {
            mix,
            mean_interarrival_hours,
        }
    }

    /// An arrival at `now`: draws a spec from the mix, then its duration.
    fn draw_job(&self, rng: &mut StdRng, total_weight: f64, now: f64) -> PendingJob {
        let mut pick = rng.random_range(0.0..total_weight);
        let spec = self
            .mix
            .iter()
            .position(|s| {
                pick -= s.weight;
                pick <= 0.0
            })
            .unwrap_or(self.mix.len() - 1);
        let duration = Exp::new(1.0 / self.mix[spec].mean_hours)
            .expect("positive rate")
            .sample(rng);
        PendingJob {
            spec,
            need: self.mix[spec].shape.cube_count(),
            duration,
            arrived: now,
        }
    }

    /// Runs `horizon_hours` of simulated time under `alloc`, FIFO queue.
    /// `alloc.allocate` must be a pure function of its arguments.
    pub fn run<A: Allocator>(&self, alloc: &A, horizon_hours: f64, seed: u64) -> SimReport {
        assert!(horizon_hours > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let arrival = Exp::new(1.0 / self.mean_interarrival_hours).expect("positive rate");
        let total_weight: f64 = self.mix.iter().map(|s| s.weight).sum();

        let mut idle = CubeSet::ALL;
        // (completion time, cubes to release) for every running job,
        // latest first: the next release is the last entry.
        let mut releases: Vec<(f64, Vec<CubeId>)> = Vec::new();
        let mut queue: VecDeque<PendingJob> = VecDeque::new();
        let mut now = 0.0f64;
        let mut next_arrival = arrival.sample(&mut rng);

        let mut busy_cube_hours = 0.0f64;
        let mut completed = 0u64;
        let mut total_wait = 0.0f64;
        let mut waits = 0u64;
        let mut frag_stalls = 0u64;
        let mut unsupported = 0u64;
        let mut busy_cubes = 0usize;

        let advance_to = |now: &mut f64, t: f64, busy: usize, acc: &mut f64| {
            *acc += busy as f64 * (t - *now);
            *now = t;
        };

        while now < horizon_hours {
            // Next event: arrival or earliest release.
            let next_release = releases.last().map(|r| r.0);
            let t_event = match next_release {
                Some(r) if r <= next_arrival => r,
                _ => next_arrival,
            };
            if t_event >= horizon_hours {
                advance_to(&mut now, horizon_hours, busy_cubes, &mut busy_cube_hours);
                break;
            }
            advance_to(&mut now, t_event, busy_cubes, &mut busy_cube_hours);

            if Some(t_event) == next_release {
                let (_, cubes) = releases.pop().expect("a release is due");
                busy_cubes -= cubes.len();
                idle.extend(cubes);
                completed += 1;
            } else {
                let job = self.draw_job(&mut rng, total_weight, now);
                if !alloc.supports(self.mix[job.spec].shape) {
                    unsupported += 1;
                } else {
                    queue.push_back(job);
                }
                next_arrival = now + arrival.sample(&mut rng);
            }

            // Drain the queue with backfilling: oldest-first, but jobs
            // that fit run even when an older, larger job is still
            // waiting — the standard discipline of production gang
            // schedulers (and necessary for the paper's >98% utilization).
            let mut failed = FailedSpecs::default();
            let mut i = 0;
            while i < queue.len() {
                let PendingJob { spec, need, .. } = queue[i];
                let placed = if failed.contains(spec) {
                    None
                } else {
                    alloc.allocate(self.mix[spec].shape, idle)
                };
                match placed {
                    Some(cubes) => {
                        let job = queue.remove(i).expect("index in range");
                        for &c in &cubes {
                            idle.remove(c);
                        }
                        failed = FailedSpecs::default();
                        busy_cubes += cubes.len();
                        total_wait += now - job.arrived;
                        waits += 1;
                        // Of equal completion times the earlier placement
                        // is released first.
                        let ends = now + job.duration;
                        let at = releases.partition_point(|r| r.0 > ends);
                        releases.insert(at, (ends, cubes));
                    }
                    None => {
                        failed.insert(spec);
                        if idle.len() >= need {
                            frag_stalls += 1;
                        }
                        i += 1;
                    }
                }
            }
        }

        SimReport {
            utilization: busy_cube_hours / (64.0 * horizon_hours),
            completed,
            mean_wait_hours: if waits > 0 {
                total_wait / waits as f64
            } else {
                0.0
            },
            fragmentation_stalls: frag_stalls,
            unsupported,
            migrations: 0,
        }
    }

    /// Runs the contiguous (static-fabric) discipline with *migration
    /// defragmentation*: on a fragmentation stall the scheduler repacks
    /// every running job first-fit-decreasing into fresh boxes, charging
    /// each moved job `migration_hours` of lost progress (checkpoint,
    /// drain, restart). §4.2.4 credits the OCS pod's scheduler with
    /// defragmenting "more effectively" — this quantifies what the static
    /// alternative must pay for the same effect.
    pub fn run_contiguous_with_defrag(
        &self,
        horizon_hours: f64,
        migration_hours: f64,
        seed: u64,
    ) -> SimReport {
        assert!(horizon_hours > 0.0 && migration_hours >= 0.0);
        let alloc = crate::alloc::Contiguous;
        let mut rng = StdRng::seed_from_u64(seed);
        let arrival = Exp::new(1.0 / self.mean_interarrival_hours).expect("positive rate");
        let total_weight: f64 = self.mix.iter().map(|s| s.weight).sum();

        let mut idle = CubeSet::ALL;
        // Running jobs: (completion time, cubes, shape). The order is part
        // of the model — `repack` breaks first-fit-decreasing ties by it:
        // sorted by completion time at the top of each event, this
        // event's placements appended.
        let mut running: Vec<(f64, Vec<CubeId>, SliceShape)> = Vec::new();
        let mut queue: VecDeque<PendingJob> = VecDeque::new();
        let mut now = 0.0f64;
        let mut next_arrival = arrival.sample(&mut rng);

        let mut busy_cube_hours = 0.0f64;
        let mut completed = 0u64;
        let mut total_wait = 0.0f64;
        let mut waits = 0u64;
        let mut frag_stalls = 0u64;
        let mut unsupported = 0u64;
        let mut busy_cubes = 0usize;
        // Cube-hours burned on checkpoint/drain/restart — occupied but not
        // doing useful work, so excluded from utilization.
        let mut migration_waste = 0.0f64;
        let mut migrations = 0u64;

        while now < horizon_hours {
            running.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let next_release = running.first().map(|r| r.0);
            let t_event = match next_release {
                Some(r) if r <= next_arrival => r,
                _ => next_arrival,
            };
            if t_event >= horizon_hours {
                busy_cube_hours += busy_cubes as f64 * (horizon_hours - now);
                break;
            }
            busy_cube_hours += busy_cubes as f64 * (t_event - now);
            now = t_event;

            if Some(t_event) == next_release {
                let (_, cubes, _) = running.remove(0);
                busy_cubes -= cubes.len();
                idle.extend(cubes);
                completed += 1;
            } else {
                let job = self.draw_job(&mut rng, total_weight, now);
                if !alloc.supports(self.mix[job.spec].shape) {
                    unsupported += 1;
                } else {
                    queue.push_back(job);
                }
                next_arrival = now + arrival.sample(&mut rng);
            }

            // Backfill, defragmenting on stalls.
            let mut failed = FailedSpecs::default();
            let mut i = 0;
            while i < queue.len() {
                let PendingJob { spec, need, .. } = queue[i];
                let job_shape = self.mix[spec].shape;
                let known = failed.contains(spec);
                let mut placed = if known {
                    None
                } else {
                    alloc.allocate(job_shape, idle)
                };
                if placed.is_none() && idle.len() >= need {
                    frag_stalls += 1;
                    if !known {
                        // Defragment: repack all running jobs FFD.
                        if let Some((new_assignments, moved)) = repack(&running, job_shape) {
                            idle = CubeSet::ALL;
                            for (slot, cubes) in new_assignments.iter().enumerate() {
                                for &c in cubes {
                                    idle.remove(c);
                                }
                                let was_moved = moved.contains(&slot);
                                let entry = &mut running[slot];
                                entry.1 = cubes.clone();
                                if was_moved {
                                    entry.0 += migration_hours;
                                    migration_waste += cubes.len() as f64 * migration_hours;
                                    migrations += 1;
                                }
                            }
                            failed = FailedSpecs::default();
                            placed = alloc.allocate(job_shape, idle);
                        }
                    }
                }
                match placed {
                    Some(cubes) => {
                        let job = queue.remove(i).expect("index in range");
                        for &c in &cubes {
                            idle.remove(c);
                        }
                        failed = FailedSpecs::default();
                        busy_cubes += cubes.len();
                        total_wait += now - job.arrived;
                        waits += 1;
                        running.push((now + job.duration, cubes, job_shape));
                    }
                    None => {
                        failed.insert(spec);
                        i += 1;
                    }
                }
            }
        }

        SimReport {
            utilization: (busy_cube_hours - migration_waste).max(0.0) / (64.0 * horizon_hours),
            completed,
            mean_wait_hours: if waits > 0 {
                total_wait / waits as f64
            } else {
                0.0
            },
            fragmentation_stalls: frag_stalls,
            unsupported,
            migrations,
        }
    }
}

/// First-fit-decreasing repack of the running jobs into boxes, leaving
/// room for `incoming`. Returns per-job new cube sets and the indices of
/// jobs whose assignment changed, or `None` if even a full repack cannot
/// fit everything.
fn repack(
    running: &[(f64, Vec<CubeId>, SliceShape)],
    incoming: SliceShape,
) -> Option<(Vec<Vec<CubeId>>, Vec<usize>)> {
    use crate::alloc::{Allocator, Contiguous};
    let mut order: Vec<usize> = (0..running.len()).collect();
    order.sort_by(|&a, &b| running[b].1.len().cmp(&running[a].1.len()));
    let mut idle = CubeSet::ALL;
    let mut new_assignments = vec![Vec::new(); running.len()];
    for &slot in &order {
        let cubes = Contiguous.allocate(running[slot].2, idle)?;
        for &c in &cubes {
            idle.remove(c);
        }
        new_assignments[slot] = cubes;
    }
    // The repack must actually make room for the stalled job.
    Contiguous.allocate(incoming, idle)?;
    let moved = (0..running.len())
        .filter(|&s| new_assignments[s] != running[s].1)
        .collect();
    Some((new_assignments, moved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{Contiguous, Pooled};

    fn busy_cluster() -> ClusterSim {
        // Heavy offered load so utilization is allocator-limited, not
        // demand-limited.
        ClusterSim::new(default_mix(), 0.25)
    }

    #[test]
    fn pooled_achieves_high_utilization() {
        let report = busy_cluster().run(&Pooled, 2000.0, 42);
        assert!(
            report.utilization > 0.95,
            "pooled utilization {:.3} should exceed 95% under load (paper: >98%)",
            report.utilization
        );
        assert_eq!(report.fragmentation_stalls, 0, "pooling cannot fragment");
        assert_eq!(report.unsupported, 0);
    }

    #[test]
    fn contiguous_loses_utilization_to_fragmentation() {
        let sim = busy_cluster();
        let pooled = sim.run(&Pooled, 2000.0, 42);
        let contiguous = sim.run(&Contiguous, 2000.0, 42);
        // The gap's exact size is RNG-stream dependent (observed 0.011–0.029
        // across seeds); a full percentage point of cluster utilization is
        // already material at fleet scale.
        assert!(
            contiguous.utilization < pooled.utilization - 0.01,
            "contiguous {:.3} should trail pooled {:.3} materially",
            contiguous.utilization,
            pooled.utilization
        );
        assert!(
            contiguous.fragmentation_stalls > 100,
            "expected routine fragmentation stalls, got {}",
            contiguous.fragmentation_stalls
        );
    }

    #[test]
    fn report_fields_are_consistent() {
        // (Per-job wait and completion counts are survivor-biased under
        // backfilling — large jobs that starve on the contiguous cluster
        // never count — so cross-discipline deltas are asserted on
        // utilization and stalls in the tests above; here we check the
        // report's internal consistency.)
        let sim = busy_cluster();
        let r = sim.run(&Pooled, 500.0, 7);
        assert!(r.completed > 100, "busy cluster completes work");
        assert!(r.mean_wait_hours >= 0.0);
        assert!((0.0..=1.0).contains(&r.utilization));
    }

    #[test]
    fn light_load_equalizes_disciplines() {
        // With almost no contention both disciplines place everything.
        let sim = ClusterSim::new(default_mix(), 20.0);
        let pooled = sim.run(&Pooled, 2000.0, 3);
        let contiguous = sim.run(&Contiguous, 2000.0, 3);
        assert!((pooled.utilization - contiguous.utilization).abs() < 0.02);
        assert!(contiguous.mean_wait_hours < 0.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let sim = busy_cluster();
        let a = sim.run(&Pooled, 500.0, 9);
        let b = sim.run(&Pooled, 500.0, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn defrag_recovers_some_of_the_gap_at_a_migration_cost() {
        // §4.2.4: pooled ≥ contiguous+defrag ≥ contiguous. Defrag converts
        // fragmentation stalls into migrations; with cheap migrations it
        // closes most of the gap, with expensive ones it is barely worth
        // it.
        let sim = busy_cluster();
        let pooled = sim.run(&Pooled, 600.0, 42);
        let plain = sim.run(&Contiguous, 600.0, 42);
        let cheap = sim.run_contiguous_with_defrag(600.0, 0.05, 42);
        let costly = sim.run_contiguous_with_defrag(600.0, 2.0, 42);
        assert!(
            cheap.utilization > plain.utilization,
            "cheap defrag must beat plain contiguous: {:.3} vs {:.3}",
            cheap.utilization,
            plain.utilization
        );
        assert!(
            pooled.utilization >= cheap.utilization - 0.01,
            "pooling still wins (or ties): {:.3} vs {:.3}",
            pooled.utilization,
            cheap.utilization
        );
        assert!(
            costly.utilization <= cheap.utilization + 0.01,
            "expensive migrations erode the benefit: {:.3} vs {:.3}",
            costly.utilization,
            cheap.utilization
        );
        assert_eq!(plain.migrations, 0, "no defrag, no migrations");
        assert!(
            cheap.migrations > 0,
            "defrag must have moved running jobs to recover utilization"
        );
    }

    #[test]
    fn asymmetric_shapes_unsupported_on_static() {
        let mix = vec![JobSpec {
            shape: SliceShape::new(4, 4, 256).unwrap(),
            mean_hours: 4.0,
            weight: 1.0,
        }];
        let sim = ClusterSim::new(mix, 1.0);
        let r = sim.run(&Contiguous, 200.0, 5);
        assert_eq!(r.completed, 0);
        assert!(r.unsupported > 100, "every arrival is unplaceable");
        let r2 = sim.run(&Pooled, 200.0, 5);
        assert!(r2.completed > 0, "the OCS fabric runs them");
    }

    /// `default_mix()` with its first spec's weight and mean replaced.
    fn mix_with(weight: f64, mean_hours: f64) -> Vec<JobSpec> {
        let mut mix = default_mix();
        (mix[0].weight, mix[0].mean_hours) = (weight, mean_hours);
        mix
    }

    #[test]
    #[should_panic(expected = "job spec 0 (SliceShape { chips: [4, 4, 4] }): weight must be")]
    fn zero_weight_is_rejected_at_construction() {
        // A mix of these alone sums to 0: "empty random_range" mid-run.
        let _ = ClusterSim::new(mix_with(0.0, 2.0), 0.25);
    }

    #[test]
    #[should_panic(expected = "weight must be finite and positive, got NaN")]
    fn nan_weight_is_rejected_at_construction() {
        let _ = ClusterSim::new(mix_with(f64::NAN, 2.0), 0.25);
    }

    #[test]
    #[should_panic(expected = "weight must be finite and positive, got -0.4")]
    fn negative_weight_is_rejected_at_construction() {
        let _ = ClusterSim::new(mix_with(-0.4, 2.0), 0.25);
    }

    #[test]
    #[should_panic(expected = "job spec 0 (SliceShape { chips: [4, 4, 4] }): mean_hours must be")]
    fn zero_mean_duration_is_rejected_at_construction() {
        // `Exp::new(1/0)` would panic at this spec's first arrival.
        let _ = ClusterSim::new(mix_with(0.4, 0.0), 0.25);
    }
}
