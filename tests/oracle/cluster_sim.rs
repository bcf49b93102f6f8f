//! The reference `ClusterSim`: both event loops and `repack` as they
//! stood before the backfill memo (PR 15), moved here verbatim as a test
//! oracle. Every queued job is offered to `allocate` (and, on the defrag
//! path, to a full first-fit-decreasing `repack`) on every event, and the
//! running set is re-sorted per event. It is deliberately the slow,
//! obvious version: `tests/cluster_sim_model.rs` holds the production
//! simulator to its `SimReport`, field for field.

use lightwave::scheduler::{Allocator, Contiguous, JobSpec, SimReport};
use lightwave::superpod::{CubeId, CubeSet, SliceShape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Exp};
use std::collections::VecDeque;

/// The parent commit's `ClusterSim`. Only the type's name changed.
#[derive(Debug)]
pub struct OracleSim {
    mix: Vec<JobSpec>,
    /// Mean inter-arrival time, hours.
    mean_interarrival_hours: f64,
}

#[derive(Debug, Clone)]
struct PendingJob {
    shape: SliceShape,
    duration: f64,
    arrived: f64,
}

impl OracleSim {
    /// A simulator over a workload mix.
    pub fn new(mix: Vec<JobSpec>, mean_interarrival_hours: f64) -> OracleSim {
        assert!(!mix.is_empty(), "need at least one job spec");
        assert!(mean_interarrival_hours > 0.0);
        OracleSim {
            mix,
            mean_interarrival_hours,
        }
    }

    /// Runs `horizon_hours` of simulated time under `alloc`, FIFO queue.
    pub fn run<A: Allocator>(&self, alloc: &A, horizon_hours: f64, seed: u64) -> SimReport {
        assert!(horizon_hours > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let arrival = Exp::new(1.0 / self.mean_interarrival_hours).expect("positive rate");
        let total_weight: f64 = self.mix.iter().map(|s| s.weight).sum();

        let mut idle = CubeSet::ALL;
        // (completion time, cubes to release) for every running job.
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
            releases.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            let next_release = releases.first().map(|r| r.0);
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
                let (_, cubes) = releases.remove(0);
                busy_cubes -= cubes.len();
                idle.extend(cubes);
                completed += 1;
            } else {
                // Arrival: draw a spec from the mix.
                let mut pick = rng.random_range(0.0..total_weight);
                let spec = self
                    .mix
                    .iter()
                    .find(|s| {
                        pick -= s.weight;
                        pick <= 0.0
                    })
                    .unwrap_or(self.mix.last().expect("non-empty"));
                let dur = Exp::new(1.0 / spec.mean_hours)
                    .expect("positive rate")
                    .sample(&mut rng);
                if !alloc.supports(spec.shape) {
                    unsupported += 1;
                } else {
                    queue.push_back(PendingJob {
                        shape: spec.shape,
                        duration: dur,
                        arrived: now,
                    });
                }
                next_arrival = now + arrival.sample(&mut rng);
            }

            // Drain the queue with backfilling: oldest-first, but jobs
            // that fit run even when an older, larger job is still
            // waiting — the standard discipline of production gang
            // schedulers (and necessary for the paper's >98% utilization).
            let mut i = 0;
            while i < queue.len() {
                let job_shape = queue[i].shape;
                match alloc.allocate(job_shape, idle) {
                    Some(cubes) => {
                        let job = queue.remove(i).expect("index in range");
                        for &c in &cubes {
                            idle.remove(c);
                        }
                        busy_cubes += cubes.len();
                        total_wait += now - job.arrived;
                        waits += 1;
                        releases.push((now + job.duration, cubes));
                    }
                    None => {
                        if idle.len() >= job_shape.cube_count() {
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
        let alloc = Contiguous;
        let mut rng = StdRng::seed_from_u64(seed);
        let arrival = Exp::new(1.0 / self.mean_interarrival_hours).expect("positive rate");
        let total_weight: f64 = self.mix.iter().map(|s| s.weight).sum();

        let mut idle = CubeSet::ALL;
        // Running jobs: (completion time, cubes, shape).
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
                let mut pick = rng.random_range(0.0..total_weight);
                let spec = self
                    .mix
                    .iter()
                    .find(|s| {
                        pick -= s.weight;
                        pick <= 0.0
                    })
                    .unwrap_or(self.mix.last().expect("non-empty"));
                let dur = Exp::new(1.0 / spec.mean_hours)
                    .expect("positive rate")
                    .sample(&mut rng);
                if !alloc.supports(spec.shape) {
                    unsupported += 1;
                } else {
                    queue.push_back(PendingJob {
                        shape: spec.shape,
                        duration: dur,
                        arrived: now,
                    });
                }
                next_arrival = now + arrival.sample(&mut rng);
            }

            // Backfill, defragmenting on stalls.
            let mut i = 0;
            while i < queue.len() {
                let job_shape = queue[i].shape;
                let placed = match alloc.allocate(job_shape, idle) {
                    Some(cubes) => Some(cubes),
                    None if idle.len() >= job_shape.cube_count() => {
                        frag_stalls += 1;
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
                            alloc.allocate(job_shape, idle)
                        } else {
                            None
                        }
                    }
                    None => None,
                };
                match placed {
                    Some(cubes) => {
                        let job = queue.remove(i).expect("index in range");
                        for &c in &cubes {
                            idle.remove(c);
                        }
                        busy_cubes += cubes.len();
                        total_wait += now - job.arrived;
                        waits += 1;
                        running.push((now + job.duration, cubes, job.shape));
                    }
                    None => i += 1,
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
