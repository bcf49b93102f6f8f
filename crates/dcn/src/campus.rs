//! Campus networks: topology engineering that follows service lifecycles.
//!
//! §1/§6: "campus networks that must support a range of cluster-to-cluster
//! communication patterns, shifting with the turnup and turndown of
//! services". This module simulates exactly that regime: services with
//! lifetimes create cluster-to-cluster demand, each epoch the topology is
//! re-engineered for the active set — *with the stability hint*, so only
//! the trunks that must move, move — and the result runs against a static
//! uniform mesh on the same hardware budget.

use crate::flowsim;
use crate::realize::MeshPlacement;
use crate::te::{engineer, require, TeError};
use crate::topology::Mesh;
use crate::traffic::TrafficMatrix;
use lightwave_telemetry::rollup::{PortPath, RollupTree};
use lightwave_units::Nanos;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};

/// A service: a long-lived cluster-to-cluster flow.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Service {
    /// Source cluster.
    src: usize,
    /// Destination cluster.
    dst: usize,
    /// Demand, Gb/s (bidirectional).
    gbps: f64,
    /// First epoch the service is live.
    start: usize,
    /// First epoch the service is gone.
    end: usize,
}

/// Per-epoch outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Live services.
    pub services: usize,
    /// Throughput on the engineered (tracking) topology.
    pub engineered_gbps: f64,
    /// Throughput on the static uniform mesh.
    pub static_gbps: f64,
    /// Trunk-circuits that moved this epoch.
    pub circuits_moved: usize,
    /// Trunk-circuits preserved from the previous epoch.
    pub circuits_preserved: usize,
}

/// Full simulation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampusReport {
    /// Per-epoch rows.
    pub epochs: Vec<EpochReport>,
}

impl CampusReport {
    /// Aggregate throughput gain of tracking TE over the static mesh.
    pub fn aggregate_gain(&self) -> f64 {
        let eng: f64 = self.epochs.iter().map(|e| e.engineered_gbps).sum();
        let stat: f64 = self.epochs.iter().map(|e| e.static_gbps).sum();
        eng / stat.max(1e-9)
    }

    /// Folds the per-epoch outcomes into the campus rollup tree under
    /// `pod`: throughput, churn, and preservation samples on the DCN
    /// pseudo-switch leaf `u32::MAX`, one leaf port per epoch, stamped
    /// `epoch × epoch_duration` in sim time. This is how the
    /// cluster-to-cluster TE layer reports through the same
    /// `campus_health.json` plane as the OCS/service producers.
    pub fn fold_into_rollup(&self, tree: &mut RollupTree, pod: u32, epoch_duration: Nanos) {
        let eng = tree.metric("te_engineered_gbps");
        let stat = tree.metric("te_static_gbps");
        let moved = tree.metric("te_circuits_moved");
        let kept = tree.metric("te_circuits_preserved");
        for e in &self.epochs {
            let at = Nanos(e.epoch as u64 * epoch_duration.0);
            let path = PortPath::new(pod, u32::MAX, e.epoch as u32);
            tree.ingest(eng, path, at, e.engineered_gbps);
            tree.ingest(stat, path, at, e.static_gbps);
            tree.ingest(moved, path, at, e.circuits_moved as f64);
            tree.ingest(kept, path, at, e.circuits_preserved as f64);
        }
    }

    /// Mean fraction of circuits preserved across epochs (excluding the
    /// first, which builds from scratch).
    pub fn mean_preserved_fraction(&self) -> f64 {
        let rows: Vec<&EpochReport> = self.epochs.iter().skip(1).collect();
        if rows.is_empty() {
            return 1.0;
        }
        rows.iter()
            .map(|e| {
                let total = e.circuits_preserved + e.circuits_moved;
                if total == 0 {
                    1.0
                } else {
                    e.circuits_preserved as f64 / total as f64
                }
            })
            .sum::<f64>()
            / rows.len() as f64
    }
}

/// The campus simulation.
#[derive(Debug, Clone, Copy)]
pub struct CampusSim {
    /// Clusters on the campus.
    pub clusters: usize,
    /// OCS uplinks per cluster.
    pub uplinks: usize,
    /// Capacity per trunk, Gb/s.
    pub trunk_gbps: f64,
    /// Background (always-on) demand per pair, Gb/s.
    pub background_gbps: f64,
}

impl CampusSim {
    /// A representative campus: 12 clusters, 22 uplinks each, 100G trunks.
    pub fn default_campus() -> CampusSim {
        CampusSim {
            clusters: 12,
            uplinks: 22,
            trunk_gbps: 100.0,
            background_gbps: 15.0,
        }
    }

    /// Generates a service schedule: Poisson arrivals, exponential
    /// lifetimes, random cluster pairs, heavy demands. Needs two clusters
    /// to pick a pair from.
    fn generate_services(&self, epochs: usize, seed: u64) -> Vec<Service> {
        let mut rng = StdRng::seed_from_u64(seed);
        // Constant parameter: a rate of 1/6 is finite and positive.
        #[allow(clippy::expect_used)]
        let lifetime = Exp::<f64>::new(1.0 / 6.0).expect("positive rate"); // mean 6 epochs
        let mut services = Vec::new();
        for epoch in 0..epochs {
            // ~2 new services per epoch.
            let arrivals = if rng.random_bool(0.8) { 2 } else { 1 };
            for _ in 0..arrivals {
                let src = rng.random_range(0..self.clusters);
                let mut dst = rng.random_range(0..self.clusters);
                while dst == src {
                    dst = rng.random_range(0..self.clusters);
                }
                let life = (lifetime.sample(&mut rng).ceil() as usize).max(1);
                services.push(Service {
                    src,
                    dst,
                    gbps: rng.random_range(150.0..500.0),
                    start: epoch,
                    end: epoch + life,
                });
            }
        }
        services
    }

    /// The demand matrix of one epoch.
    fn matrix_at(&self, services: &[Service], epoch: usize) -> TrafficMatrix {
        let mut demand = vec![vec![self.background_gbps; self.clusters]; self.clusters];
        for (i, row) in demand.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for s in services {
            if s.start <= epoch && epoch < s.end {
                demand[s.src][s.dst] += s.gbps;
                demand[s.dst][s.src] += s.gbps;
            }
        }
        TrafficMatrix::new(demand)
    }

    /// Runs `epochs` epochs of the campus lifecycle. Refused, before any
    /// service is drawn, unless there is at least one epoch, at least two
    /// clusters and a finite, non-negative background demand; and if
    /// [`uplinks`](CampusSim::uplinks) cannot reach every other cluster or
    /// [`trunk_gbps`](CampusSim::trunk_gbps) is not finite and positive.
    pub fn run(&self, epochs: usize, seed: u64) -> Result<CampusReport, TeError> {
        let background = self.background_gbps;
        require(epochs >= 1, "epochs", epochs as f64)?;
        require(self.clusters >= 2, "clusters", self.clusters as f64)?;
        let demand = background.is_finite() && background >= 0.0;
        require(demand, "background_gbps", background)?;
        let services = self.generate_services(epochs, seed);
        let static_mesh = Mesh::uniform(self.clusters, self.uplinks);
        let mut prev_placement: Option<MeshPlacement> = None;
        let mut rows = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let tm = self.matrix_at(&services, epoch);
            let live = services
                .iter()
                .filter(|s| s.start <= epoch && epoch < s.end)
                .count();
            let mesh = engineer(&tm, self.uplinks)?;
            let placement = MeshPlacement::place(&mesh, self.uplinks, prev_placement.as_ref())
                .map_err(TeError::Unplaceable)?;
            // Circuit-level churn accounting against the previous epoch.
            let (mut preserved, mut moved) = (0usize, 0usize);
            if let Some(prev) = &prev_placement {
                for (pair, legs) in &placement.trunks {
                    let old = prev.trunks.get(pair);
                    for leg in legs {
                        if old.is_some_and(|o| o.contains(leg)) {
                            preserved += 1;
                        } else {
                            moved += 1;
                        }
                    }
                }
            } else {
                moved = placement.circuit_count();
            }
            let engineered = flowsim::allocate(&mesh, &tm, self.trunk_gbps)?;
            let static_run = flowsim::allocate(&static_mesh, &tm, self.trunk_gbps)?;
            rows.push(EpochReport {
                epoch,
                services: live,
                engineered_gbps: engineered.throughput,
                static_gbps: static_run.throughput,
                circuits_moved: moved,
                circuits_preserved: preserved,
            });
            prev_placement = Some(placement);
        }
        Ok(CampusReport { epochs: rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracking_te_beats_static_in_aggregate() {
        let report = CampusSim::default_campus().run(30, 42).unwrap();
        let gain = report.aggregate_gain();
        assert!(
            gain > 1.03,
            "tracking TE should beat the static mesh over a service lifecycle: {gain:.3}"
        );
        // And never lose badly in any single epoch.
        for e in &report.epochs {
            assert!(
                e.engineered_gbps > 0.9 * e.static_gbps,
                "epoch {}: engineered {} vs static {}",
                e.epoch,
                e.engineered_gbps,
                e.static_gbps
            );
        }
    }

    #[test]
    fn churn_is_incremental_not_forklift() {
        let report = CampusSim::default_campus().run(30, 7).unwrap();
        let preserved = report.mean_preserved_fraction();
        assert!(
            preserved > 0.5,
            "epoch-to-epoch reconfiguration should preserve most circuits: {preserved:.2}"
        );
        // The first epoch builds everything.
        assert_eq!(report.epochs[0].circuits_preserved, 0);
        assert!(report.epochs[0].circuits_moved > 0);
    }

    #[test]
    fn service_matrix_is_consistent() {
        let sim = CampusSim::default_campus();
        let services = vec![Service {
            src: 1,
            dst: 4,
            gbps: 200.0,
            start: 2,
            end: 5,
        }];
        let before = sim.matrix_at(&services, 1);
        let during = sim.matrix_at(&services, 3);
        let after = sim.matrix_at(&services, 5);
        assert_eq!(before.demand(1, 4), sim.background_gbps);
        assert_eq!(during.demand(1, 4), sim.background_gbps + 200.0);
        assert_eq!(during.demand(4, 1), sim.background_gbps + 200.0);
        assert_eq!(after.demand(1, 4), sim.background_gbps);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = CampusSim::default_campus().run(10, 3).unwrap();
        let b = CampusSim::default_campus().run(10, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn report_folds_into_the_campus_rollup() {
        let report = CampusSim::default_campus().run(10, 3).unwrap();
        let mut tree = RollupTree::new();
        report.fold_into_rollup(&mut tree, 2, Nanos::from_secs_f64(60.0));
        let moved = tree.metric("te_circuits_moved");
        assert_eq!(tree.pod_agg(2, moved).count, 10, "one sample per epoch");
        let total: usize = report.epochs.iter().map(|e| e.circuits_moved).sum();
        // Counts quantize exactly (micro-units of integer values).
        assert_eq!(tree.campus_agg(moved).sum_micros, total as i64 * 1_000_000);
        assert_eq!(tree.ports(), 10, "one leaf per epoch");
    }

    #[test]
    fn service_generation_has_churn() {
        let sim = CampusSim::default_campus();
        let services = sim.generate_services(20, 9);
        assert!(services.len() > 20, "roughly 2 arrivals per epoch");
        assert!(services.iter().all(|s| s.src != s.dst && s.end > s.start));
    }
}
