//! Flow-level evaluation: max-min-ish throughput over a mesh with direct
//! and two-hop transit routing.
//!
//! Spine-free fabrics route most traffic over the direct OCS trunk between
//! two ABs and spill the remainder over two-hop transit through a third AB
//! (Jupiter's non-shortest-path routing \[47\]). The allocator here does
//! exactly that: direct capacity first, then iterative water-filling of
//! residual demand over the best transit paths. Outputs: per-pair achieved
//! rate, total throughput, and a flow-completion-time proxy.

// Index loops below mirror the matrix math (i, j range over AB pairs
// across several parallel matrices); iterator forms obscure that.
#![allow(clippy::needless_range_loop)]

use crate::te::{require, TeError};
use crate::topology::Mesh;
use crate::traffic::TrafficMatrix;
use serde::{Deserialize, Serialize};

/// Result of a flow allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowReport {
    /// Achieved rate per pair, Gb/s.
    pub rate: Vec<Vec<f64>>,
    /// Total achieved throughput, Gb/s.
    pub throughput: f64,
    /// Total offered demand, Gb/s.
    pub offered: f64,
    /// Mean flow-completion-time proxy: the demand-weighted mean of
    /// `demand/rate` (time to drain one demand-unit at the achieved rate);
    /// lower is better. Unsatisfiable pairs are capped at `FCT_CAP`.
    pub mean_fct: f64,
}

/// Cap applied to the per-pair FCT proxy when a pair gets (almost) no rate.
pub(crate) const FCT_CAP: f64 = 100.0;

/// Allocates demand over `mesh` with `trunk_gbps` per trunk. Refused
/// unless `trunk_gbps` is finite and positive.
///
/// # Panics
/// Panics if the mesh and the matrix differ in AB count.
pub fn allocate(mesh: &Mesh, tm: &TrafficMatrix, trunk_gbps: f64) -> Result<FlowReport, TeError> {
    assert_eq!(mesh.n(), tm.n(), "mesh and matrix must agree on AB count");
    let positive = trunk_gbps.is_finite() && trunk_gbps > 0.0;
    require(positive, "trunk_gbps", trunk_gbps)?;
    let n = mesh.n();
    // Residual capacity per unordered pair link.
    let mut cap = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            cap[i][j] = mesh.trunks(i, j) as f64 * trunk_gbps;
        }
    }
    let mut rate = vec![vec![0.0f64; n]; n];
    let mut residual = vec![vec![0.0f64; n]; n];

    // Phase 1: direct. The pair's own trunks serve its demand first,
    // shared between the two directions.
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let want = tm.demand(i, j);
            // Each unordered link is full-duplex per direction: direction
            // i→j can use the full pair capacity.
            let got = want.min(cap[i][j]);
            rate[i][j] = got;
            residual[i][j] = want - got;
        }
    }
    // Deduct direct usage: the binding resource is the larger direction.
    for i in 0..n {
        for j in (i + 1)..n {
            let used = rate[i][j].max(rate[j][i]);
            cap[i][j] -= used;
            cap[j][i] = cap[i][j];
        }
    }

    // Phase 2: transit water-filling. Repeatedly grant each unsatisfied
    // demand a quantum along its best (max-bottleneck) two-hop path.
    let total_residual: f64 = residual.iter().flatten().sum();
    if total_residual > 1e-9 {
        let quantum = (total_residual / 256.0).max(1e-3);
        let mut progress = true;
        while progress {
            progress = false;
            for i in 0..n {
                for j in 0..n {
                    if i == j || residual[i][j] <= 1e-9 {
                        continue;
                    }
                    // Best transit k by bottleneck residual capacity.
                    let mut best: Option<(usize, f64)> = None;
                    for k in 0..n {
                        if k == i || k == j {
                            continue;
                        }
                        let b = cap[i][k].min(cap[k][j]);
                        match best {
                            Some((_, bb)) if bb >= b => {}
                            _ => best = Some((k, b)),
                        }
                    }
                    if let Some((k, b)) = best {
                        let grant = quantum.min(residual[i][j]).min(b);
                        if grant > 1e-9 {
                            rate[i][j] += grant;
                            residual[i][j] -= grant;
                            cap[i][k] -= grant;
                            cap[k][i] = cap[i][k];
                            cap[k][j] -= grant;
                            cap[j][k] = cap[k][j];
                            progress = true;
                        }
                    }
                }
            }
        }
    }

    let throughput: f64 = rate.iter().flatten().sum();
    let offered = tm.total();
    let mut fct_num = 0.0;
    let mut fct_den = 0.0;
    for i in 0..n {
        for j in 0..n {
            let d = tm.demand(i, j);
            if i == j || d <= 0.0 {
                continue;
            }
            let fct = if rate[i][j] > 1e-9 {
                (d / rate[i][j]).min(FCT_CAP)
            } else {
                FCT_CAP
            };
            fct_num += d * fct;
            fct_den += d;
        }
    }
    Ok(FlowReport {
        rate,
        throughput,
        offered,
        mean_fct: fct_num / fct_den.max(1e-12),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::te::engineer;

    #[test]
    fn underloaded_uniform_mesh_satisfies_everything() {
        let mesh = Mesh::uniform(8, 21); // 3 trunks per pair
        let tm = TrafficMatrix::uniform(8, 10.0); // well under 3×100G
        let r = allocate(&mesh, &tm, 100.0).unwrap();
        assert!((r.throughput - r.offered).abs() < 1e-6);
        assert!(
            (r.mean_fct - 1.0).abs() < 1e-6,
            "FCT = demand/rate = 1 when satisfied"
        );
    }

    #[test]
    fn transit_rescues_pairs_without_direct_capacity() {
        // Pair (0,1) has no direct trunks but both reach AB 2.
        let mut mesh = Mesh::empty(3, 4);
        mesh.set_trunks(0, 2, 2);
        mesh.set_trunks(1, 2, 2);
        let mut demand = vec![vec![0.0; 3]; 3];
        demand[0][1] = 50.0;
        let tm = TrafficMatrix::new(demand);
        let r = allocate(&mesh, &tm, 100.0).unwrap();
        assert!(
            (r.rate[0][1] - 50.0).abs() < 1e-6,
            "two-hop transit carries it: {}",
            r.rate[0][1]
        );
    }

    #[test]
    fn te_beats_uniform_on_skewed_traffic() {
        // The §4.2 claim: topology engineering buys ~30% throughput and
        // ~10% FCT on long-lived skewed matrices, versus a uniform mesh.
        // Load the fabric near capacity so routing efficiency matters:
        // transit burns two links per unit where direct burns one, so a
        // mesh whose trunks match the demand carries strictly more.
        let n = 16;
        let uplinks = 30;
        let tm = TrafficMatrix::hotspot(n, 40.0, 8, 30.0, 3);
        let uniform = allocate(&Mesh::uniform(n, uplinks), &tm, 100.0).unwrap();
        let engineered = allocate(&engineer(&tm, uplinks).unwrap(), &tm, 100.0).unwrap();
        let tput_gain = engineered.throughput / uniform.throughput;
        let fct_gain = (uniform.mean_fct - engineered.mean_fct) / uniform.mean_fct;
        assert!(
            tput_gain > 1.1,
            "TE throughput gain {tput_gain:.3} should be material"
        );
        assert!(
            fct_gain > 0.02,
            "TE FCT improvement {fct_gain:.3} should be positive"
        );
    }

    #[test]
    fn te_is_neutral_on_uniform_traffic() {
        let n = 12;
        let tm = TrafficMatrix::uniform(n, 12.0);
        let uniform = allocate(&Mesh::uniform(n, 22), &tm, 100.0).unwrap();
        let engineered = allocate(&engineer(&tm, 22).unwrap(), &tm, 100.0).unwrap();
        let ratio = engineered.throughput / uniform.throughput;
        assert!((0.95..1.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn throughput_never_exceeds_offered() {
        for seed in 0..4 {
            let tm = TrafficMatrix::gravity(10, 20.0, seed);
            let mesh = Mesh::uniform(10, 18);
            let r = allocate(&mesh, &tm, 100.0).unwrap();
            assert!(r.throughput <= r.offered + 1e-6);
            assert!(r.rate.iter().flatten().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn overload_degrades_gracefully() {
        let tm = TrafficMatrix::uniform(6, 1000.0); // hopeless overload
        let mesh = Mesh::uniform(6, 10);
        let r = allocate(&mesh, &tm, 100.0).unwrap();
        assert!(r.throughput < r.offered);
        assert!(r.throughput > 0.0);
        assert!(r.mean_fct > 1.0);
    }
}
