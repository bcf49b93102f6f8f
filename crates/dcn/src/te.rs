//! Topology engineering: shape the mesh to the demand.
//!
//! The solver allocates each AB's trunk budget across peers proportionally
//! to (symmetrized) forecast demand, with largest-remainder rounding, a
//! 1-trunk connectivity floor so transit routing always works, and a
//! repair pass that enforces per-AB radix budgets. This is the spirit of
//! Jupiter's topology engineering \[47\]: direct capacity follows long-lived
//! demand, and what cannot go direct rides two-hop transit.

// Index loops below mirror the matrix math (i, j range over AB pairs
// across several parallel matrices); iterator forms obscure that.
#![allow(clippy::needless_range_loop)]

use crate::realize::RealizeError;
use crate::topology::Mesh;
use crate::traffic::TrafficMatrix;

/// Why a topology-engineering run is refused: no mesh reaches every
/// peer, a parameter is out of range, or the OCS layer cannot carry the
/// engineered mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TeError {
    /// The per-AB budget is below the connectivity floor of one trunk to
    /// every peer, which transit routing relies on.
    BudgetBelowConnectivityFloor {
        /// The budget asked for.
        uplinks_per_ab: usize,
        /// The other ABs each AB must reach.
        peers: usize,
    },
    /// A parameter out of its range, by name: `trunk_gbps` (finite and
    /// positive), `clusters` (at least two), `epochs` (at least one) or
    /// `background_gbps` (finite, not negative).
    OutOfRange {
        /// The parameter.
        field: &'static str,
        /// What it held (a count as `f64`).
        value: f64,
    },
    /// The engineered mesh could not be placed on the switches.
    Unplaceable(RealizeError),
}

impl std::fmt::Display for TeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeError::BudgetBelowConnectivityFloor {
                uplinks_per_ab,
                peers,
            } => write!(
                f,
                "{uplinks_per_ab} uplinks per AB cannot reach {peers} peers: \
                 the connectivity floor is one trunk each"
            ),
            TeError::OutOfRange { field, value } => {
                write!(f, "`{field}` is out of range: {value}")
            }
            TeError::Unplaceable(e) => write!(f, "placement: {e}"),
        }
    }
}

impl std::error::Error for TeError {}

/// [`TeError::OutOfRange`] naming `field` and its `value`, unless `ok`.
pub(crate) fn require(ok: bool, field: &'static str, value: f64) -> Result<(), TeError> {
    ok.then_some(()).ok_or(TeError::OutOfRange { field, value })
}

/// Builds a demand-proportional mesh.
///
/// Every AB pair gets at least one trunk (the connectivity floor), and
/// each AB's remaining budget is split across peers by demand share. A
/// budget below the floor (`uplinks_per_ab < n−1`) is refused.
pub fn engineer(tm: &TrafficMatrix, uplinks_per_ab: usize) -> Result<Mesh, TeError> {
    let n = tm.n();
    if uplinks_per_ab < n - 1 {
        return Err(TeError::BudgetBelowConnectivityFloor {
            uplinks_per_ab,
            peers: n - 1,
        });
    }
    let mut mesh = Mesh::empty(n, uplinks_per_ab);

    // Symmetric demand per unordered pair.
    let pair_demand = |i: usize, j: usize| tm.demand(i, j) + tm.demand(j, i);

    // Ideal (fractional) trunks per pair from each endpoint's budget:
    // proportional to demand share, floored at 1.
    // Work per-AB, then reconcile pairs by taking the min of the two
    // endpoints' wishes (a trunk consumes budget at both ends).
    let mut wish = vec![vec![0usize; n]; n];
    for i in 0..n {
        let total: f64 = (0..n).filter(|&j| j != i).map(|j| pair_demand(i, j)).sum();
        let spare = uplinks_per_ab - (n - 1);
        // Largest-remainder apportionment of the spare trunks.
        let mut alloc: Vec<(usize, usize, f64)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let frac = if total > 0.0 {
                    pair_demand(i, j) / total * spare as f64
                } else {
                    spare as f64 / (n - 1) as f64
                };
                (j, frac.floor() as usize, frac - frac.floor())
            })
            .collect();
        let used: usize = alloc.iter().map(|a| a.1).sum();
        alloc.sort_by(|a, b| b.2.total_cmp(&a.2));
        for a in alloc.iter_mut().take(spare.saturating_sub(used)) {
            a.1 += 1; // the largest remainders take what is left
        }
        for (j, extra, _) in alloc {
            wish[i][j] = 1 + extra; // the floor plus the demand share
        }
    }

    for i in 0..n {
        for j in (i + 1)..n {
            mesh.set_trunks(i, j, wish[i][j].min(wish[j][i]));
        }
    }
    debug_assert!(mesh.within_budget(), "reconciliation must respect budgets");

    // Reclaim budget stranded by min-reconciliation: the highest-demand
    // pair whose both endpoints have spare budget gets the next trunk.
    mesh.top_up(|_, i, j| pair_demand(i, j));
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_demand_yields_uniformish_mesh() {
        let tm = TrafficMatrix::uniform(8, 10.0);
        let mesh = engineer(&tm, 21).unwrap(); // 3 per peer
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    assert!(
                        (2..=4).contains(&mesh.trunks(i, j)),
                        "trunks({i},{j}) = {}",
                        mesh.trunks(i, j)
                    );
                }
            }
        }
        assert!(mesh.connected());
        assert!(mesh.within_budget());
    }

    #[test]
    fn hot_pairs_get_more_trunks() {
        let tm = TrafficMatrix::hotspot(8, 2.0, 3, 20.0, 5);
        let mesh = engineer(&tm, 28).unwrap();
        // Find a hot pair and a cold pair.
        let mut hot_trunks = 0;
        let mut cold_trunks = usize::MAX;
        for i in 0..8 {
            for j in (i + 1)..8 {
                if tm.demand(i, j) > 2.0 + 1e-9 {
                    hot_trunks = hot_trunks.max(mesh.trunks(i, j));
                } else {
                    cold_trunks = cold_trunks.min(mesh.trunks(i, j));
                }
            }
        }
        assert!(
            hot_trunks >= cold_trunks + 2,
            "hot pairs ({hot_trunks}) should clearly out-trunk cold ones ({cold_trunks})"
        );
    }

    #[test]
    fn connectivity_floor_holds_under_extreme_skew() {
        // One pair hogs everything; every pair still gets ≥ 1 trunk.
        let mut demand = vec![vec![0.0; 6]; 6];
        demand[0][1] = 1000.0;
        demand[1][0] = 1000.0;
        // Tiny background so totals are non-zero.
        for i in 0..6 {
            for j in 0..6 {
                if i != j && demand[i][j] == 0.0 {
                    demand[i][j] = 0.001;
                }
            }
        }
        let tm = TrafficMatrix::new(demand);
        let mesh = engineer(&tm, 10).unwrap();
        assert!(mesh.connected());
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    assert!(mesh.trunks(i, j) >= 1, "floor violated at ({i},{j})");
                }
            }
        }
        assert!(
            mesh.trunks(0, 1) >= 4,
            "the elephant pair gets the spare budget"
        );
    }

    #[test]
    fn budgets_always_respected() {
        for seed in 0..5 {
            let tm = TrafficMatrix::gravity(12, 10.0, seed);
            let mesh = engineer(&tm, 22).unwrap();
            assert!(mesh.within_budget(), "seed {seed}");
            assert!(mesh.connected(), "seed {seed}");
        }
    }

    #[test]
    fn insufficient_budget_rejected() {
        let tm = TrafficMatrix::uniform(10, 1.0);
        let refused = TeError::BudgetBelowConnectivityFloor {
            uplinks_per_ab: 8,
            peers: 9,
        };
        assert_eq!(engineer(&tm, 8), Err(refused));
        assert!(refused.to_string().contains("connectivity floor"));
        assert!(engineer(&tm, 9).is_ok());
    }
}
