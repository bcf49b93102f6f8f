//! Traffic-matrix generators.
//!
//! Topology engineering pays off on *long-lived, skewed* patterns (§2.1:
//! "optimization of inter-AB bandwidth when there is an increase in
//! long-lived traffic demand between a particular set of ABs"). These
//! generators produce the regimes the evaluation sweeps: uniform
//! (TE-neutral), gravity (mildly skewed), and hotspot (strongly skewed).

use crate::topology::not_pairwise;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// A demand matrix in Gb/s between AB pairs (diagonal is zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    /// Square, at least 2×2, with a zero diagonal and finite non-negative
    /// entries; a document that is not is refused when it is read.
    #[serde(with = "demand_rows")]
    demand: Vec<Vec<f64>>,
}

/// Why `demand` is no demand matrix (the first reason found).
fn malformed(demand: &[Vec<f64>]) -> Option<&'static str> {
    not_pairwise(demand).or_else(|| {
        demand
            .iter()
            .flatten()
            .any(|d| !(d.is_finite() && *d >= 0.0))
            .then_some("demand must be finite and non-negative")
    })
}

/// The demand matrix read from a document only if [`TrafficMatrix::new`]
/// would take it.
mod demand_rows {
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub(crate) fn serialize<S: Serializer>(rows: &[Vec<f64>], ser: S) -> Result<S::Ok, S::Error> {
        rows.serialize(ser)
    }

    pub(crate) fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Vec<Vec<f64>>, D::Error> {
        let rows: Vec<Vec<f64>> = Vec::deserialize(de)?;
        match super::malformed(&rows) {
            Some(why) => Err(D::Error::custom(why)),
            None => Ok(rows),
        }
    }
}

impl TrafficMatrix {
    /// Builds from a raw matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square with a zero diagonal and
    /// non-negative entries.
    pub fn new(demand: Vec<Vec<f64>>) -> TrafficMatrix {
        let why = malformed(&demand);
        assert!(why.is_none(), "{}", why.unwrap_or_default());
        TrafficMatrix { demand }
    }

    /// Uniform all-to-all demand.
    pub fn uniform(n: usize, per_pair_gbps: f64) -> TrafficMatrix {
        let mut demand = vec![vec![per_pair_gbps; n]; n];
        for (i, row) in demand.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        TrafficMatrix::new(demand)
    }

    /// Gravity model: each AB has a log-normal "mass"; demand i→j ∝
    /// mass_i · mass_j, scaled so the mean pair demand is `mean_gbps`.
    pub fn gravity(n: usize, mean_gbps: f64, seed: u64) -> TrafficMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        // Constant parameters: σ = 0.8 is finite and positive.
        #[allow(clippy::expect_used)]
        let dist = LogNormal::new(0.0, 0.8).expect("σ is finite and positive");
        let mass: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mut demand = vec![vec![0.0; n]; n];
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    demand[i][j] = mass[i] * mass[j];
                    total += demand[i][j];
                }
            }
        }
        let scale = mean_gbps * (n * (n - 1)) as f64 / total;
        for row in &mut demand {
            for d in row.iter_mut() {
                *d *= scale;
            }
        }
        TrafficMatrix::new(demand)
    }

    /// Hotspot model: a uniform floor plus `hot_pairs` randomly chosen
    /// pairs carrying `hot_factor`× the floor (the long-lived elephant
    /// pattern TE exploits).
    pub fn hotspot(
        n: usize,
        floor_gbps: f64,
        hot_pairs: usize,
        hot_factor: f64,
        seed: u64,
    ) -> TrafficMatrix {
        assert!(hot_pairs <= n * (n - 1) / 2, "too many hot pairs");
        let mut tm = TrafficMatrix::uniform(n, floor_gbps);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < hot_pairs {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            if i < j {
                chosen.insert((i, j));
            }
        }
        for (i, j) in chosen {
            tm.demand[i][j] = floor_gbps * hot_factor;
            tm.demand[j][i] = floor_gbps * hot_factor;
        }
        tm
    }

    /// AB count.
    pub fn n(&self) -> usize {
        self.demand.len()
    }

    /// Demand i → j.
    pub fn demand(&self, i: usize, j: usize) -> f64 {
        self.demand[i][j]
    }

    /// Total offered load.
    pub fn total(&self) -> f64 {
        self.demand.iter().flatten().sum()
    }

    /// Skew metric: max pair demand / mean pair demand.
    pub fn skew(&self) -> f64 {
        let n = self.n();
        let n_pairs = (n * (n - 1)) as f64;
        let mean = self.total() / n_pairs;
        let max = self.demand.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_has_no_skew() {
        let tm = TrafficMatrix::uniform(8, 10.0);
        assert!((tm.skew() - 1.0).abs() < 1e-9);
        assert!((tm.total() - 8.0 * 7.0 * 10.0).abs() < 1e-9);
    }

    #[test]
    fn gravity_is_skewed_but_mean_preserving() {
        let tm = TrafficMatrix::gravity(16, 10.0, 3);
        let mean = tm.total() / (16.0 * 15.0);
        assert!((mean - 10.0).abs() < 1e-9, "mean preserved: {mean}");
        assert!(
            tm.skew() > 2.0,
            "gravity should be visibly skewed: {}",
            tm.skew()
        );
    }

    #[test]
    fn hotspot_raises_selected_pairs() {
        let tm = TrafficMatrix::hotspot(16, 5.0, 6, 10.0, 1);
        // skew = hot/mean where mean is pulled up by the hot entries:
        // mean = (12·50 + 228·5)/240 = 7.25 → skew ≈ 6.9.
        assert!((5.0..10.0).contains(&tm.skew()), "skew {}", tm.skew());
        let hot = tm
            .demand
            .iter()
            .flatten()
            .filter(|&&d| d > 5.0 + 1e-9)
            .count();
        assert_eq!(hot, 12, "6 symmetric hot pairs = 12 entries");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            TrafficMatrix::gravity(8, 1.0, 7),
            TrafficMatrix::gravity(8, 1.0, 7)
        );
    }

    #[test]
    #[should_panic(expected = "diagonal must be zero")]
    fn bad_diagonal_rejected() {
        let _ = TrafficMatrix::new(vec![vec![1.0, 2.0], vec![2.0, 0.0]]);
    }
}
