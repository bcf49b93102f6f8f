//! Aggregation-block topologies.
//!
//! An aggregation block (AB) exposes a fixed number of uplink trunks. In a
//! spine-full Clos, all trunks climb to spine blocks; in a spine-free
//! fabric they land on OCSes that patch them directly to other ABs. The
//! logical inter-AB topology is then a *mesh* with an integer trunk count
//! per AB pair — uniform by default, demand-shaped under topology
//! engineering.

// Index loops below mirror the matrix math (i, j range over AB pairs
// across several parallel matrices); iterator forms obscure that.
#![allow(clippy::needless_range_loop)]

use serde::{Deserialize, Serialize};

/// Aggregation-block index.
pub(crate) type AbId = usize;

/// A logical inter-AB mesh: `trunks[i][j]` = number of trunks from AB i to
/// AB j (symmetric).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    uplinks_per_ab: usize,
    /// Square, at least 2×2, symmetric, with a zero diagonal; a document
    /// that is not is refused when it is read.
    #[serde(with = "trunk_rows")]
    trunks: Vec<Vec<usize>>,
}

/// Why `rows` is no matrix over AB pairs: fewer than two rows, a row of
/// another length, or a nonzero diagonal entry (the first found).
pub(crate) fn not_pairwise<T: Default + PartialEq>(rows: &[Vec<T>]) -> Option<&'static str> {
    let n = rows.len();
    if n < 2 {
        return Some("need at least two ABs");
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != n {
            return Some("matrix must be square");
        }
        if row[i] != T::default() {
            return Some("diagonal must be zero");
        }
    }
    None
}

/// The trunk matrix read from a document only if it is one
/// [`Mesh::empty`] and [`Mesh::set_trunks`] could have built.
mod trunk_rows {
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub(crate) fn serialize<S: Serializer>(rows: &[Vec<usize>], ser: S) -> Result<S::Ok, S::Error> {
        rows.serialize(ser)
    }

    pub(crate) fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<Vec<Vec<usize>>, D::Error> {
        let rows: Vec<Vec<usize>> = Vec::deserialize(de)?;
        let asymmetric = || (0..rows.len()).any(|i| (0..i).any(|j| rows[i][j] != rows[j][i]));
        match super::not_pairwise(&rows) {
            Some(why) => Err(D::Error::custom(why)),
            None if asymmetric() => Err(D::Error::custom("trunk counts must be symmetric")),
            None => Ok(rows),
        }
    }
}

impl Mesh {
    /// An empty mesh over `n` ABs with `uplinks_per_ab` trunks each.
    pub fn empty(n: usize, uplinks_per_ab: usize) -> Mesh {
        assert!(n >= 2, "a mesh needs at least two ABs");
        Mesh {
            uplinks_per_ab,
            trunks: vec![vec![0; n]; n],
        }
    }

    /// The canonical uniform mesh: uplinks spread as evenly as possible
    /// over the other `n−1` ABs. Every pair gets the same base trunk
    /// count; leftover budget is placed greedily on the pair whose two
    /// endpoints have the most headroom, keeping degrees balanced.
    pub fn uniform(n: usize, uplinks_per_ab: usize) -> Mesh {
        let mut mesh = Mesh::empty(n, uplinks_per_ab);
        let base = uplinks_per_ab / (n - 1);
        for i in 0..n {
            for j in (i + 1)..n {
                mesh.set_trunks(i, j, base);
            }
        }
        mesh.top_up(|mesh, i, j| (2 * uplinks_per_ab - mesh.degree(i) - mesh.degree(j)) as f64);
        mesh
    }

    /// Adds trunks one at a time until no pair has budget left at both
    /// ends, each to the pair with the highest `score` — on a tie the
    /// first in `(i, j)` order. [`Mesh::uniform`] scores a pair by its
    /// endpoints' headroom, topology engineering by its demand.
    pub(crate) fn top_up(&mut self, score: impl Fn(&Mesh, AbId, AbId) -> f64) {
        let n = self.n();
        loop {
            let mut best: Option<(AbId, AbId, f64)> = None;
            for i in 0..n {
                if self.degree(i) >= self.uplinks_per_ab {
                    continue;
                }
                for j in (i + 1)..n {
                    if self.degree(j) >= self.uplinks_per_ab {
                        continue;
                    }
                    let s = score(self, i, j);
                    match best {
                        Some((_, _, bs)) if bs >= s => {}
                        _ => best = Some((i, j, s)),
                    }
                }
            }
            let Some((i, j, _)) = best else { return };
            let t = self.trunks(i, j);
            self.set_trunks(i, j, t + 1);
        }
    }

    /// Number of ABs.
    pub fn n(&self) -> usize {
        self.trunks.len()
    }

    /// Radix budget per AB.
    pub fn uplinks_per_ab(&self) -> usize {
        self.uplinks_per_ab
    }

    /// Trunk count between two ABs.
    pub fn trunks(&self, i: AbId, j: AbId) -> usize {
        self.trunks[i][j]
    }

    /// Sets the trunk count of a pair (symmetric).
    ///
    /// # Panics
    /// Panics on `i == j`.
    pub(crate) fn set_trunks(&mut self, i: AbId, j: AbId, t: usize) {
        assert!(i != j, "no self-trunks");
        self.trunks[i][j] = t;
        self.trunks[j][i] = t;
    }

    /// Total trunks used by AB `i`.
    pub fn degree(&self, i: AbId) -> usize {
        self.trunks[i].iter().sum()
    }

    /// Whether every AB respects its radix budget.
    pub fn within_budget(&self) -> bool {
        (0..self.n()).all(|i| self.degree(i) <= self.uplinks_per_ab)
    }

    /// Whether the mesh is connected (every AB reaches every other over
    /// trunks ≥ 1), required for transit routing.
    pub fn connected(&self) -> bool {
        let n = self.n();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if !seen[j] && self.trunks[i][j] > 0 {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_mesh_is_balanced_and_legal() {
        let mesh = Mesh::uniform(16, 60); // 60 uplinks over 15 peers = 4 each
        for i in 0..16 {
            assert_eq!(mesh.degree(i), 60);
            for j in 0..16 {
                if i != j {
                    assert_eq!(mesh.trunks(i, j), 4);
                }
            }
        }
        assert!(mesh.within_budget());
        assert!(mesh.connected());
    }

    #[test]
    fn uniform_mesh_handles_remainders() {
        let mesh = Mesh::uniform(8, 10); // 10 over 7 peers: 1 or 2 each
        for i in 0..8 {
            assert!(mesh.degree(i) <= 10);
            assert!(mesh.degree(i) >= 8, "degree {} at AB {i}", mesh.degree(i));
        }
        assert!(mesh.connected());
    }

    #[test]
    fn uniform_leftovers_go_to_the_first_pairs() {
        // 5 uplinks over 4 peers: one trunk each and one left over per AB.
        // Every pair ties on headroom, so (0, 1) takes the first leftover,
        // (2, 3) the next, and AB 4 has no partner left.
        let mesh = Mesh::uniform(5, 5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                let doubled = [(0, 1), (2, 3)].contains(&(i, j));
                assert_eq!(mesh.trunks(i, j), 1 + usize::from(doubled), "({i}, {j})");
            }
        }
        assert_eq!(mesh.degree(4), 4);
    }

    #[test]
    fn set_trunks_is_symmetric() {
        let mut mesh = Mesh::empty(4, 12);
        mesh.set_trunks(0, 3, 5);
        assert_eq!(mesh.trunks(3, 0), 5);
    }

    #[test]
    fn disconnection_is_detected() {
        let mut mesh = Mesh::empty(4, 4);
        mesh.set_trunks(0, 1, 2);
        mesh.set_trunks(2, 3, 2);
        assert!(!mesh.connected());
        mesh.set_trunks(1, 2, 1);
        assert!(mesh.connected());
    }

    #[test]
    #[should_panic(expected = "no self-trunks")]
    fn self_trunks_rejected() {
        Mesh::empty(4, 4).set_trunks(2, 2, 1);
    }
}
