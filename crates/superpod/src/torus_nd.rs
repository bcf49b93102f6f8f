//! Higher-dimensional tori — the §6 future-work use case.
//!
//! "For ML, a different use case is supporting higher-dimensional
//! topologies such as a 4D or 6D torus that has a larger bisection
//! bandwidth, lower latency and greater scalability compared to a 3D
//! torus." The lightwave fabric makes this a wiring-plan change, not a
//! forklift: more OCS groups, one per dimension.
//!
//! This module generalizes the slice torus to N dimensions and quantifies
//! exactly those claims: bisection, diameter, mean distance, per-chip
//! link count, and the OCS count a pod-scale fabric would need.

use crate::geometry::{CUBE_EDGE, LINKS_PER_FACE};
use serde::{Deserialize, Serialize};

/// An N-dimensional torus of chips.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TorusNd {
    dims: Vec<usize>,
}

impl TorusNd {
    /// Builds an N-dimensional torus.
    ///
    /// # Panics
    /// Panics unless every dimension is ≥ 2 and there is at least one.
    pub fn new(dims: Vec<usize>) -> TorusNd {
        assert!(!dims.is_empty(), "need at least one dimension");
        assert!(dims.iter().all(|&d| d >= 2), "dimensions must be ≥ 2");
        TorusNd { dims }
    }

    /// The most-balanced N-dimensional torus with (at least) `chips` chips:
    /// every dimension gets `chips^(1/n)` rounded to an integer grid.
    ///
    /// # Panics
    /// Panics if `chips` is not a perfect n-th power of an integer ≥ 2.
    pub fn balanced(chips: usize, n: usize) -> TorusNd {
        assert!(n >= 1);
        let edge = (chips as f64).powf(1.0 / n as f64).round() as usize;
        assert!(
            edge.pow(n as u32) == chips && edge >= 2,
            "{chips} chips do not form a balanced {n}D torus"
        );
        TorusNd::new(vec![edge; n])
    }

    /// Dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Chip count.
    pub fn chips(&self) -> usize {
        self.dims.iter().product()
    }

    /// Links per chip (one per dimension direction).
    pub fn links_per_chip(&self) -> usize {
        2 * self.dims.len()
    }

    /// Bisection width in links: cutting the largest dimension severs
    /// `2 · chips / max_dim` links (forward + wraparound).
    pub fn bisection_links(&self) -> usize {
        let max_dim = *self.dims.iter().max().expect("non-empty");
        2 * self.chips() / max_dim
    }

    /// Diameter: sum of half-ring lengths.
    pub fn diameter(&self) -> usize {
        diameter(&self.dims)
    }

    /// Exact mean shortest-path distance.
    pub fn mean_distance(&self) -> f64 {
        mean_distance(&self.dims)
    }

    /// OCS groups a pod-scale fabric needs for this dimensionality with
    /// 4-chip-edge electrical cubes: one group of [`LINKS_PER_FACE`]
    /// switches per dimension whose extent exceeds one cube.
    ///
    /// (The 3D production pod: 3 dimensions × 16 = 48 OCSes.)
    pub fn ocs_groups(&self) -> usize {
        self.dims.iter().filter(|&&d| d > CUBE_EDGE).count() * LINKS_PER_FACE
    }
}

/// Diameter of a torus with these ring lengths: a ring of length L is
/// L/2 hops across, and dimensions add.
pub(crate) fn diameter(dims: &[usize]) -> usize {
    dims.iter().map(|&l| l / 2).sum()
}

/// Exact mean shortest-path distance of a torus with these ring lengths,
/// over all ordered chip pairs (a chip with itself included): per ring,
/// L/4 for even L and (L² − 1)/4L for odd L, and dimensions add.
pub(crate) fn mean_distance(dims: &[usize]) -> f64 {
    dims.iter()
        .map(|&l| {
            if l % 2 == 0 {
                l as f64 / 4.0
            } else {
                (l * l - 1) as f64 / (4.0 * l as f64)
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_organizations_of_4096_chips() {
        // 4096 = 16³ = 8⁴ = 4⁶: all three §6 organizations exist.
        assert_eq!(TorusNd::balanced(4096, 3).dims(), &[16, 16, 16]);
        assert_eq!(TorusNd::balanced(4096, 4).dims(), &[8, 8, 8, 8]);
        assert_eq!(TorusNd::balanced(4096, 6).dims(), &[4, 4, 4, 4, 4, 4]);
    }

    #[test]
    fn higher_dimensions_raise_bisection() {
        // §6: "a 4D or 6D torus ... has a larger bisection bandwidth".
        let t3 = TorusNd::balanced(4096, 3);
        let t4 = TorusNd::balanced(4096, 4);
        let t6 = TorusNd::balanced(4096, 6);
        assert_eq!(t3.bisection_links(), 512);
        assert_eq!(t4.bisection_links(), 1024);
        assert_eq!(t6.bisection_links(), 2048);
        assert!(t4.bisection_links() > t3.bisection_links());
        assert!(t6.bisection_links() > t4.bisection_links());
    }

    #[test]
    fn higher_dimensions_cut_latency() {
        // §6: "... lower latency".
        let t3 = TorusNd::balanced(4096, 3);
        let t4 = TorusNd::balanced(4096, 4);
        let t6 = TorusNd::balanced(4096, 6);
        assert_eq!(t3.diameter(), 24);
        assert_eq!(t4.diameter(), 16);
        assert_eq!(t6.diameter(), 12);
        assert!(t6.mean_distance() < t4.mean_distance());
        assert!(t4.mean_distance() < t3.mean_distance());
    }

    #[test]
    fn the_cost_is_links_and_switches() {
        // The trade: every extra dimension costs 2 more ICI ports per chip
        // and another group of 16 OCSes.
        let t3 = TorusNd::balanced(4096, 3);
        let t6 = TorusNd::balanced(4096, 6);
        assert_eq!(t3.links_per_chip(), 6);
        assert_eq!(t6.links_per_chip(), 12);
        assert_eq!(t3.ocs_groups(), 48, "the production 3D pod");
        // A balanced 6D pod of 4-chip edges closes every ring inside the
        // rack: zero optical groups (it simply cannot grow), whereas an
        // 8×8×8×8 4D pod needs 64 switches.
        assert_eq!(t6.ocs_groups(), 0);
        assert_eq!(TorusNd::balanced(4096, 4).ocs_groups(), 64);
    }

    #[test]
    fn closed_forms_match_enumeration_on_odd_and_even_rings() {
        // Both tori read these two functions; hold them to a walk over
        // every ordered chip pair of a torus with odd and even rings.
        let dims = [3usize, 4, 5, 2];
        let ring = |l: usize, a: usize, b: usize| a.abs_diff(b).min(l - a.abs_diff(b));
        let chips: usize = dims.iter().product();
        let coords = |mut i: usize| {
            dims.map(|l| {
                let c = i % l;
                i /= l;
                c
            })
        };
        let (mut total, mut longest) = (0usize, 0usize);
        for a in 0..chips {
            for b in 0..chips {
                let (ca, cb) = (coords(a), coords(b));
                let d: usize = (0..dims.len()).map(|k| ring(dims[k], ca[k], cb[k])).sum();
                total += d;
                longest = longest.max(d);
            }
        }
        let mean = total as f64 / (chips * chips) as f64;
        assert!((mean_distance(&dims) - mean).abs() < 1e-12, "{mean}");
        assert_eq!(diameter(&dims), longest);
    }

    #[test]
    #[should_panic(expected = "do not form a balanced")]
    fn unbalanced_chip_count_rejected() {
        let _ = TorusNd::balanced(4000, 3);
    }
}
