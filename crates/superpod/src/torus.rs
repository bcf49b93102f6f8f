//! The chip-level 3D torus of a slice.
//!
//! A slice of shape `a×b×c` chips is a full 3D torus: chips within a cube
//! connect electrically (copper inside the rack, Appendix A), chips at
//! cube boundaries connect optically through the lightwave fabric, and the
//! wraparound of each dimension rides the same OCSes (opposing faces on
//! one switch). Routing is dimension-ordered, the standard deterministic
//! torus scheme ("the routing is deterministic and set by the slice
//! configuration", §4.2.1).

use crate::slice::SliceShape;
use crate::torus_nd;
use serde::{Deserialize, Serialize};

/// A chip coordinate in the slice torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Chip {
    /// Coordinates, each within the shape's chips per dimension.
    pub coords: [usize; 3],
}

/// The torus of one slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Torus {
    /// The slice shape.
    pub shape: SliceShape,
}

impl Torus {
    /// Wraps a shape.
    pub fn new(shape: SliceShape) -> Torus {
        Torus { shape }
    }

    /// Chip count.
    pub fn chips(&self) -> usize {
        self.shape.chip_count()
    }

    /// Validates a chip coordinate.
    pub fn contains(&self, chip: Chip) -> bool {
        chip.coords
            .iter()
            .zip(self.shape.chips.iter())
            .all(|(&c, &d)| c < d)
    }

    /// The neighbor of `chip` in direction `+1`/`-1` along `dim`, with
    /// torus wraparound.
    pub fn neighbor(&self, chip: Chip, dim: usize, forward: bool) -> Chip {
        assert!(dim < 3, "dimension out of range");
        assert!(self.contains(chip), "chip outside torus");
        let len = self.shape.chips[dim];
        let mut out = chip;
        out.coords[dim] = if forward {
            (chip.coords[dim] + 1) % len
        } else {
            (chip.coords[dim] + len - 1) % len
        };
        out
    }

    /// Torus (shortest-path) distance between two chips.
    pub fn distance(&self, a: Chip, b: Chip) -> usize {
        assert!(self.contains(a) && self.contains(b), "chips outside torus");
        (0..3)
            .map(|d| {
                let len = self.shape.chips[d];
                let diff = a.coords[d].abs_diff(b.coords[d]);
                diff.min(len - diff)
            })
            .sum()
    }

    /// Dimension-ordered route from `a` to `b`: the sequence of chips
    /// visited (excluding `a`, including `b`), taking the shorter way
    /// around each ring, X first, then Y, then Z.
    pub fn route(&self, a: Chip, b: Chip) -> Vec<Chip> {
        assert!(self.contains(a) && self.contains(b), "chips outside torus");
        let mut path = Vec::new();
        let mut cur = a;
        for d in 0..3 {
            let len = self.shape.chips[d];
            while cur.coords[d] != b.coords[d] {
                let fwd_dist = (b.coords[d] + len - cur.coords[d]) % len;
                let forward = fwd_dist <= len - fwd_dist;
                cur = self.neighbor(cur, d, forward);
                path.push(cur);
            }
        }
        path
    }

    /// Exact mean hop distance over all chip pairs — the latency proxy
    /// used when comparing slice shapes.
    pub fn mean_distance(&self) -> f64 {
        torus_nd::mean_distance(&self.shape.chips)
    }

    /// The diameter (max shortest-path distance).
    pub fn diameter(&self) -> usize {
        torus_nd::diameter(&self.shape.chips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus(a: usize, b: usize, c: usize) -> Torus {
        Torus::new(SliceShape::new(a, b, c).expect("valid shape"))
    }

    #[test]
    fn neighbors_wrap() {
        let t = torus(8, 4, 4);
        let chip = Chip { coords: [7, 0, 0] };
        assert_eq!(t.neighbor(chip, 0, true).coords, [0, 0, 0]);
        assert_eq!(t.neighbor(chip, 0, false).coords, [6, 0, 0]);
        let origin = Chip { coords: [0, 0, 0] };
        assert_eq!(t.neighbor(origin, 1, false).coords, [0, 3, 0]);
    }

    #[test]
    fn distance_uses_wraparound() {
        let t = torus(16, 16, 16);
        let a = Chip { coords: [0, 0, 0] };
        let b = Chip { coords: [15, 0, 0] };
        assert_eq!(t.distance(a, b), 1, "wrap is shorter than 15 hops");
        let c = Chip { coords: [8, 8, 8] };
        assert_eq!(t.distance(a, c), 24, "diameter-ish corner");
        assert_eq!(t.distance(a, a), 0);
    }

    #[test]
    fn route_is_shortest_and_dimension_ordered() {
        let t = torus(8, 8, 8);
        let a = Chip { coords: [1, 2, 3] };
        let b = Chip { coords: [6, 0, 3] };
        let path = t.route(a, b);
        assert_eq!(path.len(), t.distance(a, b));
        assert_eq!(*path.last().unwrap(), b);
        // X settles before Y moves.
        let first_y_move = path.iter().position(|c| c.coords[1] != a.coords[1]);
        if let Some(i) = first_y_move {
            assert!(path[i..].iter().all(|c| c.coords[0] == b.coords[0]));
        }
    }

    #[test]
    fn route_wraps_when_shorter() {
        let t = torus(16, 4, 4);
        let a = Chip { coords: [1, 0, 0] };
        let b = Chip { coords: [14, 0, 0] };
        let path = t.route(a, b);
        assert_eq!(path.len(), 3, "1→0→15→14 via wrap");
        assert_eq!(path[0].coords, [0, 0, 0]);
    }

    #[test]
    fn mean_distance_and_diameter() {
        let sym = torus(16, 16, 16);
        let skew = torus(4, 4, 256);
        assert_eq!(sym.diameter(), 24);
        assert_eq!(skew.diameter(), 132);
        assert!(sym.mean_distance() < skew.mean_distance());
        assert!((sym.mean_distance() - 12.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside torus")]
    fn out_of_range_chip_panics() {
        let t = torus(4, 4, 4);
        let _ = t.distance(Chip { coords: [4, 0, 0] }, Chip { coords: [0, 0, 0] });
    }
}
