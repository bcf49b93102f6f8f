//! Slice shapes and cube assignments.
//!
//! A *slice* is a set of cubes composed into a 3D torus of shape
//! `a×b×c` chips (§4.2.1): "slice topologies ranging from 4×4×256 to
//! 16×16×16 can be configured with the minimum increment of four set by
//! the size of the elemental 4×4×4 cube" — and beyond the full-pod
//! examples, any product of multiples of 4 that fits the pod.
//!
//! Cubes need **not** be physically contiguous (§4.2.4): the OCS wiring
//! lets any set of idle cubes take any logical position in the slice grid.

use crate::geometry::{CubeId, CubeSet, Dim, CUBE_EDGE, POD_CUBES};
use crate::wiring::CubeHop;
use serde::{Deserialize, Serialize};

/// A slice shape in chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SliceShape {
    /// Chips along each dimension; each a positive multiple of 4.
    pub chips: [usize; 3],
}

/// Shape validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShapeError {
    /// A dimension is zero or not a multiple of the cube edge.
    BadDimension(usize),
    /// The shape needs more cubes than a pod holds.
    TooLarge {
        /// Cubes required (`usize::MAX` when the count does not fit).
        cubes: usize,
    },
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::BadDimension(d) => {
                write!(
                    f,
                    "dimension {d} must be a positive multiple of {CUBE_EDGE}"
                )
            }
            ShapeError::TooLarge { cubes } => {
                write!(f, "shape needs {cubes} cubes; a pod has {POD_CUBES}")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

impl SliceShape {
    /// Validates and constructs a shape.
    pub fn new(a: usize, b: usize, c: usize) -> Result<SliceShape, ShapeError> {
        let shape = SliceShape { chips: [a, b, c] };
        shape.check()?;
        Ok(shape)
    }

    /// The checks [`SliceShape::new`] makes, for a shape built any other
    /// way: the field is public and the type deserializes.
    pub(crate) fn check(&self) -> Result<(), ShapeError> {
        for &d in &self.chips {
            if d == 0 || d % CUBE_EDGE != 0 {
                return Err(ShapeError::BadDimension(d));
            }
        }
        // Saturating: the dimensions may come from outside the program,
        // and their product need not fit the type.
        let [x, y, z] = self.cube_grid();
        let cubes = x.saturating_mul(y).saturating_mul(z);
        if cubes > POD_CUBES {
            return Err(ShapeError::TooLarge { cubes });
        }
        Ok(())
    }

    /// Total chips.
    pub fn chip_count(&self) -> usize {
        self.chips.iter().product()
    }

    /// Cube-grid dimensions (chips / 4 per dimension).
    pub fn cube_grid(&self) -> [usize; 3] {
        [
            self.chips[0] / CUBE_EDGE,
            self.chips[1] / CUBE_EDGE,
            self.chips[2] / CUBE_EDGE,
        ]
    }

    /// Cubes required.
    pub fn cube_count(&self) -> usize {
        self.cube_grid().iter().product()
    }

    /// Chip-level bisection width: the number of chip-links crossing the
    /// narrowest bisecting cut of the torus (wrap links double it).
    pub fn bisection_links(&self) -> usize {
        let [a, b, c] = self.chips;
        // Cutting dimension X severs 2·b·c links (forward + wrap), etc.
        // For a 2-chip dimension forward and wrap coincide; ignore that
        // corner (all real slices have ≥ 4 chips per dimension).
        2 * [b * c, a * c, a * b].into_iter().min().expect("non-empty")
    }

    /// All valid shapes with exactly `chips` chips (e.g. 4096 for the
    /// full pod), in lexicographic order. Useful for shape search.
    pub fn enumerate_with_chips(chips: usize) -> Vec<SliceShape> {
        let mut out = Vec::new();
        let max = chips / (CUBE_EDGE * CUBE_EDGE);
        let mut a = CUBE_EDGE;
        while a <= max.max(CUBE_EDGE) && a <= chips {
            if chips.is_multiple_of(a) {
                let rest = chips / a;
                let mut b = CUBE_EDGE;
                while b <= rest {
                    if rest.is_multiple_of(b) {
                        let c = rest / b;
                        if let Ok(shape) = SliceShape::new(a, b, c) {
                            out.push(shape);
                        }
                    }
                    b += CUBE_EDGE;
                }
            }
            a += CUBE_EDGE;
        }
        out
    }
}

/// A slice: a shape plus the physical cubes filling its logical grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slice {
    /// The shape.
    pub shape: SliceShape,
    /// Physical cube at each logical grid position, row-major with the
    /// first dimension fastest.
    pub cubes: Vec<CubeId>,
}

/// Slice construction failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SliceError {
    /// The shape is one [`SliceShape::new`] refuses.
    Shape(ShapeError),
    /// Wrong number of cubes for the shape.
    WrongCubeCount {
        /// Cubes provided.
        got: usize,
        /// Cubes needed.
        need: usize,
    },
    /// A cube appears twice.
    DuplicateCube(CubeId),
    /// A cube id is out of pod range.
    BadCube(CubeId),
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::Shape(e) => write!(f, "shape: {e}"),
            SliceError::WrongCubeCount { got, need } => {
                write!(f, "shape needs {need} cubes, got {got}")
            }
            SliceError::DuplicateCube(c) => write!(f, "cube {c} assigned twice"),
            SliceError::BadCube(c) => write!(f, "cube {c} outside the pod"),
        }
    }
}

impl std::error::Error for SliceError {}

impl Slice {
    /// Builds a slice from a shape and cube assignment.
    pub fn new(shape: SliceShape, cubes: Vec<CubeId>) -> Result<Slice, SliceError> {
        let slice = Slice { shape, cubes };
        slice.check()?;
        Ok(slice)
    }

    /// The checks [`Slice::new`] makes, for a slice built any other way
    /// (the fields are public and the type deserializes): the shape's own,
    /// then the count, then each cube in order — the first offender is
    /// the error.
    pub(crate) fn check(&self) -> Result<(), SliceError> {
        self.shape.check().map_err(SliceError::Shape)?;
        let need = self.shape.cube_count();
        if self.cubes.len() != need {
            return Err(SliceError::WrongCubeCount {
                got: self.cubes.len(),
                need,
            });
        }
        let mut seen = CubeSet::EMPTY;
        for &c in &self.cubes {
            if c as usize >= POD_CUBES {
                return Err(SliceError::BadCube(c));
            }
            if !seen.insert(c) {
                return Err(SliceError::DuplicateCube(c));
            }
        }
        Ok(())
    }

    /// The cube at logical grid position `(i, j, k)`.
    pub fn cube_at(&self, i: usize, j: usize, k: usize) -> CubeId {
        let [p, q, _] = self.shape.cube_grid();
        self.cubes[i + p * (j + q * k)]
    }

    /// Total chips.
    pub fn chip_count(&self) -> usize {
        self.shape.chip_count()
    }

    /// The inter-cube hops (torus rings) this slice requires. Every cube
    /// contributes exactly one +d hop per dimension — to the next cube in
    /// its ring, wrapping at the edge (a single-cube dimension yields a
    /// self-hop, closing the torus locally).
    pub fn required_hops(&self) -> Vec<CubeHop> {
        let [p, q, r] = self.shape.cube_grid();
        let mut hops = Vec::with_capacity(3 * self.cubes.len());
        for k in 0..r {
            for j in 0..q {
                for i in 0..p {
                    let from = self.cube_at(i, j, k);
                    hops.push(CubeHop {
                        dim: Dim::X,
                        from,
                        to: self.cube_at((i + 1) % p, j, k),
                    });
                    hops.push(CubeHop {
                        dim: Dim::Y,
                        from,
                        to: self.cube_at(i, (j + 1) % q, k),
                    });
                    hops.push(CubeHop {
                        dim: Dim::Z,
                        from,
                        to: self.cube_at(i, j, (k + 1) % r),
                    });
                }
            }
        }
        hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert!(SliceShape::new(4, 4, 4).is_ok());
        assert!(SliceShape::new(16, 16, 16).is_ok());
        assert!(SliceShape::new(4, 4, 256).is_ok());
        assert_eq!(
            SliceShape::new(5, 4, 4).unwrap_err(),
            ShapeError::BadDimension(5)
        );
        assert_eq!(
            SliceShape::new(0, 4, 4).unwrap_err(),
            ShapeError::BadDimension(0)
        );
        assert_eq!(
            SliceShape::new(16, 16, 32).unwrap_err(),
            ShapeError::TooLarge { cubes: 128 }
        );
    }

    #[test]
    fn full_pod_shapes_from_the_paper() {
        // 16×16×16 and 4×4×256 both use all 64 cubes (§4.2.1).
        for shape in [
            SliceShape::new(16, 16, 16).unwrap(),
            SliceShape::new(4, 4, 256).unwrap(),
        ] {
            assert_eq!(shape.chip_count(), 4096);
            assert_eq!(shape.cube_count(), 64);
        }
        assert_eq!(SliceShape::new(8, 16, 32).unwrap().cube_count(), 64);
    }

    #[test]
    fn symmetric_shape_has_max_bisection() {
        // §4.2.1: "the symmetric 16×16×16 static configuration is chosen as
        // the baseline because it has the highest bisection bandwidth".
        let all = SliceShape::enumerate_with_chips(4096);
        assert!(all.len() > 5, "many 4096-chip shapes exist: {}", all.len());
        let best = all.iter().max_by_key(|s| s.bisection_links()).unwrap();
        let mut sorted = best.chips;
        sorted.sort_unstable();
        assert_eq!(sorted, [16, 16, 16]);
    }

    #[test]
    fn enumerate_includes_paper_extremes() {
        let all = SliceShape::enumerate_with_chips(4096);
        let has = |a: usize, b: usize, c: usize| {
            all.iter().any(|s| {
                let mut x = s.chips;
                x.sort_unstable();
                let mut y = [a, b, c];
                y.sort_unstable();
                x == y
            })
        };
        assert!(has(16, 16, 16));
        assert!(has(4, 4, 256));
        assert!(has(8, 16, 32));
    }

    #[test]
    fn slice_validation() {
        let shape = SliceShape::new(8, 4, 4).unwrap(); // 2 cubes
        assert!(Slice::new(shape, vec![0, 1]).is_ok());
        assert_eq!(
            Slice::new(shape, vec![0]).unwrap_err(),
            SliceError::WrongCubeCount { got: 1, need: 2 }
        );
        assert_eq!(
            Slice::new(shape, vec![0, 0]).unwrap_err(),
            SliceError::DuplicateCube(0)
        );
        assert_eq!(
            Slice::new(shape, vec![0, 99]).unwrap_err(),
            SliceError::BadCube(99)
        );
    }

    #[test]
    fn non_contiguous_cubes_are_fine() {
        // §4.2.4: "four idle, not-necessarily-contiguous 4×4×4 elemental
        // cubes" compose a 256-chip slice.
        let shape = SliceShape::new(16, 4, 4).unwrap(); // 4 cubes in a row
        let slice = Slice::new(shape, vec![3, 17, 42, 60]).unwrap();
        assert_eq!(slice.chip_count(), 256);
        let hops = slice.required_hops();
        // 4 cubes × 3 dims = 12 hops.
        assert_eq!(hops.len(), 12);
        // The X ring visits the cubes in order and wraps 60 → 3.
        let x_hops: Vec<_> = hops.iter().filter(|h| h.dim == Dim::X).collect();
        assert!(
            x_hops.iter().any(|h| h.from == 60 && h.to == 3),
            "wraparound hop present"
        );
    }

    #[test]
    fn single_cube_slice_self_hops() {
        let shape = SliceShape::new(4, 4, 4).unwrap();
        let slice = Slice::new(shape, vec![7]).unwrap();
        let hops = slice.required_hops();
        assert_eq!(hops.len(), 3);
        assert!(hops.iter().all(|h| h.from == 7 && h.to == 7));
    }

    #[test]
    fn hop_count_scales_with_cubes() {
        let shape = SliceShape::new(16, 16, 16).unwrap();
        let slice = Slice::new(shape, (0..64).collect()).unwrap();
        // 64 cubes × 3 dims.
        assert_eq!(slice.required_hops().len(), 192);
    }

    #[test]
    fn bisection_links_prefers_balance() {
        let sym = SliceShape::new(16, 16, 16).unwrap();
        let skew = SliceShape::new(4, 4, 256).unwrap();
        assert!(sym.bisection_links() > skew.bisection_links());
        assert_eq!(sym.bisection_links(), 2 * 16 * 16);
        assert_eq!(skew.bisection_links(), 2 * 4 * 4);
    }
}
