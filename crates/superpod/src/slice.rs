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
use serde::{Content, DeError, Deserialize, Serialize};

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

/// Cube ids a [`CubeList`] holds without a heap block.
pub(crate) const INLINE_CUBES: usize = 22;

/// An ordered list of cubes — a slice's grid positions, an allocator's
/// pick — held as a value: up to `INLINE_CUBES` ids sit inside the 24
/// bytes a `Vec` header would take, and only a longer list boxes its ids
/// (DESIGN §6.6, "Cube lists are values"). It reads as a `[CubeId]`,
/// compares by its live ids, and serializes as the same JSON array.
#[derive(Clone)]
pub struct CubeList(Ids);

#[derive(Clone)]
enum Ids {
    /// `ids[..len]` are the list; the rest of the array is padding.
    Inline {
        len: u8,
        ids: [CubeId; INLINE_CUBES],
    },
    Boxed(Box<[CubeId]>),
}

const _: () = assert!(
    std::mem::size_of::<CubeList>() == std::mem::size_of::<Vec<CubeId>>(),
    "a cube list is exactly as large as the Vec it replaced"
);

impl From<&[CubeId]> for CubeList {
    fn from(cubes: &[CubeId]) -> CubeList {
        if cubes.len() > INLINE_CUBES {
            return CubeList(Ids::Boxed(cubes.into()));
        }
        let mut ids = [0; INLINE_CUBES];
        ids[..cubes.len()].copy_from_slice(cubes);
        CubeList(Ids::Inline {
            len: cubes.len() as u8,
            ids,
        })
    }
}

impl FromIterator<CubeId> for CubeList {
    fn from_iter<I: IntoIterator<Item = CubeId>>(cubes: I) -> CubeList {
        let mut cubes = cubes.into_iter();
        let (mut ids, mut len) = ([0; INLINE_CUBES], 0);
        while let Some(c) = cubes.next() {
            if len == INLINE_CUBES {
                let mut all = Vec::with_capacity(len + 1 + cubes.size_hint().0);
                all.extend_from_slice(&ids);
                all.push(c);
                all.extend(cubes);
                return CubeList(Ids::Boxed(all.into_boxed_slice()));
            }
            ids[len] = c;
            len += 1;
        }
        CubeList(Ids::Inline {
            len: len as u8,
            ids,
        })
    }
}

impl std::ops::Deref for CubeList {
    type Target = [CubeId];

    fn deref(&self) -> &[CubeId] {
        match &self.0 {
            Ids::Inline { len, ids } => &ids[..*len as usize],
            Ids::Boxed(ids) => ids,
        }
    }
}

impl AsRef<[CubeId]> for CubeList {
    fn as_ref(&self) -> &[CubeId] {
        self
    }
}

impl<'a> IntoIterator for &'a CubeList {
    type Item = &'a CubeId;
    type IntoIter = std::slice::Iter<'a, CubeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for CubeList {
    fn eq(&self, other: &CubeList) -> bool {
        self[..] == other[..]
    }
}

impl Eq for CubeList {}

impl std::fmt::Debug for CubeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for CubeList {
    fn to_content(&self) -> Content {
        self[..].to_content()
    }
}

impl<'de> Deserialize<'de> for CubeList {
    fn from_content(content: &Content) -> Result<CubeList, DeError> {
        Vec::<CubeId>::from_content(content).map(|cubes| CubeList::from(&cubes[..]))
    }
}

/// A slice: a shape plus the physical cubes filling its logical grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slice {
    /// The shape.
    pub shape: SliceShape,
    /// Physical cube at each logical grid position, row-major with the
    /// first dimension fastest.
    pub cubes: CubeList,
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
    pub fn new(shape: SliceShape, cubes: impl AsRef<[CubeId]>) -> Result<Slice, SliceError> {
        let slice = Slice {
            shape,
            cubes: CubeList::from(cubes.as_ref()),
        };
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
        let slice = Slice::new(shape, (0..64).collect::<CubeList>()).unwrap();
        // 64 cubes × 3 dims.
        assert_eq!(slice.required_hops().len(), 192);
    }

    #[test]
    fn a_cube_list_is_its_live_ids_inline_or_boxed() {
        let list = |n: CubeId| (0..n).collect::<CubeList>();
        for n in [0, 1, 21, 22, 23, 64] {
            let ids: Vec<CubeId> = (0..n).collect();
            assert_eq!(&list(n)[..], &ids[..], "{n} ids");
            assert_eq!(list(n), CubeList::from(&ids[..]), "{n}: collected = copied");
            assert_eq!(format!("{:?}", list(n)), format!("{ids:?}"));
        }
        assert!(matches!(list(22).0, Ids::Inline { len: 22, .. }));
        assert!(matches!(list(23).0, Ids::Boxed(_)));
        // Equal means equal live ids: a list is not its zero-padded
        // extension (cube 0 is a cube), nor a longer or shorter one.
        let ids = |ids: &[CubeId]| CubeList::from(ids);
        assert_ne!(ids(&[5]), ids(&[5, 0]));
        assert_ne!(ids(&[]), ids(&[0]));
        assert_ne!(list(22), list(23));
        assert_ne!(ids(&[1, 2]), ids(&[2, 1]));
    }

    #[test]
    fn a_cube_list_serializes_as_the_array_it_replaced() {
        for n in [0, 3, 22, 23, 64] {
            let ids: Vec<CubeId> = (0..n).rev().collect();
            let list = CubeList::from(&ids[..]);
            let content = list.to_content();
            assert_eq!(content, ids.to_content());
            assert_eq!(CubeList::from_content(&content).unwrap(), list);
        }
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
