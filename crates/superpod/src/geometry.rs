//! Cubes, dimensions, and pod constants.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Chips along one edge of an elemental cube.
pub const CUBE_EDGE: usize = 4;
/// Chips per elemental cube (4×4×4 = 64, one rack).
pub const CHIPS_PER_CUBE: usize = CUBE_EDGE * CUBE_EDGE * CUBE_EDGE;
/// Cubes in a full superpod.
pub const POD_CUBES: usize = 64;
/// Chips in a full superpod (64² = 4096).
pub const POD_CHIPS: usize = POD_CUBES * CHIPS_PER_CUBE;
/// Optical links per cube face (4×4 chip positions).
pub const LINKS_PER_FACE: usize = CUBE_EDGE * CUBE_EDGE;

/// An elemental cube (= one rack) within the pod, 0..63.
pub type CubeId = u8;

const _: () = assert!(
    POD_CUBES == 64,
    "CubeSet is a u64 bitset of the pod's cubes"
);

/// A set of the pod's cubes: bit `c` set means cube `c` is a member.
///
/// The one representation of "some of the pod's 64 cubes" shared by the
/// pod's bookkeeping, the allocators and the admission path. Every `u64`
/// is a valid set; ids outside the pod are never members (`contains`
/// answers `false`, `insert`/`remove` leave the set alone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CubeSet(pub(crate) u64);

impl CubeSet {
    /// No cubes.
    pub const EMPTY: CubeSet = CubeSet(0);
    /// Every cube of the pod.
    pub const ALL: CubeSet = CubeSet(u64::MAX);

    /// The single-cube mask, or 0 for an id outside the pod.
    fn bit(cube: CubeId) -> u64 {
        1u64.checked_shl(cube as u32).unwrap_or(0)
    }

    /// Number of member cubes.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set has no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `cube` is a member.
    pub fn contains(self, cube: CubeId) -> bool {
        self.0 & Self::bit(cube) != 0
    }

    /// Adds `cube`; `true` when it was not a member before.
    pub fn insert(&mut self, cube: CubeId) -> bool {
        let fresh = Self::bit(cube) & !self.0;
        self.0 |= fresh;
        fresh != 0
    }

    /// Removes `cube`; `true` when it was a member.
    pub fn remove(&mut self, cube: CubeId) -> bool {
        let hit = Self::bit(cube) & self.0;
        self.0 &= !hit;
        hit != 0
    }

    /// Members in ascending order.
    pub fn iter(self) -> CubeIter {
        CubeIter(self.0)
    }
}

/// Ascending iterator over a [`CubeSet`].
#[derive(Debug, Clone)]
pub struct CubeIter(u64);

impl Iterator for CubeIter {
    type Item = CubeId;

    fn next(&mut self) -> Option<CubeId> {
        if self.0 == 0 {
            return None;
        }
        let c = self.0.trailing_zeros() as CubeId;
        self.0 &= self.0 - 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl Extend<CubeId> for CubeSet {
    fn extend<I: IntoIterator<Item = CubeId>>(&mut self, cubes: I) {
        for c in cubes {
            self.insert(c);
        }
    }
}

impl FromIterator<CubeId> for CubeSet {
    fn from_iter<I: IntoIterator<Item = CubeId>>(cubes: I) -> CubeSet {
        let mut set = CubeSet::EMPTY;
        set.extend(cubes);
        set
    }
}

/// The bridge from the ordered-set view (`idle_cubes()` collected by a
/// caller) to the bitset the pod and the allocators run on.
impl From<&BTreeSet<CubeId>> for CubeSet {
    fn from(cubes: &BTreeSet<CubeId>) -> CubeSet {
        cubes.iter().copied().collect()
    }
}

/// A torus dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dim {
    /// First dimension.
    X,
    /// Second dimension.
    Y,
    /// Third dimension.
    Z,
}

impl Dim {
    /// All dimensions in order.
    pub const ALL: [Dim; 3] = [Dim::X, Dim::Y, Dim::Z];

    /// Index 0/1/2.
    pub fn index(self) -> usize {
        match self {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Z => 2,
        }
    }
}

/// Position of a chip inside its cube, each coordinate in 0..4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChipInCube {
    /// x within cube.
    pub x: u8,
    /// y within cube.
    pub y: u8,
    /// z within cube.
    pub z: u8,
}

impl ChipInCube {
    /// From a linear index 0..64 (x fastest).
    pub fn from_index(i: usize) -> ChipInCube {
        assert!(i < CHIPS_PER_CUBE, "chip index {i} out of range");
        ChipInCube {
            x: (i % CUBE_EDGE) as u8,
            y: ((i / CUBE_EDGE) % CUBE_EDGE) as u8,
            z: (i / (CUBE_EDGE * CUBE_EDGE)) as u8,
        }
    }

    /// Linear index 0..64.
    pub fn index(self) -> usize {
        self.x as usize + CUBE_EDGE * (self.y as usize + CUBE_EDGE * self.z as usize)
    }

    /// The face-link index (0..16) this chip uses when its `dim`
    /// coordinate is at a cube boundary: the position within the 4×4 face,
    /// ordered by the two non-`dim` coordinates.
    pub fn face_link_index(self, dim: Dim) -> usize {
        let (a, b) = match dim {
            Dim::X => (self.y, self.z),
            Dim::Y => (self.x, self.z),
            Dim::Z => (self.x, self.y),
        };
        a as usize + CUBE_EDGE * b as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(CHIPS_PER_CUBE, 64);
        assert_eq!(POD_CHIPS, 4096);
        assert_eq!(LINKS_PER_FACE, 16);
        // 96 optical links per cube = 6 faces × 16.
        assert_eq!(6 * LINKS_PER_FACE, 96);
    }

    #[test]
    fn chip_index_roundtrip() {
        for i in 0..CHIPS_PER_CUBE {
            assert_eq!(ChipInCube::from_index(i).index(), i);
        }
    }

    #[test]
    fn face_link_indices_cover_the_face() {
        // The 16 chips on the +X face (x == 3) map onto 16 distinct links.
        let mut seen = [false; LINKS_PER_FACE];
        for i in 0..CHIPS_PER_CUBE {
            let c = ChipInCube::from_index(i);
            if c.x == 3 {
                let k = c.face_link_index(Dim::X);
                assert!(!seen[k], "duplicate face link {k}");
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn opposite_faces_use_same_link_index() {
        // A chip at x=0 and the chip at x=3 with the same (y,z) share a
        // face-link index — that is what lets opposing faces land on the
        // same OCS and close rings.
        let a = ChipInCube { x: 0, y: 2, z: 1 };
        let b = ChipInCube { x: 3, y: 2, z: 1 };
        assert_eq!(a.face_link_index(Dim::X), b.face_link_index(Dim::X));
    }

    #[test]
    fn cube_set_ignores_ids_outside_the_pod() {
        let mut set = CubeSet::EMPTY;
        assert!(set.insert(63) && !set.insert(63));
        assert!(set.contains(63));
        for bad in [64, 255] {
            assert!(!set.insert(bad), "cube {bad} is not in the pod");
            assert!(!set.contains(bad));
            assert!(!set.remove(bad));
            assert!(!CubeSet::ALL.contains(bad));
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![63]);
        assert!(set.remove(63) && set.is_empty());
        assert_eq!(CubeSet::ALL.len(), POD_CUBES);
    }

    #[test]
    fn cube_set_iterates_ascending_and_bridges_btreeset() {
        let model: BTreeSet<CubeId> = [40, 3, 63, 0, 17].into_iter().collect();
        let set = CubeSet::from(&model);
        assert_eq!(set.len(), 5);
        assert!(set.iter().eq(model.iter().copied()));
        assert_eq!(set.iter().size_hint(), (5, Some(5)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_chip_index_panics() {
        let _ = ChipInCube::from_index(64);
    }
}
