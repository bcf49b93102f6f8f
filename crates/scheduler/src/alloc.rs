//! Cube allocation disciplines.
//!
//! [`Pooled`] models the reconfigurable lightwave fabric: a slice needing
//! k cubes can take *any* k idle cubes (the OCS wires them into a torus
//! regardless of where they sit). [`Contiguous`] models a static fabric:
//! a slice of cube-shape `p×q×r` must occupy an axis-aligned box of the
//! physical 4×4×4 cube grid, with matching orientation — the constraint
//! that fragments static clusters.

use lightwave_superpod::geometry::{CubeId, CubeSet};
use lightwave_superpod::slice::{CubeList, SliceShape};
use serde::{Deserialize, Serialize};

/// The physical cube grid of a pod: 4×4×4 racks.
pub const GRID: usize = 4;

/// An allocation decision: the cubes in the order they fill the slice
/// grid, a value the pod's [`Slice`](lightwave_superpod::Slice) takes as
/// it is.
pub type Allocation = CubeList;

/// An allocation discipline over a pod's 64 cubes.
pub trait Allocator {
    /// Picks cubes for a slice of `shape` from `idle`, or `None` if the
    /// request cannot be placed right now. `idle` is the pod's
    /// [`CubeSet`] (`Superpod::idle_set()`), or anything that converts
    /// into one — a `&BTreeSet<CubeId>` does.
    fn allocate(&self, shape: SliceShape, idle: impl Into<CubeSet>) -> Option<Allocation>;

    /// Whether this discipline can *ever* place the shape on an empty pod.
    fn supports(&self, shape: SliceShape) -> bool;
}

/// Reconfigurable-fabric allocation: any idle cubes satisfy any shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pooled;

impl Allocator for Pooled {
    fn allocate(&self, shape: SliceShape, idle: impl Into<CubeSet>) -> Option<Allocation> {
        let (idle, need) = (idle.into(), shape.cube_count());
        (idle.len() >= need).then(|| idle.iter().take(need).collect())
    }

    fn supports(&self, _shape: SliceShape) -> bool {
        true
    }
}

/// Static-fabric allocation: an axis-aligned `p×q×r` box of the physical
/// grid, orientation fixed by the wiring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Contiguous;

/// Cube id of grid position (x, y, z).
pub fn cube_at(x: usize, y: usize, z: usize) -> CubeId {
    debug_assert!(x < GRID && y < GRID && z < GRID);
    (x + GRID * (y + GRID * z)) as CubeId
}

impl Allocator for Contiguous {
    fn allocate(&self, shape: SliceShape, idle: impl Into<CubeSet>) -> Option<Allocation> {
        let idle = idle.into();
        let [p, q, r] = shape.cube_grid();
        if p > GRID || q > GRID || r > GRID {
            return None; // does not fit the physical arrangement at all
        }
        // The box at origin cube 0. A box at origin (x, y, z) is this one
        // moved by `cube_at(x, y, z)` ids — a shift of the mask, since a
        // box that fits the grid never wraps a row or a plane (DESIGN
        // §6.8, "The shifted box is the box") — and its cubes in x-fastest
        // order, the order they fill the slice grid, ascend by id.
        let at_zero: CubeSet = (0..r)
            .flat_map(|z| (0..q).flat_map(move |y| (0..p).map(move |x| cube_at(x, y, z))))
            .collect();
        // First fit over box origins: one mask test per origin.
        for oz in 0..=(GRID - r) {
            for oy in 0..=(GRID - q) {
                for ox in 0..=(GRID - p) {
                    let at = CubeSet::from_bits(at_zero.bits() << cube_at(ox, oy, oz));
                    if at.difference(idle).is_empty() {
                        return Some(at.iter().collect());
                    }
                }
            }
        }
        None
    }

    fn supports(&self, shape: SliceShape) -> bool {
        let [p, q, r] = shape.cube_grid();
        p <= GRID && q <= GRID && r <= GRID
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn all_idle() -> CubeSet {
        CubeSet::ALL
    }

    fn shape(a: usize, b: usize, c: usize) -> SliceShape {
        SliceShape::new(a, b, c).unwrap()
    }

    #[test]
    fn pooled_takes_any_cubes() {
        let mut idle = all_idle();
        // Remove a scattered half of the pod.
        for c in (0..64).step_by(2) {
            idle.remove(c as CubeId);
        }
        // 16-cube request still placeable from the scattered remainder.
        let a = Pooled.allocate(shape(16, 16, 4), idle).unwrap();
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|&c| idle.contains(c)));
    }

    #[test]
    fn pooled_fails_only_on_count() {
        let idle: CubeSet = (0..3).collect();
        assert!(Pooled.allocate(shape(16, 4, 4), idle).is_none()); // needs 4
        assert!(Pooled.allocate(shape(12, 4, 4), idle).is_some()); // needs 3
    }

    #[test]
    fn contiguous_places_boxes() {
        let idle = all_idle();
        let a = Contiguous.allocate(shape(8, 8, 4), idle).unwrap(); // 2×2×1 box
        assert_eq!(a.len(), 4);
        // Box property: coordinates form a 2×2×1 block.
        let xs: BTreeSet<usize> = a.iter().map(|&c| c as usize % 4).collect();
        let ys: BTreeSet<usize> = a.iter().map(|&c| (c as usize / 4) % 4).collect();
        let zs: BTreeSet<usize> = a.iter().map(|&c| c as usize / 16).collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(ys.len(), 2);
        assert_eq!(zs.len(), 1);
    }

    #[test]
    fn contiguous_rejects_shapes_that_do_not_fit_the_grid() {
        // 4×4×256 chips = 1×1×64 cubes: impossible on a static 4×4×4 grid.
        assert!(!Contiguous.supports(shape(4, 4, 256)));
        assert!(Contiguous.allocate(shape(4, 4, 256), all_idle()).is_none());
        // 16×16×16 = the whole grid: fine.
        assert!(Contiguous.supports(shape(16, 16, 16)));
    }

    #[test]
    fn fragmentation_defeats_contiguous_but_not_pooled() {
        // A checkerboard of busy cubes: 32 idle cubes, but no 2×2×2 box.
        let mut idle = CubeSet::EMPTY;
        for z in 0..GRID {
            for y in 0..GRID {
                for x in 0..GRID {
                    if (x + y + z) % 2 == 0 {
                        idle.insert(cube_at(x, y, z));
                    }
                }
            }
        }
        assert_eq!(idle.len(), 32);
        let req = shape(8, 8, 8); // 2×2×2 = 8 cubes
        assert!(
            Contiguous.allocate(req, idle).is_none(),
            "checkerboard has no free 2×2×2 box"
        );
        assert!(
            Pooled.allocate(req, idle).is_some(),
            "the OCS fabric does not care about contiguity"
        );
    }

    #[test]
    fn contiguous_full_pod_requires_empty_pod() {
        let mut idle = all_idle();
        assert!(Contiguous.allocate(shape(16, 16, 16), idle).is_some());
        idle.remove(42);
        assert!(Contiguous.allocate(shape(16, 16, 16), idle).is_none());
    }

    #[test]
    fn orientation_is_fixed() {
        // A 1×4×1-cube slab in x fails if only a y-slab is free.
        let mut idle = CubeSet::EMPTY;
        for y in 0..4 {
            idle.insert(cube_at(0, y, 0));
        }
        assert!(
            Contiguous.allocate(shape(16, 4, 4), idle).is_none(),
            "x-slab"
        );
        assert!(
            Contiguous.allocate(shape(4, 16, 4), idle).is_some(),
            "y-slab"
        );
    }
}
