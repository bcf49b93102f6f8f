//! The reference `Contiguous` first fit: the per-cube scan the allocator
//! ran before it tested each origin's box in one mask (DESIGN §6.8, "The
//! shifted box is the box"). Origins in z, y, x order, every cube of each
//! candidate box looked up on its own; the first box whose cubes are all
//! idle wins, listed x fastest. `tests/cluster_sim_model.rs` holds the
//! library's allocator to it, answer for answer.

use lightwave::scheduler::alloc::{cube_at, Allocation, GRID};
use lightwave::superpod::{CubeSet, SliceShape};

/// The first axis-aligned `p×q×r` box of idle cubes, or `None`.
pub fn first_fit(shape: SliceShape, idle: CubeSet) -> Option<Allocation> {
    let [p, q, r] = shape.cube_grid();
    if p > GRID || q > GRID || r > GRID {
        return None;
    }
    let box_at = move |ox: usize, oy: usize, oz: usize| {
        (0..r).flat_map(move |dz| {
            (0..q).flat_map(move |dy| (0..p).map(move |dx| cube_at(ox + dx, oy + dy, oz + dz)))
        })
    };
    for oz in 0..=(GRID - r) {
        for oy in 0..=(GRID - q) {
            for ox in 0..=(GRID - p) {
                if box_at(ox, oy, oz).all(|c| idle.contains(c)) {
                    return Some(box_at(ox, oy, oz).collect());
                }
            }
        }
    }
    None
}
