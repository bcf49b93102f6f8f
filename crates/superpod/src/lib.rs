//! The TPU v4 superpod: 64 racks × 64 chips on a reconfigurable 3D torus.
//!
//! Appendix A of the paper: 64 chips form a 4×4×4 *cube* wired electrically
//! inside one rack; the 6 faces of each cube expose 16 optical links each;
//! opposing faces of a dimension land on the *same* OCS so that any chain
//! of cubes can close into a torus ring. 48 OCSes (3 dimensions × 16
//! face-link indices) interconnect up to 64 cubes into slices of any shape
//! `a×b×c` (chips, multiples of 4), from 4×4×256 to 16×16×16 for the full
//! 4096-chip pod (§4.2.1).
//!
//! - [`geometry`] — cubes, coordinates, dimensions, faces.
//! - [`wiring`] — the Appendix-A OCS wiring plan.
//! - [`mod@slice`] — slice shapes, cube assignment, required circuits.
//! - [`torus`] — the chip-level 3D torus of a slice: neighbors, routing,
//!   link classification (electrical vs optical), bisection bandwidth.
//! - [`collective`] — α-β cost models for ring/torus collectives on ICI.
//! - [`collective_sim`] — step-level collective execution against a
//!   per-link bandwidth map (straggler analysis).
//! - [`instrument`] — straggler detection feeding the fleet
//!   observability subsystem (`lightwave-telemetry`).
//! - [`hybrid`] — hybrid ICI-DCN collectives across multiple pods
//!   (§2.2.2, Fig. 2).
//! - [`torus_nd`] — the §6 future-work 4D/6D torus trade study.
//! - [`pod`] — the [`pod::Superpod`] facade: compose and release slices on
//!   a live OCS fabric with isolation guarantees.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod collective_sim;
pub mod geometry;
pub mod hybrid;
pub mod instrument;
pub mod pod;
pub mod slice;
pub mod torus;
pub mod torus_nd;
pub mod wiring;

pub use geometry::{CubeId, CubeSet, Dim, CHIPS_PER_CUBE, CUBE_EDGE, POD_CHIPS, POD_CUBES};
pub use pod::{PodError, SliceHandle, Superpod};
pub use slice::{Slice, SliceShape};
pub use torus::Torus;
