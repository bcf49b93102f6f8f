//! Cluster scheduling for OCS-composed slices (§4.2.3–§4.2.4).
//!
//! The paper's scheduling claims are comparative: the TPU v4 pod's small
//! (64-chip) building block *plus* a non-blocking lightwave fabric means a
//! 256-chip job can use *any* four idle cubes, while the previous
//! generation needed 256 *contiguous* chips — so the v4 fleet runs above
//! 98% utilization despite 4× larger slices. Deployment is similarly
//! incremental: racks come online one at a time instead of waiting for a
//! complete pod.
//!
//! - [`alloc`] — the two allocation disciplines: [`alloc::Pooled`]
//!   (reconfigurable fabric: any idle cubes) and [`alloc::Contiguous`]
//!   (static fabric: an axis-aligned box of the physical cube grid).
//! - [`sim`] — a discrete-event cluster simulation: Poisson arrivals,
//!   job durations, queueing; reports utilization, wait times, and
//!   fragmentation stalls.
//! - [`deployment`] — incremental-vs-monolithic turn-up capacity model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod deployment;
pub mod sim;

pub use alloc::{Allocator, Contiguous, Pooled};
pub use sim::{ClusterSim, JobSpec, SimReport};
