//! The Palomar optical circuit switch, simulated.
//!
//! Palomar (§3.2 of the paper) is a 136×136-port free-space MEMS OCS: light
//! enters through 2D fiber-collimator arrays, bounces off two MEMS mirror
//! arrays whose individually tiltable mirrors steer any North port to any
//! South port, and exits — broadband, reciprocal, bidirectional, with no
//! per-packet processing. Two cameras watch 850 nm monitor beams
//! superimposed on the signal path and close the mirror-alignment loop in
//! software.
//!
//! This crate simulates that machine faithfully enough to reproduce the
//! paper's hardware evaluation (§4.1.1):
//!
//! - `mems` — mirror dies: 176 mirrors fabricated per die, the best 136
//!   qualified for service, the rest manufacturing spares; per-mirror
//!   failure and spare-swap semantics.
//! - [`camera`] — the closed-loop image-based alignment: iterative
//!   convergence of pointing error, which sets both switching time and the
//!   residual (pointing-dependent) excess loss.
//! - `crossbar` — the non-blocking bijective N→S connection state
//!   machine, with *non-disruptive delta reconfiguration*: applying a new
//!   mapping only touches ports whose assignment changed (§2.3's
//!   "keep certain connections undisturbed while making changes
//!   elsewhere").
//! - [`loss`] — per-path insertion/return loss sampling (Fig. 10).
//! - [`chassis`] — FRUs, redundant PSUs/fans, hot-swap semantics (mirror
//!   state is lost when an HV driver board is swapped, §3.2.2), and the
//!   108 W power model.
//! - [`telemetry`] — the counters and alarms a production control plane
//!   scrapes ("we invested heavily in improving telemetry", §3.2.2).
//! - [`instrument`] — the scraper bridging one switch into the fleet
//!   observability subsystem (`lightwave-telemetry`).
//! - [`tech`] — the OCS technology-comparison data of Table C.1.
//!
//! The facade type is [`PalomarOcs`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod camera;
pub mod chassis;
mod crossbar;
pub mod instrument;
pub mod loss;
mod mems;
pub mod tech;
pub mod telemetry;

mod palomar;

pub use crossbar::{ConnectionState, Crossbar, CrossbarError, PortId, PortMapping};
pub use palomar::{
    DriftChange, OcsError, OcsHealth, PalomarOcs, ReconfigReport, ReconfigSummary, SharedDelta,
};

/// Total duplex ports per Palomar OCS (including the 8 spares used for
/// link testing and repairs — Appendix A).
pub const TOTAL_PORTS: usize = 136;
