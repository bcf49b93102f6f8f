//! The lightwave-fabric control plane.
//!
//! A *lightwave fabric* is a fleet of OCSes plus the software that drives
//! them as one reconfigurable interconnect (§3.2.2: "the same software
//! stack and base OS as our other datacenter networking devices ... The
//! ability to deeply integrate the control and monitoring software with
//! the rest of our network infrastructure was essential given that the
//! switches had a large blast radius").
//!
//! - [`fleet`] — the OCS fleet: ownership, time, health roll-up.
//! - [`controller`] — target-state reconfiguration: validate-then-commit
//!   across switches, minimal-delta application, non-disruption audit,
//!   completion-time accounting (OCS settle + transceiver bring-up).
//! - [`maintenance`] — planned FRU replacement on live switches: blast
//!   radius and expected outage, audited against what actually blinks.
//! - [`instrument`] — feeds commits and fleet scrapes into the fleet
//!   observability subsystem (`lightwave-telemetry`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// An invalid argument is refused as an `Err`; the few remaining sites carry
// an `allow` naming the invariant they rely on (tests are exempt, clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod controller;
pub mod fleet;
pub mod instrument;
pub mod maintenance;

pub use controller::{
    CommitError, CommitReport, FabricController, FabricDelta, FabricTarget, SwitchDelta, SwitchOps,
    SwitchReports,
};
pub use fleet::{FleetHealth, OcsFleet, OcsId};
pub use maintenance::{plan_replacement, MaintenancePlan};
