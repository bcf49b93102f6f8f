//! Photonic link models for lightwave fabrics.
//!
//! This crate is the physics substrate underneath the Palomar OCS simulator
//! (`lightwave-ocs`) and the bidi transceiver models (`lightwave-transceiver`).
//! It provides:
//!
//! - [`wdm`] — coarse-WDM wavelength grids (CWDM4 at 20 nm spacing, CWDM8 at
//!   10 nm spacing within the same 80 nm band, per §3.3.1 of the paper).
//! - [`modulation`] — NRZ / PAM4 line coding and per-lane rates (25G NRZ,
//!   50G PAM4, 100G PAM4), for backward-compatible multi-rate operation.
//! - [`components`] — optical components (connectors, splices, circulators,
//!   mux/demux, OCS passes, fiber spans) with insertion loss *and* return
//!   loss, the two quantities the paper's hardware sections obsess over.
//! - [`link`] — end-to-end link budgets over chains of components.
//! - [`mpi`] — the multi-path-interference mechanics unique to circulator
//!   based bidirectional links: every reflective interface returns a copy of
//!   the *local* transmitter's light straight into the *local* receiver, so
//!   single reflections (not just double bounces) become in-band crosstalk.
//! - `circulator` (built under test only) — the Appendix-B optical
//!   circulator at the polarization-matrix level: non-reciprocal Faraday
//!   rotation, PBS routing, and the isolation imperfections cost; the
//!   reference `mpi::CIRCULATOR_ISOLATION_DB` is held to.
//! - [`ber`] — an analytic PAM4 direct-detection BER model with thermal,
//!   shot, RIN and MPI beat-noise terms, plus the OIM (optical interference
//!   mitigation) DSP notch-filter model of §3.3.2.
//! - [`montecarlo`] — a symbol-level Monte Carlo BER simulator used to
//!   cross-check the analytic model (Fig. 11a "Monte Carlo" points).
//! - [`dispersion`] — chromatic dispersion for G.652 fiber and the residual
//!   penalty after MLSE equalization.
//!
//! All stochastic models take explicit seeded RNGs; nothing reads wall-clock
//! or global entropy, so every experiment is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
mod circulator;
pub mod components;
pub mod dispersion;
pub mod link;
pub mod modulation;
pub mod montecarlo;
pub mod mpi;
pub mod wdm;

pub use ber::{OimConfig, Pam4Receiver};
pub use components::{Component, ComponentKind};
pub use link::{LinkBudget, LinkBudgetError};
pub use modulation::LaneRate;
pub use mpi::{MpiBudget, MpiContribution, MpiScratch};
pub use wdm::{WdmGrid, WdmLane};
