//! Bidirectional WDM transceiver models (§3.3 of the paper).
//!
//! The paper's transceivers are where most of the custom engineering lives:
//! CWDM4/CWDM8 wavelength plans, integrated circulators for bidirectional
//! operation over a single fiber strand, EML sources, and a DSP ASIC with
//! OIM interference mitigation and concatenated FEC. This crate models the
//! *module* level:
//!
//! - [`module`] — the three module families and their fabric-facing
//!   consequences: fibers per module, OCS ports consumed, bandwidth per
//!   fiber (the CWDM4-duplex → CWDM4-bidi → CWDM8-bidi progression that
//!   cuts the superpod's OCS count 96 → 48 → 24, Fig. 15a).
//! - [`dsp`] — the DSP block configuration: OIM on/off, FEC chain,
//!   equalizer, and the resulting pre-FEC BER the link must deliver.
//! - [`bringup`] — the link bring-up state machine, including multi-rate
//!   negotiation for backward compatibility (§3.3.1).
//! - [`bidilink`] — an end-to-end evaluated bidirectional link: budget +
//!   MPI + receiver → per-lane BER and margin.
//! - [`fleet`] — pod-scale per-lane BER sampling, the Fig. 13 census.
//! - [`instrument`] — feeds rate-fallback events and alarms into the
//!   fleet observability subsystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bidilink;
pub mod bringup;
pub mod dsp;
pub mod fleet;
pub mod instrument;
pub mod module;

pub use bidilink::{BidiLink, LaneReport};
pub use bringup::{BringupEvent, BringupState, LinkBringup};
pub use dsp::{DspConfig, FecMode};
pub use module::{ModuleFamily, Transceiver};
