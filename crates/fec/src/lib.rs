//! Forward error correction for lightwave-fabric transceivers.
//!
//! The paper's DSP ASIC (§3.3.2) implements a *concatenated* FEC: a
//! proprietary ultra-low-latency soft-decision inner code wrapped around the
//! standard "KP4" RS(544,514) outer code, buying ~1.6 dB of receiver
//! sensitivity (Fig. 12) without violating the latency budget of synchronous
//! ML workloads (< 20 ns at 200 Gb/s). A variant of the inner code was later
//! adopted by IEEE 802.3dj.
//!
//! This crate implements the whole stack **for real** — not as rate
//! adjustments on a formula:
//!
//! - [`gf`] — arithmetic over GF(2¹⁰), the symbol field of KP4.
//! - [`rs`] — a generic Reed-Solomon encoder/decoder (Berlekamp-Massey +
//!   Chien + Forney) instantiated as RS(544,514), t = 15.
//! - [`hamming`] — an extended Hamming (128,120) inner code with
//!   hard-decision decoding and soft-decision Chase decoding, the same
//!   construction class as the 802.3dj inner code.
//! - [`interleave`] — depth-D symbol interleaving: bursts spread across
//!   codewords, multiplying the correctable burst length.
//! - [`mod@concat`] — the concatenated chain, Monte-Carlo waterfall
//!   measurement and latency accounting.
//! - [`analysis`] — analytic post-FEC error rates (binomial symbol-error
//!   tails) and coding-gain computations used by the figure harness.
//!
//! ## Substitution note (see DESIGN.md §5)
//!
//! The paper's inner code is proprietary; our open extended-Hamming Chase
//! decoder is the same *family* but slightly weaker. The concatenation
//! mechanics, latency accounting and threshold behaviour are faithful; the
//! measured sensitivity gain lands near (somewhat below) the published
//! 1.6 dB, and the repro harness prints both.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod concat;
pub mod gf;
pub mod hamming;
pub mod interleave;
pub mod rs;
pub mod scratch;

pub use concat::{ConcatenatedCode, InnerDecoding};
pub use hamming::ExtHamming;
pub use interleave::Interleaver;
pub use rs::ReedSolomon;
pub use scratch::RsScratch;
