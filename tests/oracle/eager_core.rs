//! The reference switch: matter as it was before a switch fabricated its
//! optical core on first read (PR 21), kept as a test oracle. The parent's
//! `PalomarOcs::with_ports` ran `OpticalCore::fabricate` in the
//! constructor; reading the core at birth is that switch exactly — from
//! its first operation on, every reader and every fault finds the dies
//! already there and `health()` counts their spares mirror by mirror.
//! `tests/lazy_core_model.rs` runs it as the twin of a switch nobody has
//! asked about its optics.

use lightwave::ocs::PalomarOcs;

/// `PalomarOcs::with_ports(id, seed, ports)` with its core built eagerly.
pub fn eager_switch(id: u32, seed: u64, ports: usize) -> PalomarOcs {
    let ocs = PalomarOcs::with_ports(id, seed, ports);
    ocs.optical_core();
    ocs
}
