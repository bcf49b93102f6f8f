//! The reference fleet: fabric time as it was kept before the fleet owned
//! one clock and a due bound (PR 17), moved here as a test oracle. Every
//! switch carries its own clock and `advance` ticks every one of them,
//! every time — nothing is lazy, nothing is skipped, so what a switch
//! shows is what it shows at fleet time by construction. The one addition
//! is the `now` the fleet keeps beside them (the parent's controller kept
//! it, one layer up). It is deliberately the slow, obvious version:
//! `tests/fleet_time_model.rs` holds the production `OcsFleet` to it, and
//! `oracle::OraclePod` stands on it so that it stays independent of the
//! code under test.

use lightwave::fabric::OcsId;
use lightwave::ocs::PalomarOcs;
use lightwave::units::Nanos;

/// `n` switches under ids `0..n`, each ticked on every advance.
#[derive(Debug)]
pub struct EagerFleet {
    switches: Vec<PalomarOcs>,
    now: Nanos,
}

impl EagerFleet {
    /// The switches `OcsFleet::build(n, seed)` builds.
    pub fn build(n: usize, seed: u64) -> EagerFleet {
        EagerFleet {
            switches: (0..n)
                .map(|i| PalomarOcs::new(i as OcsId, seed.wrapping_add(i as u64 * 7919)))
                .collect(),
            now: Nanos(0),
        }
    }

    /// Fleet time: every member's clock reads the same.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Immutable access to a switch.
    pub fn get(&self, id: OcsId) -> Option<&PalomarOcs> {
        self.switches.get(id as usize)
    }

    /// Mutable access to a switch.
    pub fn get_mut(&mut self, id: OcsId) -> Option<&mut PalomarOcs> {
        self.switches.get_mut(id as usize)
    }

    /// Advances every switch's clock.
    pub fn advance(&mut self, dt: Nanos) {
        self.now += dt;
        for ocs in &mut self.switches {
            ocs.advance(dt);
        }
    }
}
