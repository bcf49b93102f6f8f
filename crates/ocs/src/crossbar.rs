//! The non-blocking N→S connection state machine.
//!
//! A Palomar crossbar holds a *partial bijection* from North ports to South
//! ports: any North port may connect to any South port, no two connections
//! may share a port, and — because the optical core is free-space — any
//! bijection is realizable (strictly non-blocking). The paper leans on two
//! consequences (§2.3, §4.2.4): new circuits can be added without touching
//! existing ones, and reconfiguration can be expressed as a *delta* so
//! running jobs on untouched ports see zero disturbance.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A port index on one side of the switch (0-based).
pub type PortId = u16;

/// State of a single connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectionState {
    /// Mirrors are actuating/aligning; light is not yet flowing.
    Connecting,
    /// Aligned; circuit is carrying (or ready to carry) light.
    Connected,
}

/// Errors from crossbar operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrossbarError {
    /// Port index ≥ the port count.
    PortOutOfRange(PortId),
    /// The North port is already in use.
    NorthBusy(PortId),
    /// The South port is already in use.
    SouthBusy(PortId),
    /// No such connection.
    NotConnected(PortId),
    /// The requested mapping is not injective (two norths share a south).
    NotBijective {
        /// The South port claimed twice.
        south: PortId,
    },
}

impl std::fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrossbarError::PortOutOfRange(p) => write!(f, "port {p} out of range"),
            CrossbarError::NorthBusy(p) => write!(f, "north port {p} already connected"),
            CrossbarError::SouthBusy(p) => write!(f, "south port {p} already connected"),
            CrossbarError::NotConnected(p) => write!(f, "north port {p} not connected"),
            CrossbarError::NotBijective { south } => {
                write!(f, "mapping assigns south port {south} twice")
            }
        }
    }
}

impl std::error::Error for CrossbarError {}

/// A desired full or partial configuration: North port → South port.
///
/// Stored as a sorted map so diffs and iteration are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortMapping {
    map: BTreeMap<PortId, PortId>,
}

impl PortMapping {
    /// Empty mapping.
    pub fn new() -> PortMapping {
        PortMapping::default()
    }

    /// Builds from pairs, validating injectivity.
    pub fn from_pairs(
        pairs: impl IntoIterator<Item = (PortId, PortId)>,
    ) -> Result<PortMapping, CrossbarError> {
        let mut map = BTreeMap::new();
        let mut used_south = std::collections::BTreeSet::new();
        for (n, s) in pairs {
            if !used_south.insert(s) {
                return Err(CrossbarError::NotBijective { south: s });
            }
            map.insert(n, s);
        }
        if map.len() != used_south.len() {
            // A north inserted twice overwrote an entry, leaving a stale
            // south in `used_south`; treat as non-bijective.
            return Err(CrossbarError::NotBijective {
                south: *used_south.iter().next().expect("non-empty"),
            });
        }
        Ok(PortMapping { map })
    }

    /// Adds or replaces one pair. Returns an error if `south` is already
    /// targeted by a different north port.
    pub fn insert(&mut self, north: PortId, south: PortId) -> Result<(), CrossbarError> {
        if self.map.iter().any(|(&n, &s)| s == south && n != north) {
            return Err(CrossbarError::NotBijective { south });
        }
        self.map.insert(north, south);
        Ok(())
    }

    /// The South port for a North port, if mapped.
    pub fn get(&self, north: PortId) -> Option<PortId> {
        self.map.get(&north).copied()
    }

    /// Number of circuits in the mapping.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no circuits.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(north, south)` pairs in port order.
    pub fn pairs(&self) -> impl Iterator<Item = (PortId, PortId)> + '_ {
        self.map.iter().map(|(&n, &s)| (n, s))
    }
}

/// The diff between the current configuration and a target mapping.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingDelta {
    /// Circuits to tear down (north ports).
    pub remove: Vec<PortId>,
    /// Circuits to establish.
    pub add: Vec<(PortId, PortId)>,
    /// Circuits left completely untouched.
    pub unchanged: Vec<(PortId, PortId)>,
}

/// "No circuit" in the port tables. Never a valid port: [`Crossbar::new`]
/// caps the port count at this value, so ids stop one short of it.
const FREE: PortId = PortId::MAX;

/// The live crossbar state, as flat per-port tables.
///
/// Invariants: `north_of` is the exact inverse of `south_of` (each holds
/// the "no circuit" value where the other has no entry), `count` is the
/// number of live `south_of` entries, and an `aligned` bit is set only
/// under a live one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Crossbar {
    /// north → south.
    south_of: Vec<PortId>,
    /// south → north reverse index.
    north_of: Vec<PortId>,
    /// Bit `n` set: north `n`'s circuit is [`ConnectionState::Connected`].
    aligned: Vec<u64>,
    count: usize,
}

impl Crossbar {
    /// A crossbar with `ports` ports per side.
    pub fn new(ports: usize) -> Crossbar {
        assert!(ports > 0 && ports <= FREE as usize, "port count sane");
        Crossbar {
            south_of: vec![FREE; ports],
            north_of: vec![FREE; ports],
            aligned: vec![0; ports.div_ceil(64)],
            count: 0,
        }
    }

    /// Ports per side.
    pub fn ports(&self) -> usize {
        self.south_of.len()
    }

    /// Number of live circuits.
    pub fn circuit_count(&self) -> usize {
        self.count
    }

    fn check_port(&self, p: PortId) -> Result<(), CrossbarError> {
        if (p as usize) < self.ports() {
            Ok(())
        } else {
            Err(CrossbarError::PortOutOfRange(p))
        }
    }

    /// Establishes a circuit; it starts in [`ConnectionState::Connecting`].
    pub fn connect(&mut self, north: PortId, south: PortId) -> Result<(), CrossbarError> {
        self.check_port(north)?;
        self.check_port(south)?;
        if self.south_of[north as usize] != FREE {
            return Err(CrossbarError::NorthBusy(north));
        }
        if self.north_of[south as usize] != FREE {
            return Err(CrossbarError::SouthBusy(south));
        }
        self.south_of[north as usize] = south;
        self.north_of[south as usize] = north;
        self.count += 1;
        Ok(())
    }

    /// Tears down the circuit on a North port.
    pub fn disconnect(&mut self, north: PortId) -> Result<PortId, CrossbarError> {
        self.take(north).map(|(south, _)| south)
    }

    /// [`Crossbar::disconnect`], also returning the state the circuit was in.
    pub(crate) fn take(
        &mut self,
        north: PortId,
    ) -> Result<(PortId, ConnectionState), CrossbarError> {
        self.check_port(north)?;
        let (south, state) = self
            .circuit(north)
            .ok_or(CrossbarError::NotConnected(north))?;
        self.south_of[north as usize] = FREE;
        self.north_of[south as usize] = FREE;
        self.aligned[north as usize / 64] &= !(1 << (north % 64));
        self.count -= 1;
        Ok((south, state))
    }

    /// Marks a connecting circuit as aligned and carrying light.
    pub fn mark_connected(&mut self, north: PortId) -> Result<(), CrossbarError> {
        match self.circuit(north) {
            Some(_) => {
                self.aligned[north as usize / 64] |= 1 << (north % 64);
                Ok(())
            }
            None => Err(CrossbarError::NotConnected(north)),
        }
    }

    /// Looks up the circuit on a North port.
    pub fn circuit(&self, north: PortId) -> Option<(PortId, ConnectionState)> {
        let south = *self.south_of.get(north as usize)?;
        let aligned = (self.aligned[north as usize / 64] >> (north % 64)) & 1 == 1;
        match (south, aligned) {
            (FREE, _) => None,
            (_, true) => Some((south, ConnectionState::Connected)),
            (_, false) => Some((south, ConnectionState::Connecting)),
        }
    }

    /// The North port holding a South port, if any.
    pub fn south_owner(&self, south: PortId) -> Option<PortId> {
        self.north_of
            .get(south as usize)
            .copied()
            .filter(|&north| north != FREE)
    }

    /// Live `(north, south)` pairs in ascending north order.
    fn circuits(&self) -> impl Iterator<Item = (PortId, PortId)> + '_ {
        self.south_of
            .iter()
            .enumerate()
            .filter(|&(_, &south)| south != FREE)
            .map(|(north, &south)| (north as PortId, south))
    }

    /// The current configuration as a [`PortMapping`].
    pub fn mapping(&self) -> PortMapping {
        PortMapping {
            map: self.circuits().collect(),
        }
    }

    /// Computes the minimal delta from the current state to `target`.
    ///
    /// A circuit appears in `unchanged` only if the exact (north, south)
    /// pair survives — those ports will not be disturbed when the delta is
    /// applied. Everything else is torn down and re-established.
    pub fn delta_to(&self, target: &PortMapping) -> MappingDelta {
        let mut delta = MappingDelta::default();
        for (n, s) in self.circuits() {
            match target.get(n) {
                Some(ts) if ts == s => delta.unchanged.push((n, s)),
                _ => delta.remove.push(n),
            }
        }
        for (n, s) in target.pairs() {
            match self.circuit(n) {
                Some((cur, _)) if cur == s => {}
                _ => delta.add.push((n, s)),
            }
        }
        delta
    }

    /// Validates that `target` is applicable: all ports in range, bijective
    /// (guaranteed by construction of `PortMapping`).
    pub fn validate(&self, target: &PortMapping) -> Result<(), CrossbarError> {
        for (n, s) in target.pairs() {
            self.check_port(n)?;
            self.check_port(s)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_disconnect_roundtrip() {
        let mut xb = Crossbar::new(136);
        xb.connect(3, 77).unwrap();
        assert_eq!(xb.circuit(3), Some((77, ConnectionState::Connecting)));
        assert_eq!(xb.south_owner(77), Some(3));
        xb.mark_connected(3).unwrap();
        assert_eq!(xb.circuit(3), Some((77, ConnectionState::Connected)));
        assert_eq!(xb.disconnect(3).unwrap(), 77);
        assert_eq!(xb.circuit(3), None);
        assert_eq!(xb.south_owner(77), None);
    }

    #[test]
    fn port_conflicts_rejected() {
        let mut xb = Crossbar::new(136);
        xb.connect(1, 2).unwrap();
        assert_eq!(xb.connect(1, 50), Err(CrossbarError::NorthBusy(1)));
        assert_eq!(xb.connect(9, 2), Err(CrossbarError::SouthBusy(2)));
        assert_eq!(xb.connect(200, 0), Err(CrossbarError::PortOutOfRange(200)));
        assert_eq!(xb.disconnect(5), Err(CrossbarError::NotConnected(5)));
    }

    #[test]
    fn any_full_permutation_is_realizable() {
        // Strictly non-blocking: a full 136-circuit permutation connects.
        let mut xb = Crossbar::new(136);
        for i in 0..136u16 {
            xb.connect(i, (i * 7 + 3) % 136).unwrap();
        }
        assert_eq!(xb.circuit_count(), 136);
    }

    #[test]
    fn mapping_rejects_non_bijection() {
        let err = PortMapping::from_pairs([(0, 5), (1, 5)]).unwrap_err();
        assert_eq!(err, CrossbarError::NotBijective { south: 5 });
        let mut m = PortMapping::new();
        m.insert(0, 9).unwrap();
        assert!(m.insert(4, 9).is_err());
        // Re-inserting the same pair is fine.
        m.insert(0, 9).unwrap();
    }

    #[test]
    fn delta_preserves_untouched_circuits() {
        let mut xb = Crossbar::new(136);
        xb.connect(0, 10).unwrap();
        xb.connect(1, 11).unwrap();
        xb.connect(2, 12).unwrap();
        // Target: keep 0→10, move 1→20, drop 2, add 5→15.
        let target = PortMapping::from_pairs([(0, 10), (1, 20), (5, 15)]).unwrap();
        let delta = xb.delta_to(&target);
        assert_eq!(delta.unchanged, vec![(0, 10)]);
        assert_eq!(delta.remove, vec![1, 2]);
        assert_eq!(delta.add, vec![(1, 20), (5, 15)]);
    }

    #[test]
    fn delta_to_identical_mapping_is_empty() {
        let mut xb = Crossbar::new(8);
        xb.connect(0, 1).unwrap();
        xb.connect(2, 3).unwrap();
        let delta = xb.delta_to(&xb.mapping());
        assert!(delta.remove.is_empty());
        assert!(delta.add.is_empty());
        assert_eq!(delta.unchanged.len(), 2);
    }

    #[test]
    fn self_loop_north_to_same_index_south_allowed() {
        // N_i → S_i is a legitimate circuit (used for single-cube torus
        // wraparound in the superpod wiring).
        let mut xb = Crossbar::new(136);
        xb.connect(42, 42).unwrap();
        assert_eq!(xb.circuit(42), Some((42, ConnectionState::Connecting)));
    }

    #[test]
    fn mapping_is_deterministic_in_iteration_order() {
        let m = PortMapping::from_pairs([(5, 1), (0, 3), (2, 2)]).unwrap();
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![(0, 3), (2, 2), (5, 1)]);
    }

    #[test]
    fn out_of_range_ports_are_errors_not_panics() {
        // Palomar and the §6 300-port part; 65535 is the tables' "free".
        for ports in [136u16, 300] {
            let mut xb = Crossbar::new(ports as usize);
            xb.connect(0, ports - 1).unwrap();
            for p in [ports, 9999, u16::MAX] {
                assert_eq!(xb.circuit(p), None);
                assert_eq!(xb.south_owner(p), None);
                assert_eq!(xb.disconnect(p), Err(CrossbarError::PortOutOfRange(p)));
                assert_eq!(xb.mark_connected(p), Err(CrossbarError::NotConnected(p)));
                assert_eq!(xb.connect(p, 1), Err(CrossbarError::PortOutOfRange(p)));
                assert_eq!(xb.connect(1, p), Err(CrossbarError::PortOutOfRange(p)));
            }
            assert_eq!(xb.circuit_count(), 1);
            assert_eq!(xb.south_owner(ports - 1), Some(0));
            assert_eq!(xb.mapping().pairs().collect::<Vec<_>>(), [(0, ports - 1)]);
        }
    }

    #[test]
    fn the_largest_crossbar_keeps_the_sentinel_out_of_its_ports() {
        let mut xb = Crossbar::new(u16::MAX as usize);
        xb.connect(65534, 65534).unwrap();
        assert_eq!(xb.south_owner(65534), Some(65534));
        assert_eq!(xb.circuit(u16::MAX), None);
        assert_eq!(
            xb.connect(0, u16::MAX),
            Err(CrossbarError::PortOutOfRange(u16::MAX))
        );
    }

    #[test]
    #[should_panic(expected = "port count sane")]
    fn a_port_count_past_the_sentinel_is_refused() {
        let _ = Crossbar::new(u16::MAX as usize + 1);
    }
}
