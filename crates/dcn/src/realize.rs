//! Realizing a logical mesh on physical OCS hardware.
//!
//! The Fig. 1b architecture: every aggregation block runs one uplink fiber
//! pair to each switch of the OCS layer (the same "one port pair per
//! endpoint per switch" plan as the superpod — AB `i` owns North port `i`
//! and South port `i` on every OCS). A trunk between ABs `i` and `j` is a
//! circuit `North i → South j` on some switch where both ports are free;
//! `t` parallel trunks use `t` different switches.
//!
//! Consequences, both verified by tests:
//!  * any mesh whose per-AB degree fits the OCS-layer size is realizable
//!    (Hall-style greedy works because every switch looks the same);
//!  * re-engineering the topology for a new traffic matrix is a minimal
//!    delta — trunks present in both meshes never blink (§2.1's topology
//!    engineering on live traffic).

use crate::topology::Mesh;
use lightwave_fabric::{
    CommitError, CommitReport, FabricController, FabricTarget, OcsFleet, OcsId,
};
use lightwave_ocs::{CrossbarError, PortId, PortMapping};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why a mesh could not be mapped onto the OCS layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RealizeError {
    /// An AB's degree exceeds the number of switches (it has one port pair
    /// per switch).
    DegreeExceedsSwitches {
        /// The overloaded AB.
        ab: usize,
        /// Its degree.
        degree: usize,
        /// Switches available.
        switches: usize,
    },
    /// Greedy port assignment failed (should not happen within degree
    /// bounds; surfaced rather than panicking).
    AssignmentFailed {
        /// The unplaceable trunk.
        pair: (usize, usize),
    },
    /// Two legs of a placement (its fields are public, and it can be read
    /// from a document) share a port on one switch.
    PortClash {
        /// The switch.
        ocs: OcsId,
        /// What its crossbar refused.
        error: CrossbarError,
    },
    /// A leg of a placement is on a switch the placement's OCS layer does
    /// not have.
    NoSuchSwitch {
        /// The switch the leg names.
        ocs: OcsId,
        /// Switches the placement has.
        switches: usize,
    },
}

impl std::fmt::Display for RealizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealizeError::DegreeExceedsSwitches {
                ab,
                degree,
                switches,
            } => write!(
                f,
                "AB {ab} needs {degree} trunks but the OCS layer has only {switches} switches"
            ),
            RealizeError::AssignmentFailed { pair } => {
                write!(f, "could not place trunk {pair:?}")
            }
            RealizeError::PortClash { ocs, error } => {
                write!(f, "two legs share a port on switch {ocs}: {error:?}")
            }
            RealizeError::NoSuchSwitch { ocs, switches } => {
                write!(f, "a leg is on switch {ocs} of a {switches}-switch layer")
            }
        }
    }
}

impl std::error::Error for RealizeError {}

/// One physical leg of a trunk: the switch carrying it and its port
/// orientation (a trunk between ABs i < j may run North i → South j or,
/// `flipped`, North j → South i — physically identical, but the ports
/// differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrunkLeg {
    /// The switch.
    pub ocs: OcsId,
    /// Whether the higher-numbered AB takes the North port.
    pub flipped: bool,
}

/// A placement of a mesh onto the OCS layer: which switch carries each
/// parallel trunk of each AB pair.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeshPlacement {
    /// trunk assignments: (ab_i, ab_j) → legs carrying the trunks.
    /// (Serialized as an entry list: JSON maps require string keys.)
    #[serde(with = "trunk_map_serde")]
    pub trunks: BTreeMap<(usize, usize), Vec<TrunkLeg>>,
    /// Switches in the OCS layer.
    pub switches: usize,
}

/// Serde representation of the trunk map as a list of entries.
mod trunk_map_serde {
    use super::TrunkLeg;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::BTreeMap;

    type Map = BTreeMap<(usize, usize), Vec<TrunkLeg>>;

    pub(crate) fn serialize<S: Serializer>(map: &Map, ser: S) -> Result<S::Ok, S::Error> {
        let entries: Vec<(&(usize, usize), &Vec<TrunkLeg>)> = map.iter().collect();
        entries.serialize(ser)
    }

    pub(crate) fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<Map, D::Error> {
        let entries: Vec<((usize, usize), Vec<TrunkLeg>)> = Vec::deserialize(de)?;
        Ok(entries.into_iter().collect())
    }
}

impl MeshPlacement {
    /// Computes a placement for `mesh` on an OCS layer of `switches`
    /// switches. With a previous placement, each trunk stays on the
    /// switches it used whenever possible — what turns topology
    /// re-engineering into a minimal fabric delta (§2.1: changing the
    /// logical mesh must not blink the trunks that both meshes share).
    pub fn place(
        mesh: &Mesh,
        switches: usize,
        prev: Option<&MeshPlacement>,
    ) -> Result<MeshPlacement, RealizeError> {
        for i in 0..mesh.n() {
            let degree = mesh.degree(i);
            if degree > switches {
                return Err(RealizeError::DegreeExceedsSwitches {
                    ab: i,
                    degree,
                    switches,
                });
            }
        }
        // Per-switch occupancy of each AB's north/south port.
        let mut north_used = vec![vec![false; mesh.n()]; switches];
        let mut south_used = vec![vec![false; mesh.n()]; switches];
        let mut trunks = BTreeMap::new();
        // Place heaviest pairs first so parallel trunks find room.
        let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..mesh.n() {
            for j in (i + 1)..mesh.n() {
                let t = mesh.trunks(i, j);
                if t > 0 {
                    pairs.push((i, j, t));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        // Pass 1: pin every trunk to the legs the previous placement used
        // (capped at the new trunk count) — those circuits survive the
        // transaction untouched.
        let mut pinned: BTreeMap<(usize, usize), Vec<TrunkLeg>> = BTreeMap::new();
        if let Some(prev) = prev {
            for &(i, j, t) in &pairs {
                if let Some(old) = prev.trunks.get(&(i, j)) {
                    let keep: Vec<TrunkLeg> = old
                        .iter()
                        .copied()
                        .filter(|leg| (leg.ocs as usize) < switches)
                        .take(t)
                        .collect();
                    for leg in &keep {
                        let (n, s_) = if leg.flipped { (j, i) } else { (i, j) };
                        north_used[leg.ocs as usize][n] = true;
                        south_used[leg.ocs as usize][s_] = true;
                    }
                    pinned.insert((i, j), keep);
                }
            }
        }
        // Pass 2: fill the remainder greedily. A trunk is direction-free
        // physically (the circuit North i → South j and North j → South i
        // connect the same ABs), so try both orientations — this is what
        // makes greedy assignment complete in practice: each AB owns one
        // North and one South port per switch, so a switch can host two of
        // its trunks.
        for (i, j, t) in pairs {
            let mut assigned = pinned.remove(&(i, j)).unwrap_or_default();
            for s in 0..switches {
                if assigned.len() == t {
                    break;
                }
                if assigned.iter().any(|leg| leg.ocs as usize == s) {
                    continue;
                }
                if !north_used[s][i] && !south_used[s][j] {
                    north_used[s][i] = true;
                    south_used[s][j] = true;
                    assigned.push(TrunkLeg {
                        ocs: s as OcsId,
                        flipped: false,
                    });
                } else if !north_used[s][j] && !south_used[s][i] {
                    north_used[s][j] = true;
                    south_used[s][i] = true;
                    assigned.push(TrunkLeg {
                        ocs: s as OcsId,
                        flipped: true,
                    });
                }
            }
            if assigned.len() < t {
                return Err(RealizeError::AssignmentFailed { pair: (i, j) });
            }
            assigned.sort_unstable_by_key(|leg| leg.ocs);
            trunks.insert((i, j), assigned);
        }
        Ok(MeshPlacement { trunks, switches })
    }

    /// The fabric target realizing this placement. Refused if a leg is on
    /// a switch past the placement's `switches`, or if two legs share a
    /// port on one switch.
    pub fn fabric_target(&self) -> Result<FabricTarget, RealizeError> {
        let mut per_switch: BTreeMap<OcsId, Vec<(PortId, PortId)>> = BTreeMap::new();
        for (&(i, j), legs) in &self.trunks {
            for leg in legs {
                if leg.ocs as usize >= self.switches {
                    return Err(RealizeError::NoSuchSwitch {
                        ocs: leg.ocs,
                        switches: self.switches,
                    });
                }
                let (n, s) = if leg.flipped { (j, i) } else { (i, j) };
                per_switch
                    .entry(leg.ocs)
                    .or_default()
                    .push((n as PortId, s as PortId));
            }
        }
        let mut target = FabricTarget::new();
        for ocs in 0..self.switches as OcsId {
            let pairs = per_switch.remove(&ocs).unwrap_or_default();
            let mapping = PortMapping::from_pairs(pairs)
                .map_err(|error| RealizeError::PortClash { ocs, error })?;
            target.set(ocs, mapping);
        }
        Ok(target)
    }

    /// Total circuits.
    pub fn circuit_count(&self) -> usize {
        self.trunks.values().map(|v| v.len()).sum()
    }
}

/// A spine-free DCN running on live OCS hardware.
#[derive(Debug)]
pub struct DcnFabric {
    controller: FabricController,
    abs: usize,
    current: Option<MeshPlacement>,
}

impl DcnFabric {
    /// Builds an OCS layer of `switches` switches serving `abs`
    /// aggregation blocks.
    ///
    /// # Panics
    /// Panics if `abs` exceeds the 136-port switch radix.
    pub fn new(abs: usize, switches: usize, seed: u64) -> DcnFabric {
        assert!(
            abs <= lightwave_ocs::TOTAL_PORTS,
            "{abs} ABs exceed the switch radix"
        );
        DcnFabric {
            controller: FabricController::new(OcsFleet::build(switches, seed)),
            abs,
            current: None,
        }
    }

    /// The fabric controller (health, telemetry).
    pub fn controller(&self) -> &FabricController {
        &self.controller
    }

    /// Installs (or re-engineers to) `mesh`, committing the minimal delta
    /// against whatever is currently running. Refused unless the mesh
    /// covers exactly the ABs the fabric serves.
    pub fn install(&mut self, mesh: &Mesh) -> Result<CommitReport, DcnFabricError> {
        if mesh.n() != self.abs {
            return Err(DcnFabricError::AbCount {
                mesh: mesh.n(),
                fabric: self.abs,
            });
        }
        let switches = self.controller.fleet.len();
        let placement = MeshPlacement::place(mesh, switches, self.current.as_ref())
            .map_err(DcnFabricError::Realize)?;
        let target = placement.fabric_target().map_err(DcnFabricError::Realize)?;
        let report = self
            .controller
            .commit(&target)
            .map_err(DcnFabricError::Fabric)?;
        self.current = Some(placement);
        Ok(report)
    }

    /// Advances fabric time.
    pub fn advance(&mut self, dt: Nanos) {
        self.controller.advance(dt);
    }

    /// Whether every circuit is aligned.
    pub fn settled(&self) -> bool {
        self.controller.settled()
    }
}

/// Errors from [`DcnFabric::install`].
#[derive(Debug)]
pub enum DcnFabricError {
    /// The mesh covers another number of ABs than the fabric serves.
    AbCount {
        /// ABs in the mesh.
        mesh: usize,
        /// ABs the fabric serves.
        fabric: usize,
    },
    /// The mesh cannot be placed.
    Realize(RealizeError),
    /// The fabric rejected the transaction.
    Fabric(CommitError),
}

impl std::fmt::Display for DcnFabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DcnFabricError::AbCount { mesh, fabric } => {
                write!(f, "a mesh over {mesh} ABs on a fabric serving {fabric}")
            }
            DcnFabricError::Realize(e) => write!(f, "placement: {e}"),
            DcnFabricError::Fabric(e) => write!(f, "fabric: {e}"),
        }
    }
}

impl std::error::Error for DcnFabricError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::te::engineer;
    use crate::traffic::TrafficMatrix;

    #[test]
    fn uniform_mesh_places_and_installs() {
        let mesh = Mesh::uniform(16, 30);
        let placement = MeshPlacement::place(&mesh, 32, None).unwrap();
        assert_eq!(placement.circuit_count(), 16 * 30 / 2);
        let mut fabric = DcnFabric::new(16, 32, 1);
        let report = fabric.install(&mesh).unwrap();
        assert_eq!(report.added, 240);
        fabric.advance(Nanos::from_millis(400));
        assert!(fabric.settled());
    }

    #[test]
    fn placement_is_port_disjoint_per_switch() {
        let tm = TrafficMatrix::hotspot(12, 10.0, 5, 20.0, 7);
        let mesh = engineer(&tm, 22).unwrap();
        let placement = MeshPlacement::place(&mesh, 24, None).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for (&(i, j), legs) in &placement.trunks {
            for leg in legs {
                let (n, s) = if leg.flipped { (j, i) } else { (i, j) };
                assert!(
                    seen.insert((leg.ocs, 'n', n)),
                    "north port clash on switch {}",
                    leg.ocs
                );
                assert!(
                    seen.insert((leg.ocs, 's', s)),
                    "south port clash on switch {}",
                    leg.ocs
                );
            }
        }
    }

    #[test]
    fn degree_beyond_switch_count_rejected() {
        let mesh = Mesh::uniform(8, 40);
        match MeshPlacement::place(&mesh, 16, None) {
            Err(RealizeError::DegreeExceedsSwitches {
                degree, switches, ..
            }) => {
                assert!(degree > switches);
            }
            other => panic!("expected degree error, got {other:?}"),
        }
    }

    #[test]
    fn topology_engineering_on_live_traffic_is_minimal_delta() {
        // Install the uniform mesh, then re-engineer for a hotspot matrix:
        // trunks common to both meshes never blink.
        let mut fabric = DcnFabric::new(16, 32, 5);
        let uniform = Mesh::uniform(16, 30);
        fabric.install(&uniform).unwrap();
        fabric.advance(Nanos::from_millis(400));

        let tm = TrafficMatrix::hotspot(16, 10.0, 6, 25.0, 3);
        let engineered = engineer(&tm, 30).unwrap();
        let report = fabric.install(&engineered).unwrap();
        assert!(
            report.untouched > 50,
            "a TE shift preserves the shared floor trunks: {} untouched",
            report.untouched
        );
        assert!(
            report.added > 0 && report.removed > 0,
            "and actually moves capacity"
        );
        fabric.advance(Nanos::from_millis(400));
        assert!(fabric.settled());
    }

    #[test]
    fn reinstalling_same_mesh_is_a_noop() {
        let mut fabric = DcnFabric::new(8, 16, 9);
        let mesh = Mesh::uniform(8, 14);
        fabric.install(&mesh).unwrap();
        fabric.advance(Nanos::from_millis(400));
        let report = fabric.install(&mesh).unwrap();
        assert_eq!(report.added, 0);
        assert_eq!(report.removed, 0);
        assert_eq!(report.untouched, 8 * 14 / 2);
    }

    #[test]
    fn fabric_expansion_pay_as_you_grow() {
        // §2.1 "Fabric Expansion": start with 8 ABs, later densify the
        // mesh — no forklift, just more circuits.
        let mut fabric = DcnFabric::new(8, 16, 11);
        fabric.install(&Mesh::uniform(8, 7)).unwrap();
        fabric.advance(Nanos::from_millis(400));
        let before = fabric.controller().fleet.health().circuits;
        let report = fabric.install(&Mesh::uniform(8, 14)).unwrap();
        assert!(report.untouched > 0, "existing trunks keep carrying");
        fabric.advance(Nanos::from_millis(400));
        let after = fabric.controller().fleet.health().circuits;
        assert!(after > before);
    }
}
