//! A lazily fabricated optical core against its oracle (DESIGN §6.8,
//! "Matter is lazy").
//!
//! `PalomarOcs` builds its optical core on the first read and, until then,
//! answers `health().mirror_spares` from the qualification draws alone.
//! `oracle::eager_switch` is what it replaced — the core built with the
//! switch — kept as the reference. The two run as twins through the same
//! arbitrary interleaving of circuit operations, advances, mirror and FRU
//! faults, and of the reads that may or may not build the core (`health`,
//! `insertion_loss`, `drift_report`, `optical_core`), at 136 and at 300
//! ports. After every step they must show the same health, circuits, ready
//! bits, telemetry (counters, and alarms with their timestamps), drift log
//! and `next_due`; at the end the same optical core, and alignment RNGs at
//! the same position.
//!
//! Losses are compared by the `Losses` read, and after every step from the
//! first operation on that must have built the lazy switch's core anyway:
//! comparing them earlier would build it, and every case would test the
//! eager switch against itself.
//!
//! `tests/vectors/optical_core.json` pins what is fabricated: captured on
//! `79e1d37`, the last commit whose constructor fabricated, by a scratch
//! test printing the length and FNV-1a-64 of `format!("{:?}",
//! OpticalCore::fabricate(ports, seed))` and the dies' `spares_remaining()`.

#[path = "oracle/eager_core.rs"]
mod oracle;

use lightwave::fabric::OcsFleet;
use lightwave::ocs::loss::OpticalCore;
use lightwave::ocs::{PalomarOcs, PortId};
use lightwave::units::{Db, Nanos};
use oracle::eager_switch;
use proptest::prelude::*;
use serde::Deserialize;
use std::collections::BTreeMap;

/// A few ports per HV group of the 136-port part, so operations collide
/// often; scaled by the radix they reach the far end of the 300-port part
/// too. The spare pair (134, 135) is the RNG probe's: no operation names
/// it at either radix.
const PORTS: [usize; 12] = [0, 1, 2, 3, 33, 34, 35, 67, 68, 101, 102, 129];

/// Every fault an operation injects names a port and a slot the switch
/// has: a refusal here is a failure.
const IN_RANGE: &str = "a port and a slot the switch has";

#[derive(Debug, Clone, Copy)]
enum Op {
    Connect(usize, usize),
    Disconnect(usize),
    /// One incremental reconfiguration drawn from `salt` against the live
    /// circuits: up to two removals, up to three additions on free ports.
    ApplyDelta(u64),
    AdvanceMicros(u64),
    FailMirror(bool, usize),
    /// Fails the port's mirror until the die has no spare left: the next
    /// failure kills the port.
    BurnSpares(bool, usize),
    DegradeMirror(bool, usize),
    FailFru(usize),
    ReplaceFru(usize),
    /// `health()` is compared after every step; this reads it twice more.
    Health,
    /// `insertion_loss` of every live circuit, and of an idle port.
    Losses,
    DriftReport,
    Core,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let port = || 0usize..PORTS.len();
    let connect = || (port(), port()).prop_map(|(n, s)| Op::Connect(n, s));
    let advance = || {
        prop_oneof![
            Just(0u64),
            Just(1u64),
            1u64..40_000,
            1_000_000u64..3_000_000
        ]
        .prop_map(Op::AdvanceMicros)
    };
    let fail = || (any::<bool>(), port()).prop_map(|(north, p)| Op::FailMirror(north, p));
    let degrade = || (any::<bool>(), port()).prop_map(|(north, p)| Op::DegradeMirror(north, p));
    prop_oneof![
        connect(),
        connect(),
        connect(),
        port().prop_map(Op::Disconnect),
        any::<u64>().prop_map(Op::ApplyDelta),
        any::<u64>().prop_map(Op::ApplyDelta),
        advance(),
        advance(),
        advance(),
        fail(),
        fail(),
        (any::<bool>(), port()).prop_map(|(north, p)| Op::BurnSpares(north, p)),
        degrade(),
        degrade(),
        (0usize..16).prop_map(Op::FailFru),
        (0usize..16).prop_map(Op::ReplaceFru),
        Just(Op::Health),
        Just(Op::Health),
        Just(Op::Losses),
        Just(Op::DriftReport),
        Just(Op::Core),
    ]
}

/// The switch under test and its eagerly built twin.
struct Twins {
    lazy: PalomarOcs,
    eager: PalomarOcs,
    ports: usize,
    /// Some operation so far had to build the lazy switch's core.
    built: bool,
    /// Spares left `(north, south)`, kept by the test: as built, less one
    /// per mirror failed while any were left. The twins share `health()`,
    /// so agreeing with each other is not enough.
    spares: (usize, usize),
}

impl Twins {
    fn new(seed: u64, ports: usize) -> Twins {
        Twins {
            lazy: PalomarOcs::with_ports(3, seed, ports),
            eager: eager_switch(3, seed, ports),
            ports,
            built: false,
            spares: OpticalCore::spares_as_built(ports, seed),
        }
    }

    fn spares_of(&mut self, north: bool) -> &mut usize {
        if north {
            &mut self.spares.0
        } else {
            &mut self.spares.1
        }
    }

    fn port(&self, i: usize) -> PortId {
        (PORTS[i] * self.ports / 136) as PortId
    }

    /// Runs `f` on both switches; the results must be equal.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        f: impl Fn(&mut PalomarOcs) -> T,
    ) -> Result<T, TestCaseError> {
        let got = f(&mut self.lazy);
        prop_assert_eq!(&got, &f(&mut self.eager));
        Ok(got)
    }

    fn delta(&self, salt: u64) -> (Vec<(PortId, PortId)>, Vec<PortId>) {
        let mut bits = salt;
        let mut draw = |n: usize| {
            bits = bits.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (bits >> 33) as usize % n
        };
        let mut live: BTreeMap<PortId, PortId> = self.eager.mapping().pairs().collect();
        let (mut add, mut remove) = (Vec::new(), Vec::new());
        for _ in 0..draw(3).min(live.len()) {
            let n = *live.keys().nth(draw(live.len())).expect("nth < len");
            live.remove(&n);
            remove.push(n);
        }
        for _ in 0..draw(4) {
            let (n, s) = (self.port(draw(PORTS.len())), self.port(draw(PORTS.len())));
            if !live.contains_key(&n) && live.values().all(|&t| t != s) {
                live.insert(n, s);
                add.push((n, s));
            }
        }
        (add, remove)
    }

    fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Connect(n, s) => {
                let (n, s) = (self.port(n), self.port(s));
                self.both(|ocs| ocs.connect(n, s)).map(drop)?;
            }
            Op::Disconnect(n) => {
                let n = self.port(n);
                self.both(|ocs| ocs.disconnect(n)).map(drop)?;
            }
            Op::ApplyDelta(salt) => {
                let (add, remove) = self.delta(salt);
                self.both(|ocs| ocs.apply_delta(&add, &remove)).map(drop)?;
            }
            Op::AdvanceMicros(us) => self.both(|ocs| ocs.advance(Nanos(us * 1_000)))?,
            Op::FailMirror(north, p) => {
                let p = self.port(p);
                self.both(|ocs| ocs.fail_mirror(north, p).expect(IN_RANGE))?;
                let spares = self.spares_of(north);
                *spares = spares.saturating_sub(1);
                self.built = true;
            }
            Op::BurnSpares(north, p) => {
                let p = self.port(p);
                let spares = std::mem::take(self.spares_of(north));
                self.both(|ocs| {
                    (0..spares).for_each(|_| ocs.fail_mirror(north, p).expect(IN_RANGE))
                })?;
                self.built = true;
            }
            Op::DegradeMirror(north, p) => {
                let p = self.port(p);
                self.both(|ocs| ocs.degrade_mirror(north, p, 0.02).expect(IN_RANGE))?;
                self.built = true;
            }
            Op::FailFru(slot) => self.both(|ocs| ocs.fail_fru(slot).expect(IN_RANGE))?,
            Op::ReplaceFru(slot) => self.both(|ocs| ocs.replace_fru(slot).expect(IN_RANGE))?,
            Op::Health => {
                self.both(|ocs| (ocs.health(), ocs.health()))?;
            }
            Op::Losses => {
                self.built |= !self.eager.mapping().is_empty();
                self.same_losses()?;
            }
            Op::DriftReport => {
                self.both(|ocs| (ocs.drift_report(Db(0.01)), ocs.drift_report(Db(-1.0)).len()))?;
                self.built = true;
            }
            Op::Core => {
                prop_assert_eq!(self.lazy.optical_core(), self.eager.optical_core());
                self.built = true;
            }
        }
        self.same_state()
    }

    fn same_losses(&self) -> Result<(), TestCaseError> {
        for (n, _) in self.eager.mapping().pairs() {
            prop_assert_eq!(
                self.lazy.insertion_loss(n),
                self.eager.insertion_loss(n),
                "north {}",
                n
            );
        }
        prop_assert_eq!(self.lazy.insertion_loss(134), None);
        Ok(())
    }

    /// Everything the twins must agree on between calls.
    fn same_state(&self) -> Result<(), TestCaseError> {
        let (a, b) = (&self.lazy, &self.eager);
        prop_assert_eq!(a.health(), b.health());
        prop_assert_eq!(a.health().mirror_spares, self.spares);
        prop_assert_eq!(a.mapping(), b.mapping());
        prop_assert_eq!(a.telemetry(), b.telemetry());
        prop_assert_eq!(a.drift_log(), b.drift_log());
        prop_assert_eq!((a.now(), a.next_due()), (b.now(), b.next_due()));
        for (n, _) in b.mapping().pairs() {
            prop_assert_eq!(a.circuit_ready(n), b.circuit_ready(n), "north {}", n);
        }
        if self.built {
            self.same_losses()?;
        }
        Ok(())
    }

    /// The end of a case: the same matter, whenever it was built, and
    /// alignment streams that fabrication did not touch. Heals both
    /// chassis, then reads the position of each alignment RNG as the ready
    /// times of 10 000 connect/disconnect rounds on the spare pair, where
    /// the rare four- and six-frame alignments fall on rounds that depend
    /// on every draw before them (`rng_probe` in `tests/ocs_dataplane.rs`).
    fn same_matter_and_streams(&mut self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.lazy.optical_core(), self.eager.optical_core());
        self.built = true;
        self.both(|ocs| (0..16).for_each(|slot| ocs.replace_fru(slot).expect(IN_RANGE)))?;
        self.both(|ocs| {
            let round = |_| {
                let ready = ocs.connect(134, 135).expect("the spare pair is free");
                ocs.disconnect(134).expect("just connected");
                ready
            };
            (0..10_000).map(round).collect::<Vec<Nanos>>()
        })?;
        self.same_state()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Step by step, a switch that builds its core when first asked and
    /// one that built it at birth return equal results and show equal
    /// state.
    #[test]
    fn lazy_core_matches_the_eager_reference_under_arbitrary_interleavings(
        seed in 0u64..4096,
        ports in prop_oneof![Just(136usize), Just(300usize)],
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let mut twins = Twins::new(seed, ports);
        twins.same_state()?;
        for &op in &ops {
            twins.step(op)?;
        }
        let faulted = ops.iter().any(|op| {
            matches!(op, Op::FailMirror(..) | Op::BurnSpares(..) | Op::DegradeMirror(..))
        });
        if !faulted {
            prop_assert_eq!(twins.lazy.optical_core(), &OpticalCore::fabricate(ports, seed));
        }
        twins.same_matter_and_streams()?;
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Deserialize)]
struct CoreVector {
    ports: usize,
    seed: u64,
    debug_len: usize,
    debug_fnv1a: u64,
    spares: (usize, usize),
}

#[derive(Deserialize)]
struct Vectors {
    cores: Vec<CoreVector>,
    fleet_48_seed_17: Vec<(usize, usize)>,
}

/// What is fabricated, and what is counted without fabricating, is what
/// the parent fabricated: every float of ten cores, and the spares of the
/// 48 switches of a pod.
#[test]
fn optical_core_matches_the_parent_capture() {
    let vectors: Vectors =
        serde_json::from_str(include_str!("vectors/optical_core.json")).expect("vector parses");
    assert_eq!(vectors.cores.len(), 10);
    for v in &vectors.cores {
        let core = OpticalCore::fabricate(v.ports, v.seed);
        let debug = format!("{core:?}");
        assert_eq!(
            (debug.len(), fnv1a(debug.as_bytes())),
            (v.debug_len, v.debug_fnv1a),
            "{} ports, seed {}",
            v.ports,
            v.seed
        );
        let dies = (
            core.die_north.spares_remaining(),
            core.die_south.spares_remaining(),
        );
        assert_eq!(dies, v.spares);
        assert_eq!(OpticalCore::spares_as_built(v.ports, v.seed), v.spares);
        assert_eq!(
            PalomarOcs::with_ports(0, v.seed, v.ports).optical_core(),
            &core
        );
    }
    let fleet = OcsFleet::build(48, 17);
    let spares: Vec<(usize, usize)> = fleet
        .iter()
        .map(|(_, ocs)| ocs.health().mirror_spares)
        .collect();
    assert_eq!(spares, vectors.fleet_48_seed_17);
}
