//! The OCS data plane against its oracles.
//!
//! The switch keeps its circuits in flat per-port tables, validates a
//! delta once per commit and decides most camera alignments without
//! evaluating a single normal. None of that may show in sim time:
//!
//! - (a) any operation sequence leaves a switch exactly where a small
//!   `BTreeMap` model of the same state machine (with the exact alignment
//!   loop) ends up — every result, mapping, health field, ready bit and
//!   counter;
//! - (b) the prepared `AlignmentKernel` returns what `converge` returns
//!   and leaves the generator where `converge` leaves it, and decides all
//!   but a pinned share of default alignments itself;
//! - (c) a fixed 200-transaction script reproduces the ready times
//!   captured before the tables went flat (`tests/vectors/ocs_ready_at.json`);
//! - a multi-switch commit that fails validation on a late switch leaves
//!   no trace on any switch, RNG stream included, and a validation the
//!   switch has outlived is repeated, never trusted.

use lightwave::fabric::{CommitError, FabricController, FabricDelta, OcsFleet};
use lightwave::ocs::camera::{AlignmentLoop, ALIGNMENT_TOLERANCE};
use lightwave::ocs::telemetry::Counters;
use lightwave::ocs::{
    CrossbarError, OcsError, OcsHealth, PalomarOcs, PortId, PortMapping, ReconfigReport,
};
use lightwave::units::Nanos;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

// ---- (a) the reference model -------------------------------------------

/// The switch's state machine the obvious way: ordered maps, a sort for
/// duplicates, a scan for every question, and the exact camera loop.
struct Model {
    ports: usize,
    now: Nanos,
    rng: StdRng,
    /// north → (south, aligned).
    circuits: BTreeMap<PortId, (PortId, bool)>,
    /// north → ready time.
    pending: BTreeMap<PortId, Nanos>,
    failed_slots: [bool; 16],
    dead: BTreeSet<PortId>,
    spares: (usize, usize),
    counters: Counters,
}

impl Model {
    fn new(seed: u64, ports: usize, spares: (usize, usize)) -> Model {
        Model {
            ports,
            now: Nanos(0),
            rng: StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0),
            circuits: BTreeMap::new(),
            pending: BTreeMap::new(),
            failed_slots: [false; 16],
            dead: BTreeSet::new(),
            spares,
            counters: Counters::default(),
        }
    }

    /// Slots: 0–1 PSUs (one needed), 2–5 fans (three needed), 6–13 HV
    /// drivers, 14 CPU, 15 FPGA.
    fn operational(&self) -> bool {
        let healthy =
            |slots: std::ops::Range<usize>| slots.filter(|&i| !self.failed_slots[i]).count();
        healthy(0..2) >= 1 && healthy(2..6) >= 3 && healthy(14..16) == 2
    }

    /// Each die's four HV drivers drive a quarter of the ports each,
    /// rounded up: 34 on the 136-port part, 75 on the 300-port one.
    fn group(&self, p: PortId) -> usize {
        p as usize / self.ports.div_ceil(4)
    }

    fn degraded(&self, p: PortId) -> bool {
        let group = self.group(p);
        self.dead.contains(&p)
            || ((p as usize) < self.ports
                && (self.failed_slots[6 + group] || self.failed_slots[10 + group]))
    }

    fn usable(&self, p: PortId) -> Result<(), OcsError> {
        if self.degraded(p) {
            return Err(OcsError::PortDegraded(p));
        }
        Ok(())
    }

    fn in_range(&self, p: PortId) -> Result<(), OcsError> {
        if p as usize >= self.ports {
            return Err(CrossbarError::PortOutOfRange(p).into());
        }
        Ok(())
    }

    fn south_owner(&self, s: PortId) -> Option<PortId> {
        self.circuits
            .iter()
            .find(|(_, &(t, _))| t == s)
            .map(|(&n, _)| n)
    }

    fn align(&mut self, n: PortId) -> Nanos {
        self.counters.alignments += 1;
        let mut elapsed = Nanos(0);
        for _ in 0..3 {
            let run = AlignmentLoop::default().converge(ALIGNMENT_TOLERANCE, &mut self.rng);
            elapsed += run.switching_time;
            if run.converged {
                break;
            }
            self.counters.alignment_failures += 1;
        }
        self.pending.insert(n, self.now + elapsed);
        self.now + elapsed
    }

    fn establish(&mut self, n: PortId, s: PortId) -> Result<Nanos, OcsError> {
        self.in_range(n)?;
        self.in_range(s)?;
        if self.circuits.contains_key(&n) {
            return Err(CrossbarError::NorthBusy(n).into());
        }
        if self.south_owner(s).is_some() {
            return Err(CrossbarError::SouthBusy(s).into());
        }
        self.circuits.insert(n, (s, false));
        let ready = self.align(n);
        self.counters.connects += 1;
        Ok(ready)
    }

    fn connect(&mut self, n: PortId, s: PortId) -> Result<Nanos, OcsError> {
        if !self.operational() {
            return Err(OcsError::ChassisDown);
        }
        self.usable(n)?;
        self.usable(s)?;
        self.establish(n, s)
    }

    fn disconnect(&mut self, n: PortId) -> Result<(), OcsError> {
        self.in_range(n)?;
        if self.circuits.remove(&n).is_none() {
            return Err(CrossbarError::NotConnected(n).into());
        }
        self.pending.remove(&n);
        self.counters.disconnects += 1;
        Ok(())
    }

    fn validate_delta(&self, add: &[(PortId, PortId)], remove: &[PortId]) -> Result<(), OcsError> {
        if !self.operational() {
            return Err(OcsError::ChassisDown);
        }
        for n in remove {
            if !self.circuits.contains_key(n) {
                return Err(CrossbarError::NotConnected(*n).into());
            }
        }
        for &(n, s) in add {
            self.in_range(n)?;
            self.in_range(s)?;
            self.usable(n)?;
            self.usable(s)?;
            if self.circuits.contains_key(&n) && !remove.contains(&n) {
                return Err(CrossbarError::NorthBusy(n).into());
            }
            if self
                .south_owner(s)
                .is_some_and(|owner| !remove.contains(&owner))
            {
                return Err(CrossbarError::SouthBusy(s).into());
            }
        }
        let twice = |mut ports: Vec<PortId>| {
            ports.sort_unstable();
            ports.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
        };
        if let Some(n) = twice(remove.to_vec()) {
            return Err(CrossbarError::NotConnected(n).into());
        }
        if let Some(n) = twice(add.iter().map(|&(n, _)| n).collect()) {
            return Err(CrossbarError::NorthBusy(n).into());
        }
        if let Some(south) = twice(add.iter().map(|&(_, s)| s).collect()) {
            return Err(CrossbarError::NotBijective { south }.into());
        }
        Ok(())
    }

    fn apply_delta(
        &mut self,
        add: &[(PortId, PortId)],
        remove: &[PortId],
    ) -> Result<ReconfigReport, OcsError> {
        self.validate_delta(add, remove)?;
        let untouched = self.circuits.len() - remove.len();
        self.reconfigure(add.to_vec(), remove.to_vec(), untouched)
    }

    fn apply_mapping(&mut self, target: &PortMapping) -> Result<ReconfigReport, OcsError> {
        if !self.operational() {
            return Err(OcsError::ChassisDown);
        }
        for (n, s) in target.pairs() {
            self.in_range(n)?;
            self.in_range(s)?;
        }
        let kept = |n: &PortId, s: PortId| target.get(*n) == Some(s);
        let remove: Vec<PortId> = self
            .circuits
            .iter()
            .filter(|(n, &(s, _))| !kept(n, s))
            .map(|(&n, _)| n)
            .collect();
        let add: Vec<(PortId, PortId)> = target
            .pairs()
            .filter(|&(n, s)| self.circuits.get(&n).map(|&(cur, _)| cur) != Some(s))
            .collect();
        for &(n, s) in &add {
            self.usable(n)?;
            self.usable(s)?;
        }
        let untouched = self.circuits.len() - remove.len();
        self.reconfigure(add, remove, untouched)
    }

    fn reconfigure(
        &mut self,
        add: Vec<(PortId, PortId)>,
        remove: Vec<PortId>,
        untouched: usize,
    ) -> Result<ReconfigReport, OcsError> {
        for &n in &remove {
            self.disconnect(n).expect("validated");
        }
        let mut ready_at = self.now;
        for &(n, s) in &add {
            ready_at = ready_at.max(self.establish(n, s).expect("validated"));
        }
        self.counters.reconfigs += 1;
        self.counters.circuits_preserved += untouched as u64;
        Ok(ReconfigReport {
            removed: remove,
            added: add,
            untouched,
            ready_at,
        })
    }

    fn advance(&mut self, dt: Nanos) {
        self.now += dt;
        let now = self.now;
        self.pending.retain(|_, ready| *ready > now);
        for (n, (_, aligned)) in &mut self.circuits {
            *aligned |= !self.pending.contains_key(n);
        }
    }

    fn fail_mirror(&mut self, north_die: bool, port: PortId) -> Result<(), OcsError> {
        if port as usize >= self.ports {
            return Err(CrossbarError::PortOutOfRange(port).into());
        }
        self.counters.mirror_failures += 1;
        let spares = if north_die {
            &mut self.spares.0
        } else {
            &mut self.spares.1
        };
        if *spares == 0 {
            self.dead.insert(port);
            return Ok(());
        }
        *spares -= 1;
        self.counters.spares_consumed += 1;
        let affected = if north_die {
            Some(port)
        } else {
            self.south_owner(port)
        };
        if let Some(n) = affected.filter(|n| self.circuits.contains_key(n)) {
            self.realign(n);
        }
        Ok(())
    }

    fn realign(&mut self, n: PortId) {
        self.circuits.get_mut(&n).expect("live").1 = false;
        self.align(n);
    }

    fn fail_fru(&mut self, slot: usize) -> Result<(), OcsError> {
        *self
            .failed_slots
            .get_mut(slot)
            .ok_or(OcsError::SlotOutOfRange(slot))? = true;
        Ok(())
    }

    fn replace_fru(&mut self, slot: usize) -> Result<(), OcsError> {
        *self
            .failed_slots
            .get_mut(slot)
            .ok_or(OcsError::SlotOutOfRange(slot))? = false;
        let disturbed: Vec<PortId> = match slot {
            6..=13 => (0..self.ports as PortId)
                .filter(|&p| self.group(p) == (slot - 6) % 4)
                .collect(),
            15 => (0..self.ports as PortId).collect(),
            _ => Vec::new(),
        };
        for n in disturbed {
            if self.circuits.contains_key(&n) {
                self.realign(n);
            }
        }
        Ok(())
    }

    fn health(&self) -> OcsHealth {
        OcsHealth {
            operational: self.operational(),
            circuits: self.circuits.len(),
            pending: self.pending.len(),
            degraded_ports: (0..self.ports as PortId)
                .filter(|&p| self.degraded(p))
                .collect(),
            mirror_spares: self.spares,
            power_w: (62.0 + 0.33 * self.circuits.len() as f64).min(108.0),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Connect(PortId, PortId),
    Disconnect(PortId),
    ApplyDelta {
        add: Vec<(PortId, PortId)>,
        remove: Vec<PortId>,
        /// Validate first, as a commit does — or apply cold.
        validate: bool,
    },
    ApplyMapping(Vec<(PortId, PortId)>),
    Advance(u64),
    FailMirror(bool, PortId),
    FailFru(usize),
    ReplaceFru(usize),
}

/// A handful of ports per HV group of either radix (so they collide
/// often), the edges of both radices, and ports no switch has. The first
/// fifteen are ports of both.
const PORTS: [PortId; 26] = [
    0, 1, 2, 3, 33, 34, 35, 67, 68, 74, 75, 101, 102, 134, 135, 136, 137, 149, 150, 224, 225, 298,
    299, 300, 9999, 65535,
];

fn port() -> impl Strategy<Value = PortId> {
    (0usize..PORTS.len()).prop_map(|i| PORTS[i])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pairs = || collection::vec((port(), port()), 0..5);
    let connect = || (port(), port()).prop_map(|(n, s)| Op::Connect(n, s));
    let delta = || {
        (pairs(), collection::vec(port(), 0..4), any::<bool>()).prop_map(
            |(add, remove, validate)| Op::ApplyDelta {
                add,
                remove,
                validate,
            },
        )
    };
    // Connects and deltas twice: they are what the tables are for.
    prop_oneof![
        connect(),
        connect(),
        port().prop_map(Op::Disconnect),
        delta(),
        delta(),
        pairs().prop_map(Op::ApplyMapping),
        (0u64..30).prop_map(|ms| Op::Advance(ms * 1_000_000)),
        // Ports and slots past the switch's own too: refused, as the
        // model refuses them.
        (any::<bool>(), port()).prop_map(|(north, p)| Op::FailMirror(north, p)),
        (0usize..18).prop_map(Op::FailFru),
        (0usize..18).prop_map(Op::ReplaceFru),
    ]
}

fn run_against_model(seed: u64, ports: usize, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut ocs = PalomarOcs::with_ports(7, seed, ports);
    let mut model = Model::new(seed, ports, ocs.health().mirror_spares);
    for (step, op) in ops.into_iter().enumerate() {
        match op.clone() {
            Op::Connect(n, s) => prop_assert_eq!(ocs.connect(n, s), model.connect(n, s)),
            Op::Disconnect(n) => prop_assert_eq!(ocs.disconnect(n), model.disconnect(n)),
            Op::ApplyDelta {
                add,
                remove,
                validate,
            } => {
                if validate {
                    prop_assert_eq!(
                        ocs.validate_delta(&add, &remove),
                        model.validate_delta(&add, &remove)
                    );
                }
                prop_assert_eq!(
                    ocs.apply_delta(&add, &remove),
                    model.apply_delta(&add, &remove)
                );
            }
            Op::ApplyMapping(pairs) => {
                let Ok(target) = PortMapping::from_pairs(pairs) else {
                    continue;
                };
                // The fabric's full-target commit on one switch: the
                // switch's diff, applied as a delta.
                let committed = ocs
                    .delta_to(&target)
                    .and_then(|delta| ocs.apply_delta(&delta.add, &delta.remove));
                prop_assert_eq!(committed, model.apply_mapping(&target));
            }
            Op::Advance(ns) => {
                ocs.advance(Nanos(ns));
                model.advance(Nanos(ns));
            }
            Op::FailMirror(north, p) => {
                prop_assert_eq!(ocs.fail_mirror(north, p), model.fail_mirror(north, p));
            }
            Op::FailFru(slot) => prop_assert_eq!(ocs.fail_fru(slot), model.fail_fru(slot)),
            Op::ReplaceFru(slot) => {
                prop_assert_eq!(ocs.replace_fru(slot), model.replace_fru(slot))
            }
        }
        let mapping: Vec<_> = ocs.mapping().pairs().collect();
        let expected: Vec<_> = model.circuits.iter().map(|(&n, &(s, _))| (n, s)).collect();
        prop_assert_eq!(mapping, expected, "mapping after step {} ({:?})", step, op);
        prop_assert_eq!(
            ocs.health(),
            model.health(),
            "health after step {} ({:?})",
            step,
            op
        );
        prop_assert_eq!(
            ocs.telemetry().counters,
            model.counters,
            "counters after step {}",
            step
        );
        prop_assert_eq!(ocs.is_up(), model.operational());
        for &p in &PORTS {
            let aligned = model.circuits.get(&p).is_some_and(|&(_, aligned)| aligned);
            prop_assert_eq!(
                ocs.circuit_ready(p),
                aligned,
                "port {} after step {} ({:?})",
                p,
                step,
                op
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn palomar_matches_the_btreemap_model(
        seed in 0u64..1_000,
        ops in collection::vec(op_strategy(), 1..80),
    ) {
        run_against_model(seed, 136, ops)?;
    }

    /// The §6 300-port part: ports 136..300 exist, and each HV group
    /// drives 75 ports.
    #[test]
    fn the_300_port_part_matches_the_model(
        seed in 0u64..1_000,
        ops in collection::vec(op_strategy(), 1..80),
    ) {
        run_against_model(seed, 300, ops)?;
    }
}

// ---- (b) the alignment differential ------------------------------------

/// The prepared kernel against `converge` on twin generators, `calls`
/// times back to back; after every call both must also draw the same next
/// word. Returns how many calls the fast path left undecided.
fn alignment_differential(loop_: AlignmentLoop, tolerance: f64, seed: u64, calls: u32) -> u32 {
    let kernel = loop_.prepare(tolerance);
    let mut fast = StdRng::seed_from_u64(seed);
    let mut exact = StdRng::seed_from_u64(seed);
    let mut undecided = 0;
    for call in 0..calls {
        undecided += u32::from(kernel.decide(&mut fast.clone()).is_none());
        let got = kernel.run(&mut fast);
        let want = loop_.converge(tolerance, &mut exact);
        assert_eq!(
            got,
            (want.frames, want.converged),
            "call {call} of {loop_:?} at tolerance {tolerance}"
        );
        assert_eq!(
            fast.next_u64(),
            exact.next_u64(),
            "stream position after call {call}"
        );
    }
    undecided
}

#[test]
fn the_kernel_is_converge_over_a_million_alignments() {
    // ≈ 10 M raw draws at the parameters every switch uses.
    let undecided = alignment_differential(
        AlignmentLoop::default(),
        ALIGNMENT_TOLERANCE,
        0x5EED,
        1_000_000,
    );
    // 0.80 % when written. A margin edit that sends every call to the exact
    // loop is a 10× per-circuit cliff that no equality above can see.
    assert!(
        (1..=15_000).contains(&undecided),
        "{undecided} of 10⁶ default alignments fell back to the exact loop"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any loop `converge` accepts: ones the noise defeats, ones with no
    /// noise, frame budgets below the stop frame, and tolerances a hair
    /// either side of a power of `1 − gain` (the fast path serves few of
    /// these; preparing them must not panic and running them must agree).
    #[test]
    fn the_kernel_is_converge_for_any_loop(
        seed in any::<u64>(),
        gain in 0.02f64..0.98,
        noise in prop_oneof![Just(0.0), 1e-5f64..1e-2, 1e-2f64..0.6],
        tolerance in prop_oneof![1e-4f64..1e-2, 1e-2f64..0.9],
        // 0: `tolerance` as drawn; k: the k-th power of `1 − gain`, `hair` off.
        power in prop_oneof![Just(0i32), 1i32..8],
        hair in -2e-9f64..2e-9,
        max_frames in prop_oneof![0u32..4, 4u32..80],
    ) {
        let tolerance = match power {
            0 => tolerance,
            k => ((1.0 - gain).powi(k) + hair).clamp(1e-9, 0.999),
        };
        let loop_ = AlignmentLoop {
            gain,
            noise_floor: noise,
            max_frames,
            ..AlignmentLoop::default()
        };
        alignment_differential(loop_, tolerance, seed, 300);
    }
}

// ---- (c) the golden ready-time vector ----------------------------------

/// One transaction of the golden script, as the fabric reported it.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct GoldenTxn {
    /// `(switch, ready_at ns)` per touched switch; empty when rejected.
    ready_at: Vec<(u32, u64)>,
    /// `CommitReport::traffic_ready_at`, ns; 0 when rejected.
    traffic_ready_at: u64,
    /// The rejection, as `CommitError` displays it.
    error: Option<String>,
}

/// The golden vector: the script's transactions, then every switch's RNG
/// probe (`(switch, round, ready − now)` of each unusual round).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Golden {
    transactions: Vec<GoldenTxn>,
    probe: Vec<(u32, u32, u64)>,
}

/// splitmix64: the script's only randomness, so the vector depends on
/// nothing but this file and the switches' own RNG streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed 200-transaction script on `OcsFleet::build(48, 17)`: deltas
/// over 1–16 switches that move, add and remove circuits while earlier
/// ones are still aligning, with mirror failures (spare swaps re-align and
/// draw from the switch's RNG), HV-driver failures and replacements,
/// and malformed deltas that must be rejected without a trace.
fn golden_script() -> Golden {
    const SWITCHES: u32 = 48;
    let mut fabric = FabricController::new(OcsFleet::build(SWITCHES as usize, 17));
    let mut live: Vec<BTreeMap<PortId, PortId>> = vec![BTreeMap::new(); SWITCHES as usize];
    let mut rng = 0x0C5_DA7A_u64;
    let mut hv_failed = None;
    let mut out = Vec::new();
    for txn in 0..200u32 {
        let r = splitmix(&mut rng);
        let first = (r % SWITCHES as u64) as u32;
        let span = 1 + (r >> 8) % 16;
        // Faults land before the transaction, on its first switch.
        let victim = fabric.fleet.get_mut(first).expect("48 switches");
        if txn % 10 == 3 {
            if let Some((&n, &s)) = live[first as usize].iter().next() {
                let north = r >> 16 & 1 == 0;
                victim
                    .fail_mirror(north, if north { n } else { s })
                    .expect("a live circuit's port");
            }
        }
        if txn % 25 == 7 {
            hv_failed = Some((first, 6 + (r >> 20) as usize % 8));
            victim
                .fail_fru(6 + (r >> 20) as usize % 8)
                .expect("an HV driver");
        }
        if txn % 25 == 19 {
            let (id, slot) = hv_failed.take().expect("failed twelve transactions ago");
            fabric
                .fleet
                .get_mut(id)
                .expect("48 switches")
                .replace_fru(slot)
                .expect("an HV driver");
        }
        let mut delta = FabricDelta::new();
        let mut after = Vec::new();
        for k in 0..span as u32 {
            let id = (first + k) % SWITCHES;
            let mut map = live[id as usize].clone();
            let d = delta.entry(id);
            let q = splitmix(&mut rng);
            for i in 0..(q % 4).min(map.len() as u64) {
                let nth = (q >> (8 + 4 * i)) as usize % map.len();
                let n = *map.keys().nth(nth).expect("nth < len");
                map.remove(&n);
                d.remove.push(n);
            }
            // Odd transactions add one circuit per switch, so that switch's
            // ready time shows that one alignment's frame count.
            let adds = if txn % 2 == 1 { 1 } else { 1 + (q >> 32) % 6 };
            for i in 0..adds {
                let n = ((q >> (36 + 4 * i)) as u16).wrapping_mul(37) % 130;
                let s = ((q >> (12 + 4 * i)) as u16).wrapping_mul(53) % 130;
                if map.contains_key(&n) || map.values().any(|&t| t == s) {
                    continue;
                }
                map.insert(n, s);
                d.add.push((n, s));
            }
            after.push((id, map));
        }
        // Malformed on purpose (ports 130.. are never live): a duplicated
        // south, a phantom removal.
        if txn % 17 == 5 {
            let d = delta.entry(first);
            d.add.push((134, 135));
            d.add.push((135, 135));
        }
        if txn % 17 == 11 {
            delta.entry((first + 1) % SWITCHES).remove.push(133);
        }
        match fabric.commit_delta(&delta) {
            Ok(report) => {
                for (id, map) in after {
                    live[id as usize] = map;
                }
                out.push(GoldenTxn {
                    ready_at: report
                        .per_switch
                        .iter()
                        .map(|(&id, r)| (id, r.ready_at.0))
                        .collect(),
                    traffic_ready_at: report.traffic_ready_at.0,
                    error: None,
                });
            }
            Err(e) => out.push(GoldenTxn {
                ready_at: Vec::new(),
                traffic_ready_at: 0,
                error: Some(e.to_string()),
            }),
        }
        fabric.advance(Nanos(splitmix(&mut rng) % 40_000_000));
    }
    let mut probe = Vec::new();
    for id in 0..SWITCHES {
        let ocs = fabric.fleet.get_mut(id).expect("48 switches");
        probe.extend(
            rng_probe(ocs, 10_000)
                .into_iter()
                .map(|(round, dt)| (id, round, dt)),
        );
    }
    Golden {
        transactions: out,
        probe,
    }
}

/// Makes the position of a switch's alignment RNG visible. Nearly every
/// alignment takes five frames (15 ms) whatever it draws, so ready times
/// alone say little about the stream; over `rounds` connect/disconnect
/// rounds on the spare pair (134, 135) the rare four- and six-frame
/// alignments fall on rounds that depend on every draw before them.
/// Returns those rounds as `(round, ready − now)`.
fn rng_probe(ocs: &mut PalomarOcs, rounds: u32) -> Vec<(u32, u64)> {
    let mut unusual = Vec::new();
    for round in 0..rounds {
        let ready = ocs
            .connect(134, 135)
            .expect("the spare pair is free and healthy");
        ocs.disconnect(134).expect("just connected");
        let dt = ready.0 - ocs.now().0;
        if dt != 15_000_000 {
            unusual.push((round, dt));
        }
    }
    unusual
}

#[test]
fn the_delta_script_reproduces_the_golden_ready_times() {
    // Captured at the commit before the tables went flat; regenerate only
    // for a change that means to alter the modelled switch.
    let golden: Golden =
        serde_json::from_str(include_str!("vectors/ocs_ready_at.json")).expect("vector parses");
    let got = golden_script();
    for (i, (got, want)) in got
        .transactions
        .iter()
        .zip(&golden.transactions)
        .enumerate()
    {
        assert_eq!(got, want, "transaction {i}");
    }
    assert_eq!(got, golden);
    assert!(golden.transactions.iter().any(|t| t.error.is_some()));
    let probed: BTreeSet<u32> = golden.probe.iter().map(|&(id, ..)| id).collect();
    assert_eq!(probed.len(), 48, "every switch's stream shows in the probe");
}

// ---- atomicity under validate-once -------------------------------------

const ATOMIC_SWITCHES: u32 = 5;

/// Five switches with circuits on each, some aligned and some still
/// aligning, then `fault` applied to the fourth.
fn atomicity_fleet(fault: impl Fn(&mut PalomarOcs)) -> FabricController {
    let mut fabric = FabricController::new(OcsFleet::build(ATOMIC_SWITCHES as usize, 0xA70));
    let mut setup = FabricDelta::new();
    for id in 0..ATOMIC_SWITCHES {
        setup.entry(id).add.extend([(40, 41), (42, 43), (70, 71)]);
    }
    fabric.commit_delta(&setup).expect("valid");
    fabric.advance(Nanos::from_millis(40));
    let mut second = FabricDelta::new();
    for id in 0..ATOMIC_SWITCHES {
        second.entry(id).add.push((72, 73));
    }
    fabric.commit_delta(&second).expect("valid");
    fabric.advance(Nanos::from_millis(3));
    fault(fabric.fleet.get_mut(3).expect("five switches"));
    fabric
}

/// Everything observable about a fleet short of its RNG streams.
fn observable(
    fabric: &FabricController,
) -> Vec<(PortMapping, OcsHealth, Counters, usize, Vec<bool>)> {
    fabric
        .fleet
        .iter()
        .map(|(_, ocs)| {
            (
                ocs.mapping(),
                ocs.health(),
                ocs.telemetry().counters,
                ocs.telemetry().alarms().len(),
                (0..136).map(|p| ocs.circuit_ready(p)).collect(),
            )
        })
        .collect()
}

fn probe_fleet(fabric: &mut FabricController) -> Vec<Vec<(u32, u64)>> {
    (0..ATOMIC_SWITCHES)
        .map(|id| rng_probe(fabric.fleet.get_mut(id).expect("five switches"), 10_000))
        .collect()
}

/// A commit over all five switches whose fourth (`bad`) is invalid must
/// fail with `expect` and leave the fleet indistinguishable from a twin
/// that never saw it: same state, same next commit, same RNG streams.
/// With `shared`, all five carry the `bad` lists, so the view is one run
/// and the fourth is a follower that must not take the first three's
/// verdict.
fn assert_rejected_without_a_trace(
    fault: impl Fn(&mut PalomarOcs),
    bad: (&[(PortId, PortId)], &[PortId]),
    expect: OcsError,
    shared: bool,
) {
    let mut fabric = atomicity_fleet(&fault);
    let mut twin = atomicity_fleet(&fault);
    let mut delta = FabricDelta::new();
    for id in 0..ATOMIC_SWITCHES {
        let d = delta.entry(id);
        if id == 3 || shared {
            d.add.extend_from_slice(bad.0);
            d.remove.extend_from_slice(bad.1);
        } else {
            d.add.extend([(10, 11), (44, 45)]);
            d.remove.extend([40, 72]);
        }
    }
    assert_eq!(
        fabric.commit_delta(&delta),
        Err(CommitError::Invalid {
            ocs: 3,
            error: expect
        })
    );
    assert_eq!(observable(&fabric), observable(&twin));
    // The next valid commit (it skips the faulted switch) reports the
    // same ready times on both.
    let mut next = FabricDelta::new();
    for id in [0, 1, 2, 4] {
        let d = next.entry(id);
        d.add.extend([(10, 11), (44, 45), (100, 101)]);
        d.remove.extend([40, 72]);
    }
    let report = fabric.commit_delta(&next).expect("valid");
    assert_eq!(report, twin.commit_delta(&next).expect("valid"));
    assert!(report.added == 12 && report.removed == 8);
    // The chassis-down switch cannot be probed; heal it on both first.
    for f in [&mut fabric, &mut twin] {
        let ocs = f.fleet.get_mut(3).expect("five switches");
        (0..16).for_each(|slot| ocs.replace_fru(slot).expect("16 slots"));
    }
    let streams = probe_fleet(&mut fabric);
    assert_eq!(streams, probe_fleet(&mut twin));
    assert!(
        streams.iter().all(|s| !s.is_empty()),
        "the probe sees every stream"
    );
}

#[test]
fn a_late_degraded_port_rejects_the_commit_without_a_trace() {
    // HV driver slot 6 drives ports 0..34.
    assert_rejected_without_a_trace(
        |ocs| ocs.fail_fru(6).expect("an HV driver"),
        (&[(50, 51), (12, 60)], &[42]),
        OcsError::PortDegraded(12),
        false,
    );
}

#[test]
fn a_late_down_chassis_rejects_the_commit_without_a_trace() {
    assert_rejected_without_a_trace(
        |ocs| {
            ocs.fail_fru(0).expect("a PSU");
            ocs.fail_fru(1).expect("a PSU");
        },
        (&[(50, 51)], &[42]),
        OcsError::ChassisDown,
        false,
    );
}

#[test]
fn a_late_intra_delta_duplicate_rejects_the_commit_without_a_trace() {
    assert_rejected_without_a_trace(
        |_| {},
        (&[(50, 51), (52, 51)], &[42]),
        CrossbarError::NotBijective { south: 51 }.into(),
        false,
    );
    assert_rejected_without_a_trace(
        |_| {},
        (&[(50, 51)], &[42, 70, 42]),
        CrossbarError::NotConnected(42).into(),
        false,
    );
}

#[test]
fn a_follower_that_cannot_share_the_verdict_is_refused_without_a_trace() {
    // All five switches carry one delta, valid on the first three, so the
    // fourth follows a verdict it must not take: a failed HV driver (slot
    // 6 drives ports 0..34), a down chassis, or a circuit only it holds —
    // the same circuits as the others apart from that one.
    let bad: (&[(PortId, PortId)], &[PortId]) = (&[(50, 51), (12, 60)], &[42]);
    assert_rejected_without_a_trace(
        |ocs| ocs.fail_fru(6).expect("an HV driver"),
        bad,
        OcsError::PortDegraded(12),
        true,
    );
    assert_rejected_without_a_trace(
        |ocs| {
            ocs.fail_fru(0).expect("a PSU");
            ocs.fail_fru(1).expect("a PSU");
        },
        bad,
        OcsError::ChassisDown,
        true,
    );
    assert_rejected_without_a_trace(
        |ocs| {
            ocs.connect(50, 99).expect("free");
        },
        bad,
        CrossbarError::NorthBusy(50).into(),
        true,
    );
}

#[test]
fn the_rng_probe_tells_stream_positions_apart() {
    // The negative control for the three tests above: one alignment more
    // on one switch and its probe reads differently.
    let mut fabric = atomicity_fleet(|_| {});
    let mut shifted = atomicity_fleet(|_| {});
    let ocs = shifted.fleet.get_mut(2).expect("five switches");
    ocs.connect(134, 135).expect("free");
    ocs.disconnect(134).expect("live");
    let (a, b) = (probe_fleet(&mut fabric), probe_fleet(&mut shifted));
    assert_ne!(a[2], b[2]);
    assert_eq!((&a[..2], &a[3..]), (&b[..2], &b[3..]));
}

#[test]
fn a_stale_validation_is_repeated_never_trusted() {
    let add = [(5, 6), (7, 8)];
    let state = |ocs: &PalomarOcs| (ocs.mapping(), ocs.health(), ocs.telemetry().counters);
    // Validated and unchanged since: applied.
    let mut ocs = PalomarOcs::new(0, 31);
    ocs.connect(20, 21).expect("free");
    ocs.validate_delta(&add, &[20]).expect("valid");
    let report = ocs.apply_delta(&add, &[20]).expect("just validated");
    assert_eq!(
        (report.added.len(), report.removed, report.untouched),
        (2, vec![20], 0)
    );
    // Applying it changed the switch: the same delta again is vetted again.
    assert_eq!(
        ocs.apply_delta(&add, &[]),
        Err(CrossbarError::NorthBusy(5).into())
    );
    // The switch changes between validation and apply so that the delta
    // no longer holds.
    let mut ocs = PalomarOcs::new(0, 31);
    ocs.validate_delta(&add, &[]).expect("valid");
    ocs.connect(7, 99).expect("free");
    let before = state(&ocs);
    assert_eq!(
        ocs.apply_delta(&add, &[]),
        Err(CrossbarError::NorthBusy(7).into())
    );
    assert_eq!(before, state(&ocs));
    // A fault is a change too.
    ocs.validate_delta(&[(1, 2)], &[]).expect("valid");
    ocs.fail_fru(6).expect("an HV driver");
    assert_eq!(
        ocs.apply_delta(&[(1, 2)], &[]),
        Err(OcsError::PortDegraded(1))
    );
    // A change that leaves the delta valid: vetted again, then applied.
    ocs.validate_delta(&[(50, 51)], &[7]).expect("valid");
    ocs.connect(60, 61).expect("free");
    let report = ocs.apply_delta(&[(50, 51)], &[7]).expect("still valid");
    assert_eq!(
        (report.added, report.removed, report.untouched),
        (vec![(50, 51)], vec![7], 1)
    );
    // Validating one delta vouches for no other.
    let before = state(&ocs);
    ocs.validate_delta(&[(80, 81)], &[]).expect("valid");
    assert_eq!(
        ocs.apply_delta(&[(80, 81), (82, 81)], &[]),
        Err(CrossbarError::NotBijective { south: 81 }.into())
    );
    assert_eq!(
        ocs.apply_delta(&[(80, 81)], &[9]),
        Err(CrossbarError::NotConnected(9).into())
    );
    // Nor does a validation that failed.
    assert!(ocs.validate_delta(&[(60, 90)], &[]).is_err());
    assert_eq!(
        ocs.apply_delta(&[(60, 90)], &[]),
        Err(CrossbarError::NorthBusy(60).into())
    );
    assert_eq!(before, state(&ocs));
}
