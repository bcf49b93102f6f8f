//! Fleet time against its oracle (DESIGN §6.6, "Time is lazy below the
//! fleet").
//!
//! `OcsFleet` keeps one clock and a lower bound on the earliest pending
//! alignment; a member's own clock is brought up only when the member is
//! handed out mutably or may have an alignment falling due.
//! `oracle::EagerFleet` is what it replaced — every switch ticked on every
//! advance — kept as the reference. Driven through the same arbitrary
//! interleaving of transactions (adds, removes, mixed, refused), advances
//! of every awkward length (zero, one nanosecond, exactly up to a reported
//! ready time, one short of it, milliseconds, seconds) through the
//! controller and through its `pub fleet`, and switch operations through
//! `get_mut` (connects, mirror failures with and without a spare left,
//! silent degradation, FRU faults and swaps), the two must return the same
//! results and reports and show, switch by switch, the same circuits,
//! ready bits, losses, health, alarms with their timestamps, drift log and
//! counters — and leave every alignment RNG at the same position.

#[path = "oracle/eager_fleet.rs"]
mod oracle;

use lightwave::fabric::{
    CommitError, CommitReport, FabricController, FabricDelta, OcsFleet, OcsId,
};
use lightwave::ocs::{PalomarOcs, PortId, ReconfigSummary};
use lightwave::transceiver::bringup::LinkBringup;
use lightwave::units::Nanos;
use oracle::EagerFleet;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SWITCHES: u32 = 6;

/// A few ports per HV group, so operations collide often. The spare pair
/// (134, 135) is the RNG probe's and no operation names it.
const PORTS: [PortId; 12] = [0, 1, 2, 3, 33, 34, 35, 67, 68, 101, 102, 129];

/// Every fault an operation injects names a port and a slot the switch
/// has: a refusal here is a failure.
const IN_RANGE: &str = "a port and a slot the switch has";

#[derive(Debug, Clone, Copy)]
enum Dt {
    Zero,
    OneNanosecond,
    /// Exactly up to the earliest ready time reported so far that is still
    /// ahead (`short`: one nanosecond short of it).
    ToReady {
        short: bool,
    },
    Micros(u64),
    Seconds(u64),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// One transaction over switches `first..first + span` — ids past the
    /// fleet's last are unknown and refuse it. Each switch's share is drawn
    /// from `salt` against its live circuits: up to two removals, up to
    /// three additions on free ports. `spoil` appends a removal of a port
    /// that is never live to the last switch, so the transaction is
    /// refused after every earlier switch validated.
    Commit {
        first: OcsId,
        span: u32,
        salt: u64,
        spoil: bool,
    },
    Advance(Dt),
    /// `c.fleet.advance_to(now + dt)`: past the controller, on its `pub`
    /// field, in the absolute form — then once more to time zero, which
    /// is behind the clock and must change nothing.
    FleetAdvance(Dt),
    Connect(OcsId, PortId, PortId),
    Disconnect(OcsId, PortId),
    FailMirror(OcsId, bool, PortId),
    /// Fails the port's mirror until the die has no spare left: the next
    /// failure kills the port.
    BurnSpares(OcsId, bool, PortId),
    DegradeMirror(OcsId, bool, PortId),
    FailFru(OcsId, usize),
    ReplaceFru(OcsId, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let ocs = || 0..SWITCHES;
    let port = || (0usize..PORTS.len()).prop_map(|i| PORTS[i]);
    let dt = || {
        prop_oneof![
            Just(Dt::Zero),
            Just(Dt::OneNanosecond),
            any::<bool>().prop_map(|short| Dt::ToReady { short }),
            any::<bool>().prop_map(|short| Dt::ToReady { short }),
            (1u64..40_000).prop_map(Dt::Micros),
            (1u64..40_000).prop_map(Dt::Micros),
            (1u64..5).prop_map(Dt::Seconds),
        ]
    };
    let commit = || {
        (0..SWITCHES + 1, 1u32..5, any::<u64>(), 0u8..6).prop_map(|(first, span, salt, spoil)| {
            Op::Commit {
                first,
                span,
                salt,
                spoil: spoil == 0,
            }
        })
    };
    prop_oneof![
        commit(),
        commit(),
        commit(),
        dt().prop_map(Op::Advance),
        dt().prop_map(Op::Advance),
        dt().prop_map(Op::Advance),
        dt().prop_map(Op::FleetAdvance),
        (ocs(), port(), port()).prop_map(|(id, n, s)| Op::Connect(id, n, s)),
        (ocs(), port()).prop_map(|(id, n)| Op::Disconnect(id, n)),
        (ocs(), any::<bool>(), port()).prop_map(|(id, north, p)| Op::FailMirror(id, north, p)),
        (ocs(), any::<bool>(), port()).prop_map(|(id, north, p)| Op::FailMirror(id, north, p)),
        (ocs(), any::<bool>(), port()).prop_map(|(id, north, p)| Op::BurnSpares(id, north, p)),
        (ocs(), any::<bool>(), port()).prop_map(|(id, north, p)| Op::DegradeMirror(id, north, p)),
        (ocs(), 0usize..16).prop_map(|(id, slot)| Op::FailFru(id, slot)),
        (ocs(), 0usize..16).prop_map(|(id, slot)| Op::ReplaceFru(id, slot)),
    ]
}

/// The transaction an [`Op::Commit`] stands for, against the model's live
/// circuits.
fn delta_of(model: &EagerFleet, first: OcsId, span: u32, salt: u64, spoil: bool) -> FabricDelta {
    let mut delta = FabricDelta::new();
    let mut bits = salt;
    let mut draw = |n: usize| {
        bits = bits.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (bits >> 33) as usize % n
    };
    for id in first..first + span {
        let d = delta.entry(id);
        let mut live: BTreeMap<PortId, PortId> = model
            .get(id)
            .map(|ocs| ocs.mapping().pairs().collect())
            .unwrap_or_default();
        for _ in 0..draw(3).min(live.len()) {
            let n = *live.keys().nth(draw(live.len())).expect("nth < len");
            live.remove(&n);
            d.remove.push(n);
        }
        for _ in 0..draw(4) {
            let (n, s) = (PORTS[draw(PORTS.len())], PORTS[draw(PORTS.len())]);
            if !live.contains_key(&n) && live.values().all(|&t| t != s) {
                live.insert(n, s);
                d.add.push((n, s));
            }
        }
    }
    if spoil {
        delta.entry(first + span - 1).remove.push(133);
    }
    delta
}

/// What the parent's controller reported, as plain rows.
#[derive(Debug, PartialEq)]
struct Report {
    rows: Vec<(OcsId, ReconfigSummary)>,
    untouched: usize,
    added: usize,
    removed: usize,
    traffic_ready_at: Nanos,
}

impl Report {
    fn of(report: &CommitReport) -> Report {
        Report {
            rows: report.per_switch.iter().map(|(&id, &r)| (id, r)).collect(),
            untouched: report.untouched,
            added: report.added,
            removed: report.removed,
            traffic_ready_at: report.traffic_ready_at,
        }
    }
}

/// The parent's `FabricController::commit_delta` on the eager fleet:
/// every switch validates, then every switch applies, and the report
/// starts from the fleet's clock.
fn model_commit(model: &mut EagerFleet, delta: &FabricDelta) -> Result<Report, CommitError> {
    for (id, d) in delta.iter() {
        let ocs = model.get_mut(id).ok_or(CommitError::UnknownSwitch(id))?;
        ocs.validate_delta(&d.add, &d.remove)
            .map_err(|error| CommitError::Invalid { ocs: id, error })?;
    }
    let mut report = Report {
        rows: Vec::new(),
        untouched: 0,
        added: 0,
        removed: 0,
        traffic_ready_at: model.now(),
    };
    for (id, d) in delta.iter() {
        let ocs = model.get_mut(id).expect("validated");
        let done = ocs
            .apply_delta(&d.add, &d.remove)
            .map_err(|error| CommitError::Invalid { ocs: id, error })?
            .summary();
        report.untouched += done.untouched;
        report.added += done.added;
        report.removed += done.removed;
        report.traffic_ready_at = report.traffic_ready_at.max(done.ready_at);
        report.rows.push((id, done));
    }
    if report.added > 0 {
        report.traffic_ready_at += LinkBringup::nominal_duration();
    }
    Ok(report)
}

/// The two fleets side by side, and the ready times they have reported.
struct Pair {
    fabric: FabricController,
    model: EagerFleet,
    readies: Vec<Nanos>,
}

impl Pair {
    fn new(seed: u64) -> Pair {
        Pair {
            fabric: FabricController::new(OcsFleet::build(SWITCHES as usize, seed)),
            model: EagerFleet::build(SWITCHES as usize, seed),
            readies: Vec::new(),
        }
    }

    /// Runs `f` on switch `id` of both fleets, through `get_mut`; the
    /// production member must come out at fleet time.
    fn on_switch<T: PartialEq + std::fmt::Debug>(
        &mut self,
        id: OcsId,
        f: impl Fn(&mut PalomarOcs) -> T,
    ) -> Result<T, TestCaseError> {
        let now = self.fabric.fleet.now();
        let ocs = self.fabric.fleet.get_mut(id).expect("in range");
        prop_assert_eq!(ocs.now(), now, "switch {} handed out behind fleet time", id);
        let got = f(ocs);
        let want = f(self.model.get_mut(id).expect("in range"));
        prop_assert_eq!(&got, &want, "switch {}", id);
        Ok(got)
    }

    fn nanos(&mut self, dt: Dt) -> Nanos {
        let now = self.model.now();
        self.readies.retain(|&ready| ready > now);
        match dt {
            Dt::Zero => Nanos(0),
            Dt::OneNanosecond => Nanos(1),
            Dt::ToReady { short } => match self.readies.iter().min() {
                Some(ready) => Nanos(ready.0 - now.0 - short as u64),
                None => Nanos(0),
            },
            Dt::Micros(us) => Nanos(us * 1_000),
            Dt::Seconds(s) => Nanos::from_millis(1_000 * s),
        }
    }

    fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Commit {
                first,
                span,
                salt,
                spoil,
            } => {
                let delta = delta_of(&self.model, first, span, salt, spoil);
                let got = self.fabric.commit_delta(&delta).map(|r| Report::of(&r));
                prop_assert_eq!(&got, &model_commit(&mut self.model, &delta));
                if let Ok(report) = got {
                    self.readies
                        .extend(report.rows.iter().map(|(_, r)| r.ready_at));
                }
            }
            Op::Advance(dt) => {
                let dt = self.nanos(dt);
                self.fabric.advance(dt);
                self.model.advance(dt);
            }
            Op::FleetAdvance(dt) => {
                let dt = self.nanos(dt);
                self.fabric.fleet.advance_to(self.fabric.now() + dt);
                self.fabric.fleet.advance_to(Nanos(0));
                self.model.advance(dt);
            }
            Op::Connect(id, n, s) => {
                if let Ok(ready) = self.on_switch(id, |ocs| ocs.connect(n, s))? {
                    self.readies.push(ready);
                }
            }
            Op::Disconnect(id, n) => self.on_switch(id, |ocs| ocs.disconnect(n)).map(drop)?,
            Op::FailMirror(id, north, p) => {
                self.on_switch(id, |ocs| ocs.fail_mirror(north, p).expect(IN_RANGE))?
            }
            Op::BurnSpares(id, north, p) => self.on_switch(id, |ocs| {
                let spares = |ocs: &PalomarOcs| {
                    let (n, s) = ocs.health().mirror_spares;
                    if north {
                        n
                    } else {
                        s
                    }
                };
                while spares(ocs) > 0 {
                    ocs.fail_mirror(north, p).expect(IN_RANGE);
                }
            })?,
            Op::DegradeMirror(id, north, p) => self.on_switch(id, |ocs| {
                ocs.degrade_mirror(north, p, 0.02).expect(IN_RANGE)
            })?,
            Op::FailFru(id, slot) => {
                self.on_switch(id, |ocs| ocs.fail_fru(slot).expect(IN_RANGE))?
            }
            Op::ReplaceFru(id, slot) => {
                self.on_switch(id, |ocs| ocs.replace_fru(slot).expect(IN_RANGE))?
            }
        }
        self.same_state()
    }

    /// Everything the two fleets must agree on between calls.
    fn same_state(&self) -> Result<(), TestCaseError> {
        let fleet = &self.fabric.fleet;
        prop_assert_eq!(fleet.now(), self.model.now());
        prop_assert_eq!(self.fabric.now(), self.model.now());
        let mut pending = 0;
        for id in 0..SWITCHES {
            let (a, b) = (
                fleet.get(id).expect("in range"),
                self.model.get(id).expect("in range"),
            );
            prop_assert!(a.now() <= fleet.now(), "switch {} ahead of the fleet", id);
            prop_assert_eq!(b.now(), self.model.now(), "the oracle is eager");
            prop_assert_eq!(a.mapping(), b.mapping(), "switch {}", id);
            prop_assert_eq!(a.health(), b.health(), "switch {}", id);
            // Alarms with their timestamps, and every counter.
            prop_assert_eq!(a.telemetry(), b.telemetry(), "switch {}", id);
            prop_assert_eq!(a.drift_log(), b.drift_log(), "switch {}", id);
            // A circuit that should have finished aligning and did not
            // shows here twice: not ready, and 6 dB lossier.
            for (n, _) in b.mapping().pairs() {
                prop_assert_eq!(
                    (a.circuit_ready(n), a.insertion_loss(n)),
                    (b.circuit_ready(n), b.insertion_loss(n)),
                    "switch {} north {}",
                    id,
                    n
                );
            }
            pending += b.pending_circuits();
        }
        prop_assert_eq!(fleet.pending(), pending);
        prop_assert_eq!(fleet.health().pending, pending);
        prop_assert_eq!(self.fabric.settled(), pending == 0);
        Ok(())
    }

    /// Heals every chassis, then reads the position of every alignment
    /// RNG off both fleets: the ready times of 10 000 connect/disconnect
    /// rounds on the spare pair, where the rare four- and six-frame
    /// alignments fall on rounds that depend on every draw before them
    /// (`rng_probe` in `tests/ocs_dataplane.rs`).
    fn same_streams(&mut self) -> Result<(), TestCaseError> {
        for id in 0..SWITCHES {
            self.on_switch(id, |ocs| {
                (0..16).for_each(|slot| ocs.replace_fru(slot).expect(IN_RANGE))
            })?;
            self.on_switch(id, |ocs| {
                let round = |_| {
                    let ready = ocs.connect(134, 135).expect("the spare pair is free");
                    ocs.disconnect(134).expect("just connected");
                    ready
                };
                (0..10_000).map(round).collect::<Vec<Nanos>>()
            })?;
        }
        self.same_state()
    }
}

/// The same 64 circuits on every switch in one transaction: the rows
/// agree on every count, and a switch whose draws include a retried
/// alignment settles later than its neighbours — rarely, so the fleets
/// are built on one seed after another until a transaction parts. Each
/// row carries its own switch's ready time, as the eager fleet reports it,
/// read through `iter` and through `get`.
#[test]
fn switches_that_settle_apart_report_their_own_ready_times() {
    let mut delta = FabricDelta::new();
    for id in 0..SWITCHES {
        delta.entry(id).add.extend((0..64).map(|p| (p, p)));
    }
    let parted = (0..64).find_map(|seed| {
        let mut pair = Pair::new(seed);
        let got = pair.fabric.commit_delta(&delta).expect("valid");
        let want = model_commit(&mut pair.model, &delta).expect("valid");
        let apart = want
            .rows
            .windows(2)
            .any(|w| w[0].1.ready_at != w[1].1.ready_at);
        apart.then_some((got, want))
    });
    let (got, want) = parted.expect("some seed retries an alignment");
    assert!(want.rows.iter().all(|(_, r)| r.added == 64));
    assert_eq!(Report::of(&got), want);
    for (id, row) in &want.rows {
        assert_eq!(got.per_switch.get(id), Some(row));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Call by call, the lazy fleet and the eager one return equal results
    /// and show equal switches on same-seed fleets.
    #[test]
    fn fleet_matches_the_eager_reference_under_arbitrary_interleavings(
        seed in 0u64..4096,
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let mut pair = Pair::new(seed);
        for &op in &ops {
            pair.step(op)?;
        }
        pair.same_streams()?;
    }
}
