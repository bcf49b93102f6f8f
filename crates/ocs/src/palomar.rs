//! The Palomar OCS facade: optical core + crossbar + chassis + telemetry
//! under one simulation clock.

use crate::camera::{AlignmentKernel, AlignmentLoop, ALIGNMENT_TOLERANCE};
use crate::chassis::Chassis;
use crate::crossbar::{
    ConnectionState, Crossbar, CrossbarError, MappingDelta, PortId, PortMapping,
};
use crate::loss::OpticalCore;
use crate::mems::MemsDie;
use crate::telemetry::{AlarmCause, AlarmRecord, Severity, Telemetry};
use lightwave_units::{Db, Nanos};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Errors from OCS operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OcsError {
    /// Crossbar-level failure.
    Crossbar(CrossbarError),
    /// The chassis is not operational (e.g. dual PSU failure).
    ChassisDown,
    /// The port is degraded (failed HV driver, exhausted mirror spares).
    PortDegraded(PortId),
    /// The chassis has no FRU slot of this index.
    SlotOutOfRange(usize),
}

impl From<CrossbarError> for OcsError {
    fn from(e: CrossbarError) -> Self {
        OcsError::Crossbar(e)
    }
}

impl std::fmt::Display for OcsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OcsError::Crossbar(e) => write!(f, "crossbar: {e}"),
            OcsError::ChassisDown => write!(f, "chassis not operational"),
            OcsError::PortDegraded(p) => write!(f, "port {p} degraded"),
            OcsError::SlotOutOfRange(s) => write!(f, "no chassis slot {s}"),
        }
    }
}

impl std::error::Error for OcsError {}

/// What a bulk reconfiguration did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// Circuits torn down (north ports).
    pub removed: Vec<PortId>,
    /// Circuits newly established.
    pub added: Vec<(PortId, PortId)>,
    /// Circuits left untouched — their light never blinked.
    pub untouched: usize,
    /// Simulation time at which every new circuit is aligned and carrying.
    pub ready_at: Nanos,
}

impl ReconfigReport {
    /// The report with its two lists reduced to their lengths.
    pub fn summary(&self) -> ReconfigSummary {
        ReconfigSummary {
            added: self.added.len(),
            removed: self.removed.len(),
            untouched: self.untouched,
            ready_at: self.ready_at,
        }
    }
}

/// What a reconfiguration did, in counts: a [`ReconfigReport`] without
/// the circuit lists its caller already holds. This is what a fabric
/// transaction keeps per touched switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigSummary {
    /// Circuits newly established.
    pub added: usize,
    /// Circuits torn down.
    pub removed: usize,
    /// Circuits left untouched — their light never blinked.
    pub untouched: usize,
    /// Simulation time at which every new circuit is aligned and carrying.
    pub ready_at: Nanos,
}

/// Snapshot of switch health.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OcsHealth {
    /// Chassis operational?
    pub operational: bool,
    /// Live circuits.
    pub circuits: usize,
    /// Circuits still aligning.
    pub pending: usize,
    /// Degraded (unusable) ports.
    pub degraded_ports: Vec<PortId>,
    /// Remaining mirror spares (north die, south die).
    pub mirror_spares: (usize, usize),
    /// Present power draw, watts.
    pub power_w: f64,
}

/// Loss drift (dB) above which a spare-mirror swap raises a HighLoss
/// anomaly alarm. The mirror population is tight (σ ≈ 0.08 dB), so even
/// the bottom of the spare barrel is only ~0.2 dB worse than as-built —
/// small, but the bidi link budget is counted in tenths (§3.2.1's "optical
/// link budget is a precious commodity"), hence the tight threshold.
pub(crate) const DRIFT_ALARM_DB: f64 = 0.12;

/// One change to a port's cumulative loss drift, recorded whenever the
/// mirror serving the port changes character — a silent degradation step
/// or a spare swap. The log is append-only and scraped by cursor (the
/// fleet-health layer keeps `O(changed)` per poll, never rescanning all
/// 272 mirrors per switch).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftChange {
    /// Simulation time of the change.
    pub at: Nanos,
    /// Which die (true = north).
    pub north: bool,
    /// Affected port.
    pub port: PortId,
    /// Cumulative drift from as-built after the change, dB.
    pub drift_db: f64,
}

/// The lineage of a switch no other switch is known to share circuits
/// with: it matches nothing, itself included.
const UNKNOWN: u64 = u64::MAX;

/// Fresh values a [`SharedDelta`] hands out before it takes another
/// block from [`BLOCKS`].
const BLOCK: u64 = 1 << 32;

/// The next block of fresh values, process-wide. Block 0 is never handed
/// out: its values are the lineages of empty crossbars (their radix), so
/// a fresh value is never a radix, nor [`UNKNOWN`], and no two buffers
/// ever hand out the same one — which is what lets a switch trust a stamp
/// or a lineage whoever made it.
static BLOCKS: AtomicU64 = AtomicU64::new(1);

/// A delta that a run of switches checks and applies in turn: the fabric
/// copies the lists a run of consecutive switches shares into one of
/// these and hands it to each switch of the run.
///
/// The first switch of a run checks the delta in full
/// ([`PalomarOcs::vet_shared`]); a later one takes the verdict of the
/// last switch that checked it when it provably holds the same circuits
/// (the same *lineage*), its chassis is up and none of its ports is
/// degraded or dead, and checks in full otherwise. Either way the switch
/// keeps a stamp — the delta's serial and its own epoch — and
/// [`PalomarOcs::apply_shared`] of a delta whose stamp still holds checks
/// nothing again. The lists change only through [`SharedDelta::refill`],
/// which gives them a fresh serial (and, on a switch's own copy, when
/// [`PalomarOcs::apply_delta`]'s report takes them, which leaves none and
/// no serial), so a stamp never vouches for lists other than the ones it
/// was made for.
#[derive(Debug)]
pub struct SharedDelta {
    /// The next fresh value of this buffer's block, and the block's end.
    next: u64,
    end: u64,
    /// Names the lists as they are now.
    serial: u64,
    add: Vec<(PortId, PortId)>,
    remove: Vec<PortId>,
    /// Lineage of the last switch that checked these lists in full and
    /// accepted them; [`UNKNOWN`] until one has.
    vetted: u64,
    /// The lineage the last switch to apply these lists had before, and
    /// the fresh one every switch applying them from it is given.
    from: u64,
    to: u64,
}

impl Default for SharedDelta {
    fn default() -> Self {
        SharedDelta {
            next: 0,
            end: 0,
            serial: UNKNOWN,
            add: Vec::new(),
            remove: Vec::new(),
            vetted: UNKNOWN,
            from: UNKNOWN,
            to: UNKNOWN,
        }
    }
}

impl SharedDelta {
    /// A fresh value no buffer has handed out before.
    fn fresh(&mut self) -> u64 {
        if self.next == self.end {
            self.next = BLOCKS.fetch_add(1, Ordering::Relaxed).wrapping_mul(BLOCK);
            self.end = self.next.saturating_add(BLOCK - 1);
        }
        self.next += 1;
        self.next - 1
    }

    /// Copies in the lists of a new run, under a fresh serial.
    pub fn refill(&mut self, add: &[(PortId, PortId)], remove: &[PortId]) {
        self.serial = self.fresh();
        self.add.clear();
        self.add.extend_from_slice(add);
        self.remove.clear();
        self.remove.extend_from_slice(remove);
        (self.vetted, self.from, self.to) = (UNKNOWN, UNKNOWN, UNKNOWN);
    }

    /// Whether the lists are `add` and `remove`. An element loop: the
    /// slices' own `==` on lists this short ran several times slower.
    #[inline]
    pub fn holds(&self, add: &[(PortId, PortId)], remove: &[PortId]) -> bool {
        self.add.len() == add.len()
            && self.remove.len() == remove.len()
            && self.add.iter().zip(add).all(|(a, b)| a == b)
            && self.remove.iter().zip(remove).all(|(a, b)| a == b)
    }
}

/// The stamp of a switch that has accepted no delta: no epoch reaches
/// [`UNKNOWN`], so it matches no delta.
const NO_STAMP: (u64, u64) = (UNKNOWN, UNKNOWN);

/// Per-port flags of one delta validation: which of the delta's three
/// lists name the port, so membership and duplicates are one test each.
const REMOVED: u8 = 1;
const ADDED_NORTH: u8 = 2;
const ADDED_SOUTH: u8 = 4;

/// Flags in-range port `p`; if it carried the flag already, lowers
/// `twice` to it — the smallest port the list names twice.
fn mark(marks: &mut [u8], flag: u8, p: PortId, twice: &mut Option<PortId>) {
    if marks[p as usize] & flag != 0 {
        *twice = Some(twice.map_or(p, |t| t.min(p)));
    }
    marks[p as usize] |= flag;
}

/// `run_sharded` moves pods across threads and shares them by reference.
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<PalomarOcs>();
};

/// A simulated Palomar optical circuit switch.
#[derive(Debug)]
pub struct PalomarOcs {
    id: u32,
    now: Nanos,
    /// Manufacturing seed: with the radix, all the optical core is a
    /// function of.
    seed: u64,
    /// The optical core, fabricated by whoever reads it first
    /// ([`PalomarOcs::optical_core`]). A cell and not an `Option`: the
    /// readers take `&self`, and pods cross threads in `run_sharded`.
    core: OnceLock<OpticalCore>,
    /// [`OpticalCore::spares_as_built`]: what [`PalomarOcs::health`]
    /// reports while the core is unbuilt — no mirror of an unbuilt core
    /// can have failed, so the as-built count is the count.
    spares_as_built: (usize, usize),
    crossbar: Crossbar,
    chassis: Chassis,
    telemetry: Telemetry,
    align: AlignmentKernel,
    rng: StdRng,
    /// `(north port, time its circuit finishes aligning)`, one entry per
    /// circuit in [`ConnectionState::Connecting`], in no particular order.
    pending: Vec<(PortId, Nanos)>,
    /// No pending entry is due before this (a lower bound, never late).
    next_due: Nanos,
    /// Bumped by every change to circuits, chassis or port health:
    /// anything a delta's validity depends on.
    epoch: u64,
    /// Names the circuits the switch holds: its radix while it holds
    /// none, the value every switch that applied one [`SharedDelta`] from
    /// one lineage was given, and [`UNKNOWN`] after any other change.
    lineage: u64,
    /// `(serial, epoch)` of the last delta accepted: while both still
    /// hold, that delta is applied without being checked again.
    stamp: (u64, u64),
    /// The copy of the delta [`PalomarOcs::validate_delta`] last
    /// accepted, made by the first call (a switch the fabric drives never
    /// makes one): a caller's lists are matched against it before the
    /// stamp is trusted.
    own: Option<Box<SharedDelta>>,
    /// Ports unusable due to exhausted spares.
    dead_ports: BTreeSet<PortId>,
    /// Append-only record of per-port drift changes (see [`DriftChange`]).
    drift_log: Vec<DriftChange>,
    /// Scratch for delta validation (see [`REMOVED`]).
    marks: Vec<u8>,
}

impl PalomarOcs {
    /// Builds switch `id` with a deterministic manufacturing seed.
    pub fn new(id: u32, seed: u64) -> PalomarOcs {
        Self::with_ports(id, seed, crate::TOTAL_PORTS)
    }

    /// Builds a switch with an arbitrary radix — e.g. the §6
    /// next-generation 300×300 part. The system-level architecture
    /// "abstracts the underlying physical mechanisms" (§7): everything
    /// above the optical core is radix-agnostic.
    ///
    /// # Panics
    /// Panics if a die of the optical core fails fabrication yield at this
    /// seed ([`OpticalCore::spares_as_built`]) — here, though the core
    /// itself is not built until it is first read.
    pub fn with_ports(id: u32, seed: u64, ports: usize) -> PalomarOcs {
        PalomarOcs {
            id,
            now: Nanos(0),
            seed,
            core: OnceLock::new(),
            spares_as_built: OpticalCore::spares_as_built(ports, seed),
            crossbar: Crossbar::new(ports),
            chassis: Chassis::with_ports(ports),
            telemetry: Telemetry::new(),
            align: AlignmentLoop::default().prepare(ALIGNMENT_TOLERANCE),
            rng: StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0),
            pending: Vec::new(),
            next_due: Nanos(u64::MAX),
            epoch: 0,
            lineage: ports as u64,
            stamp: NO_STAMP,
            own: None,
            dead_ports: BTreeSet::new(),
            drift_log: Vec::new(),
            marks: vec![0; ports],
        }
    }

    /// Switch identity.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// This switch's own clock. A standalone switch is ticked with
    /// [`PalomarOcs::advance`] and its clock is simulation time. A member
    /// of a fleet is brought to fleet time only when the fleet hands it
    /// out mutably or one of its alignments falls due, so read through
    /// `&self` its clock may lag the fleet's; nothing else about it does.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Ports per side.
    pub fn ports(&self) -> usize {
        self.crossbar.ports()
    }

    /// Telemetry surface.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The optical core (for loss census etc.), fabricated on first read.
    /// It is a pure function of the switch's seed and radix, so when it is
    /// built shows in nothing but time and memory.
    pub fn optical_core(&self) -> &OpticalCore {
        self.core
            .get_or_init(|| OpticalCore::fabricate(self.ports(), self.seed))
    }

    /// The die serving `port` on the chosen side, for a mirror fault: the
    /// one way to the core through `&mut self`, and it builds the core
    /// first. A port the switch does not have is refused before anything
    /// is built.
    fn die_mut(&mut self, north_die: bool, port: PortId) -> Result<&mut MemsDie, OcsError> {
        if port as usize >= self.ports() {
            return Err(CrossbarError::PortOutOfRange(port).into());
        }
        self.optical_core();
        // `optical_core` just filled the cell.
        #[allow(clippy::expect_used)]
        let core = self.core.get_mut().expect("just built");
        Ok(if north_die {
            &mut core.die_north
        } else {
            &mut core.die_south
        })
    }

    /// Current port mapping.
    pub fn mapping(&self) -> PortMapping {
        self.crossbar.mapping()
    }

    /// The chassis: its FRU slots and the ports each one drives.
    pub fn chassis(&self) -> &Chassis {
        &self.chassis
    }

    /// Whether the data plane is up at all.
    pub fn is_up(&self) -> bool {
        self.chassis.is_operational()
    }

    fn check_usable(&self, p: PortId) -> Result<(), OcsError> {
        if self.dead_ports.contains(&p) || self.chassis.port_degraded(p) {
            return Err(OcsError::PortDegraded(p));
        }
        Ok(())
    }

    /// Establishes a circuit North `n` → South `s`. Returns the time at
    /// which the circuit will be aligned and carrying light.
    pub fn connect(&mut self, n: PortId, s: PortId) -> Result<Nanos, OcsError> {
        if !self.chassis.is_operational() {
            return Err(OcsError::ChassisDown);
        }
        self.check_usable(n)?;
        self.check_usable(s)?;
        let ready = self.establish(n, s)?;
        self.relineage(UNKNOWN);
        Ok(ready)
    }

    /// Connects `n` → `s` on the crossbar and starts its alignment.
    fn establish(&mut self, n: PortId, s: PortId) -> Result<Nanos, CrossbarError> {
        self.crossbar.connect(n, s)?;
        self.epoch += 1;
        self.telemetry.counters.connects += 1;
        Ok(self.run_alignment(n))
    }

    /// Logs an alarm on this switch at the current time.
    fn raise(&mut self, severity: Severity, cause: AlarmCause) {
        self.telemetry.raise(AlarmRecord {
            at: self.now,
            severity,
            switch: self.id,
            cause,
        });
    }

    /// Runs the camera loop for the circuit on north port `n`, which must
    /// not be pending already, and registers it as pending; returns the
    /// ready time.
    fn run_alignment(&mut self, n: PortId) -> Nanos {
        self.telemetry.counters.alignments += 1;
        let mut attempts = 0;
        let mut elapsed = Nanos(0);
        loop {
            let (frames, converged) = self.align.run(&mut self.rng);
            elapsed += self.align.servo().switching_time(frames);
            attempts += 1;
            if converged {
                break;
            }
            self.telemetry.counters.alignment_failures += 1;
            self.raise(Severity::Warning, AlarmCause::AlignmentTimeout { north: n });
            if attempts >= 3 {
                // Given up on, not stuck: the circuit is registered pending
                // for the three attempts' summed time like any other and
                // carries once that has passed; only the counter and the
                // alarms above tell.
                break;
            }
        }
        let ready = self.now + elapsed;
        self.pending.push((n, ready));
        self.next_due = self.next_due.min(ready);
        ready
    }

    /// Re-runs the camera loop for the live circuit `n` → `s` from
    /// scratch: it drops back to connecting, and a ready time it may
    /// still have been waiting for is replaced, not added to.
    fn realign(&mut self, n: PortId, s: PortId) {
        self.pending.retain(|&(p, _)| p != n);
        // Every caller read `n` → `s` off the crossbar just before.
        #[allow(clippy::expect_used)]
        self.crossbar.disconnect(n).expect("circuit exists");
        // The disconnect above freed both ports.
        #[allow(clippy::expect_used)]
        self.crossbar.connect(n, s).expect("ports were just freed");
        self.changed();
        self.run_alignment(n);
    }

    /// Bumps the epoch after a change other than a shared apply: no
    /// other switch is known to hold the same circuits any more.
    fn changed(&mut self) {
        self.epoch += 1;
        self.relineage(UNKNOWN);
    }

    /// Tears down the circuit on North port `n`.
    pub fn disconnect(&mut self, n: PortId) -> Result<(), OcsError> {
        self.drop_circuit(n)?;
        self.relineage(UNKNOWN);
        Ok(())
    }

    /// [`PalomarOcs::disconnect`], the lineage left to the caller.
    fn drop_circuit(&mut self, n: PortId) -> Result<(), OcsError> {
        let (_, state) = self.crossbar.take(n)?;
        if state == ConnectionState::Connecting {
            self.pending.retain(|&(p, _)| p != n);
        }
        self.epoch += 1;
        self.telemetry.counters.disconnects += 1;
        Ok(())
    }

    /// The minimal delta from this switch's circuits to the full
    /// `target`: the circuits to tear down and to establish, and every
    /// circuit both share left untouched — what
    /// [`PalomarOcs::apply_delta`] takes for a target. Refuses a down
    /// chassis, then a port out of range; whether the circuits to
    /// establish land on usable ports is the delta's own check.
    pub fn delta_to(&self, target: &PortMapping) -> Result<MappingDelta, OcsError> {
        if !self.chassis.is_operational() {
            return Err(OcsError::ChassisDown);
        }
        self.crossbar.validate(target)?;
        Ok(self.crossbar.delta_to(target))
    }

    /// Validates an incremental reconfiguration without applying it:
    /// `remove` circuits (by north port) must exist, `add` pairs must land
    /// on usable, structurally free ports once the removes are accounted
    /// for. Port-usability covers exactly the delta — untouched circuits
    /// are never re-vetted: circuits already carrying on a since-degraded
    /// port stay as they are (tearing them down would turn the
    /// degradation into an outage, and refusing the delta would wedge the
    /// switch), and only the circuits the delta establishes need healthy
    /// drive on both ports.
    ///
    /// Takes `&mut self` only for scratch space and to remember a copy of
    /// the delta it accepted (so that applying it next need not validate
    /// again); no observable state changes.
    pub fn validate_delta(
        &mut self,
        add: &[(PortId, PortId)],
        remove: &[PortId],
    ) -> Result<(), OcsError> {
        let mut own = self.own.take().unwrap_or_default();
        own.refill(add, remove);
        let verdict = self.vet_shared(&mut own);
        self.own = Some(own);
        verdict
    }

    /// Whether nothing but the circuits it holds can make this switch
    /// refuse a delta another switch accepted: its chassis is up and no
    /// port of it is degraded or dead.
    #[inline]
    fn whole(&self) -> bool {
        self.chassis.is_operational()
            && !self.chassis.any_port_degraded()
            && self.dead_ports.is_empty()
    }

    /// [`PalomarOcs::validate_delta`] for one switch of a run sharing
    /// `delta` (see [`SharedDelta`]): a switch holding the same circuits
    /// as the last one that checked the delta in full and accepted it,
    /// up and with every port usable, takes that verdict; any other
    /// checks in full, so the refusal is the one
    /// [`PalomarOcs::validate_delta`] gives. Either way an accepted
    /// delta is stamped for [`PalomarOcs::apply_shared`].
    #[inline]
    pub fn vet_shared(&mut self, delta: &mut SharedDelta) -> Result<(), OcsError> {
        self.stamp = NO_STAMP;
        if self.lineage == UNKNOWN || self.lineage != delta.vetted || !self.whole() {
            self.check_delta(&delta.add, &delta.remove)?;
            delta.vetted = self.lineage;
        }
        self.stamp = (delta.serial, self.epoch);
        Ok(())
    }

    /// Checks a delta against this switch. Sets flags in `marks` for the
    /// ports it lists and clears them again on every exit, refusals
    /// included, so `marks` is all zero between calls and no call pays
    /// for the whole radix.
    fn check_delta(&mut self, add: &[(PortId, PortId)], remove: &[PortId]) -> Result<(), OcsError> {
        let verdict = self.mark_delta(add, remove);
        let marks = &mut self.marks;
        for &p in remove.iter().chain(add.iter().flat_map(|(n, s)| [n, s])) {
            if let Some(m) = marks.get_mut(p as usize) {
                *m = 0;
            }
        }
        verdict
    }

    fn mark_delta(&mut self, add: &[(PortId, PortId)], remove: &[PortId]) -> Result<(), OcsError> {
        if !self.chassis.is_operational() {
            return Err(OcsError::ChassisDown);
        }
        let ports = self.crossbar.ports();
        // Intra-delta duplicates are structural errors too, but reported
        // only once every port has passed the checks above them.
        let (mut twice_removed, mut twice_north, mut twice_south) = (None, None, None);
        for &n in remove {
            if self.crossbar.circuit(n).is_none() {
                return Err(CrossbarError::NotConnected(n).into());
            }
            mark(&mut self.marks, REMOVED, n, &mut twice_removed);
        }
        for &(n, s) in add {
            if n as usize >= ports {
                return Err(CrossbarError::PortOutOfRange(n).into());
            }
            if s as usize >= ports {
                return Err(CrossbarError::PortOutOfRange(s).into());
            }
            self.check_usable(n)?;
            self.check_usable(s)?;
            if self.crossbar.circuit(n).is_some() && self.marks[n as usize] & REMOVED == 0 {
                return Err(CrossbarError::NorthBusy(n).into());
            }
            if let Some(owner) = self.crossbar.south_owner(s) {
                if self.marks[owner as usize] & REMOVED == 0 {
                    return Err(CrossbarError::SouthBusy(s).into());
                }
            }
            mark(&mut self.marks, ADDED_NORTH, n, &mut twice_north);
            mark(&mut self.marks, ADDED_SOUTH, s, &mut twice_south);
        }
        if let Some(n) = twice_removed {
            return Err(CrossbarError::NotConnected(n).into());
        }
        if let Some(n) = twice_north {
            return Err(CrossbarError::NorthBusy(n).into());
        }
        if let Some(south) = twice_south {
            return Err(CrossbarError::NotBijective { south }.into());
        }
        Ok(())
    }

    /// Applies an incremental reconfiguration: tears down the `remove`
    /// circuits, establishes the `add` pairs, touches nothing else — no
    /// full mapping is collected or diffed (a full target is one
    /// [`PalomarOcs::delta_to`] away). The delta is validated first, unless
    /// it is the one [`PalomarOcs::validate_delta`] just accepted and the
    /// switch has not changed since. On error nothing has been applied.
    ///
    /// The lists the report carries are copies of `add` and `remove` —
    /// the copy [`PalomarOcs::validate_delta`] made, when it holds them,
    /// rather than a second one.
    pub fn apply_delta(
        &mut self,
        add: &[(PortId, PortId)],
        remove: &[PortId],
    ) -> Result<ReconfigReport, OcsError> {
        let mut own = self.own.take();
        let applied = match own.as_deref_mut() {
            Some(copy) if copy.holds(add, remove) => self.apply_stamped(copy).map(|done| {
                // Emptied, it names no lists a stamp was made for.
                copy.serial = UNKNOWN;
                let lists = (
                    std::mem::take(&mut copy.add),
                    std::mem::take(&mut copy.remove),
                );
                (done, Some(lists))
            }),
            _ => self
                .check_delta(add, remove)
                .map(|()| (self.apply_checked(add, remove), None)),
        };
        self.own = own;
        let (done, copy) = applied?;
        self.relineage(UNKNOWN);
        let (added, removed) = copy.unwrap_or_else(|| (add.to_vec(), remove.to_vec()));
        Ok(ReconfigReport {
            removed,
            added,
            untouched: done.untouched,
            ready_at: done.ready_at,
        })
    }

    /// Applies a delta [`PalomarOcs::vet_shared`] accepted, without
    /// checking it again while the stamp it left holds (and checking it
    /// first otherwise). The switch is given the lineage every switch
    /// that applies `delta` from the circuits this one held is given, so
    /// a later run can share one verdict across them.
    #[inline]
    pub fn apply_shared(&mut self, delta: &mut SharedDelta) -> Result<ReconfigSummary, OcsError> {
        let done = self.apply_stamped(delta)?;
        let lineage = match self.lineage {
            UNKNOWN => UNKNOWN,
            from => {
                if from != delta.from {
                    (delta.from, delta.to) = (from, delta.fresh());
                }
                delta.to
            }
        };
        self.relineage(lineage);
        Ok(done)
    }

    /// Applies `delta`, checking it first unless it carries this switch's
    /// current stamp. The lineage is the caller's to set.
    #[inline]
    fn apply_stamped(&mut self, delta: &SharedDelta) -> Result<ReconfigSummary, OcsError> {
        if self.stamp != (delta.serial, self.epoch) {
            self.check_delta(&delta.add, &delta.remove)?;
        }
        Ok(self.apply_checked(&delta.add, &delta.remove))
    }

    /// Applies a delta that passed [`PalomarOcs::check_delta`] on the
    /// switch as it is now.
    fn apply_checked(&mut self, add: &[(PortId, PortId)], remove: &[PortId]) -> ReconfigSummary {
        let untouched = self.crossbar.circuit_count() - remove.len();
        for &n in remove {
            // The check this delta passed on this epoch found every
            // removed circuit live, and listed none twice.
            #[allow(clippy::expect_used)]
            self.drop_circuit(n).expect("delta validated");
        }
        let mut ready_at = self.now;
        for &(n, s) in add {
            // The same check found both ports of every added circuit in
            // range and free once the removes are done, and none twice.
            #[allow(clippy::expect_used)]
            let ready = self.establish(n, s).expect("delta validated");
            ready_at = ready_at.max(ready);
        }
        self.telemetry.counters.reconfigs += 1;
        self.telemetry.counters.circuits_preserved += untouched as u64;
        ReconfigSummary {
            added: add.len(),
            removed: remove.len(),
            untouched,
            ready_at,
        }
    }

    /// Sets the lineage after a change: the radix when no circuit is
    /// left, `lineage` otherwise.
    #[inline]
    fn relineage(&mut self, lineage: u64) {
        self.lineage = if self.crossbar.circuit_count() == 0 {
            self.ports() as u64
        } else {
            lineage
        };
    }

    /// Advances simulation time, completing any alignments that finish.
    pub fn advance(&mut self, dt: Nanos) {
        self.advance_to(self.now + dt);
    }

    /// [`PalomarOcs::advance`] to an absolute time: how a fleet brings a
    /// member to fleet time. The clock never runs backwards — a `now`
    /// behind it changes nothing.
    #[inline]
    pub fn advance_to(&mut self, now: Nanos) {
        self.now = self.now.max(now);
        if self.now >= self.next_due {
            self.complete_due();
        }
    }

    /// Marks every circuit whose alignment has finished as connected and
    /// re-derives `next_due` from the rest.
    fn complete_due(&mut self) {
        let (now, crossbar) = (self.now, &mut self.crossbar);
        self.next_due = Nanos(u64::MAX);
        self.pending.retain(|&(n, ready)| {
            if ready <= now {
                // Whatever tears a circuit down or re-aligns it drops
                // its pending entry first.
                #[allow(clippy::expect_used)]
                crossbar.mark_connected(n).expect("pending circuit exists");
            } else {
                self.next_due = self.next_due.min(ready);
            }
            ready > now
        });
    }

    /// Whether the circuit on north port `n` is aligned and carrying light.
    pub fn circuit_ready(&self, n: PortId) -> bool {
        matches!(
            self.crossbar.circuit(n),
            Some((_, ConnectionState::Connected))
        )
    }

    /// Insertion loss of the live circuit on north port `n`.
    pub fn insertion_loss(&self, n: PortId) -> Option<Db> {
        let (s, _) = self.crossbar.circuit(n)?;
        let mut il = self.optical_core().insertion_loss(n as usize, s as usize);
        if let Some((_, ConnectionState::Connecting)) = self.crossbar.circuit(n) {
            // Unconverged pointing adds excess loss.
            il += Db(6.0);
        }
        Some(il)
    }

    /// Fails the mirror serving `port` on the chosen die, swapping in a
    /// spare if one remains. Live circuits on the port are re-aligned. A
    /// port the switch does not have is refused, and nothing changes.
    pub fn fail_mirror(&mut self, north_die: bool, port: PortId) -> Result<(), OcsError> {
        let spare_used = self.die_mut(north_die, port)?.fail_and_swap(port as usize);
        self.telemetry.counters.mirror_failures += 1;
        if spare_used {
            self.telemetry.counters.spares_consumed += 1;
            // A swapped-in spare sits at a different point of the loss
            // barrel: the port's drift changed, log it for the health
            // layer (the abrupt counterpart of slow degradation).
            self.log_drift(north_die, port);
        } else {
            self.dead_ports.insert(port);
            self.changed();
        }
        self.raise(
            if spare_used {
                Severity::Warning
            } else {
                Severity::Critical
            },
            AlarmCause::MirrorFailed {
                north_die,
                port,
                spare_used,
            },
        );
        // Any circuit using the port must re-align onto the new mirror.
        if spare_used {
            let affected = if north_die {
                self.crossbar.circuit(port).map(|(s, _)| (port, s))
            } else {
                self.crossbar.south_owner(port).map(|n| (n, port))
            };
            if let Some((n, s)) = affected {
                self.realign(n, s);
                // Anomaly detection: a drifted path eats link budget even
                // though the circuit "works" — surface it before the
                // transceiver margin does (§3.2.2).
                let core = self.optical_core();
                if core.port_drift(north_die, port as usize).db() > DRIFT_ALARM_DB {
                    let loss = core.insertion_loss(n as usize, s as usize);
                    self.raise(
                        Severity::Warning,
                        AlarmCause::HighLoss {
                            north: n,
                            south: s,
                            // milli-dB, so the cause is exact and orderable
                            loss_mdb: (loss.db() * 1000.0).round() as i32,
                        },
                    );
                }
            }
        }
        Ok(())
    }

    /// Degrades the mirror serving `port` on the chosen die by `loss_db`
    /// of extra intrinsic loss — the slow, silent optical creep
    /// (contamination, actuator relaxation) that erodes the link budget
    /// in tenths of a dB. Deliberately raises **no alarm** and changes
    /// **no** chassis, circuit, or spare state: the only observable
    /// effects are higher insertion loss on the served path and an entry
    /// in the [`PalomarOcs::drift_log`] for the fleet-health detectors to
    /// catch before the port fails hard. A port the switch does not have
    /// is refused, and nothing changes.
    pub fn degrade_mirror(
        &mut self,
        north_die: bool,
        port: PortId,
        loss_db: f64,
    ) -> Result<(), OcsError> {
        self.die_mut(north_die, port)?
            .degrade(port as usize, loss_db);
        self.log_drift(north_die, port);
        Ok(())
    }

    fn log_drift(&mut self, north: bool, port: PortId) {
        let drift = self.optical_core().port_drift(north, port as usize);
        self.drift_log.push(DriftChange {
            at: self.now,
            north,
            port,
            drift_db: drift.db(),
        });
    }

    /// The append-only drift-change log. Consumers scrape incrementally
    /// by remembering how many entries they have already seen.
    pub fn drift_log(&self) -> &[DriftChange] {
        &self.drift_log
    }

    /// Ports whose serving mirror has drifted more than `threshold` dB
    /// from the as-built baseline — the proactive-maintenance list.
    pub fn drift_report(&self, threshold: Db) -> Vec<(bool, PortId, Db)> {
        let core = self.optical_core();
        let mut out = Vec::new();
        for port in 0..self.ports() {
            for north in [true, false] {
                let d = core.port_drift(north, port);
                if d.db() > threshold.db() {
                    out.push((north, port as PortId, d));
                }
            }
        }
        out
    }

    /// Fails a chassis FRU slot. A slot the chassis does not have is
    /// refused, and nothing changes.
    pub fn fail_fru(&mut self, slot: usize) -> Result<(), OcsError> {
        self.chassis.fail_slot(slot)?;
        self.changed();
        self.raise(
            Severity::Warning,
            AlarmCause::FruFailed { slot: slot as u32 },
        );
        if !self.chassis.is_operational() {
            self.raise(Severity::Critical, AlarmCause::ChassisDown);
        }
        Ok(())
    }

    /// Field-replaces a FRU slot; circuits whose mirror state was dropped
    /// by the swap re-align automatically. A slot the chassis does not
    /// have is refused, and nothing changes.
    pub fn replace_fru(&mut self, slot: usize) -> Result<(), OcsError> {
        let effect = self.chassis.replace_slot(slot)?;
        self.changed();
        for port in effect.disturbed_ports {
            if let Some((s, _)) = self.crossbar.circuit(port) {
                self.realign(port, s);
            }
        }
        Ok(())
    }

    /// Circuits still aligning — [`OcsHealth::pending`] without the
    /// snapshot around it.
    pub fn pending_circuits(&self) -> usize {
        self.pending.len()
    }

    /// No circuit finishes aligning before this: a lower bound, never
    /// late, though it may be early (the time of a circuit torn down
    /// mid-alignment lingers until the clock passes it). Whoever ticks
    /// many switches need not visit this one before then.
    pub fn next_due(&self) -> Nanos {
        self.next_due
    }

    /// Health snapshot.
    pub fn health(&self) -> OcsHealth {
        let mut degraded: Vec<PortId> = self.dead_ports.iter().copied().collect();
        degraded.extend(self.chassis.degraded_ports());
        degraded.sort_unstable();
        degraded.dedup();
        OcsHealth {
            operational: self.chassis.is_operational(),
            circuits: self.crossbar.circuit_count(),
            pending: self.pending_circuits(),
            degraded_ports: degraded,
            mirror_spares: self.core.get().map_or(self.spares_as_built, |core| {
                (
                    core.die_north.spares_remaining(),
                    core.die_south.spares_remaining(),
                )
            }),
            power_w: self.chassis.power_draw_w(self.crossbar.circuit_count()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settled(ocs: &mut PalomarOcs) {
        ocs.advance(Nanos::from_millis(200));
    }

    /// A full target the way the fabric commits one: the switch's diff,
    /// applied as a delta.
    fn commit(ocs: &mut PalomarOcs, target: &PortMapping) -> Result<ReconfigReport, OcsError> {
        let delta = ocs.delta_to(target)?;
        ocs.apply_delta(&delta.add, &delta.remove)
    }

    #[test]
    fn connect_aligns_then_carries() {
        let mut ocs = PalomarOcs::new(0, 42);
        let ready = ocs.connect(3, 77).unwrap();
        assert!(!ocs.circuit_ready(3), "must align first");
        assert!(ready > Nanos(0));
        ocs.advance(ready);
        assert!(ocs.circuit_ready(3));
        let il = ocs.insertion_loss(3).unwrap();
        assert!(il.db() < 4.0, "aligned circuit loss {il} sane");
    }

    #[test]
    fn reconfig_preserves_untouched_circuits() {
        let mut ocs = PalomarOcs::new(0, 1);
        ocs.connect(0, 10).unwrap();
        ocs.connect(1, 11).unwrap();
        settled(&mut ocs);
        assert!(ocs.circuit_ready(0) && ocs.circuit_ready(1));
        // New mapping keeps 0→10, moves 1→20, adds 2→12.
        let target = PortMapping::from_pairs([(0, 10), (1, 20), (2, 12)]).unwrap();
        let report = commit(&mut ocs, &target).unwrap();
        assert_eq!(report.untouched, 1);
        assert_eq!(report.removed, vec![1]);
        assert_eq!(report.added, vec![(1, 20), (2, 12)]);
        // The untouched circuit is *still carrying light* mid-reconfig.
        assert!(ocs.circuit_ready(0), "non-disruption guarantee violated");
        assert!(!ocs.circuit_ready(1), "moved circuit must re-align");
        settled(&mut ocs);
        assert!(ocs.circuit_ready(1) && ocs.circuit_ready(2));
    }

    #[test]
    fn switching_time_is_ms_class() {
        let mut ocs = PalomarOcs::new(0, 9);
        let ready = ocs.connect(0, 0).unwrap();
        let ms = ready.as_millis_f64();
        assert!((5.0..60.0).contains(&ms), "switching time {ms} ms");
    }

    #[test]
    fn chassis_failure_blocks_new_circuits() {
        let mut ocs = PalomarOcs::new(0, 2);
        ocs.fail_fru(0).unwrap();
        ocs.fail_fru(1).unwrap(); // both PSUs
        assert!(!ocs.is_up());
        assert_eq!(ocs.connect(0, 1), Err(OcsError::ChassisDown));
        let crit: Vec<_> = ocs
            .telemetry()
            .alarms()
            .iter()
            .filter(|a| a.severity == Severity::Critical)
            .map(|a| &a.cause)
            .collect();
        assert_eq!(crit, [&AlarmCause::ChassisDown], "ChassisDown alarm raised");
    }

    #[test]
    fn mirror_failure_consumes_spare_and_realigns() {
        let mut ocs = PalomarOcs::new(0, 3);
        ocs.connect(5, 50).unwrap();
        settled(&mut ocs);
        assert!(ocs.circuit_ready(5));
        let spares_before = ocs.health().mirror_spares.0;
        ocs.fail_mirror(true, 5).unwrap();
        assert_eq!(ocs.health().mirror_spares.0, spares_before - 1);
        assert!(!ocs.circuit_ready(5), "circuit re-aligning on spare mirror");
        settled(&mut ocs);
        assert!(ocs.circuit_ready(5), "spare restored the circuit");
    }

    #[test]
    fn south_die_mirror_failure_realigns_owner() {
        let mut ocs = PalomarOcs::new(0, 8);
        ocs.connect(7, 70).unwrap();
        settled(&mut ocs);
        ocs.fail_mirror(false, 70).unwrap();
        assert!(!ocs.circuit_ready(7));
        settled(&mut ocs);
        assert!(ocs.circuit_ready(7));
    }

    #[test]
    fn exhausted_spares_kill_the_port() {
        let mut ocs = PalomarOcs::new(0, 4);
        // Burn all north-die spares on port 9.
        while ocs.health().mirror_spares.0 > 0 {
            ocs.fail_mirror(true, 9).unwrap();
        }
        ocs.fail_mirror(true, 9).unwrap(); // one more: no spare left
        assert_eq!(ocs.connect(9, 1), Err(OcsError::PortDegraded(9)));
        assert!(ocs.health().degraded_ports.contains(&9));
    }

    #[test]
    fn hv_driver_swap_realigns_its_ports() {
        let mut ocs = PalomarOcs::new(0, 5);
        ocs.connect(2, 40).unwrap(); // port 2 is in HV group 0 (ports 0..34)
        ocs.connect(100, 101).unwrap(); // port 100 in a different group
        settled(&mut ocs);
        // Fail + replace HV driver slot 6 (first driver, ports 0..34).
        ocs.fail_fru(6).unwrap();
        assert_eq!(ocs.connect(3, 41), Err(OcsError::PortDegraded(3)));
        ocs.replace_fru(6).unwrap();
        assert!(
            !ocs.circuit_ready(2),
            "swap drops mirror state for its group"
        );
        assert!(ocs.circuit_ready(100), "other groups unaffected");
        settled(&mut ocs);
        assert!(ocs.circuit_ready(2));
    }

    #[test]
    fn power_is_a_fraction_of_eps() {
        let mut ocs = PalomarOcs::new(0, 6);
        for i in 0..64u16 {
            ocs.connect(i, i + 64).unwrap();
        }
        let h = ocs.health();
        assert!(h.power_w <= crate::chassis::MAX_POWER_W);
        assert_eq!(h.circuits, 64);
    }

    #[test]
    fn telemetry_counts_reconfigs_and_preservation() {
        let mut ocs = PalomarOcs::new(0, 7);
        let m1 = PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap();
        commit(&mut ocs, &m1).unwrap();
        settled(&mut ocs);
        let m2 = PortMapping::from_pairs([(0, 1), (2, 4)]).unwrap();
        commit(&mut ocs, &m2).unwrap();
        let c = &ocs.telemetry().counters;
        assert_eq!(c.reconfigs, 2);
        assert_eq!(c.circuits_preserved, 1); // (0,1) survived
        assert_eq!(c.connects, 3);
        assert_eq!(c.disconnects, 1);
    }

    #[test]
    fn apply_delta_touches_only_the_delta() {
        let mut ocs = PalomarOcs::new(0, 21);
        ocs.apply_delta(&[(0, 10), (1, 11)], &[]).unwrap();
        settled(&mut ocs);
        assert!(ocs.circuit_ready(0) && ocs.circuit_ready(1));
        // Move (1, 11) → (1, 20), add (2, 12), leave (0, 10) alone.
        let report = ocs.apply_delta(&[(1, 20), (2, 12)], &[1]).unwrap();
        assert_eq!(report.untouched, 1);
        assert_eq!(report.removed, vec![1]);
        assert_eq!(report.added, vec![(1, 20), (2, 12)]);
        assert!(ocs.circuit_ready(0), "untouched circuit kept carrying");
        assert!(!ocs.circuit_ready(1), "moved circuit re-aligns");
        settled(&mut ocs);
        assert!(ocs.circuit_ready(1) && ocs.circuit_ready(2));
        // Matches what committing the equivalent target would say.
        let c = &ocs.telemetry().counters;
        assert_eq!(c.reconfigs, 2);
        assert_eq!(c.circuits_preserved, 1);
    }

    #[test]
    fn apply_delta_is_its_summary_plus_the_callers_lists() {
        // `listed` checks each delta inside `apply_delta`; `counted` has
        // `validate_delta` remember it first, so its report's lists are
        // the copy that check made.
        let (mut listed, mut counted) = (PalomarOcs::new(0, 26), PalomarOcs::new(0, 26));
        let adds: [&[(PortId, PortId)]; 3] = [
            &[(0, 10), (1, 11), (2, 12)],
            &[(1, 20)],
            &[(5, 10)], // south 10 is busy: refused by both
        ];
        let removes: [&[PortId]; 3] = [&[], &[1, 2], &[]];
        for (add, remove) in adds.into_iter().zip(removes) {
            let report = listed.apply_delta(add, remove);
            let checked = counted.validate_delta(add, remove);
            let stamped = counted.apply_delta(add, remove);
            assert_eq!(checked.is_ok(), stamped.is_ok());
            assert_eq!(
                report.as_ref().map(|r| r.summary()),
                stamped.as_ref().map(|r| r.summary())
            );
            for report in report.iter().chain(stamped.iter()) {
                assert_eq!((&report.added[..], &report.removed[..]), (add, remove));
                assert_eq!(report.summary().added, add.len());
                assert_eq!(report.summary().removed, remove.len());
            }
            assert_eq!(listed.mapping(), counted.mapping());
            assert_eq!(listed.pending_circuits(), listed.health().pending);
            assert_eq!(listed.health(), counted.health());
        }
    }

    #[test]
    fn apply_delta_rejects_without_applying() {
        let mut ocs = PalomarOcs::new(0, 22);
        ocs.apply_delta(&[(0, 10)], &[]).unwrap();
        settled(&mut ocs);
        // South 10 is held by north 0 and the delta does not free it.
        let err = ocs.apply_delta(&[(5, 10)], &[]).unwrap_err();
        assert_eq!(err, OcsError::Crossbar(CrossbarError::SouthBusy(10)));
        // Removing a circuit that does not exist rejects too.
        let err = ocs.apply_delta(&[], &[7]).unwrap_err();
        assert_eq!(err, OcsError::Crossbar(CrossbarError::NotConnected(7)));
        // Intra-delta conflicts are structural errors, not panics.
        let err = ocs.apply_delta(&[(3, 30), (4, 30)], &[]).unwrap_err();
        assert_eq!(
            err,
            OcsError::Crossbar(CrossbarError::NotBijective { south: 30 })
        );
        assert_eq!(ocs.mapping().len(), 1, "nothing applied on any error");
        assert!(ocs.circuit_ready(0));
    }

    #[test]
    fn apply_delta_checks_only_delta_ports() {
        let mut ocs = PalomarOcs::new(0, 23);
        ocs.apply_delta(&[(2, 40), (100, 101)], &[]).unwrap();
        settled(&mut ocs);
        // HV driver slot 6 fails: ports 0..34 degrade under circuit (2, 40).
        ocs.fail_fru(6).unwrap();
        // A delta leaving the degraded circuit alone still commits.
        let report = ocs.apply_delta(&[(120, 121)], &[100]).unwrap();
        assert_eq!(report.untouched, 1);
        // But a delta (re)establishing on a degraded port rejects.
        assert_eq!(
            ocs.apply_delta(&[(3, 50)], &[]).unwrap_err(),
            OcsError::PortDegraded(3)
        );
    }

    #[test]
    fn a_refused_delta_leaves_no_flag_behind() {
        // Each refusal comes after flags were set: a south named twice, a
        // north removed twice, a degraded port after a removal and an
        // addition. The valid delta after it names the same ports.
        type Refusal<'a> = (&'a [(PortId, PortId)], &'a [PortId], OcsError);
        let refusals: [Refusal; 3] = [
            (
                &[(50, 51), (52, 51)],
                &[],
                CrossbarError::NotBijective { south: 51 }.into(),
            ),
            (
                &[(50, 51)],
                &[40, 40],
                CrossbarError::NotConnected(40).into(),
            ),
            (&[(50, 51), (3, 52)], &[40], OcsError::PortDegraded(3)),
        ];
        for (add, remove, refusal) in refusals {
            let mut ocs = PalomarOcs::new(0, 27);
            ocs.connect(40, 41).unwrap();
            ocs.fail_fru(6).unwrap(); // ports 0..34
            assert_eq!(ocs.validate_delta(add, remove), Err(refusal));
            assert_eq!(
                ocs.apply_delta(add, remove).map(|r| r.summary()),
                Err(refusal)
            );
            assert!(ocs.marks.iter().all(|&m| m == 0), "{refusal:?}");
            ocs.apply_delta(&[(50, 51), (52, 40)], &[40]).unwrap();
            assert_eq!(
                ocs.mapping().pairs().collect::<Vec<_>>(),
                [(50, 51), (52, 40)]
            );
        }
    }

    #[test]
    fn a_lineage_names_the_circuits_a_switch_holds() {
        let fresh = || PalomarOcs::with_ports(0, 28, 136);
        let (mut a, mut b, mut c) = (fresh(), fresh(), PalomarOcs::with_ports(1, 29, 300));
        assert_eq!((a.lineage, b.lineage, c.lineage), (136, 136, 300));
        // One shared apply from one lineage: one fresh value, never a
        // radix; a third switch from another lineage gets another.
        let mut delta = SharedDelta::default();
        delta.refill(&[(1, 2), (3, 4)], &[]);
        for ocs in [&mut a, &mut b, &mut c] {
            ocs.vet_shared(&mut delta).unwrap();
            ocs.apply_shared(&mut delta).unwrap();
        }
        assert_eq!(a.lineage, b.lineage);
        assert!(a.lineage > u64::from(u16::MAX) && a.lineage != UNKNOWN);
        assert_ne!(c.lineage, a.lineage);
        // Any other change is unknown, until the crossbar is empty again.
        b.connect(5, 6).unwrap();
        assert_eq!(b.lineage, UNKNOWN);
        for n in [1, 3, 5] {
            b.disconnect(n).unwrap();
        }
        assert_eq!(b.lineage, 136);
        a.fail_fru(0).unwrap();
        assert_eq!(a.lineage, UNKNOWN, "a fault is a change");
        // A refill is a new run: nothing vetted, a new serial.
        let serial = delta.serial;
        delta.refill(&[(1, 2), (3, 4)], &[]);
        assert!(delta.serial != serial && delta.vetted == UNKNOWN);
    }

    #[test]
    fn next_gen_300_port_switch_works() {
        // §6: the 300×300 development part drops into the same stack.
        let mut ocs = PalomarOcs::with_ports(1, 77, 300);
        assert_eq!(ocs.ports(), 300);
        let ready = ocs.connect(299, 0).unwrap();
        ocs.advance(ready);
        assert!(ocs.circuit_ready(299));
        assert!(ocs.insertion_loss(299).unwrap().db() < 4.5);
        // Full 300-circuit permutation is realizable (still non-blocking).
        for i in 0..299u16 {
            ocs.connect(i, i + 1).unwrap();
        }
        assert_eq!(ocs.health().circuits, 300);
    }

    #[test]
    fn the_300_port_chassis_drives_every_port() {
        let mut ocs = PalomarOcs::with_ports(1, 77, 300);
        ocs.connect(200, 10).unwrap();
        settled(&mut ocs);
        // An FPGA swap drops the mirror state of all 300 ports: the
        // circuit on port 200 re-aligns.
        ocs.fail_fru(15).unwrap();
        ocs.replace_fru(15).unwrap();
        assert!(!ocs.circuit_ready(200), "port 200 must re-align");
        settled(&mut ocs);
        assert!(ocs.circuit_ready(200));
        // A failed HV driver degrades its quarter: ports 225..300.
        ocs.fail_fru(9).unwrap();
        assert_eq!(ocs.health().degraded_ports, (225..300).collect::<Vec<_>>());
        assert_eq!(ocs.connect(299, 0), Err(OcsError::PortDegraded(299)));
    }

    #[test]
    fn drift_anomalies_surface_after_spare_churn() {
        let mut ocs = PalomarOcs::new(0, 12);
        ocs.connect(5, 50).unwrap();
        settled(&mut ocs);
        // Churn spares until the drift alarm fires (the spare pool is
        // quality-ordered, so repeated failures walk down the barrel).
        let mut fired = false;
        for _ in 0..ocs.health().mirror_spares.0 {
            ocs.fail_mirror(true, 5).unwrap();
            settled(&mut ocs);
            let high_loss = ocs.telemetry().alarms().iter().find_map(|a| match a.cause {
                AlarmCause::HighLoss {
                    north,
                    south,
                    loss_mdb,
                } => Some((north, south, loss_mdb)),
                _ => None,
            });
            if let Some((north, south, loss_mdb)) = high_loss {
                // The reading is the path's loss, quantized to milli-dB.
                let loss = ocs.optical_core().insertion_loss(5, 50);
                assert_eq!((north, south), (5, 50));
                assert_eq!(loss_mdb, (loss.db() * 1000.0).round() as i32);
                fired = true;
                break;
            }
        }
        assert!(fired, "enough spare churn must trip the HighLoss anomaly");
        let report = ocs.drift_report(lightwave_units::Db(DRIFT_ALARM_DB));
        assert!(
            report.iter().any(|&(north, port, _)| north && port == 5),
            "the drift report lists the churned port: {report:?}"
        );
        // Fresh ports report no drift.
        assert!(report.iter().all(|&(_, port, _)| port == 5));
    }

    #[test]
    fn degrade_mirror_is_silent_but_logged() {
        let mut ocs = PalomarOcs::new(0, 13);
        ocs.connect(6, 60).unwrap();
        settled(&mut ocs);
        let alarms_before = ocs.telemetry().alarms().len();
        let loss_before = ocs.insertion_loss(6).unwrap();
        ocs.degrade_mirror(true, 6, 0.03).unwrap();
        ocs.degrade_mirror(true, 6, 0.03).unwrap();
        // Silent: no alarm, chassis up, circuit still carrying.
        assert_eq!(ocs.telemetry().alarms().len(), alarms_before);
        assert!(ocs.is_up());
        assert!(ocs.circuit_ready(6));
        // But the path got lossier and the log recorded each step.
        let loss_after = ocs.insertion_loss(6).unwrap();
        assert!((loss_after.db() - loss_before.db() - 0.06).abs() < 1e-9);
        let log = ocs.drift_log();
        assert_eq!(log.len(), 2);
        assert!(log.iter().all(|d| d.north && d.port == 6));
        assert!(log[1].drift_db > log[0].drift_db);
        // Spare swaps land in the same log (abrupt drift changes).
        ocs.fail_mirror(true, 6).unwrap();
        assert_eq!(ocs.drift_log().len(), 3);
    }

    #[test]
    fn disconnect_while_aligning_is_clean() {
        let mut ocs = PalomarOcs::new(0, 10);
        ocs.connect(4, 44).unwrap();
        ocs.disconnect(4).unwrap(); // still aligning
        settled(&mut ocs); // must not panic on vanished pending circuit
        assert!(ocs.mapping().is_empty());
    }

    #[test]
    fn out_of_range_ports_are_errors_not_panics() {
        for ports in [136u16, 300] {
            let mut ocs = PalomarOcs::with_ports(0, 24, ports as usize);
            ocs.connect(0, ports - 1).unwrap();
            for p in [ports, 9999, u16::MAX] {
                let not_connected = Err(CrossbarError::NotConnected(p).into());
                let out_of_range = Err(CrossbarError::PortOutOfRange(p).into());
                assert_eq!(ocs.validate_delta(&[], &[p]), not_connected);
                assert_eq!(ocs.apply_delta(&[], &[p]).map(drop), not_connected);
                assert_eq!(ocs.validate_delta(&[(p, 1)], &[]), out_of_range);
                assert_eq!(ocs.apply_delta(&[(1, p)], &[]).map(drop), out_of_range);
                assert_eq!(ocs.connect(p, 1).map(drop), out_of_range);
                assert_eq!(ocs.disconnect(p), out_of_range);
                assert!(!ocs.circuit_ready(p));
                assert_eq!(ocs.insertion_loss(p), None);
                let target = PortMapping::from_pairs([(1, p)]).unwrap();
                assert_eq!(ocs.delta_to(&target).map(drop), out_of_range);
            }
            assert_eq!(ocs.mapping().pairs().collect::<Vec<_>>(), [(0, ports - 1)]);
            assert_eq!(ocs.health().pending, 1);
        }
    }

    #[test]
    fn health_reports_as_built_spares_until_a_mirror_fails() {
        for ports in [136, 300] {
            let mut ocs = PalomarOcs::with_ports(0, 31, ports);
            ocs.connect(5, 50).unwrap();
            settled(&mut ocs);
            let as_built = ocs.health().mirror_spares;
            assert!(ocs.core.get().is_none(), "health() built the core");
            let dies = |ocs: &PalomarOcs| {
                let core = ocs.optical_core();
                (
                    core.die_north.spares_remaining(),
                    core.die_south.spares_remaining(),
                )
            };
            assert_eq!(as_built, dies(&ocs), "the field is the dies' count");
            assert_eq!(ocs.health().mirror_spares, as_built);
            // Once a mirror has failed the dies answer, not the field.
            ocs.fail_mirror(false, 50).unwrap();
            assert_eq!(ocs.health().mirror_spares, (as_built.0, as_built.1 - 1));
            assert_eq!(ocs.health().mirror_spares, dies(&ocs));
        }
    }

    #[test]
    fn mirror_faults_build_the_core_they_change() {
        // The first thing to touch the core is a fault, through `&mut`.
        let mut ocs = PalomarOcs::new(0, 32);
        let as_built = ocs.health().mirror_spares;
        ocs.fail_mirror(true, 9).unwrap();
        assert_eq!(ocs.health().mirror_spares, (as_built.0 - 1, as_built.1));
        let mut ocs = PalomarOcs::new(0, 32);
        ocs.degrade_mirror(false, 9, 0.04).unwrap();
        assert!(ocs.core.get().is_some(), "degrade_mirror built the core");
        assert!((ocs.drift_log()[0].drift_db - 0.04).abs() < 1e-12);
        assert_eq!(ocs.drift_report(Db(0.03)).len(), 1);
    }

    type Fault = fn(&mut PalomarOcs, PortId, usize) -> Result<(), OcsError>;

    #[test]
    fn a_fault_on_what_the_switch_lacks_is_refused_and_changes_nothing() {
        // The first port and slot past the switch's own, and the largest
        // its argument types hold.
        for (ports, port, slot) in [(136, 136, 16), (136, u16::MAX, usize::MAX), (300, 300, 16)] {
            let no_port = Err(CrossbarError::PortOutOfRange(port).into());
            let no_slot = Err(OcsError::SlotOutOfRange(slot));
            let faults: [(Fault, Result<(), OcsError>); 4] = [
                (|ocs, port, _| ocs.fail_mirror(true, port), no_port),
                (
                    |ocs, port, _| ocs.degrade_mirror(false, port, 0.01),
                    no_port,
                ),
                (|ocs, _, slot| ocs.fail_fru(slot), no_slot),
                (|ocs, _, slot| ocs.replace_fru(slot), no_slot),
            ];
            for (fault, refusal) in faults {
                let mut ocs = PalomarOcs::with_ports(7, 33, ports);
                ocs.connect(0, 1).unwrap();
                let health = ocs.health();
                assert_eq!(fault(&mut ocs, port, slot), refusal, "{ports} ports");
                assert!(ocs.core.get().is_none(), "fabricated a core for nothing");
                assert_eq!(ocs.epoch, 1, "a refusal bumped the epoch");
                assert_eq!(ocs.health(), health);
                assert!(ocs.telemetry().alarms().is_empty());
                assert_eq!(ocs.telemetry().counters.mirror_failures, 0);
                assert!(ocs.drift_log().is_empty());
            }
        }
    }

    #[test]
    fn realigning_a_pending_circuit_replaces_its_ready_time() {
        // A mirror swap (north or south die) and an HV-driver swap, each
        // hitting a circuit that is still aligning.
        let faults: [fn(&mut PalomarOcs); 3] = [
            |ocs| ocs.fail_mirror(true, 2).unwrap(),
            |ocs| ocs.fail_mirror(false, 40).unwrap(),
            |ocs| ocs.replace_fru(6).unwrap(),
        ];
        for ports in [136, 300] {
            for fault in faults {
                let mut ocs = PalomarOcs::with_ports(0, 25, ports);
                let first = ocs.connect(2, 40).unwrap();
                ocs.advance(Nanos::from_millis(10));
                fault(&mut ocs);
                assert_eq!(ocs.health().pending, 1, "replaced, not counted twice");
                assert_eq!(ocs.telemetry().counters.alignments, 2);
                // The first ready time passes: it no longer counts.
                ocs.advance(first.saturating_sub(ocs.now()));
                assert!(!ocs.circuit_ready(2));
                assert_eq!(ocs.health().pending, 1);
                ocs.advance(Nanos::from_millis(20));
                assert!(ocs.circuit_ready(2));
                assert_eq!(ocs.health().pending, 0);
            }
        }
    }
}
