//! The Palomar OCS facade: optical core + crossbar + chassis + telemetry
//! under one simulation clock.

use crate::camera::{AlignmentKernel, AlignmentLoop, ALIGNMENT_TOLERANCE};
use crate::chassis::Chassis;
use crate::crossbar::{ConnectionState, Crossbar, CrossbarError, PortId, PortMapping};
use crate::loss::OpticalCore;
use crate::mems::MemsDie;
use crate::telemetry::{AlarmCode, Severity, Telemetry};
use lightwave_units::{Db, Nanos};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
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
pub const DRIFT_ALARM_DB: f64 = 0.12;

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

/// The delta [`PalomarOcs::validate_delta`] last accepted, and the
/// mutation epoch it was accepted at. While the switch has not changed
/// since, [`PalomarOcs::apply_delta`] of exactly that delta skips its own
/// validation: a transaction validates every switch, then applies to
/// every switch, and each switch checks its part once.
#[derive(Debug, Default)]
struct ValidatedDelta {
    epoch: Option<u64>,
    add: Vec<(PortId, PortId)>,
    remove: Vec<PortId>,
}

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
    validated: ValidatedDelta,
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
            chassis: Chassis::new(),
            telemetry: Telemetry::new(),
            align: AlignmentLoop::default().prepare(ALIGNMENT_TOLERANCE),
            rng: StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0),
            pending: Vec::new(),
            next_due: Nanos(u64::MAX),
            epoch: 0,
            validated: ValidatedDelta::default(),
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
    /// first.
    ///
    /// # Panics
    /// Panics if the switch has no such port, before building anything.
    fn die_mut(&mut self, north_die: bool, port: PortId) -> &mut MemsDie {
        assert!(
            (port as usize) < self.ports(),
            "OCS {}: mirror fault on port {port} of a {}-port switch",
            self.id,
            self.ports()
        );
        self.optical_core();
        let core = self.core.get_mut().expect("just built");
        if north_die {
            &mut core.die_north
        } else {
            &mut core.die_south
        }
    }

    /// Current port mapping.
    pub fn mapping(&self) -> PortMapping {
        self.crossbar.mapping()
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
        Ok(self.establish(n, s)?)
    }

    /// Connects `n` → `s` on the crossbar and starts its alignment.
    fn establish(&mut self, n: PortId, s: PortId) -> Result<Nanos, CrossbarError> {
        self.crossbar.connect(n, s)?;
        self.epoch += 1;
        self.telemetry.counters.connects += 1;
        Ok(self.run_alignment(n))
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
            self.telemetry.raise(
                self.now,
                Severity::Warning,
                AlarmCode::AlignmentTimeout { north: n },
            );
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
        self.crossbar.disconnect(n).expect("circuit exists");
        self.crossbar.connect(n, s).expect("ports were just freed");
        self.epoch += 1;
        self.run_alignment(n);
    }

    /// Tears down the circuit on North port `n`.
    pub fn disconnect(&mut self, n: PortId) -> Result<(), OcsError> {
        let (_, state) = self.crossbar.take(n)?;
        if state == ConnectionState::Connecting {
            self.pending.retain(|&(p, _)| p != n);
        }
        self.epoch += 1;
        self.telemetry.counters.disconnects += 1;
        Ok(())
    }

    /// Vets a full target the way [`PalomarOcs::apply_mapping`] will,
    /// without applying it. Port-usability applies to the delta, not the
    /// whole target: circuits already carrying on a since-degraded port
    /// stay as they are (tearing them down would turn the degradation
    /// into an outage, and rejecting the target would wedge the switch) —
    /// only circuits the target must (re)establish need healthy drive on
    /// both ports.
    pub fn validate_mapping(&self, target: &PortMapping) -> Result<(), OcsError> {
        if !self.chassis.is_operational() {
            return Err(OcsError::ChassisDown);
        }
        self.crossbar.validate(target)?;
        for (n, s) in target.pairs() {
            if !matches!(self.crossbar.circuit(n), Some((cur, _)) if cur == s) {
                self.check_usable(n)?;
                self.check_usable(s)?;
            }
        }
        Ok(())
    }

    /// Applies a target mapping as a minimal delta: circuits present in
    /// both old and new configurations are never touched.
    pub fn apply_mapping(&mut self, target: &PortMapping) -> Result<ReconfigReport, OcsError> {
        self.validate_mapping(target)?;
        let delta = self.crossbar.delta_to(target);
        for &n in &delta.remove {
            self.disconnect(n)?;
        }
        let mut ready_at = self.now;
        for &(n, s) in &delta.add {
            ready_at = ready_at.max(self.establish(n, s)?);
        }
        self.telemetry.counters.reconfigs += 1;
        self.telemetry.counters.circuits_preserved += delta.unchanged.len() as u64;
        Ok(ReconfigReport {
            removed: delta.remove,
            added: delta.add,
            untouched: delta.unchanged.len(),
            ready_at,
        })
    }

    /// Validates an incremental reconfiguration without applying it:
    /// `remove` circuits (by north port) must exist, `add` pairs must land
    /// on usable, structurally free ports once the removes are accounted
    /// for. Port-usability covers exactly the delta — untouched circuits
    /// are never re-vetted (the same contract as [`PalomarOcs::apply_mapping`]).
    ///
    /// Takes `&mut self` only for scratch space and to remember the delta
    /// it accepted (so that applying it next need not validate again); no
    /// observable state changes.
    pub fn validate_delta(
        &mut self,
        add: &[(PortId, PortId)],
        remove: &[PortId],
    ) -> Result<(), OcsError> {
        self.validated.epoch = None;
        self.check_delta(add, remove)?;
        self.validated.add.clear();
        self.validated.add.extend_from_slice(add);
        self.validated.remove.clear();
        self.validated.remove.extend_from_slice(remove);
        self.validated.epoch = Some(self.epoch);
        Ok(())
    }

    fn check_delta(&mut self, add: &[(PortId, PortId)], remove: &[PortId]) -> Result<(), OcsError> {
        if !self.chassis.is_operational() {
            return Err(OcsError::ChassisDown);
        }
        let ports = self.crossbar.ports();
        self.marks.fill(0);
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
    /// circuits, establishes the `add` pairs, touches nothing else. The
    /// O(delta) counterpart of [`PalomarOcs::apply_mapping`] — no full
    /// mapping is collected or diffed. The delta is validated first, unless
    /// it is the one [`PalomarOcs::validate_delta`] just accepted and the
    /// switch has not changed since. On error nothing has been applied.
    ///
    /// The lists the report carries are copies of `add` and `remove`; a
    /// caller that keeps its own takes [`PalomarOcs::apply_delta_summary`].
    pub fn apply_delta(
        &mut self,
        add: &[(PortId, PortId)],
        remove: &[PortId],
    ) -> Result<ReconfigReport, OcsError> {
        let done = self.apply_delta_summary(add, remove)?;
        Ok(ReconfigReport {
            removed: remove.to_vec(),
            added: add.to_vec(),
            untouched: done.untouched,
            ready_at: done.ready_at,
        })
    }

    /// [`PalomarOcs::apply_delta`] reporting counts only: nothing is
    /// copied and nothing is allocated for the report.
    pub fn apply_delta_summary(
        &mut self,
        add: &[(PortId, PortId)],
        remove: &[PortId],
    ) -> Result<ReconfigSummary, OcsError> {
        let vetted = &self.validated;
        if vetted.epoch != Some(self.epoch) || vetted.add != add || vetted.remove != remove {
            self.check_delta(add, remove)?;
        }
        let untouched = self.crossbar.circuit_count() - remove.len();
        for &n in remove {
            self.disconnect(n).expect("delta validated");
        }
        let mut ready_at = self.now;
        for &(n, s) in add {
            ready_at = ready_at.max(self.establish(n, s).expect("delta validated"));
        }
        self.telemetry.counters.reconfigs += 1;
        self.telemetry.counters.circuits_preserved += untouched as u64;
        Ok(ReconfigSummary {
            added: add.len(),
            removed: remove.len(),
            untouched,
            ready_at,
        })
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
    /// spare if one remains. Live circuits on the port are re-aligned.
    ///
    /// # Panics
    /// Panics if `port` is not a port of this switch.
    pub fn fail_mirror(&mut self, north_die: bool, port: PortId) {
        let spare_used = self.die_mut(north_die, port).fail_and_swap(port as usize);
        self.telemetry.counters.mirror_failures += 1;
        if spare_used {
            self.telemetry.counters.spares_consumed += 1;
            // A swapped-in spare sits at a different point of the loss
            // barrel: the port's drift changed, log it for the health
            // layer (the abrupt counterpart of slow degradation).
            self.log_drift(north_die, port);
        } else {
            self.dead_ports.insert(port);
            self.epoch += 1;
        }
        self.telemetry.raise(
            self.now,
            if spare_used {
                Severity::Warning
            } else {
                Severity::Critical
            },
            AlarmCode::MirrorFailed {
                north_die,
                port,
                spare_used,
            },
        );
        // Any circuit using the port must re-align onto the new mirror.
        if spare_used {
            let affected: Option<PortId> = if north_die {
                self.crossbar.circuit(port).map(|_| port)
            } else {
                self.crossbar.south_owner(port)
            };
            if let Some(n) = affected {
                let (s, _) = self.crossbar.circuit(n).expect("affected circuit exists");
                self.realign(n, s);
                // Anomaly detection: a drifted path eats link budget even
                // though the circuit "works" — surface it before the
                // transceiver margin does (§3.2.2).
                let core = self.optical_core();
                if core.port_drift(north_die, port as usize).db() > DRIFT_ALARM_DB {
                    let loss = core.insertion_loss(n as usize, s as usize);
                    self.telemetry.raise(
                        self.now,
                        Severity::Warning,
                        AlarmCode::HighLoss {
                            north: n,
                            south: s,
                            loss_db: loss.db(),
                        },
                    );
                }
            }
        }
    }

    /// Degrades the mirror serving `port` on the chosen die by `loss_db`
    /// of extra intrinsic loss — the slow, silent optical creep
    /// (contamination, actuator relaxation) that erodes the link budget
    /// in tenths of a dB. Deliberately raises **no alarm** and changes
    /// **no** chassis, circuit, or spare state: the only observable
    /// effects are higher insertion loss on the served path and an entry
    /// in the [`PalomarOcs::drift_log`] for the fleet-health detectors to
    /// catch before the port fails hard.
    ///
    /// # Panics
    /// Panics if `port` is not a port of this switch.
    pub fn degrade_mirror(&mut self, north_die: bool, port: PortId, loss_db: f64) {
        self.die_mut(north_die, port)
            .degrade(port as usize, loss_db);
        self.log_drift(north_die, port);
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

    /// Fails a chassis FRU slot.
    pub fn fail_fru(&mut self, slot: usize) {
        self.chassis.fail_slot(slot);
        self.epoch += 1;
        self.telemetry
            .raise(self.now, Severity::Warning, AlarmCode::FruFailed { slot });
        if !self.chassis.is_operational() {
            self.telemetry
                .raise(self.now, Severity::Critical, AlarmCode::ChassisDown);
        }
    }

    /// Field-replaces a FRU slot; circuits whose mirror state was dropped
    /// by the swap re-align automatically.
    pub fn replace_fru(&mut self, slot: usize) {
        let effect = self.chassis.replace_slot(slot);
        self.epoch += 1;
        for port in effect.disturbed_ports {
            if let Some((s, _)) = self.crossbar.circuit(port) {
                self.realign(port, s);
            }
        }
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
    use crate::loss::tests::panic_message;

    fn settled(ocs: &mut PalomarOcs) {
        ocs.advance(Nanos::from_millis(200));
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
        let report = ocs.apply_mapping(&target).unwrap();
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
        ocs.fail_fru(0);
        ocs.fail_fru(1); // both PSUs
        assert!(!ocs.is_up());
        assert_eq!(ocs.connect(0, 1), Err(OcsError::ChassisDown));
        let crit = ocs
            .telemetry()
            .alarms_at_least(crate::telemetry::Severity::Critical)
            .count();
        assert_eq!(crit, 1, "ChassisDown alarm raised");
    }

    #[test]
    fn mirror_failure_consumes_spare_and_realigns() {
        let mut ocs = PalomarOcs::new(0, 3);
        ocs.connect(5, 50).unwrap();
        settled(&mut ocs);
        assert!(ocs.circuit_ready(5));
        let spares_before = ocs.health().mirror_spares.0;
        ocs.fail_mirror(true, 5);
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
        ocs.fail_mirror(false, 70);
        assert!(!ocs.circuit_ready(7));
        settled(&mut ocs);
        assert!(ocs.circuit_ready(7));
    }

    #[test]
    fn exhausted_spares_kill_the_port() {
        let mut ocs = PalomarOcs::new(0, 4);
        // Burn all north-die spares on port 9.
        while ocs.health().mirror_spares.0 > 0 {
            ocs.fail_mirror(true, 9);
        }
        ocs.fail_mirror(true, 9); // one more: no spare left
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
        ocs.fail_fru(6);
        assert_eq!(ocs.connect(3, 41), Err(OcsError::PortDegraded(3)));
        ocs.replace_fru(6);
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
        ocs.apply_mapping(&m1).unwrap();
        settled(&mut ocs);
        let m2 = PortMapping::from_pairs([(0, 1), (2, 4)]).unwrap();
        ocs.apply_mapping(&m2).unwrap();
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
        // Matches what apply_mapping on the equivalent target would say.
        let c = &ocs.telemetry().counters;
        assert_eq!(c.reconfigs, 2);
        assert_eq!(c.circuits_preserved, 1);
    }

    #[test]
    fn apply_delta_is_its_summary_plus_the_callers_lists() {
        let (mut listed, mut counted) = (PalomarOcs::new(0, 26), PalomarOcs::new(0, 26));
        let adds: [&[(PortId, PortId)]; 3] = [
            &[(0, 10), (1, 11), (2, 12)],
            &[(1, 20)],
            &[(5, 10)], // south 10 is busy: refused by both
        ];
        let removes: [&[PortId]; 3] = [&[], &[1, 2], &[]];
        for (add, remove) in adds.into_iter().zip(removes) {
            let report = listed.apply_delta(add, remove);
            let summary = counted.apply_delta_summary(add, remove);
            assert_eq!(
                report.as_ref().map(|r| r.summary()),
                summary.as_ref().copied()
            );
            if let Ok(report) = report {
                assert_eq!((&report.added[..], &report.removed[..]), (add, remove));
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
        ocs.fail_fru(6);
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
    fn drift_anomalies_surface_after_spare_churn() {
        let mut ocs = PalomarOcs::new(0, 12);
        ocs.connect(5, 50).unwrap();
        settled(&mut ocs);
        // Churn spares until the drift alarm fires (the spare pool is
        // quality-ordered, so repeated failures walk down the barrel).
        let mut fired = false;
        for _ in 0..ocs.health().mirror_spares.0 {
            ocs.fail_mirror(true, 5);
            settled(&mut ocs);
            let high_loss = ocs
                .telemetry()
                .alarms()
                .iter()
                .any(|a| matches!(a.code, crate::telemetry::AlarmCode::HighLoss { .. }));
            if high_loss {
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
        ocs.degrade_mirror(true, 6, 0.03);
        ocs.degrade_mirror(true, 6, 0.03);
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
        ocs.fail_mirror(true, 6);
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
                assert_eq!(ocs.apply_mapping(&target).map(drop), out_of_range);
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
            ocs.fail_mirror(false, 50);
            assert_eq!(ocs.health().mirror_spares, (as_built.0, as_built.1 - 1));
            assert_eq!(ocs.health().mirror_spares, dies(&ocs));
        }
    }

    #[test]
    fn mirror_faults_build_the_core_they_change() {
        // The first thing to touch the core is a fault, through `&mut`.
        let mut ocs = PalomarOcs::new(0, 32);
        let as_built = ocs.health().mirror_spares;
        ocs.fail_mirror(true, 9);
        assert_eq!(ocs.health().mirror_spares, (as_built.0 - 1, as_built.1));
        let mut ocs = PalomarOcs::new(0, 32);
        ocs.degrade_mirror(false, 9, 0.04);
        assert!(ocs.core.get().is_some(), "degrade_mirror built the core");
        assert!((ocs.drift_log()[0].drift_db - 0.04).abs() < 1e-12);
        assert_eq!(ocs.drift_report(Db(0.03)).len(), 1);
    }

    #[test]
    fn a_mirror_fault_on_a_port_the_switch_lacks_says_so_and_builds_nothing() {
        for (ports, port) in [(136usize, 136u16), (136, u16::MAX), (300, 300)] {
            let faults: [fn(&mut PalomarOcs, PortId); 2] = [
                |ocs, port| ocs.fail_mirror(true, port),
                |ocs, port| ocs.degrade_mirror(false, port, 0.01),
            ];
            for fault in faults {
                let mut ocs = PalomarOcs::with_ports(7, 33, ports);
                let message = panic_message(std::panic::AssertUnwindSafe(|| fault(&mut ocs, port)));
                assert_eq!(
                    message,
                    format!("OCS 7: mirror fault on port {port} of a {ports}-port switch")
                );
                assert!(ocs.core.get().is_none(), "fabricated a core for nothing");
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
            |ocs| ocs.fail_mirror(true, 2),
            |ocs| ocs.fail_mirror(false, 40),
            |ocs| ocs.replace_fru(6),
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
