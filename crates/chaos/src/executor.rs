//! The invariant-checking executor: drives the *real* control plane
//! (ocs → fabric → scheduler → superpod → telemetry → trace) through a
//! [`FaultSchedule`], re-checking the invariant library after every
//! event.
//!
//! The executor itself draws no randomness — a schedule's execution is a
//! pure function of its event list plus the world seed derived from
//! `(seed, index)` — which is what makes delta-debugging sound: dropping
//! events never perturbs the behavior of the events that remain.

use crate::invariant::{check_all, Violation};
use crate::schedule::{FaultKind, FaultSchedule};
use lightwave_fabric::maintenance::{execute, plan_replacement};
use lightwave_fabric::OcsId;
use lightwave_ocs::instrument::{trace_reconfig, OcsInstruments};
use lightwave_ocs::{OcsError, PalomarOcs, PortId};
use lightwave_scheduler::alloc::{Allocator, Pooled};
use lightwave_service::{arrival, Mix, PolicyConfig, ServiceCore, ServiceEvent};
use lightwave_superpod::instrument::{record_resync, trace_compose, trace_release};
use lightwave_superpod::pod::{SliceHandle, Superpod};
use lightwave_superpod::slice::{Slice, SliceShape};
use lightwave_superpod::wiring::SUPERPOD_OCS_COUNT;
use lightwave_telemetry::{AlarmCause, AlarmRecord, FleetHealth, FleetTelemetry, Severity};
use lightwave_trace::{FlightRecorder, Tracer};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Test-only defects the harness can plant in its own control-plane
/// driver, so the invariant library and the shrinker can be validated
/// against *known* violations without breaking the product code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedBug {
    /// Never revoke traffic admission when a fault de-verifies a live
    /// circuit — invariant (a) must catch it.
    SkipAdmissionRevoke,
    /// Never poll the flight recorder — invariant (c) must catch the
    /// first Critical incident without a dump.
    SkipFlightPoll,
}

/// One slice the executor is tracking, with its admission state — the
/// harness's model of "is traffic allowed on these links right now".
#[derive(Debug)]
pub struct LiveSlice {
    /// Pod handle.
    pub handle: SliceHandle,
    /// The slice geometry (kept locally: invariants re-derive expected
    /// port mappings from it, independent of the pod's own bookkeeping).
    pub slice: Slice,
    /// When the composing transaction promised traffic readiness.
    pub traffic_ready_at: Nanos,
    /// Whether traffic is currently admitted.
    pub admitted: bool,
}

/// The executor's shadow of one switch's chassis, fed *only* by the
/// schedule's FRU events its switch accepted — the independent timeline
/// invariant (d) reconciles the SLO tracker against.
#[derive(Debug, Clone)]
pub struct SwitchModel {
    slots: [bool; 16],
    down_since: Option<Nanos>,
    downtime: Nanos,
}

impl SwitchModel {
    fn new() -> SwitchModel {
        SwitchModel {
            slots: [true; 16],
            down_since: None,
            downtime: Nanos(0),
        }
    }

    /// `Chassis::is_operational`, re-derived: ≥1 PSU (slots 0–1), ≥3 fans
    /// (2–5), CPU (14) and FPGA (15) healthy.
    fn operational(&self) -> bool {
        let healthy = |r: std::ops::Range<usize>| self.slots[r].iter().filter(|h| **h).count();
        healthy(0..2) >= 1 && healthy(2..6) >= 3 && self.slots[14] && self.slots[15]
    }

    fn apply(&mut self, now: Nanos, slot: usize, healthy: bool) {
        let was = self.operational();
        self.slots[slot] = healthy;
        match (was, self.operational()) {
            (true, false) => self.down_since = Some(now),
            (false, true) => {
                if let Some(t0) = self.down_since.take() {
                    self.downtime += now.saturating_sub(t0);
                }
            }
            _ => {}
        }
    }

    /// Cumulative downtime implied by the fault timeline as of `now`.
    pub fn downtime_at(&self, now: Nanos) -> Nanos {
        self.downtime
            + self
                .down_since
                .map(|t0| now.saturating_sub(t0))
                .unwrap_or(Nanos(0))
    }
}

/// One injected fault's recovery attribution: when it struck, how long
/// the anti-entropy resync needed to settle, and how long until the
/// system next admitted work — the scope layer's "fault inject → resync
/// → first post-fault admit" chain, per fault, per schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecovery {
    /// Index of the schedule event that injected the fault.
    pub event: u32,
    /// Sim time the fault was injected.
    pub at_nanos: u64,
    /// Resync settle window: the latest `traffic_ready_at` across the
    /// fault's anti-entropy reconfigurations, relative to the fault
    /// instant (0 when no switch needed resync).
    pub resync_nanos: u64,
    /// Sim time from the fault to the first admission after it (harness
    /// compose or service admission); `None` if nothing admitted before
    /// the schedule ended.
    pub first_admit_nanos: Option<u64>,
}

/// No schedule runs a world's clock past this (≈ 292 years): every
/// `now + dt` the control plane computes stays far from the end of `u64`
/// nanoseconds, however many maximal [`FaultKind::Advance`]s a document
/// strings together.
const HORIZON: Nanos = Nanos(u64::MAX / 2);

/// The full system under test plus the harness's independent models.
#[derive(Debug)]
pub struct World {
    /// The real control plane.
    pub pod: Superpod,
    /// The real observability stack.
    pub telemetry: FleetTelemetry,
    /// The real tracing stack.
    pub tracer: Tracer,
    /// The real flight recorder.
    pub recorder: FlightRecorder,
    /// The fleet-health analytics tier: per-port drift detectors and
    /// per-switch relock-rate detectors, fed from the switches' drift
    /// logs and link-flap events as part of the per-event observe pass.
    pub health: FleetHealth,
    /// Live slices with admission state.
    pub slices: Vec<LiveSlice>,
    /// Per-switch fault-timeline shadows for invariant (d), indexed by
    /// switch id (a fleet's ids are its slots).
    pub models: Vec<SwitchModel>,
    /// Set when the event itself did something illegal (release of a
    /// live slice rejected).
    pub action_violation: Option<String>,
    /// The embedded fabric-as-a-service core, fed by
    /// [`FaultKind::Arrival`] events. Its admitted slices are mirrored
    /// into [`World::slices`] so the radix/mapping and admission
    /// invariants cover them like any harness-composed slice.
    pub svc: ServiceCore,
    /// Per-fault recovery attribution, in injection order (one entry per
    /// FRU fail/replace/maintenance event a switch accepted).
    pub recoveries: Vec<FaultRecovery>,
    /// Per-switch scrapers, indexed by switch id.
    insts: Vec<OcsInstruments>,
    inject: Option<InjectedBug>,
    event_cursor: u32,
    world_seed: u64,
    svc_release_failed_seen: u64,
    /// The `nth` of every [`FaultKind::Arrival`] submitted so far.
    arrived: BTreeSet<u16>,
    composes: u32,
    releases: u32,
    rejected: u32,
}

/// What one schedule's execution did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleOutcome {
    /// Schedule index within its hunt.
    pub index: u64,
    /// Events applied (stops at the first violation).
    pub events_applied: u32,
    /// Successful slice compositions.
    pub composes: u32,
    /// Successful releases (including preemptions).
    pub releases: u32,
    /// Operations legitimately rejected (no idle cubes, degraded ports,
    /// a fault on hardware the world does not have, a repeated arrival,
    /// an advance past the end of time).
    pub rejected: u32,
    /// Raw alarms ingested by the fleet aggregator.
    pub alarms: u64,
    /// Flight-recorder dumps taken (== Critical incidents, or invariant
    /// (c) would have fired).
    pub critical_dumps: u32,
    /// Fleet-health detector trips (trend anomalies). The clean corpus
    /// must keep this at zero — a trip there is a false positive.
    pub trend_trips: u32,
    /// Service requests admitted by the embedded fabric-as-a-service
    /// core (nonzero only for schedules carrying `Arrival` events).
    pub svc_admitted: u64,
    /// Service requests blocked at the admission-queue bound.
    pub svc_blocked: u64,
    /// Service slices preempted by higher-priority admissions.
    pub svc_preempted: u64,
    /// Service requests that served their full hold.
    pub svc_completed: u64,
    /// Per-fault recovery attribution (see [`FaultRecovery`]), in
    /// injection order.
    pub recoveries: Vec<FaultRecovery>,
    /// The first invariant violation, if any.
    pub violation: Option<Violation>,
}

impl World {
    /// Builds the system under test for one schedule. The world seed —
    /// switch manufacturing and span ids — is `splitmix(seed, index)`,
    /// the same stream selector as the schedule generator, so a repro
    /// needs nothing beyond `(seed, index, events)`.
    pub fn new(seed: u64, index: u64) -> World {
        let world_seed = lightwave_par::splitmix(seed, index);
        let telemetry = FleetTelemetry::new();
        let insts = (0..SUPERPOD_OCS_COUNT as OcsId)
            .map(OcsInstruments::new)
            .collect();
        let models = vec![SwitchModel::new(); SUPERPOD_OCS_COUNT];
        World {
            // Invariant (b) (`invariant::radix_and_mapping`) makes every
            // schedule a behavioral-equivalence proof of the pod's
            // incremental commits: after each event it rebuilds the
            // union of every live slice's circuits from the harness's
            // own slice model and requires every up, reconciled switch
            // to carry exactly that — a shrinkable violation, not a
            // panic.
            pod: Superpod::new(world_seed),
            telemetry,
            tracer: Tracer::new(world_seed),
            recorder: FlightRecorder::new(256),
            health: FleetHealth::default(),
            slices: Vec::new(),
            models,
            action_violation: None,
            // A deliberately tight queue bound: with a dozen-odd
            // arrivals per schedule, 256 would never block and the
            // QueueFull path would go untested under faults.
            svc: ServiceCore::new(PolicyConfig {
                queue_limit: 4,
                preemption: true,
            }),
            recoveries: Vec::new(),
            insts,
            inject: None,
            event_cursor: 0,
            world_seed,
            svc_release_failed_seen: 0,
            arrived: BTreeSet::new(),
            composes: 0,
            releases: 0,
            rejected: 0,
        }
    }

    /// Current simulation time: the pod's fabric clock, the only one a
    /// world keeps (advanced only by [`FaultKind::Advance`]).
    pub fn now(&self) -> Nanos {
        self.pod.fabric().now()
    }

    fn shape_for(cubes: u8) -> SliceShape {
        let (a, b, c) = match cubes {
            1 => (4, 4, 4),
            2 => (8, 4, 4),
            4 => (8, 8, 4),
            _ => (8, 8, 8),
        };
        SliceShape::new(a, b, c).expect("menu shapes are valid")
    }

    /// Marks an admission at `at`: every fault still waiting for its
    /// first post-fault admit is now attributed.
    fn note_admission(&mut self, at: Nanos) {
        for rec in &mut self.recoveries {
            if rec.first_admit_nanos.is_none() {
                rec.first_admit_nanos = Some(at.0.saturating_sub(rec.at_nanos));
            }
        }
    }

    fn compose(&mut self, cubes: u8) {
        let now = self.now();
        let shape = Self::shape_for(cubes);
        let picked = match Pooled.allocate(shape, self.pod.idle_set()) {
            Some(p) => p,
            None => {
                self.rejected += 1;
                return;
            }
        };
        let slice = Slice::new(shape, picked).expect("allocator returned a valid cube set");
        let geometry = slice.clone();
        match self.pod.compose(slice) {
            Ok((handle, report)) => {
                trace_compose(&mut self.tracer, None, 0, now, cubes as u32, &report);
                self.slices.push(LiveSlice {
                    handle,
                    slice: geometry,
                    traffic_ready_at: report.traffic_ready_at,
                    admitted: false,
                });
                self.composes += 1;
                self.note_admission(now);
            }
            Err(_) => self.rejected += 1,
        }
    }

    fn release_at(&mut self, i: usize) {
        let now = self.now();
        let ls = &self.slices[i];
        let cubes = ls.slice.cubes.len() as u32;
        match self.pod.release(ls.handle) {
            Ok(report) => {
                trace_release(&mut self.tracer, None, 0, now, cubes, &report);
                self.slices.remove(i);
                self.releases += 1;
            }
            Err(e) => {
                // A live slice the control plane cannot free is a
                // capacity leak — this is invariant (f), not a
                // legitimate rejection.
                self.action_violation =
                    Some(format!("release of slice {} rejected: {e}", ls.handle.0));
            }
        }
    }

    /// The one rule for a fault on a switch: applied when the fleet has the
    /// switch and the switch accepts the fault, else rejected like a
    /// compose with no idle cubes — counted, and nothing changed.
    fn accepted(&mut self, done: bool) -> bool {
        self.rejected += u32::from(!done);
        done
    }

    /// Applies `fault` to switch `ocs` under [`World::accepted`]'s rule.
    fn on_switch(
        &mut self,
        ocs: OcsId,
        fault: impl FnOnce(&mut PalomarOcs) -> Result<(), OcsError>,
    ) -> bool {
        let fleet = &mut self.pod.fabric_mut().fleet;
        let done = fleet.get_mut(ocs).is_some_and(|sw| fault(sw).is_ok());
        self.accepted(done)
    }

    fn fru_event(&mut self, ocs: OcsId, slot: usize, heal: bool, maintenance: bool) {
        let now = self.now();
        let done = if maintenance {
            let fleet = &mut self.pod.fabric_mut().fleet;
            let done = plan_replacement(fleet, ocs, slot).and_then(|plan| execute(fleet, &plan));
            self.accepted(done.is_ok())
        } else if heal {
            self.on_switch(ocs, |sw| sw.replace_fru(slot))
        } else {
            self.on_switch(ocs, |sw| sw.fail_fru(slot))
        };
        if !done {
            return;
        }
        // The switch took the fault, so the shadow follows. A maintenance
        // swap fails and replaces at one timestamp: the shadow nets zero
        // downtime, exactly what the SLO must account.
        let model = &mut self.models[ocs as usize];
        model.apply(now, slot, heal);
        if maintenance {
            model.apply(now, slot, true);
        }
        // Anti-entropy: a revived switch reconciles its stale mapping.
        let reports = self.pod.resync();
        record_resync(&mut self.telemetry, 0, now, &reports);
        let resync_nanos = reports
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .map(|r| r.ready_at.saturating_sub(now).0)
            .max()
            .unwrap_or(0);
        self.recoveries.push(FaultRecovery {
            event: self.event_cursor,
            at_nanos: now.0,
            resync_nanos,
            first_admit_nanos: None,
        });
        for (id, result) in reports {
            if let Ok(report) = result {
                let inst = &mut self.insts[id as usize];
                inst.record_reconfig(&mut self.telemetry, now, &report);
                trace_reconfig(&mut self.tracer, None, id, now, &report);
            }
        }
    }

    /// Folds service-core events into the harness model: admitted slices
    /// join [`World::slices`] so the radix/mapping and admission
    /// invariants cover them like harness-composed slices; completions
    /// and preemptions leave it; a pod-refused service release raises
    /// the same capacity-leak flag as a refused harness release.
    fn absorb_service(&mut self, evs: Vec<ServiceEvent>) {
        for ev in evs {
            match ev {
                ServiceEvent::Admitted {
                    at,
                    handle,
                    slice,
                    report,
                    ..
                } => {
                    let cubes = slice.cubes.len() as u32;
                    trace_compose(&mut self.tracer, None, 0, at, cubes, &report);
                    self.slices.push(LiveSlice {
                        handle,
                        slice,
                        traffic_ready_at: report.traffic_ready_at,
                        admitted: false,
                    });
                    self.composes += 1;
                    self.note_admission(at);
                }
                ServiceEvent::Completed {
                    at,
                    handle,
                    cubes,
                    report,
                    ..
                } => {
                    trace_release(&mut self.tracer, None, 0, at, cubes, &report);
                    self.slices.retain(|ls| ls.handle != handle);
                    self.releases += 1;
                }
                ServiceEvent::Preempted {
                    at, handle, report, ..
                } => {
                    let cubes = self
                        .slices
                        .iter()
                        .find(|ls| ls.handle == handle)
                        .map(|ls| ls.slice.cubes.len() as u32)
                        .unwrap_or(0);
                    trace_release(&mut self.tracer, None, 0, at, cubes, &report);
                    self.slices.retain(|ls| ls.handle != handle);
                    self.releases += 1;
                }
                ServiceEvent::Enqueued { .. } | ServiceEvent::Rejected { .. } => {}
            }
        }
        let failed = self.svc.report().release_failed;
        if failed > self.svc_release_failed_seen {
            self.action_violation = Some(format!(
                "service release rejected ({} so far this schedule)",
                failed
            ));
            self.svc_release_failed_seen = failed;
        }
    }

    fn verify_reject(&mut self, ocs: OcsId) {
        let sw = match self.pod.fabric().fleet.get(ocs) {
            Some(s) if s.is_up() => s,
            _ => return,
        };
        let degraded = sw.health().degraded_ports;
        let target = sw.mapping().pairs().find(|&(n, s)| {
            !sw.circuit_ready(n) && !degraded.contains(&n) && !degraded.contains(&s)
        });
        if let Some((n, s)) = target {
            let sw = self.pod.fabric_mut().fleet.get_mut(ocs).expect("present");
            sw.disconnect(n).expect("circuit exists");
            sw.connect(n, s).expect("ports were just freed and usable");
        }
    }

    fn link_alarm(&mut self, ocs: OcsId, port: u32) {
        let now = self.now();
        self.telemetry.ingest_alarm(AlarmRecord {
            at: now,
            severity: Severity::Warning,
            switch: ocs,
            cause: AlarmCause::RateFallback { port },
        });
        // Every relock also feeds the per-switch rate-spike detector; a
        // sustained elevated rate (not one storm instant) trips a trend
        // warning before occurrence-count escalation goes Critical.
        self.health
            .ingest_relock(&mut self.telemetry, now, ocs, port as u16);
    }

    /// Whether `ev` names only what this world has, where that is not a
    /// switch's to answer (a switch refuses a fault on a port, slot or
    /// switch it lacks itself, see [`World::accepted`]): for an arrival, a
    /// request index the service core has not been given before
    /// (`ServiceCore::submit` requires it of its caller); for an advance, a
    /// time on this side of [`HORIZON`]. A generated schedule always does;
    /// a repro document is input from outside the program and may name
    /// anything its integer types hold.
    fn has_what_it_names(&self, ev: FaultKind) -> bool {
        match ev {
            FaultKind::Arrival { nth } => !self.arrived.contains(&nth),
            FaultKind::Advance { millis } => {
                Nanos::from_millis(millis as u64) <= HORIZON.saturating_sub(self.now())
            }
            _ => true,
        }
    }

    fn apply(&mut self, ev: FaultKind) {
        self.action_violation = None;
        match ev {
            // Rejected like a compose with no idle cubes: counted, and
            // nothing changes.
            _ if !self.has_what_it_names(ev) => self.rejected += 1,
            FaultKind::Compose { cubes } => self.compose(cubes),
            FaultKind::Release { nth } => {
                if !self.slices.is_empty() {
                    let i = nth as usize % self.slices.len();
                    self.release_at(i);
                }
            }
            FaultKind::Preempt => {
                if !self.slices.is_empty() {
                    self.release_at(self.slices.len() - 1);
                }
            }
            FaultKind::Advance { millis } => {
                // Routed through the service core: it advances the pod
                // in step while completing every service hold that
                // expires on the way (a no-op pass-through when no
                // Arrival event ever ran).
                let target = self.now() + Nanos::from_millis(millis as u64);
                let mut evs = Vec::new();
                self.svc.advance_to(&mut self.pod, target, &mut evs);
                self.absorb_service(evs);
            }
            FaultKind::FailFru { ocs, slot } => {
                self.fru_event(ocs as OcsId, slot as usize, false, false)
            }
            FaultKind::ReplaceFru { ocs, slot } => {
                self.fru_event(ocs as OcsId, slot as usize, true, false)
            }
            FaultKind::Maintenance { ocs, slot } => {
                self.fru_event(ocs as OcsId, slot as usize, false, true)
            }
            FaultKind::FailMirror { ocs, north, port } => {
                self.on_switch(ocs as OcsId, |sw| sw.fail_mirror(north, port as PortId));
            }
            FaultKind::VerifyReject { ocs } => self.verify_reject(ocs as OcsId),
            FaultKind::Arrival { nth } => {
                // Arrival content is pure in (world_seed, nth): dropping
                // other events never changes what this one submits.
                self.arrived.insert(nth);
                let a = arrival(self.world_seed, nth as u64, Mix::Production);
                let mut evs = Vec::new();
                self.svc.submit(&mut self.pod, &a.intent, &mut evs);
                self.absorb_service(evs);
            }
            FaultKind::LinkFlap { ocs, port } => self.link_alarm(ocs as OcsId, port as u32),
            FaultKind::RelockStorm { ocs, ports } => {
                for p in 0..ports {
                    self.link_alarm(ocs as OcsId, p as u32);
                }
            }
            FaultKind::DegradeMirror {
                ocs,
                north,
                port,
                mdb,
            } => {
                self.on_switch(ocs as OcsId, |sw| {
                    sw.degrade_mirror(north, port as PortId, mdb as f64 / 1000.0)
                });
            }
        }
        self.observe();
    }

    /// The control-plane housekeeping a production fleet runs
    /// continuously: health/SLO scrape, alarm forwarding, incident
    /// aging, admission control, flight-recorder polling.
    fn observe(&mut self) {
        let now = self.now();
        for (id, sw) in self.pod.fabric().fleet.iter() {
            let inst = &mut self.insts[id as usize];
            inst.record_health(&mut self.telemetry, now, sw.is_up());
            // Deliberately no drift census here: it is O(ports) per
            // switch per event and irrelevant to the invariants. The
            // health layer's drift feed is cursor-scraped instead —
            // O(changed), like alarm forwarding.
            inst.forward_drift(&mut self.telemetry, &mut self.health, sw);
            inst.forward_alarms(&mut self.telemetry, sw);
        }
        self.telemetry.advance(now);
        self.update_admission();
        if self.inject != Some(InjectedBug::SkipFlightPoll) {
            // Postmortem bundles embed the incident switch's recent
            // health counter samples (blast-radius context).
            self.recorder
                .poll(&self.tracer, &self.telemetry, self.health.store());
        }
    }

    /// Whether switch `id` is up and reconciled with the slice union.
    /// Admission and invariants (a) and (b) hold only such a switch to
    /// the live slices: a down or desynced one runs them degraded
    /// (§4.2.2).
    pub(crate) fn synced(&self, id: OcsId) -> bool {
        let fleet = &self.pod.fabric().fleet;
        fleet.get(id).is_some_and(|sw| sw.is_up()) && !self.pod.desynced().contains(&id)
    }

    fn update_admission(&mut self) {
        let now = self.now();
        for i in 0..self.slices.len() {
            let fleet = &self.pod.fabric().fleet;
            let verified = self.slices[i].slice.required_hops().iter().all(|hop| {
                hop.circuits().all(|c| {
                    !self.synced(c.ocs) || fleet.get(c.ocs).expect("present").circuit_ready(c.north)
                })
            });
            let ls = &mut self.slices[i];
            if verified && now >= ls.traffic_ready_at {
                ls.admitted = true;
            } else if !verified && self.inject != Some(InjectedBug::SkipAdmissionRevoke) {
                ls.admitted = false;
            }
        }
    }
}

/// Runs one schedule to completion or first violation, with the defect
/// `inject` planted (`None` = honest control plane).
pub fn run_schedule(schedule: &FaultSchedule, inject: Option<InjectedBug>) -> ScheduleOutcome {
    run_schedule_world(schedule, inject).0
}

/// [`run_schedule`], also returning the final world so callers can
/// export its trace, telemetry, and flight dumps.
pub fn run_schedule_world(
    schedule: &FaultSchedule,
    inject: Option<InjectedBug>,
) -> (ScheduleOutcome, World) {
    let mut w = World::new(schedule.seed, schedule.index);
    w.inject = inject;
    let mut violation = None;
    let mut applied = 0u32;
    for (i, &ev) in schedule.events.iter().enumerate() {
        w.event_cursor = i as u32;
        w.apply(ev);
        applied += 1;
        if let Some(v) = check_all(&w, i as u32, ev) {
            violation = Some(v);
            break;
        }
    }
    let svc = w.svc.report();
    let outcome = ScheduleOutcome {
        index: schedule.index,
        events_applied: applied,
        composes: w.composes,
        releases: w.releases,
        rejected: w.rejected,
        alarms: w.telemetry.alarms.ingested(),
        critical_dumps: w.recorder.dumps().len() as u32,
        trend_trips: w.health.trips().len() as u32,
        svc_admitted: svc.classes.iter().map(|c| c.admitted).sum(),
        svc_blocked: svc.blocked(),
        svc_preempted: svc.preempted(),
        svc_completed: svc.completed(),
        recoveries: w.recoveries.clone(),
        violation,
    };
    (outcome, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_schedule_runs_violation_free() {
        let s = FaultSchedule::generate(11, 0);
        let out = run_schedule(&s, None);
        assert_eq!(out.events_applied as usize, s.events.len());
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(out.composes >= 1, "schedules always open with a compose");
    }

    #[test]
    fn execution_is_a_pure_function_of_the_schedule() {
        let s = FaultSchedule::generate(11, 3);
        let a = run_schedule(&s, None);
        let b = run_schedule(&s, None);
        assert_eq!(a, b);
    }

    #[test]
    fn skipped_flight_poll_is_caught_on_first_critical() {
        // A 10-port relock storm escalates its Link incident to Critical;
        // with the poll skipped, invariant (c) must fire.
        let s = FaultSchedule {
            seed: 1,
            index: 0,
            events: vec![
                FaultKind::Compose { cubes: 1 },
                FaultKind::RelockStorm { ocs: 3, ports: 12 },
            ],
        };
        let out = run_schedule(&s, Some(InjectedBug::SkipFlightPoll));
        let v = out.violation.expect("planted bug must be caught");
        assert_eq!(
            v.invariant,
            crate::invariant::InvariantKind::CriticalWithoutDump
        );
        // The honest control plane passes the same schedule.
        assert!(run_schedule(&s, None).violation.is_none());
    }

    #[test]
    fn loss_creep_trips_detectors_before_the_chassis_dies() {
        let s = FaultSchedule::generate_degradation(2024, 0);
        assert!(s
            .events
            .iter()
            .any(|e| matches!(e, FaultKind::DegradeMirror { .. })));
        let (out, w) = run_schedule_world(&s, None);
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(out.trend_trips >= 1, "creep must trip a detector");
        let trip = w.health.first_trip_at().expect("tripped");
        let critical = w
            .telemetry
            .alarms
            .incidents()
            .iter()
            .find(|i| i.severity == Severity::Critical)
            .expect("FPGA death goes Critical");
        assert!(
            trip < critical.last_at,
            "detector trip ({trip:?}) precedes the hard failure"
        );
        // The degradation itself stayed silent: the only Warning the
        // health layer raised is the trend anomaly.
        assert!(w
            .health
            .trips()
            .iter()
            .all(|t| t.signal == lightwave_telemetry::TrendSignal::LossDrift));
    }

    #[test]
    fn relock_creep_trips_rate_spike_before_escalation() {
        let s = FaultSchedule::generate_degradation(2024, 1);
        let (out, w) = run_schedule_world(&s, None);
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(out.trend_trips >= 1, "sustained flapping must trip");
        let trip = w.health.first_trip_at().expect("tripped");
        let critical = w
            .telemetry
            .alarms
            .incidents()
            .iter()
            .find(|i| i.severity == Severity::Critical)
            .expect("occurrence storm escalates the Link incident");
        assert!(trip < critical.last_at, "trip precedes escalation");
        assert!(
            out.critical_dumps >= 1,
            "the escalated incident dumped a postmortem"
        );
        // The postmortem embeds the switch's relock counter history.
        let dump = w.recorder.latest_dump().expect("dumped");
        assert!(
            !dump.counters.is_empty(),
            "blast-radius counters in the bundle"
        );
        assert!(dump
            .counters
            .iter()
            .any(|c| c.series.contains("health_relocks_total")));
    }

    #[test]
    fn single_relock_storm_does_not_trip_the_rate_detector() {
        // One instant of 16 flaps is an incident for the correlator, not
        // a *trend*: the rate-spike detector needs contiguous windows.
        let s = FaultSchedule {
            seed: 1,
            index: 0,
            events: vec![
                FaultKind::Compose { cubes: 1 },
                FaultKind::RelockStorm { ocs: 3, ports: 16 },
                FaultKind::Advance { millis: 400 },
            ],
        };
        let out = run_schedule(&s, None);
        assert!(out.violation.is_none());
        assert_eq!(out.trend_trips, 0, "storms are not trends");
    }

    #[test]
    fn clean_service_schedule_runs_violation_free() {
        let s = FaultSchedule::generate_service(11, 0);
        assert!(s
            .events
            .iter()
            .any(|e| matches!(e, FaultKind::Arrival { .. })));
        let (out, w) = run_schedule_world(&s, None);
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert_eq!(out.events_applied as usize, s.events.len());
        assert!(out.svc_admitted >= 1, "arrivals must admit: {out:?}");
        w.svc.conservation().expect("requests conserved");
    }

    #[test]
    fn service_execution_is_a_pure_function_of_the_schedule() {
        let s = FaultSchedule::generate_service(11, 2);
        let a = run_schedule(&s, None);
        let b = run_schedule(&s, None);
        assert_eq!(a, b);
    }

    #[test]
    fn fru_faults_record_recovery_attribution() {
        // Fault → heal → later admission: both FRU events get a recovery
        // entry; the post-fault compose resolves their first-admit time.
        let s = FaultSchedule {
            seed: 5,
            index: 0,
            events: vec![
                FaultKind::Compose { cubes: 1 },
                FaultKind::FailFru { ocs: 2, slot: 14 },
                FaultKind::Advance { millis: 250 },
                FaultKind::ReplaceFru { ocs: 2, slot: 14 },
                FaultKind::Advance { millis: 250 },
                FaultKind::Compose { cubes: 1 },
            ],
        };
        let out = run_schedule(&s, None);
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert_eq!(out.recoveries.len(), 2, "one entry per FRU event");
        let fail = &out.recoveries[0];
        assert_eq!(fail.event, 1);
        assert_eq!(fail.at_nanos, 0, "fault struck before any advance");
        let heal = &out.recoveries[1];
        assert_eq!(heal.event, 3);
        assert_eq!(
            heal.at_nanos,
            Nanos::from_millis(250).0,
            "replacement lands after the first advance"
        );
        for r in &out.recoveries {
            let admit = r.first_admit_nanos.expect("final compose admits");
            assert!(
                r.at_nanos + admit <= Nanos::from_millis(500).0,
                "first admit within the schedule horizon: {r:?}"
            );
        }
        // Pure function of the schedule, like every other outcome field.
        assert_eq!(out, run_schedule(&s, None));
    }

    #[test]
    fn skipped_admission_revoke_is_caught() {
        // Compose, settle + admit, then a mirror fault de-verifies a live
        // circuit; with revocation skipped, invariant (a) must fire. The
        // slice must span two cubes: a single-cube slice's rings are
        // electrical and give the mirror fault no circuit to de-verify.
        let s = FaultSchedule {
            seed: 1,
            index: 1,
            events: vec![
                FaultKind::Compose { cubes: 2 },
                FaultKind::Advance { millis: 400 },
                FaultKind::FailMirror {
                    ocs: 0,
                    north: true,
                    port: 0,
                },
            ],
        };
        let out = run_schedule(&s, Some(InjectedBug::SkipAdmissionRevoke));
        let v = out.violation.expect("planted bug must be caught");
        assert_eq!(
            v.invariant,
            crate::invariant::InvariantKind::TrafficOnUnverifiedLink
        );
        assert!(run_schedule(&s, None).violation.is_none());
    }
}
