//! The traced run of a service workload: where a request's host time
//! goes, layer by layer, measured from outside.
//!
//! Nothing inside the layers is instrumented. Pass 1 times each step
//! (`advance_to` + `submit`) of a live cell and records, in compact form,
//! every event it caused. The later passes replay that exact operation
//! order against standalone instances of the layers below — a same-seed
//! `Superpod` (pass 2), a same-seed `FabricController` (pass 3), a
//! same-seed `OcsFleet` (pass 4) — timing each call, and check that every
//! replayed transaction reports what the recorded one did. The four
//! passes advance together, a few hundred steps at a time. Pass 5 re-runs
//! the cell with the two observers timed. A layer's self time is its span
//! minus the spans of the layer below, which the replay parents to it.

use crate::trace::{SpanId, Trace, NO_PARENT};
use crate::workload::{drive, pod_seed, scaled_gap, Cell, Observers, Probe, ServiceSpec};
use lightwave::fabric::{CommitReport, FabricController, FabricDelta, OcsFleet};
use lightwave::scheduler::{Allocator, Pooled};
use lightwave::service::{arrival, RejectReason, ServiceCore, ServiceEvent};
use lightwave::superpod::geometry::{CubeId, Dim, LINKS_PER_FACE};
use lightwave::superpod::wiring::{ocs_for, SUPERPOD_OCS_COUNT};
use lightwave::superpod::{Slice, SliceHandle, SliceShape, Superpod};
use lightwave::units::Nanos;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// What a committed transaction reported, reduced to what a replay must
/// reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Bit `i` set: switch `i` was touched (the pod has 48).
    pub switches: u64,
    /// Circuits added fabric-wide.
    pub added: u32,
    /// Circuits removed fabric-wide.
    pub removed: u32,
    /// Circuits left alone on the touched switches.
    pub untouched: u32,
    /// When traffic may flow.
    pub ready_at: Nanos,
}

impl Digest {
    /// Digest of a commit report.
    pub fn of(report: &CommitReport) -> Digest {
        Digest {
            switches: report.per_switch.keys().fold(0, |m, &id| m | 1 << id),
            added: report.added as u32,
            removed: report.removed as u32,
            untouched: report.untouched as u32,
            ready_at: report.traffic_ready_at,
        }
    }

    /// Equal on everything a standalone fleet can reproduce (it has no
    /// controller to add link bring-up to the ready time).
    fn same_circuits(&self, other: &Digest) -> bool {
        (self.switches, self.added, self.removed, self.untouched)
            == (other.switches, other.added, other.removed, other.untouched)
    }
}

/// One recorded event, without the reports' per-switch detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Enqueued {
        request: u64,
    },
    Rejected {
        request: u64,
        why: RejectReason,
    },
    Admitted {
        request: u64,
        handle: SliceHandle,
        /// Index into [`Layers::slices`].
        slice: u32,
        commit: Digest,
    },
    Preempted {
        request: u64,
        handle: SliceHandle,
        commit: Digest,
    },
    Completed {
        request: u64,
        at: Nanos,
        handle: SliceHandle,
        commit: Digest,
    },
}

/// The events of one step.
#[derive(Debug, Clone, Copy)]
struct Batch {
    /// The request the step served (one past the last: the drain).
    request: u64,
    /// Sim time of the arrival (or the drain's end).
    now: Nanos,
    /// The step's span.
    span: SpanId,
    /// First event in the chunk; the batch ends where the next begins.
    first_event: usize,
}

/// An operation the pod passed down to its fabric controller.
#[derive(Debug, Clone, Copy)]
enum FabricOp {
    Advance {
        dt: Nanos,
    },
    Commit {
        /// Index into [`Layers::slices`].
        slice: u32,
        /// Compose (`true`) or release.
        add: bool,
        /// What the live run's commit reported.
        expect: Digest,
    },
}

/// Span names of the traced service run, interned once: each field is
/// the name's index in the trace (and in [`Trace::totals`]).
#[derive(Debug, Clone, Copy)]
pub struct Names {
    /// One `advance_to` + `submit`.
    pub step: u8,
    /// The final `drain`.
    pub drain: u8,
    /// `Superpod::advance`.
    pub pod_advance: u8,
    /// `idle_cubes()` collected into the set the core builds.
    pub idle_cubes: u8,
    /// `Pooled::allocate`.
    pub allocate: u8,
    /// `Superpod::compose`.
    pub compose: u8,
    /// `Superpod::release`.
    pub release: u8,
    /// `FabricController::advance`.
    pub fabric_advance: u8,
    /// `FabricController::commit_delta`.
    pub commit_delta: u8,
    /// `OcsFleet::advance` (all 48 switches).
    pub fleet_advance: u8,
    /// `PalomarOcs::validate_delta`, one switch.
    pub validate_delta: u8,
    /// `PalomarOcs::apply_delta`, one switch.
    pub apply_delta: u8,
    /// `ScopeCollector::observe`, one batch.
    pub scope_observe: u8,
    /// `CampusObserver::observe`, one batch.
    pub campus_observe: u8,
}

impl Names {
    /// Interns the names in `trace`.
    pub fn intern(trace: &mut Trace) -> Names {
        Names {
            step: trace.name("service.step"),
            drain: trace.name("service.drain"),
            pod_advance: trace.name("superpod.advance"),
            idle_cubes: trace.name("superpod.idle_cubes"),
            allocate: trace.name("scheduler.allocate"),
            compose: trace.name("superpod.compose"),
            release: trace.name("superpod.release"),
            fabric_advance: trace.name("fabric.advance"),
            commit_delta: trace.name("fabric.commit_delta"),
            fleet_advance: trace.name("ocs.fleet_advance"),
            validate_delta: trace.name("ocs.validate_delta"),
            apply_delta: trace.name("ocs.apply_delta"),
            scope_observe: trace.name("service.scope_observe"),
            campus_observe: trace.name("telemetry.campus_observe"),
        }
    }
}

/// Counts the traced run took along the way, exact for a fixed seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tallies {
    /// Events recorded, the drain's included.
    pub events: u64,
    /// Admissions.
    pub admitted: u64,
    /// Evictions.
    pub preempted: u64,
    /// Sum over steps of the queue depth each left behind.
    pub depth_sum: u64,
    /// Deepest queue any step left behind.
    pub depth_max: u64,
    /// `apply_delta` calls (one per touched switch per commit).
    pub switch_applies: u64,
    /// Circuits added plus removed.
    pub circuits: u64,
    /// Replayed operations whose outcome differed from the live run's.
    pub mismatches: u64,
}

/// Steps recorded before the layers below replay them. Small, so that a
/// step and its replays see the same machine: on a shared box the clock
/// drifts by 10 to 20 % over seconds, far more than the thinnest layer's
/// share of a step.
const CHUNK_STEPS: usize = 512;

/// The traced run's probe: passes 1 to 4, advancing in lockstep a chunk
/// of steps at a time.
struct Layers<'a> {
    trace: &'a mut Trace,
    names: Names,
    spec: &'a ServiceSpec,
    seed: u64,
    requests: u64,
    tallies: Tallies,
    /// Host seconds spent replaying (not part of the live pass).
    replay_s: f64,
    // Pass 1: the chunk being recorded, and every slice admitted so far.
    last_span: SpanId,
    batches: Vec<Batch>,
    events: Vec<Ev>,
    slices: Vec<Slice>,
    // Pass 2: a same-seed pod and a mirror of who is queued.
    pod: Superpod,
    /// Mirror of `ServiceCore::now`.
    now: Nanos,
    queued: BTreeMap<u64, SliceShape>,
    running: BTreeMap<u64, SliceShape>,
    live: BTreeMap<SliceHandle, u32>,
    /// The chunk's fabric operations, each with the span (one layer up)
    /// that caused it and the request it served.
    ops: Vec<(FabricOp, SpanId, u64)>,
    // Pass 3: a standalone same-seed controller.
    fabric: FabricController,
    /// The span of each of `ops`, as pass 3 timed it.
    op_spans: Vec<SpanId>,
    // Pass 4: a standalone same-seed fleet.
    fleet: OcsFleet,
}

impl Probe for Layers<'_> {
    #[inline]
    fn step<R>(&mut self, request: u64, f: impl FnOnce() -> R) -> R {
        let name = if request == self.requests {
            self.names.drain
        } else {
            self.names.step
        };
        let (span, out) = self.trace.time(name, NO_PARENT, request, f);
        self.last_span = span;
        out
    }

    fn batch(&mut self, request: u64, now: Nanos, events: &[ServiceEvent], core: &ServiceCore) {
        self.batches.push(Batch {
            request,
            now,
            span: self.last_span,
            first_event: self.events.len(),
        });
        for ev in events {
            self.events.push(match ev {
                ServiceEvent::Enqueued { request, .. } => Ev::Enqueued { request: *request },
                ServiceEvent::Rejected { request, why, .. } => Ev::Rejected {
                    request: *request,
                    why: *why,
                },
                ServiceEvent::Admitted {
                    request,
                    handle,
                    slice,
                    report,
                    ..
                } => {
                    self.tallies.admitted += 1;
                    self.slices.push(slice.clone());
                    Ev::Admitted {
                        request: *request,
                        handle: *handle,
                        slice: self.slices.len() as u32 - 1,
                        commit: Digest::of(report),
                    }
                }
                ServiceEvent::Preempted {
                    request,
                    handle,
                    report,
                    ..
                } => {
                    self.tallies.preempted += 1;
                    Ev::Preempted {
                        request: *request,
                        handle: *handle,
                        commit: Digest::of(report),
                    }
                }
                ServiceEvent::Completed {
                    request,
                    at,
                    handle,
                    report,
                    ..
                } => Ev::Completed {
                    request: *request,
                    at: *at,
                    handle: *handle,
                    commit: Digest::of(report),
                },
            });
        }
        self.tallies.events += events.len() as u64;
        let depth = core.queue_depth() as u64;
        self.tallies.depth_sum += depth;
        self.tallies.depth_max = self.tallies.depth_max.max(depth);
        if self.batches.len() == CHUNK_STEPS || request == self.requests {
            let start = Instant::now();
            self.replay_chunk();
            self.replay_s += start.elapsed().as_secs_f64();
        }
    }
}

impl Layers<'_> {
    /// Passes 2 to 4 over the recorded chunk, which is then dropped.
    fn replay_chunk(&mut self) {
        let batches = std::mem::take(&mut self.batches);
        let events = std::mem::take(&mut self.events);
        for (i, batch) in batches.iter().enumerate() {
            let end = batches.get(i + 1).map_or(events.len(), |b| b.first_event);
            self.replay_pod(batch, &events[batch.first_event..end]);
        }
        self.replay_fabric();
        self.replay_ocs();
        self.ops.clear();
        self.op_spans.clear();
        // Hand the buffers back, emptied, to keep their capacity.
        self.batches = batches;
        self.batches.clear();
        self.events = events;
        self.events.clear();
    }

    fn idle_set(&mut self, parent: SpanId, request: u64) -> BTreeSet<CubeId> {
        let pod = &self.pod;
        self.trace
            .time(self.names.idle_cubes, parent, request, || {
                pod.idle_cubes().into_iter().collect()
            })
            .1
    }

    fn advance(&mut self, to: Nanos, parent: SpanId, request: u64) {
        let dt = to.saturating_sub(self.now);
        let pod = &mut self.pod;
        let (span, ()) = self
            .trace
            .time(self.names.pod_advance, parent, request, || pod.advance(dt));
        self.ops.push((FabricOp::Advance { dt }, span, request));
        self.now = self.now.max(to);
    }

    fn release(&mut self, handle: SliceHandle, expect: Digest, parent: SpanId, request: u64) {
        let pod = &mut self.pod;
        let (span, result) = self
            .trace
            .time(self.names.release, parent, request, || pod.release(handle));
        let same = result.is_ok_and(|report| Digest::of(&report) == expect);
        match self.live.remove(&handle) {
            Some(slice) if same => self.ops.push((
                FabricOp::Commit {
                    slice,
                    add: false,
                    expect,
                },
                span,
                request,
            )),
            _ => self.tallies.mismatches += 1,
        }
    }

    /// One admission pass, as `ServiceCore::pump` runs it: per iteration
    /// the idle set, then evictions (each followed by a fresh idle set),
    /// then `allocate`, then `compose` — until the queue is empty or the
    /// head does not fit. `evs` holds the events the live pass emitted.
    fn pump(&mut self, evs: &mut std::slice::Iter<'_, Ev>, parent: SpanId, request: u64) {
        while !self.queued.is_empty() {
            let mut idle = self.idle_set(parent, request);
            while let Some(&Ev::Preempted {
                request: victim,
                handle,
                commit,
            }) = evs.as_slice().first()
            {
                evs.next();
                self.release(handle, commit, parent, request);
                match self.running.remove(&victim) {
                    Some(shape) => {
                        self.queued.insert(victim, shape);
                    }
                    None => self.tallies.mismatches += 1,
                }
                idle = self.idle_set(parent, request);
            }
            let Some(&Ev::Admitted {
                request: admitted,
                handle,
                slice,
                commit,
            }) = evs.as_slice().first()
            else {
                // Head-of-line blocked. Which request is the head is the
                // core's business; any shape at least as large fails the
                // same way, at the same cost.
                let largest = *self
                    .queued
                    .values()
                    .max_by_key(|s| s.cube_count())
                    .expect("queue is not empty");
                let (_, placed) = self.trace.time(self.names.allocate, parent, request, || {
                    Pooled.allocate(largest, &idle)
                });
                if placed.is_some() {
                    self.tallies.mismatches += 1;
                }
                return;
            };
            evs.next();
            let geometry = self.slices[slice as usize].clone();
            let (_, cubes) = self.trace.time(self.names.allocate, parent, request, || {
                Pooled.allocate(geometry.shape, &idle)
            });
            if cubes.as_ref() != Some(&geometry.cubes) {
                self.tallies.mismatches += 1;
            }
            let pod = &mut self.pod;
            let (span, result) = self.trace.time(self.names.compose, parent, request, || {
                pod.compose(geometry)
            });
            if !result.is_ok_and(|(h, report)| h == handle && Digest::of(&report) == commit) {
                self.tallies.mismatches += 1;
            }
            self.ops.push((
                FabricOp::Commit {
                    slice,
                    add: true,
                    expect: commit,
                },
                span,
                request,
            ));
            self.live.insert(handle, slice);
            match self.queued.remove(&admitted) {
                Some(shape) => {
                    self.running.insert(admitted, shape);
                }
                None => self.tallies.mismatches += 1,
            }
        }
    }

    /// Pass 2: one step's pod operations, in the order the core made
    /// them, on the same-seed `Superpod`.
    fn replay_pod(&mut self, batch: &Batch, events: &[Ev]) {
        let request = batch.request;
        let is_drain = request == self.requests;
        let mut evs = events.iter();
        if is_drain {
            // `drain` opens with an admission pass of its own.
            self.pump(&mut evs, batch.span, request);
        }
        // `advance_to`: completions in order, an admission pass after each.
        while let Some(&Ev::Completed {
            request: done,
            at,
            handle,
            commit,
        }) = evs.as_slice().first()
        {
            evs.next();
            self.advance(at, batch.span, request);
            self.release(handle, commit, batch.span, request);
            if self.running.remove(&done).is_none() {
                self.tallies.mismatches += 1;
            }
            self.pump(&mut evs, batch.span, request);
        }
        if is_drain {
            self.tallies.mismatches += evs.len() as u64;
            return;
        }
        self.advance(batch.now, batch.span, request);
        // `submit`: validate, enqueue, admission pass, maybe block.
        match evs.next() {
            Some(&Ev::Enqueued { request: new }) => {
                let intent = arrival(self.seed, new, self.spec.mix).intent;
                match intent.validate() {
                    Ok(shape) => {
                        self.queued.insert(new, shape);
                    }
                    Err(_) => self.tallies.mismatches += 1,
                }
                self.pump(&mut evs, batch.span, request);
                if let Some(&Ev::Rejected {
                    request: blocked,
                    why: RejectReason::QueueFull,
                }) = evs.as_slice().first()
                {
                    evs.next();
                    if self.queued.remove(&blocked).is_none() {
                        self.tallies.mismatches += 1;
                    }
                }
            }
            Some(&Ev::Rejected {
                why: RejectReason::Invalid,
                ..
            }) => {}
            _ => self.tallies.mismatches += 1,
        }
        self.tallies.mismatches += evs.len() as u64;
    }

    /// Pass 3: the chunk's fabric operations on the standalone
    /// `FabricController`.
    fn replay_fabric(&mut self) {
        for &(op, parent, request) in &self.ops {
            let fabric = &mut self.fabric;
            let span = match op {
                FabricOp::Advance { dt } => {
                    self.trace
                        .time(self.names.fabric_advance, parent, request, || {
                            fabric.advance(dt)
                        })
                        .0
                }
                FabricOp::Commit { slice, add, expect } => {
                    let delta = delta_of(&self.slices[slice as usize], add);
                    let (span, result) =
                        self.trace
                            .time(self.names.commit_delta, parent, request, || {
                                fabric.commit_delta(&delta)
                            });
                    if !result.is_ok_and(|report| Digest::of(&report) == expect) {
                        self.tallies.mismatches += 1;
                    }
                    span
                }
            };
            self.op_spans.push(span);
        }
    }

    /// Pass 4: the per-switch work on the standalone `OcsFleet` — for
    /// each commit `validate_delta` on every touched switch, then
    /// `apply_delta` on every touched switch, as `commit_delta` does.
    fn replay_ocs(&mut self) {
        for (&(op, _, request), &parent) in self.ops.iter().zip(&self.op_spans) {
            let fleet = &mut self.fleet;
            match op {
                FabricOp::Advance { dt } => {
                    self.trace
                        .time(self.names.fleet_advance, parent, request, || {
                            fleet.advance(dt)
                        });
                }
                FabricOp::Commit { slice, add, expect } => {
                    let delta = delta_of(&self.slices[slice as usize], add);
                    let mut got = Digest::default();
                    for (id, d) in delta.iter() {
                        let ocs = fleet.get_mut(id).expect("the pod's 48 switches exist");
                        let (_, valid) =
                            self.trace
                                .time(self.names.validate_delta, parent, request, || {
                                    ocs.validate_delta(&d.add, &d.remove)
                                });
                        if valid.is_err() {
                            self.tallies.mismatches += 1;
                        }
                    }
                    for (id, d) in delta.iter() {
                        let ocs = fleet.get_mut(id).expect("the pod's 48 switches exist");
                        let (_, applied) =
                            self.trace
                                .time(self.names.apply_delta, parent, request, || {
                                    ocs.apply_delta(&d.add, &d.remove)
                                });
                        let Ok(report) = applied else {
                            self.tallies.mismatches += 1;
                            continue;
                        };
                        got.switches |= 1 << id;
                        got.added += report.added.len() as u32;
                        got.removed += report.removed.len() as u32;
                        got.untouched += report.untouched as u32;
                        self.tallies.switch_applies += 1;
                        self.tallies.circuits += (report.added.len() + report.removed.len()) as u64;
                    }
                    if !got.same_circuits(&expect) {
                        self.tallies.mismatches += 1;
                    }
                }
            }
        }
    }
}

/// Passes 1 to 4: serves `requests` arrivals on a live cell, one span per
/// step, and replays every chunk of steps on the standalone layers as it
/// completes. Returns the tallies, the cell as the run left it, and the
/// live pass's wall seconds (replays excluded).
pub fn trace_layers(
    trace: &mut Trace,
    names: Names,
    spec: &ServiceSpec,
    seed: u64,
    requests: u64,
) -> (Tallies, Cell, f64) {
    let fabric_seed = pod_seed(seed, 0);
    let mut cell = Cell::new(seed, 0, spec.policy);
    let mut layers = Layers {
        trace,
        names,
        spec,
        seed,
        requests,
        tallies: Tallies::default(),
        replay_s: 0.0,
        last_span: NO_PARENT,
        batches: Vec::new(),
        events: Vec::new(),
        slices: Vec::new(),
        pod: Superpod::new(fabric_seed),
        now: Nanos(0),
        queued: BTreeMap::new(),
        running: BTreeMap::new(),
        live: BTreeMap::new(),
        ops: Vec::new(),
        fabric: FabricController::new(OcsFleet::build(SUPERPOD_OCS_COUNT, fabric_seed)),
        op_spans: Vec::new(),
        fleet: OcsFleet::build(SUPERPOD_OCS_COUNT, fabric_seed),
    };
    let start = Instant::now();
    drive(&mut cell, spec, seed, 0..requests, &mut layers);
    let live_s = start.elapsed().as_secs_f64() - layers.replay_s;
    // A drained run leaves the replayed pod as empty as the live one.
    let leftover = layers.queued.len() + layers.running.len() + layers.live.len();
    let busy_cubes = lightwave::superpod::POD_CUBES - layers.pod.idle_cubes().len();
    layers.tallies.mismatches += (leftover + busy_cubes) as u64;
    (layers.tallies, cell, live_s)
}

/// The incremental transaction a slice's compose (`add`) or release
/// asks of the fabric, rebuilt the way the pod builds it: one pair list
/// per torus dimension, sorted, on each of the dimension's 16 switches.
pub fn delta_of(slice: &Slice, add: bool) -> FabricDelta {
    let mut pairs: [Vec<_>; 3] = Default::default();
    for hop in slice.required_hops() {
        if let Some(pair) = hop.pair() {
            pairs[hop.dim.index()].push(pair);
        }
    }
    let mut delta = FabricDelta::new();
    for dim in Dim::ALL {
        let list = &mut pairs[dim.index()];
        if list.is_empty() {
            continue;
        }
        list.sort_unstable();
        for k in 0..LINKS_PER_FACE {
            let d = delta.entry(ocs_for(dim, k));
            if add {
                d.add.extend_from_slice(list);
            } else {
                d.remove.extend(list.iter().map(|&(n, _)| n));
            }
        }
    }
    delta
}

/// What pass 5 measured outside its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObserverCosts {
    /// Events the observers were shown.
    pub events: u64,
    /// `ScopeCollector::finish`, milliseconds.
    pub scope_finish_ms: f64,
    /// `CampusObserver::health_doc().to_json()`, milliseconds.
    pub health_doc_ms: f64,
    /// Size of that document, kilobytes.
    pub health_doc_kb: f64,
    /// Samples the rollup tree ingested.
    pub rollup_ingests: u64,
}

/// Pass 5's probe: each observer's `observe` is a span per batch.
struct TimedObservers<'a> {
    trace: &'a mut Trace,
    names: Names,
    observers: Observers,
    events: u64,
}

impl Probe for TimedObservers<'_> {
    fn batch(&mut self, request: u64, _now: Nanos, events: &[ServiceEvent], _core: &ServiceCore) {
        let Observers { scope, campus } = &mut self.observers;
        self.trace
            .time(self.names.scope_observe, NO_PARENT, request, || {
                scope.observe(events)
            });
        self.trace
            .time(self.names.campus_observe, NO_PARENT, request, || {
                campus.observe(0, events)
            });
        self.events += events.len() as u64;
    }
}

/// Pass 5: re-runs the cell with both observers fed every batch, each
/// call timed, then times the two closing documents.
pub fn observe(
    trace: &mut Trace,
    names: Names,
    spec: &ServiceSpec,
    seed: u64,
    requests: u64,
) -> ObserverCosts {
    let mut cell = Cell::new(seed, 0, spec.policy);
    let mut probe = TimedObservers {
        trace,
        names,
        observers: Observers::new(seed),
        events: 0,
    };
    drive(&mut cell, spec, seed, 0..requests, &mut probe);
    let TimedObservers {
        observers, events, ..
    } = probe;
    let Observers { scope, mut campus } = observers;
    let start = Instant::now();
    std::hint::black_box(scope.finish());
    let scope_finish_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let doc = campus.health_doc().to_json();
    let health_doc_ms = start.elapsed().as_secs_f64() * 1e3;
    ObserverCosts {
        events,
        scope_finish_ms,
        health_doc_ms,
        health_doc_kb: doc.len() as f64 / 1e3,
        rollup_ingests: campus.rollup.ingested(),
    }
}

/// Mean host nanoseconds to generate one arrival of the workload's
/// stream (and scale its gap), over `requests` arrivals.
pub fn arrival_cost_ns(spec: &ServiceSpec, seed: u64, requests: u64) -> f64 {
    let start = Instant::now();
    let mut now = Nanos(0);
    for i in 0..requests {
        let a = arrival(seed, i, spec.mix);
        now += scaled_gap(a.gap_unit_micros, spec.mean_gap);
        std::hint::black_box(&a.intent);
    }
    std::hint::black_box(now);
    start.elapsed().as_nanos() as f64 / requests.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Workload};

    #[test]
    fn the_rebuilt_delta_is_the_transaction_the_pod_commits() {
        let shape = SliceShape::new(8, 8, 4).expect("a 2x2x1-cube slice");
        let slice = Slice::new(shape, vec![3, 9, 20, 41]).expect("four cubes");
        let mut pod = Superpod::new(5);
        let (handle, composed) = pod.compose(slice.clone()).expect("the pod is empty");
        let add = delta_of(&slice, true);
        assert_eq!(add.added(), composed.added);
        assert_eq!(
            add.switches().collect::<Vec<_>>(),
            composed.per_switch.keys().copied().collect::<Vec<_>>()
        );
        let released = pod.release(handle).expect("the slice is live");
        let remove = delta_of(&slice, false);
        assert_eq!(remove.removed(), released.removed);
        // A standalone controller takes the rebuilt deltas and reports the
        // same transactions.
        let mut fabric = FabricController::new(OcsFleet::build(SUPERPOD_OCS_COUNT, 5));
        let report = fabric.commit_delta(&add).expect("valid");
        assert_eq!(Digest::of(&report), Digest::of(&composed));
        let report = fabric.commit_delta(&remove).expect("valid");
        assert_eq!(Digest::of(&report), Digest::of(&released));
        // A single-cube slice touches no switch at all.
        let single = Slice::new(SliceShape::new(4, 4, 4).expect("one cube"), vec![7]);
        assert!(delta_of(&single.expect("one cube"), true).is_empty());
    }

    #[test]
    fn every_workload_replays_without_a_mismatch_and_its_layers_nest() {
        for name in ["prod_steady", "single_loss", "single_backlog"] {
            let workload = Workload::by_name(name).expect("listed").smoke();
            let Kind::Service(spec) = workload.kind else {
                panic!("{name} is a service workload");
            };
            let n = spec.traced_requests.max(1_000);
            let mut trace = Trace::new();
            let names = Names::intern(&mut trace);
            let (tallies, cell, _) = trace_layers(&mut trace, names, &spec, 11, n);
            assert_eq!(tallies.mismatches, 0, "{name}");
            assert_eq!(cell.core.report().submitted, n);
            assert!(tallies.events >= n);
            // Every replayed span hangs off the step that caused it.
            let spans = trace.spans();
            let step = spans[0].name;
            for span in spans.iter().filter(|s| s.parent != NO_PARENT) {
                let mut root = span;
                while root.parent != NO_PARENT {
                    root = &spans[root.parent as usize];
                }
                assert_eq!(root.request, span.request, "{name}");
                assert!(root.name == step || u64::from(root.request) == n);
            }
        }
    }
}
