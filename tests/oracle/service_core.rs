//! The reference `ServiceCore`: the implementation as it stood before the
//! per-class-queue / `CubeSet` rewrite (PR 13), moved here verbatim as a
//! test oracle. One `Vec` queue scanned in full by `pick`, `running` in
//! admission order with linear `min`/`position`/`remove`, the idle set
//! rebuilt per admission pass as `idle_cubes()` → `BTreeSet`, `Pooled`
//! over that `BTreeSet`. Only the type's name changed, and `running()`
//! lists in the production core's order. It is deliberately
//! the slow, obvious version: `tests/service_core_model.rs` holds the
//! production core to its event stream, report and pod state under
//! arbitrary interleavings.

use lightwave::fabric::CommitReport;
use lightwave::scheduler::{Allocator, Pooled};
use lightwave::service::{
    PolicyConfig, Priority, RejectReason, ServiceEvent, ServiceReport, SliceIntent,
};
use lightwave::superpod::{Slice, SliceHandle, SliceShape, Superpod};
use lightwave::units::Nanos;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct Queued {
    index: u64,
    class: Priority,
    shape: SliceShape,
    hold: Nanos,
    enqueued_at: Nanos,
}

#[derive(Debug, Clone)]
struct Running {
    index: u64,
    class: Priority,
    shape: SliceShape,
    handle: SliceHandle,
    cubes: u32,
    serving_from: Nanos,
    ends_at: Nanos,
    hold: Nanos,
}

/// The PR-12 `ServiceCore`, field for field and line for line.
#[derive(Debug)]
pub struct OracleCore {
    cfg: PolicyConfig,
    now: Nanos,
    queue: Vec<Queued>,
    running: Vec<Running>,
    /// WFQ virtual service per class: cube-nanos charged at admission.
    served_cube_nanos: [u128; 3],
    report: ServiceReport,
}

impl OracleCore {
    /// An empty core at sim time 0.
    pub fn new(cfg: PolicyConfig) -> OracleCore {
        let report = ServiceReport {
            cells: 1,
            ..ServiceReport::default()
        };
        OracleCore {
            cfg,
            now: Nanos(0),
            queue: Vec::new(),
            running: Vec::new(),
            served_cube_nanos: [0; 3],
            report,
        }
    }

    /// Current sim time (last `advance_to` / `submit` stamp).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Requests waiting for admission.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently serving: `(request, handle, cubes)`, latest
    /// completion first, the larger request index first on a tie — the
    /// production core's order, sorted out of this one's admission order.
    pub fn running(&self) -> Vec<(u64, SliceHandle, u32)> {
        let mut running: Vec<&Running> = self.running.iter().collect();
        running.sort_by_key(|r| std::cmp::Reverse((r.ends_at, r.index)));
        running
            .iter()
            .map(|r| (r.index, r.handle, r.cubes))
            .collect()
    }

    /// The accumulated report.
    pub fn report(&self) -> &ServiceReport {
        &self.report
    }

    /// Checks request conservation: everything submitted is queued,
    /// running, completed, or rejected — nothing leaks. Returns the
    /// discrepancy as text when violated.
    pub fn conservation(&self) -> Result<(), String> {
        let r = &self.report;
        let terminal = r.invalid + r.compose_failed + r.blocked() + r.completed();
        let live = self.queue.len() as u64 + self.running.len() as u64;
        if r.submitted != terminal + live {
            return Err(format!(
                "submitted {} != terminal {} + queued {} + running {}",
                r.submitted,
                terminal,
                self.queue.len(),
                self.running.len()
            ));
        }
        Ok(())
    }

    /// Advances sim time to `now`, completing every slice whose hold
    /// expires on the way (in `(ends_at, request)` order) and re-running
    /// admission after each release — so admission waits are exact, not
    /// quantized to arrival times. The pod's own clock advances in step.
    pub fn advance_to(&mut self, pod: &mut Superpod, now: Nanos, out: &mut Vec<ServiceEvent>) {
        loop {
            let due = self
                .running
                .iter()
                .filter(|r| r.ends_at <= now)
                .map(|r| (r.ends_at, r.index))
                .min();
            let Some((at, index)) = due else { break };
            pod.advance(at.saturating_sub(self.now));
            self.now = at;
            let pos = self
                .running
                .iter()
                .position(|r| r.index == index)
                .expect("due entry present");
            let done = self.running.remove(pos);
            let report = match pod.release(done.handle) {
                Ok(rep) => rep,
                Err(_) => {
                    // Under injected faults a release commit can be
                    // refused; the request still completed its hold.
                    self.report.release_failed += 1;
                    CommitReport {
                        per_switch: Default::default(),
                        untouched: 0,
                        added: 0,
                        removed: 0,
                        traffic_ready_at: at,
                    }
                }
            };
            let served = done.ends_at.saturating_sub(done.serving_from);
            let work = done.cubes as u128 * served.0 as u128;
            self.report.busy_cube_nanos += work;
            self.report.goodput_cube_nanos += work;
            self.report.classes[done.class.rank()].completed += 1;
            out.push(ServiceEvent::Completed {
                request: done.index,
                class: done.class,
                at: self.now,
                handle: done.handle,
                cubes: done.cubes,
                report,
            });
            self.pump(pod, out);
        }
        pod.advance(now.saturating_sub(self.now));
        self.now = self.now.max(now);
        self.report.horizon = self.report.horizon.max(self.now);
    }

    /// Submits one intent at the current sim time (`advance_to` first):
    /// validate → enqueue → admission pass → block if the queue is still
    /// over its bound.
    pub fn submit(
        &mut self,
        pod: &mut Superpod,
        intent: &SliceIntent,
        out: &mut Vec<ServiceEvent>,
    ) {
        self.report.submitted += 1;
        let shape = match intent.validate() {
            Ok(shape) => shape,
            Err(_) => {
                self.report.invalid += 1;
                out.push(ServiceEvent::Rejected {
                    request: intent.request,
                    class: intent.class,
                    why: RejectReason::Invalid,
                    at: self.now,
                });
                return;
            }
        };
        self.report.classes[intent.class.rank()].offered += 1;
        self.queue.push(Queued {
            index: intent.request,
            class: intent.class,
            shape,
            hold: intent.hold,
            enqueued_at: self.now,
        });
        out.push(ServiceEvent::Enqueued {
            request: intent.request,
            class: intent.class,
            at: self.now,
        });
        self.pump(pod, out);
        // The bound applies to the newcomer only: preemption re-queues
        // may transiently exceed it without re-blocking old requests.
        if self.queue.len() > self.cfg.queue_limit {
            if let Some(pos) = self.queue.iter().position(|q| q.index == intent.request) {
                self.queue.remove(pos);
                self.report.classes[intent.class.rank()].blocked += 1;
                out.push(ServiceEvent::Rejected {
                    request: intent.request,
                    class: intent.class,
                    why: RejectReason::QueueFull,
                    at: self.now,
                });
            }
        }
    }

    /// Runs the system dry: no further arrivals, every running request
    /// completes and queued requests admit as capacity frees (requests
    /// that can never be placed — possible only with failed cubes under
    /// chaos — stay queued). Returns the final sim time.
    pub fn drain(&mut self, pod: &mut Superpod, out: &mut Vec<ServiceEvent>) -> Nanos {
        loop {
            self.pump(pod, out);
            let Some(next) = self.running.iter().map(|r| r.ends_at).min() else {
                break;
            };
            self.advance_to(pod, next, out);
        }
        self.now
    }

    /// The WFQ pick: among classes with queued work, least
    /// `served_cube_nanos / weight` first (cross-multiplied), ties to
    /// the higher priority. Within a class, FIFO by request index.
    fn pick(&self) -> Option<usize> {
        let mut best: Option<(Priority, u64, usize)> = None;
        for (pos, q) in self.queue.iter().enumerate() {
            let better = match best {
                None => true,
                Some((class, index, _)) if class == q.class => q.index < index,
                Some((class, _, _)) => {
                    let mine = self.served_cube_nanos[q.class.rank()] * class.weight() as u128;
                    let theirs = self.served_cube_nanos[class.rank()] * q.class.weight() as u128;
                    mine < theirs || (mine == theirs && q.class.rank() < class.rank())
                }
            };
            if better {
                best = Some((q.class, q.index, pos));
            }
        }
        best.map(|(_, _, pos)| pos)
    }

    /// Admission pass: place the fairness-chosen head, preempting lower
    /// priorities when allowed, until the head cannot be placed.
    fn pump(&mut self, pod: &mut Superpod, out: &mut Vec<ServiceEvent>) {
        loop {
            let Some(pos) = self.pick() else { return };
            let cand = self.queue[pos].clone();
            let mut idle: BTreeSet<_> = pod.idle_cubes().into_iter().collect();
            let need = cand.shape.cube_count();
            if idle.len() < need && self.cfg.preemption {
                // Evict strictly-lower-priority victims, youngest first.
                let mut victims: Vec<(Nanos, u64)> = self
                    .running
                    .iter()
                    .filter(|r| r.class.rank() > cand.class.rank())
                    .map(|r| (r.serving_from, r.index))
                    .collect();
                victims.sort_by(|a, b| b.cmp(a));
                for (_, victim_index) in victims {
                    if idle.len() >= need {
                        break;
                    }
                    let vpos = self
                        .running
                        .iter()
                        .position(|r| r.index == victim_index)
                        .expect("victim present");
                    let victim = self.running.remove(vpos);
                    let report = match pod.release(victim.handle) {
                        Ok(rep) => rep,
                        Err(_) => {
                            self.report.release_failed += 1;
                            CommitReport {
                                per_switch: Default::default(),
                                untouched: 0,
                                added: 0,
                                removed: 0,
                                traffic_ready_at: self.now,
                            }
                        }
                    };
                    let wasted = self.now.saturating_sub(victim.serving_from);
                    self.report.busy_cube_nanos += victim.cubes as u128 * wasted.0 as u128;
                    self.report.classes[victim.class.rank()].preempted += 1;
                    // The victim regains its FIFO slot (original index)
                    // and will restart its full hold.
                    self.queue.push(Queued {
                        index: victim.index,
                        class: victim.class,
                        shape: victim.shape,
                        hold: victim.hold,
                        enqueued_at: self.now,
                    });
                    out.push(ServiceEvent::Preempted {
                        request: victim.index,
                        class: victim.class,
                        victim_of: cand.index,
                        at: self.now,
                        handle: victim.handle,
                        report,
                    });
                    idle = pod.idle_cubes().into_iter().collect();
                }
            }
            let Some(cubes) = Pooled.allocate(cand.shape, &idle) else {
                return; // head-of-line blocks: no bypass (see module docs)
            };
            let slice = Slice::new(cand.shape, cubes.clone()).expect("allocator picks valid cubes");
            let geometry = slice.clone();
            match pod.compose(slice) {
                Ok((handle, report)) => {
                    let qpos = self
                        .queue
                        .iter()
                        .position(|q| q.index == cand.index)
                        .expect("candidate still queued");
                    self.queue.remove(qpos);
                    let waited = self.now.saturating_sub(cand.enqueued_at);
                    let serving_from = report.traffic_ready_at.max(self.now);
                    let stats = &mut self.report.classes[cand.class.rank()];
                    stats.admitted += 1;
                    if waited.0 == 0 {
                        stats.immediate += 1;
                    } else {
                        stats.wait_micros.record(waited.0 as f64 / 1_000.0);
                    }
                    self.served_cube_nanos[cand.class.rank()] +=
                        cubes.len() as u128 * cand.hold.0 as u128;
                    self.running.push(Running {
                        index: cand.index,
                        class: cand.class,
                        shape: cand.shape,
                        handle,
                        cubes: cubes.len() as u32,
                        serving_from,
                        ends_at: serving_from + cand.hold,
                        hold: cand.hold,
                    });
                    out.push(ServiceEvent::Admitted {
                        request: cand.index,
                        class: cand.class,
                        at: self.now,
                        cubes: cubes.len() as u32,
                        waited,
                        handle,
                        slice: geometry,
                        report,
                    });
                }
                Err(_) => {
                    // Fault injection can fail a compose (e.g. a cube
                    // died between allocation and commit). Terminal.
                    let qpos = self
                        .queue
                        .iter()
                        .position(|q| q.index == cand.index)
                        .expect("candidate still queued");
                    self.queue.remove(qpos);
                    self.report.compose_failed += 1;
                    out.push(ServiceEvent::Rejected {
                        request: cand.index,
                        class: cand.class,
                        why: RejectReason::Fabric,
                        at: self.now,
                    });
                }
            }
        }
    }
}
