//! The service core: admission control, weighted fairness, priorities
//! and preemption over a live [`Superpod`].
//!
//! The core is deliberately observation-free — every call returns the
//! [`ServiceEvent`]s it caused, and callers (the open-loop engine, the
//! chaos executor) translate those into telemetry, spans and invariant
//! state. That keeps the policy a pure sim-time state machine: same
//! inputs, same events, same [`ServiceReport`], at any thread count.
//!
//! ## Policy (the DESIGN §6.5 contract)
//!
//! - **Blocking**: a new arrival that leaves the queue beyond
//!   `queue_limit` after an admission pass is turned away. `queue_limit
//!   = 0` is the pure-loss (Erlang B) configuration.
//! - **Admission order**: weighted fair queueing across classes — the
//!   class with the least `served_cube_nanos / weight` admits next
//!   (integer cross-multiplication, no floats), ties to the higher
//!   priority; FIFO by request index within a class. The fairness-chosen
//!   head blocks further admission when it cannot be placed, so large
//!   slices cannot be starved by a stream of small ones.
//! - **Preemption**: when the head cannot fit, it may evict running
//!   slices of strictly lower priority — youngest admission first,
//!   larger request index breaking ties — until it fits or no victims
//!   remain. Victims re-queue under their original index (they regain
//!   FIFO position in their class) and restart their full hold when
//!   re-admitted.
//!
//! ## Representation
//!
//! The queue is one `VecDeque` per class, each ascending by request
//! index, so the FIFO head of a class is its front. The admission order
//! above is a strict total order on classes (weighted share, then
//! priority) composed with index order inside a class, so its minimum
//! does not depend on the order candidates are scanned in: comparing the
//! (at most three) class heads picks exactly the request a scan of every
//! queued entry would. That needs live request indices to be unique —
//! see [`ServiceCore::submit`]. The idle set is the pod's
//! [`CubeSet`](lightwave_superpod::CubeSet), so a pass that cannot admit
//! costs a head comparison and a population count.
//!
//! Every serving request holds a live pod slice, and a pod holds at most
//! 64 (DESIGN §6.6, "Sized to the pod"), so the running set is a slot
//! table whose slot numbers fit a `u64` mask. Completion order is a list
//! of 24-byte entries searched by one integer, `ends_at << 64 | index`;
//! the masks say which slots serve each class, so a head with no lower
//! class serving finds no victim without looking at any request.

use crate::intent::{Priority, SliceIntent};
use crate::metrics::ServiceReport;
use lightwave_fabric::CommitReport;
use lightwave_scheduler::{Allocator, Pooled};
use lightwave_superpod::{Slice, SliceHandle, SliceShape, Superpod};
use lightwave_units::Nanos;
use std::collections::VecDeque;

/// Admission-policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyConfig {
    /// Arrivals beyond this queue depth are blocked; 0 = pure loss.
    pub queue_limit: usize,
    /// Whether higher-priority requests may evict lower-priority slices.
    pub preemption: bool,
}

impl Default for PolicyConfig {
    fn default() -> PolicyConfig {
        PolicyConfig {
            queue_limit: 256,
            preemption: true,
        }
    }
}

/// Why a request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Validation failed (malformed intent).
    Invalid,
    /// The queue was at its bound.
    QueueFull,
    /// The pod refused the compose transaction (fault injection only).
    Fabric,
}

/// What one core call did — the caller's hook for telemetry and traces.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// The intent validated and joined the queue.
    Enqueued {
        /// Request index.
        request: u64,
        /// Its class.
        class: Priority,
        /// Sim time the request joined the queue — the scope profiler's
        /// timeline anchor (event-time stamping, DESIGN §6.7).
        at: Nanos,
    },
    /// The request left the system without running.
    Rejected {
        /// Request index.
        request: u64,
        /// Its class.
        class: Priority,
        /// Why.
        why: RejectReason,
        /// Sim time of the rejection.
        at: Nanos,
    },
    /// Admission composed the request onto the pod.
    Admitted {
        /// Request index.
        request: u64,
        /// Its class.
        class: Priority,
        /// Sim time of the admission (completions mid-advance admit at
        /// the completion instant, not the advance target — span
        /// stamping must use this, or compose spans invert).
        at: Nanos,
        /// Cubes composed.
        cubes: u32,
        /// Sim time spent queued before this admission.
        waited: Nanos,
        /// The pod handle now serving the request.
        handle: SliceHandle,
        /// The composed geometry — invariant checkers re-derive expected
        /// port mappings from it, independent of the pod's bookkeeping.
        slice: Slice,
        /// The fabric transaction.
        report: CommitReport,
    },
    /// A running slice was evicted by a higher-priority admission; the
    /// request re-queued.
    Preempted {
        /// Evicted request.
        request: u64,
        /// Its class.
        class: Priority,
        /// The admission that needed the cubes.
        victim_of: u64,
        /// Sim time of the eviction.
        at: Nanos,
        /// The handle the eviction released.
        handle: SliceHandle,
        /// The release transaction.
        report: CommitReport,
    },
    /// A slice served its full hold and released.
    Completed {
        /// Request index.
        request: u64,
        /// Its class.
        class: Priority,
        /// Sim time of the completion (its `ends_at`).
        at: Nanos,
        /// The handle the completion released.
        handle: SliceHandle,
        /// Cubes freed.
        cubes: u32,
        /// The release transaction (empty when the release was rejected
        /// under faults — see [`ServiceReport::release_failed`]).
        report: CommitReport,
    },
}

const _: () = assert!(
    std::mem::size_of::<ServiceEvent>() <= 144,
    "an event stays within 144 bytes: a drain's batch of events is a cell's peak heap"
);

#[derive(Debug, Clone, Copy)]
struct Queued {
    index: u64,
    class: Priority,
    shape: SliceShape,
    hold: Nanos,
    enqueued_at: Nanos,
}

#[derive(Debug, Clone, Copy)]
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

/// A serving request's place in completion order: the two halves of its
/// [`Due::key`] and its slot. The halves are kept apart so that an entry
/// is 24 bytes; a `u128` field would pad it to 32.
#[derive(Debug, Clone, Copy)]
struct Due {
    ends_at: u64,
    index: u64,
    slot: usize,
}

impl Due {
    /// The completion key `ends_at << 64 | index`: one integer compare is
    /// the `(ends_at, index)` order. Live request indices are unique, so
    /// no two keys are equal and the slot never decides.
    fn key(self) -> u128 {
        (self.ends_at as u128) << 64 | self.index as u128
    }
}

impl Running {
    /// Its place in completion order, serving in slot `slot`.
    fn due(&self, slot: usize) -> Due {
        Due {
            ends_at: self.ends_at.0,
            index: self.index,
            slot,
        }
    }
}

/// The slots set in a slot mask, ascending.
fn slots_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slot
        })
    })
}

/// The fabric-as-a-service policy state machine (see module docs).
#[derive(Debug)]
pub struct ServiceCore {
    cfg: PolicyConfig,
    /// Waiting requests by class rank, each ascending by request index.
    queue: [VecDeque<Queued>; 3],
    /// Total entries across the three class queues.
    depth: usize,
    /// Serving requests by slot. Admission takes the lowest free slot and
    /// the table grows only when every slot is taken; a free slot's entry
    /// is stale and nothing reads it.
    running: Vec<Running>,
    /// The slots serving each class rank, as bit masks.
    class_slots: [u64; 3],
    /// Every serving request's [`Running::due`] entry, descending by
    /// [`Due::key`]: the next completion is the last entry.
    due: Vec<Due>,
    /// WFQ virtual service per class: cube-nanos charged at admission.
    served_cube_nanos: [u128; 3],
    report: ServiceReport,
}

impl ServiceCore {
    /// An empty core. It keeps no clock of its own: sim time is the pod's
    /// fabric clock (`pod.fabric().now()`), read through the pod every
    /// call takes.
    pub fn new(cfg: PolicyConfig) -> ServiceCore {
        let report = ServiceReport {
            cells: 1,
            ..ServiceReport::default()
        };
        ServiceCore {
            cfg,
            queue: Default::default(),
            depth: 0,
            running: Vec::new(),
            class_slots: [0; 3],
            due: Vec::new(),
            served_cube_nanos: [0; 3],
            report,
        }
    }

    /// Requests waiting for admission.
    pub fn queue_depth(&self) -> usize {
        self.depth
    }

    /// Requests currently serving: `(request, handle, cubes)`, latest
    /// completion first. Invariant checkers compare this, as a set,
    /// against the pod's live slices.
    pub fn running(&self) -> impl Iterator<Item = (u64, SliceHandle, u32)> + '_ {
        self.due.iter().map(|d| {
            let r = &self.running[d.slot];
            (r.index, r.handle, r.cubes)
        })
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
        let live = self.depth as u64 + self.due.len() as u64;
        if r.submitted != terminal + live {
            return Err(format!(
                "submitted {} != terminal {} + queued {} + running {}",
                r.submitted,
                terminal,
                self.depth,
                self.due.len()
            ));
        }
        Ok(())
    }

    /// Advances sim time — the pod's fabric clock — to `now`, completing
    /// every slice whose hold expires on the way (in `(ends_at, request)`
    /// order) and re-running admission after each release — so admission
    /// waits are exact, not quantized to arrival times.
    pub fn advance_to(&mut self, pod: &mut Superpod, now: Nanos, out: &mut Vec<ServiceEvent>) {
        while let Some(due) = self.due.pop_if(|d| d.ends_at <= now.0) {
            let done = self.vacate(due.slot);
            pod.advance_to(done.ends_at);
            let at = pod.fabric().now();
            let report = self.release(pod, done.handle, at);
            let served = done.ends_at.saturating_sub(done.serving_from);
            let work = done.cubes as u128 * served.0 as u128;
            self.report.busy_cube_nanos += work;
            self.report.goodput_cube_nanos += work;
            self.report.classes[done.class.rank()].completed += 1;
            out.push(ServiceEvent::Completed {
                request: done.index,
                class: done.class,
                at,
                handle: done.handle,
                cubes: done.cubes,
                report,
            });
            self.pump(pod, out);
        }
        pod.advance_to(now);
        self.report.horizon = self.report.horizon.max(pod.fabric().now());
    }

    /// Submits one intent at the current sim time (`advance_to` first):
    /// validate → enqueue → admission pass → block if the queue is still
    /// over its bound.
    ///
    /// `intent.request` must differ from the index of every request still
    /// queued or running: the index is the FIFO key and the identity the
    /// queue-bound check and preemption re-queue find a request by. The
    /// arrival stream's indices and chaos `Arrival { nth }` events are
    /// unique by construction.
    pub fn submit(
        &mut self,
        pod: &mut Superpod,
        intent: &SliceIntent,
        out: &mut Vec<ServiceEvent>,
    ) {
        self.report.submitted += 1;
        let now = pod.fabric().now();
        let shape = match intent.validate() {
            Ok(shape) => shape,
            Err(_) => {
                self.report.invalid += 1;
                out.push(ServiceEvent::Rejected {
                    request: intent.request,
                    class: intent.class,
                    why: RejectReason::Invalid,
                    at: now,
                });
                return;
            }
        };
        debug_assert!(
            !self.is_live(intent.request),
            "request index {} is already queued or running",
            intent.request
        );
        self.report.classes[intent.class.rank()].offered += 1;
        self.enqueue(Queued {
            index: intent.request,
            class: intent.class,
            shape,
            hold: intent.hold,
            enqueued_at: now,
        });
        out.push(ServiceEvent::Enqueued {
            request: intent.request,
            class: intent.class,
            at: now,
        });
        self.pump(pod, out);
        // The bound applies to the newcomer only: preemption re-queues
        // may transiently exceed it without re-blocking old requests.
        if self.depth > self.cfg.queue_limit {
            let class = &mut self.queue[intent.class.rank()];
            if let Ok(pos) = class.binary_search_by_key(&intent.request, |q| q.index) {
                class.remove(pos);
                self.depth -= 1;
                self.report.classes[intent.class.rank()].blocked += 1;
                out.push(ServiceEvent::Rejected {
                    request: intent.request,
                    class: intent.class,
                    why: RejectReason::QueueFull,
                    at: now,
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
            let Some(next) = self.due.last() else {
                break;
            };
            self.advance_to(pod, Nanos(next.ends_at), out);
        }
        pod.fabric().now()
    }

    /// Whether `index` names a request still queued or running.
    fn is_live(&self, index: u64) -> bool {
        let queued = |class: &VecDeque<Queued>| class.iter().any(|q| q.index == index);
        self.queue.iter().any(queued) || self.due.iter().any(|d| d.index == index)
    }

    /// Frees a serving request's slot (its [`Running::due`] entry is the
    /// caller's to drop) and returns what it held.
    fn vacate(&mut self, slot: usize) -> Running {
        let r = self.running[slot];
        self.class_slots[r.class.rank()] &= !(1 << slot);
        r
    }

    /// Queues `q` at its index position within its class: the back for an
    /// arrival, its old FIFO slot for a re-queued preemption victim.
    fn enqueue(&mut self, q: Queued) {
        let class = &mut self.queue[q.class.rank()];
        match class.back() {
            Some(last) if last.index > q.index => {
                let pos = class.partition_point(|other| other.index < q.index);
                class.insert(pos, q);
            }
            _ => class.push_back(q),
        }
        self.depth += 1;
    }

    /// Releases `handle` on the pod. Under injected faults a release
    /// commit can be refused; the request still leaves the core, so the
    /// refusal is counted and an empty transaction stamped `at` stands in.
    fn release(&mut self, pod: &mut Superpod, handle: SliceHandle, at: Nanos) -> CommitReport {
        pod.release(handle).unwrap_or_else(|_| {
            self.report.release_failed += 1;
            CommitReport {
                per_switch: Default::default(),
                untouched: 0,
                added: 0,
                removed: 0,
                traffic_ready_at: at,
            }
        })
    }

    /// The WFQ pick: among classes with queued work, least
    /// `served_cube_nanos / weight` first (cross-multiplied), ties to
    /// the higher priority. Within a class, FIFO by request index — the
    /// class queue's front. Returns the chosen head.
    fn pick(&self) -> Option<Queued> {
        let mut best: Option<Priority> = None;
        for class in Priority::ALL {
            if self.queue[class.rank()].is_empty() {
                continue;
            }
            // Ranks ascend, so on a tie the earlier (higher) class stays.
            let better = best.is_none_or(|held| {
                self.served_cube_nanos[class.rank()] * (held.weight() as u128)
                    < self.served_cube_nanos[held.rank()] * class.weight() as u128
            });
            if better {
                best = Some(class);
            }
        }
        best.and_then(|class| self.queue[class.rank()].front().copied())
    }

    /// Admission pass: place the fairness-chosen head, preempting lower
    /// priorities when allowed, until the head cannot be placed.
    fn pump(&mut self, pod: &mut Superpod, out: &mut Vec<ServiceEvent>) {
        let now = pod.fabric().now();
        while let Some(cand) = self.pick() {
            let rank = cand.class.rank();
            let need = cand.shape.cube_count();
            let mut idle = pod.idle_set();
            if self.cfg.preemption {
                // Evict strictly-lower-priority victims, youngest first
                // (larger request index breaking ties), until the head
                // fits or none remain. Only lower classes' slots are
                // candidates: with none serving there is nothing to scan.
                while idle.len() < need {
                    let lower = self.class_slots[rank + 1..]
                        .iter()
                        .fold(0, |all, &m| all | m);
                    let youngest = slots_of(lower).max_by_key(|&slot| {
                        let r = &self.running[slot];
                        (r.serving_from, r.index)
                    });
                    let Some(slot) = youngest else { break };
                    let victim = self.vacate(slot);
                    let key = victim.due(slot).key();
                    self.due.remove(self.due.partition_point(|d| d.key() > key));
                    let report = self.release(pod, victim.handle, now);
                    let wasted = now.saturating_sub(victim.serving_from);
                    self.report.busy_cube_nanos += victim.cubes as u128 * wasted.0 as u128;
                    self.report.classes[victim.class.rank()].preempted += 1;
                    // The victim regains its FIFO slot (original index)
                    // and will restart its full hold.
                    self.enqueue(Queued {
                        index: victim.index,
                        class: victim.class,
                        shape: victim.shape,
                        hold: victim.hold,
                        enqueued_at: now,
                    });
                    out.push(ServiceEvent::Preempted {
                        request: victim.index,
                        class: victim.class,
                        victim_of: cand.index,
                        at: now,
                        handle: victim.handle,
                        report,
                    });
                    idle = pod.idle_set();
                }
            }
            let Some(cubes) = Pooled.allocate(cand.shape, idle) else {
                return; // head-of-line blocks: no bypass (see module docs)
            };
            let cube_count = cubes.len() as u32;
            // `submit` queued only a validated shape, and `Pooled` takes
            // exactly its cube count of distinct idle cubes: `Slice::new`
            // accepts that.
            #[allow(clippy::expect_used)]
            let slice = Slice::new(cand.shape, cubes).expect("allocator picks valid cubes");
            // Admitted or refused, the head — `cand` — leaves the queue.
            self.queue[rank].pop_front();
            self.depth -= 1;
            // The pod's copy and the event's are the same inline value:
            // cloning a slice of up to 22 cubes allocates nothing.
            match pod.compose(slice.clone()) {
                Ok((handle, report)) => {
                    let waited = now.saturating_sub(cand.enqueued_at);
                    let serving_from = report.traffic_ready_at.max(now);
                    let stats = &mut self.report.classes[rank];
                    stats.admitted += 1;
                    if waited.0 == 0 {
                        stats.immediate += 1;
                    } else {
                        stats.wait_micros.record(waited.0 as f64 / 1_000.0);
                    }
                    self.served_cube_nanos[rank] += cube_count as u128 * cand.hold.0 as u128;
                    let serving = Running {
                        index: cand.index,
                        class: cand.class,
                        shape: cand.shape,
                        handle,
                        cubes: cube_count,
                        serving_from,
                        ends_at: serving_from + cand.hold,
                        hold: cand.hold,
                    };
                    // The lowest free slot. Each serving request holds a
                    // live pod slice and `handle` is one more, so fewer
                    // than 64 slots are taken and the slot fits the masks.
                    let taken = self.class_slots.iter().fold(0, |all, &m| all | m);
                    let slot = (!taken).trailing_zeros() as usize;
                    // Both tables grow one entry at a time, never doubled:
                    // they are exactly as long as the most requests ever
                    // served at once.
                    if slot == self.running.len() {
                        self.running.reserve_exact(1);
                        self.running.push(serving);
                    } else {
                        self.running[slot] = serving;
                    }
                    self.class_slots[rank] |= 1 << slot;
                    let due = serving.due(slot);
                    let key = due.key();
                    self.due.reserve_exact(1);
                    self.due
                        .insert(self.due.partition_point(|d| d.key() > key), due);
                    out.push(ServiceEvent::Admitted {
                        request: cand.index,
                        class: cand.class,
                        at: now,
                        cubes: cube_count,
                        waited,
                        handle,
                        slice,
                        report,
                    });
                }
                Err(_) => {
                    // Fault injection can fail a compose (e.g. a cube
                    // died between allocation and commit). Terminal.
                    self.report.compose_failed += 1;
                    out.push(ServiceEvent::Rejected {
                        request: cand.index,
                        class: cand.class,
                        why: RejectReason::Fabric,
                        at: now,
                    });
                }
            }
        }
    }
}
