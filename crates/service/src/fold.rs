//! The one decoder of a request's lifecycle. A [`RequestFold`] reads a
//! cell's [`ServiceEvent`]s and hands each watched request's walk to its
//! consumer as [`Transition`]s, in event order:
//!
//! | event | transitions |
//! |---|---|
//! | `Enqueued` | `Queued` |
//! | `Admitted` | `QueueWait` (queued since → `at`), `Admit` (`at`), `Compose` (`at` → `max(at, traffic_ready_at)`) |
//! | `Preempted` | `Preempt` (serving since → `at`), `Queued` |
//! | `Completed` | `Hold` (serving since → `at`), `Release` (`at` → `max(at, traffic_ready_at)`) |
//! | `Rejected` | `QueueWait` (if it was queued), `Rejected` |
//!
//! Every time is an event's own `at` or `traffic_ready_at` (DESIGN §6.7).
//! [`ScopeCollector`](crate::ScopeCollector) sums the phases;
//! [`Lifecycle`](crate::Lifecycle) draws them as spans.

use crate::intent::Priority;
use crate::queue::ServiceEvent;
use crate::scope::ScopePhase::{self, Admit, Compose, Hold, Preempt, QueueWait, Release};
use lightwave_fabric::CommitReport;
use lightwave_units::Nanos;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One step of a watched request's walk (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Transition<'a> {
    /// Joined the queue at this time: on arrival, or after an eviction.
    Queued(Nanos),
    /// `(phase, from, to, commit)`: spent `[from, to]` in `phase` (`to <
    /// from` only for an eviction before the slice was ready). `commit`
    /// is the compose or release transaction and its cube count.
    Phase(ScopePhase, Nanos, Nanos, Option<(&'a CommitReport, u32)>),
    /// Left without running at this time.
    Rejected(Nanos),
}

/// What a [`RequestFold`] hands the transitions to.
pub(crate) trait RequestSink {
    /// What the consumer keeps per watched request.
    type State;

    /// The rule: whether to watch `request`, asked at its `Enqueued` or
    /// at a `Rejected` that comes first, and if so its starting state.
    fn start(&mut self, request: u64, class: Priority) -> Option<Self::State>;

    /// One transition of watched `request`; `Release` and `Rejected` end it.
    fn step(&mut self, request: u64, state: &mut Self::State, t: Transition<'_>);
}

/// The in-flight table of the requests a consumer watches, keyed by
/// request index (unique among live requests, see
/// [`ServiceCore::submit`](crate::ServiceCore::submit)). A row is
/// `(since, cubes, state)`: since when the request has been queued, or
/// serving while admitted; the cubes of its current admission; the
/// consumer's state.
#[derive(Debug, Clone)]
pub(crate) struct RequestFold<S>(HashMap<u64, (Nanos, u32, S), BuildHasherDefault<IndexHasher>>);

impl<S> Default for RequestFold<S> {
    fn default() -> RequestFold<S> {
        RequestFold(HashMap::default())
    }
}

impl<S> RequestFold<S> {
    /// Each in-flight request's state, in no particular order.
    pub fn states(&self) -> impl Iterator<Item = (u64, &S)> {
        self.0.iter().map(|(&r, (.., state))| (r, state))
    }

    /// Hands `sink` the transitions of the requests it watches in
    /// `events`, in order. Inlined: the scope collector calls it once per
    /// event batch, and a second frame per batch reads in its cost.
    #[inline(always)]
    pub fn observe(&mut self, sink: &mut impl RequestSink<State = S>, events: &[ServiceEvent]) {
        for ev in events {
            match *ev {
                ServiceEvent::Enqueued { request, class, at } => {
                    if let Some(mut state) = sink.start(request, class) {
                        sink.step(request, &mut state, Transition::Queued(at));
                        self.0.insert(request, (at, 0, state));
                    }
                }
                ServiceEvent::Rejected {
                    request, class, at, ..
                } => {
                    let mut state = if let Some((since, _, mut state)) = self.0.remove(&request) {
                        sink.step(
                            request,
                            &mut state,
                            Transition::Phase(QueueWait, since, at, None),
                        );
                        state
                    } else if let Some(state) = sink.start(request, class) {
                        state // an invalid intent rejects before it enqueues
                    } else {
                        continue;
                    };
                    sink.step(request, &mut state, Transition::Rejected(at));
                }
                ServiceEvent::Admitted {
                    request,
                    at,
                    cubes,
                    ref report,
                    ..
                } => {
                    let Some((since, held, state)) = self.0.get_mut(&request) else {
                        continue;
                    };
                    let ready = report.traffic_ready_at.max(at);
                    for t in [
                        Transition::Phase(QueueWait, *since, at, None),
                        Transition::Phase(Admit, at, at, None),
                        Transition::Phase(Compose, at, ready, Some((report, cubes))),
                    ] {
                        sink.step(request, state, t);
                    }
                    (*since, *held) = (ready, cubes);
                }
                ServiceEvent::Preempted {
                    request,
                    at,
                    ref report,
                    ..
                } => {
                    let Some((since, cubes, state)) = self.0.get_mut(&request) else {
                        continue;
                    };
                    let evict = Transition::Phase(Preempt, *since, at, Some((report, *cubes)));
                    for t in [evict, Transition::Queued(at)] {
                        sink.step(request, state, t);
                    }
                    *since = at;
                }
                ServiceEvent::Completed {
                    request,
                    at,
                    ref report,
                    ..
                } => {
                    let Some((since, cubes, mut state)) = self.0.remove(&request) else {
                        continue;
                    };
                    let settled = report.traffic_ready_at.max(at);
                    for t in [
                        Transition::Phase(Hold, since, at, None),
                        Transition::Phase(Release, at, settled, Some((report, cubes))),
                    ] {
                        sink.step(request, &mut state, t);
                    }
                }
            }
        }
    }
}

/// The in-flight table's hasher: one multiply by the 64-bit golden ratio.
/// Its keys are request indices, which are near consecutive; the one
/// caller that iterates the table ([`RequestFold::states`]) sorts.
#[derive(Debug, Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
