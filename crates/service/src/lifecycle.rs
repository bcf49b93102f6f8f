//! The traced single-cell observer: request-lifecycle spans
//! (`Enqueue → Admit → Compose → Run → Release`, with `Reject`/`Preempt`
//! off the happy path) chained by follows-links, and queue depth as a
//! Perfetto counter track. Per-class counts are the cell's
//! [`ServiceReport`](crate::ServiceReport); admission burn is
//! [`CampusObserver`](crate::CampusObserver)'s ledger.
//!
//! Every span is stamped with the event's own `at`, never with when the
//! batch was handed over; only the queue-depth sample, which is a
//! property of the step and not of an event, takes the step's time.

use crate::engine::{Observer, Step};
use crate::queue::ServiceEvent;
use crate::scope::{scope_sampled, scope_span_id};
use lightwave_superpod::instrument::{trace_compose, trace_release};
use lightwave_telemetry::{SeriesId, SeriesStore};
use lightwave_trace::{Lane, RequestStage, SpanId, SpanKind, Tracer};
use lightwave_units::Nanos;
use std::collections::BTreeMap;

/// One cell's lifecycle instruments (see module docs), run with
/// [`run_cell_with`](crate::run_cell_with); finishing hands the observer
/// itself back. Both stores are public: export `tracer` + `series` with
/// [`to_chrome_trace_with_counters`](lightwave_trace::to_chrome_trace_with_counters).
///
/// Span ids below the root come from the tracer's own counter stream,
/// which two cells of one seed would share, so there is no shard merge:
/// this observer is not a [`ShardObserver`](crate::ShardObserver).
pub struct Lifecycle {
    /// Request-lifecycle spans.
    pub tracer: Tracer,
    /// Queue-depth time series (a Perfetto counter track).
    pub series: SeriesStore,
    seed: u64,
    trace_requests: u64,
    scope_every: u64,
    depth: SeriesId,
    /// Last lifecycle span of each traced request still in flight.
    open: BTreeMap<u64, SpanId>,
    /// Open root lifecycle span of each scope-sampled request, with id
    /// pre-derived by [`scope_span_id`] so a [`ScopeReport`](crate::ScopeReport)
    /// of the same seed resolves into this trace.
    scope_roots: BTreeMap<u64, SpanId>,
}

impl Lifecycle {
    /// Fresh instruments for `seed`'s arrival stream: requests with index
    /// below `trace_requests` get lifecycle stage spans, and requests
    /// that [`scope_sampled`]`(seed, request, scope_every)` picks get a
    /// root lifecycle span.
    pub fn new(seed: u64, trace_requests: u64, scope_every: u64) -> Lifecycle {
        let mut series = SeriesStore::default();
        let depth = series.series("svc_queue_depth", &[]);
        Lifecycle {
            tracer: Tracer::new(seed),
            series,
            seed,
            trace_requests,
            scope_every,
            depth,
            open: BTreeMap::new(),
            scope_roots: BTreeMap::new(),
        }
    }

    fn traced(&self, request: u64) -> bool {
        request < self.trace_requests
    }

    /// A zero-width lifecycle stage span chained after `prev`, parented
    /// under the request's root scope span when one is open.
    fn stage_mark(
        &mut self,
        request: u64,
        stage: RequestStage,
        at: Nanos,
        prev: Option<SpanId>,
    ) -> SpanId {
        let parent = self.scope_roots.get(&request).copied();
        let span = self.tracer.span(
            Lane::Scheduler,
            parent,
            at,
            at,
            SpanKind::ServiceRequest { request, stage },
        );
        if let Some(prev) = prev {
            self.tracer.link_follows(span, prev);
        }
        span
    }

    fn apply(&mut self, ev: &ServiceEvent) {
        match ev {
            ServiceEvent::Enqueued { request, at, .. } => {
                let at = *at;
                if scope_sampled(self.seed, *request, self.scope_every)
                    && !self.scope_roots.contains_key(request)
                {
                    let id = scope_span_id(self.seed, *request);
                    self.tracer.begin_with_id(
                        id,
                        Lane::Scheduler,
                        None,
                        at,
                        SpanKind::ServiceRequest {
                            request: *request,
                            stage: RequestStage::Lifecycle,
                        },
                    );
                    self.scope_roots.insert(*request, id);
                }
                if self.traced(*request) {
                    let prev = self.open.remove(request);
                    let parent = self.scope_roots.get(request).copied();
                    let span = self.tracer.begin(
                        Lane::Scheduler,
                        parent,
                        at,
                        SpanKind::ServiceRequest {
                            request: *request,
                            stage: RequestStage::Enqueue,
                        },
                    );
                    if let Some(prev) = prev {
                        self.tracer.link_follows(span, prev);
                    }
                    self.open.insert(*request, span);
                }
            }
            ServiceEvent::Rejected { request, at, .. } => {
                let at = *at;
                if self.traced(*request) {
                    let prev = self.open.remove(request);
                    if let Some(span) = prev {
                        self.tracer.end(span, at);
                    }
                    self.stage_mark(*request, RequestStage::Reject, at, prev);
                }
                if let Some(root) = self.scope_roots.remove(request) {
                    self.tracer.end(root, at);
                }
            }
            ServiceEvent::Admitted {
                request,
                at,
                cubes,
                report,
                ..
            } => {
                let at = *at;
                if self.traced(*request) {
                    let enqueue = self.open.remove(request);
                    if let Some(span) = enqueue {
                        self.tracer.end(span, at);
                    }
                    let admit = self.stage_mark(*request, RequestStage::Admit, at, enqueue);
                    let ready = report.traffic_ready_at.max(at);
                    let parent = self.scope_roots.get(request).copied();
                    let compose = self.tracer.span(
                        Lane::Scheduler,
                        parent,
                        at,
                        ready,
                        SpanKind::ServiceRequest {
                            request: *request,
                            stage: RequestStage::Compose,
                        },
                    );
                    self.tracer.link_follows(compose, admit);
                    trace_compose(&mut self.tracer, Some(compose), 0, at, *cubes, report);
                    let run = self.tracer.begin(
                        Lane::Scheduler,
                        parent,
                        ready,
                        SpanKind::ServiceRequest {
                            request: *request,
                            stage: RequestStage::Run,
                        },
                    );
                    self.tracer.link_follows(run, compose);
                    self.open.insert(*request, run);
                }
            }
            ServiceEvent::Preempted {
                request,
                at,
                report,
                ..
            } => {
                let at = *at;
                if self.traced(*request) {
                    let run = self.open.remove(request);
                    if let Some(span) = run {
                        self.tracer.end(span, at);
                    }
                    let preempt = self.stage_mark(*request, RequestStage::Preempt, at, run);
                    trace_release(&mut self.tracer, Some(preempt), 0, at, 0, report);
                    // The request re-queued: a fresh enqueue span
                    // chains after the eviction.
                    let parent = self.scope_roots.get(request).copied();
                    let enqueue = self.tracer.begin(
                        Lane::Scheduler,
                        parent,
                        at,
                        SpanKind::ServiceRequest {
                            request: *request,
                            stage: RequestStage::Enqueue,
                        },
                    );
                    self.tracer.link_follows(enqueue, preempt);
                    self.open.insert(*request, enqueue);
                }
            }
            ServiceEvent::Completed {
                request,
                at,
                cubes,
                report,
                ..
            } => {
                let at = *at;
                if self.traced(*request) {
                    let run = self.open.remove(request);
                    if let Some(span) = run {
                        self.tracer.end(span, at);
                    }
                    let release = self.stage_mark(*request, RequestStage::Release, at, run);
                    trace_release(&mut self.tracer, Some(release), 0, at, *cubes, report);
                }
                if let Some(root) = self.scope_roots.remove(request) {
                    // The lifecycle ends when the release settles.
                    self.tracer.end(root, report.traffic_ready_at.max(at));
                }
            }
        }
    }
}

impl Observer for Lifecycle {
    type Output = Lifecycle;

    fn batch(&mut self, step: &Step<'_>, events: &[ServiceEvent]) {
        for ev in events {
            self.apply(ev);
        }
        self.series
            .push(self.depth, step.now, step.core.queue_depth() as f64);
    }

    /// Closes any root lifecycle span whose request never terminated
    /// (possible only under injected faults): open spans would otherwise
    /// be dropped from the export.
    fn finish(mut self, end: Nanos) -> Lifecycle {
        for (_, span) in std::mem::take(&mut self.scope_roots) {
            self.tracer.end(span, end);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::Priority;
    use crate::queue::{PolicyConfig, RejectReason, ServiceCore};

    #[test]
    fn every_arm_is_stamped_with_the_events_own_time() {
        // A batch handed over at t = 9 s whose events happened at 2 s and
        // 3 s — the shape of a drain batch, where the step's time is the
        // drain end. The spans must carry the event times; only the depth
        // sample carries the step's.
        let core = ServiceCore::new(PolicyConfig::default());
        let step = Step {
            cell: 0,
            now: Nanos::from_secs_f64(9.0),
            core: &core,
        };
        let (t_enq, t_rej) = (Nanos::from_secs_f64(2.0), Nanos::from_secs_f64(3.0));
        let class = Priority::Training;
        let mut obs = Lifecycle::new(7, 1, 1);
        obs.batch(
            &step,
            &[
                ServiceEvent::Enqueued {
                    request: 0,
                    class,
                    at: t_enq,
                },
                ServiceEvent::Rejected {
                    request: 0,
                    class,
                    why: RejectReason::QueueFull,
                    at: t_rej,
                },
            ],
        );
        let obs = obs.finish(step.now);

        let span = |stage: RequestStage| {
            obs.tracer
                .spans()
                .iter()
                .find(|s| s.kind == SpanKind::ServiceRequest { request: 0, stage })
                .unwrap_or_else(|| panic!("{stage:?} span present"))
        };
        let enqueue = span(RequestStage::Enqueue);
        assert_eq!((enqueue.start, enqueue.end), (t_enq, t_rej));
        let reject = span(RequestStage::Reject);
        assert_eq!((reject.start, reject.end), (t_rej, t_rej));
        let root = span(RequestStage::Lifecycle);
        assert_eq!((root.start, root.end), (t_enq, t_rej));

        let tracks = obs.series.tracks();
        let depth: Vec<Nanos> = tracks[0].points.iter().map(|p| p.at).collect();
        assert_eq!(depth, [step.now], "the depth sample is the step's");
    }
}
