//! The traced single-cell observer: request-lifecycle spans
//! (`Enqueue → Admit → Compose → Run → Release`, with `Reject`/`Preempt`
//! off the happy path) chained by follows-links, and queue depth as a
//! Perfetto counter track. Per-class counts are the cell's
//! [`ServiceReport`](crate::ServiceReport); admission burn is
//! [`CampusObserver`](crate::CampusObserver)'s ledger.
//!
//! The crate's request fold decodes the events; this module only opens
//! and closes spans, each stamped with the event's own `at`, never with
//! when the batch was handed over. Only the queue-depth sample, a property
//! of the step and not of an event, takes the step's time.

use crate::engine::{Observer, Step};
use crate::fold::{RequestFold, RequestSink, Transition};
use crate::intent::Priority;
use crate::queue::ServiceEvent;
use crate::scope::{scope_sampled, scope_span_id, ScopePhase};
use lightwave_superpod::instrument::{trace_compose, trace_release};
use lightwave_telemetry::{SeriesId, SeriesStore};
use lightwave_trace::{Lane, RequestStage, SpanId, SpanKind, Tracer};
use lightwave_units::Nanos;

/// One cell's lifecycle instruments (see module docs), run with
/// [`run_cell_with`](crate::run_cell_with); finishing hands the observer
/// itself back. Both stores are public: export `tracer` + `series` with
/// [`to_chrome_trace`](lightwave_trace::to_chrome_trace).
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
    fold: RequestFold<Open>,
}

/// The spans of one watched request.
#[derive(Debug, Default)]
pub(crate) struct Open {
    /// Its open root lifecycle span, when scope-sampled: the id is
    /// [`scope_span_id`], so a [`ScopeReport`](crate::ScopeReport) of
    /// the same seed resolves into this trace.
    root: Option<SpanId>,
    /// Its latest stage span, when traced: the next one follows it.
    last: Option<SpanId>,
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
            fold: RequestFold::default(),
        }
    }

    /// Records a stage span over `[at, end]` (left open without `end`),
    /// chained after the request's last.
    fn stage(&mut self, open: &mut Open, kind: SpanKind, at: Nanos, end: Option<Nanos>) -> SpanId {
        let span = self.tracer.begin(Lane::Scheduler, open.root, at, kind);
        if let Some(end) = end {
            self.tracer.end(span, end);
        }
        if let Some(prev) = open.last.replace(span) {
            self.tracer.link_follows(span, prev);
        }
        span
    }

    /// A traced request's stage spans for one transition.
    fn stages(&mut self, request: u64, open: &mut Open, t: Transition<'_>) {
        let kind = |stage| SpanKind::ServiceRequest { request, stage };
        match t {
            Transition::Queued(at) => {
                self.stage(open, kind(RequestStage::Enqueue), at, None);
            }
            Transition::Rejected(at) => {
                self.stage(open, kind(RequestStage::Reject), at, Some(at));
            }
            Transition::Phase(ScopePhase::Admit, at, _, _) => {
                self.stage(open, kind(RequestStage::Admit), at, Some(at));
            }
            Transition::Phase(ScopePhase::Compose, at, ready, commit) => {
                let compose = self.stage(open, kind(RequestStage::Compose), at, Some(ready));
                if let Some((report, cubes)) = commit {
                    trace_compose(&mut self.tracer, Some(compose), 0, at, cubes, report);
                }
                self.stage(open, kind(RequestStage::Run), ready, None);
            }
            Transition::Phase(ScopePhase::Release, at, _, commit) => {
                let release = self.stage(open, kind(RequestStage::Release), at, Some(at));
                if let Some((report, cubes)) = commit {
                    trace_release(&mut self.tracer, Some(release), 0, at, cubes, report);
                }
            }
            // The rest end the request's open enqueue or run span.
            Transition::Phase(phase, _, at, commit) => {
                if let Some(open_span) = open.last {
                    self.tracer.end(open_span, at);
                }
                if phase == ScopePhase::Preempt {
                    let preempt = self.stage(open, kind(RequestStage::Preempt), at, Some(at));
                    if let Some((report, cubes)) = commit {
                        trace_release(&mut self.tracer, Some(preempt), 0, at, cubes, report);
                    }
                }
            }
        }
    }
}

impl RequestSink for Lifecycle {
    type State = Open;

    fn start(&mut self, request: u64, _class: Priority) -> Option<Open> {
        let sampled = scope_sampled(self.seed, request, self.scope_every);
        (request < self.trace_requests || sampled).then(Open::default)
    }

    fn step(&mut self, request: u64, open: &mut Open, t: Transition<'_>) {
        // The root opens first: it is every stage span's parent.
        if let (Transition::Queued(at), None) = (t, open.root) {
            if scope_sampled(self.seed, request, self.scope_every) {
                let id = scope_span_id(self.seed, request);
                let stage = RequestStage::Lifecycle;
                let kind = SpanKind::ServiceRequest { request, stage };
                let root = self
                    .tracer
                    .begin_with_id(id, Lane::Scheduler, None, at, kind);
                open.root = Some(root);
            }
        }
        if request < self.trace_requests {
            self.stages(request, open, t);
        }
        // The lifecycle ends at a rejection, or when the release settles.
        if let Transition::Rejected(end) | Transition::Phase(ScopePhase::Release, _, end, _) = t {
            if let Some(root) = open.root.take() {
                self.tracer.end(root, end);
            }
        }
    }
}

impl Observer for Lifecycle {
    type Output = Lifecycle;

    fn batch(&mut self, step: &Step<'_>, events: &[ServiceEvent]) {
        let mut fold = std::mem::take(&mut self.fold);
        fold.observe(self, events);
        self.fold = fold;
        self.series
            .push(self.depth, step.now, step.core.queue_depth() as f64);
    }

    /// Closes any root lifecycle span whose request never terminated
    /// (possible only under injected faults), in request order: open
    /// spans would otherwise be dropped from the export.
    fn finish(mut self, end: Nanos) -> Lifecycle {
        let mut roots: Vec<(u64, SpanId)> = self
            .fold
            .states()
            .filter_map(|(request, open)| Some((request, open.root?)))
            .collect();
        roots.sort_unstable();
        for (_, root) in roots {
            self.tracer.end(root, end);
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
