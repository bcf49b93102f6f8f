//! `lightwave-scope`: request-level critical-path attribution.
//!
//! An aggregate wait histogram says *that* the tail is slow; this module
//! says *why*. A deterministic sampler picks requests purely from
//! `(seed, request_index)`, and for each sampled request the
//! [`ScopeCollector`] folds the [`ServiceEvent`] stream into an
//! integer sim-time phase breakdown of the whole lifecycle:
//!
//! - **queue_wait** — enqueue (or re-queue after preemption) to
//!   admission, summed over admissions;
//! - **admit** — the admission decision itself. The policy decides at
//!   one sim instant, so this phase is structurally zero today; it is
//!   kept as a phase so any future decision cost shows up attributed,
//!   not silently folded into a neighbour;
//! - **compose** — admission to `traffic_ready_at` of the compose
//!   transaction (fabric reconfiguration + link bring-up);
//! - **hold** — time actually serving;
//! - **release** — the release transaction's settle window;
//! - **preempt** — serving time wasted to evictions (the re-queue wait
//!   lands back in queue_wait).
//!
//! Phases aggregate into per-class × per-phase [`ScopeDist`]s whose
//! histograms carry per-bucket
//! [`Exemplar`](lightwave_telemetry::Exemplar)s, so every reported tail
//! bucket names a concrete request *and* the trace span id of its root
//! lifecycle span. Span ids are pre-derived — [`scope_span_id`] is pure
//! in `(seed, request)` — so a collector names, without a tracer, the
//! span a [`Lifecycle`](crate::Lifecycle) of the same seed opens for
//! that request (see
//! [`Tracer::begin_with_id`](lightwave_trace::Tracer::begin_with_id)).
//! A report resolves in a trace only where both watched the request:
//! the `request_scope` example writes `scope_report.json` and
//! `request_scope_trace.json` from one fully sampled cell under a
//! `(ScopeCollector, Lifecycle)` pair, so every exemplar of that report
//! is a flagged span of that trace — the artifact reader in
//! `lightwave-bench` checks the pair both ways.
//!
//! Everything here obeys the DESIGN §6.7 determinism contract: event-time
//! stamping, integer arithmetic, lattice-join exemplars, shard-order
//! merges — `scope_report.json` is byte-identical at any
//! `LIGHTWAVE_THREADS`. As an [`Observer`] the collector rides
//! [`run_sharded`](crate::run_sharded) and finishes into a
//! [`ScopeReport`].

use crate::engine::{Observer, ShardObserver, Step};
use crate::intent::Priority;
use crate::queue::ServiceEvent;
use lightwave_par::splitmix;
use lightwave_telemetry::{ExemplarHistogram, ExemplarSnapshot};
use lightwave_trace::{derive_span_id, SpanId};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Stream offset separating the scope sampler / span-id stream from the
/// arrival stream and every tracer's counter stream. Root lifecycle span
/// ids derive from `seed ^ SCOPE_STREAM`, so they cannot collide with a
/// tracer's counter-derived ids for the same seed (DESIGN §6.7).
pub const SCOPE_STREAM: u64 = 0x5C09_ED15_C0FE_0001;

/// Whether request `request` is scope-sampled: pure in
/// `(seed, request)`, so every cell, thread and rerun agrees. `every`
/// is the sampling period — `0` disables sampling, `1` samples every
/// request, `n` samples ~1-in-`n` via the splitmix stream (not a simple
/// modulus of the index, so periodic workload structure cannot alias
/// with the sampler).
pub fn scope_sampled(seed: u64, request: u64, every: u64) -> bool {
    match every {
        0 => false,
        1 => true,
        n => splitmix(seed ^ SCOPE_STREAM, request).is_multiple_of(n),
    }
}

/// The root lifecycle span id of a sampled request: pure in
/// `(seed, request)` — a sharded run that never builds a tracer reports
/// the same span id a traced run assigns via
/// [`Tracer::begin_with_id`](lightwave_trace::Tracer::begin_with_id).
pub fn scope_span_id(seed: u64, request: u64) -> SpanId {
    derive_span_id(seed ^ SCOPE_STREAM, request)
}

/// One phase of a request's critical path (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScopePhase {
    /// Waiting in the admission queue (including post-preemption
    /// re-queue waits).
    QueueWait,
    /// The admission decision (structurally zero today — see module
    /// docs).
    Admit,
    /// Compose transaction: fabric reconfiguration + link bring-up.
    Compose,
    /// Serving the hold.
    Hold,
    /// Release transaction settle.
    Release,
    /// Serving time wasted to preemption evictions.
    Preempt,
}

impl ScopePhase {
    /// All phases, lifecycle order. Index = position in every
    /// `phase_nanos` array.
    pub const ALL: [ScopePhase; 6] = [
        ScopePhase::QueueWait,
        ScopePhase::Admit,
        ScopePhase::Compose,
        ScopePhase::Hold,
        ScopePhase::Release,
        ScopePhase::Preempt,
    ];

    /// Stable snake_case name (snapshot key).
    pub fn name(self) -> &'static str {
        match self {
            ScopePhase::QueueWait => "queue_wait",
            ScopePhase::Admit => "admit",
            ScopePhase::Compose => "compose",
            ScopePhase::Hold => "hold",
            ScopePhase::Release => "release",
            ScopePhase::Preempt => "preempt",
        }
    }

    /// Position in [`ScopePhase::ALL`].
    pub fn index(self) -> usize {
        match self {
            ScopePhase::QueueWait => 0,
            ScopePhase::Admit => 1,
            ScopePhase::Compose => 2,
            ScopePhase::Hold => 3,
            ScopePhase::Release => 4,
            ScopePhase::Preempt => 5,
        }
    }
}

/// An exemplar-carrying distribution of raw integer samples (phase
/// nanoseconds, or commit-shape counts). Log histograms cannot bucket
/// zero, so exact-zero samples count separately — merge stays
/// integer-exact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScopeDist {
    /// Exact-zero samples.
    pub zero: u64,
    /// Sum of all samples (raw units, exact).
    pub sum: u128,
    /// Positive samples with per-bucket exemplars.
    pub hist: ExemplarHistogram,
}

impl ScopeDist {
    /// Records one sample; returns whether it is now a retained
    /// exemplar.
    pub fn record(&mut self, value: u64, request: u64, span: u64) -> bool {
        self.sum += value as u128;
        if value == 0 {
            self.zero += 1;
            false
        } else {
            self.hist.record(value as f64, request, span)
        }
    }

    /// Total samples (zeros included).
    pub fn count(&self) -> u64 {
        self.zero + self.hist.count()
    }

    /// Mean sample in raw units.
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count() as f64
    }

    /// Folds another distribution in (exactly associative and
    /// commutative).
    pub fn merge(&mut self, other: &ScopeDist) {
        self.zero += other.zero;
        self.sum += other.sum;
        self.hist.merge(&other.hist);
    }

    /// Serializable view.
    pub fn snapshot(&self) -> DistSnapshot {
        DistSnapshot {
            zero: self.zero,
            sum: self.sum,
            hist: self.hist.snapshot(),
        }
    }
}

/// Serializable [`ScopeDist`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistSnapshot {
    /// See [`ScopeDist::zero`].
    pub zero: u64,
    /// See [`ScopeDist::sum`].
    pub sum: u128,
    /// See [`ScopeDist::hist`].
    pub hist: ExemplarSnapshot,
}

/// Per-class phase attribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClassScope {
    /// Sampled requests of this class that ran to completion.
    pub sampled_completed: u64,
    /// Per-phase nanosecond distributions, indexed by
    /// [`ScopePhase::index`].
    pub phases: [ScopeDist; 6],
    /// End-to-end nanoseconds (sum of phases) per completed request.
    pub total: ScopeDist,
}

impl ClassScope {
    /// Folds another class scope in.
    pub fn merge(&mut self, other: &ClassScope) {
        self.sampled_completed += other.sampled_completed;
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        self.total.merge(&other.total);
    }
}

/// The retained full timeline of one sampled request — kept only while
/// the request is an exemplar of its class's total-latency histogram, so
/// memory stays O(buckets) however many requests are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeTimeline {
    /// Request index.
    pub request: u64,
    /// Its class.
    pub class: Priority,
    /// Root lifecycle span id ([`scope_span_id`]).
    pub span: u64,
    /// Nanoseconds per phase, indexed by [`ScopePhase::index`].
    pub phase_nanos: [u64; 6],
    /// Sum of `phase_nanos`.
    pub total_nanos: u64,
    /// Admissions (>1 means the request was re-admitted after
    /// preemption).
    pub admissions: u32,
    /// Preemption evictions suffered.
    pub preemptions: u32,
    /// Switches touched across this request's compose commits.
    pub touched_switches: u64,
    /// Circuit pairs added + removed across its compose commits.
    pub delta_pairs: u64,
}

/// One row of the critical-path report: which phase dominates the
/// request exemplifying quantile `q` of a class's end-to-end latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPath {
    /// Priority class.
    pub class: Priority,
    /// The quantile, in per-mille (500 / 990 / 999).
    pub quantile_permille: u32,
    /// The exemplar request.
    pub request: u64,
    /// Its root lifecycle span id.
    pub span: u64,
    /// Its end-to-end nanoseconds.
    pub total_nanos: u64,
    /// Each phase's share of the total, in per-mille, indexed by
    /// [`ScopePhase::index`] (integer division — shares can sum < 1000).
    pub shares_permille: [u64; 6],
    /// The largest phase (ties break to the earlier lifecycle phase).
    pub dominant: ScopePhase,
}

/// The quantiles [`ScopeReport::critical_paths`] reports, in per-mille.
pub const CRITICAL_QUANTILES_PERMILLE: [u32; 3] = [500, 990, 999];

/// Completions between collector garbage-collection sweeps of displaced
/// exemplar timelines.
const GC_PERIOD: u64 = 1024;

/// The merged outcome of scope attribution: per-class phase
/// distributions, commit-shape distributions, and exemplar timelines.
/// Merges in shard order like [`ServiceReport`](crate::ServiceReport);
/// the snapshot is byte-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScopeReport {
    /// The sampling period the run used (0 = off, 1 = every request).
    pub every: u64,
    /// Sampled requests observed (enqueued or rejected at validation).
    pub sampled: u64,
    /// Sampled requests that terminated rejected (invalid, queue-full,
    /// or fabric-refused).
    pub rejected: u64,
    /// Sampled requests still in flight when the report was taken
    /// (0 after a drained run).
    pub inflight: u64,
    /// Per-class attribution, indexed by [`Priority::rank`].
    pub classes: [ClassScope; 3],
    /// Switches touched per sampled compose commit.
    pub touched_switches: ScopeDist,
    /// Circuit pairs added per sampled compose commit.
    pub pairs_added: ScopeDist,
    /// Circuit pairs removed per sampled compose commit.
    pub pairs_removed: ScopeDist,
    /// Exemplar timelines, keyed by request (see [`ScopeTimeline`]).
    pub timelines: BTreeMap<u64, ScopeTimeline>,
}

impl ScopeReport {
    /// Folds another cell's report in (then drops timelines the merged
    /// exemplar set no longer names). Associative in value; merge in
    /// shard order for byte-stable snapshots.
    pub fn merge(&mut self, other: &ScopeReport) {
        debug_assert!(
            self.every == other.every || self.sampled == 0 || other.sampled == 0,
            "merging scope reports with different sampling periods"
        );
        self.every = self.every.max(other.every);
        self.sampled += other.sampled;
        self.rejected += other.rejected;
        self.inflight += other.inflight;
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.merge(theirs);
        }
        self.touched_switches.merge(&other.touched_switches);
        self.pairs_added.merge(&other.pairs_added);
        self.pairs_removed.merge(&other.pairs_removed);
        for (&request, tl) in &other.timelines {
            self.timelines.insert(request, *tl);
        }
        self.gc();
    }

    /// Drops timelines whose request is no longer an exemplar of any
    /// class's total-latency histogram. A displaced exemplar can never
    /// return (joins only replace), so the retained set is a pure
    /// function of the merged histograms — GC timing cannot change the
    /// final report.
    pub fn gc(&mut self) {
        let mut keep = BTreeSet::new();
        for c in &self.classes {
            c.total.hist.exemplar_requests(&mut keep);
        }
        self.timelines.retain(|request, _| keep.contains(request));
    }

    /// Every retained exemplar span id across all distributions — the
    /// set to pass to
    /// [`to_chrome_trace_annotated`](lightwave_trace::to_chrome_trace_annotated)
    /// so exemplar spans are flagged in the export.
    pub fn exemplar_spans(&self) -> BTreeSet<u64> {
        let mut spans = BTreeSet::new();
        for c in &self.classes {
            for p in &c.phases {
                p.hist.exemplar_spans(&mut spans);
            }
            c.total.hist.exemplar_spans(&mut spans);
        }
        self.touched_switches.hist.exemplar_spans(&mut spans);
        self.pairs_added.hist.exemplar_spans(&mut spans);
        self.pairs_removed.hist.exemplar_spans(&mut spans);
        spans
    }

    /// The critical-path rows: for each class and each quantile in
    /// [`CRITICAL_QUANTILES_PERMILLE`], the exemplar request of that
    /// quantile's total-latency bucket, broken down by phase share.
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        let mut rows = Vec::new();
        for &class in &Priority::ALL {
            let c = &self.classes[class.rank()];
            for q in CRITICAL_QUANTILES_PERMILLE {
                let Some(e) = c.total.hist.quantile_exemplar(q as f64 / 1000.0) else {
                    continue;
                };
                // Exemplars of the total hist are exactly the retained
                // timeline set; a miss would be a GC bug.
                let Some(tl) = self.timelines.get(&e.request) else {
                    continue;
                };
                let total = tl.total_nanos.max(1);
                let mut shares = [0u64; 6];
                for (s, &p) in shares.iter_mut().zip(&tl.phase_nanos) {
                    *s = p.saturating_mul(1000) / total;
                }
                let dominant = ScopePhase::ALL
                    .into_iter()
                    .max_by_key(|p| (tl.phase_nanos[p.index()], usize::MAX - p.index()))
                    .expect("six phases");
                rows.push(CriticalPath {
                    class,
                    quantile_permille: q,
                    request: e.request,
                    span: e.span,
                    total_nanos: tl.total_nanos,
                    shares_permille: shares,
                    dominant,
                });
            }
        }
        rows
    }

    /// Serializable form ([`SCOPE_SCHEMA`]). Span ids render
    /// as zero-padded hex strings — JSON numbers above 2^53 lose
    /// precision in browser tooling.
    pub fn snapshot(&self) -> ScopeSnapshot {
        ScopeSnapshot {
            schema: SCOPE_SCHEMA.to_string(),
            every: self.every,
            sampled: self.sampled,
            rejected: self.rejected,
            inflight: self.inflight,
            classes: Priority::ALL
                .iter()
                .map(|&p| {
                    let c = &self.classes[p.rank()];
                    ClassScopeSnapshot {
                        class: p.name().to_string(),
                        sampled_completed: c.sampled_completed,
                        phases: ScopePhase::ALL
                            .iter()
                            .map(|&ph| PhaseSnapshot {
                                phase: ph.name().to_string(),
                                dist: c.phases[ph.index()].snapshot(),
                            })
                            .collect(),
                        total_nanos: c.total.snapshot(),
                    }
                })
                .collect(),
            touched_switches: self.touched_switches.snapshot(),
            pairs_added: self.pairs_added.snapshot(),
            pairs_removed: self.pairs_removed.snapshot(),
            critical_paths: self
                .critical_paths()
                .into_iter()
                .map(|cp| CriticalPathSnapshot {
                    class: cp.class.name().to_string(),
                    quantile_permille: cp.quantile_permille,
                    request: cp.request,
                    span: format!("{:016x}", cp.span),
                    total_nanos: cp.total_nanos,
                    shares_permille: cp.shares_permille.to_vec(),
                    dominant: cp.dominant.name().to_string(),
                })
                .collect(),
            timelines: self
                .timelines
                .values()
                .map(|tl| TimelineSnapshot {
                    request: tl.request,
                    class: tl.class.name().to_string(),
                    span: format!("{:016x}", tl.span),
                    phase_nanos: tl.phase_nanos.to_vec(),
                    total_nanos: tl.total_nanos,
                    admissions: tl.admissions,
                    preemptions: tl.preemptions,
                    touched_switches: tl.touched_switches,
                    delta_pairs: tl.delta_pairs,
                })
                .collect(),
        }
    }

    /// A deterministic human-readable critical-path summary — the
    /// "p99 of training is 73% compose, 22% queue wait" view.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scope: 1-in-{} sampling — {} sampled, {} rejected, {} in flight, {} exemplar timeline(s)\n",
            self.every.max(1),
            self.sampled,
            self.rejected,
            self.inflight,
            self.timelines.len(),
        ));
        let mut rows = self.critical_paths();
        rows.sort_by_key(|r| (r.class.rank(), r.quantile_permille));
        for r in rows {
            let mut shares: Vec<(u64, ScopePhase)> = ScopePhase::ALL
                .iter()
                .map(|&p| (r.shares_permille[p.index()], p))
                .filter(|&(s, _)| s > 0)
                .collect();
            shares.sort_by_key(|&(s, p)| (u64::MAX - s, p.index()));
            let breakdown: Vec<String> = shares
                .iter()
                .map(|(s, p)| format!("{} {}.{}%", p.name(), s / 10, s % 10))
                .collect();
            out.push_str(&format!(
                "  {:<12} p{:<4} total {:>10.3} ms = {} (request {}, span {:016x})\n",
                r.class.name(),
                format_permille(r.quantile_permille),
                r.total_nanos as f64 / 1e6,
                breakdown.join(" + "),
                r.request,
                r.span,
            ));
        }
        if self.touched_switches.count() > 0 {
            out.push_str(&format!(
                "  commits: {:.1} switches, +{:.1}/-{:.1} pairs per sampled compose (mean)\n",
                self.touched_switches.mean(),
                self.pairs_added.mean(),
                self.pairs_removed.mean(),
            ));
        }
        out
    }
}

fn format_permille(q: u32) -> String {
    if q.is_multiple_of(10) {
        format!("{}", q / 10)
    } else {
        format!("{}.{}", q / 10, q % 10)
    }
}

/// The `schema` member `scope_report.json` opens with.
pub const SCOPE_SCHEMA: &str = "lightwave/scope/v1";

/// Serializable [`ScopeReport`] — the `scope_report.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeSnapshot {
    /// [`SCOPE_SCHEMA`].
    pub schema: String,
    /// See [`ScopeReport::every`].
    pub every: u64,
    /// See [`ScopeReport::sampled`].
    pub sampled: u64,
    /// See [`ScopeReport::rejected`].
    pub rejected: u64,
    /// See [`ScopeReport::inflight`].
    pub inflight: u64,
    /// Per-class attribution, highest precedence first.
    pub classes: Vec<ClassScopeSnapshot>,
    /// See [`ScopeReport::touched_switches`].
    pub touched_switches: DistSnapshot,
    /// See [`ScopeReport::pairs_added`].
    pub pairs_added: DistSnapshot,
    /// See [`ScopeReport::pairs_removed`].
    pub pairs_removed: DistSnapshot,
    /// See [`ScopeReport::critical_paths`].
    pub critical_paths: Vec<CriticalPathSnapshot>,
    /// Retained exemplar timelines, ascending by request.
    pub timelines: Vec<TimelineSnapshot>,
}

/// One class of a [`ScopeSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassScopeSnapshot {
    /// Class name.
    pub class: String,
    /// See [`ClassScope::sampled_completed`].
    pub sampled_completed: u64,
    /// Per-phase distributions, lifecycle order.
    pub phases: Vec<PhaseSnapshot>,
    /// See [`ClassScope::total`].
    pub total_nanos: DistSnapshot,
}

/// One phase distribution of a [`ClassScopeSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Phase name ([`ScopePhase::name`]).
    pub phase: String,
    /// Nanosecond distribution.
    pub dist: DistSnapshot,
}

/// One row of [`ScopeSnapshot::critical_paths`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPathSnapshot {
    /// Class name.
    pub class: String,
    /// See [`CriticalPath::quantile_permille`].
    pub quantile_permille: u32,
    /// See [`CriticalPath::request`].
    pub request: u64,
    /// Root span id, zero-padded hex.
    pub span: String,
    /// See [`CriticalPath::total_nanos`].
    pub total_nanos: u64,
    /// See [`CriticalPath::shares_permille`].
    pub shares_permille: Vec<u64>,
    /// Dominant phase name.
    pub dominant: String,
}

/// One retained timeline of a [`ScopeSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineSnapshot {
    /// See [`ScopeTimeline::request`].
    pub request: u64,
    /// Class name.
    pub class: String,
    /// Root span id, zero-padded hex.
    pub span: String,
    /// See [`ScopeTimeline::phase_nanos`].
    pub phase_nanos: Vec<u64>,
    /// See [`ScopeTimeline::total_nanos`].
    pub total_nanos: u64,
    /// See [`ScopeTimeline::admissions`].
    pub admissions: u32,
    /// See [`ScopeTimeline::preemptions`].
    pub preemptions: u32,
    /// See [`ScopeTimeline::touched_switches`].
    pub touched_switches: u64,
    /// See [`ScopeTimeline::delta_pairs`].
    pub delta_pairs: u64,
}

/// In-flight state of one sampled request.
#[derive(Debug, Clone, Copy)]
struct LiveScope {
    class: Priority,
    span: u64,
    serving_from: Nanos,
    phase_nanos: [u64; 6],
    admissions: u32,
    preemptions: u32,
    touched_switches: u64,
    delta_pairs: u64,
}

/// Folds a cell's [`ServiceEvent`] stream into a [`ScopeReport`].
///
/// Attribution is event-time stamped: every duration derives from the
/// `at` fields the core emitted, never from when the collector ran —
/// the rule that makes the report thread-count invariant (DESIGN §6.7).
#[derive(Debug, Clone)]
pub struct ScopeCollector {
    seed: u64,
    every: u64,
    live: BTreeMap<u64, LiveScope>,
    report: ScopeReport,
    since_gc: u64,
}

impl ScopeCollector {
    /// A collector sampling 1-in-`every` of `seed`'s arrival stream.
    pub fn new(seed: u64, every: u64) -> ScopeCollector {
        ScopeCollector {
            seed,
            every,
            live: BTreeMap::new(),
            report: ScopeReport {
                every,
                ..ScopeReport::default()
            },
            since_gc: 0,
        }
    }

    /// Whether this collector samples `request` (see [`scope_sampled`]).
    pub fn sampled(&self, request: u64) -> bool {
        scope_sampled(self.seed, request, self.every)
    }

    /// Folds one batch of events in. Call with every batch the core
    /// emits, before the caller clears it.
    pub fn observe(&mut self, events: &[ServiceEvent]) {
        if self.every == 0 {
            return;
        }
        for ev in events {
            match ev {
                ServiceEvent::Enqueued { request, class, .. } => {
                    if !self.sampled(*request) || self.live.contains_key(request) {
                        continue;
                    }
                    self.report.sampled += 1;
                    self.live.insert(
                        *request,
                        LiveScope {
                            class: *class,
                            span: scope_span_id(self.seed, *request).0,
                            serving_from: Nanos(0),
                            phase_nanos: [0; 6],
                            admissions: 0,
                            preemptions: 0,
                            touched_switches: 0,
                            delta_pairs: 0,
                        },
                    );
                }
                ServiceEvent::Rejected { request, .. } => {
                    if !self.sampled(*request) {
                        continue;
                    }
                    if self.live.remove(request).is_none() {
                        // Invalid intents reject before enqueueing:
                        // still a sampled observation.
                        self.report.sampled += 1;
                    }
                    self.report.rejected += 1;
                }
                ServiceEvent::Admitted {
                    request,
                    at,
                    waited,
                    report,
                    ..
                } => {
                    let Some(l) = self.live.get_mut(request) else {
                        continue;
                    };
                    l.admissions += 1;
                    l.phase_nanos[ScopePhase::QueueWait.index()] += waited.0;
                    // The admission decision happens at one sim instant
                    // — Admit stays 0 (recorded as an exact zero at
                    // completion, not dropped).
                    let serving = report.traffic_ready_at.max(*at);
                    l.phase_nanos[ScopePhase::Compose.index()] += serving.saturating_sub(*at).0;
                    l.serving_from = serving;
                    let touched = report.per_switch.len() as u64;
                    l.touched_switches += touched;
                    l.delta_pairs += (report.added + report.removed) as u64;
                    let (req, span) = (*request, l.span);
                    self.report.touched_switches.record(touched, req, span);
                    self.report
                        .pairs_added
                        .record(report.added as u64, req, span);
                    self.report
                        .pairs_removed
                        .record(report.removed as u64, req, span);
                }
                ServiceEvent::Preempted { request, at, .. } => {
                    let Some(l) = self.live.get_mut(request) else {
                        continue;
                    };
                    l.preemptions += 1;
                    l.phase_nanos[ScopePhase::Preempt.index()] +=
                        at.saturating_sub(l.serving_from).0;
                }
                ServiceEvent::Completed {
                    request,
                    at,
                    report,
                    ..
                } => {
                    let Some(mut l) = self.live.remove(request) else {
                        continue;
                    };
                    l.phase_nanos[ScopePhase::Hold.index()] += at.saturating_sub(l.serving_from).0;
                    l.phase_nanos[ScopePhase::Release.index()] +=
                        report.traffic_ready_at.saturating_sub(*at).0;
                    self.complete(*request, l);
                }
            }
        }
    }

    fn complete(&mut self, request: u64, l: LiveScope) {
        let total: u64 = l.phase_nanos.iter().sum();
        let c = &mut self.report.classes[l.class.rank()];
        c.sampled_completed += 1;
        for (i, &p) in l.phase_nanos.iter().enumerate() {
            c.phases[i].record(p, request, l.span);
        }
        let keep = c.total.record(total, request, l.span);
        if keep {
            self.report.timelines.insert(
                request,
                ScopeTimeline {
                    request,
                    class: l.class,
                    span: l.span,
                    phase_nanos: l.phase_nanos,
                    total_nanos: total,
                    admissions: l.admissions,
                    preemptions: l.preemptions,
                    touched_switches: l.touched_switches,
                    delta_pairs: l.delta_pairs,
                },
            );
        }
        self.since_gc += 1;
        if self.since_gc >= GC_PERIOD {
            self.report.gc();
            self.since_gc = 0;
        }
    }

    /// Finishes the cell: in-flight sampled requests become `inflight`,
    /// displaced timelines are dropped, and the report is returned.
    pub fn finish(mut self) -> ScopeReport {
        self.report.inflight += self.live.len() as u64;
        self.report.gc();
        self.report
    }
}

impl Observer for ScopeCollector {
    type Output = ScopeReport;

    fn batch(&mut self, _step: &Step<'_>, events: &[ServiceEvent]) {
        self.observe(events);
    }

    fn finish(self, _end: Nanos) -> ScopeReport {
        ScopeCollector::finish(self)
    }
}

impl ShardObserver for ScopeCollector {
    fn merge(into: &mut ScopeReport, later: ScopeReport) {
        into.merge(&later);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_pure_and_respects_the_period() {
        for every in [0u64, 1, 2, 64] {
            for request in 0..512u64 {
                assert_eq!(
                    scope_sampled(7, request, every),
                    scope_sampled(7, request, every),
                    "pure in (seed, request, every)"
                );
            }
        }
        assert!(!(0..512).any(|r| scope_sampled(7, r, 0)), "0 disables");
        assert!((0..512).all(|r| scope_sampled(7, r, 1)), "1 samples all");
        let hits = (0..4096u64).filter(|&r| scope_sampled(7, r, 64)).count();
        assert!(
            (16..=128).contains(&hits),
            "1-in-64 over 4096 draws: got {hits}"
        );
        // Different seeds pick different requests.
        let a: Vec<u64> = (0..4096).filter(|&r| scope_sampled(1, r, 64)).collect();
        let b: Vec<u64> = (0..4096).filter(|&r| scope_sampled(2, r, 64)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn span_ids_avoid_the_tracer_counter_stream() {
        let mut tracer_ids = BTreeSet::new();
        for counter in 0..4096u64 {
            tracer_ids.insert(derive_span_id(7, counter).0);
        }
        for request in 0..4096u64 {
            assert!(
                !tracer_ids.contains(&scope_span_id(7, request).0),
                "scope ids live on a distinct stream"
            );
        }
    }

    fn sample_class() -> (ClassScope, BTreeMap<u64, ScopeTimeline>) {
        // Hand-built completions: request 0 is queue-dominated, request
        // 1..=8 are hold-dominated, request 9 is a compose-heavy tail.
        let mut c = ClassScope::default();
        let mut timelines = BTreeMap::new();
        let mut complete = |request: u64, phases: [u64; 6]| {
            let total: u64 = phases.iter().sum();
            for (i, &p) in phases.iter().enumerate() {
                c.phases[i].record(p, request, request + 100);
            }
            if c.total.record(total, request, request + 100) {
                timelines.insert(
                    request,
                    ScopeTimeline {
                        request,
                        class: Priority::Training,
                        span: request + 100,
                        phase_nanos: phases,
                        total_nanos: total,
                        admissions: 1,
                        preemptions: 0,
                        touched_switches: 3,
                        delta_pairs: 12,
                    },
                );
            }
            c.sampled_completed += 1;
        };
        complete(0, [2_900_000, 0, 20_000, 70_000, 10_000, 0]);
        for r in 1..=8 {
            complete(r, [0, 0, 30_000, 800_000, 20_000, 0]);
        }
        complete(9, [100_000, 0, 9_000_000, 800_000, 20_000, 0]);
        (c, timelines)
    }

    #[test]
    fn critical_paths_name_the_dominant_phase() {
        let (c, timelines) = sample_class();
        let report = ScopeReport {
            every: 1,
            sampled: 10,
            classes: [ClassScope::default(), c, ClassScope::default()],
            timelines,
            ..ScopeReport::default()
        };
        let rows = report.critical_paths();
        let row = |q: u32| {
            rows.iter()
                .find(|r| r.class == Priority::Training && r.quantile_permille == q)
                .expect("row present")
        };
        assert_eq!(row(500).dominant, ScopePhase::Hold, "p50 is hold-bound");
        assert_eq!(
            row(999).dominant,
            ScopePhase::Compose,
            "tail is compose-bound"
        );
        assert_eq!(row(999).request, 9);
        let tail = row(999);
        assert!(
            tail.shares_permille[ScopePhase::Compose.index()] > 800,
            "compose share dominates the tail: {:?}",
            tail.shares_permille
        );
        let text = report.render();
        assert!(text.contains("compose"), "render names the phase: {text}");
        assert!(text.contains("p99.9"), "render names the quantile");
    }

    #[test]
    fn merge_matches_single_stream_and_gc_is_timing_free() {
        // Split the same completions across two reports in both orders:
        // merged snapshots are identical, and equal to one stream.
        let build = |which: u8| {
            let mut col = [
                ScopeCollector::new(3, 1),
                ScopeCollector::new(3, 1),
                ScopeCollector::new(3, 1),
            ];
            for r in 0..40u64 {
                let phases = [r * 1000, 0, (r % 7) * 50_000, 1_000_000 + r * r * 999, 0, 0];
                let l = LiveScope {
                    class: Priority::Inference,
                    span: scope_span_id(3, r).0,
                    serving_from: Nanos(0),
                    phase_nanos: phases,
                    admissions: 1,
                    preemptions: 0,
                    touched_switches: 2,
                    delta_pairs: 8,
                };
                let target = match which {
                    0 => 0,
                    _ => 1 + (r % 2) as usize,
                };
                col[target].report.sampled += 1;
                col[target].complete(r, l);
            }
            col
        };
        let [whole, _, _] = build(0);
        let [_, a, b] = build(1);
        let whole = whole.finish();
        let (a, b) = (a.finish(), b.finish());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        let json = |r: &ScopeReport| serde_json::to_string(&r.snapshot()).expect("serializes");
        assert_eq!(json(&ab), json(&ba), "merge commutes");
        assert_eq!(json(&ab), json(&whole), "merge equals single stream");
        // Every retained timeline is an exemplar, and vice versa.
        let mut keep = BTreeSet::new();
        ab.classes[0].total.hist.exemplar_requests(&mut keep);
        assert_eq!(
            ab.timelines.keys().copied().collect::<BTreeSet<_>>(),
            keep,
            "timeline set == exemplar set"
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (c, timelines) = sample_class();
        let report = ScopeReport {
            every: 8,
            sampled: 10,
            classes: [ClassScope::default(), c, ClassScope::default()],
            timelines,
            ..ScopeReport::default()
        };
        let snap = report.snapshot();
        assert_eq!(snap.schema, SCOPE_SCHEMA);
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: ScopeSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.classes.len(), 3);
        assert_eq!(back.classes[1].phases.len(), 6);
        assert!(!back.critical_paths.is_empty());
        assert!(!back.timelines.is_empty());
    }
}
