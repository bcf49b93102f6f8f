//! The span collector: deterministic ids, explicit parenting, sim-time
//! stamps.

use crate::span::{InstantRecord, Lane, ReconfigPhase, SpanId, SpanKind, SpanRecord};
use lightwave_units::Nanos;

/// Derives the id for allocation `counter` of a tracer seeded with `seed`:
/// the parallel engine's shard-seed mix [`lightwave_par::splitmix`], that
/// is `splitmix64(seed ^ splitmix64(counter))`. Pure — same seed, same id
/// sequence, no wall clock, no addresses.
pub fn derive_span_id(seed: u64, counter: u64) -> SpanId {
    SpanId(lightwave_par::splitmix(seed, counter))
}

struct OpenSpan {
    record: SpanRecord,
}

/// A deterministic span collector.
///
/// Ids come off a seeded counter ([`derive_span_id`]); timestamps are
/// caller-supplied sim-time [`Nanos`]. The tracer is plain `&mut` state —
/// no thread-locals, no interior mutability — so a seeded run produces a
/// byte-identical trace at any worker count (DESIGN.md §6.2).
///
/// Completed spans are stored in *completion order* (children before
/// parents for nested spans), which is also the flight recorder's replay
/// order.
pub struct Tracer {
    seed: u64,
    next: u64,
    open: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("seed", &self.seed)
            .field("allocated", &self.next)
            .field("open", &self.open.len())
            .field("done", &self.done.len())
            .field("instants", &self.instants.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer whose id stream derives from `seed`.
    pub fn new(seed: u64) -> Tracer {
        Tracer {
            seed,
            next: 0,
            open: Vec::new(),
            done: Vec::new(),
            instants: Vec::new(),
        }
    }

    /// The tracer's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn next_id(&mut self) -> SpanId {
        let id = derive_span_id(self.seed, self.next);
        self.next += 1;
        id
    }

    /// Opens a span at sim-time `start`. The span stays open (and out of
    /// [`Tracer::spans`]) until [`Tracer::end`].
    pub fn begin(
        &mut self,
        lane: Lane,
        parent: Option<SpanId>,
        start: Nanos,
        kind: SpanKind,
    ) -> SpanId {
        let id = self.next_id();
        self.begin_with_id(id, lane, parent, start, kind)
    }

    /// Opens a span whose id the *caller* derived (pure in its own
    /// inputs) instead of drawing from the tracer's counter stream —
    /// the hook the scope profiler uses so a request's root span id can
    /// be predicted by sharded, tracer-less runs
    /// (`scope_span_id(seed, request)`) and still resolve in a traced
    /// run's export. The counter stream is not advanced. The caller is
    /// responsible for id uniqueness: callers must derive from a stream
    /// offset distinct from this tracer's seed (DESIGN §6.7).
    pub fn begin_with_id(
        &mut self,
        id: SpanId,
        lane: Lane,
        parent: Option<SpanId>,
        start: Nanos,
        kind: SpanKind,
    ) -> SpanId {
        self.open.push(OpenSpan {
            record: SpanRecord {
                id,
                parent,
                follows: None,
                lane,
                start,
                end: start,
                kind,
            },
        });
        id
    }

    /// Closes an open span at sim-time `end`.
    ///
    /// # Panics
    /// Panics if `id` is not an open span (double-end or never begun) —
    /// a tracing bug the determinism tests should surface, not mask.
    pub fn end(&mut self, id: SpanId, end: Nanos) {
        let idx = self
            .open
            .iter()
            .position(|o| o.record.id == id)
            .expect("end() on a span that is not open");
        let mut record = self.open.remove(idx).record;
        record.end = record.start.max(end);
        self.done.push(record);
    }

    /// Records a complete span in one call — the common retrospective
    /// case, where instrumentation already holds a report with both the
    /// issue time and the ready time.
    pub fn span(
        &mut self,
        lane: Lane,
        parent: Option<SpanId>,
        start: Nanos,
        end: Nanos,
        kind: SpanKind,
    ) -> SpanId {
        let id = self.begin(lane, parent, start, kind);
        self.end(id, end);
        id
    }

    /// Marks `id` (open or completed) as causally following `after`,
    /// rendered as a flow arrow in Perfetto. Unknown ids are ignored.
    pub fn link_follows(&mut self, id: SpanId, after: SpanId) {
        if let Some(o) = self.open.iter_mut().find(|o| o.record.id == id) {
            o.record.follows = Some(after);
            return;
        }
        if let Some(r) = self.done.iter_mut().rev().find(|r| r.id == id) {
            r.follows = Some(after);
        }
    }

    /// Records an instant mark on `lane`.
    pub fn instant(&mut self, lane: Lane, at: Nanos, name: &str) {
        self.instants.push(InstantRecord {
            lane,
            at,
            name: name.to_string(),
        });
    }

    /// Completed spans, in completion order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.done
    }

    /// Instant marks, in record order.
    pub fn instants(&self) -> &[InstantRecord] {
        &self.instants
    }

    /// Every lane any span or instant has rendered on, deduplicated and
    /// in lane order.
    pub fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = self
            .done
            .iter()
            .map(|s| s.lane)
            .chain(self.open.iter().map(|o| o.record.lane))
            .chain(self.instants.iter().map(|i| i.lane))
            .collect();
        lanes.sort();
        lanes.dedup();
        lanes
    }
}

/// Synthesizes the four per-phase child spans of one switch
/// reconfiguration, partitioning `[started, ready]` by each phase's
/// `ReconfigPhase::share_permille` (integer arithmetic, last phase
/// absorbing the rounding remainder). Consecutive phases are linked
/// follows-from, so the drain → settle → verify → undrain causal chain
/// renders as flow arrows. Returns the phase span ids in causal order.
pub fn reconfig_phase_spans(
    tracer: &mut Tracer,
    parent: SpanId,
    switch: u32,
    started: Nanos,
    ready: Nanos,
) -> [SpanId; 4] {
    let total = ready.saturating_sub(started).0;
    let mut ids = [SpanId(0); 4];
    let mut cursor = started;
    let mut prev: Option<SpanId> = None;
    for (i, phase) in ReconfigPhase::ALL.into_iter().enumerate() {
        let end = if i + 1 == ReconfigPhase::ALL.len() {
            ready
        } else {
            let len = total * phase.share_permille() / 1000;
            Nanos(cursor.0 + len)
        };
        let id = tracer.span(
            Lane::Switch(switch),
            Some(parent),
            cursor,
            end,
            SpanKind::Phase { switch, phase },
        );
        if let Some(p) = prev {
            tracer.link_follows(id, p);
        }
        prev = Some(id);
        ids[i] = id;
        cursor = end;
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_and_distinct() {
        let mut a = Tracer::new(42);
        let mut b = Tracer::new(42);
        let mut c = Tracer::new(43);
        for _ in 0..64 {
            let ia = a.span(Lane::Control, None, Nanos(0), Nanos(1), kind());
            let ib = b.span(Lane::Control, None, Nanos(0), Nanos(1), kind());
            let ic = c.span(Lane::Control, None, Nanos(0), Nanos(1), kind());
            assert_eq!(ia, ib, "same seed, same id stream");
            assert_ne!(ia, ic, "different seeds diverge");
        }
        let ids: std::collections::BTreeSet<_> = a.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 64, "no collisions in the stream");
    }

    fn kind() -> SpanKind {
        SpanKind::Custom {
            name: "t".to_string(),
        }
    }

    #[test]
    fn begin_end_nests_and_completes_children_first() {
        let mut t = Tracer::new(1);
        let outer = t.begin(Lane::Control, None, Nanos(0), kind());
        let inner = t.span(Lane::Control, Some(outer), Nanos(1), Nanos(2), kind());
        assert_eq!(t.open.len(), 1);
        t.end(outer, Nanos(5));
        assert!(t.open.is_empty());
        assert_eq!(t.spans()[0].id, inner, "children complete first");
        assert_eq!(t.spans()[1].id, outer);
        assert_eq!(t.spans()[0].parent, Some(outer));
    }

    #[test]
    #[should_panic(expected = "not open")]
    fn double_end_panics() {
        let mut t = Tracer::new(1);
        let id = t.begin(Lane::Control, None, Nanos(0), kind());
        t.end(id, Nanos(1));
        t.end(id, Nanos(2));
    }

    #[test]
    fn end_clamps_to_start() {
        let mut t = Tracer::new(1);
        let id = t.begin(Lane::Control, None, Nanos(10), kind());
        t.end(id, Nanos(4));
        assert_eq!(t.spans()[0].end, Nanos(10), "no negative durations");
    }

    #[test]
    fn phase_spans_partition_the_window_and_chain() {
        let mut t = Tracer::new(7);
        let parent = t.span(
            Lane::Switch(3),
            None,
            Nanos(1000),
            Nanos(2000),
            SpanKind::ReconfigCommit {
                switch: 3,
                added: 2,
                removed: 1,
                untouched: 10,
            },
        );
        let ids = reconfig_phase_spans(&mut t, parent, 3, Nanos(1000), Nanos(2000));
        let phases: Vec<&SpanRecord> = ids
            .iter()
            .map(|id| t.spans().iter().find(|s| s.id == *id).expect("recorded"))
            .collect();
        // Contiguous partition of [1000, 2000].
        assert_eq!(phases[0].start, Nanos(1000));
        assert_eq!(phases[3].end, Nanos(2000));
        for w in phases.windows(2) {
            assert_eq!(w[0].end, w[1].start, "phases are contiguous");
            assert_eq!(w[1].follows, Some(w[0].id), "causal chain linked");
        }
        for p in &phases {
            assert_eq!(p.parent, Some(parent));
        }
        // Shares: drain 15%, settle 50%, verify 25%, undrain remainder.
        assert_eq!(phases[0].end.0 - phases[0].start.0, 150);
        assert_eq!(phases[1].end.0 - phases[1].start.0, 500);
        assert_eq!(phases[2].end.0 - phases[2].start.0, 250);
    }

    #[test]
    fn lanes_are_deduplicated_and_ordered() {
        let mut t = Tracer::new(2);
        t.span(Lane::Worker(1), None, Nanos(0), Nanos(1), kind());
        t.span(Lane::Control, None, Nanos(0), Nanos(1), kind());
        t.span(Lane::Worker(1), None, Nanos(1), Nanos(2), kind());
        t.instant(Lane::Switch(0), Nanos(0), "mark");
        assert_eq!(
            t.lanes(),
            vec![Lane::Control, Lane::Switch(0), Lane::Worker(1)]
        );
    }
}
