//! Determinism contract of the scope attribution layer (DESIGN §6.7).
//!
//! The scope report is an *observability* artifact, but it obeys the
//! same contract as the service report itself: every number in
//! `scope_report.json` — sampling decisions, span ids, histogram
//! buckets, exemplars, retained timelines, critical paths — is a pure
//! function of `(seed, config)`, independent of thread count, merge
//! order, and sharding. Four claims:
//!
//! 1. **Sampling purity** — `scope_sampled` and `scope_span_id` depend
//!    only on `(seed, request)` (proptest), and the span stream is
//!    disjoint from the tracer's counter stream.
//! 2. **Merge-order invariance** — exemplar histograms are lattice
//!    joins: merging in any order yields identical state, and the
//!    exemplar tie-break (larger value, then smaller request) is total.
//! 3. **Thread-count invariance** — `run_sharded` under one
//!    `ScopeCollector` per cell: snapshot JSON is byte-identical at 1 vs
//!    4 threads.
//! 4. **Self-consistency** — critical paths exist for every class that
//!    completed work, their exemplar requests all have retained
//!    timelines, and phase nanos sum to the timeline total.

use lightwave::par::Pool;
use lightwave::service::{
    run_sharded, scope_sampled, scope_span_id, ScopeCollector, ScopePhase, ServiceConfig,
};
use lightwave::telemetry::ExemplarHistogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sampling decision is pure in `(seed, request, every)` —
    /// recomputing it anywhere (any shard, any thread) agrees.
    #[test]
    fn sampling_is_pure(seed in any::<u64>(), request in any::<u64>(), every in 0u64..2048) {
        let a = scope_sampled(seed, request, every);
        let b = scope_sampled(seed, request, every);
        prop_assert_eq!(a, b);
        // Degenerate rates short-circuit.
        prop_assert!(!scope_sampled(seed, request, 0));
        prop_assert!(scope_sampled(seed, request, 1));
        // Span ids are pure too, and never the zero sentinel.
        prop_assert_eq!(scope_span_id(seed, request), scope_span_id(seed, request));
        prop_assert_ne!(scope_span_id(seed, request).0, 0);
    }

    /// A 1-in-n sampler keeps roughly 1/n of a long index range — the
    /// decision must not degenerate (all or nothing) on any seed.
    #[test]
    fn sampling_rate_tracks_the_period(seed in any::<u64>()) {
        let n = 4096u64;
        let hits = (0..n).filter(|&i| scope_sampled(seed, i, 64)).count() as f64;
        let expect = n as f64 / 64.0;
        prop_assert!(hits > expect * 0.3 && hits < expect * 3.0,
            "1-in-64 sampler kept {hits} of {n}");
    }

    /// Exemplar histograms are lattice joins: any merge order (and any
    /// grouping) of the same records yields identical state, so sharded
    /// scope reports cannot depend on which worker folded what.
    #[test]
    fn exemplar_merge_is_order_invariant(
        values in proptest::collection::vec((1u64..1_000_000, any::<u64>()), 1..40),
        cut in 0usize..40,
    ) {
        let cut = cut.min(values.len());
        let mut whole = ExemplarHistogram::new();
        for &(v, req) in &values {
            whole.record(v as f64, req, req ^ 0xABCD);
        }
        // Split, fold halves independently, merge both ways.
        let mut left = ExemplarHistogram::new();
        let mut right = ExemplarHistogram::new();
        for &(v, req) in &values[..cut] {
            left.record(v as f64, req, req ^ 0xABCD);
        }
        for &(v, req) in &values[cut..] {
            right.record(v as f64, req, req ^ 0xABCD);
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        prop_assert_eq!(lr.snapshot(), whole.snapshot());
        prop_assert_eq!(rl.snapshot(), whole.snapshot());
    }

    /// The exemplar tie-break is total: equal values keep the smaller
    /// request id, so duplicate measurements can never make the retained
    /// exemplar depend on arrival order.
    #[test]
    fn exemplar_tie_break_prefers_the_smaller_request(
        v in 1u64..1_000_000, a in any::<u64>(), b in any::<u64>(),
    ) {
        let mut ab = ExemplarHistogram::new();
        ab.record(v as f64, a, 1);
        ab.record(v as f64, b, 2);
        let mut ba = ExemplarHistogram::new();
        ba.record(v as f64, b, 2);
        ba.record(v as f64, a, 1);
        prop_assert_eq!(ab.snapshot(), ba.snapshot());
        let q = ab.quantile_exemplar(0.5).expect("non-empty");
        prop_assert_eq!(q.request, a.min(b));
    }
}

/// The headline artifact check: `scope_report.json` is byte-identical
/// at 1 vs 4 threads, and every claim it makes is self-consistent.
#[test]
fn scope_report_is_thread_invariant_and_self_consistent() {
    let cfg = ServiceConfig {
        requests: 2_000,
        shard_size: 256,
        ..ServiceConfig::default()
    };
    let one_in_8 = |_| ScopeCollector::new(cfg.seed, 8);
    let (r1, s1, _) = run_sharded(&Pool::new(1), &cfg, one_in_8);
    let (r4, s4, _) = run_sharded(&Pool::new(4), &cfg, one_in_8);
    assert_eq!(r1, r4, "service report is thread-invariant");
    let j1 = serde_json::to_string_pretty(&s1.snapshot()).expect("json");
    let j4 = serde_json::to_string_pretty(&s4.snapshot()).expect("json");
    assert_eq!(j1, j4, "scope snapshot JSON is byte-identical");

    // Attribution accounting closes: everything sampled either finished,
    // was rejected, or was still in flight at drain.
    let completed: u64 = s1.classes.iter().map(|c| c.sampled_completed).sum();
    assert_eq!(completed + s1.rejected + s1.inflight, s1.sampled);
    assert!(s1.sampled > 0, "1-in-8 sampling of 2000 requests hits");

    // Critical paths cover every class that completed sampled work, and
    // each one's exemplar request has a retained timeline whose phases
    // sum to its total.
    let paths = s1.critical_paths();
    for (rank, c) in s1.classes.iter().enumerate() {
        if c.sampled_completed > 0 {
            assert!(
                paths.iter().any(|p| p.class.rank() == rank),
                "class rank {rank} has critical paths"
            );
        }
    }
    for p in &paths {
        let tl = s1
            .timelines
            .get(&p.request)
            .expect("critical-path exemplar has a retained timeline");
        assert_eq!(tl.span, p.span, "timeline and exemplar agree on span");
        assert_eq!(
            tl.phase_nanos.iter().sum::<u64>(),
            tl.total_nanos,
            "phases partition the lifecycle"
        );
        assert_eq!(tl.phase_nanos[p.dominant.index()], {
            let m = *tl.phase_nanos.iter().max().expect("six phases");
            m
        });
    }

    // Every exemplar anywhere in the report carries a resolvable span id
    // — the deterministic one derived from (seed, request).
    for (&request, tl) in &s1.timelines {
        assert_eq!(
            tl.span,
            scope_span_id(cfg.seed, request).0,
            "timeline spans come from the scope stream"
        );
    }

    // The six phases are stable identifiers (snapshot schema contract).
    let names: Vec<&str> = ScopePhase::ALL.iter().map(|p| p.name()).collect();
    assert_eq!(
        names,
        [
            "queue_wait",
            "admit",
            "compose",
            "hold",
            "release",
            "preempt"
        ]
    );
}
