//! Integration tests for the campus observability plane (DESIGN §6.9):
//! the hierarchical rollup tree is exactly the flat sum under any
//! partition and ingest order, `campus_health.json` is byte-identical
//! at any thread count, burn-rate pages coalesce without escalating,
//! and the burn counter tracks pass the in-repo trace validator.

use lightwave::par::Pool;
use lightwave::service::{run_sharded, CampusObserver, ServiceConfig, POD_SCOPE_SWITCH};
use lightwave::telemetry::rollup::{Aggregate, CampusHealthDoc, PortPath, RollupTree};
use lightwave::telemetry::timeseries::SeriesStore;
use lightwave::telemetry::{
    AlarmCause, BurnRateLedger, FleetTelemetry, IngestOutcome, Severity, TrendSignal,
};
use lightwave::trace::validate::validate_chrome_trace;
use lightwave::trace::{to_chrome_trace_with_counters, Tracer};
use lightwave::units::Nanos;
use proptest::prelude::*;

/// One synthetic sample: (metric, path, value).
type Row = (u8, (u8, u8, u8), i32);

fn ingest_rows(tree: &mut RollupTree, rows: &[Row]) {
    for &(m, (pod, sw, port), v) in rows {
        let metric = tree.metric(&format!("m{}", m % 3));
        tree.ingest(
            metric,
            PortPath::new(pod as u32, sw as u32, port as u32),
            Nanos(1 + v.unsigned_abs() as u64),
            v as f64,
        );
    }
}

proptest! {
    /// Hierarchical totals == the flat sum over leaves, for every
    /// metric, under an arbitrary ingest order.
    #[test]
    fn rollup_totals_equal_flat_sum(rows in proptest::collection::vec(
        ((0u8..3), ((0u8..4), (0u8..4), (0u8..6)), -500i32..500), 1..120)) {
        let mut tree = RollupTree::new();
        ingest_rows(&mut tree, &rows);
        tree.scrape();
        tree.check_consistency().expect("hierarchy consistent");
        for m in 0..3u8 {
            let name = format!("m{m}");
            let metric = tree.metric(&name);
            let campus = tree.campus_agg(metric);
            let mut flat = Aggregate::EMPTY;
            for pod in tree.pod_ids() {
                for sw in tree.switch_ids(pod) {
                    flat = flat.merge(tree.switch_agg(pod, sw, metric));
                }
            }
            prop_assert_eq!(campus, flat);
        }
    }

    /// Any two-way partition of the sample stream, each half ingested
    /// into its own tree and merged, equals the single-tree result —
    /// the property the sharded cell merge relies on.
    #[test]
    fn rollup_merge_is_partition_invariant(
        rows in proptest::collection::vec(
            ((0u8..3), ((0u8..4), (0u8..4), (0u8..6)), -500i32..500), 1..120),
        mask in proptest::collection::vec(any::<bool>(), 120)) {
        let mut whole = RollupTree::new();
        ingest_rows(&mut whole, &rows);
        whole.scrape();

        let (mut left, mut right) = (RollupTree::new(), RollupTree::new());
        let a: Vec<Row> = rows.iter().zip(&mask).filter(|(_, &m)| m).map(|(r, _)| *r).collect();
        let b: Vec<Row> = rows.iter().zip(&mask).filter(|(_, &m)| !m).map(|(r, _)| *r).collect();
        ingest_rows(&mut left, &a);
        ingest_rows(&mut right, &b);
        left.merge(right);
        left.scrape();
        left.check_consistency().expect("merged hierarchy consistent");

        for m in 0..3u8 {
            let name = format!("m{m}");
            let (mw, ml) = (whole.metric(&name), left.metric(&name));
            prop_assert_eq!(whole.campus_agg(mw), left.campus_agg(ml));
            for pod in whole.pod_ids() {
                prop_assert_eq!(whole.pod_agg(pod, mw), left.pod_agg(pod, ml));
            }
        }
    }
}

#[test]
fn campus_health_json_is_thread_count_invariant() {
    let cfg = ServiceConfig {
        requests: 6_000,
        shard_size: 1_024,
        ..ServiceConfig::default()
    };
    let (r1, mut o1, _) = run_sharded(&Pool::new(1), &cfg, |_| CampusObserver::new());
    let (r4, mut o4, _) = run_sharded(&Pool::new(4), &cfg, |_| CampusObserver::new());
    assert_eq!(r1, r4, "policy outcome is thread-count invariant");
    let d1 = o1.health_doc().to_json();
    let d4 = o4.health_doc().to_json();
    assert_eq!(
        d1, d4,
        "campus_health.json byte-identical at 1 vs 4 threads"
    );

    let doc = CampusHealthDoc::from_json(&d1).expect("snapshot parses");
    assert_eq!(doc.to_json(), d1, "parse → serialize round-trips");
    assert!(!doc.pods.is_empty());
    assert!(
        doc.switch(0, POD_SCOPE_SWITCH).is_some(),
        "pod-scoped service metrics present"
    );
    o1.rollup.check_consistency().expect("rollup consistent");
}

#[test]
fn burn_pages_coalesce_without_escalating() {
    // Ten separate breach episodes: each pages the ledger once, and the
    // aggregator coalesces the repeats into ONE Warning incident — the
    // non-escalating Trend contract (an occurrence storm of burn alerts
    // must not manufacture a Critical).
    let mut sink = FleetTelemetry::new();
    let mut ledger = BurnRateLedger::default();
    let mut pages = 0u64;
    let mut t = Nanos(0);
    ledger.observe(t, 0, true);
    for _ in 0..10 {
        // 20 s outage: >10x burn on both windows at default policy.
        let down = t + Nanos::from_secs_f64(10.0);
        let up = down + Nanos::from_secs_f64(20.0);
        ledger.observe(down, 0, false);
        ledger.observe(up, 0, true);
        let fired = ledger.poll(&mut sink, up);
        pages += fired.len() as u64;
        // Drain past the slow window so the next episode re-pages.
        t = up + Nanos::from_secs_f64(4_000.0);
        let cleared = ledger.poll(&mut sink, t);
        assert!(cleared.is_empty(), "recovery never pages");
    }
    assert!(pages >= 10, "each breach episode pages the pod");
    let trend: Vec<_> = sink
        .alarms
        .incidents()
        .iter()
        .filter(|i| {
            matches!(
                i.root,
                AlarmCause::TrendAnomaly {
                    signal: TrendSignal::ErrorBudgetBurn,
                    ..
                }
            ) && i.switch == 0
        })
        .collect();
    assert!(!trend.is_empty(), "burn alerts filed as trend incidents");
    for i in trend {
        assert_eq!(
            i.severity,
            Severity::Warning,
            "trend incidents never self-escalate to Critical"
        );
    }
}

#[test]
fn direct_trend_repeats_coalesce() {
    let mut sink = FleetTelemetry::new();
    let rec = |at| lightwave::telemetry::AlarmRecord {
        at,
        severity: Severity::Warning,
        switch: 9,
        cause: AlarmCause::TrendAnomaly {
            signal: TrendSignal::ErrorBudgetBurn,
            port: 0,
        },
    };
    assert!(matches!(
        sink.ingest_alarm(rec(Nanos(1_000))),
        IngestOutcome::Paged { .. }
    ));
    for k in 0..50u64 {
        let out = sink.ingest_alarm(rec(Nanos(2_000 + k)));
        assert!(
            matches!(out, IngestOutcome::Coalesced { .. }),
            "repeat {k} must coalesce, got {out:?}"
        );
    }
}

#[test]
fn burn_counter_tracks_pass_the_trace_validator() {
    let mut store = SeriesStore::default();
    let mut ledger = BurnRateLedger::default();
    ledger.observe(Nanos(0), 0, true);
    ledger.observe(Nanos(0), 1, true);
    ledger.observe(Nanos::from_secs_f64(50.0), 1, false);
    ledger.observe(Nanos::from_secs_f64(65.0), 1, true);
    for s in [10.0f64, 60.0, 70.0, 400.0] {
        ledger.record_series(&mut store, Nanos::from_secs_f64(s));
    }
    let tracks = store.tracks();
    for want in [
        "slo_burn_fast_milli",
        "slo_burn_slow_milli",
        "slo_budget_remaining_milli",
    ] {
        assert!(
            tracks.iter().any(|t| t.name.contains(want)),
            "burn series {want} exported as a counter track"
        );
    }

    let trace = to_chrome_trace_with_counters(&Tracer::new(3), &store.tracks());
    let stats = validate_chrome_trace(&trace).expect("validator accepts burn counter tracks");
    assert!(stats.counters > 0, "counter samples exported");
}
