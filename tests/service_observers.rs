//! The service driver's observer seam (DESIGN §6.5): one arrival loop,
//! watched through `Observer`, and the rule that makes that safe —
//! observers see every batch, never touch pod or core, and merge in
//! shard order, so reports are invariant under observation and thread
//! count.
//!
//! 1. **Invariance under observation** (proptest over mix × policy ×
//!    shard size × sampling period × pool width): the report under `()`
//!    equals the report under a `(ScopeCollector, CampusObserver)` pair,
//!    and each observer's output inside the pair is byte-equal to its
//!    output alone at the other pool width.
//! 2. **The oracle** — the two observed arrival loops the seam replaced,
//!    kept here verbatim as hand loops over the public `ServiceCore`
//!    surface: the seam must produce exactly what they produce.
//! 3. **The observers themselves** — what `Lifecycle`, `ScopeCollector`
//!    and `CampusObserver` report about a run, and that the three agree
//!    with each other (exemplar span ids resolve into the lifecycle
//!    trace).
//! 4. **Pinned artifacts** — `tests/vectors/service_seam/` holds the
//!    service, scope and campus documents and the lifecycle trace of one
//!    small run, captured before the seam existed; they must never move.

use lightwave::par::{plan_shards, splitmix, Pool, Shard};
use lightwave::service::{
    arrival, run_cell, run_cell_with, run_sharded, CampusObserver, Lifecycle, Mix, PolicyConfig,
    ScopeCollector, ScopeReport, ServiceConfig, ServiceCore, ServiceReport, CELL_STREAM,
    POD_SCOPE_SWITCH,
};
use lightwave::superpod::Superpod;
use lightwave::trace::validate::validate_chrome_trace;
use lightwave::trace::{to_chrome_trace, RequestStage, SpanKind, SpanRecord};
use lightwave::units::Nanos;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

/// The whole run as one cell (cell 0).
fn whole(cfg: &ServiceConfig) -> Shard {
    Shard {
        index: 0,
        start: 0,
        len: cfg.requests,
    }
}

fn scope_json(scope: &ScopeReport) -> String {
    serde_json::to_string_pretty(&scope.snapshot()).expect("scope snapshot serializes") + "\n"
}

fn campus_json(mut campus: CampusObserver) -> String {
    campus.health_doc().to_json()
}

/// The scope-attributed cell loop as it stood before the seam.
fn hand_cell_scoped(cfg: &ServiceConfig, every: u64, shard: Shard) -> (ServiceReport, ScopeReport) {
    let mut pod = Superpod::new(splitmix(cfg.seed ^ CELL_STREAM, shard.index));
    let mut core = ServiceCore::new(cfg.policy);
    let mut scope = ScopeCollector::new(cfg.seed, every);
    let mut events = Vec::new();
    let mut now = Nanos(0);
    for i in shard.start..shard.start + shard.len {
        let a = arrival(cfg.seed, i, cfg.mix);
        now += cfg.scaled_gap(a.gap_unit_micros);
        core.advance_to(&mut pod, now, &mut events);
        core.submit(&mut pod, &a.intent, &mut events);
        scope.observe(&events);
        events.clear();
    }
    core.drain(&mut pod, &mut events);
    scope.observe(&events);
    (core.report().clone(), scope.finish())
}

/// The campus-observed cell loop as it stood before the seam.
fn hand_cell_campus(cfg: &ServiceConfig, shard: Shard) -> (ServiceReport, CampusObserver) {
    let mut pod = Superpod::new(splitmix(cfg.seed ^ CELL_STREAM, shard.index));
    let mut core = ServiceCore::new(cfg.policy);
    let mut obs = CampusObserver::new();
    let pod_id = shard.index as u32;
    let mut events = Vec::new();
    let mut now = Nanos(0);
    for i in shard.start..shard.start + shard.len {
        let a = arrival(cfg.seed, i, cfg.mix);
        now += cfg.scaled_gap(a.gap_unit_micros);
        core.advance_to(&mut pod, now, &mut events);
        core.submit(&mut pod, &a.intent, &mut events);
        obs.observe(pod_id, &events);
        events.clear();
    }
    core.drain(&mut pod, &mut events);
    obs.observe(pod_id, &events);
    (core.report().clone(), obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reports_are_invariant_under_observation_and_observers_under_company(
        seed in any::<u64>(),
        single_cube in 0u8..2,
        queue_limit in proptest::sample::select(vec![0usize, 3, 256]),
        preemption in 0u8..2,
        shard_size in 40u64..400,
        every in proptest::sample::select(vec![0u64, 1, 3, 16]),
        wide in 0u8..2,
    ) {
        let cfg = ServiceConfig {
            seed,
            requests: 360,
            // Both mixes loaded enough to queue, block and preempt.
            mean_gap: Nanos::from_millis(if single_cube == 1 { 2 } else { 30 }),
            mix: if single_cube == 1 { Mix::SingleCube } else { Mix::Production },
            policy: PolicyConfig { queue_limit, preemption: preemption == 1 },
            shard_size,
        };
        let (pool, other) = if wide == 1 { (4, 1) } else { (1, 4) };
        let (pool, other) = (Pool::new(pool), Pool::new(other));

        let (plain, (), _) = run_sharded(&pool, &cfg, |_| ());
        let (watched, (scope_in, campus_in), _) = run_sharded(&pool, &cfg, |_| {
            (ScopeCollector::new(seed, every), CampusObserver::new())
        });
        prop_assert_eq!(&plain, &watched);

        let (r, scope_alone, _) = run_sharded(&other, &cfg, |_| ScopeCollector::new(seed, every));
        prop_assert_eq!(&plain, &r);
        prop_assert_eq!(scope_json(&scope_in), scope_json(&scope_alone));

        let (r, campus_alone, _) = run_sharded(&other, &cfg, |_| CampusObserver::new());
        prop_assert_eq!(&plain, &r);
        prop_assert_eq!(campus_json(campus_in), campus_json(campus_alone));
    }
}

#[test]
fn the_seam_equals_the_hand_loops_it_replaced() {
    let production = ServiceConfig {
        requests: 700,
        shard_size: 200,
        ..ServiceConfig::default()
    };
    let backlog = ServiceConfig {
        seed: 91,
        requests: 900,
        mean_gap: Nanos(1_500_000),
        mix: Mix::SingleCube,
        shard_size: 300,
        ..ServiceConfig::default()
    };
    for cfg in [production, backlog] {
        let every = 2;
        let mut reports = ServiceReport::default();
        let mut scope = ScopeReport::default();
        let mut campus = CampusObserver::new();
        for shard in plan_shards(cfg.requests, cfg.shard_size) {
            let (report, cell_scope) = hand_cell_scoped(&cfg, every, shard);
            let (same, cell_campus) = hand_cell_campus(&cfg, shard);
            assert_eq!(report, same);
            assert_eq!(report, run_cell(&cfg, shard));
            let seam = run_cell_with(&cfg, shard, ScopeCollector::new(cfg.seed, every));
            assert_eq!(seam.0, report);
            assert_eq!(scope_json(&seam.1), scope_json(&cell_scope));
            reports.merge(&report);
            scope.merge(&cell_scope);
            campus.merge(cell_campus);
        }
        let (report, (seam_scope, seam_campus), _) = run_sharded(&Pool::new(3), &cfg, |_| {
            (ScopeCollector::new(cfg.seed, every), CampusObserver::new())
        });
        assert_eq!(report, reports);
        assert_eq!(scope_json(&seam_scope), scope_json(&scope));
        assert_eq!(campus_json(seam_campus), campus_json(campus));
    }
}

#[test]
fn lifecycle_trace_and_depth_track_validate() {
    let cfg = ServiceConfig {
        requests: 300,
        ..ServiceConfig::default()
    };
    let (report, watched) = run_cell_with(&cfg, whole(&cfg), Lifecycle::new(cfg.seed, 40, 0));
    assert_eq!(report.submitted, 300);
    // Drained and fault-free, so nothing is left queued or running.
    assert_eq!(
        report.submitted,
        report.invalid + report.compose_failed + report.blocked() + report.completed(),
        "requests conserved"
    );
    // The queue-depth counter track and the spans export together.
    let json = to_chrome_trace(
        &watched.tracer,
        &watched.series.tracks(),
        &Default::default(),
    );
    let stats = validate_chrome_trace(&json).expect("valid trace");
    assert!(stats.complete > 0, "lifecycle spans present");
    assert!(stats.counters > 0, "queue depth present");
}

#[test]
fn lifecycle_observation_does_not_perturb_the_cell() {
    let cfg = ServiceConfig {
        requests: 400,
        ..ServiceConfig::default()
    };
    let (report, _) = run_cell_with(&cfg, whole(&cfg), Lifecycle::new(cfg.seed, 25, 0));
    assert_eq!(report, run_cell(&cfg, whole(&cfg)));
}

#[test]
fn scoped_run_attributes_the_lifecycle_and_stays_invariant() {
    let cfg = ServiceConfig {
        requests: 800,
        shard_size: 128,
        ..ServiceConfig::default()
    };
    let one_in_4 = |_| ScopeCollector::new(cfg.seed, 4);
    let (report, scope, _) = run_sharded(&Pool::new(1), &cfg, one_in_4);
    let (report4, scope4, _) = run_sharded(&Pool::new(4), &cfg, one_in_4);
    assert_eq!(report, report4, "service report thread-invariant");
    assert_eq!(
        scope_json(&scope),
        scope_json(&scope4),
        "scope snapshot byte-identical"
    );
    // Scoping never perturbs the policy.
    assert_eq!(report, run_sharded(&Pool::new(2), &cfg, |_| ()).0);
    assert!(scope.sampled > 0, "1-in-4 over 800 requests samples some");
    assert_eq!(scope.inflight, 0, "drained run leaves nothing in flight");
    let completed: u64 = scope.classes.iter().map(|c| c.sampled_completed).sum();
    assert_eq!(completed + scope.rejected, scope.sampled);
    assert!(!scope.critical_paths().is_empty());
    assert!(
        scope.touched_switches.count() > 0,
        "compose commits observed"
    );
    // Sampling off: empty report, same service outcome.
    let (off_report, off_scope, _) =
        run_sharded(&Pool::new(2), &cfg, |_| ScopeCollector::new(cfg.seed, 0));
    assert_eq!(off_report, report);
    assert_eq!(off_scope.sampled, 0);
}

#[test]
fn scope_exemplars_resolve_into_the_lifecycle_trace() {
    let cfg = ServiceConfig {
        requests: 400,
        ..ServiceConfig::default()
    };
    let pair = (
        ScopeCollector::new(cfg.seed, 2),
        Lifecycle::new(cfg.seed, 25, 2),
    );
    let (report, (scope, watched)) = run_cell_with(&cfg, whole(&cfg), pair);
    let (cell_report, cell_scope) = hand_cell_scoped(&cfg, 2, whole(&cfg));
    assert_eq!(report, cell_report, "observation does not perturb policy");
    assert_eq!(
        scope_json(&scope),
        scope_json(&cell_scope),
        "a collector beside the lifecycle observer attributes as it does alone"
    );
    // Every exemplar span id resolves to a root lifecycle span in the
    // trace.
    let spans = scope.exemplar_spans();
    assert!(!spans.is_empty());
    let root_ids: BTreeSet<u64> = watched
        .tracer
        .spans()
        .iter()
        .filter(|s| {
            matches!(
                s.kind,
                SpanKind::ServiceRequest {
                    stage: RequestStage::Lifecycle,
                    ..
                }
            )
        })
        .map(|s| s.id.0)
        .collect();
    for span in &spans {
        assert!(root_ids.contains(span), "exemplar span {span:x} resolves");
    }
    // The annotated export flags exactly those spans.
    let json = to_chrome_trace(&watched.tracer, &[], &spans);
    assert!(json.contains("\"exemplar\":true"));
    validate_chrome_trace(&json).expect("valid trace");
}

/// A traced preemption's `SliceRelease` span carries the cubes the
/// eviction freed: its victim's admitted count, which the victim's
/// `SliceCompose` span carries too.
#[test]
fn a_traced_preemption_frees_its_victims_cubes() {
    let cfg = ServiceConfig {
        requests: 600,
        ..ServiceConfig::default()
    };
    let traced = Lifecycle::new(cfg.seed, cfg.requests, 0);
    let (report, watched) = run_cell_with(&cfg, whole(&cfg), traced);
    let spans = watched.tracer.spans();
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id.0, s)).collect();
    // The cube count of each pod span, by the stage span it hangs under.
    let cubes_under: HashMap<u64, u32> = spans
        .iter()
        .filter_map(|s| match s.kind {
            SpanKind::SliceCompose { cubes, .. } | SpanKind::SliceRelease { cubes, .. } => {
                Some((s.parent?.0, cubes))
            }
            _ => None,
        })
        .collect();
    let mut preempts = 0;
    for s in spans {
        let SpanKind::ServiceRequest {
            request,
            stage: RequestStage::Preempt,
        } = s.kind
        else {
            continue;
        };
        preempts += 1;
        let run = by_id[&s.follows.expect("a preemption follows its run").0];
        let compose = by_id[&run.follows.expect("a run follows its compose").0];
        assert_eq!(
            compose.kind,
            SpanKind::ServiceRequest {
                request,
                stage: RequestStage::Compose
            }
        );
        let admitted = cubes_under[&compose.id.0];
        assert!(admitted > 0, "request {request} composed no cubes");
        assert_eq!(
            cubes_under.get(&s.id.0),
            Some(&admitted),
            "request {request}: the eviction frees what it was admitted with"
        );
    }
    assert_eq!(preempts, report.preempted(), "every preemption is traced");
    assert!(preempts > 0, "the cell preempts");
}

fn campus_cfg() -> ServiceConfig {
    ServiceConfig {
        requests: 800,
        shard_size: 200,
        ..ServiceConfig::default()
    }
}

#[test]
fn campus_run_does_not_perturb_policy() {
    let cfg = campus_cfg();
    let (plain, ..) = run_sharded(&Pool::new(2), &cfg, |_| ());
    let (campus, obs, _) = run_sharded(&Pool::new(2), &cfg, |_| CampusObserver::new());
    assert_eq!(plain, campus);
    assert!(obs.rollup.ingested() > 0, "events were folded");
}

#[test]
fn pods_map_to_shards_and_doc_drills_down() {
    let cfg = campus_cfg();
    let (_, mut obs, _) = run_sharded(&Pool::new(2), &cfg, |_| CampusObserver::new());
    let doc = obs.health_doc();
    assert_eq!(doc.pods.len(), 4, "800/200 = 4 cells = 4 pods");
    let pod0 = doc.pod(0).expect("pod 0 present");
    assert!(
        pod0.node.metric("svc_compose_moves").is_some(),
        "compose activity rolled up"
    );
    assert!(
        doc.switch(0, POD_SCOPE_SWITCH).is_some(),
        "pod-scoped pseudo-switch present"
    );
    assert!(!doc.top_burners(2).is_empty());
}

/// The documents under `tests/vectors/service_seam/` were written by the
/// last commit that still had one forked run loop per observer, for 600
/// default-config requests in cells of 128, 1-in-4 scope sampling and 25
/// traced requests. Any pool width must reproduce them byte for byte.
#[test]
fn pinned_artifacts_do_not_move() {
    let cfg = ServiceConfig {
        requests: 600,
        shard_size: 128,
        ..ServiceConfig::default()
    };
    for threads in [1, 4] {
        let (report, (scope, campus), _) = run_sharded(&Pool::new(threads), &cfg, |_| {
            (ScopeCollector::new(cfg.seed, 4), CampusObserver::new())
        });
        let service =
            serde_json::to_string_pretty(&report.snapshot()).expect("snapshot serializes") + "\n";
        assert!(
            service == include_str!("vectors/service_seam/service_report.json"),
            "service_report.json moved at {threads} thread(s)"
        );
        assert!(
            scope_json(&scope) == include_str!("vectors/service_seam/scope_report.json"),
            "scope_report.json moved at {threads} thread(s)"
        );
        assert!(
            campus_json(campus) == include_str!("vectors/service_seam/campus_health.json"),
            "campus_health.json moved at {threads} thread(s)"
        );
    }
    // The lifecycle trace is one cell's, so no pool is involved.
    let pair = (
        ScopeCollector::new(cfg.seed, 4),
        Lifecycle::new(cfg.seed, 25, 4),
    );
    let (_, (scope, watched)) = run_cell_with(&cfg, whole(&cfg), pair);
    let trace = to_chrome_trace(
        &watched.tracer,
        &watched.series.tracks(),
        &scope.exemplar_spans(),
    );
    assert!(
        trace == include_str!("vectors/service_seam/lifecycle_trace.json"),
        "lifecycle_trace.json moved"
    );
}
