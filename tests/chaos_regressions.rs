//! Minimal-schedule regressions for the two fault-path bugs the chaos
//! harness surfaced, pinned forever.
//!
//! Both were found as `release-rejected` violations: the control plane
//! refused to free a live slice, which is a capacity leak — once a
//! release fails there is no path that returns those cubes to the pool.

use lightwave::chaos::{run_schedule, run_schedule_world, FaultKind, FaultSchedule};
use lightwave_bench::artifacts::fnv1a64;

/// Bug A's schedule. Two-cube slices: their X rings are optical, so every
/// transaction genuinely touches the down switch's dimension (single-cube
/// slices are all-electrical and would make this vacuous).
fn down_switch_schedule() -> FaultSchedule {
    FaultSchedule {
        seed: 7,
        index: 0,
        events: vec![
            FaultKind::Compose { cubes: 2 },
            // CPU slot dies on switch 5: the chassis is down.
            FaultKind::FailFru { ocs: 5, slot: 14 },
            // Pre-fix: both of these were rejected fabric-wide, and the
            // release rejection fired the release-rejected invariant.
            FaultKind::Compose { cubes: 2 },
            FaultKind::Release { nth: 0 },
            FaultKind::Advance { millis: 150 },
            // The switch revives; resync reconciles its stale mapping
            // (checked by the radix/mapping invariant after the event).
            FaultKind::ReplaceFru { ocs: 5, slot: 14 },
            FaultKind::Advance { millis: 60 },
        ],
    }
}

/// Bug A: a down switch wedged every pod transaction.
///
/// `Superpod::target_for` declared a mapping for all 48 switches, so one
/// chassis-down switch made `FabricController::validate` reject *every*
/// compose and release fabric-wide (`ChassisDown` invalidates the whole
/// transaction). The fix: transactions skip down (and not-yet-reconciled)
/// switches, track them in a `desynced` set, and an anti-entropy
/// `resync()` reconciles each one after it revives.
#[test]
fn down_switch_does_not_wedge_compose_or_release() {
    let s = down_switch_schedule();
    let out = run_schedule(&s, None);
    assert!(out.violation.is_none(), "violation: {:?}", out.violation);
    assert_eq!(out.events_applied as usize, s.events.len());
    assert_eq!(out.composes, 2, "composing around a down switch works");
    assert_eq!(out.releases, 1, "releasing around a down switch works");
    assert_eq!(out.rejected, 0, "nothing was needlessly rejected");
}

/// Bug B: a port that degraded *under* a running circuit wedged the
/// switch.
///
/// Validation dry-ran the per-port usability checks over every pair of
/// the target mapping, including circuits already established before the
/// degradation. One failed HV driver under a live circuit then rejected
/// every later transaction touching that switch — including releases of
/// *other* slices. The fix: only circuits the delta actually
/// (re)establishes are checked; untouched circuits are never re-vetted.
#[test]
fn degraded_port_under_live_circuit_does_not_block_release() {
    let s = FaultSchedule {
        seed: 7,
        index: 1,
        events: vec![
            FaultKind::Compose { cubes: 2 }, // cubes 0,1: X circuits (0,1),(1,0)
            FaultKind::Compose { cubes: 2 }, // cubes 2,3: X circuits (2,3),(3,2)
            FaultKind::Advance { millis: 400 },
            // HV driver 0 on switch 0 fails: ports 0..34 degrade under
            // both live circuits.
            FaultKind::FailFru { ocs: 0, slot: 6 },
            // Pre-fix: releasing slice 0 re-checked the *unchanged*
            // circuit (1,1) against the degraded set and was rejected —
            // the release-rejected invariant fired here.
            FaultKind::Release { nth: 0 },
        ],
    };
    let out = run_schedule(&s, None);
    assert!(out.violation.is_none(), "violation: {:?}", out.violation);
    assert_eq!(out.events_applied as usize, s.events.len());
    assert_eq!(out.composes, 2);
    assert_eq!(out.releases, 1, "release commits despite the degradation");
}

/// Preemption under fault, pinned: service schedule `(1, 5)` drives its
/// arrivals through a pod taking FRU failures (including an FPGA death
/// that downs a chassis), stuck mirrors, and maintenance overlapping
/// reconfiguration — and the admission queue runs hot enough that two
/// lower-priority slices are evicted for higher-priority admissions.
///
/// Every extended invariant must hold throughout: request conservation
/// (`service-conservation`), running-implies-live-slice
/// (`admitted-without-slice`), plus the whole pre-service library. The
/// exact counts pin both the service generator's distribution and the
/// WFQ/preemption policy — a drift in either fails here first.
#[test]
fn preemption_under_fault_stays_invariant_clean() {
    let s = FaultSchedule::generate_service(1, 5);
    let faults = s
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                FaultKind::FailFru { .. }
                    | FaultKind::FailMirror { .. }
                    | FaultKind::Maintenance { .. }
            )
        })
        .count();
    assert!(
        faults >= 10,
        "a genuinely hostile schedule: {faults} faults"
    );
    let (out, w) = run_schedule_world(&s, None);
    assert!(out.violation.is_none(), "violation: {:?}", out.violation);
    assert_eq!(out.events_applied as usize, s.events.len());
    assert_eq!(out.svc_preempted, 2, "both evictions happen, every run");
    assert_eq!(out.svc_admitted, 45);
    assert_eq!(out.svc_completed, 40);
    w.svc.conservation().expect("requests conserved at the end");
    // Replay is byte-identical (the repro contract for service hunts).
    assert_eq!(out, run_schedule(&s, None));
}

/// A chaos world runs no full-target commit: a single-cube compose is a
/// zero-switch transaction, so no switch reconfigures at all. (The pod's
/// shadow flag used to push a no-op 48-switch target through the fabric
/// after every transaction, leaving one reconfiguration on each; the
/// equivalence it checked is invariant (b)'s, from the harness's own
/// slice model.)
#[test]
fn zero_switch_transaction_reconfigures_no_switch() {
    let s = FaultSchedule {
        seed: 7,
        index: 2,
        events: vec![FaultKind::Compose { cubes: 1 }],
    };
    let (out, w) = run_schedule_world(&s, None);
    assert!(out.violation.is_none(), "violation: {:?}", out.violation);
    assert_eq!(out.composes, 1);
    for (id, sw) in w.pod.fabric().fleet.iter() {
        assert_eq!(sw.telemetry().counters.reconfigs, 0, "switch {id}");
    }
    assert_eq!(w.pod.fabric().fleet.iter().count(), 48);
}

/// The traced resync, pinned at `5863c20` (before
/// `record_reconfig_traced` became `record_reconfig` + `trace_reconfig`):
/// a revived switch's reconciliation is the one parentless
/// `ReconfigCommit` span a chaos world draws, with the four-phase chain
/// under it only when circuits were added. Span ids depend on allocation
/// order and the telemetry export on record order, so both exports are
/// held by length and hash — the trace without the `schema` member it has
/// opened with since PR 23, which is all that capture lacks. Service schedule `(1, 19)` is the only one of
/// the first 400 generated schedules that emits such a span (a
/// removal-only resync); the hand-built schedule — bug A's — resyncs
/// switch 5 onto the second slice's ring, which adds circuits. Both
/// telemetry pins are that capture with its `Metric` lines and the
/// header's `metrics` member deleted (the metrics registry is gone).
#[test]
fn traced_resync_matches_the_parent_capture() {
    use lightwave::trace::{to_chrome_trace, Lane, ReconfigPhase, SpanKind, TRACE_SCHEMA};
    type Row = (u64, Lane, u64, u64, SpanKind);
    let check =
        |s: &FaultSchedule, want: &[Row], trace_pin: (usize, u64), jsonl_pin: (usize, u64)| {
            let (out, w) = run_schedule_world(s, None);
            assert!(out.violation.is_none(), "violation: {:?}", out.violation);
            let spans = w.tracer.spans();
            let roots: Vec<_> = spans
                .iter()
                .filter(|s| s.parent.is_none() && matches!(s.kind, SpanKind::ReconfigCommit { .. }))
                .collect();
            assert_eq!(roots.len(), 1, "exactly one traced resync");
            let got: Vec<Row> = spans
                .iter()
                .filter(|s| s.id == roots[0].id || s.parent == Some(roots[0].id))
                .map(|s| (s.id.0, s.lane, s.start.0, s.end.0, s.kind.clone()))
                .collect();
            assert_eq!(got, want);
            let schema = format!("\"schema\":\"{TRACE_SCHEMA}\",");
            let trace =
                to_chrome_trace(&w.tracer, &[], &Default::default()).replacen(&schema, "", 1);
            assert_eq!((trace.len(), fnv1a64(trace.as_bytes())), trace_pin);
            let jsonl = w.telemetry.to_jsonl(w.now());
            assert_eq!((jsonl.len(), fnv1a64(jsonl.as_bytes())), jsonl_pin);
        };

    let removal_only = SpanKind::ReconfigCommit {
        switch: 37,
        added: 0,
        removed: 8,
        untouched: 8,
    };
    check(
        &FaultSchedule::generate_service(1, 19),
        &[(
            16783349912654472242,
            Lane::Switch(37),
            662_000_000,
            662_000_000,
            removal_only,
        )],
        (572_581, 0xc340_10b6_d962_0849),
        (16_345, 0xae7e_c954_4ceb_7a29),
    );

    let phase = |phase| SpanKind::Phase { switch: 5, phase };
    let commit = SpanKind::ReconfigCommit {
        switch: 5,
        added: 2,
        removed: 2,
        untouched: 0,
    };
    let sw = Lane::Switch(5);
    check(
        &down_switch_schedule(),
        &[
            (4397963149417185371, sw, 150_000_000, 165_000_000, commit),
            (
                17378308304626249398,
                sw,
                150_000_000,
                152_250_000,
                phase(ReconfigPhase::Drain),
            ),
            (
                11896298646795932948,
                sw,
                152_250_000,
                159_750_000,
                phase(ReconfigPhase::MirrorSettle),
            ),
            (
                10797147373169344125,
                sw,
                159_750_000,
                163_500_000,
                phase(ReconfigPhase::CameraVerify),
            ),
            (
                14981023839456451274,
                sw,
                163_500_000,
                165_000_000,
                phase(ReconfigPhase::Undrain),
            ),
        ],
        (59_779, 0x45dc_65b4_bec6_2d9f),
        (7_411, 0x1d39_8cb4_9609_d18b),
    );
}
