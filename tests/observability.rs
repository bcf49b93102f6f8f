//! Integration tests for the fleet observability subsystem: every
//! instrumented crate lands in one sink, blast-radius correlation
//! collapses a FRU failure to a single page, and the JSONL export is
//! byte-identical across same-seed runs.

use lightwave::fabric::instrument::FabricInstruments;
use lightwave::fabric::{FabricController, FabricTarget, OcsFleet};
use lightwave::ocs::instrument::OcsInstruments;
use lightwave::ocs::PortMapping;
use lightwave::par::Pool;
use lightwave::scheduler::instrument::SchedulerInstruments;
use lightwave::scheduler::sim::{default_mix, ClusterSim};
use lightwave::scheduler::Pooled;
use lightwave::superpod::collective_sim::{simulate_torus_all_reduce, Uniform, WithStraggler};
use lightwave::superpod::instrument::CollectiveInstruments;
use lightwave::superpod::torus::Chip;
use lightwave::superpod::SliceShape;
use lightwave::telemetry::{AlarmCause, AlarmRecord, FleetTelemetry, Severity};
use lightwave::transceiver::instrument::XcvrInstruments;
use lightwave::transceiver::{fleet::fleet_census, DspConfig, ModuleFamily};
use lightwave::units::Nanos;

/// Drives every instrumented crate into one sink, deterministically.
fn full_stack_scenario(seed: u64) -> FleetTelemetry {
    let mut sink = FleetTelemetry::new();

    // fabric + ocs: provision, fail, repair, scrape.
    let mut controller = FabricController::new(OcsFleet::build(2, seed));
    let mut fabric = FabricInstruments::register(&mut sink);
    let mut target = FabricTarget::new();
    for ocs in 0..2u32 {
        let pairs: Vec<(u16, u16)> = (0..16u16).map(|n| (n, n + 64)).collect();
        target.set(ocs, PortMapping::from_pairs(pairs).unwrap());
    }
    let at = controller.now();
    let report = controller.commit(&target).unwrap();
    fabric.record_commit(&mut sink, at, &report);
    controller.advance(Nanos::from_millis(300));
    controller.fleet.get_mut(1).unwrap().fail_fru(6);
    controller.advance(Nanos::from_millis(50));
    fabric.scrape_fleet(&mut sink, &controller.fleet);
    controller.fleet.get_mut(1).unwrap().replace_fru(6);
    controller.advance(Nanos::from_secs_f64(20.0));
    fabric.scrape_fleet(&mut sink, &controller.fleet);
    let now = Nanos::from_secs_f64(20.35);

    // transceiver: census + a rate fallback.
    let mut xcvr = XcvrInstruments::register(&mut sink, "cwdm4");
    let census = fleet_census(&Pool::new(2), 60, ModuleFamily::Cwdm4Bidi, seed);
    xcvr.record_census(&mut sink, now, &census);
    xcvr.record_negotiation(
        &mut sink,
        now,
        200,
        &DspConfig::ml_production(),
        &DspConfig::standards_based(),
    );

    // scheduler: one pooled run.
    let sim = ClusterSim::new(default_mix(), 0.25);
    let mut sched = SchedulerInstruments::register(&mut sink, "pooled");
    sched.record_run(&mut sink, now, &sim.run(&Pooled, 100.0, seed));

    // superpod: straggler detection.
    let mut pod = CollectiveInstruments::register(&mut sink, 0);
    let shape = SliceShape::new(4, 4, 4).unwrap();
    let healthy = simulate_torus_all_reduce(shape, 64e6, &[0, 1, 2], &Uniform(100e9), 300e-9);
    let bad = WithStraggler {
        base: 100e9,
        chip: Chip { coords: [1, 2, 3] },
        dim: 2,
        derated: 25e9,
    };
    let observed = simulate_torus_all_reduce(shape, 64e6, &[0, 1, 2], &bad, 300e-9);
    pod.record_collective(&mut sink, now, &observed);
    pod.detect_stragglers(&mut sink, now, &[0, 1, 2], &healthy, &observed);

    sink
}

#[test]
fn all_five_crates_emit_into_one_sink() {
    let sink = full_stack_scenario(17);
    // Each instrumented crate registers metrics under its own prefix.
    for prefix in ["ocs_", "xcvr_", "fabric_", "sched_", "pod_"] {
        assert!(
            sink.metrics
                .iter()
                .any(|(key, _, _)| key.name.starts_with(prefix)),
            "no metrics with prefix {prefix}"
        );
    }
    // And every store saw traffic.
    assert!(sink.metrics.len() > 20);
    assert!(sink.events.published() > 0);
    assert!(sink.alarms.ingested() > 0);
    assert!(!sink.slo.is_empty());
}

#[test]
fn fru_blast_radius_collapses_to_one_page() {
    // A real switch provides the root-cause alarm; the 48 disturbed
    // circuits' symptom alarms arrive as the fleet sees them. The pager
    // fires once.
    let mut sink = FleetTelemetry::new();
    let mut ocs = lightwave::ocs::PalomarOcs::new(3, 99);
    let mut inst = OcsInstruments::register(&mut sink, 3);
    ocs.fail_fru(6); // real FRU failure raises the root alarm
    inst.forward_alarms(&mut sink, &ocs);
    assert_eq!(sink.alarms.pages(), 1, "the root cause pages");
    for port in 0..48u16 {
        sink.ingest_alarm(AlarmRecord {
            at: Nanos::from_millis(1 + port as u64),
            severity: Severity::Warning,
            switch: 3,
            cause: AlarmCause::AlignmentTimeout { north: port },
        });
    }
    assert_eq!(
        sink.alarms.pages(),
        1,
        "48 symptom alarms must not page again"
    );
    assert_eq!(sink.alarms.suppressed(), 48);
    let incident = sink.alarms.open_incidents().next().unwrap();
    assert_eq!(incident.correlated, 48);
    // A different switch's symptom is NOT absorbed — it pages on its own.
    sink.ingest_alarm(AlarmRecord {
        at: Nanos::from_millis(60),
        severity: Severity::Warning,
        switch: 4,
        cause: AlarmCause::AlignmentTimeout { north: 0 },
    });
    assert_eq!(sink.alarms.pages(), 2);
}

#[test]
fn jsonl_export_is_byte_identical_across_same_seed_runs() {
    let now = Nanos::from_secs_f64(25.0);
    let a = full_stack_scenario(17).to_jsonl(now);
    let b = full_stack_scenario(17).to_jsonl(now);
    assert_eq!(a, b, "same seed must export byte-identical JSONL");
    let c = full_stack_scenario(18).to_jsonl(now);
    assert_ne!(a, c, "different seeds genuinely differ");
    // And the dashboard is deterministic too.
    assert_eq!(
        full_stack_scenario(17).dashboard(now),
        full_stack_scenario(17).dashboard(now)
    );
}

#[test]
fn jsonl_lines_parse_back_as_records() {
    let sink = full_stack_scenario(17);
    let jsonl = sink.to_jsonl(Nanos::from_secs_f64(25.0));
    let mut metas = 0;
    for line in jsonl.lines() {
        let rec: lightwave::telemetry::JsonlRecord =
            serde_json::from_str(line).expect("every line parses");
        if matches!(rec, lightwave::telemetry::JsonlRecord::Meta { .. }) {
            metas += 1;
        }
    }
    assert_eq!(metas, 1, "exactly one header line");
    assert_eq!(
        jsonl.lines().count(),
        sink.metrics.len() + sink.events.recent().count() + sink.alarms.incidents().len() + 2
    );
}
