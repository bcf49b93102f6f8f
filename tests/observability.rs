//! Integration tests for the fleet observability subsystem: every
//! instrumented crate lands in one sink, blast-radius correlation
//! collapses a FRU failure to a single page, and the JSONL export is
//! byte-identical across same-seed runs.

use lightwave::fabric::instrument::FabricInstruments;
use lightwave::fabric::{FabricController, FabricTarget, OcsFleet};
use lightwave::ocs::instrument::OcsInstruments;
use lightwave::ocs::PortMapping;
use lightwave::superpod::collective_sim::{simulate_torus_all_reduce, Uniform, WithStraggler};
use lightwave::superpod::instrument::detect_stragglers;
use lightwave::superpod::torus::Chip;
use lightwave::superpod::SliceShape;
use lightwave::telemetry::{
    AlarmCause, AlarmRecord, CauseClass, EventKind, FleetTelemetry, Severity,
};
use lightwave::transceiver::instrument::record_negotiation;
use lightwave::transceiver::DspConfig;
use lightwave::units::Nanos;

/// Drives every instrumented crate into one sink, deterministically.
fn full_stack_scenario(seed: u64) -> FleetTelemetry {
    let mut sink = FleetTelemetry::new();

    // fabric + ocs: provision, fail a mirror and a FRU, repair, scrape.
    let mut controller = FabricController::new(OcsFleet::build(2, seed));
    let mut fabric = FabricInstruments::new();
    let mut target = FabricTarget::new();
    for ocs in 0..2u32 {
        let pairs: Vec<(u16, u16)> = (0..16u16).map(|n| (n, n + 64)).collect();
        target.set(ocs, PortMapping::from_pairs(pairs).unwrap());
    }
    let at = controller.now();
    let report = controller.commit(&target).unwrap();
    fabric.record_commit(&mut sink, at, &report);
    controller.advance(Nanos::from_millis(300));
    // The mirror under a live circuit on switch 0 fails. The spare swapped
    // in drifts past the HighLoss threshold, and the loss it reads is the
    // switch as manufactured from `seed`: the seed reaches the export
    // through the Loss incident's root.
    controller
        .fleet
        .get_mut(0)
        .unwrap()
        .fail_mirror(true, 5)
        .unwrap();
    controller.fleet.get_mut(1).unwrap().fail_fru(6).unwrap();
    controller.advance(Nanos::from_millis(50));
    fabric.scrape_fleet(&mut sink, &controller.fleet);
    controller.fleet.get_mut(1).unwrap().replace_fru(6).unwrap();
    controller.advance(Nanos::from_secs_f64(20.0));
    fabric.scrape_fleet(&mut sink, &controller.fleet);
    let now = Nanos::from_secs_f64(20.35);

    // transceiver: a rate fallback.
    record_negotiation(
        &mut sink,
        now,
        200,
        &DspConfig::ml_production(),
        &DspConfig::standards_based(),
    );

    // superpod: straggler detection.
    let shape = SliceShape::new(4, 4, 4).unwrap();
    let healthy = simulate_torus_all_reduce(shape, 64e6, &[0, 1, 2], &Uniform(100e9), 300e-9);
    let bad = WithStraggler {
        base: 100e9,
        chip: Chip { coords: [1, 2, 3] },
        dim: 2,
        derated: 25e9,
    };
    let observed = simulate_torus_all_reduce(shape, 64e6, &[0, 1, 2], &bad, 300e-9);
    detect_stragglers(&mut sink, 0, now, &[0, 1, 2], &healthy, &observed);

    sink
}

#[test]
fn every_instrumented_crate_emits_into_one_sink() {
    let sink = full_stack_scenario(17);
    let incidents = |class: CauseClass| {
        let all = sink.alarms.incidents().iter();
        all.filter(|i| i.class == class).count()
    };
    // ocs: one reconfig event per provisioned switch, an availability SLO
    // object per switch, and the failed mirror's loss incident.
    let reconfigs = sink
        .events
        .recent()
        .filter(|e| e.source == "ocs" && matches!(e.kind, EventKind::Reconfig { added: 16, .. }))
        .count();
    assert_eq!(reconfigs, 2);
    let objects: Vec<String> = sink
        .slo
        .report(Nanos::from_secs_f64(25.0))
        .objects
        .into_iter()
        .map(|o| o.object)
        .collect();
    assert_eq!(objects, ["ocs-0", "ocs-1"]);
    assert_eq!(incidents(CauseClass::Loss), 1);
    // fabric: the provisioning commit.
    assert!(sink.events.recent().any(|e| e.source == "fabric"
        && matches!(
            e.kind,
            EventKind::Commit {
                switches: 2,
                added: 32,
                ..
            }
        )));
    // transceiver: the fallback's event and link incident.
    assert!(sink
        .events
        .recent()
        .any(|e| matches!(e.kind, EventKind::RateFallback { port: 200, .. })));
    assert_eq!(incidents(CauseClass::Link), 1);
    // superpod: the straggler's event and collective incident.
    assert!(sink
        .events
        .recent()
        .any(|e| matches!(e.kind, EventKind::StragglerDetected { dim: 2, .. })));
    assert_eq!(incidents(CauseClass::Collective), 1);
}

#[test]
fn fru_blast_radius_collapses_to_one_page() {
    // A real switch provides the root-cause alarm; the 48 disturbed
    // circuits' symptom alarms arrive as the fleet sees them. The pager
    // fires once.
    let mut sink = FleetTelemetry::new();
    let mut ocs = lightwave::ocs::PalomarOcs::new(3, 99);
    let mut inst = OcsInstruments::new(3);
    ocs.fail_fru(6).unwrap(); // real FRU failure raises the root alarm
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
        sink.events.recent().count() + sink.alarms.incidents().len() + 2
    );
}
