//! Serde round-trips for the data types a control plane persists or ships
//! over the wire: switch configs, telemetry snapshots, plans, reports.
//!
//! The paper's control plane shares "the same software stack ... for both
//! control and in-situ evaluation" (§3.2.2) — every one of these types is
//! something that software would write to a config store or a telemetry
//! pipeline, so their serialized form must survive a round trip intact.

use lightwave::dcn::realize::MeshPlacement;
use lightwave::dcn::te::engineer;
use lightwave::ocs::PortMapping;
use lightwave::prelude::*;
use lightwave::units::Nanos;
use serde::de::DeserializeOwned;
use serde::Serialize;

fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(value: &T) {
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(&back, value, "round trip must be lossless");
}

#[test]
fn unit_types_roundtrip() {
    roundtrip(&Db(3.01));
    roundtrip(&Dbm(-12.5));
    roundtrip(&Ber::new(2e-4));
    roundtrip(&Availability::from_nines(3.0));
    roundtrip(&Nanos::from_millis(25));
    roundtrip(&Gbps(425.0));
}

#[test]
fn link_models_roundtrip() {
    let budget = lightwave::optics::link::LinkBudget::superpod_nominal(Dbm(1.0), 0.2);
    roundtrip(&budget);
    roundtrip(&lightwave::optics::mpi::MpiBudget::from_bidi_link(&budget));
    roundtrip(&lightwave::optics::ber::Pam4Receiver::cwdm4_50g());
    roundtrip(&Transceiver::nominal(ModuleFamily::Cwdm4Bidi));
    roundtrip(&DspConfig::ml_production());
    roundtrip(&LinkDesigner::ml_default().evaluate());
}

#[test]
fn switch_configs_roundtrip() {
    let mapping = PortMapping::from_pairs([(0u16, 5u16), (3, 1), (7, 7)]).unwrap();
    roundtrip(&mapping);
    let mut target = lightwave::fabric::FabricTarget::new();
    target.set(0, mapping);
    roundtrip(&target);
}

#[test]
fn planning_artifacts_roundtrip() {
    roundtrip(&SliceShape::new(8, 16, 32).unwrap());
    roundtrip(&Slice::new(SliceShape::new(8, 4, 4).unwrap(), vec![3, 41]).unwrap());
    // (LlmConfig itself is a static catalog entry with a &'static str
    // name — serializable for telemetry but not re-loadable; the derived
    // planning artifact below is the persisted thing.)
    roundtrip(
        &SliceOptimizer::tpu_v4()
            .optimize(&LlmConfig::llm1(), 4096)
            .unwrap(),
    );
    let tm = TrafficMatrix::hotspot(8, 10.0, 3, 10.0, 1);
    roundtrip(&tm);
    let mesh = engineer(&tm, 14).unwrap();
    roundtrip(&mesh);
    roundtrip(&MeshPlacement::place(&mesh, 14, None).unwrap());
}

#[test]
fn telemetry_and_reports_roundtrip() {
    let census =
        lightwave::transceiver::fleet::fleet_census(&Pool::new(2), 20, ModuleFamily::Cwdm4Bidi, 7);
    roundtrip(&census);
    let mut pod = MlPod::new(1);
    pod.place_model(&LlmConfig::llm0(), 512).unwrap();
    pod.advance(Nanos::from_millis(400));
    roundtrip(&pod.pod.fabric().fleet.health());
    roundtrip(&pod.link_census());
    let planner = DcnPlanner {
        uplinks_per_ab: 16,
        trunk_gbps: 100.0,
    };
    roundtrip(&planner.plan(&TrafficMatrix::uniform(8, 10.0)).unwrap());
    roundtrip(
        &lightwave::dcn::campus::CampusSim::default_campus()
            .run(5, 3)
            .unwrap(),
    );
}

#[test]
fn fleet_telemetry_types_roundtrip() {
    use lightwave::telemetry::{
        AlarmCause, AlarmRecord, Event, EventKind, HistogramSnapshot, Incident, LogHistogram,
        Severity,
    };

    for sev in [Severity::Info, Severity::Warning, Severity::Critical] {
        roundtrip(&sev);
    }
    roundtrip(&AlarmRecord {
        at: Nanos::from_millis(12),
        severity: Severity::Critical,
        switch: 3,
        cause: AlarmCause::HighLoss {
            north: 1,
            south: 65,
            loss_mdb: 4_870,
        },
    });
    roundtrip(&AlarmCause::MirrorFailed {
        north_die: true,
        port: 17,
        spare_used: false,
    });
    roundtrip(&Incident {
        id: 4,
        switch: 1,
        class: lightwave::telemetry::CauseClass::Fru,
        root: AlarmCause::FruFailed { slot: 6 },
        opened_at: Nanos::from_millis(3),
        last_at: Nanos::from_millis(9),
        severity: Severity::Warning,
        occurrences: 3,
        correlated: 48,
        cleared_at: None,
    });
    roundtrip(&Event {
        at: Nanos::from_millis(7),
        source: "ocs-3".into(),
        kind: EventKind::Reconfig {
            switch: 3,
            added: 12,
            removed: 4,
            untouched: 120,
            duration: Nanos::from_millis(15),
        },
    });
    let mut h = LogHistogram::new();
    for v in [1e-12, 0.5, 3.0, 1e9, f64::NAN, -2.0] {
        h.record(v);
    }
    let snap: HistogramSnapshot = h.snapshot();
    roundtrip(&snap);
    assert_eq!(
        snap.restore(),
        Some(h),
        "snapshot restores the exact histogram"
    );
}

#[test]
fn slo_and_jsonl_records_roundtrip() {
    use lightwave::telemetry::{JsonlRecord, SloTracker};
    let mut slo = SloTracker::default();
    slo.observe(Nanos(0), "ocs-0", true);
    slo.observe(Nanos::from_millis(400), "ocs-0", false);
    slo.observe(Nanos::from_millis(900), "ocs-0", true);
    slo.observe(Nanos(0), "ocs-1", true);
    let report = slo.report(Nanos::from_secs_f64(10.0));
    roundtrip(&report);
    roundtrip(&JsonlRecord::Slo { report });
}

/// The commit report below as serde wrote it while its rows were a
/// `Vec<(OcsId, ReconfigSummary)>` (captured on c0bfe79): three switches,
/// three runs.
const ROW_LIST_REPORT: &str = concat!(
    r#"{"per_switch":[[0,{"added":2,"removed":0,"untouched":0,"ready_at":15000000}],"#,
    r#"[1,{"added":1,"removed":0,"untouched":0,"ready_at":15000000}],"#,
    r#"[3,{"added":2,"removed":0,"untouched":0,"ready_at":15000000}]],"#,
    r#""untouched":0,"added":5,"removed":0,"traffic_ready_at":20300000}"#
);

#[test]
fn commit_reports_roundtrip_as_their_row_list() {
    use lightwave::fabric::{CommitReport, FabricController, OcsFleet};
    let mut c = FabricController::new(OcsFleet::build(4, 17));
    let (two, one) = ([(0, 1), (2, 3)], [(5, 6)]);
    let report = c
        .commit_view(
            [(0, &two[..]), (1, &one[..]), (3, &two[..])]
                .map(|(id, add)| (id, add, &[][..]))
                .into_iter(),
        )
        .unwrap();
    roundtrip(&report);
    assert_eq!(serde_json::to_string(&report).unwrap(), ROW_LIST_REPORT);
    let back: CommitReport =
        serde_json::from_str(ROW_LIST_REPORT).expect("the row list reads back");
    assert_eq!(back, report);
    assert_eq!(back.per_switch.get(&1), report.per_switch.get(&1));
    roundtrip(&c.commit_view(std::iter::empty()).unwrap());
    // Rows out of id order are refused: `get` searches them.
    let swapped = ROW_LIST_REPORT.replacen("[0,", "[9,", 1);
    assert!(serde_json::from_str::<CommitReport>(&swapped).is_err());
}
