//! Model parameters are public fields, so a value a model cannot run on is
//! an argument somebody can pass (ROADMAP 2a): each is refused by name, as
//! an `Err`, in both build profiles — CI runs this file in `--release` too.
//! At the parent of PR 24 the first of these did not return and the others
//! panicked, as the inner-code waterfall did on its three before it
//! checked its inputs at entry.
//!
//! A `Slice` has public fields too. `Superpod::compose` refuses every
//! slice `Slice::new` would, naming the first offender; before it did,
//! two of the four below panicked and two were accepted.
//!
//! The spine-free DCN model takes its inputs the same way: a campus, a
//! planner, a placement and a mesh are public fields, and a mesh or a
//! demand matrix can be read from a document. Each bad one below is an
//! `Err`. Before, the one-cluster campus never returned and the others
//! panicked, the documents on first use.
//!
//! A fault names a port or a chassis slot, and the switch is the one that
//! knows which it has: each of its four fault calls refuses what the
//! switch lacks before it changes anything. Before they did, the two
//! mirror faults panicked on a port past the radix and the two FRU calls
//! indexed the chassis out of bounds.
//!
//! A Reed–Solomon code read from a document is the one `ReedSolomon::new`
//! builds for its `(n, k)`, or it is refused. Before, an odd `n − k` and a
//! generator that is not the code's were both accepted.

use lightwave::availability::timeline::{simulate, simulate_preempt, PreemptParams};
use lightwave::dcn::campus::CampusSim;
use lightwave::dcn::realize::{DcnFabricError, MeshPlacement, RealizeError, TrunkLeg};
use lightwave::dcn::te::{engineer, TeError};
use lightwave::dcn::{DcnFabric, Mesh, TrafficMatrix};
use lightwave::fec::{ConcatenatedCode, InnerDecoding, ReedSolomon};
use lightwave::ocs::{CrossbarError, OcsError, PalomarOcs, PortId};
use lightwave::superpod::slice::{ShapeError, SliceError};
use lightwave::superpod::{CubeId, CubeSet, PodError, Slice, SliceHandle, SliceShape, Superpod};
use lightwave::units::Ber;
use lightwave::DcnPlanner;
use serde::de::DeserializeOwned;

fn year_with(edit: impl FnOnce(&mut PreemptParams)) -> PreemptParams {
    let mut params = PreemptParams::production_year();
    edit(&mut params);
    params
}

/// Every entry point that reads `field` refuses `params` for it.
fn assert_refused(params: PreemptParams, field: &str) {
    let by_simulate = simulate(&params.base, 1).map(drop);
    let by_preempt = simulate_preempt(&params, 1).map(drop);
    if !["detector_recall", "drain_secs", "emergency_secs"].contains(&field) {
        assert_eq!(by_simulate.unwrap_err().field, field);
    }
    if field != "reconfig_secs" {
        assert_eq!(by_preempt.unwrap_err().field, field);
    }
}

#[test]
fn an_infinite_horizon_is_refused_not_simulated_forever() {
    // Passed `horizon_hours > 0.0` at the parent; `while now < horizon`
    // then never ended. That this test returns is the assertion.
    assert_refused(
        year_with(|p| p.base.horizon_hours = f64::INFINITY),
        "horizon_hours",
    );
}

#[test]
fn a_nan_repair_time_is_refused_by_name() {
    // Was a panic two frames away, in the event scan's `partial_cmp`.
    assert_refused(
        year_with(|p| p.base.cube_mttr_hours = f64::NAN),
        "cube_mttr_hours",
    );
}

#[test]
fn a_zero_mtbf_is_refused_by_name() {
    // Was `expect("positive rate")` on the exponential's constructor.
    assert_refused(
        year_with(|p| p.base.cube_mtbf_hours = 0.0),
        "cube_mtbf_hours",
    );
}

#[test]
fn a_nan_detector_recall_is_refused_by_name() {
    // Was a range assertion that named nothing.
    let refused = year_with(|p| p.detector_recall = f64::NAN);
    assert_refused(refused, "detector_recall");
    let shown = simulate_preempt(&refused, 1).unwrap_err().to_string();
    assert!(
        shown.contains("`detector_recall` is out of range: NaN"),
        "{shown}"
    );
}

#[test]
fn every_other_timeline_field_out_of_range_is_refused_by_name() {
    type Edit = fn(&mut PreemptParams);
    let cases: [(&str, Edit); 8] = [
        ("slices", |p| p.base.slices = 0),
        ("slice_cubes", |p| p.base.slice_cubes = 0),
        ("cube_mtbf_hours", |p| {
            p.base.cube_mtbf_hours = f64::INFINITY
        }),
        ("cube_mttr_hours", |p| p.base.cube_mttr_hours = -1.0),
        ("horizon_hours", |p| p.base.horizon_hours = 0.0),
        ("reconfig_secs", |p| p.base.reconfig_secs = f64::NAN),
        ("drain_secs", |p| p.drain_secs = f64::INFINITY),
        ("emergency_secs", |p| p.emergency_secs = -30.0),
    ];
    for (field, edit) in cases {
        assert_refused(year_with(edit), field);
    }
}

/// `inner_waterfall_point` and `inner_threshold` both refuse `field`.
fn assert_waterfall_refused(code: &ConcatenatedCode, ber: f64, blocks: u64, field: &str) {
    let refused = code
        .inner_waterfall_point(Ber::new(ber), blocks, 1)
        .unwrap_err();
    assert_eq!(refused.field, field);
    if field != "input_ber" {
        let refused = code
            .inner_threshold(Ber::KP4_THRESHOLD, blocks, 1)
            .unwrap_err();
        assert_eq!(refused.field, field);
    }
}

#[test]
fn a_waterfall_of_no_blocks_is_refused_by_name() {
    // Was an assertion that named nothing.
    assert_waterfall_refused(&ConcatenatedCode::default(), 5e-3, 0, "blocks");
}

#[test]
fn a_waterfall_input_ber_outside_zero_to_a_half_is_refused_by_name() {
    // `Ber::new(0.6)` clamps to 0.5, where no noise calibrates: the
    // range assertion fired. So did 0.
    let code = ConcatenatedCode::default();
    for ber in [0.6, 0.5, 0.0] {
        assert_waterfall_refused(&code, ber, 10, "input_ber");
    }
    let shown = code
        .inner_waterfall_point(Ber::new(0.6), 10, 1)
        .unwrap_err()
        .to_string();
    assert_eq!(shown, "waterfall input `input_ber` is out of range: 0.5");
}

#[test]
fn a_chase_decoder_past_eight_test_bits_is_refused_by_name_before_any_draw() {
    // A public field and a `Deserialize` reach it; it panicked inside the
    // first block's decode, with `chase_decode`'s message.
    let code: ConcatenatedCode = serde_json::from_str(
        &serde_json::to_string(&ConcatenatedCode::default())
            .expect("a code serializes")
            .replace("\"test_bits\":6", "\"test_bits\":9"),
    )
    .expect("a code deserializes");
    assert_eq!(code.inner_decoding, InnerDecoding::Chase { test_bits: 9 });
    assert_waterfall_refused(&code, 5e-3, 10, "test_bits");
    let refused = code
        .inner_waterfall_point(Ber::new(5e-3), 10, 1)
        .unwrap_err();
    assert_eq!(refused.value, 9.0);
}

#[test]
fn a_reed_solomon_document_that_is_not_its_own_n_k_is_refused_when_read() {
    // Both were read as they stood: the all-zero generator's own `encode`
    // gave words with non-zero syndromes that its `decode` refused, and
    // the odd `n − k` gave t = 15 on 31 parity symbols. A concatenated
    // code carried either one.
    let kp4 = serde_json::to_string(&ReedSolomon::kp4()).expect("a code serializes");
    let generator = &kp4[kp4.find('[').expect("a list")..=kp4.find(']').expect("a list")];
    let zeros = format!("[{}]", ["0"; 31].join(","));
    let code = assert_read_refused::<ReedSolomon>;
    code(
        &kp4.replace(generator, &zeros),
        "generator is not RS(544, 514)'s",
    );
    code(
        &kp4.replace("\"k\":514", "\"k\":513")
            .replace(generator, &generator.replace(']', ",1]")),
        "an even n − k",
    );
    let concat = serde_json::to_string(&ConcatenatedCode::default()).expect("a code serializes");
    assert!(concat.contains(generator));
    assert_read_refused::<ConcatenatedCode>(
        &concat.replace(generator, &zeros),
        "generator is not RS(544, 514)'s",
    );
    assert_eq!(
        serde_json::from_str::<ReedSolomon>(&kp4).ok(),
        Some(ReedSolomon::kp4())
    );
}

#[test]
fn a_te_budget_below_the_connectivity_floor_is_refused_everywhere_it_enters() {
    // `engineer` asserted; `CampusSim::uplinks` and
    // `DcnPlanner::uplinks_per_ab` are public fields that reach it.
    let refused = |peers| TeError::BudgetBelowConnectivityFloor {
        uplinks_per_ab: 5,
        peers,
    };
    let tm = TrafficMatrix::uniform(10, 1.0);
    assert_eq!(engineer(&tm, 5), Err(refused(9)));
    let planner = DcnPlanner {
        uplinks_per_ab: 5,
        trunk_gbps: 100.0,
    };
    assert_eq!(planner.plan(&tm).map(drop), Err(refused(9)));
    let campus = CampusSim {
        uplinks: 5,
        ..CampusSim::default_campus()
    };
    assert_eq!(campus.run(3, 42).map(drop), Err(refused(11)));
}

fn out_of_range(field: &'static str, value: f64) -> TeError {
    TeError::OutOfRange { field, value }
}

#[test]
fn a_campus_of_fewer_than_two_clusters_is_refused_before_any_draw() {
    // One cluster drew a destination until it differed from the source,
    // forever; none panicked in `random_range(0..0)`. That this test
    // returns is the first assertion.
    for clusters in [1, 0] {
        let campus = CampusSim {
            clusters,
            ..CampusSim::default_campus()
        };
        assert_eq!(
            campus.run(3, 1).map(drop),
            Err(out_of_range("clusters", clusters as f64))
        );
    }
}

#[test]
fn a_campus_run_of_no_epochs_or_a_bad_background_is_refused_by_name() {
    // The first asserted; the second panicked building the demand matrix.
    let campus = CampusSim::default_campus();
    assert_eq!(
        campus.run(0, 42).map(drop),
        Err(out_of_range("epochs", 0.0))
    );
    for background_gbps in [-1.0, f64::INFINITY] {
        let campus = CampusSim {
            background_gbps,
            ..CampusSim::default_campus()
        };
        assert_eq!(
            campus.run(3, 42).map(drop),
            Err(out_of_range("background_gbps", background_gbps))
        );
    }
}

#[test]
fn a_trunk_without_capacity_is_refused_everywhere_it_enters() {
    // Asserted in the flow allocator, under the planner and the campus.
    let tm = TrafficMatrix::uniform(10, 1.0);
    for trunk_gbps in [0.0, -100.0, f64::INFINITY] {
        let planner = DcnPlanner {
            uplinks_per_ab: 18,
            trunk_gbps,
        };
        let refused = Err(out_of_range("trunk_gbps", trunk_gbps));
        assert_eq!(planner.plan(&tm).map(drop), refused);
        let campus = CampusSim {
            trunk_gbps,
            ..CampusSim::default_campus()
        };
        assert_eq!(campus.run(3, 42).map(drop), refused);
    }
}

#[test]
fn a_placement_with_two_legs_on_one_port_is_refused_as_a_target() {
    // Panicked building the switch's mapping: North 0 → South 2 and
    // North 1 → South 2 on switch 0.
    let leg = TrunkLeg {
        ocs: 0,
        flipped: false,
    };
    let placement = MeshPlacement {
        trunks: [((0, 2), vec![leg]), ((1, 2), vec![leg])].into(),
        switches: 1,
    };
    assert_eq!(
        placement.fabric_target().map(drop),
        Err(RealizeError::PortClash {
            ocs: 0,
            error: CrossbarError::NotBijective { south: 2 },
        })
    );
}

#[test]
fn a_placement_with_a_leg_past_its_switches_is_refused_as_a_target() {
    // Dropped: the target covered switches `0..switches` only, so the
    // trunk's one leg on switch 2 of a 2-switch layer vanished from it.
    let placement = MeshPlacement {
        trunks: [(
            (0, 1),
            vec![TrunkLeg {
                ocs: 2,
                flipped: false,
            }],
        )]
        .into(),
        switches: 2,
    };
    assert_eq!(
        placement.fabric_target().map(drop),
        Err(RealizeError::NoSuchSwitch {
            ocs: 2,
            switches: 2
        })
    );
}

#[test]
fn a_mesh_over_the_wrong_number_of_abs_is_refused_by_the_fabric() {
    // Asserted; the fabric is left as it was.
    let mut fabric = DcnFabric::new(8, 16, 9);
    for abs in [7, 9] {
        match fabric.install(&Mesh::uniform(abs, 14)) {
            Err(DcnFabricError::AbCount { mesh, fabric: 8 }) => assert_eq!(mesh, abs),
            other => panic!("{abs} ABs on an 8-AB fabric: {other:?}"),
        }
    }
    assert_eq!(fabric.controller().fleet.health().circuits, 0);
    let report = fabric.install(&Mesh::uniform(8, 14)).expect("8 ABs fit");
    assert_eq!(report.added, 8 * 14 / 2);
}

/// Reading `doc` as a `T` is refused, saying `why`.
fn assert_read_refused<T: DeserializeOwned + std::fmt::Debug>(doc: &str, why: &str) {
    let err = serde_json::from_str::<T>(doc).expect_err(doc).to_string();
    assert!(err.contains(why), "{doc}: {err}");
}

#[test]
fn a_malformed_mesh_or_demand_document_is_refused_when_read() {
    // Each was read as it stood, `n` included: the one-row matrix under
    // `n: 3` then panicked in `te::engineer`, and the others handed the
    // model what `TrafficMatrix::new` and `Mesh::set_trunks` never build.
    let demand = assert_read_refused::<TrafficMatrix>;
    demand(r#"{"n":3,"demand":[[0.0]]}"#, "at least two ABs");
    demand(r#"{"n":2,"demand":[[0.0,1.0],[1.0]]}"#, "square");
    demand(r#"{"n":2,"demand":[[1.0,1.0],[1.0,0.0]]}"#, "diagonal");
    demand(r#"{"n":2,"demand":[[0.0,-1.0],[1.0,0.0]]}"#, "non-negative");
    let mesh = assert_read_refused::<Mesh>;
    mesh(
        r#"{"n":3,"uplinks_per_ab":4,"trunks":[[0]]}"#,
        "at least two ABs",
    );
    mesh(
        r#"{"n":2,"uplinks_per_ab":4,"trunks":[[0,1],[2,0]]}"#,
        "symmetric",
    );
}

/// A pod refuses `slice` with `expect` and touches nothing: no cube is
/// busy, no slice is live, no handle is burned and no switch moved.
fn assert_compose_refused(slice: Slice, expect: SliceError) {
    let mut pod = Superpod::new(0x5EED);
    let circuits = pod.fabric().fleet.health().circuits;
    assert_eq!(
        pod.compose(slice).map(drop),
        Err(PodError::BadSlice(expect))
    );
    assert_eq!(pod.idle_set(), CubeSet::ALL);
    assert_eq!(pod.slices().count(), 0);
    assert_eq!(pod.fabric().fleet.health().circuits, circuits);
    let shape = SliceShape::new(4, 4, 4).expect("one cube");
    let (handle, _) = pod
        .compose(Slice::new(shape, vec![0]).expect("one cube"))
        .expect("an empty pod has room");
    assert_eq!(handle, SliceHandle(1), "the refusal issued no handle");
}

/// A `Slice` built without `Slice::new`: its fields are public.
fn unchecked(chips: [usize; 3], cubes: Vec<CubeId>) -> Slice {
    Slice {
        shape: SliceShape { chips },
        cubes: cubes.iter().copied().collect(),
    }
}

#[test]
fn a_slice_naming_a_cube_past_the_pod_is_refused_by_compose() {
    // Indexed the 64-entry owner table out of bounds.
    assert_compose_refused(unchecked([4, 4, 4], vec![64]), SliceError::BadCube(64));
}

#[test]
fn a_slice_short_of_its_shape_is_refused_by_compose() {
    // Two cubes for a four-cube ring panicked in `pairs_for`.
    assert_compose_refused(
        unchecked([16, 4, 4], vec![3, 9]),
        SliceError::WrongCubeCount { got: 2, need: 4 },
    );
}

#[test]
fn a_slice_with_more_cubes_than_its_shape_is_refused_by_compose() {
    // Was accepted, and all three cubes were marked busy.
    assert_compose_refused(
        unchecked([4, 4, 4], vec![0, 1, 2]),
        SliceError::WrongCubeCount { got: 3, need: 1 },
    );
}

#[test]
fn a_zero_cube_slice_is_refused_by_compose() {
    // Was accepted as a live slice holding no cube: no bound on how many
    // a pod could hold.
    assert_compose_refused(
        unchecked([0, 4, 4], vec![]),
        SliceError::Shape(ShapeError::BadDimension(0)),
    );
}

/// A switch of `ports` ports with something to lose: two circuits, one of
/// them still aligning, a failed fan and a drifted mirror.
fn switch_with_history(ports: usize) -> PalomarOcs {
    let mut ocs = PalomarOcs::with_ports(3, 0x5EED, ports);
    ocs.connect(0, 1).expect("free ports");
    ocs.advance(lightwave::units::Nanos::from_millis(200));
    ocs.connect(2, 3).expect("free ports");
    ocs.fail_fru(2).expect("slot 2 is a fan");
    ocs.degrade_mirror(true, 0, 0.05).expect("port 0");
    ocs
}

/// `fault` with each argument `past` names — the first past what the
/// switch has, and the largest the argument's type holds — is
/// `refusal(arg)` at 136 and at 300 ports, and leaves health, circuits,
/// alarms and the drift log as they were.
fn assert_switch_refuses<A: Copy + std::fmt::Debug>(
    past: impl Fn(&PalomarOcs) -> [A; 2],
    fault: impl Fn(&mut PalomarOcs, A) -> Result<(), OcsError>,
    refusal: impl Fn(A) -> OcsError,
) {
    for ports in [136, 300] {
        for arg in past(&switch_with_history(ports)) {
            let mut ocs = switch_with_history(ports);
            let before = (ocs.health(), ocs.mapping(), ocs.drift_log().to_vec());
            let alarms = ocs.telemetry().alarms().len();
            assert_eq!(
                fault(&mut ocs, arg),
                Err(refusal(arg)),
                "{ports} ports, {arg:?}"
            );
            assert_eq!(
                (ocs.health(), ocs.mapping(), ocs.drift_log().to_vec()),
                before,
                "{ports} ports, {arg:?}"
            );
            assert_eq!(ocs.telemetry().alarms().len(), alarms);
        }
    }
}

fn ports_past(ocs: &PalomarOcs) -> [PortId; 2] {
    [ocs.ports() as PortId, PortId::MAX]
}

fn slots_past(ocs: &PalomarOcs) -> [usize; 2] {
    [ocs.chassis().slots().len(), usize::MAX]
}

fn no_port(port: PortId) -> OcsError {
    CrossbarError::PortOutOfRange(port).into()
}

#[test]
fn a_mirror_failure_on_a_port_the_switch_lacks_is_refused() {
    // Panicked in `die_mut`, before anything was built.
    for north in [true, false] {
        assert_switch_refuses(ports_past, |ocs, p| ocs.fail_mirror(north, p), no_port);
    }
}

#[test]
fn a_mirror_degradation_on_a_port_the_switch_lacks_is_refused() {
    // Panicked in `die_mut`, before anything was built.
    for north in [true, false] {
        assert_switch_refuses(
            ports_past,
            |ocs, p| ocs.degrade_mirror(north, p, 0.05),
            no_port,
        );
    }
}

#[test]
fn a_fru_failure_in_a_slot_the_chassis_lacks_is_refused() {
    // Indexed the chassis slots out of bounds.
    assert_switch_refuses(slots_past, PalomarOcs::fail_fru, OcsError::SlotOutOfRange);
}

#[test]
fn a_fru_replacement_in_a_slot_the_chassis_lacks_is_refused() {
    // Indexed the chassis slots out of bounds.
    assert_switch_refuses(
        slots_past,
        PalomarOcs::replace_fru,
        OcsError::SlotOutOfRange,
    );
}
