//! Model parameters are public fields, so a value a model cannot run on is
//! an argument somebody can pass (ROADMAP 2a): each is refused by name, as
//! an `Err`, in both build profiles — CI runs this file in `--release` too.
//! At the parent of PR 24 the first of these did not return and the others
//! panicked.

use lightwave::availability::timeline::{simulate, simulate_preempt, PreemptParams};
use lightwave::dcn::campus::CampusSim;
use lightwave::dcn::te::{engineer, TeError};
use lightwave::dcn::TrafficMatrix;
use lightwave::DcnPlanner;

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
