//! End-to-end pod lifecycle across crates: optimizer → slices → fabric →
//! OCS hardware, with failures injected at every layer.

use lightwave::prelude::*;
use lightwave::superpod::wiring::{ocs_role, SUPERPOD_OCS_COUNT};
use lightwave::superpod::Slice;
use lightwave::units::Nanos;

fn settle(pod: &mut MlPod) {
    pod.advance(Nanos::from_millis(400));
    assert!(pod.pod.settled(), "fabric must settle within 400 ms");
}

#[test]
fn many_models_share_one_pod_without_interference() {
    let mut pod = MlPod::new(1);
    // Fill the pod with a mix: 16 + 8 + 8 + 16 + 8 cubes = 56 of 64.
    let placements: Vec<_> = [
        (LlmConfig::llm1(), 1024),
        (LlmConfig::llm0(), 512),
        (LlmConfig::llm0(), 512),
        (LlmConfig::llm1(), 1024),
        (LlmConfig::llm2(), 512),
    ]
    .iter()
    .map(|(m, chips)| pod.place_model(m, *chips).expect("fits"))
    .collect();
    settle(&mut pod);
    assert_eq!(pod.pod.idle_cubes().len(), 64 - 56);

    // Each placement got distinct cubes.
    let mut all_cubes: Vec<u8> = placements
        .iter()
        .flat_map(|p| pod.pod.slice(p.handle).expect("live").cubes.to_vec())
        .collect();
    let n = all_cubes.len();
    all_cubes.sort_unstable();
    all_cubes.dedup();
    assert_eq!(all_cubes.len(), n, "no cube is in two slices");

    // Release the middle ones; survivors never blink (circuits stay
    // Connected through the transactions).
    pod.release(placements[1].handle).unwrap();
    pod.release(placements[2].handle).unwrap();
    assert!(
        pod.pod.settled(),
        "pure-release transactions disturb nothing"
    );
    // Remaining slices intact.
    assert!(pod.pod.slice(placements[0].handle).is_some());
    assert!(pod.pod.slice(placements[4].handle).is_some());
    assert_eq!(pod.pod.idle_cubes().len(), 64 - 56 + 16);
}

#[test]
fn full_pod_uses_every_ocs_symmetrically() {
    let mut pod = MlPod::new(2);
    pod.place_model(&LlmConfig::llm2(), 4096).expect("full pod");
    settle(&mut pod);
    let health = pod.pod.fabric().fleet.health();
    assert_eq!(health.switches, SUPERPOD_OCS_COUNT);
    // 64 cubes × 3 dims × 16 circuits = 3072 circuits, 64 per OCS.
    assert_eq!(health.circuits, 3072);
    for (id, h) in &health.per_switch {
        assert_eq!(h.circuits, 64, "OCS {id} carries one circuit per cube");
        let (_dim, link) = ocs_role(*id);
        assert!(link < 16);
    }
}

#[test]
fn ocs_chassis_failure_degrades_new_slices_but_wedges_nothing() {
    let mut pod = MlPod::new(3);
    let p1 = pod.place_model(&LlmConfig::llm0(), 512).expect("fits");
    settle(&mut pod);

    // Kill OCS 7 (both PSUs).
    {
        let ocs = pod.pod.fabric_mut().fleet.get_mut(7).expect("exists");
        ocs.fail_fru(0).unwrap();
        ocs.fail_fru(1).unwrap();
    }
    // New slices still compose: the down switch carries 1 of the 16
    // parallel links per face, so skipping it degrades bandwidth rather
    // than partitioning the torus. The missed transaction is recorded...
    let p2 = pod
        .place_model(&LlmConfig::llm0(), 512)
        .expect("degraded compose");
    assert!(pod.pod.desynced().contains(&7), "missed txn recorded");
    // ...while the original slice is untouched and accounting is sound.
    assert!(pod.pod.slice(p1.handle).is_some());
    assert!(pod.pod.slice(p2.handle).is_some());
    assert_eq!(pod.pod.idle_cubes().len(), 64 - 16);

    // Repair the chassis; anti-entropy converges the straggler.
    {
        let ocs = pod.pod.fabric_mut().fleet.get_mut(7).expect("exists");
        ocs.replace_fru(0).unwrap();
        ocs.replace_fru(1).unwrap();
    }
    for (id, r) in pod.pod.resync() {
        r.unwrap_or_else(|e| panic!("OCS {id} resync: {e}"));
    }
    assert!(pod.pod.desynced().is_empty());
    settle(&mut pod);
}

#[test]
fn cube_failure_swap_preserves_other_slices() {
    let mut pod = MlPod::new(4);
    let pa = pod.place_model(&LlmConfig::llm0(), 512).expect("fits");
    let pb = pod.place_model(&LlmConfig::llm0(), 512).expect("fits");
    settle(&mut pod);

    // A cube in slice A dies; rebuild A on a spare.
    let victim = pod.pod.slice(pa.handle).expect("live").cubes[0];
    pod.pod.mark_cube_failed(victim);
    let old = pod.pod.slice(pa.handle).expect("live").clone();
    pod.release(pa.handle).unwrap();
    let spare = pod
        .pod
        .idle_cubes()
        .into_iter()
        .find(|c| !old.cubes.contains(c))
        .expect("spares exist");
    let cubes: Vec<_> = old
        .cubes
        .iter()
        .map(|&c| if c == victim { spare } else { c })
        .collect();
    let (_, report) = pod
        .pod
        .compose(Slice::new(old.shape, cubes).expect("valid"))
        .expect("recompose");
    // Slice B's circuits were never touched by the whole dance:
    // 8 cubes × 3 dims × 16 = 384 circuits preserved.
    assert_eq!(report.untouched, 384);
    settle(&mut pod);
    assert!(pod.pod.slice(pb.handle).is_some());
}

#[test]
fn fabric_power_is_ocs_class_not_eps_class() {
    let mut pod = MlPod::new(5);
    pod.place_model(&LlmConfig::llm2(), 4096).expect("fits");
    settle(&mut pod);
    let power = pod.pod.fabric().fleet.health().power_w;
    // 48 chassis, each ≤ 108 W — versus hundreds of kW for an EPS fabric
    // of the same capacity.
    assert!(power < 48.0 * 108.0, "fabric draws {power} W");
    assert!(power > 48.0 * 50.0, "loaded fabric draws real power");
}

#[test]
fn placement_is_deterministic_per_seed() {
    let run = |seed| {
        let mut pod = MlPod::new(seed);
        let p = pod.place_model(&LlmConfig::llm1(), 2048).expect("fits");
        (
            p.plan.shape.chips,
            pod.pod.slice(p.handle).expect("live").cubes.clone(),
        )
    };
    assert_eq!(run(9), run(9));
}
