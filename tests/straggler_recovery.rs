//! Cross-layer straggler story: an OCS optical degradation slows a
//! running collective; the reconfigurable fabric swaps the slice onto
//! healthy hardware and recovers.
//!
//! This test chains five layers: MEMS mirror state (ocs) → measured path
//! loss → per-lane link health (optics + transceiver, via the core
//! census) → per-link bandwidth derating → synchronous collective
//! slowdown (superpod::collective_sim) → recovery via slice
//! recomposition (fabric transaction).

use lightwave::prelude::*;
use lightwave::superpod::collective_sim::{simulate_torus_all_reduce, Uniform, WithStraggler};
use lightwave::superpod::torus::Chip;
use lightwave::superpod::wiring::ocs_role;
use lightwave::superpod::Slice;
use lightwave::units::Nanos;

const LINK_BW: f64 = 100e9; // 2×50 GB/s bidirectional ring bandwidth

#[test]
fn optical_degradation_slows_collectives_and_reconfiguration_recovers() {
    let mut pod = MlPod::new(23);
    let placement = pod.place_model(&LlmConfig::llm0(), 512).expect("fits");
    pod.advance(Nanos::from_millis(400));
    let shape = placement.plan.shape;

    // Baseline: healthy fabric, healthy collective.
    let clean_census = pod.link_census();
    assert_eq!(clean_census.violations, 0);
    let healthy = simulate_torus_all_reduce(shape, 256e6, &[0, 1, 2], &Uniform(LINK_BW), 300e-9);

    // Degrade: burn every spare on one live circuit's north mirror. The
    // path climbs the loss curve as worse and worse spares rotate in.
    let (victim_ocs, victim_port) = {
        let ocs = pod.pod.fabric().fleet.get(0).expect("exists");
        (
            0u32,
            ocs.mapping().pairs().next().expect("circuits exist").0,
        )
    };
    {
        let ocs = pod
            .pod
            .fabric_mut()
            .fleet
            .get_mut(victim_ocs)
            .expect("exists");
        while ocs.health().mirror_spares.0 > 0 {
            ocs.fail_mirror(true, victim_port).unwrap();
        }
    }
    pod.advance(Nanos::from_millis(400));
    let degraded_census = pod.link_census();
    let clean_loss = clean_census
        .circuits
        .iter()
        .find(|c| c.ocs == victim_ocs && c.north == victim_port)
        .expect("circuit present")
        .ocs_loss_db;
    let degraded = degraded_census
        .circuits
        .iter()
        .find(|c| c.ocs == victim_ocs && c.north == victim_port)
        .expect("circuit present");
    assert!(
        degraded.ocs_loss_db > clean_loss,
        "spare churn must raise the measured path loss: {clean_loss:.2} → {:.2}",
        degraded.ocs_loss_db
    );

    // Translate the census into collective terms: a circuit whose margin
    // has thinned renegotiates to a lower lane rate — model the worst
    // case as a 2× bandwidth derate on the affected torus dimension's
    // boundary link.
    let (dim, _) = ocs_role(victim_ocs);
    let margin_delta = clean_census.worst_margin_orders - degraded_census.worst_margin_orders;
    let derate = if margin_delta > 0.0 { 2.0 } else { 1.0 };
    let slowed = simulate_torus_all_reduce(
        shape,
        256e6,
        &[0, 1, 2],
        &WithStraggler {
            base: LINK_BW,
            chip: Chip { coords: [3, 0, 0] },
            dim: dim.index(),
            derated: LINK_BW / (2.0 * derate),
        },
        300e-9,
    );
    assert!(
        slowed.total > 1.2 * healthy.total,
        "a derated boundary link must slow the synchronous collective: {} vs {}",
        slowed.total,
        healthy.total
    );

    // Recover: recompose the slice on fresh cubes (the paper's swap); the
    // collective returns to the healthy number.
    let old = pod.pod.slice(placement.handle).expect("live").clone();
    pod.release(placement.handle).expect("live");
    let idle = pod.pod.idle_cubes();
    let fresh: Vec<u8> = idle
        .into_iter()
        .filter(|c| !old.cubes.contains(c))
        .take(old.cubes.len())
        .collect();
    assert_eq!(fresh.len(), old.cubes.len(), "the pod has spare cubes");
    let (h2, _) = pod
        .pod
        .compose(Slice::new(old.shape, fresh).expect("valid"))
        .expect("recomposes");
    pod.advance(Nanos::from_millis(400));
    assert!(pod.pod.settled());
    let recovered = simulate_torus_all_reduce(
        pod.pod.slice(h2).expect("live").shape,
        256e6,
        &[0, 1, 2],
        &Uniform(LINK_BW),
        300e-9,
    );
    assert!(
        (recovered.total / healthy.total - 1.0).abs() < 1e-9,
        "fresh cubes restore the healthy collective time"
    );
}
