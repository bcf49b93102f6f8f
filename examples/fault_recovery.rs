//! Fault recovery: the fabric reconfigures around failed hardware.
//!
//! ```text
//! cargo run --release --example fault_recovery
//! ```
//!
//! The availability half of §4.2.2, acted out: a running slice loses a
//! cube (host failures), the pod swaps in an idle spare cube and
//! recomposes — something a static fabric physically cannot do. Then an
//! OCS mirror fails mid-flight and is healed from on-die spares.
//!
//! The same cube swap, traced span by span and with a flight-recorder
//! bundle beside it, is `trace_postmortem`.

use lightwave::prelude::*;
use lightwave::superpod::Slice;

fn main() {
    println!("=== fault recovery on a lightwave fabric ===\n");
    let mut pod = MlPod::new(11);

    // A 1024-chip job on 16 cubes.
    let placement = pod.place_model(&LlmConfig::llm1(), 1024).expect("fits");
    let shape = placement.plan.shape;
    pod.advance(Nanos::from_millis(300));
    println!(
        "job running on {:?} ({} cubes), {} circuits live",
        shape.chips,
        shape.cube_count(),
        pod.pod.fabric().fleet.health().circuits
    );

    // --- Cube failure ----------------------------------------------------
    let victim = pod.pod.slice(placement.handle).expect("live").cubes[3];
    println!("\ncube {victim} loses a host — marking failed");
    pod.pod.mark_cube_failed(victim);

    // Recompose on a spare: same shape, same cubes except the victim.
    let old = pod.pod.slice(placement.handle).expect("live").clone();
    pod.release(placement.handle).expect("live");
    let spare = pod
        .pod
        .idle_cubes()
        .into_iter()
        .find(|c| !old.cubes.contains(c))
        .expect("the pod has spares");
    let cubes: Vec<_> = old
        .cubes
        .iter()
        .map(|&c| if c == victim { spare } else { c })
        .collect();
    let (_handle, report) = pod
        .pod
        .compose(Slice::new(old.shape, cubes).expect("valid"))
        .expect("spare composition");
    println!(
        "recomposed with spare cube {spare}: {} circuits re-wired, ready at {}",
        report.added, report.traffic_ready_at
    );
    pod.advance(Nanos::from_millis(300));
    assert!(pod.pod.settled());
    println!(
        "job running again on {} cubes — a static fabric would still be down",
        old.shape.cube_count()
    );

    // --- Mirror failure ---------------------------------------------------
    println!("\nMEMS mirror fails on OCS 5, north port {spare}...");
    let h_before = {
        let ocs = pod.pod.fabric_mut().fleet.get_mut(5).expect("exists");
        let spares_before = ocs.health().mirror_spares.0;
        ocs.fail_mirror(true, spare as u16);
        spares_before
    };
    pod.advance(Nanos::from_millis(300));
    let ocs = pod.pod.fabric().fleet.get(5).expect("exists");
    println!(
        "on-die spare swapped in ({} → {} spares left); circuit re-aligned: {}",
        h_before,
        ocs.health().mirror_spares.0,
        ocs.circuit_ready(spare as u16)
    );
    for alarm in ocs.telemetry().alarms() {
        println!("  telemetry alarm: {:?} [{:?}]", alarm.code, alarm.severity);
    }

    println!("\ndone: both failures healed without touching other slices");
}
