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

use lightwave::prelude::*;
use lightwave::superpod::instrument::{trace_compose, trace_release};
use lightwave::superpod::Slice;
use lightwave::trace::{to_chrome_trace, Lane, SpanKind};

fn main() {
    println!("=== fault recovery on a lightwave fabric ===\n");
    let mut pod = MlPod::new(11);
    let mut tracer = Tracer::new(11);

    // A 1024-chip job on 16 cubes.
    let at = pod.now();
    let placement = pod.place_model(&LlmConfig::llm1(), 1024).expect("fits");
    let shape = placement.plan.shape;
    let cube_count = shape.cube_count() as u32;
    let place_span = trace_compose(&mut tracer, None, 0, at, cube_count, &placement.report);
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
    let recovery = tracer.begin(
        Lane::Pod(0),
        None,
        pod.now(),
        SpanKind::FaultRecovery {
            what: "cube-swap".to_string(),
        },
    );
    tracer.link_follows(recovery, place_span);

    // Recompose on a spare: same shape, same cubes except the victim.
    let old = pod.pod.slice(placement.handle).expect("live").clone();
    let at = pod.now();
    let released = pod.release(placement.handle).expect("live");
    let release_span = trace_release(&mut tracer, Some(recovery), 0, at, cube_count, &released);
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
    let at = pod.now();
    let (h2, report) = pod
        .pod
        .compose(Slice::new(old.shape, cubes).expect("valid"))
        .expect("spare composition");
    let swap_span = trace_compose(&mut tracer, Some(recovery), 0, at, cube_count, &report);
    tracer.link_follows(swap_span, release_span);
    tracer.end(recovery, report.traffic_ready_at.max(at));
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

    let _ = h2;

    // The whole recovery is on the trace timeline too.
    let trace = to_chrome_trace(&tracer);
    std::fs::create_dir_all("target/trace").expect("create output directory");
    std::fs::write("target/trace/fault_recovery_trace.json", &trace).expect("write trace");
    println!(
        "\nwrote target/trace/fault_recovery_trace.json ({} spans — open at ui.perfetto.dev)",
        tracer.spans().len()
    );

    println!("\ndone: both failures healed without touching other slices");
}
