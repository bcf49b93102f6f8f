//! Quickstart: build a superpod, carve a slice, run a collective.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the three core moves of a lightwave fabric: compose a slice on
//! live OCSes, watch the mirrors settle, and cost a collective on the
//! resulting torus.

use lightwave::prelude::*;
use lightwave::superpod::collective::{torus_all_reduce, IciParams};

fn main() {
    println!("=== lightwave quickstart ===\n");

    // A 4096-TPU superpod: 64 racks of 64 chips on a 48-OCS fabric.
    let mut pod = MlPod::new(42);
    println!(
        "pod up: {} idle cubes, {} OCSes, fabric drawing {:.0} W",
        pod.pod.idle_cubes().len(),
        pod.pod.fabric().fleet.len(),
        pod.pod.fabric().fleet.health().power_w
    );

    // Carve a 512-chip slice shaped for a 35B LLM. The optimizer picks
    // the shape; the pod picks cubes; the controller programs 48 switches.
    let placement = pod
        .place_model(&LlmConfig::llm0(), 512)
        .expect("an empty pod fits 8 cubes");
    let [a, b, c] = placement.plan.shape.chips;
    println!(
        "\nplaced {} on a {a}x{b}x{c} slice (mapping tp={} pp={} dp={}), \
         predicted speedup {:.2}x over a symmetric slice",
        LlmConfig::llm0().name,
        placement.plan.step.mapping.tp,
        placement.plan.step.mapping.pp,
        placement.plan.step.mapping.dp,
        placement.plan.speedup_vs_baseline
    );

    // MEMS mirrors take milliseconds to settle; transceivers re-acquire.
    println!(
        "fabric reconfiguring... traffic ready at t = {}",
        placement.report.traffic_ready_at
    );
    pod.advance(Nanos::from_millis(300));
    assert!(pod.pod.settled(), "all circuits aligned");
    println!(
        "fabric settled: {} circuits live",
        pod.pod.fabric().fleet.health().circuits
    );

    // Cost a gradient all-reduce on the slice's data-parallel rings.
    let ici = IciParams::tpu_v4();
    let grad_bytes = 2.0 * 35e9 / placement.plan.step.mapping.tp as f64;
    let dims = [b, c];
    let t = torus_all_reduce(grad_bytes, &dims, &ici);
    println!(
        "\ngradient all-reduce of {:.1} GB over the {b}x{c} data rings: {:.1} ms",
        grad_bytes / 1e9,
        t * 1e3
    );

    // Release: cubes return to the pool; no other slice blinks.
    pod.release(placement.handle).expect("slice exists");
    println!(
        "\nreleased; {} cubes idle again",
        pod.pod.idle_cubes().len()
    );
}
