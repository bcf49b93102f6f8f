//! Topology engineering for a spine-free datacenter network.
//!
//! ```text
//! cargo run --release --example topology_engineering
//! ```
//!
//! The DCN half of the paper (§2.1, Fig. 1): aggregation blocks connect
//! *directly* through OCSes, and the logical mesh is re-shaped to follow
//! long-lived traffic. This example builds a 16-AB fabric, offers it a
//! skewed (hotspot) matrix, and compares the engineered topology against
//! the uniform mesh a static fabric is stuck with.

use lightwave::dcn::DcnFabric;
use lightwave::prelude::*;

fn main() {
    println!("=== spine-free DCN topology engineering ===\n");

    let planner = DcnPlanner {
        uplinks_per_ab: 30,
        trunk_gbps: 100.0,
    };

    for (label, tm) in [
        ("uniform traffic   ", TrafficMatrix::uniform(16, 40.0)),
        ("gravity traffic   ", TrafficMatrix::gravity(16, 40.0, 7)),
        (
            "hotspot traffic   ",
            TrafficMatrix::hotspot(16, 40.0, 8, 30.0, 3),
        ),
    ] {
        let plan = planner.plan(&tm).expect("the budget reaches every peer");
        println!(
            "{label} (skew {:>5.1}x): TE carries {:>7.0} / {:>7.0} Gb/s offered \
             ({:+.1}% vs uniform mesh), FCT {:+.1}%",
            tm.skew(),
            plan.engineered.throughput,
            plan.engineered.offered,
            (plan.throughput_gain() - 1.0) * 100.0,
            plan.fct_improvement() * 100.0,
        );
    }

    // Look inside the engineered mesh for the hotspot case: hot pairs get
    // many parallel trunks, cold pairs keep the connectivity floor.
    let tm = TrafficMatrix::hotspot(16, 40.0, 8, 30.0, 3);
    let plan = planner.plan(&tm).expect("the budget reaches every peer");
    println!("\nengineered trunk counts (hotspot matrix), first 8 ABs:");
    print!("     ");
    for j in 0..8 {
        print!("AB{j:<2} ");
    }
    println!();
    for i in 0..8 {
        print!("AB{i:<2} ");
        for j in 0..8 {
            if i == j {
                print!("  ·  ");
            } else {
                print!("{:>4} ", plan.mesh.trunks(i, j));
            }
        }
        println!();
    }
    println!(
        "\nevery AB within its {}-trunk budget: {}; mesh connected: {}",
        plan.mesh.uplinks_per_ab(),
        plan.mesh.within_budget(),
        plan.mesh.connected()
    );

    // Now run it on live hardware: install the uniform mesh, then
    // re-engineer to the hotspot mesh — shared trunks never blink.
    println!("\ninstalling on a live 32-OCS layer...");
    let mut fabric = DcnFabric::new(16, 32, 7);
    let first = fabric
        .install(&lightwave::dcn::Mesh::uniform(16, 30))
        .expect("uniform mesh fits");
    fabric.advance(Nanos::from_millis(400));
    println!(
        "  uniform mesh live: {} circuits across {} switches",
        first.added,
        fabric.controller().fleet.len()
    );
    let report = fabric.install(&plan.mesh).expect("engineered mesh fits");
    println!(
        "  re-engineered for the hotspot matrix: {} trunks moved, {} added, \
         {} kept carrying traffic throughout",
        report.removed, report.added, report.untouched
    );
    fabric.advance(Nanos::from_millis(400));
    println!("  fabric settled: {}", fabric.settled());
}
