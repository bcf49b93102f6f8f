//! Campus topology engineering across service lifecycles (§1, §6).
//!
//! ```text
//! cargo run --release --example campus_lifecycle
//! ```
//!
//! Services turn up and down across a 12-cluster campus; each epoch the
//! OCS layer is re-engineered for the live demand with minimal
//! disturbance, and the tracking topology is compared to the static
//! uniform mesh a non-reconfigurable plant would be stuck with.

use lightwave::dcn::campus::CampusSim;

fn main() {
    println!("=== campus service-lifecycle topology engineering ===\n");
    let sim = CampusSim::default_campus();
    println!(
        "{} clusters, {} uplinks each, {:.0}G trunks, {:.0}G background demand per pair\n",
        sim.clusters, sim.uplinks, sim.trunk_gbps, sim.background_gbps
    );

    let report = sim.run(24, 42).expect("the budget reaches every peer");
    println!("epoch | services | TE Gb/s | static Gb/s | moved | kept");
    for e in &report.epochs {
        println!(
            "{:>5} | {:>8} | {:>7.0} | {:>11.0} | {:>5} | {:>4}",
            e.epoch,
            e.services,
            e.engineered_gbps,
            e.static_gbps,
            e.circuits_moved,
            e.circuits_preserved
        );
    }
    println!(
        "\naggregate: tracking TE carried {:.1}% more traffic than the static mesh",
        (report.aggregate_gain() - 1.0) * 100.0
    );
    println!(
        "churn: {:.0}% of trunk-circuits preserved across each reconfiguration",
        report.mean_preserved_fraction() * 100.0
    );
    println!(
        "\n(the preserved circuits never blinked: topology engineering on a live
campus is a sequence of minimal-delta OCS transactions, not forklifts)"
    );
}
