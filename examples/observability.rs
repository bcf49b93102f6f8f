//! Fleet-wide observability: metrics, incidents, SLOs (§3.2.2, §4.1.1).
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! A four-switch pod fabric goes through its operational life — initial
//! provisioning, a transceiver census, scheduler runs, a collective with
//! a straggling link, an HV-driver failure with its blast radius, and
//! the maintenance that repairs it — while every layer records into one
//! `FleetTelemetry` sink. The punchline is the paper's operational
//! argument: one FRU failure becomes *one* page with its symptom alarms
//! correlated underneath, and the dashboard shows exactly where the
//! 99.98% availability budget went.

use lightwave::fabric::instrument::FabricInstruments;
use lightwave::fabric::{FabricController, FabricTarget, OcsFleet};
use lightwave::ocs::PortMapping;
use lightwave::par::Pool;
use lightwave::scheduler::instrument::SchedulerInstruments;
use lightwave::scheduler::sim::{default_mix, ClusterSim};
use lightwave::scheduler::Pooled;
use lightwave::superpod::collective_sim::{simulate_torus_all_reduce, Uniform, WithStraggler};
use lightwave::superpod::instrument::CollectiveInstruments;
use lightwave::superpod::torus::Chip;
use lightwave::superpod::SliceShape;
use lightwave::telemetry::FleetTelemetry;
use lightwave::transceiver::instrument::XcvrInstruments;
use lightwave::transceiver::{fleet::fleet_census, DspConfig, ModuleFamily};
use lightwave::units::Nanos;

fn main() {
    let mut sink = FleetTelemetry::new();

    // ── 1. Provision the fabric ────────────────────────────────────────
    let mut controller = FabricController::new(OcsFleet::build(4, 17));
    let mut fabric = FabricInstruments::register(&mut sink);
    let mut target = FabricTarget::new();
    for ocs in 0..4u32 {
        let pairs: Vec<(u16, u16)> = (0..32u16).map(|n| (n, n + 64)).collect();
        target.set(ocs, PortMapping::from_pairs(pairs).expect("valid mapping"));
    }
    let at = controller.now();
    let report = controller
        .commit(&target)
        .expect("clean fleet accepts the initial target");
    fabric.record_commit(&mut sink, at, &report);
    println!(
        "provisioned {} circuits across 4 switches, traffic-ready in {}",
        report.added, report.traffic_ready_at
    );
    controller.advance(Nanos::from_millis(300));
    fabric.scrape_fleet(&mut sink, &controller.fleet);

    // ── 2. Transceiver BER census + one marginal link ──────────────────
    let mut xcvr = XcvrInstruments::register(&mut sink, "cwdm4");
    let census = fleet_census(&Pool::from_env(), 400, ModuleFamily::Cwdm4Bidi, 42);
    xcvr.record_census(&mut sink, controller.now(), &census);
    // A legacy peer forces one link below its top lane rate (§3.3.1).
    let new = DspConfig::ml_production();
    let old = DspConfig::standards_based();
    xcvr.record_negotiation(&mut sink, controller.now(), 129, &new, &old);

    // ── 3. Scheduler utilization (§4.2.4) ──────────────────────────────
    let sim = ClusterSim::new(default_mix(), 0.25);
    let mut pooled = SchedulerInstruments::register(&mut sink, "pooled");
    let mut defrag = SchedulerInstruments::register(&mut sink, "contiguous+defrag");
    pooled.record_run(&mut sink, controller.now(), &sim.run(&Pooled, 400.0, 42));
    defrag.record_run(
        &mut sink,
        controller.now(),
        &sim.run_contiguous_with_defrag(400.0, 0.05, 42),
    );

    // ── 4. A collective with a straggling link ─────────────────────────
    let mut pod = CollectiveInstruments::register(&mut sink, 0);
    let shape = SliceShape::new(8, 8, 8).expect("valid");
    let base = 100e9;
    let healthy = simulate_torus_all_reduce(shape, 256e6, &[0, 1, 2], &Uniform(base), 300e-9);
    let straggler = WithStraggler {
        base,
        chip: Chip { coords: [3, 5, 2] },
        dim: 0,
        derated: base / 4.0,
    };
    let observed = simulate_torus_all_reduce(shape, 256e6, &[0, 1, 2], &straggler, 300e-9);
    pod.record_collective(&mut sink, controller.now(), &observed);
    let found = pod.detect_stragglers(&mut sink, controller.now(), &[0, 1, 2], &healthy, &observed);
    for s in &found {
        println!(
            "straggler: torus dim {} running {}% slow",
            s.dim, s.slowdown_pct
        );
    }

    // ── 5. Failure: an HV driver dies on switch 1 ──────────────────────
    // The FRU failure is the root cause; the mirror churn that follows is
    // its blast radius, and the aggregator files it all as ONE incident.
    {
        let ocs = controller.fleet.get_mut(1).expect("switch 1 exists");
        ocs.fail_fru(6); // HV driver for ports 0..34
        for port in [2u16, 7, 11, 23] {
            ocs.fail_mirror(true, port);
        }
    }
    controller.advance(Nanos::from_millis(100));
    fabric.scrape_fleet(&mut sink, &controller.fleet);
    println!(
        "\nafter the FRU failure: {} page(s), {} symptom alarm(s) correlated",
        sink.alarms.pages(),
        sink.alarms.suppressed()
    );

    // ── 6. Maintenance: replace the FRU, let incidents clear ───────────
    controller
        .fleet
        .get_mut(1)
        .expect("switch 1 exists")
        .replace_fru(6);
    controller.advance(Nanos::from_secs_f64(30.0));
    fabric.scrape_fleet(&mut sink, &controller.fleet);

    // ── 7. The fleet dashboard ─────────────────────────────────────────
    let now = controller.now();
    println!("\n{}", sink.dashboard(now));
    let jsonl = sink.to_jsonl(now);
    println!(
        "JSONL export: {} records, first line:\n{}",
        jsonl.lines().count(),
        jsonl.lines().next().unwrap_or_default()
    );
}
