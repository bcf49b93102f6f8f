//! Ablation studies and future-work extensions.
//!
//! DESIGN.md §6 calls out the design choices worth isolating: bidirectional
//! optics, minimal-delta reconfiguration, and the opposing-faces wiring
//! plan. Plus the §6 future-work quantifications: higher-dimensional tori
//! and the hybrid ICI-DCN scale-out regime.

use crate::{Check, ExperimentResult};
use lightwave::availability::fabric_availability;
use lightwave::availability::timeline::{simulate, TimelineParams};
use lightwave::dcn::campus::CampusSim;
use lightwave::dcn::refresh::rolling_upgrade;
use lightwave::mlperf::{ChipParams, LlmConfig, SliceOptimizer};
use lightwave::optics::modulation::LaneRate;
use lightwave::superpod::collective::IciParams;
use lightwave::superpod::hybrid::{
    bandwidth_asymmetry, hybrid_all_reduce, scaling_efficiency, DcnParams,
};
use lightwave::superpod::slice::{Slice, SliceShape};
use lightwave::superpod::torus_nd::TorusNd;
use lightwave::superpod::Superpod;
use lightwave::transceiver::ModuleFamily;
use lightwave::units::{Availability, Nanos};

/// Ablation 1 — what bidirectional optics buy (§4.2.2, §4.2.3).
pub(crate) fn ablate_bidi() -> ExperimentResult {
    let mut lines =
        vec!["family        | OCS ports/module | pod OCSes | fabric avail @99.9%".into()];
    let mut rows = Vec::new();
    for fam in ModuleFamily::ALL {
        let n = fam.superpod_ocs_count();
        let avail = fabric_availability(Availability::from_nines(3.0), n as u32);
        lines.push(format!(
            "{:<13} | {:>16} | {:>9} | {}",
            format!("{fam:?}"),
            fam.ocs_ports_per_module(),
            n,
            avail
        ));
        rows.push((fam, n, avail.prob()));
    }
    lines.push(
        "each bidi step halves OCS-and-fiber count — '§4.2.3: saves 50% in the cost of \
         the OCSes and fiber' — and compounds into fabric availability"
            .into(),
    );
    let duplex = rows[0].1 as f64;
    let bidi4 = rows[1].1 as f64;
    let bidi8 = rows[2].1 as f64;
    ExperimentResult {
        id: "ablate1",
        title: "Ablation: bidirectional optics vs duplex",
        lines,
        checks: vec![
            Check::abs("CWDM4 bidi OCS saving", 0.5, 1.0 - bidi4 / duplex, 1e-9),
            Check::abs("CWDM8 bidi OCS saving", 0.75, 1.0 - bidi8 / duplex, 1e-9),
            Check::holds(
                "availability ordering",
                "fewer switches → higher fabric availability",
                rows[2].2 > rows[1].2 && rows[1].2 > rows[0].2,
            ),
        ],
    }
}

/// Ablation 2 — minimal-delta reconfiguration vs full rewire (§2.3).
pub(crate) fn ablate_reconfig() -> ExperimentResult {
    let slice_a = || {
        Slice::new(
            SliceShape::new(8, 8, 8).unwrap(),
            (0..8).collect::<Vec<u8>>(),
        )
        .unwrap()
    };
    let slice_b = |cubes: Vec<u8>| Slice::new(SliceShape::new(8, 8, 8).unwrap(), cubes).unwrap();

    // Delta path: recompose only slice B; A is never mentioned.
    let mut pod = Superpod::new(3);
    let (_ha, _) = pod.compose(slice_a()).unwrap();
    let (hb, _) = pod.compose(slice_b((8..16).collect())).unwrap();
    pod.advance(Nanos::from_millis(400));
    pod.release(hb).unwrap();
    let (_h, delta_report) = pod.compose(slice_b((16..24).collect())).unwrap();
    let delta_disturbed = delta_report.added + delta_report.removed;
    let delta_preserved = delta_report.untouched;

    // Full-rewire path: tear everything down and rebuild both slices.
    let mut pod2 = Superpod::new(3);
    let (ha2, _) = pod2.compose(slice_a()).unwrap();
    let (hb2, _) = pod2.compose(slice_b((8..16).collect())).unwrap();
    pod2.advance(Nanos::from_millis(400));
    pod2.release(ha2).unwrap();
    pod2.release(hb2).unwrap();
    let (_, r1) = pod2.compose(slice_a()).unwrap();
    let (_, r2) = pod2.compose(slice_b((16..24).collect())).unwrap();
    let full_disturbed = r1.added + r1.removed + r2.added + r2.removed + 2 * 384; // + the teardowns

    let lines = vec![
        format!(
            "swap one 512-chip slice next to a running neighbour (both 384 circuits):"
        ),
        format!(
            "  minimal delta: {delta_disturbed} circuits touched, {delta_preserved} preserved untouched"
        ),
        format!("  full rewire:   {full_disturbed} circuit operations, 0 preserved"),
    ];
    ExperimentResult {
        id: "ablate2",
        title: "Ablation: minimal-delta vs full-rewire reconfiguration",
        lines,
        checks: vec![
            Check::holds(
                "neighbour isolation",
                "delta path preserves all 384 neighbour circuits",
                delta_preserved == 384,
            ),
            Check::holds(
                "disturbance ratio",
                "full rewire touches ≥ 2× the circuits",
                full_disturbed >= 2 * delta_disturbed,
            ),
        ],
    }
}

/// Ablation 3 — the opposing-faces wiring plan (Appendix A).
pub(crate) fn ablate_wiring() -> ExperimentResult {
    // OCS count for full any-to-any hop support, per (wiring, optics):
    // a hop needs its two fibers on the SAME switch. Pairing +d and −d
    // faces fills every 128-port switch completely; keeping faces on
    // separate switches leaves every switch half-useful.
    let paired_bidi = 3 * 16; // the production plan
    let paired_duplex = 3 * 16 * 2; // duplex doubles fibers
    let unpaired_bidi = 6 * 16; // half-filled switches
    let unpaired_duplex = 6 * 16 * 2;
    let lines = vec![
        "OCSes for full any-to-any cube-hop support (64 cubes):".into(),
        format!("  opposing faces paired + bidi optics:   {paired_bidi}  (production)"),
        format!("  opposing faces paired + duplex optics: {paired_duplex}"),
        format!("  faces on separate switches + bidi:     {unpaired_bidi} (every OCS half-used)"),
        format!("  faces on separate switches + duplex:   {unpaired_duplex}"),
        "pairing works because a +d face and a −d face never compete for a port: \
         every cube appears exactly once as North and once as South per switch"
            .into(),
    ];
    ExperimentResult {
        id: "ablate3",
        title: "Ablation: Appendix-A opposing-faces wiring",
        lines,
        checks: vec![
            Check::holds(
                "production plan",
                "48 switches, fully utilized",
                paired_bidi == 48,
            ),
            Check::holds(
                "pairing halves the fleet",
                "unpaired needs 2×",
                unpaired_bidi == 2 * paired_bidi && unpaired_duplex == 2 * paired_duplex,
            ),
        ],
    }
}

/// Extension — hybrid ICI-DCN scale-out (§2.2.2, Fig. 2).
pub fn hybrid1() -> ExperimentResult {
    let ici = IciParams::tpu_v4();
    let dcn = DcnParams::production();
    let asym = bandwidth_asymmetry(4096, &ici, &dcn);

    // LLM1's gradient all-reduce, scaled across pods.
    let opt = SliceOptimizer::tpu_v4();
    let model = LlmConfig::llm1();
    let best = opt.optimize(&model, 4096).expect("feasible");
    let grad = 2.0 * model.params / best.step.mapping.tp as f64 / best.step.mapping.pp as f64;
    let dims = [best.step.mapping.dp];

    let mut lines = vec![format!(
        "ICI:DCN bisection asymmetry of a 4096-chip pod: {asym:.0}x (paper: 50-100x)"
    )];
    lines.push("pods | allreduce total | DCN fraction | scaling efficiency".into());
    // Efficiency against the overlap window that must hide the collective
    // (one pipeline-interleaved chunk of compute), not the whole step —
    // this is where "delays can substantially affect the model
    // throughput" (§2.2.2) shows up.
    let compute = (best.step.compute / 64.0).max(0.2);
    let mut eff4 = 0.0;
    for pods in [1usize, 2, 4, 8] {
        let ar = hybrid_all_reduce(grad, &dims, pods, &ici, &dcn);
        let eff = scaling_efficiency(compute, grad, &dims, pods, &ici, &dcn);
        if pods == 4 {
            eff4 = eff;
        }
        lines.push(format!(
            "{pods:>4} | {:>13.1} ms | {:>11.1}% | {:>17.1}%",
            ar.total() * 1e3,
            ar.dcn_fraction() * 100.0,
            eff * 100.0
        ));
    }
    let two = hybrid_all_reduce(grad, &dims, 4, &ici, &dcn);
    let one = hybrid_all_reduce(
        grad,
        &dims,
        4,
        &ici,
        &DcnParams {
            two_rings: false,
            ..dcn
        },
    );
    lines.push(format!(
        "Fig. 2c two-ring collective: DCN phase {:.1} ms vs {:.1} ms single-ring",
        two.dcn_phase * 1e3,
        one.dcn_phase * 1e3
    ));
    ExperimentResult {
        id: "hybrid1",
        title: "Hybrid ICI-DCN scale-out across pods",
        lines,
        checks: vec![
            Check::holds(
                "bandwidth asymmetry",
                "in the paper's 50-100x band",
                (50.0..=150.0).contains(&asym),
            ),
            Check::holds(
                "two-ring gain",
                "halves the DCN phase",
                (one.dcn_phase / two.dcn_phase - 2.0).abs() < 0.1,
            ),
            Check::holds(
                "cross-pod scaling",
                "efficient but not free (80-99.5% at 4 pods)",
                (0.80..0.995).contains(&eff4),
            ),
        ],
    }
}

/// Extension — a simulated year of pod operation: reconfiguration speed
/// versus hardware repair (the time-domain view of §4.2.2).
pub fn timeline1() -> ExperimentResult {
    let params = TimelineParams::production_year();
    let report = simulate(&params, 42).expect("the production year is a runnable timeline");
    let r = report.reconfigurable;
    let s = report.static_fabric;
    let lines = vec![
        format!(
            "one simulated year, three 1024-chip slices, 16 spare cubes, cube MTBF {:.0} h, MTTR {:.0} h:",
            params.cube_mtbf_hours, params.cube_mttr_hours
        ),
        format!(
            "reconfigurable ({}s swaps): {:.4}% delivered, {:.1} h down across {} slice-failures",
            params.reconfig_secs,
            r.delivered * 100.0,
            r.down_hours,
            r.failures
        ),
        format!(
            "static (repair-bound):      {:.4}% delivered, {:.0} h down across {} slice-failures",
            s.delivered * 100.0,
            s.down_hours,
            s.failures
        ),
    ];
    ExperimentResult {
        id: "timeline1",
        title: "A year of pod availability: swap-in-seconds vs repair-in-hours",
        lines,
        checks: vec![
            Check::holds(
                "reconfigurable delivered fraction",
                "> 99.9% (downtime = failures × seconds)",
                r.delivered > 0.999,
            ),
            Check::holds(
                "static delivered fraction",
                "materially lower (downtime = failures × hours)",
                s.delivered < 0.98,
            ),
            Check::holds(
                "downtime ratio",
                "≥ 50× less downtime with reconfiguration",
                s.down_hours > 50.0 * r.down_hours,
            ),
        ],
    }
}

/// Extension — the campus use case: TE tracking service lifecycles.
pub fn campus1() -> ExperimentResult {
    let report = CampusSim::default_campus()
        .run(40, 42)
        .expect("the budget reaches every peer");
    let gain = report.aggregate_gain();
    let preserved = report.mean_preserved_fraction();
    let mut lines = vec![format!(
        "40 epochs of service turnup/turndown on a 12-cluster campus \
         (22 uplinks/cluster, 100G trunks):"
    )];
    lines.push(format!(
        "aggregate throughput: tracking TE {gain:.2}x the static uniform mesh"
    ));
    lines.push(format!(
        "mean circuits preserved across epoch reconfigurations: {:.0}%",
        preserved * 100.0
    ));
    for e in report.epochs.iter().take(8) {
        lines.push(format!(
            "  epoch {:>2}: {:>2} services | TE {:>7.0} Gb/s | static {:>7.0} Gb/s | moved {:>3}, kept {:>3}",
            e.epoch, e.services, e.engineered_gbps, e.static_gbps, e.circuits_moved, e.circuits_preserved
        ));
    }
    lines.push("  ... (remaining epochs elided)".into());
    ExperimentResult {
        id: "campus1",
        title: "Campus use case: TE tracking service lifecycles",
        lines,
        checks: vec![
            Check::holds(
                "tracking TE beats static provisioning",
                "aggregate gain > 1.03x",
                gain > 1.03,
            ),
            Check::holds(
                "reconfiguration is incremental",
                "> 50% of circuits preserved per epoch",
                preserved > 0.5,
            ),
        ],
    }
}

/// Extension — §2.1 rapid technology refresh on a rate-agnostic OCS.
pub fn refresh1() -> ExperimentResult {
    let epochs = rolling_upgrade(16, LaneRate::Pam4_50, LaneRate::Pam4_100, 2);
    let first = epochs.first().expect("non-empty");
    let last = epochs.last().expect("non-empty");
    let mut lines = vec![
        "rolling 16 ABs from 50G-PAM4 to 100G-PAM4 trunks, one AB per epoch:".into(),
        "upgraded | OCS fabric Gb/s | spine-full (old spine) Gb/s".into(),
    ];
    for e in epochs.iter().step_by(4) {
        lines.push(format!(
            "{:>8} | {:>15.0} | {:>12.0}",
            e.upgraded, e.spine_free_gbps, e.spine_full_old_spine_gbps
        ));
    }
    lines.push(format!(
        "{:>8} | {:>15.0} | {:>12.0}",
        last.upgraded, last.spine_free_gbps, last.spine_full_old_spine_gbps
    ));
    lines.push(
        "the OCS is rate-agnostic: capacity grows with every upgraded pair; the \
         spine-full fabric is pinned to the old spine until a forklift day"
            .into(),
    );
    let monotone = epochs
        .windows(2)
        .all(|w| w[1].spine_free_gbps >= w[0].spine_free_gbps);
    ExperimentResult {
        id: "refresh1",
        title: "Rapid technology refresh: heterogeneous generations on one OCS",
        lines,
        checks: vec![
            Check::holds(
                "incremental benefit",
                "OCS capacity non-decreasing each epoch",
                monotone,
            ),
            Check::abs(
                "full-fleet capacity ratio",
                2.0,
                last.spine_free_gbps / first.spine_free_gbps,
                1e-9,
            ),
            Check::holds(
                "spine-full comparison",
                "pinned at old-spine capacity throughout",
                epochs.iter().all(|e| {
                    (e.spine_full_old_spine_gbps - first.spine_full_old_spine_gbps).abs() < 1e-9
                }),
            ),
        ],
    }
}

/// Extension — §6 higher-dimensional tori.
pub fn future1() -> ExperimentResult {
    let mut lines =
        vec!["organization | bisection links | diameter | mean dist | links/chip | OCSes".into()];
    let mut rows = Vec::new();
    for n in [3usize, 4, 6] {
        let t = TorusNd::balanced(4096, n);
        lines.push(format!(
            "{:>10}D | {:>15} | {:>8} | {:>9.2} | {:>10} | {:>5}",
            n,
            t.bisection_links(),
            t.diameter(),
            t.mean_distance(),
            t.links_per_chip(),
            t.ocs_groups()
        ));
        rows.push(t);
    }
    lines.push(
        "higher dimensions buy bisection and latency with more ICI ports per chip and \
         (for 4D at 8-chip extent) more OCS groups — §6's trade stated quantitatively"
            .into(),
    );
    let chip = ChipParams::tpu_v4();
    let _ = chip;
    ExperimentResult {
        id: "future1",
        title: "Future work: 4D/6D torus organizations of 4096 chips",
        lines,
        checks: vec![
            Check::holds(
                "bisection scaling",
                "doubles per added organization step (512/1024/2048)",
                rows[0].bisection_links() == 512
                    && rows[1].bisection_links() == 1024
                    && rows[2].bisection_links() == 2048,
            ),
            Check::holds(
                "latency scaling",
                "diameter 24 → 16 → 12",
                rows[0].diameter() == 24 && rows[1].diameter() == 16 && rows[2].diameter() == 12,
            ),
        ],
    }
}
