//! Pod-scale per-lane BER census — the Fig. 13 experiment.
//!
//! §4.1.2: Fig. 13 samples per-lane BER across "about 6144 (16 ports per
//! cube face × 6 cube faces × 64 cubes) individual receiving ports", each
//! potentially paired with 64 partner cubes. "All of the values meet the
//! KP4 error-correcting code specification of 2×10⁻⁴ with approximately two
//! orders of magnitude of BER margin."
//!
//! The census samples a manufactured transceiver per port, a sampled fiber
//! plant per link, evaluates every lane through the full link model (OIM +
//! SFEC DSP), and reports the distribution.

use crate::bidilink::BidiLink;
use crate::dsp::DspConfig;
use crate::module::{ModuleFamily, Transceiver};
use lightwave_optics::components::{Component, ComponentKind};
use lightwave_optics::mpi::MpiScratch;
use lightwave_par::Pool;
use lightwave_units::Ber;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Receiving ports in a full 4096-TPU pod: 16 per face × 6 faces × 64 cubes.
pub const POD_RX_PORTS: usize = 16 * 6 * 64;

/// Ports per census shard: one cube face's worth of receiving ports. The
/// full pod census makes 384 shards — plenty of load-balancing granularity,
/// and each shard is heavy enough (16 full link evaluations) to amortize
/// dispatch.
pub const CENSUS_SHARD_PORTS: u64 = 16;

/// One sampled lane observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaneSample {
    /// Receiving port index (0..6144).
    pub port: u32,
    /// Lane within the engine.
    pub lane: u8,
    /// Measured (modeled) BER with OIM and SFEC active.
    pub ber: Ber,
}

/// Census results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCensus {
    /// Every sampled lane.
    pub samples: Vec<LaneSample>,
    /// Ports whose worst lane violates the KP4 threshold.
    pub violations: usize,
    /// Median margin below threshold, in orders of magnitude.
    pub median_margin_orders: f64,
}

/// Samples and evaluates one receiving port's link, appending its lanes;
/// true if a lane violates the KP4 threshold. `link` and `mpi` are the
/// shard's: the port refills the link's components and sums its MPI in
/// `mpi`, so it allocates nothing.
fn census_port(
    port: u32,
    family: ModuleFamily,
    rng: &mut StdRng,
    link: &mut BidiLink,
    mpi: &mut MpiScratch,
    samples: &mut Vec<LaneSample>,
) -> bool {
    let tx = Transceiver::sample(family, rng);
    let rx = Transceiver::sample(family, rng);
    // Sample the fiber plant: intra-building runs of 20..150 m plus
    // component manufacturing variation.
    let fiber_km = rng.random_range(0.02..0.15);
    let components = [
        Component::sampled(ComponentKind::WdmMux, rng),
        Component::sampled(ComponentKind::CirculatorPass, rng),
        Component::sampled(ComponentKind::Connector, rng),
        Component::fiber_span(fiber_km / 2.0),
        Component::sampled(ComponentKind::OcsPass, rng),
        Component::fiber_span(fiber_km / 2.0),
        Component::sampled(ComponentKind::Connector, rng),
        Component::sampled(ComponentKind::CirculatorPass, rng),
        Component::sampled(ComponentKind::WdmDemux, rng),
    ];
    link.tx_unit = tx;
    link.rx_unit = rx;
    link.fiber_km = fiber_km;
    link.budget.launch_power = tx.launch;
    link.budget.components.clear();
    link.budget.components.extend_from_slice(&components);
    let mpi = link.mpi_ratio_in(mpi);
    let mut violated = false;
    for l in link.lane_reports(family.lane_rate(), mpi) {
        violated |= !l.raw_ber.meets(Ber::KP4_THRESHOLD);
        samples.push(LaneSample {
            port,
            lane: l.lane,
            ber: l.raw_ber,
        });
    }
    violated
}

/// Runs the Fig. 13 census on `pool`.
///
/// * `ports` — number of receiving ports to sample (use [`POD_RX_PORTS`]
///   for the full pod; tests use fewer).
/// * `family` — transceiver family in service.
///
/// Ports shard in [`CENSUS_SHARD_PORTS`]-sized groups, each group sampling
/// its transceivers and fiber plant from a `(seed, shard_index)`-derived
/// stream; shard results concatenate in shard order, so the census —
/// sample order included — is identical at any thread count. A shard
/// allocates a constant number of blocks — the link and MPI buffers its
/// ports reuse, and its sample `Vec`, sized to its lanes — and a port
/// none.
pub fn fleet_census(pool: &Pool, ports: usize, family: ModuleFamily, seed: u64) -> FleetCensus {
    assert!(ports > 0, "census needs at least one port");
    let dsp = DspConfig::ml_production();
    let lanes = family.grid().lane_count();

    let ((samples, violations), _stats) = pool.run_shards(
        seed,
        ports as u64,
        CENSUS_SHARD_PORTS,
        |rng, shard| {
            // What the shard's ports reuse; each port overwrites all of it.
            let unit = Transceiver::nominal(family);
            let mut link = BidiLink::superpod(unit, unit, dsp, 0.0);
            let mut mpi = MpiScratch::default();
            let mut samples = Vec::with_capacity(shard.len as usize * lanes);
            let mut violations = 0usize;
            for port in shard.start..shard.start + shard.len {
                if census_port(port as u32, family, rng, &mut link, &mut mpi, &mut samples) {
                    violations += 1;
                }
            }
            (samples, violations)
        },
        |(mut samples, violations), (mut more, extra)| {
            // The first merge grows shard 0's samples to the whole census;
            // every later one appends in place.
            samples.reserve_exact(ports * lanes - samples.len());
            samples.append(&mut more);
            (samples, violations + extra)
        },
    );

    let mut margins: Vec<f64> = samples
        .iter()
        .map(|s| s.ber.margin_orders(Ber::KP4_THRESHOLD))
        .collect();
    // The element a full sort would put at the middle: margins are
    // finite and never −0.0, so equal ones are equal bits, and selecting
    // it needs no sort scratch.
    let mid = margins.len() / 2;
    let (_, &mut median_margin_orders, _) =
        margins.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite"));
    FleetCensus {
        samples,
        violations,
        median_margin_orders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_port_count_matches_paper() {
        assert_eq!(POD_RX_PORTS, 6144);
    }

    #[test]
    fn census_meets_kp4_with_two_orders_margin() {
        // The headline Fig. 13 claim, on a 500-port sample.
        let census = fleet_census(&Pool::new(2), 500, ModuleFamily::Cwdm4Bidi, 42);
        assert_eq!(
            census.violations, 0,
            "all production lanes meet the KP4 spec"
        );
        assert!(
            (1.4..3.2).contains(&census.median_margin_orders),
            "median margin {:.2} orders; paper says ~2",
            census.median_margin_orders
        );
    }

    #[test]
    fn census_has_population_spread() {
        // Fig. 13 shows a band, not a line: per-unit floors differ.
        let census = fleet_census(&Pool::new(2), 300, ModuleFamily::Cwdm4Bidi, 7);
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for s in &census.samples {
            lo = lo.min(s.ber.prob());
            hi = hi.max(s.ber.prob());
        }
        assert!(
            hi / lo > 30.0,
            "expected >1.5 orders of population spread, got {lo:.2e}..{hi:.2e}"
        );
    }

    #[test]
    fn sample_counts() {
        let census = fleet_census(&Pool::new(2), 100, ModuleFamily::Cwdm4Bidi, 1);
        assert_eq!(census.samples.len(), 400, "4 lanes per CWDM4 engine");
        let c8 = fleet_census(&Pool::new(2), 50, ModuleFamily::Cwdm8Bidi, 1);
        assert_eq!(c8.samples.len(), 400, "8 lanes per CWDM8 engine");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fleet_census(&Pool::new(2), 50, ModuleFamily::Cwdm4Bidi, 5);
        let b = fleet_census(&Pool::new(2), 50, ModuleFamily::Cwdm4Bidi, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn census_thread_count_invariant() {
        // 130 ports: not divisible by the shard size, so the remainder
        // shard is exercised too.
        let run = |threads| fleet_census(&Pool::new(threads), 130, ModuleFamily::Cwdm4Bidi, 42);
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        assert_eq!(one.samples.len(), 130 * 4);
    }

    #[test]
    fn census_samples_stay_in_port_order() {
        let census = fleet_census(&Pool::new(2), 80, ModuleFamily::Cwdm4Bidi, 3);
        let ports: Vec<u32> = census.samples.iter().map(|s| s.port).collect();
        let mut sorted = ports.clone();
        sorted.sort_unstable();
        assert_eq!(ports, sorted, "shard-ordered merge keeps sample order");
    }
}
