//! The reference Fig. 13 census: the per-port loop as it stood before a
//! shard's ports came to reuse one link, one MPI scratch and one sample
//! `Vec`, moved here verbatim as a test oracle. Each port builds its own
//! component `Vec`, its own `BidiLink`, evaluates it through
//! `BidiLink::evaluate` (the MPI total read off `MpiBudget::from_bidi_link`'s
//! sorted list) and collects its lanes; shards merge by `append`. It uses
//! the public API only. `tests/census_model.rs` holds `fleet_census` to
//! it, bit for bit.

use lightwave::optics::components::{Component, ComponentKind};
use lightwave::optics::link::LinkBudget;
use lightwave::par::Pool;
use lightwave::transceiver::bidilink::BidiLink;
use lightwave::transceiver::dsp::DspConfig;
use lightwave::transceiver::fleet::{FleetCensus, LaneSample, CENSUS_SHARD_PORTS};
use lightwave::transceiver::module::{ModuleFamily, Transceiver};
use lightwave::units::Ber;
use rand::rngs::StdRng;
use rand::RngExt;

/// Samples and evaluates one receiving port's link, appending its lanes.
fn census_port(
    port: u32,
    family: ModuleFamily,
    dsp: DspConfig,
    rng: &mut StdRng,
    samples: &mut Vec<LaneSample>,
) -> bool {
    let tx = Transceiver::sample(family, rng);
    let rx = Transceiver::sample(family, rng);
    // Sample the fiber plant: intra-building runs of 20..150 m plus
    // component manufacturing variation.
    let fiber_km = rng.random_range(0.02..0.15);
    let components = vec![
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
    let budget = LinkBudget::new(tx.launch, components).expect("non-empty chain");
    let link = BidiLink {
        tx_unit: tx,
        rx_unit: rx,
        budget,
        dsp,
        fiber_km,
    };
    let lanes = link.evaluate();
    let violated = lanes.iter().any(|l| !l.raw_ber.meets(Ber::KP4_THRESHOLD));
    samples.extend(lanes.into_iter().map(|l| LaneSample {
        port,
        lane: l.lane,
        ber: l.raw_ber,
    }));
    violated
}

/// The census, one fresh link per port.
pub fn fleet_census(pool: &Pool, ports: usize, family: ModuleFamily, seed: u64) -> FleetCensus {
    assert!(ports > 0, "census needs at least one port");
    let dsp = DspConfig::ml_production();

    let ((samples, violations), _stats) = pool.run_shards(
        seed,
        ports as u64,
        CENSUS_SHARD_PORTS,
        |rng, shard| {
            let mut samples = Vec::new();
            let mut violations = 0usize;
            for port in shard.start..shard.start + shard.len {
                if census_port(port as u32, family, dsp, rng, &mut samples) {
                    violations += 1;
                }
            }
            (samples, violations)
        },
        |(mut samples, violations), (mut more, extra)| {
            samples.append(&mut more);
            (samples, violations + extra)
        },
    );

    let mut margins: Vec<f64> = samples
        .iter()
        .map(|s| s.ber.margin_orders(Ber::KP4_THRESHOLD))
        .collect();
    margins.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median_margin_orders = margins[margins.len() / 2];
    FleetCensus {
        samples,
        violations,
        median_margin_orders,
    }
}
