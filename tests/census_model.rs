//! The Fig. 13 census against its oracle (DESIGN §6.8, "The census
//! allocates per shard").
//!
//! `fleet_census` gives each shard one link whose component buffer every
//! port refills, one MPI scratch that sums the budget's terms without
//! listing them, and one sample `Vec` sized to the shard's lanes.
//! `oracle::fleet_census` is the per-port loop it replaced — a fresh
//! component `Vec`, `BidiLink`, sorted `MpiBudget` and lane `Vec` a port —
//! and the two must agree on every sample, every BER's bits, the
//! violation count and the median margin's bits: at 1, 2 and 4 workers,
//! for all three module families, at port counts below, on and just past
//! one shard, at fig13's quick depth and at the full pod, and at several
//! seeds.

#[path = "oracle/census.rs"]
mod oracle;

use lightwave::par::Pool;
use lightwave::transceiver::fleet::{fleet_census, FleetCensus, POD_RX_PORTS};
use lightwave::transceiver::module::ModuleFamily;

/// Every field as bits: a BER that moved by one ulp, or a sample in
/// another place, shows.
fn bits(census: &FleetCensus) -> (Vec<(u32, u8, u64)>, usize, u64) {
    (
        census
            .samples
            .iter()
            .map(|s| (s.port, s.lane, s.ber.prob().to_bits()))
            .collect(),
        census.violations,
        census.median_margin_orders.to_bits(),
    )
}

fn assert_matches_the_oracle(ports: usize, family: ModuleFamily, seed: u64) {
    let want = bits(&oracle::fleet_census(&Pool::new(1), ports, family, seed));
    assert_eq!(
        want.0.len(),
        ports * family.grid().lane_count(),
        "{family:?}: one sample a lane"
    );
    for threads in [1, 2, 4] {
        let got = bits(&fleet_census(&Pool::new(threads), ports, family, seed));
        assert!(
            got == want,
            "{family:?}, {ports} ports, seed {seed}, {threads} threads: the census left its oracle"
        );
    }
}

#[test]
fn census_matches_the_per_port_oracle() {
    // Below a shard, exactly one, one past (a 17-port shard: the last
    // shard takes the remainder), and fig13's quick depth.
    for family in ModuleFamily::ALL {
        for ports in [1, 15, 16, 17, 600] {
            for seed in [42, 7, 0x5EED_F00D] {
                assert_matches_the_oracle(ports, family, seed);
            }
        }
    }
}

#[test]
fn the_full_pod_census_matches_the_per_port_oracle() {
    for family in ModuleFamily::ALL {
        assert_matches_the_oracle(POD_RX_PORTS, family, 42);
    }
    assert_matches_the_oracle(POD_RX_PORTS, ModuleFamily::Cwdm4Bidi, 0xC0DE);
}
