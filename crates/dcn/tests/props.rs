//! Property tests for DCN topology engineering and placement.

use lightwave_dcn::realize::MeshPlacement;
use lightwave_dcn::te::engineer;
use lightwave_dcn::{flowsim, Mesh, TrafficMatrix};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engineered_meshes_place_cleanly(seed in 0u64..200, n in 4usize..16) {
        let uplinks = 2 * (n - 1);
        let tm = TrafficMatrix::gravity(n, 15.0, seed);
        let mesh = engineer(&tm, uplinks).unwrap();
        let placement = MeshPlacement::place(&mesh, uplinks, None).expect("degree ≤ switches");
        // Circuit count equals total trunks.
        let trunk_total: usize = (0..n)
            .map(|i| ((i + 1)..n).map(|j| mesh.trunks(i, j)).sum::<usize>())
            .sum();
        prop_assert_eq!(placement.circuit_count(), trunk_total);
        // Port-disjointness per switch (respecting leg orientation).
        let mut seen = std::collections::BTreeSet::new();
        for (&(i, j), legs) in &placement.trunks {
            for leg in legs {
                let (n, s) = if leg.flipped { (j, i) } else { (i, j) };
                prop_assert!(seen.insert((leg.ocs, true, n)));
                prop_assert!(seen.insert((leg.ocs, false, s)));
            }
        }
    }

    #[test]
    fn placement_hint_maximizes_stability(seed in 0u64..100) {
        // Re-placing the SAME mesh with itself as hint keeps every trunk
        // on its switch.
        let tm = TrafficMatrix::gravity(10, 12.0, seed);
        let mesh = engineer(&tm, 18).unwrap();
        let first = MeshPlacement::place(&mesh, 18, None).expect("places");
        let second = MeshPlacement::place(&mesh, 18, Some(&first)).expect("places");
        prop_assert_eq!(first, second);
    }

    #[test]
    fn uniform_mesh_uses_full_budget(n in 3usize..20, per_peer in 1usize..4) {
        let uplinks = per_peer * (n - 1);
        let mesh = Mesh::uniform(n, uplinks);
        for i in 0..n {
            prop_assert_eq!(mesh.degree(i), uplinks, "AB {}", i);
        }
        prop_assert!(mesh.connected());
    }

    #[test]
    fn te_throughput_never_below_uniform_minus_noise(seed in 0u64..60) {
        // TE may tie uniform on friendly matrices but must never lose
        // badly — the connectivity floor guarantees transit still works.
        let tm = TrafficMatrix::gravity(10, 40.0, seed);
        let uplinks = 18;
        let uni = flowsim::allocate(&Mesh::uniform(10, uplinks), &tm, 100.0).unwrap();
        let eng = flowsim::allocate(&engineer(&tm, uplinks).unwrap(), &tm, 100.0).unwrap();
        prop_assert!(
            eng.throughput >= 0.9 * uni.throughput,
            "TE {} vs uniform {}",
            eng.throughput,
            uni.throughput
        );
    }

    #[test]
    fn flow_rates_respect_demand(seed in 0u64..60, trunk in 50.0f64..200.0) {
        let tm = TrafficMatrix::hotspot(8, 30.0, 4, 10.0, seed);
        let mesh = Mesh::uniform(8, 14);
        let r = flowsim::allocate(&mesh, &tm, trunk).unwrap();
        for i in 0..8 {
            for j in 0..8 {
                prop_assert!(r.rate[i][j] <= tm.demand(i, j) + 1e-9);
                prop_assert!(r.rate[i][j] >= 0.0);
            }
        }
        prop_assert!(r.mean_fct >= 1.0 - 1e-9, "FCT proxy floor is 1 (fully satisfied)");
    }
}
