//! Property tests for the Palomar OCS state machines.

use lightwave_ocs::{ConnectionState, Crossbar, PalomarOcs, PortMapping};
use lightwave_units::Nanos;
use proptest::prelude::*;

/// A random crossbar operation.
#[derive(Debug, Clone)]
enum Op {
    Connect(u16, u16),
    Disconnect(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..32, 0u16..32).prop_map(|(n, s)| Op::Connect(n, s)),
        (0u16..32).prop_map(Op::Disconnect),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any operation sequence the crossbar stays a partial bijection
    /// with a consistent reverse index.
    #[test]
    fn crossbar_invariants_under_random_ops(ops in proptest::collection::vec(op_strategy(), 0..60)) {
        let mut xb = Crossbar::new(32);
        for op in ops {
            match op {
                Op::Connect(n, s) => {
                    let _ = xb.connect(n, s);
                }
                Op::Disconnect(n) => {
                    let _ = xb.disconnect(n);
                }
            }
        }
        // Bijectivity: every connected south port has exactly one owner,
        // and the reverse index agrees with the forward map.
        let mapping = xb.mapping();
        let mut souths = std::collections::BTreeSet::new();
        for (n, s) in mapping.pairs() {
            prop_assert!(souths.insert(s), "south port {s} claimed twice");
            prop_assert_eq!(xb.south_owner(s), Some(n));
        }
        prop_assert_eq!(mapping.len(), xb.circuit_count());
    }

    /// delta_to is idempotent: applying the delta then diffing again
    /// yields an empty delta.
    #[test]
    fn crossbar_delta_idempotent(
        initial in proptest::collection::vec((0u16..24, 0u16..24), 0..12),
        target in proptest::collection::vec((0u16..24, 0u16..24), 0..12),
    ) {
        let mut xb = Crossbar::new(24);
        for (n, s) in initial {
            let _ = xb.connect(n, s);
        }
        let mut tgt = PortMapping::new();
        for (n, s) in target {
            let _ = tgt.insert(n, s);
        }
        let delta = xb.delta_to(&tgt);
        for &n in &delta.remove {
            xb.disconnect(n).expect("valid removal");
        }
        for &(n, s) in &delta.add {
            xb.connect(n, s).expect("valid add");
        }
        let second = xb.delta_to(&tgt);
        prop_assert!(second.remove.is_empty());
        prop_assert!(second.add.is_empty());
    }

    /// A switch that applies any valid mapping and settles reports every
    /// circuit Connected, and reapplying the same mapping disturbs nothing.
    #[test]
    fn palomar_settles_any_mapping(seed in 0u64..100, pairs in proptest::collection::vec((0u16..64, 64u16..128), 1..20)) {
        let mut tgt = PortMapping::new();
        for (n, s) in pairs {
            let _ = tgt.insert(n, s);
        }
        let mut ocs = PalomarOcs::new(0, seed);
        let delta = ocs.delta_to(&tgt).expect("valid mapping");
        ocs.apply_delta(&delta.add, &delta.remove).expect("valid delta");
        ocs.advance(Nanos::from_millis(500));
        for (n, _) in tgt.pairs() {
            prop_assert!(ocs.circuit_ready(n), "port {n} should be carrying");
        }
        let delta = ocs.delta_to(&tgt).expect("same mapping");
        let report = ocs.apply_delta(&delta.add, &delta.remove).expect("empty delta");
        prop_assert_eq!(report.added.len(), 0);
        prop_assert_eq!(report.removed.len(), 0);
        prop_assert_eq!(report.untouched, tgt.len());
        // Still carrying.
        for (n, _) in tgt.pairs() {
            prop_assert!(matches!(
                ocs.mapping().get(n).map(|_| ConnectionState::Connected),
                Some(ConnectionState::Connected)
            ));
        }
    }

    /// Insertion loss is stable and bounded for every path of a healthy
    /// switch.
    #[test]
    fn loss_bounded_everywhere(seed in 0u64..20, n in 0usize..136, s in 0usize..136) {
        let ocs = PalomarOcs::new(0, seed);
        let il = ocs.optical_core().insertion_loss(n, s);
        prop_assert!(il.db() > 0.3 && il.db() < 4.5, "loss {il} out of band");
        prop_assert_eq!(il, ocs.optical_core().insertion_loss(n, s));
    }
}
