//! Property-based tests on cross-crate invariants.

use lightwave::dcn::{flowsim, te, Mesh, TrafficMatrix};
use lightwave::fec::{ExtHamming, ReedSolomon};
use lightwave::ocs::{Crossbar, PortMapping};
use lightwave::superpod::slice::{Slice, SliceShape};
use lightwave::superpod::Torus;
use lightwave::units::math;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RS(31,17), read back from its own document, corrects any ≤ t random
    /// symbol corruption and counts exactly the errors injected.
    #[test]
    fn rs_roundtrip_any_correctable_pattern(
        seed in 0u64..1000,
        nerr in 0usize..=7,
    ) {
        use rand::{RngExt, SeedableRng};
        let doc = serde_json::to_string(&ReedSolomon::new(31, 17)).expect("a code serializes");
        let rs: ReedSolomon = serde_json::from_str(&doc).expect("its own document reads back");
        prop_assert_eq!(rs.t(), 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u16> = (0..rs.k()).map(|_| rng.random_range(0..1024u16)).collect();
        let cw = rs.encode(&data);
        let mut rx = cw.clone();
        let mut pos: Vec<usize> = (0..rs.n()).collect();
        for i in 0..nerr {
            let j = rng.random_range(i..pos.len());
            pos.swap(i, j);
            rx[pos[i]] ^= rng.random_range(1..1024u16);
        }
        prop_assert_eq!(rs.decode(&mut rx), Ok(nerr));
        prop_assert_eq!(rx, cw);
    }

    /// Extended Hamming: encode/extract is the identity; every single-bit
    /// error corrects; weight parity always even.
    #[test]
    fn hamming_invariants(data in 0u128..(1u128 << 64), flip in 0usize..128) {
        let code = ExtHamming;
        let cw = code.encode(data);
        prop_assert_eq!(code.extract_data(cw), data);
        prop_assert_eq!(cw.count_ones() % 2, 0, "codewords have even weight");
        let corrupted = cw ^ (1u128 << flip);
        match code.hard_decode(corrupted) {
            lightwave::fec::hamming::HardDecode::Corrected { codeword, .. } => {
                prop_assert_eq!(codeword, cw)
            }
            _ => prop_assert!(false, "single error must correct"),
        }
    }

    /// Crossbar delta application: applying delta_to(target) always yields
    /// exactly `target`, and unchanged circuits are disjoint from
    /// removed/added.
    #[test]
    fn crossbar_delta_reaches_target(
        initial in proptest::collection::vec((0u16..32, 0u16..32), 0..16),
        target in proptest::collection::vec((0u16..32, 0u16..32), 0..16),
    ) {
        let mut xb = Crossbar::new(32);
        for (n, s) in initial {
            let _ = xb.connect(n, s); // conflicts silently skipped
        }
        let mut tgt = PortMapping::new();
        for (n, s) in target {
            let _ = tgt.insert(n, s); // conflicts silently skipped
        }
        let delta = xb.delta_to(&tgt);
        for &n in &delta.remove {
            xb.disconnect(n).expect("removal is valid");
        }
        for &(n, s) in &delta.add {
            xb.connect(n, s).expect("addition is valid after removals");
        }
        prop_assert_eq!(xb.mapping(), tgt);
        for (n, _) in &delta.unchanged {
            prop_assert!(!delta.remove.contains(n));
            prop_assert!(!delta.add.iter().any(|(an, _)| an == n));
        }
    }

    /// Slice wiring: the circuits of any slice are port-disjoint per OCS
    /// (the property that makes arbitrary concurrent slices composable).
    #[test]
    fn slice_circuits_are_port_disjoint(
        p in 1usize..=4, q in 1usize..=4, r in 1usize..=4,
        offset in 0u8..16,
    ) {
        let shape = SliceShape::new(4 * p, 4 * q, 4 * r).expect("valid");
        let cubes: Vec<u8> = (0..shape.cube_count() as u8).map(|c| c + offset).collect();
        prop_assume!(cubes.iter().all(|&c| c < 64));
        let slice = Slice::new(shape, cubes).expect("valid");
        let mut seen = std::collections::BTreeSet::new();
        for hop in slice.required_hops() {
            for c in hop.circuits() {
                prop_assert!(seen.insert((c.ocs, true, c.north)), "north reuse");
                prop_assert!(seen.insert((c.ocs, false, c.south)), "south reuse");
            }
        }
    }

    /// Torus routing: path length equals torus distance, for all pairs.
    #[test]
    fn torus_route_length_is_distance(
        a in 0usize..8, b in 0usize..8, c in 0usize..8,
        x in 0usize..8, y in 0usize..8, z in 0usize..8,
    ) {
        let t = Torus::new(SliceShape::new(8, 8, 8).expect("valid"));
        let from = lightwave::superpod::torus::Chip { coords: [a, b, c] };
        let to = lightwave::superpod::torus::Chip { coords: [x, y, z] };
        let path = t.route(from, to);
        prop_assert_eq!(path.len(), t.distance(from, to));
        if let Some(last) = path.last() {
            prop_assert_eq!(*last, to);
        } else {
            prop_assert_eq!(from, to);
        }
    }

    /// TE meshes always respect budgets and stay connected, whatever the
    /// demand looks like.
    #[test]
    fn te_mesh_invariants(seed in 0u64..500, n in 4usize..14) {
        let tm = TrafficMatrix::gravity(n, 10.0, seed);
        let mesh = te::engineer(&tm, 2 * (n - 1)).unwrap();
        prop_assert!(mesh.within_budget());
        prop_assert!(mesh.connected());
    }

    /// Flow allocation never manufactures throughput: per-pair rate ≤
    /// demand, total ≤ offered.
    #[test]
    fn flow_allocation_is_conservative(seed in 0u64..200) {
        let tm = TrafficMatrix::gravity(8, 60.0, seed);
        let mesh = Mesh::uniform(8, 14);
        let r = flowsim::allocate(&mesh, &tm, 100.0).unwrap();
        prop_assert!(r.throughput <= r.offered + 1e-6);
        for i in 0..8 {
            for j in 0..8 {
                prop_assert!(r.rate[i][j] <= tm.demand(i, j) + 1e-9);
            }
        }
    }

    /// Binomial tail is a valid, monotone-in-k probability.
    #[test]
    fn binomial_tail_sane(n in 1u64..200, k in 0u64..200, p in 0.0f64..1.0) {
        prop_assume!(k <= n);
        let t = math::binomial_tail_gt(n, k, p);
        prop_assert!((0.0..=1.0).contains(&t));
        if k > 0 {
            prop_assert!(math::binomial_tail_gt(n, k - 1, p) >= t - 1e-12);
        }
    }

    /// Q-function inverse really inverts over the BER range of interest.
    #[test]
    fn q_inverse_inverts(exp in 1.0f64..12.0) {
        let p = 10f64.powf(-exp) * 0.5;
        let x = math::q_inverse(p);
        let back = math::q_function(x);
        prop_assert!((back.ln() - p.ln()).abs() < 1e-6);
    }
}

// ── telemetry invariants (alarm hysteresis, histogram merge) ──────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Debounce/hysteresis never drops a Critical alarm and never softens
    /// an incident that has gone Critical, under arbitrary interleavings
    /// of causes, switches, severities, and clock advances.
    #[test]
    fn critical_alarms_never_dropped_or_downgraded(
        steps in proptest::collection::vec(
            (0u64..5_000, 0u32..3, 0u8..7, 0u8..3), 1..80),
    ) {
        use lightwave::telemetry::{
            AlarmAggregator, AlarmCause, AlarmRecord, Severity,
        };
        use lightwave::units::Nanos;
        let mut agg = AlarmAggregator::new();
        let mut now = Nanos(0);
        let mut critical_ids = Vec::new();
        for &(dt_ms, switch, cause_sel, sev_sel) in &steps {
            now = Nanos(now.0 + dt_ms * 1_000_000);
            let cause = match cause_sel {
                0 => AlarmCause::MirrorFailed { north_die: true, port: 3, spare_used: false },
                1 => AlarmCause::AlignmentTimeout { north: 5 },
                2 => AlarmCause::FruFailed { slot: 2 },
                3 => AlarmCause::ChassisDown,
                4 => AlarmCause::HighLoss { north: 1, south: 2, loss_mdb: 4500 },
                5 => AlarmCause::RateFallback { port: 9 },
                _ => AlarmCause::Straggler { dim: 1 },
            };
            let severity = match sev_sel {
                0 => Severity::Info,
                1 => Severity::Warning,
                _ => Severity::Critical,
            };
            let outcome = agg.ingest(AlarmRecord { at: now, severity, switch, cause });
            let inc = agg
                .incident(outcome.incident())
                .expect("every ingest lands in an incident");
            if severity == Severity::Critical {
                prop_assert_eq!(inc.severity, Severity::Critical);
                critical_ids.push(inc.id);
            }
            if dt_ms % 7 == 0 {
                agg.advance(now); // exercise clear + debounce revival
            }
        }
        // Hysteresis may CLEAR a Critical incident; it must never soften it.
        for id in critical_ids {
            prop_assert_eq!(agg.incident(id).unwrap().severity, Severity::Critical);
        }
        // Conservation: every record pages or is absorbed, exactly once.
        prop_assert_eq!(agg.pages() + agg.suppressed(), agg.ingested());
        prop_assert_eq!(agg.pages() as usize, agg.incidents().len());
        let absorbed: u64 = agg
            .incidents()
            .iter()
            .map(|i| (i.occurrences - 1) + i.correlated)
            .sum();
        prop_assert_eq!(absorbed, agg.suppressed());
    }

    /// LogHistogram merging is exact: any chunking merged in any order is
    /// bit-identical to recording sequentially, and merge is associative.
    /// (This is what lets fleet roll-ups combine per-switch histograms.)
    #[test]
    fn histogram_merge_exact_any_order(
        bits in proptest::collection::vec(0u64..u64::MAX, 0..64),
        chunk in 1usize..8,
    ) {
        use lightwave::telemetry::LogHistogram;
        // Raw bit patterns cover normals, subnormals, zeros, NaNs, negatives.
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut seq = LogHistogram::new();
        for &v in &values {
            seq.record(v);
        }
        let parts: Vec<LogHistogram> = values
            .chunks(chunk)
            .map(|c| {
                let mut h = LogHistogram::new();
                for &v in c {
                    h.record(v);
                }
                h
            })
            .collect();
        let mut rev = LogHistogram::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        prop_assert_eq!(&rev, &seq);
        // Associativity over a three-way split.
        if parts.len() >= 3 {
            let (a, b, c) = (&parts[0], &parts[1], &parts[2]);
            let mut left = a.clone();
            left.merge(b);
            left.merge(c);
            let mut bc = b.clone();
            bc.merge(c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);
        }
        // Snapshot/restore is lossless.
        prop_assert_eq!(seq.snapshot().restore(), Some(seq));
    }

    /// The two SLO views agree: the same `(at, up)` sequence for one
    /// object gives `SloTracker`'s downtime and `BurnRateLedger`'s spend
    /// the same value at any `now`, mid-sequence or after it. (Chaos
    /// invariant (d) holds only the tracker to the fault timeline.)
    #[test]
    fn slo_tracker_downtime_equals_burn_ledger_spend(
        steps in proptest::collection::vec((0u64..5_000_000_000, any::<bool>()), 1..40),
        probe in 0usize..40,
        after in 0u64..5_000_000_000,
    ) {
        use lightwave::telemetry::{BurnRateLedger, SloTracker};
        use lightwave::units::Nanos;
        let mut tracker = SloTracker::default();
        let mut ledger = BurnRateLedger::default();
        let agree = |tracker: &SloTracker, ledger: &BurnRateLedger, now: Nanos| {
            let downtime = tracker.report(now).objects[0].downtime;
            let spent = ledger.assess(now).pods[0].spent_nanos;
            prop_assert_eq!(downtime.0, spent, "at {:?}", now);
            Ok(())
        };
        let mut at = Nanos(0);
        for (i, &(dt, up)) in steps.iter().enumerate() {
            at += Nanos(dt);
            tracker.observe(at, "pod-0", up);
            ledger.observe(at, 0, up);
            if i == probe % steps.len() {
                agree(&tracker, &ledger, at + Nanos(after / 2))?;
            }
        }
        agree(&tracker, &ledger, at + Nanos(after))?;
    }
}
