//! Determinism contract of the fabric-as-a-service layer (DESIGN §6.5).
//!
//! Three independent claims, each load-bearing for the sharded year-run:
//!
//! 1. **Split-anywhere arrivals** — arrival `i` is a pure function of
//!    `(seed, i)`, so generating any partition of `[0, n)` equals the
//!    monolithic stream (proptest over random split points).
//! 2. **Thread-count invariance** — `run_sharded` merges per-cell
//!    reports in shard order, so the report (and its serialized
//!    snapshot) is byte-identical at `LIGHTWAVE_THREADS` 1 vs 4.
//! 3. **Erlang B** — with the single-cube mix, `queue_limit = 0` and no
//!    preemption, each cell is an M/G/64/64 loss system, so measured
//!    blocking must track the Erlang B formula at the offered load.
//!
//! Tests use explicit `Pool::new(n)` handles rather than mutating
//! `LIGHTWAVE_THREADS` so they stay race-free under the parallel test
//! runner; the example's `--smoke` CI run covers the env-var path.

use lightwave::par::{plan_shards, Pool};
use lightwave::service::{
    arrival, erlang_b, run_cell, run_sharded, Mix, PolicyConfig, ServiceConfig, ServiceReport,
};
use lightwave::units::Nanos;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any two-way split of the arrival index space regenerates the
    /// monolithic stream exactly — the property that makes sharding a
    /// partitioning choice, not a semantic one.
    #[test]
    fn arrivals_split_anywhere(seed in any::<u64>(), n in 1u64..200, cut in 0u64..200) {
        let cut = cut.min(n);
        let whole: Vec<_> = (0..n).map(|i| arrival(seed, i, Mix::Production)).collect();
        let left: Vec<_> = (0..cut).map(|i| arrival(seed, i, Mix::Production)).collect();
        let right: Vec<_> = (cut..n).map(|i| arrival(seed, i, Mix::Production)).collect();
        let rejoined: Vec<_> = left.into_iter().chain(right).collect();
        prop_assert_eq!(whole, rejoined);
    }

    /// Shard-size choice changes cell boundaries (each cell is a fresh
    /// pod) but never loses or duplicates a request.
    #[test]
    fn any_shard_size_conserves_requests(shard_size in 1u64..97) {
        let cfg = ServiceConfig { requests: 96, shard_size, ..ServiceConfig::default() };
        let mut merged = ServiceReport::default();
        for s in plan_shards(cfg.requests, cfg.shard_size) {
            merged.merge(&run_cell(&cfg, s));
        }
        prop_assert_eq!(merged.submitted, 96);
        prop_assert_eq!(merged.offered() + merged.invalid, 96);
    }
}

#[test]
fn sharded_year_run_is_byte_identical_across_thread_counts() {
    let cfg = ServiceConfig {
        requests: 2_000,
        shard_size: 256,
        ..ServiceConfig::default()
    };
    let (one, ..) = run_sharded(&Pool::new(1), &cfg, |_| ());
    let (four, ..) = run_sharded(&Pool::new(4), &cfg, |_| ());
    assert_eq!(one, four);
    // And the serialized artifact — what the example's `cmp` gate and a
    // golden file actually store.
    let a = serde_json::to_string(&one.snapshot()).unwrap();
    let b = serde_json::to_string(&four.snapshot()).unwrap();
    assert_eq!(a.as_bytes(), b.as_bytes());
    assert_eq!(one.submitted, 2_000);
    assert!(one.completed() > 0, "the pod actually served work");
}

/// The single-cube loss configuration is textbook M/G/m/m: measured
/// blocking probability must land near Erlang B at both a low and a
/// moderate offered load (wide tolerances — 2k arrivals per point).
#[test]
fn blocking_tracks_erlang_b_in_loss_mode() {
    // Mean hold of the SingleCube mix is 100 ms over 64 servers.
    // offered erlangs E = hold / gap; pick gaps for E ≈ 32 and E ≈ 64.
    for (gap_ms, servers_load) in [(3u64, 100.0 / 3.0), (1, 100.0)] {
        let cfg = ServiceConfig {
            requests: 2_000,
            mean_gap: Nanos::from_millis(gap_ms),
            mix: Mix::SingleCube,
            policy: PolicyConfig {
                queue_limit: 0,
                preemption: false,
            },
            shard_size: 2_000, // one cell: blocking is a pod-level stat
            ..ServiceConfig::default()
        };
        let (report, ..) = run_sharded(&Pool::new(2), &cfg, |_| ());
        let measured = report.blocking_probability();
        let predicted = erlang_b(servers_load, 64);
        assert!(
            (measured - predicted).abs() < 0.03 + predicted * 0.35,
            "E={servers_load:.1}: measured {measured:.4} vs Erlang B {predicted:.4}"
        );
    }
}

/// At genuinely low load the system is lossless: Erlang B says ~0 and
/// the service agrees exactly.
#[test]
fn low_load_never_blocks() {
    let cfg = ServiceConfig {
        requests: 1_000,
        mean_gap: Nanos::from_millis(50), // E = 2 erlangs on 64 servers
        mix: Mix::SingleCube,
        policy: PolicyConfig {
            queue_limit: 0,
            preemption: false,
        },
        shard_size: 1_000,
        ..ServiceConfig::default()
    };
    let (report, ..) = run_sharded(&Pool::new(2), &cfg, |_| ());
    assert_eq!(report.blocked(), 0, "2 erlangs on 64 servers never blocks");
    assert!(erlang_b(2.0, 64) < 1e-12);
}
