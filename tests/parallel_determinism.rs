//! Cross-crate determinism contract of the `lightwave-par` engine.
//!
//! The same seed must produce **byte-identical** results at any worker
//! count — for the Monte-Carlo BER path, the pool-availability estimate
//! and the fleet census. Thread count is a throughput knob, never a
//! results knob.
//!
//! Tests use explicit `Pool::new(n)` handles rather than mutating
//! `LIGHTWAVE_THREADS` so they stay race-free under the parallel test
//! runner; one dedicated test covers the env-var path.

use lightwave::availability::{
    cube_availability, monte_carlo_pool_availability, POOL_SHARD_TRIALS,
};
use lightwave::optics::ber::{mpi_db, Pam4Receiver};
use lightwave::optics::montecarlo::{simulate_ber_par, McBerResult, DEFAULT_SHARD_SYMBOLS};
use lightwave::par::{plan_shards, Pool};
use lightwave::transceiver::fleet::fleet_census;
use lightwave::transceiver::ModuleFamily;
use lightwave::units::{Availability, Dbm};
use proptest::prelude::*;

const SEED: u64 = 0xC0FF_EE00;

fn mc_ber_at(threads: usize) -> McBerResult {
    let pool = Pool::new(threads);
    let rx = Pam4Receiver::cwdm4_50g();
    // Span several shards plus a remainder so the odd tail is exercised.
    let symbols = DEFAULT_SHARD_SYMBOLS * 2 + 977;
    simulate_ber_par(&pool, &rx, Dbm(-13.0), mpi_db(-30.0), None, symbols, SEED).0
}

fn availability_at(threads: usize) -> f64 {
    let pool = Pool::new(threads);
    let ca = cube_availability(Availability::new(0.999));
    monte_carlo_pool_availability(&pool, ca, 48, POOL_SHARD_TRIALS * 3 + 1, SEED)
}

#[test]
fn mc_ber_result_is_byte_identical_across_thread_counts() {
    let one = mc_ber_at(1);
    let four = mc_ber_at(4);
    assert_eq!(one, four);
    assert_eq!(one.ber.0.to_bits(), four.ber.0.to_bits());
    // And the serialized form — what a golden file would actually store.
    let a = serde_json::to_string(&one).unwrap();
    let b = serde_json::to_string(&four).unwrap();
    assert_eq!(a.as_bytes(), b.as_bytes());
}

#[test]
fn pool_availability_estimate_is_byte_identical_across_thread_counts() {
    assert_eq!(availability_at(1).to_bits(), availability_at(4).to_bits());
    assert_eq!(availability_at(2).to_bits(), availability_at(4).to_bits());
}

#[test]
fn fleet_census_is_identical_across_thread_counts() {
    let family = ModuleFamily::Cwdm4Bidi;
    let one = fleet_census(&Pool::new(1), 130, family, SEED);
    let four = fleet_census(&Pool::new(4), 130, family, SEED);
    assert_eq!(one.samples, four.samples);
    assert_eq!(one.violations, four.violations);
}

/// The batched MC kernel's noise block (PR 9) must be invisible to
/// results: a symbol count that divides into neither the shard size nor
/// `NOISE_BLOCK_SYMBOLS` — so every shard ends mid-block and the last
/// shard is an odd remainder — produces byte-identical results at 1 and
/// 4 workers, and equals the pre-batching reference loop exactly.
#[test]
fn odd_remainder_noise_blocks_are_byte_identical_across_thread_counts() {
    use lightwave::optics::montecarlo::{reference, NOISE_BLOCK_SYMBOLS};
    let rx = Pam4Receiver::cwdm4_50g();
    // 2 full shards + a tail that is itself not a multiple of the noise
    // block (and smaller than one block would be a degenerate case, so
    // also cross one block boundary inside the tail).
    assert_ne!(DEFAULT_SHARD_SYMBOLS % NOISE_BLOCK_SYMBOLS, 1);
    let symbols = DEFAULT_SHARD_SYMBOLS * 2 + NOISE_BLOCK_SYMBOLS + 1313;
    let run = |threads: usize| {
        let pool = Pool::new(threads);
        simulate_ber_par(&pool, &rx, Dbm(-12.5), mpi_db(-32.0), None, symbols, SEED).0
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four);
    assert_eq!(
        serde_json::to_string(&one).unwrap().as_bytes(),
        serde_json::to_string(&four).unwrap().as_bytes()
    );
    // And both equal the frozen scalar loop, shard for shard.
    let ref_pool = Pool::new(4);
    let reference = reference::simulate_ber_par(
        &ref_pool,
        &rx,
        Dbm(-12.5),
        mpi_db(-32.0),
        None,
        symbols,
        SEED,
    )
    .0;
    assert_eq!(one, reference);
}

/// `LIGHTWAVE_THREADS` selects the pool width without changing results.
/// (The only test that touches the env var; explicit pools everywhere else.)
#[test]
fn env_var_selects_pool_width() {
    std::env::set_var(lightwave::par::THREADS_ENV, "3");
    let pool = Pool::from_env();
    std::env::remove_var(lightwave::par::THREADS_ENV);
    assert_eq!(pool.threads(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard-merged trial counts equal the monolithic total for arbitrary
    /// (n, shard_size): no trial is dropped or double-run, remainders
    /// included.
    #[test]
    fn shard_merge_of_trial_counts_equals_monolithic(
        n in 1u64..5_000,
        shard_size in 1u64..600,
        threads in 1usize..6,
    ) {
        let shards = plan_shards(n, shard_size);
        prop_assert_eq!(shards.iter().map(|s| s.len).sum::<u64>(), n);

        let pool = Pool::new(threads);
        let (count, _) = pool.run_trials(SEED, n, shard_size, |_rng, _i| 1u64, |a, b| a + b);
        prop_assert_eq!(count, n);

        // Integer merges are associative, so the per-index payload sum is
        // also shard-size invariant: Σ i over 0..n, any decomposition.
        let (sum, _) = pool.run_trials(SEED, n, shard_size, |_rng, i| i, |a, b| a + b);
        prop_assert_eq!(sum, n * (n - 1) / 2);
    }

    /// The f64 contract: at a *fixed* shard size, any worker count gives
    /// bit-identical accumulations (merge order is pinned to shard index).
    #[test]
    fn f64_accumulation_thread_count_invariant(
        n in 1u64..3_000,
        shard_size in 1u64..400,
    ) {
        use rand::RngExt;
        let run = |threads: usize| {
            Pool::new(threads)
                .run_trials(SEED, n, shard_size, |rng, _| rng.random::<f64>(), |a, b| a + b)
                .0
        };
        let base = run(1);
        for threads in [2usize, 4, 7] {
            prop_assert_eq!(base.to_bits(), run(threads).to_bits());
        }
    }
}
