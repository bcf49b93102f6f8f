//! # lightwave-par
//!
//! A small, dependency-free deterministic parallel execution engine for the
//! workspace's evaluation-scale loops: symbol-level Monte-Carlo BER runs
//! (Fig. 11a), pool-availability Monte Carlo (Fig. 15), and fleet-wide
//! transceiver/OCS censuses (Fig. 13). No rayon, no crossbeam — a scoped
//! `std::thread` worker pool over a shared atomic work index.
//!
//! ## The determinism contract
//!
//! Parallelism must never change an answer. The engine guarantees that the
//! same seed yields **bit-identical** output at any thread count — including
//! `f64` accumulations — by construction:
//!
//! 1. Work is split into **fixed-size shards** by [`plan_shards`], a pure
//!    function of `(n, shard_size)`. Thread count never influences the
//!    decomposition; the last shard carries the remainder when `n` is not
//!    divisible by `shard_size`, so no trial is ever dropped.
//! 2. Each shard gets its own generator, derived as
//!    `StdRng::seed_from_u64(splitmix(seed, shard.index))` — independent
//!    streams, no draw ever crosses a shard boundary.
//! 3. Shard results are buffered per shard and **merged in shard-index
//!    order** on the calling thread after all workers finish. Floating-point
//!    reduction is therefore always the same left fold over the same
//!    per-shard values in the same order, no matter which worker computed
//!    which shard or in what order they completed.
//!
//! The contract is *thread-count* invariance at a fixed `shard_size`, not
//! shard-size invariance: changing `shard_size` re-partitions the RNG
//! streams and regroups the f64 fold, which is a different (equally valid,
//! equally deterministic) estimate. Integer merges (error counts, trial
//! tallies) are associative and therefore also shard-size invariant — the
//! property tests pin both facts.
//!
//! ## Thread count
//!
//! [`Pool::from_env`] honours the `LIGHTWAVE_THREADS` environment variable
//! and falls back to [`std::thread::available_parallelism`]. Setting
//! `LIGHTWAVE_THREADS=1` reproduces any parallel run exactly.
//!
//! ```
//! use lightwave_par::Pool;
//!
//! // Estimate π: 4 · P(point in quarter circle). Same answer at any
//! // thread count.
//! let hits = |pool: &Pool| {
//!     pool.run_trials(42, 100_000, 4_096, |rng, _trial| {
//!         use rand::RngExt;
//!         let (x, y): (f64, f64) = (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
//!         u64::from(x * x + y * y <= 1.0)
//!     }, |a, b| a + b).0
//! };
//! assert_eq!(hits(&Pool::new(1)), hits(&Pool::new(4)));
//! let pi = 4.0 * hits(&Pool::from_env()) as f64 / 100_000.0;
//! assert!((pi - std::f64::consts::PI).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instrument;

use lightwave_telemetry::MetricsRegistry;
use lightwave_units::Nanos;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable controlling the worker count ([`Pool::from_env`]).
pub const THREADS_ENV: &str = "LIGHTWAVE_THREADS";

/// SplitMix64 finalizer: a bijective avalanche mix of 64 bits.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for shard `shard_index` of a run seeded with `seed`.
///
/// Two SplitMix64 rounds over `(seed, index)` so that neighbouring shard
/// indices (and neighbouring user seeds) land in well-separated regions of
/// the generator's state space. The shard generator is then
/// `StdRng::seed_from_u64(splitmix(seed, shard_index))`, which itself runs
/// SplitMix64 expansion — three avalanche layers between `seed + 1` shards
/// and `seed` shards.
pub fn splitmix(seed: u64, shard_index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(shard_index))
}

/// One contiguous slice of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// Shard number (0-based); also the RNG derivation index.
    pub index: u64,
    /// Global index of the shard's first trial.
    pub start: u64,
    /// Trials in this shard (the last shard carries the remainder).
    pub len: u64,
}

/// Splits `n` trials into shards of `shard_size`, the last shard carrying
/// the remainder (`n % shard_size` extra trials) so every trial runs
/// exactly once and no estimate is silently biased by a dropped tail.
///
/// A pure function of `(n, shard_size)` — thread count never changes the
/// decomposition, which is the root of the determinism contract.
///
/// # Panics
/// Panics if `n == 0` or `shard_size == 0`.
pub fn plan_shards(n: u64, shard_size: u64) -> Vec<Shard> {
    assert!(n > 0, "cannot shard an empty run");
    assert!(shard_size > 0, "shard size must be positive");
    let count = (n / shard_size).max(1);
    (0..count)
        .map(|i| {
            let start = i * shard_size;
            let len = if i + 1 == count {
                n - start
            } else {
                shard_size
            };
            Shard {
                index: i,
                start,
                len,
            }
        })
        .collect()
}

/// Parses a thread-count override (the `LIGHTWAVE_THREADS` value): a
/// positive integer wins; absent, empty, zero, or unparsable falls back to
/// `default`.
pub fn parse_threads(raw: Option<&str>, default: usize) -> usize {
    match raw.map(str::trim) {
        Some(s) if !s.is_empty() => match s.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default,
        },
        _ => default,
    }
}

/// Wall-clock observations from one engine run — fuel for telemetry.
///
/// The *results* of a run are deterministic; these timings are not (they
/// measure this machine, this run). Keep them out of golden exports and
/// byte-identical comparisons; [`RunStats::record_into`] is for live
/// dashboards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Shards executed (= planned: the pool never drops work).
    pub shards: u64,
    /// Worker threads used (≤ pool size; never more than shards).
    pub workers: usize,
    /// Wall-clock duration of the run, in nanoseconds.
    pub wall_nanos: u64,
    /// Per-worker busy time (inside shard closures), in nanoseconds.
    pub busy_nanos: Vec<u64>,
}

impl RunStats {
    /// Fraction of worker wall-time spent inside shard closures, in
    /// `[0, 1]`. Near 1.0 means the pool scales; low values mean shards
    /// are too small for the dispatch overhead or workers starved.
    pub fn utilization(&self) -> f64 {
        let busy: u64 = self.busy_nanos.iter().sum();
        let capacity = self.wall_nanos.saturating_mul(self.workers as u64);
        if capacity == 0 {
            return 0.0;
        }
        (busy as f64 / capacity as f64).min(1.0)
    }

    /// Records the run into a [`MetricsRegistry`]: the
    /// `par_shards_completed` counter and the `par_workers` /
    /// `par_worker_utilization` gauges, stamped at sim-time `at`.
    pub fn record_into(&self, metrics: &mut MetricsRegistry, at: Nanos) {
        let shards = metrics.counter("par_shards_completed", &[]);
        metrics.inc(shards, at, self.shards);
        let workers = metrics.gauge("par_workers", &[]);
        metrics.set(workers, at, self.workers as f64);
        let util = metrics.gauge("par_worker_utilization", &[]);
        metrics.set(util, at, self.utilization());
    }
}

/// A deterministic scoped-thread worker pool.
///
/// Holds no threads between runs: each `run_*` call opens a
/// [`std::thread::scope`], spawns up to `threads` workers that pull shard
/// indices from a shared atomic counter, and joins them before returning.
/// All result merging happens on the calling thread, in shard-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized from `LIGHTWAVE_THREADS`, falling back to the
    /// machine's available parallelism.
    pub fn from_env() -> Pool {
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let raw = std::env::var(THREADS_ENV).ok();
        Pool::new(parse_threads(raw.as_deref(), default))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `n` trials split into `shard_size` shards, one closure call
    /// **per shard**: `run_shard(rng, shard)` owns the shard's whole trial
    /// range, so per-run state (e.g. a wandering interferer phase) can
    /// persist across trials within a shard. Shard results merge in
    /// shard-index order.
    ///
    /// This is the engine's core primitive; [`Pool::run_trials`] is the
    /// per-trial convenience over it.
    pub fn run_shards<T, F, M>(
        &self,
        seed: u64,
        n: u64,
        shard_size: u64,
        run_shard: F,
        mut merge: M,
    ) -> (T, RunStats)
    where
        T: Send,
        F: Fn(&mut StdRng, Shard) -> T + Sync,
        M: FnMut(T, T) -> T,
    {
        let shards = plan_shards(n, shard_size);
        let (slots, stats) = self.execute(seed, &shards, &run_shard);
        let mut results = slots.into_iter().map(|r| r.expect("every shard ran"));
        let mut acc = results.next().expect("at least one shard");
        for r in results {
            acc = merge(acc, r);
        }
        (acc, stats)
    }

    /// Runs `n` trials with one closure call **per trial**:
    /// `per_trial(rng, global_trial_index)`. Within a shard, trial results
    /// fold left-to-right through `merge`; shards then merge in index
    /// order. `merge` must therefore be shareable across workers (`Sync`).
    pub fn run_trials<T, F, M>(
        &self,
        seed: u64,
        n: u64,
        shard_size: u64,
        per_trial: F,
        merge: M,
    ) -> (T, RunStats)
    where
        T: Send,
        F: Fn(&mut StdRng, u64) -> T + Sync,
        M: Fn(T, T) -> T + Sync,
    {
        let merge_ref = &merge;
        self.run_shards(
            seed,
            n,
            shard_size,
            |rng, shard| {
                let mut acc = per_trial(rng, shard.start);
                for trial in shard.start + 1..shard.start + shard.len {
                    acc = merge_ref(acc, per_trial(rng, trial));
                }
                acc
            },
            merge_ref,
        )
    }

    /// Maps every item through `map(item, index)` on the pool and reduces
    /// the results **strictly in item order** — the reduction grouping is
    /// identical to a serial left fold regardless of thread count or
    /// internal chunking. Returns `None` for an empty slice.
    pub fn map_reduce<I, T, F, M>(
        &self,
        items: &[I],
        map: F,
        mut reduce: M,
    ) -> (Option<T>, RunStats)
    where
        I: Sync,
        T: Send,
        F: Fn(&I, usize) -> T + Sync,
        M: FnMut(T, T) -> T,
    {
        if items.is_empty() {
            return (
                None,
                RunStats {
                    shards: 0,
                    workers: 0,
                    wall_nanos: 0,
                    busy_nanos: Vec::new(),
                },
            );
        }
        // Chunk for dispatch locality only; results are stored per item, so
        // the reduction below never sees chunk boundaries.
        let chunk = (items.len() / (self.threads * 8)).max(1);
        let shards = plan_shards(items.len() as u64, chunk as u64);
        let run = |_rng: &mut StdRng, shard: Shard| {
            (shard.start..shard.start + shard.len)
                .map(|i| map(&items[i as usize], i as usize))
                .collect::<Vec<T>>()
        };
        let (slots, stats) = self.execute(0, &shards, &run);
        let mut per_item = slots.into_iter().flat_map(|r| r.expect("every chunk ran"));
        let mut acc = per_item.next().expect("non-empty input");
        for r in per_item {
            acc = reduce(acc, r);
        }
        (Some(acc), stats)
    }

    /// Executes planned shards on the pool: workers pull shard indices from
    /// a shared atomic counter; each shard gets its derived generator (RNG-
    /// free map work simply never draws). Returns one slot per shard, in
    /// shard-index order, plus timing stats.
    fn execute<T, F>(&self, seed: u64, shards: &[Shard], run: &F) -> (Vec<Option<T>>, RunStats)
    where
        T: Send,
        F: Fn(&mut StdRng, Shard) -> T + Sync,
    {
        let workers = self.threads.min(shards.len());
        let started = Instant::now();
        let slots: Vec<Mutex<Option<T>>> = shards.iter().map(|_| Mutex::new(None)).collect();
        let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let next = AtomicUsize::new(0);

        let work = |worker: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&shard) = shards.get(i) else { break };
            let mut rng = StdRng::seed_from_u64(splitmix(seed, shard.index));
            let t0 = Instant::now();
            let result = run(&mut rng, shard);
            busy[worker].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            *slots[i].lock().expect("slot lock never poisoned") = Some(result);
        };

        if workers <= 1 {
            work(0);
        } else {
            std::thread::scope(|s| {
                for w in 0..workers {
                    s.spawn(move || work(w));
                }
            });
        }

        let stats = RunStats {
            shards: shards.len() as u64,
            workers,
            wall_nanos: started.elapsed().as_nanos() as u64,
            busy_nanos: busy.into_iter().map(AtomicU64::into_inner).collect(),
        };
        let results = slots
            .into_iter()
            .map(|m| m.into_inner().expect("slot lock never poisoned"))
            .collect();
        (results, stats)
    }
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn shard_plan_covers_every_trial_with_remainder_in_last() {
        let shards = plan_shards(10_007, 1_000);
        assert_eq!(shards.len(), 10);
        assert_eq!(
            shards[0],
            Shard {
                index: 0,
                start: 0,
                len: 1_000
            }
        );
        assert_eq!(
            *shards.last().expect("non-empty"),
            Shard {
                index: 9,
                start: 9_000,
                len: 1_007
            }
        );
        let total: u64 = shards.iter().map(|s| s.len).sum();
        assert_eq!(total, 10_007);
    }

    #[test]
    fn short_runs_get_one_shard() {
        let shards = plan_shards(7, 1_000);
        assert_eq!(
            shards,
            vec![Shard {
                index: 0,
                start: 0,
                len: 7
            }]
        );
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn zero_trials_rejected() {
        let _ = plan_shards(0, 10);
    }

    #[test]
    fn thread_parsing() {
        assert_eq!(parse_threads(Some("4"), 8), 4);
        assert_eq!(parse_threads(Some(" 2 "), 8), 2);
        assert_eq!(parse_threads(Some("0"), 8), 8);
        assert_eq!(parse_threads(Some("many"), 8), 8);
        assert_eq!(parse_threads(Some(""), 8), 8);
        assert_eq!(parse_threads(None, 8), 8);
    }

    #[test]
    fn splitmix_separates_neighbouring_shards() {
        let a = splitmix(42, 0);
        let b = splitmix(42, 1);
        let c = splitmix(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Avalanche: neighbouring indices differ in many bits.
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn trial_counts_exact_for_odd_n() {
        // Regression for the remainder bias: every trial runs exactly once.
        for (n, size) in [(10_007u64, 1_000u64), (5, 8), (64, 64), (65, 64), (129, 64)] {
            let (ran, _) = Pool::new(3).run_trials(1, n, size, |_rng, _i| 1u64, |a, b| a + b);
            assert_eq!(ran, n, "n={n} shard_size={size}");
        }
    }

    #[test]
    fn every_global_index_visits_once_in_order() {
        let (indices, _) = Pool::new(3).run_trials(
            9,
            1_000,
            64,
            |_rng, i| vec![i],
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        assert_eq!(indices, (0..1_000).collect::<Vec<u64>>());
    }

    #[test]
    fn f64_accumulation_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            Pool::new(threads)
                .run_trials(
                    7,
                    50_000,
                    512,
                    |rng, _| rng.random_range(0.0f64..1.0),
                    |a, b| a + b,
                )
                .0
        };
        let serial = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                serial.to_bits(),
                run(threads).to_bits(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn map_reduce_preserves_item_order_and_serial_grouping() {
        let items: Vec<f64> = (0..997).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let serial = items
            .iter()
            .copied()
            .reduce(|a, b| a + b)
            .expect("non-empty");
        for threads in [1, 2, 4] {
            let (sum, stats) = Pool::new(threads).map_reduce(&items, |&x, _| x, |a, b| a + b);
            assert_eq!(sum.expect("non-empty").to_bits(), serial.to_bits());
            assert!(stats.shards > 0);
        }
    }

    #[test]
    fn map_reduce_empty_is_none() {
        let (sum, stats) = Pool::new(4).map_reduce::<u64, u64, _, _>(&[], |&x, _| x, |a, b| a + b);
        assert_eq!(sum, None);
        assert_eq!(stats.shards, 0);
    }

    #[test]
    fn stats_count_shards_and_workers() {
        let (_, stats) = Pool::new(4).run_trials(3, 1_000, 100, |_rng, _| 1u64, |a, b| a + b);
        assert_eq!(stats.shards, 10);
        assert!(stats.workers <= 4 && stats.workers >= 1);
        assert_eq!(stats.busy_nanos.len(), stats.workers);
        let u = stats.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
    }

    #[test]
    fn workers_never_exceed_shards() {
        let (_, stats) = Pool::new(16).run_trials(10, 10, 100, |_rng, _| 1u64, |a, b| a + b);
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn stats_record_into_metrics() {
        let stats = RunStats {
            shards: 12,
            workers: 4,
            wall_nanos: 1_000,
            busy_nanos: vec![900, 800, 850, 950],
        };
        let mut m = MetricsRegistry::new();
        stats.record_into(&mut m, Nanos::from_millis(5));
        let shards = m.counter("par_shards_completed", &[]);
        assert_eq!(m.counter_value(shards), 12);
        let util = m.gauge("par_worker_utilization", &[]);
        assert!((m.gauge_value(util) - 0.875).abs() < 1e-12);
    }
}
