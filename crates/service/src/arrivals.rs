//! The deterministic open-loop arrival stream.
//!
//! Every arrival is a **pure function of `(seed, index)`**: request `i`
//! seeds its own `StdRng` with `splitmix(seed ^ SERVICE_STREAM, i)` and
//! draws class, shape, hold and inter-arrival gap from it. No state
//! crosses requests, so generating indices `[0, n)` in any shard
//! partition equals the monolithic stream — the split-anywhere property
//! the sharded year-run and its proptest rely on.
//!
//! `SERVICE_STREAM` XORs the caller's seed before splitmix expansion —
//! the same stream-offset discipline `generate_degradation` uses — so
//! service arrivals never collide with the chaos fault stream or the
//! pool's own shard streams for the same seed.

use crate::intent::{Priority, SliceIntent};
use lightwave_par::splitmix;
use lightwave_units::Nanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream offset separating service arrivals from every other consumer
/// of the same seed (see module docs).
pub(crate) const SERVICE_STREAM: u64 = 0x5EB1_1CE0_0A5C_11E5;

/// Workload mix the stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The production blend: inference fleets (small, short, frequent),
    /// training jobs (large, long), maintenance windows (rare), and
    /// ~0.1% malformed intents that must die at validation.
    Production,
    /// Single-cube inference only, every intent valid — the M/G/64/64
    /// configuration whose blocking probability Erlang B predicts
    /// exactly (EXPERIMENTS.md `faas1`).
    SingleCube,
}

/// One generated arrival: the intent plus its inter-arrival gap in
/// unit-mean microseconds (the engine scales gaps by its configured mean
/// to set offered load; integer scaling keeps the stream deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Gap to the *previous* arrival, drawn Exp(1) in microseconds
    /// (mean 1_000_000).
    pub gap_unit_micros: u64,
    /// The request.
    pub intent: SliceIntent,
}

/// The canonical chips-per-dimension for a cube count, shared with the
/// chaos generator's shape menu.
pub fn chips_for_cubes(cubes: usize) -> [usize; 3] {
    match cubes {
        1 => [4, 4, 4],
        2 => [8, 4, 4],
        4 => [8, 8, 4],
        _ => [8, 8, 8],
    }
}

/// Exp(1) in integer microseconds via inverse CDF (never 0, so time
/// always advances between arrivals).
fn exp_unit_micros(rng: &mut StdRng) -> u64 {
    let u: f64 = rng.random_range(0.0f64..1.0);
    let micros = (-(1.0 - u).ln() * 1_000_000.0).ceil();
    (micros as u64).max(1)
}

/// Generates arrival `index` of `seed`'s stream — pure per index.
pub fn arrival(seed: u64, index: u64, mix: Mix) -> Arrival {
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ SERVICE_STREAM, index));
    let (class, mut chips, hold) = match mix {
        Mix::SingleCube => {
            let hold = Nanos::from_millis(rng.random_range(50..=150));
            (Priority::Inference, chips_for_cubes(1), hold)
        }
        Mix::Production => {
            let class = match rng.random_range(0..100u32) {
                0..=54 => Priority::Inference,
                55..=84 => Priority::Training,
                _ => Priority::Maintenance,
            };
            let (cubes, hold_ms) = match class {
                Priority::Inference => ([1, 1, 1, 2][rng.random_range(0..4usize)], 20..=120u64),
                Priority::Training => ([2, 4, 4, 8][rng.random_range(0..4usize)], 150..=1500),
                Priority::Maintenance => ([1, 2, 4][rng.random_range(0..3usize)], 80..=400),
            };
            let hold = Nanos::from_millis(rng.random_range(hold_ms));
            (class, chips_for_cubes(cubes), hold)
        }
    };
    let gap_unit_micros = exp_unit_micros(&mut rng);
    if mix == Mix::Production && rng.random_range(0..1024u32) == 0 {
        // A malformed intent: 6 chips is not a whole number of cubes.
        // Validation must catch it — this is the reject path's fuel.
        chips[0] = 6;
    }
    Arrival {
        gap_unit_micros,
        intent: SliceIntent {
            request: index,
            class,
            chips,
            hold,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_pure_per_index() {
        for i in [0u64, 1, 7, 1_000_003] {
            assert_eq!(
                arrival(42, i, Mix::Production),
                arrival(42, i, Mix::Production)
            );
        }
        assert_ne!(
            arrival(42, 5, Mix::Production),
            arrival(43, 5, Mix::Production),
            "seed must matter"
        );
    }

    #[test]
    fn production_mix_draws_every_class_and_some_invalid() {
        let mut seen = [0u64; 3];
        let mut invalid = 0u64;
        for i in 0..4096 {
            let a = arrival(7, i, Mix::Production);
            seen[a.intent.class.rank()] += 1;
            if a.intent.validate().is_err() {
                invalid += 1;
            }
            assert!(a.gap_unit_micros >= 1, "time always advances");
        }
        assert!(seen.iter().all(|&c| c > 0), "all classes present: {seen:?}");
        assert!(invalid > 0, "the reject path gets fuel");
        assert!(invalid < 40, "but only ~0.1%: {invalid}");
    }

    #[test]
    fn single_cube_mix_is_all_valid_inference() {
        for i in 0..512 {
            let a = arrival(9, i, Mix::SingleCube);
            assert_eq!(a.intent.class, Priority::Inference);
            assert_eq!(a.intent.validate().unwrap().cube_count(), 1);
        }
    }

    #[test]
    fn gaps_have_roughly_unit_mean() {
        let n = 8192u64;
        let total: u64 = (0..n)
            .map(|i| arrival(11, i, Mix::SingleCube).gap_unit_micros)
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (700_000.0..1_300_000.0).contains(&mean),
            "Exp(1) micros mean ≈ 1e6, got {mean}"
        );
    }
}
