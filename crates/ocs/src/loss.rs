//! Per-path insertion and return loss of the optical core (Fig. 10).
//!
//! §4.1.1: "Insertion losses are typically less than 2 dB for all 136×136
//! permutations of connectivity. The tail in the distributions is nominally
//! due to fiber splice and connector loss variation. Return loss caused by
//! reflections is typically −46 dB, with a nominal specification of less
//! than −38 dB. The major components of optical reflection come from the
//! fiber collimators."
//!
//! The model composes a path loss from: the North-port collimator, the
//! mirror on each die serving the path, the South-port collimator, plus a
//! small pairwise residual (pointing-dependent coupling) and an occasional
//! splice-variation outlier that produces the histogram's tail.

use crate::mems::{DieYieldError, MemsDie};
use lightwave_units::Db;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// Per-port fixed optical characteristics, sampled at manufacturing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PortOptics {
    /// Collimator coupling loss, dB.
    pub collimator_loss_db: f64,
    /// Port return loss, dB (negative).
    pub return_loss_db: f64,
}

/// The optical core: two dies plus the collimator arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpticalCore {
    seed: u64,
    /// MEMS die on the North side.
    pub die_north: MemsDie,
    /// MEMS die on the South side.
    pub die_south: MemsDie,
    north_ports: Vec<PortOptics>,
    south_ports: Vec<PortOptics>,
    /// As-built per-port mirror loss (north die), the anomaly baseline.
    as_built_north: Vec<f64>,
    /// As-built per-port mirror loss (south die).
    as_built_south: Vec<f64>,
}

/// Return-loss specification limit from the paper, dB.
pub const RETURN_LOSS_SPEC_DB: f64 = -38.0;

/// A core is manufactured from three generators of its own — one per die,
/// one for the port optics — each seeded from the switch seed and none of
/// them the switch's alignment stream: when a core is built cannot change
/// what it is, nor any alignment.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream)
}

const NORTH_DIE: u64 = 1;
const SOUTH_DIE: u64 = 2;
const PORT_OPTICS: u64 = 3;

/// One die of a `ports`-port core through `build` —
/// [`MemsDie::fabricate_sized`] or [`MemsDie::spares_as_built`] — so that
/// the die's seed, the 95% mirror yield and the production margin (176
/// fabricated for 136 served ≈ 1.29×) are stated once for both.
///
/// A die that misses its yield is a documented precondition
/// ([`OpticalCore::fabricate`]'s `# Panics`): at the production radix a
/// die fields 136 of 177 mirrors at 95 % yield, about ten standard
/// deviations inside the margin.
#[allow(clippy::expect_used)]
fn die<T>(
    ports: usize,
    seed: u64,
    stream: u64,
    build: fn(u64, f64, usize, usize) -> Result<T, DieYieldError>,
) -> T {
    build(
        stream_seed(seed, stream),
        0.95,
        ports * 176 / 136 + 1,
        ports,
    )
    .expect("95% mirror yield fabricates a die")
}

impl OpticalCore {
    /// Builds a core with `ports` ports per side (dies sized with the
    /// production ~29% spare margin). A pure function of its arguments.
    ///
    /// # Panics
    /// Panics if either die fails fabrication yield at the given seed
    /// (95% mirror yield, which fabricates reliably at this margin).
    pub fn fabricate(ports: usize, seed: u64) -> OpticalCore {
        let die_north = die(ports, seed, NORTH_DIE, MemsDie::fabricate_sized);
        let die_south = die(ports, seed, SOUTH_DIE, MemsDie::fabricate_sized);
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, PORT_OPTICS));
        // Constant, finite, positive sigmas.
        #[allow(clippy::expect_used)]
        let coll = Normal::<f64>::new(0.5, 0.12).expect("valid sigma");
        #[allow(clippy::expect_used)]
        let rl = Normal::<f64>::new(-46.0, 2.5).expect("valid sigma");
        let sample_ports = |rng: &mut StdRng| -> Vec<PortOptics> {
            (0..ports)
                .map(|_| PortOptics {
                    collimator_loss_db: coll.sample(rng).max(0.2),
                    return_loss_db: rl.sample(rng).clamp(-55.0, -38.5),
                })
                .collect()
        };
        let north_ports = sample_ports(&mut rng);
        let south_ports = sample_ports(&mut rng);
        let as_built_north = (0..ports)
            .map(|p| die_north.mirror_for_port(p).intrinsic_loss_db)
            .collect();
        let as_built_south = (0..ports)
            .map(|p| die_south.mirror_for_port(p).intrinsic_loss_db)
            .collect();
        OpticalCore {
            seed,
            die_north,
            die_south,
            north_ports,
            south_ports,
            as_built_north,
            as_built_south,
        }
    }

    /// Mirror spares `(north die, south die)` of the core
    /// [`OpticalCore::fabricate`] builds from the same arguments, without
    /// building it: what a switch that has not read its optics yet reports
    /// as health.
    ///
    /// # Panics
    /// Panics exactly where [`OpticalCore::fabricate`] does, with its
    /// message.
    pub fn spares_as_built(ports: usize, seed: u64) -> (usize, usize) {
        (
            die(ports, seed, NORTH_DIE, MemsDie::spares_as_built),
            die(ports, seed, SOUTH_DIE, MemsDie::spares_as_built),
        )
    }

    /// Loss drift of a port's serving mirror versus the as-built baseline
    /// (positive = worse). Spare swaps rotate in progressively worse
    /// mirrors; this is the §3.2.2 anomaly-detection signal.
    pub(crate) fn port_drift(&self, north_die: bool, port: usize) -> Db {
        let (die, baseline) = if north_die {
            (&self.die_north, &self.as_built_north)
        } else {
            (&self.die_south, &self.as_built_south)
        };
        Db(die.mirror_for_port(port).intrinsic_loss_db - baseline[port])
    }

    /// Ports per side.
    pub fn ports(&self) -> usize {
        self.north_ports.len()
    }

    /// Stable per-pair residual loss: pointing-dependent coupling plus the
    /// occasional splice/connector outlier responsible for the Fig. 10 tail.
    fn pair_residual_db(&self, north: usize, south: usize) -> f64 {
        // Deterministic per (core, pair): the same cross-connection always
        // measures the same loss, as on real hardware.
        let h = self
            .seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add((north as u64) << 32 | south as u64);
        let mut rng = StdRng::seed_from_u64(h);
        // A constant, finite, positive sigma.
        #[allow(clippy::expect_used)]
        let base = Normal::<f64>::new(0.15, 0.08)
            .expect("valid sigma")
            .sample(&mut rng)
            .max(0.0);
        // ~4% of paths hit a splice/connector outlier.
        let outlier = if rng.random_bool(0.04) {
            rng.random_range(0.3..1.2)
        } else {
            0.0
        };
        base + outlier
    }

    /// Insertion loss of the path North `north` → South `south`.
    ///
    /// # Panics
    /// Panics if a port index is out of range.
    pub fn insertion_loss(&self, north: usize, south: usize) -> Db {
        let n = &self.north_ports[north];
        let s = &self.south_ports[south];
        let mirrors = self.die_north.mirror_for_port(north).intrinsic_loss_db
            + self.die_south.mirror_for_port(south).intrinsic_loss_db;
        Db(n.collimator_loss_db
            + s.collimator_loss_db
            + mirrors
            + self.pair_residual_db(north, south))
    }

    /// Return loss seen looking into a North port.
    pub fn return_loss_north(&self, north: usize) -> Db {
        Db(self.north_ports[north].return_loss_db)
    }

    /// Return loss seen looking into a South port.
    pub fn return_loss_south(&self, south: usize) -> Db {
        Db(self.south_ports[south].return_loss_db)
    }

    /// Full insertion-loss census over every N×S cross-connection — the
    /// data behind the Fig. 10a histogram.
    pub fn insertion_loss_census(&self) -> Vec<f64> {
        let p = self.ports();
        let mut out = Vec::with_capacity(p * p);
        for n in 0..p {
            for s in 0..p {
                out.push(self.insertion_loss(n, s).db());
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::PalomarOcs;

    /// The message `f` panics with.
    pub(crate) fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast::<&str>().expect("a message").to_string(),
        }
    }

    #[test]
    fn a_die_that_fails_yield_refuses_the_switch_at_construction() {
        // A small-radix part has few spares to absorb bad luck: about
        // 0.3 % of 8-port seeds leave a die short. Counting refuses
        // exactly the seeds fabricating refuses, and the switch refuses to
        // exist there — not at some later read of its optics.
        let fabricated = |seed| {
            std::panic::catch_unwind(|| {
                let core = OpticalCore::fabricate(8, seed);
                (
                    core.die_north.spares_remaining(),
                    core.die_south.spares_remaining(),
                )
            })
            .ok()
        };
        let counted =
            |seed| std::panic::catch_unwind(|| OpticalCore::spares_as_built(8, seed)).ok();
        let mut refused = Vec::new();
        for seed in 0..2_000u64 {
            let spares = fabricated(seed);
            assert_eq!(counted(seed), spares, "seed {seed}");
            if spares.is_none() {
                refused.push(seed);
            }
        }
        assert!(
            !refused.is_empty(),
            "no 8-port seed below 2 000 fails yield"
        );
        for seed in refused {
            let at_fabrication = panic_message(move || drop(OpticalCore::fabricate(8, seed)));
            assert!(
                at_fabrication
                    .starts_with("95% mirror yield fabricates a die: DieYieldError { qualified: ")
                    && at_fabrication.ends_with(", needed: 8 }"),
                "{at_fabrication}"
            );
            let at_construction = panic_message(move || drop(PalomarOcs::with_ports(0, seed, 8)));
            assert_eq!(at_construction, at_fabrication, "seed {seed}");
        }
    }

    #[test]
    fn typical_loss_is_under_2db() {
        let core = OpticalCore::fabricate(136, 7);
        let census = core.insertion_loss_census();
        let under_2db = census.iter().filter(|&&l| l < 2.0).count() as f64 / census.len() as f64;
        assert!(
            under_2db > 0.85,
            "only {:.1}% of paths under 2 dB; paper says 'typically less than 2 dB'",
            under_2db * 100.0
        );
        let mean = census.iter().sum::<f64>() / census.len() as f64;
        assert!((1.2..2.0).contains(&mean), "mean loss {mean} out of band");
    }

    #[test]
    fn loss_distribution_has_a_tail() {
        // Fig. 10a shows a tail from splice/connector variation: some paths
        // exceed 2.5 dB, but none are absurd.
        let core = OpticalCore::fabricate(136, 7);
        let census = core.insertion_loss_census();
        let over_25 = census.iter().filter(|&&l| l > 2.5).count();
        assert!(over_25 > 0, "expected a loss tail");
        assert!(
            (over_25 as f64) < census.len() as f64 * 0.05,
            "tail too fat: {over_25} paths > 2.5 dB"
        );
        assert!(
            census.iter().all(|&l| l < 4.5),
            "no physically silly losses"
        );
    }

    #[test]
    fn return_loss_meets_spec_with_margin() {
        let core = OpticalCore::fabricate(136, 3);
        let mut sum = 0.0;
        for p in 0..136 {
            let n = core.return_loss_north(p).db();
            let s = core.return_loss_south(p).db();
            assert!(
                n <= RETURN_LOSS_SPEC_DB - 0.4,
                "north port {p} RL {n} violates spec"
            );
            assert!(
                s <= RETURN_LOSS_SPEC_DB - 0.4,
                "south port {p} RL {s} violates spec"
            );
            sum += n + s;
        }
        let mean = sum / 272.0;
        assert!(
            (-48.0..=-44.0).contains(&mean),
            "mean RL {mean} should be near the typical −46 dB"
        );
    }

    #[test]
    fn loss_is_reproducible_per_path() {
        let core = OpticalCore::fabricate(136, 11);
        assert_eq!(core.insertion_loss(5, 99), core.insertion_loss(5, 99));
        // Different paths differ (almost surely).
        assert_ne!(
            core.insertion_loss(5, 99).db(),
            core.insertion_loss(5, 98).db()
        );
    }

    #[test]
    fn different_seeds_give_different_cores() {
        let a = OpticalCore::fabricate(16, 1);
        let b = OpticalCore::fabricate(16, 2);
        assert_ne!(a.insertion_loss(0, 0).db(), b.insertion_loss(0, 0).db());
    }

    #[test]
    fn census_covers_all_pairs() {
        let core = OpticalCore::fabricate(16, 5);
        assert_eq!(core.insertion_loss_census().len(), 256);
    }
}
