//! Fabric availability and goodput models — Fig. 15 of the paper.
//!
//! Two questions drive §4.2.2:
//!
//! 1. **Fabric availability** (Fig. 15a): a slice spanning multiple cubes
//!    needs *every* OCS carrying inter-cube links to be up, so the fabric
//!    availability is `A_ocs^N`. Bidi transceivers halve N (96 → 48 → 24),
//!    which is worth 90% → 95% → 98% at `A_ocs = 99.9%`.
//! 2. **Goodput under a system availability target** (Fig. 15b): to promise
//!    97% availability, capacity must be held back against server
//!    failures. A *reconfigurable* fabric pools all 64 cubes — a slice
//!    works whenever *enough* cubes work, any cubes. A *static* fabric
//!    hard-wires slices to specific cubes — a slice works only if *its own*
//!    cubes all work. The binomial arithmetic of that difference is the
//!    75%-vs-25% goodput gap the paper reports for 1024-chip slices.
//!
//! Both analytic (exact binomial) and Monte-Carlo paths are provided; the
//! property tests check they agree. The [`timeline`] module adds the
//! continuous-time view: reconfiguration in *seconds* versus repair in
//! *hours* is where the delivered availability comes from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timeline;

use lightwave_par::Pool;
use lightwave_superpod::POD_CUBES;
use lightwave_units::{math, Availability};
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Server-equivalent failure units per cube (rack): 16 CPU hosts plus the
/// TPU trays and rack electronics they carry. Calibrated so the goodput
/// anchors of Fig. 15b reproduce (see DESIGN.md §5, substitution 5).
pub const SERVER_UNITS_PER_CUBE: f64 = 24.0;

/// The paper's overall system availability target for Fig. 15b.
pub const SYSTEM_TARGET: f64 = 0.97;

/// Fabric availability of an `n`-OCS fabric where every OCS is required
/// (a multi-cube slice uses all 48/96/24 switches): `A^n`.
pub fn fabric_availability(ocs: Availability, n_ocs: u32) -> Availability {
    ocs.series_of(n_ocs)
}

/// Availability of one cube given per-server availability.
pub fn cube_availability(server: Availability) -> Availability {
    Availability::new(server.prob().powf(SERVER_UNITS_PER_CUBE))
}

/// P(at least `k` of `n` independent components up), exact binomial.
pub fn at_least_k_of_n(n: u64, k: u64, p: f64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    math::binomial_tail_gt(n, k - 1, p)
}

/// Goodput a pod can promise at `target`: the largest slice count m with
/// P(units up ≥ m·per_slice) ≥ target, as a fraction of pod capacity. The
/// independently failing unit (up with probability `p_unit`) is the rule
/// the two fabrics differ in: `units` is told how many slices fit and
/// answers how many units the pod has and how many one slice needs.
fn promised_goodput(
    slice_cubes: usize,
    p_unit: f64,
    target: f64,
    units: impl Fn(usize) -> (usize, usize),
) -> f64 {
    assert!(
        (1..=POD_CUBES).contains(&slice_cubes),
        "slice must fit the pod"
    );
    let slices = POD_CUBES / slice_cubes;
    let (n, per_slice) = units(slices);
    let best = (1..=slices)
        .take_while(|&m| at_least_k_of_n(n as u64, (m * per_slice) as u64, p_unit) >= target)
        .count();
    (best * slice_cubes) as f64 / POD_CUBES as f64
}

/// Goodput of a *reconfigurable* pod running same-size slices of
/// `slice_cubes` cubes under `target` system availability: the largest
/// number of slices m such that P(working cubes ≥ m·slice_cubes) ≥ target,
/// as a fraction of pod capacity. Any working cube can substitute for any
/// failed one (the OCS re-wires around it).
pub fn reconfigurable_goodput(slice_cubes: usize, cube_avail: Availability, target: f64) -> f64 {
    // Any of the 64 cubes serves any slice.
    promised_goodput(slice_cubes, cube_avail.prob(), target, |_| {
        (POD_CUBES, slice_cubes)
    })
}

/// Goodput of a *static* pod: the pod is hard-wired into `64/slice_cubes`
/// fixed slices; a slice works only if all of its own cubes work. Goodput
/// is the largest guaranteed-up slice count g with
/// P(at least g of the wired slices up) ≥ target.
pub fn static_goodput(slice_cubes: usize, cube_avail: Availability, target: f64) -> f64 {
    let p_slice = cube_avail.prob().powi(slice_cubes as i32);
    promised_goodput(slice_cubes, p_slice, target, |wired| (wired, 1))
}

/// One row of the Fig. 15b dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GoodputPoint {
    /// Slice size in chips.
    pub slice_chips: usize,
    /// Per-server availability.
    pub server_avail: f64,
    /// Goodput of the reconfigurable fabric.
    pub reconfigurable: f64,
    /// Goodput of the static fabric.
    pub static_fabric: f64,
}

/// Generates the Fig. 15b sweep: slice sizes × server availabilities.
///
/// Grid points evaluate on `pool`; results are reduced strictly in grid
/// order, so the output is identical at any thread count.
pub fn fig15b_sweep(
    pool: &Pool,
    slice_chip_sizes: &[usize],
    server_avails: &[f64],
    target: f64,
) -> Vec<GoodputPoint> {
    let grid: Vec<(usize, f64)> = slice_chip_sizes
        .iter()
        .flat_map(|&chips| {
            assert!(chips % 64 == 0, "slice chips must be whole cubes");
            server_avails.iter().map(move |&sa| (chips, sa))
        })
        .collect();
    pool.map_reduce(
        &grid,
        |&(chips, sa), _| {
            let ca = cube_availability(Availability::new(sa));
            vec![GoodputPoint {
                slice_chips: chips,
                server_avail: sa,
                reconfigurable: reconfigurable_goodput(chips / 64, ca, target),
                static_fabric: static_goodput(chips / 64, ca, target),
            }]
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    )
    .0
    .unwrap_or_default()
}

/// Trials per shard for [`monte_carlo_pool_availability`]: each trial draws
/// [`POD_CUBES`] Bernoulli samples, so 4096 trials is ~260k draws — far
/// above the engine's dispatch overhead, fine-grained enough to balance.
pub const POOL_SHARD_TRIALS: u64 = 4_096;

/// Monte-Carlo estimate of P(working cubes ≥ need) — cross-check for the
/// analytic binomial path — on `pool`. Same seed, same estimate, any
/// thread count.
///
/// Trials split into [`POOL_SHARD_TRIALS`]-sized shards with the last shard
/// carrying the remainder, so odd trial counts divide exactly: the estimate
/// is `successes / trials` over *all* requested trials, never a truncated
/// multiple of the shard size.
pub fn monte_carlo_pool_availability(
    pool: &Pool,
    cube_avail: Availability,
    need: usize,
    trials: u64,
    seed: u64,
) -> f64 {
    assert!(trials > 0);
    let p = cube_avail.prob();
    let (ok, _stats) = pool.run_trials(
        seed,
        trials,
        POOL_SHARD_TRIALS,
        |rng, _trial| {
            let working = (0..POD_CUBES).filter(|_| rng.random_bool(p)).count();
            u64::from(working >= need)
        },
        |a, b| a + b,
    );
    ok as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nines(n: f64) -> Availability {
        Availability::from_nines(n)
    }

    #[test]
    fn fig15a_fabric_availability_anchors() {
        // §4.2.2: at 99.9% per-OCS availability, fabric availability is
        // ~90% with 96 OCSes (CWDM4 duplex), ~95% with 48 (CWDM4 bidi),
        // ~98% with 24 (CWDM8 bidi).
        let a = nines(3.0);
        let f96 = fabric_availability(a, 96).prob();
        let f48 = fabric_availability(a, 48).prob();
        let f24 = fabric_availability(a, 24).prob();
        assert!((f96 - 0.90).abs() < 0.01, "96 OCS: {f96:.3}");
        assert!((f48 - 0.95).abs() < 0.01, "48 OCS: {f48:.3}");
        assert!((f24 - 0.98).abs() < 0.01, "24 OCS: {f24:.3}");
    }

    #[test]
    fn fig15b_headline_1024_slice() {
        // "for a server availability of 99.9%, the static configuration
        // can only support a 1024 TPU slice size with 25% goodput, whereas
        // the reconfigurable superpod can support 1024 slice size with 75%
        // goodput."
        let ca = cube_availability(nines(3.0));
        let reconf = reconfigurable_goodput(16, ca, SYSTEM_TARGET);
        let stat = static_goodput(16, ca, SYSTEM_TARGET);
        assert!((reconf - 0.75).abs() < 1e-9, "reconfigurable {reconf}");
        assert!((stat - 0.25).abs() < 1e-9, "static {stat}");
    }

    #[test]
    fn fig15b_convergence_of_999_and_995_at_1024() {
        // "At a slice size of 1024, this leads to the convergence of the
        // goodput for a server availability of 99.9% with ... 99.5%
        // (red curve) ... a goodput of 75% for both."
        let g999 = reconfigurable_goodput(16, cube_availability(nines(3.0)), SYSTEM_TARGET);
        let g995 = reconfigurable_goodput(
            16,
            cube_availability(Availability::new(0.995)),
            SYSTEM_TARGET,
        );
        assert_eq!(g999, g995);
        assert!((g999 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn fig15b_99_percent_gets_two_slices_at_1024() {
        // "only two 1024 slices with a goodput of 50% can be composed for
        // the lower server availability of 99% (blue curve)".
        let g = reconfigurable_goodput(
            16,
            cube_availability(Availability::new(0.99)),
            SYSTEM_TARGET,
        );
        assert!((g - 0.50).abs() < 1e-9, "got {g}");
    }

    #[test]
    fn fig15b_2048_slice_is_50_percent_regardless() {
        // "At a slice size of 2048 ... only one slice can be composed —
        // leading to a goodput of 50% — regardless of the server/host
        // availability".
        for sa in [0.99, 0.995, 0.999] {
            let g =
                reconfigurable_goodput(32, cube_availability(Availability::new(sa)), SYSTEM_TARGET);
            assert!((g - 0.50).abs() < 1e-9, "server {sa}: {g}");
        }
    }

    #[test]
    fn single_cube_slices_equalize_static_and_reconfigurable() {
        // "For a slice that is a single cube, no reconfiguration between
        // cubes is used and thus the goodput is the same for both".
        for sa in [0.99, 0.995, 0.999] {
            let ca = cube_availability(Availability::new(sa));
            let r = reconfigurable_goodput(1, ca, SYSTEM_TARGET);
            let s = static_goodput(1, ca, SYSTEM_TARGET);
            assert_eq!(r, s, "server availability {sa}");
            assert!(
                r > 0.5,
                "even 99% servers deliver most single-cube capacity"
            );
        }
    }

    #[test]
    fn goodput_monotone_in_server_availability() {
        let mut prev = 0.0;
        for sa in [0.985, 0.99, 0.995, 0.999, 0.9995] {
            let g =
                reconfigurable_goodput(8, cube_availability(Availability::new(sa)), SYSTEM_TARGET);
            assert!(g >= prev, "goodput must not decrease with better servers");
            prev = g;
        }
    }

    #[test]
    fn static_never_beats_reconfigurable() {
        for &cubes in &[1usize, 2, 4, 8, 16, 32] {
            for sa in [0.99, 0.995, 0.999] {
                let ca = cube_availability(Availability::new(sa));
                let r = reconfigurable_goodput(cubes, ca, SYSTEM_TARGET);
                let s = static_goodput(cubes, ca, SYSTEM_TARGET);
                assert!(
                    s <= r + 1e-12,
                    "static {s} > reconfigurable {r} at {cubes} cubes, {sa}"
                );
            }
        }
    }

    #[test]
    fn static_degrades_much_faster_with_slice_size() {
        // The visual story of Fig. 15b: dashed (static) lines fall off a
        // cliff as slices grow; solid (reconfigurable) lines degrade
        // gracefully.
        let ca = cube_availability(nines(3.0));
        let r16 = reconfigurable_goodput(16, ca, SYSTEM_TARGET);
        let s16 = static_goodput(16, ca, SYSTEM_TARGET);
        assert!(r16 >= 3.0 * s16 - 1e-12, "reconf {r16} vs static {s16}");
    }

    #[test]
    fn monte_carlo_agrees_with_binomial() {
        let ca = cube_availability(nines(3.0));
        let analytic = at_least_k_of_n(64, 48, ca.prob());
        let mc = monte_carlo_pool_availability(&Pool::new(2), ca, 48, 20_000, 11);
        assert!(
            (analytic - mc).abs() < 0.01,
            "analytic {analytic:.4} vs MC {mc:.4}"
        );
    }

    #[test]
    fn monte_carlo_thread_count_invariant() {
        let ca = cube_availability(Availability::new(0.99));
        let run = |threads| monte_carlo_pool_availability(&Pool::new(threads), ca, 56, 30_000, 7);
        let one = run(1);
        assert_eq!(one.to_bits(), run(2).to_bits());
        assert_eq!(one.to_bits(), run(4).to_bits());
    }

    #[test]
    fn monte_carlo_odd_trial_count_unbiased() {
        // Regression: trials not divisible by the shard size must weigh
        // every trial — p = 1 has to come out exactly 1, and a remainder
        // tail must not be dropped or double-counted.
        let certain = Availability::new(1.0);
        for trials in [1, POOL_SHARD_TRIALS - 1, POOL_SHARD_TRIALS + 1, 10_007] {
            let est = monte_carlo_pool_availability(&Pool::new(2), certain, 64, trials, 3);
            assert_eq!(est, 1.0, "trials={trials}");
        }
        let never = Availability::new(0.0);
        let est = monte_carlo_pool_availability(&Pool::new(2), never, 1, 10_007, 3);
        assert_eq!(est, 0.0);
    }

    #[test]
    fn sweep_covers_grid() {
        let pts = fig15b_sweep(
            &Pool::new(2),
            &[64, 512, 1024, 2048],
            &[0.99, 0.995, 0.999],
            SYSTEM_TARGET,
        );
        assert_eq!(pts.len(), 12);
        assert!(pts
            .iter()
            .all(|p| p.reconfigurable >= p.static_fabric - 1e-12));
    }

    #[test]
    #[should_panic(expected = "slice must fit")]
    fn oversized_slice_rejected() {
        let _ = reconfigurable_goodput(65, Availability::new(0.99), 0.97);
    }
}
