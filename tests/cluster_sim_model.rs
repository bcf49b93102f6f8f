//! `ClusterSim` and its `Contiguous` allocator against their oracles
//! (DESIGN §6.8).
//!
//! The production simulator remembers, per backfill pass, which specs
//! already failed to place and skips their `allocate` / `repack`;
//! `oracle::OracleSim` is the simulator it replaced, which asks again for
//! every queued job on every event. Both call the library's `Contiguous`,
//! which tests each origin's box in one mask; `contiguous::first_fit` is
//! the per-cube scan it replaced, and a third guard holds the two to the
//! same answer on every legal shape of the grid over random idle sets.
//! The first two guards are `==` on all six `SimReport` fields, floats
//! included:
//!
//! 1. **Golden** — `tests/vectors/cluster_sim.json`, reports captured at
//!    the parent of PR 15 (floats as `f64::to_bits`) for the three
//!    disciplines under the overloaded default mix at three seeds, plus a
//!    light-load row where the queue is mostly empty.
//! 2. **Differential** — random mixes, loads, horizons and migration
//!    costs against the oracle, among them repeated shapes, shapes
//!    `Contiguous` cannot place at all, a mix longer than the memo, and a
//!    pure but non-monotone allocator.

#[path = "oracle/cluster_sim.rs"]
mod oracle;

#[path = "oracle/contiguous.rs"]
mod contiguous;

use lightwave::scheduler::alloc::Allocation;
use lightwave::scheduler::sim::default_mix;
use lightwave::scheduler::{Allocator, ClusterSim, Contiguous, JobSpec, Pooled, SimReport};
use lightwave::superpod::{CubeSet, SliceShape};
use oracle::OracleSim;
use proptest::prelude::*;
use serde::Deserialize;

#[derive(Deserialize)]
struct GoldenReport {
    utilization_bits: u64,
    completed: u64,
    mean_wait_hours_bits: u64,
    fragmentation_stalls: u64,
    unsupported: u64,
    migrations: u64,
}

#[derive(Deserialize)]
struct GoldenRow {
    discipline: String,
    interarrival_hours: f64,
    horizon_hours: f64,
    migration_hours: f64,
    seed: u64,
    report: GoldenReport,
}

#[derive(Deserialize)]
struct Golden {
    rows: Vec<GoldenRow>,
}

#[test]
fn reports_match_the_parent_capture() {
    let golden: Golden = serde_json::from_str(include_str!("vectors/cluster_sim.json"))
        .expect("golden vectors parse");
    assert_eq!(golden.rows.len(), 12);
    for row in &golden.rows {
        let sim = ClusterSim::new(default_mix(), row.interarrival_hours);
        let got = match row.discipline.as_str() {
            "pooled" => sim.run(&Pooled, row.horizon_hours, row.seed),
            "contiguous" => sim.run(&Contiguous, row.horizon_hours, row.seed),
            "defrag" => {
                sim.run_contiguous_with_defrag(row.horizon_hours, row.migration_hours, row.seed)
            }
            other => panic!("unknown discipline {other}"),
        };
        let want = SimReport {
            utilization: f64::from_bits(row.report.utilization_bits),
            completed: row.report.completed,
            mean_wait_hours: f64::from_bits(row.report.mean_wait_hours_bits),
            fragmentation_stalls: row.report.fragmentation_stalls,
            unsupported: row.report.unsupported,
            migrations: row.report.migrations,
        };
        assert_eq!(
            got, want,
            "{} at {} h inter-arrival over {} h, seed {}",
            row.discipline, row.interarrival_hours, row.horizon_hours, row.seed
        );
    }
}

/// All three disciplines of both simulators over one job stream.
fn assert_agree(mix: &[JobSpec], interarrival: f64, horizon: f64, migration: f64, seed: u64) {
    let fast = ClusterSim::new(mix.to_vec(), interarrival);
    let slow = OracleSim::new(mix.to_vec(), interarrival);
    let context = format!("{mix:?} every {interarrival} h over {horizon} h, seed {seed}");
    assert_eq!(
        fast.run(&Pooled, horizon, seed),
        slow.run(&Pooled, horizon, seed),
        "pooled: {context}"
    );
    assert_eq!(
        fast.run(&Contiguous, horizon, seed),
        slow.run(&Contiguous, horizon, seed),
        "contiguous: {context}"
    );
    assert_eq!(
        fast.run_contiguous_with_defrag(horizon, migration, seed),
        slow.run_contiguous_with_defrag(horizon, migration, seed),
        "defrag at {migration} h: {context}"
    );
}

fn spec(chips: [usize; 3], mean_hours: f64, weight: f64) -> JobSpec {
    JobSpec {
        shape: SliceShape::new(chips[0], chips[1], chips[2]).expect("legal shape"),
        mean_hours,
        weight,
    }
}

#[test]
fn a_shape_contiguous_cannot_place_is_rejected_alike() {
    // 4×4×256 is a 1×1×64 line of cubes: the whole pod to `Pooled`,
    // unsupported on the static 4×4×4 grid. It shares the mix with a
    // repeated shape and a long thin one that fits the grid one way only.
    let mix = [
        spec([4, 4, 256], 3.0, 0.1),
        spec([8, 8, 4], 2.0, 0.4),
        spec([4, 4, 16], 1.0, 0.3),
        spec([8, 8, 4], 5.0, 0.2),
    ];
    let fast = ClusterSim::new(mix.to_vec(), 0.3);
    assert!(fast.run(&Contiguous, 150.0, 9).unsupported > 0);
    assert_eq!(fast.run(&Pooled, 150.0, 9).unsupported, 0);
    assert_agree(&mix, 0.3, 150.0, 0.1, 9);
}

#[test]
fn a_mix_longer_than_the_memo_agrees() {
    // 70 specs: those past the 64th are never remembered, only retried.
    let shapes = [[4, 4, 4], [8, 4, 4], [8, 8, 4], [8, 8, 8], [16, 8, 4]];
    let mix: Vec<JobSpec> = (0..70)
        .map(|i| spec(shapes[i % shapes.len()], 1.0 + (i % 7) as f64, 1.0))
        .collect();
    assert_agree(&mix, 0.2, 120.0, 0.05, 3);
}

/// Places like `Pooled`, but only while the idle count is a multiple of
/// the request: pure, yet a shape that failed can succeed after a
/// *placement*. The two real disciplines only ever get harder to satisfy
/// as `idle` shrinks, so this is what holds `run` to clearing its memo at
/// every placement.
struct Divisible;

impl Allocator for Divisible {
    fn allocate(&self, shape: SliceShape, idle: impl Into<CubeSet>) -> Option<Allocation> {
        let idle = idle.into();
        (idle.len() % shape.cube_count() == 0)
            .then(|| Pooled.allocate(shape, idle))
            .flatten()
    }

    fn supports(&self, _shape: SliceShape) -> bool {
        true
    }
}

#[test]
fn a_pure_but_non_monotone_allocator_agrees() {
    let mix = [
        spec([4, 4, 4], 1.0, 0.5),
        spec([12, 4, 4], 2.0, 0.3),
        spec([8, 4, 4], 2.0, 0.2),
    ];
    let fast = ClusterSim::new(mix.to_vec(), 0.05).run(&Divisible, 100.0, 11);
    let slow = OracleSim::new(mix.to_vec(), 0.05).run(&Divisible, 100.0, 11);
    assert_eq!(fast, slow);
    assert!(
        fast.fragmentation_stalls > 0 && fast.completed > 100,
        "{fast:?}"
    );
}

/// One spec over a legal shape of 1–64 cubes. `r` is clamped so the
/// product fits the pod; 64 survives only as 4×4×256.
fn any_spec() -> impl Strategy<Value = JobSpec> {
    (
        1usize..=4,
        1usize..=4,
        proptest::sample::select(vec![1usize, 1, 1, 2, 2, 3, 4, 4, 16, 64]),
        0.5f64..8.0,
        0.05f64..1.0,
    )
        .prop_map(|(p, q, r, mean_hours, weight)| {
            let r = r.min(64 / (p * q));
            spec([4 * p, 4 * q, 4 * r], mean_hours, weight)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mixes (repeated shapes and unsupported shapes included) from
    /// idle to heavily overloaded: equal reports, `==` on the floats.
    #[test]
    fn reports_agree_on_random_mixes(
        mix in proptest::collection::vec(any_spec(), 1..=6),
        interarrival in 0.1f64..2.0,
        horizon in 20.0f64..200.0,
        migration in 0.0f64..0.2,
        seed in 0u64..1_000_000,
    ) {
        assert_agree(&mix, interarrival, horizon, migration, seed);
    }
}

/// Idle sets from half empty to full: one random word, or the union of
/// two or three (75 % and 87.5 % idle on average, where the large boxes
/// fit), the full pod less one cube, or the full pod.
fn any_idle() -> impl Strategy<Value = CubeSet> {
    (any::<u64>(), any::<u64>(), any::<u64>(), 0u8..5).prop_map(|(a, b, c, density)| {
        CubeSet::from_bits(match density {
            0 => a,
            1 => a | b,
            2 => a | b | c,
            3 => !(1 << (a % 64)),
            _ => u64::MAX,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The box-mask first fit returns exactly what the per-cube scan does
    /// — the same box, the same order, or the same `None` — for every
    /// `p×q×r` cube grid up to 4×4×4.
    #[test]
    fn contiguous_first_fit_matches_the_per_cube_scan(idle in any_idle()) {
        for p in 1..=4 {
            for q in 1..=4 {
                for r in 1..=4 {
                    let shape = SliceShape::new(4 * p, 4 * q, 4 * r).expect("legal shape");
                    prop_assert_eq!(
                        Contiguous.allocate(shape, idle),
                        contiguous::first_fit(shape, idle),
                        "{:?} on idle {:#018x}",
                        shape,
                        idle.bits()
                    );
                }
            }
        }
    }
}
