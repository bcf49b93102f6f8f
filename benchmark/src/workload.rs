//! The five workloads and the loops that drive them.
//!
//! The service loop is `run_cell` written against the smallest public
//! surface — `arrival`, `ServiceCore::{new, advance_to, submit, drain,
//! report, conservation}` and `Superpod::new` — with one seam, [`Probe`],
//! through which the observed workload and the traced run watch it.
//! Arrivals are an open loop in sim time (a Poisson schedule the queue is
//! free to fall behind) fed by one closed-loop caller in host time: the
//! next `advance_to` + `submit` starts when the previous returns.

use crate::calib::{Calibrator, Interleave, Shares};
use lightwave::par::splitmix;
use lightwave::service::{
    arrival, CampusObserver, Mix, PolicyConfig, ScopeCollector, ServiceCore, ServiceEvent,
    ServiceReport, CELL_STREAM,
};
use lightwave::superpod::Superpod;
use lightwave::units::Nanos;
use lightwave_bench::{run, ALL_EXPERIMENTS};
use std::hint::black_box;
use std::ops::Range;

/// The seed the golden snapshots were taken at.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Scope sampling period of the observed workload.
pub const SCOPE_EVERY: u64 = 16;

/// Experiments run at `quick` depth so a rep fits the run length; every
/// other experiment runs at full depth.
pub const HEAVY_EXPERIMENTS: [&str; 2] = ["fig12", "sched1"];

/// One service workload's fixed inputs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    /// Arrival mix.
    pub mix: Mix,
    /// Mean inter-arrival gap in sim time.
    pub mean_gap: Nanos,
    /// Admission policy.
    pub policy: PolicyConfig,
    /// Whether every event batch also goes to the scope collector and the
    /// campus observer, inside the timed region.
    pub observed: bool,
    /// Requests per timed rep.
    pub requests: u64,
    /// Requests per traced pass (spans are kept in memory).
    pub traced_requests: u64,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The slice-request path over one long cell.
    Service(ServiceSpec),
    /// `passes` passes over every paper experiment per rep.
    Repro {
        /// Passes per rep.
        passes: u64,
        /// Whether [`HEAVY_EXPERIMENTS`] run too (a smoke run skips them).
        heavy: bool,
    },
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What a perf issue would pick it for.
    pub why: &'static str,
    /// Its inputs.
    pub kind: Kind,
}

/// Nanoseconds per millisecond of sim time.
const MS: u64 = 1_000_000;

const LOSS: PolicyConfig = PolicyConfig {
    queue_limit: 0,
    preemption: false,
};

const DEFAULT_POLICY: PolicyConfig = PolicyConfig {
    queue_limit: 256,
    preemption: true,
};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "prod_steady",
        why: "production mix at rho 0.65: multi-cube slices pin real circuits, so fabric commit_delta and ocs apply_delta do most of the work; N=50000/rep",
        kind: Kind::Service(ServiceSpec {
            mix: Mix::Production,
            mean_gap: Nanos(30 * MS),
            policy: DEFAULT_POLICY,
            observed: false,
            requests: 50_000,
            traced_requests: 20_000,
        }),
    },
    Workload {
        name: "single_loss",
        why: "single-cube pure loss (50 erlangs on 64 cubes): zero switches touched, so idle_cubes, Superpod::advance and compose bookkeeping dominate; the bypass twin of the other three; N=1200000/rep",
        kind: Kind::Service(ServiceSpec {
            mix: Mix::SingleCube,
            mean_gap: Nanos(2 * MS),
            policy: LOSS,
            observed: false,
            requests: 1_200_000,
            traced_requests: 150_000,
        }),
    },
    Workload {
        name: "single_backlog",
        why: "single-cube at rho 1.04 with the default policy: the queue sits at its bound, so ServiceCore pick/position/remove scans dominate; N=700000/rep",
        kind: Kind::Service(ServiceSpec {
            mix: Mix::SingleCube,
            mean_gap: Nanos(3 * MS / 2),
            policy: DEFAULT_POLICY,
            observed: false,
            requests: 700_000,
            traced_requests: 150_000,
        }),
    },
    Workload {
        name: "single_observed",
        why: "single_loss with every event batch fed to ScopeCollector (1 in 16) and CampusObserver: the cheapest base, so observability is the largest share it ever is; N=1000000/rep",
        kind: Kind::Service(ServiceSpec {
            mix: Mix::SingleCube,
            mean_gap: Nanos(2 * MS),
            policy: LOSS,
            observed: true,
            requests: 1_000_000,
            traced_requests: 150_000,
        }),
    },
    Workload {
        name: "paper_repro",
        why: "every paper experiment (fig12 and sched1 at quick depth, the rest full): fec, optics Monte-Carlo, ClusterSim, transceiver census, dcn, mlperf; no service path at all; 2 passes/rep",
        kind: Kind::Repro {
            passes: 2,
            heavy: true,
        },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at smoke size: a hundredth of the requests, or
    /// one pass without the heavy experiments. Nothing measured is
    /// meaningful.
    pub fn smoke(mut self) -> Workload {
        self.kind = match self.kind {
            Kind::Service(mut spec) => {
                spec.requests /= 100;
                spec.traced_requests /= 50;
                Kind::Service(spec)
            }
            Kind::Repro { .. } => Kind::Repro {
                passes: 1,
                heavy: false,
            },
        };
        self
    }

    /// Work items ("requests") in one timed rep: slice requests, or
    /// experiment runs.
    pub fn requests_per_rep(&self) -> u64 {
        match self.kind {
            Kind::Service(spec) => spec.requests,
            Kind::Repro { passes, heavy } => passes * experiments(heavy).count() as u64,
        }
    }
}

/// A live pod and the policy core serving it.
pub struct Cell {
    /// The pod.
    pub pod: Superpod,
    /// The admission core.
    pub core: ServiceCore,
}

impl Cell {
    /// Cell `index` of `seed`'s run, built the way `run_cell` builds it.
    pub fn new(seed: u64, index: u64, policy: PolicyConfig) -> Cell {
        Cell {
            pod: Superpod::new(pod_seed(seed, index)),
            core: ServiceCore::new(policy),
        }
    }
}

/// The fabric seed of cell `index`.
pub fn pod_seed(seed: u64, index: u64) -> u64 {
    splitmix(seed ^ CELL_STREAM, index)
}

/// Sim-time gap before an arrival: the unit-mean draw scaled by the
/// workload's mean gap, in integers.
pub fn scaled_gap(gap_unit_micros: u64, mean_gap: Nanos) -> Nanos {
    Nanos(gap_unit_micros.saturating_mul(mean_gap.0) / 1_000_000)
}

/// The seam through which a run is watched. The defaults watch nothing
/// and compile to the bare loop.
pub trait Probe {
    /// Wraps one step: request `request`'s `advance_to` + `submit`, or —
    /// with `request` one past the last — the final `drain`.
    #[inline]
    fn step<R>(&mut self, _request: u64, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Sees the events one step caused, before they are cleared.
    #[inline]
    fn batch(&mut self, _request: u64, _now: Nanos, _events: &[ServiceEvent], _core: &ServiceCore) {
    }
}

/// Watches nothing.
pub struct NoProbe;

impl Probe for NoProbe {}

/// Two probes as one: steps nest, batches go to both in order.
impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline]
    fn step<R>(&mut self, request: u64, f: impl FnOnce() -> R) -> R {
        let (a, b) = self;
        a.step(request, || b.step(request, f))
    }

    #[inline]
    fn batch(&mut self, request: u64, now: Nanos, events: &[ServiceEvent], core: &ServiceCore) {
        self.0.batch(request, now, events, core);
        self.1.batch(request, now, events, core);
    }
}

/// The observed workload's probe: both observers see every batch.
pub struct Observers {
    /// Request-lifecycle attribution, sampling 1 in [`SCOPE_EVERY`].
    pub scope: ScopeCollector,
    /// Rollup tree and burn ledger.
    pub campus: CampusObserver,
}

impl Observers {
    /// Fresh observers for `seed`'s arrival stream.
    pub fn new(seed: u64) -> Observers {
        Observers {
            scope: ScopeCollector::new(seed, SCOPE_EVERY),
            campus: CampusObserver::new(),
        }
    }
}

impl Probe for Observers {
    fn batch(&mut self, _request: u64, _now: Nanos, events: &[ServiceEvent], _core: &ServiceCore) {
        self.scope.observe(events);
        self.campus.observe(0, events);
    }
}

/// Serves arrivals `range` of `seed`'s stream on `cell`, then drains.
pub fn drive(
    cell: &mut Cell,
    spec: &ServiceSpec,
    seed: u64,
    range: Range<u64>,
    probe: &mut impl Probe,
) {
    let Cell { pod, core } = cell;
    let mut events = Vec::new();
    let mut now = Nanos(0);
    let end = range.end;
    for i in range {
        let a = arrival(seed, i, spec.mix);
        now += scaled_gap(a.gap_unit_micros, spec.mean_gap);
        probe.step(i, || {
            core.advance_to(pod, now, &mut events);
            core.submit(pod, &a.intent, &mut events);
        });
        probe.batch(i, now, &events, core);
        events.clear();
    }
    let now = probe.step(end, || core.drain(pod, &mut events));
    probe.batch(end, now, &events, core);
}

/// One rep of a service workload over requests `0..n`, pausing `pauses`
/// times for calibration on the way: what its work cost (drain and, when
/// observed, the observers' final documents included; pod construction
/// excluded) and the cell it left behind.
pub fn service_rep(
    spec: &ServiceSpec,
    seed: u64,
    n: u64,
    calib: &Calibrator,
    pauses: u64,
) -> (Shares, Cell) {
    let mut cell = Cell::new(seed, 0, spec.policy);
    let every = n.checked_div(pauses).unwrap_or(u64::MAX);
    let watch = Interleave::start(calib, every);
    let watch = if spec.observed {
        let mut probe = (Observers::new(seed), watch);
        drive(&mut cell, spec, seed, 0..n, &mut probe);
        let (mut observers, watch) = probe;
        black_box(observers.scope.finish());
        black_box(observers.campus.health_doc().to_json());
        watch
    } else {
        let mut watch = watch;
        drive(&mut cell, spec, seed, 0..n, &mut watch);
        watch
    };
    (watch.stop(), cell)
}

/// Requests the run got wrong, and why the rep is not correct (if it is
/// not). Blocked and invalid requests are the modelled fabric's answer,
/// not failures.
pub fn audit_service(cell: &Cell, n: u64) -> (u64, Vec<String>) {
    let report = cell.core.report();
    let mut errors = Vec::new();
    let mut failed = report.compose_failed + report.release_failed;
    if let Err(leak) = cell.core.conservation() {
        errors.push(format!("conservation: {leak}"));
        failed += 1;
    }
    if report.submitted != n {
        errors.push(format!("submitted {} of {n}", report.submitted));
    }
    let live = cell.core.queue_depth() + cell.core.running().count();
    if live != 0 {
        errors.push(format!("{live} requests still live after drain"));
        failed += live as u64;
    }
    if failed > 0 && errors.is_empty() {
        errors.push(format!("{failed} compose/release transactions refused"));
    }
    (failed, errors)
}

/// The snapshot JSON the golden files hold.
pub fn snapshot_json(report: &ServiceReport) -> String {
    serde_json::to_string(&report.snapshot()).expect("snapshot serializes")
}

/// Sim-time p99 admission wait in milliseconds.
pub fn admit_wait_p99_ms(report: &ServiceReport) -> f64 {
    report.wait_quantile_micros(0.99).unwrap_or(0.0) / 1_000.0
}

/// Experiment ids of one pass, in registry order, with or without the
/// heavy ones.
pub fn experiments(heavy: bool) -> impl Iterator<Item = &'static str> {
    ALL_EXPERIMENTS
        .iter()
        .copied()
        .filter(move |id| heavy || !HEAVY_EXPERIMENTS.contains(id))
}

/// One pass's experiment order for `seed`: the experiments carry their
/// own fixed seeds (the paper's numbers are tests), so the benchmark
/// seed decides only the order they run in.
pub fn experiment_order(seed: u64, heavy: bool) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = experiments(heavy).collect();
    for i in (1..ids.len()).rev() {
        let j = (splitmix(seed, i as u64) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids
}

/// Check tallies of experiment runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Checks evaluated.
    pub total: u64,
    /// Checks outside their tolerance.
    pub failed: u64,
}

/// Runs one pass over `order`, each experiment wrapped by `around`
/// (the traced run's timer), and tallies the checks.
pub fn repro_pass(
    order: &[&'static str],
    mut around: impl FnMut(&'static str, &mut dyn FnMut()),
) -> Checks {
    let mut checks = Checks::default();
    for &id in order {
        let quick = HEAVY_EXPERIMENTS.contains(&id);
        let mut result = None;
        around(id, &mut || result = run(id, quick));
        let result = result.expect("registry ids are known");
        checks.total += result.checks.len() as u64;
        checks.failed += result.checks.iter().filter(|c| !c.pass).count() as u64;
        black_box(&result.lines);
    }
    checks
}

/// One untraced rep of the paper workload, pausing for calibration after
/// every experiment when `interleave` is set: what its work cost, and the
/// checks.
pub fn repro_rep(
    order: &[&'static str],
    passes: u64,
    calib: &Calibrator,
    interleave: bool,
) -> (Shares, Checks) {
    let mut watch = Interleave::start(calib, u64::MAX);
    let mut checks = Checks::default();
    for _ in 0..passes {
        let pass = repro_pass(order, |_, f| {
            f();
            if interleave {
                watch.pause();
            }
        });
        checks.total += pass.total;
        checks.failed += pass.failed;
    }
    (watch.stop(), checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_permutes_the_experiments_and_nothing_more() {
        let mut a = experiment_order(1, true);
        let mut b = experiment_order(2, true);
        assert_eq!(a, experiment_order(1, true), "same seed, same order");
        assert_ne!(a, b, "another seed, another order");
        a.sort_unstable();
        b.sort_unstable();
        let mut all = ALL_EXPERIMENTS.to_vec();
        all.sort_unstable();
        assert_eq!(a, all);
        assert_eq!(b, all);
        let smoke = experiment_order(1, false);
        assert_eq!(smoke.len(), all.len() - HEAVY_EXPERIMENTS.len());
        assert!(HEAVY_EXPERIMENTS.iter().all(|id| !smoke.contains(id)));
    }

    #[test]
    fn the_loop_serves_what_run_cell_serves() {
        // The benchmark's own loop against the library's `run_cell`: same
        // seed, same mix, same report.
        use lightwave::par::Shard;
        use lightwave::service::{run_cell, ServiceConfig};
        let Kind::Service(spec) = WORKLOADS[0].kind else {
            panic!("prod_steady is a service workload");
        };
        let mut cell = Cell::new(DEFAULT_SEED, 0, spec.policy);
        drive(&mut cell, &spec, DEFAULT_SEED, 0..800, &mut NoProbe);
        let cfg = ServiceConfig {
            seed: DEFAULT_SEED,
            requests: 800,
            mean_gap: spec.mean_gap,
            mix: spec.mix,
            policy: spec.policy,
            ..ServiceConfig::default()
        };
        let shard = Shard {
            index: 0,
            start: 0,
            len: 800,
        };
        assert_eq!(cell.core.report(), &run_cell(&cfg, shard));
        assert_eq!(audit_service(&cell, 800), (0, Vec::new()));
    }

    #[test]
    fn probes_pair_up() {
        struct Count(u64, u64);
        impl Probe for Count {
            fn step<R>(&mut self, _request: u64, f: impl FnOnce() -> R) -> R {
                self.0 += 1;
                f()
            }
            fn batch(&mut self, _: u64, _: Nanos, _: &[ServiceEvent], _: &ServiceCore) {
                self.1 += 1;
            }
        }
        let Kind::Service(spec) = WORKLOADS[1].kind else {
            panic!("single_loss is a service workload");
        };
        let mut cell = Cell::new(3, 0, spec.policy);
        let mut pair = (Count(0, 0), Count(0, 0));
        drive(&mut cell, &spec, 3, 0..100, &mut pair);
        // 100 steps and the drain, seen by both.
        assert_eq!((pair.0 .0, pair.0 .1), (101, 101));
        assert_eq!((pair.1 .0, pair.1 .1), (101, 101));
    }
}
