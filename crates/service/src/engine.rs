//! The open-loop workload engine: millions of arrivals over real pods,
//! one driver, one [`Observer`] seam.
//!
//! [`run_cell_with`] is the only arrival loop: it serves one *cell* — a
//! fresh [`Superpod`] + [`ServiceCore`] over a [`Shard`] of the arrival
//! index space — and hands every [`ServiceEvent`] batch to its observer
//! before clearing it. [`run_sharded`] splits the index space with
//! [`plan_shards`](lightwave_par::plan_shards), runs one cell (and one
//! observer from the caller's factory) per shard across the pool, and
//! merges reports and observer outputs in shard order.
//!
//! The observer rule (DESIGN §6.5): an observer sees every batch before
//! it is cleared, never touches the pod or the core, and merges in shard
//! order. Therefore the [`ServiceReport`] is invariant under observation,
//! and report and outputs are **byte-identical at any
//! `LIGHTWAVE_THREADS`**. The observers in this crate:
//! `()` (watches nothing), [`ScopeCollector`](crate::ScopeCollector),
//! [`CampusObserver`](crate::CampusObserver), the single-cell
//! [`Lifecycle`](crate::Lifecycle), and any pair of observers.

use crate::arrivals::{arrival, Mix};
use crate::metrics::ServiceReport;
use crate::queue::{PolicyConfig, ServiceCore, ServiceEvent};
use lightwave_par::{splitmix, Pool, RunStats, Shard};
use lightwave_superpod::Superpod;
use lightwave_units::Nanos;

/// Stream offset deriving each cell's pod seed from the run seed.
pub const CELL_STREAM: u64 = 0xCE11_0D5E_ED00_0001;

/// One open-loop run's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Arrival-stream seed.
    pub seed: u64,
    /// Total arrivals.
    pub requests: u64,
    /// Mean inter-arrival gap (scales the unit-mean Exp(1) gaps; the
    /// offered-load knob).
    pub mean_gap: Nanos,
    /// Workload mix.
    pub mix: Mix,
    /// Admission policy.
    pub policy: PolicyConfig,
    /// Arrivals per cell in [`run_sharded`].
    pub shard_size: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            seed: 0x5EED,
            requests: 10_000,
            mean_gap: Nanos::from_millis(30),
            mix: Mix::Production,
            policy: PolicyConfig::default(),
            shard_size: 4_096,
        }
    }
}

impl ServiceConfig {
    /// The gap before arrival `a` in sim time: the unit-mean draw scaled
    /// by `mean_gap` in integer arithmetic (deterministic at any thread
    /// count).
    pub fn scaled_gap(&self, gap_unit_micros: u64) -> Nanos {
        Nanos(gap_unit_micros.saturating_mul(self.mean_gap.0) / 1_000_000)
    }
}

/// Where in the run an event batch was emitted.
#[derive(Debug, Clone, Copy)]
pub struct Step<'a> {
    /// The cell's shard index.
    pub cell: u64,
    /// Sim time of the step: the arrival's, or — for the last batch —
    /// the end of the drain.
    pub now: Nanos,
    /// The cell's policy core, after the step.
    pub core: &'a ServiceCore,
}

/// A watcher of one cell's event stream (see the module docs for the
/// rule every observer obeys).
pub trait Observer {
    /// What a finished cell hands back.
    type Output;

    /// Sees the events one step caused, before they are cleared.
    fn batch(&mut self, step: &Step<'_>, events: &[ServiceEvent]);

    /// Ends the cell at sim time `end` (the end of the drain).
    fn finish(self, end: Nanos) -> Self::Output;
}

/// An [`Observer`] whose per-cell outputs fold into one, which
/// [`run_sharded`] needs.
pub trait ShardObserver: Observer {
    /// Folds the output of a later shard into `into`. Called in shard
    /// order only.
    fn merge(into: &mut Self::Output, later: Self::Output);
}

/// Watches nothing: the driver compiles to the bare loop.
impl Observer for () {
    type Output = ();

    #[inline]
    fn batch(&mut self, _step: &Step<'_>, _events: &[ServiceEvent]) {}

    #[inline]
    fn finish(self, _end: Nanos) {}
}

impl ShardObserver for () {
    #[inline]
    fn merge(_into: &mut (), _later: ()) {}
}

/// Two observers as one: each batch goes to both, in order.
impl<A: Observer, B: Observer> Observer for (A, B) {
    type Output = (A::Output, B::Output);

    fn batch(&mut self, step: &Step<'_>, events: &[ServiceEvent]) {
        self.0.batch(step, events);
        self.1.batch(step, events);
    }

    fn finish(self, end: Nanos) -> Self::Output {
        (self.0.finish(end), self.1.finish(end))
    }
}

impl<A: ShardObserver, B: ShardObserver> ShardObserver for (A, B) {
    fn merge(into: &mut Self::Output, later: Self::Output) {
        A::merge(&mut into.0, later.0);
        B::merge(&mut into.1, later.1);
    }
}

/// Runs one independent service cell over `shard`'s index range under
/// `obs` and returns its report and the observer's output. Pure: same
/// `(cfg, shard)` → same report, whatever watches.
pub fn run_cell_with<O: Observer>(
    cfg: &ServiceConfig,
    shard: Shard,
    mut obs: O,
) -> (ServiceReport, O::Output) {
    let mut pod = Superpod::new(splitmix(cfg.seed ^ CELL_STREAM, shard.index));
    let mut core = ServiceCore::new(cfg.policy);
    let mut events = Vec::new();
    let mut now = Nanos(0);
    for i in shard.start..shard.start + shard.len {
        let a = arrival(cfg.seed, i, cfg.mix);
        now += cfg.scaled_gap(a.gap_unit_micros);
        core.advance_to(&mut pod, now, &mut events);
        core.submit(&mut pod, &a.intent, &mut events);
        let step = Step {
            cell: shard.index,
            now,
            core: &core,
        };
        obs.batch(&step, &events);
        events.clear();
    }
    let end = core.drain(&mut pod, &mut events);
    let step = Step {
        cell: shard.index,
        now: end,
        core: &core,
    };
    obs.batch(&step, &events);
    (core.report().clone(), obs.finish(end))
}

/// [`run_cell_with`] watching nothing.
pub fn run_cell(cfg: &ServiceConfig, shard: Shard) -> ServiceReport {
    run_cell_with(cfg, shard, ()).0
}

/// Shards `cfg.requests` arrivals across `pool` as independent cells,
/// each under the observer `make` builds for its shard (`|_| ()` to
/// watch nothing), and merges reports and observer outputs in shard
/// order. Everything but the [`RunStats`] is byte-identical at any
/// thread count.
pub fn run_sharded<O>(
    pool: &Pool,
    cfg: &ServiceConfig,
    make: impl Fn(Shard) -> O + Sync,
) -> (ServiceReport, O::Output, RunStats)
where
    O: ShardObserver,
    O::Output: Send,
{
    let ((report, out), stats) = pool.run_shards(
        cfg.seed,
        cfg.requests,
        cfg.shard_size,
        |_rng, shard| run_cell_with(cfg, shard, make(shard)),
        |(mut report, mut out), (later_report, later_out)| {
            report.merge(&later_report);
            O::merge(&mut out, later_out);
            (report, out)
        },
    );
    (report, out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            requests: 600,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn sharded_report_is_thread_count_invariant() {
        let cfg = small_cfg();
        let (serial, ..) = run_sharded(&Pool::new(1), &cfg, |_| ());
        let (quad, ..) = run_sharded(&Pool::new(4), &cfg, |_| ());
        assert_eq!(serial, quad);
        assert_eq!(serial.submitted, 600);
        assert!(serial.completed() > 0);
        serial.render(); // must not panic
    }

    #[test]
    fn cells_are_independent_of_partitioning() {
        // One 600-request cell vs two 300-request cells: different cell
        // boundaries change per-cell state (fresh pods), but every index
        // is served exactly once and conservation holds in both.
        let cfg = small_cfg();
        let one = run_cell(
            &cfg,
            Shard {
                index: 0,
                start: 0,
                len: 600,
            },
        );
        assert_eq!(one.submitted, 600);
        let shards = lightwave_par::plan_shards(600, 300);
        let mut merged = ServiceReport::default();
        for s in shards {
            merged.merge(&run_cell(&cfg, s));
        }
        assert_eq!(merged.submitted, 600);
        assert_eq!(one.invalid, merged.invalid, "validation is per index");
    }
}
