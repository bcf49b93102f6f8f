//! Renders a sharded engine run on the trace timeline's *virtual* worker
//! lanes.
//!
//! The engine's determinism contract says thread count never changes an
//! answer — and the trace is part of the answer. So shards do **not**
//! render on the OS threads that happened to execute them: each shard
//! lands on lane `shard.index % TRACE_LANES` with a synthetic sim-time
//! cursor per lane, all of it a pure function of the shard plan. A run at
//! `LIGHTWAVE_THREADS=1` and at `=4` therefore exports byte-identical
//! timelines (DESIGN.md §6.2).

use crate::span::{Lane, SpanId, SpanKind};
use crate::Tracer;
use lightwave_par::Shard;
use lightwave_units::Nanos;

/// Number of virtual worker lanes shards render across. Fixed — never the
/// runtime thread count, which would break trace byte-identity.
pub(crate) const TRACE_LANES: u32 = 8;

/// The virtual lane for a shard: a pure function of its index.
pub(crate) fn shard_lane(shard_index: u64) -> Lane {
    Lane::Worker((shard_index % TRACE_LANES as u64) as u32)
}

/// Renders a shard plan as [`SpanKind::WorkerShard`] spans on the virtual
/// worker lanes, starting at sim-time `base` and costing `per_trial` per
/// trial. Each lane keeps its own cursor (shards on one lane are
/// back-to-back and linked follows-from, like a worker draining a queue);
/// lanes advance independently. Returns the span ids in shard order.
pub fn trace_shards(
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    base: Nanos,
    per_trial: Nanos,
    shards: &[Shard],
) -> Vec<SpanId> {
    let mut cursors = [base; TRACE_LANES as usize];
    let mut last_on_lane: [Option<SpanId>; TRACE_LANES as usize] = [None; TRACE_LANES as usize];
    let mut ids = Vec::with_capacity(shards.len());
    for shard in shards {
        let lane_idx = (shard.index % TRACE_LANES as u64) as usize;
        let start = cursors[lane_idx];
        let end = start + per_trial * shard.len;
        let id = tracer.span(
            shard_lane(shard.index),
            parent,
            start,
            end,
            SpanKind::WorkerShard {
                shard: shard.index,
                trials: shard.len,
            },
        );
        if let Some(prev) = last_on_lane[lane_idx] {
            tracer.link_follows(id, prev);
        }
        last_on_lane[lane_idx] = Some(id);
        cursors[lane_idx] = end;
        ids.push(id);
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwave_par::{plan_shards, Pool};

    #[test]
    fn shards_render_on_virtual_lanes_independent_of_thread_count() {
        // The run, then its rendering: the spans come from the shard plan
        // alone, so the pool's width cannot reach them.
        let render = |threads: usize| {
            let mut tracer = Tracer::new(5);
            let (sum, _) =
                Pool::new(threads).run_shards(3, 1_000, 64, |_rng, shard| shard.len, |a, b| a + b);
            let plan = plan_shards(1_000, 64);
            trace_shards(&mut tracer, None, Nanos(1_000), Nanos(10), &plan);
            (sum, tracer.spans().to_vec())
        };
        let (sum1, spans1) = render(1);
        let (sum4, spans4) = render(4);
        assert_eq!(sum1, 1_000);
        assert_eq!(sum1, sum4);
        assert_eq!(spans1, spans4, "trace is thread-count invariant");
        // 1000/64 ⇒ 15 shards across 8 lanes: lanes 0..6 get two shards.
        assert_eq!(spans1.len(), 15);
        let on_lane0: Vec<_> = spans1
            .iter()
            .filter(|s| s.lane == Lane::Worker(0))
            .collect();
        assert_eq!(on_lane0.len(), 2);
        assert_eq!(
            on_lane0[1].start, on_lane0[0].end,
            "lane cursor advances back-to-back"
        );
        assert_eq!(
            on_lane0[1].follows,
            Some(on_lane0[0].id),
            "queue-drain chain linked"
        );
    }
}
