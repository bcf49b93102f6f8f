//! # lightwave-service
//!
//! Fabric-as-a-service: a deterministic open-loop workload engine that
//! serves millions of slice requests over the real scheduler → superpod
//! → fabric stack, with admission control, priority classes, preemption,
//! weighted fairness, and mergeable queueing metrics.
//!
//! The paper's fabrics exist to serve *fleets* of jobs (§4.2.4:
//! dynamically scheduled slices that never interfere with running
//! models). This crate is the layer that exercises the stack as a
//! service rather than a scenario script:
//!
//! - [`arrival`] — slice-request arrivals (inference fleets, training
//!   jobs, maintenance windows) as a **pure function of `(seed,
//!   index)`** on the splitmix stream discipline: split-anywhere
//!   deterministic.
//! - [`SliceIntent`] — the northbound API; every request walks
//!   `validate → admit → compose → run → release` (or `reject` /
//!   `preempt`).
//! - [`ServiceCore`] — admission control with a bounded queue, weighted
//!   fair queueing across [`Priority`] classes, and preemption of lower
//!   priorities (the DESIGN §6.5 determinism contract).
//! - [`ServiceReport`] — blocking probability, per-class wait-time
//!   histograms (mergeable log2 buckets), utilization and goodput;
//!   integer-exact merges so sharded runs are byte-identical at any
//!   `LIGHTWAVE_THREADS`.
//! - [`run_cell_with`] / [`run_sharded`] — the one arrival loop and its
//!   sharded form (a year of arrivals across the pool as independent
//!   cells), watched through the [`Observer`] seam: `()`,
//!   [`ScopeCollector`], [`CampusObserver`], the single-cell
//!   [`Lifecycle`] (lifecycle spans and the queue-depth counter track),
//!   or any pair of them. Observation never changes the report. The
//!   scope collector and `Lifecycle` read each request's lifecycle
//!   through one decoder, the crate-private request fold.
//!
//! ```
//! use lightwave_par::Pool;
//! use lightwave_service::{run_sharded, CampusObserver, ServiceConfig};
//!
//! let cfg = ServiceConfig { requests: 2_000, ..ServiceConfig::default() };
//! let (report, (), _stats) = run_sharded(&Pool::new(2), &cfg, |_| ());
//! assert_eq!(report.submitted, 2_000);
//! assert!(report.utilization() > 0.0);
//! // Same report, bit for bit, at any thread count and under any observer:
//! let (watched, mut campus, _) = run_sharded(&Pool::new(1), &cfg, |_| CampusObserver::new());
//! assert_eq!(report, watched);
//! assert_eq!(campus.health_doc().pods.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// An invalid argument is refused as an `Err`; the few remaining sites carry
// an `allow` naming the invariant they rely on (tests are exempt, clippy.toml).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod arrivals;
pub mod campus;
pub mod engine;
mod fold;
pub mod intent;
pub mod lifecycle;
pub mod metrics;
pub mod queue;
pub mod scope;

pub use arrivals::{arrival, chips_for_cubes, Arrival, Mix};
pub use campus::{CampusObserver, POD_SCOPE_SWITCH};
pub use engine::{
    run_cell, run_cell_with, run_sharded, Observer, ServiceConfig, ShardObserver, Step, CELL_STREAM,
};
pub use intent::{IntentError, Priority, SliceIntent};
pub use lifecycle::Lifecycle;
pub use metrics::{
    erlang_b, ClassSnapshot, ClassStats, ServiceReport, ServiceSnapshot, SERVICE_REPORT_SCHEMA,
};
pub use queue::{PolicyConfig, RejectReason, ServiceCore, ServiceEvent};
pub use scope::{
    scope_sampled, scope_span_id, ClassScope, CriticalPath, ScopeCollector, ScopeDist, ScopePhase,
    ScopeReport, ScopeSnapshot, ScopeTimeline, SCOPE_SCHEMA,
};
