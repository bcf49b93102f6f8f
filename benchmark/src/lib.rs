//! `lwbench` — the repo's benchmark.
//!
//! Five workloads over the slice-request path (`arrival → ServiceCore →
//! scheduler → superpod → commit_delta → apply_delta`) and the paper
//! kernels, measured from outside: the end-to-end numbers from untraced
//! timed reps, the per-layer numbers from a traced run that replays the
//! recorded operation sequence against standalone layer instances. See
//! `benchmark/README.md` for the catalogue and how the metrics interact.

#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod catalogue;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
