//! `lightwave-chaos`: deterministic fault injection for the lightwave
//! control plane.
//!
//! The paper's operational story (§4.2–§4.3) is that an OCS fabric
//! stays correct through FRU failures, stuck mirrors, camera-verify
//! rejections, transceiver relock storms, and maintenance overlapping
//! reconfiguration. This crate turns that claim into a checkable
//! contract:
//!
//! 1. [`schedule`] generates randomized multi-fault timelines, each a
//!    pure function of `(seed, index)` using the same splitmix stream
//!    discipline as `lightwave-par` shard RNGs.
//! 2. [`executor`] drives the *real* control-plane stack (ocs → fabric
//!    → scheduler → superpod → telemetry → trace) through a schedule,
//!    drawing no randomness of its own, and re-checks the [`invariant`]
//!    library after every event.
//! 3. [`mod@hunt`] fans schedules across a `lightwave-par` pool with
//!    ordered reduction, so reports are byte-identical at any thread
//!    count. [`hunt_service`] runs the fabric-as-a-service variant:
//!    [`FaultSchedule::generate_service`] schedules interleave slice
//!    arrivals (driving the executor's embedded
//!    [`lightwave_service::ServiceCore`]) with hardware faults, and the
//!    invariant library additionally checks request conservation and
//!    that every running service request stays backed by a live slice.
//! 4. [`mod@shrink`] delta-debugs a violating schedule down to a 1-minimal
//!    event list, and [`repro`] serializes it as runnable JSONL.
//!
//! The determinism contract — why replays and shrinking are sound — is
//! written up in `DESIGN.md` §6.3.

pub mod executor;
pub mod hunt;
pub mod invariant;
pub mod repro;
pub mod schedule;
pub mod shrink;

pub use executor::{
    run_schedule, run_schedule_world, ChaosConfig, FaultRecovery, InjectedBug, ScheduleOutcome,
    World,
};
pub use hunt::{hunt, hunt_service, HuntConfig, HuntReport};
pub use invariant::{check_all, InvariantKind, Violation};
pub use repro::{parse_repro, write_repro, Repro, REPRO_SCHEMA};
pub use schedule::{FaultKind, FaultSchedule, GEN_OCS_COUNT};
pub use shrink::{shrink, ShrinkResult};
