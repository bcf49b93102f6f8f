//! # lightwave-trace
//!
//! Causal tracing for the lightwave-fabric workspace: the *timeline*
//! pillar of observability, complementing `lightwave-telemetry`'s
//! aggregate pillar (events, alarms, SLO).
//!
//! The paper's operational story (§3.2.2, §4.1.1) is timeline-shaped: an
//! OCS reconfiguration is a causal chain — drain → mirror command →
//! settle → monitor-camera verify → undrain — and production debugging
//! means reconstructing exactly that chain after a fault. This crate
//! provides:
//!
//! - [`Tracer`] — span collection with **deterministic ids**
//!   (`lightwave_par::splitmix` off a seeded counter, no wall clock), explicit
//!   parent/child and follows-from links, sim-time
//!   [`Nanos`](lightwave_units::Nanos) stamps, and
//!   typed payloads ([`SpanKind`]) for the domain operations. Same seed
//!   ⇒ byte-identical trace, at any worker count.
//! - [`to_chrome_trace`] — a Chrome trace-event / Perfetto JSON
//!   exporter; the `trace.json` opens at <https://ui.perfetto.dev>, with
//!   switches and virtual workers as named `(pid, tid)` lanes.
//! - [`FlightRecorder`] — a bounded ring of recent spans + events that
//!   snapshots a JSONL postmortem bundle the moment any
//!   [`AlarmAggregator`](lightwave_telemetry::AlarmAggregator) incident
//!   reaches `Critical` severity. A Critical is never dropped, even if
//!   it was absorbed into an open incident and cleared before the next
//!   poll. [`FlightDump::from_jsonl`] reads a bundle back, beside the
//!   [`FlightDump::to_jsonl`] that writes it.
//! - [`validate`] — the in-repo validator of the trace export, used by
//!   CI (no network, no external schema tooling).
//! - [`instrument::trace_shards`] — renders a `lightwave-par` shard plan
//!   on virtual worker lanes, a pure function of the plan.
//!
//! In the workspace DAG this crate sits directly above `lightwave-telemetry`
//! and `lightwave-par`; the operational crates' `instrument`
//! modules render their reports into a `&mut Tracer` with `trace_*`
//! functions (`ocs::instrument::trace_reconfig`,
//! `superpod::instrument::{trace_compose, trace_release}`), separate from
//! the `record_*` functions that feed `&mut FleetTelemetry` — callers
//! compose the two.
//!
//! ```
//! use lightwave_trace::{Lane, SpanKind, Tracer, to_chrome_trace};
//! use lightwave_units::Nanos;
//!
//! let mut tracer = Tracer::new(42);
//! let commit = tracer.span(
//!     Lane::Switch(0),
//!     None,
//!     Nanos::from_millis(1),
//!     Nanos::from_millis(25),
//!     SpanKind::ReconfigCommit { switch: 0, added: 12, removed: 4, untouched: 368 },
//! );
//! lightwave_trace::reconfig_phase_spans(
//!     &mut tracer, commit, 0, Nanos::from_millis(1), Nanos::from_millis(25));
//! let json = to_chrome_trace(&tracer, &[], &Default::default());
//! assert!(lightwave_trace::validate::validate_chrome_trace(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instrument;
pub mod perfetto;
pub mod recorder;
pub mod span;
pub mod tracer;
pub mod validate;

pub use perfetto::{to_chrome_trace, TRACE_SCHEMA};
pub use recorder::{FlightDump, FlightEntry, FlightRecorder, FLIGHT_SCHEMA};
pub use span::{InstantRecord, Lane, ReconfigPhase, RequestStage, SpanId, SpanKind, SpanRecord};
pub use tracer::{derive_span_id, reconfig_phase_spans, Tracer};
