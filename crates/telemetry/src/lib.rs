//! # lightwave-telemetry
//!
//! Fleet-wide observability for the lightwave-fabric workspace: the
//! §3.2.2 "telemetry and anomaly reporting" layer, built as a library the
//! device and control-plane crates record into.
//!
//! The paper's operational argument is that at-scale OCS deployment was
//! won or lost on observability: switches have a large *blast radius*
//! (one chassis fault disturbs every circuit through it), the optical
//! link budget is "a precious commodity" eroded in tenths of a dB, and
//! the fleet target is ≥ 99.98% availability per OCS (§4.1.1). This
//! crate provides the corresponding machinery:
//!
//! - [`EventBus`] — structured events with bounded ring retention,
//!   stamped with **simulation time** ([`Nanos`]) passed by callers. No
//!   wall clock exists anywhere in this crate, so seeded runs export
//!   byte-identical state (DESIGN.md §6 determinism rule).
//! - [`AlarmAggregator`] — fleet alarm ingestion with debounce,
//!   hysteresis, severity escalation, and blast-radius correlation: one
//!   FRU failure pages once, not 48 times.
//! - [`SloTracker`] — per-object availability and error budget against
//!   the paper's 99.98% OCS target.
//! - [`export`] — a text dashboard and a JSON-lines serializer.
//! - [`timeseries`] — bounded series history: one raw ring of
//!   integer-quantized samples per series.
//! - [`rollup`] — the campus observability plane: port leaves of
//!   [`Aggregate`]s that merge *exactly* in any order, folded into
//!   switch, pod and campus rows when the versioned queryable
//!   `campus_health.json` snapshot asks.
//! - `detect` — O(1)-per-sample streaming detectors (EWMA drift,
//!   CUSUM change-point, windowed rate-spike), pure integer state.
//! - [`health`] — the analytics tier: detector banks over port drift
//!   and relock rates, a per-switch score rollup, and the
//!   preemptive-maintenance advisor (the §3.2.2 "repair before it
//!   fails" loop as a library).
//!
//! Nothing here takes a policy value: every threshold, window and
//! capacity the workspace has only ever run one value of is a documented
//! `const` next to the code that reads it (DESIGN.md §6.4 lists them).
//!
//! [`FleetTelemetry`] bundles events, alarms and SLOs for the common
//! case. The [`Severity`] scale defined here is re-exported by
//! `lightwave-ocs` as `ocs::telemetry::Severity`, so per-switch alarms
//! and fleet incidents share one ordering.
//!
//! In the workspace DAG this crate sits directly above `lightwave-units`;
//! `ocs`, `transceiver`, `fabric` and `superpod` emit events and alarms
//! into it, each through its own `instrument` module.
//!
//! ```
//! use lightwave_telemetry::{FleetTelemetry, AlarmRecord, AlarmCause, Severity};
//! use lightwave_units::Nanos;
//!
//! let mut t = FleetTelemetry::new();
//! // A FRU fails; its 48 disturbed circuits alarm. One page.
//! t.ingest_alarm(AlarmRecord {
//!     at: Nanos::from_millis(20),
//!     severity: Severity::Warning,
//!     switch: 3,
//!     cause: AlarmCause::FruFailed { slot: 6 },
//! });
//! for port in 0..48u16 {
//!     t.ingest_alarm(AlarmRecord {
//!         at: Nanos::from_millis(21 + port as u64),
//!         severity: Severity::Warning,
//!         switch: 3,
//!         cause: AlarmCause::AlignmentTimeout { north: port },
//!     });
//! }
//! assert_eq!(t.alarms.pages(), 1);
//! assert_eq!(t.alarms.suppressed(), 48);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alarms;
mod detect;
pub mod events;
pub mod exemplar;
pub mod export;
pub mod fleet;
pub mod health;
pub mod histogram;
pub mod rollup;
pub mod severity;
pub mod slo;
pub mod timeseries;

pub use alarms::{
    AlarmAggregator, AlarmCause, AlarmRecord, CauseClass, Incident, IngestOutcome, TrendSignal,
};
pub use events::{Event, EventBus, EventKind};
pub use exemplar::{Exemplar, ExemplarBucket, ExemplarHistogram, ExemplarSnapshot};
pub use export::JsonlRecord;
pub use fleet::FleetTelemetry;
pub use health::{
    FleetHealth, FleetHealthReport, MaintenanceAction, MaintenanceKind, SwitchHealth, TrendTrip,
    HEALTH_SCHEMA,
};
pub use histogram::{HistogramSnapshot, LogHistogram};
pub use rollup::{
    Aggregate, CampusHealthDoc, LeafId, MetricCell, NodeHealth, PodRow, PortPath, RollupMetric,
    RollupTree, SwitchRow, CAMPUS_HEALTH_SCHEMA,
};
pub use severity::Severity;
pub use slo::{BurnRateLedger, BurnReport, BurnStatus, ObjectSlo, SloReport, SloTracker};
pub use timeseries::{
    series_switch, CounterSample, CounterTrack, MetricKey, Sample, SeriesId, SeriesStore,
    TimeSeries,
};

// Re-exported for the doc example above.
#[doc(hidden)]
pub use lightwave_units::Nanos;
