//! Fleet-wide alarm aggregation: debounce, hysteresis, escalation, and
//! blast-radius correlation.
//!
//! §3.2.2: the switches have a large "blast radius" — one chassis-level
//! fault disturbs every circuit through the switch, and naive per-alarm
//! paging would page an operator 48 times for one failed FRU. The
//! aggregator turns the raw per-switch alarm stream into *incidents*:
//!
//! - **Debounce**: repeats of the same fault class on the same switch
//!   coalesce into the open incident (occurrence-counted, no new page).
//! - **Blast-radius correlation**: while a root-cause incident (FRU or
//!   chassis) is active on a switch, port-scoped symptoms from that
//!   switch (mirror, alignment, loss alarms) are absorbed as correlated
//!   children instead of paging.
//! - **Escalation**: a storm of occurrences escalates an incident to
//!   [`Severity::Critical`]; severity never moves down while an incident
//!   lives (hysteresis — flapping cannot downgrade a page).
//! - **Clearing**: an incident clears only after a quiet period with no
//!   new occurrences, and reopening within the debounce window revives
//!   the old incident rather than paging again (flap suppression).

use crate::severity::Severity;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Machine-parseable cause of a fleet alarm.
///
/// Mirrors the per-switch `ocs::telemetry::AlarmCode` plus causes raised
/// by other subsystems. Measured losses are quantized to milli-dB so the
/// type is fully `Eq`/`Ord` (and hence usable as a map key and exactly
/// comparable across runs).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AlarmCause {
    /// A MEMS mirror failed; spare swapped if available.
    MirrorFailed {
        /// North (true) or South (false) die.
        north_die: bool,
        /// Port whose mirror failed.
        port: u16,
        /// Whether a spare restored the port.
        spare_used: bool,
    },
    /// Camera alignment loop failed to converge on a circuit.
    AlignmentTimeout {
        /// North port of the circuit.
        north: u16,
    },
    /// A chassis FRU failed.
    FruFailed {
        /// Slot index in the chassis.
        slot: u32,
    },
    /// The chassis dropped below operational redundancy.
    ChassisDown,
    /// A path's insertion loss exceeded its alarm threshold.
    HighLoss {
        /// North port.
        north: u16,
        /// South port.
        south: u16,
        /// Measured loss in milli-dB (quantized for exact comparison).
        loss_mdb: i32,
    },
    /// A transceiver link renegotiated below its top rate (§3.3.1).
    RateFallback {
        /// Port (census index) of the link.
        port: u32,
    },
    /// A collective phase ran materially slower than baseline.
    Straggler {
        /// Torus dimension of the slow phase.
        dim: u8,
    },
    /// A streaming detector caught a slow trend (drift creep or a
    /// sustained rate spike) before any hard-failure alarm fired.
    TrendAnomaly {
        /// Which trend signal tripped.
        signal: TrendSignal,
        /// Port the trend is attributed to (0 for switch-wide signals).
        port: u16,
    },
}

/// The trend signal a streaming detector watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TrendSignal {
    /// Per-port insertion-loss drift creeping toward the link budget.
    LossDrift,
    /// Sustained transceiver relock/fallback rate on one switch.
    RelockRate,
    /// Multi-window SLO error-budget burn (fast **and** slow window
    /// both over the paging threshold — see
    /// [`crate::slo::BurnRateLedger`]). The alarm's `switch` field
    /// carries the pod id, or [`crate::slo::CAMPUS_ALARM_SWITCH`] for
    /// the campus-wide ledger.
    ErrorBudgetBurn,
}

/// Correlation class of a cause: incidents are keyed per (switch, class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CauseClass {
    /// Chassis-level root cause.
    Chassis,
    /// FRU-level root cause.
    Fru,
    /// Mirror-level symptom.
    Mirror,
    /// Alignment-loop symptom.
    Alignment,
    /// Optical-loss symptom.
    Loss,
    /// Transceiver link symptom.
    Link,
    /// Collective-performance symptom.
    Collective,
    /// Streaming-detector trend anomaly (predictive, not correlatable:
    /// a trend page is the early warning itself, never absorbed into a
    /// hard-failure incident's blast radius).
    Trend,
}

impl AlarmCause {
    /// The correlation class of this cause.
    pub fn class(&self) -> CauseClass {
        match self {
            AlarmCause::MirrorFailed { .. } => CauseClass::Mirror,
            AlarmCause::AlignmentTimeout { .. } => CauseClass::Alignment,
            AlarmCause::FruFailed { .. } => CauseClass::Fru,
            AlarmCause::ChassisDown => CauseClass::Chassis,
            AlarmCause::HighLoss { .. } => CauseClass::Loss,
            AlarmCause::RateFallback { .. } => CauseClass::Link,
            AlarmCause::Straggler { .. } => CauseClass::Collective,
            AlarmCause::TrendAnomaly { .. } => CauseClass::Trend,
        }
    }

    /// Whether this cause is a port-scoped symptom that a root-cause
    /// incident on the same switch can absorb.
    pub fn is_correlatable_symptom(&self) -> bool {
        matches!(
            self.class(),
            CauseClass::Mirror | CauseClass::Alignment | CauseClass::Loss
        )
    }
}

/// One raw alarm, attributed to a source switch (or pseudo-switch for
/// non-OCS subsystems).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlarmRecord {
    /// Simulation time the alarm fired.
    pub at: Nanos,
    /// Severity as raised.
    pub severity: Severity,
    /// Source switch id.
    pub switch: u32,
    /// Cause.
    pub cause: AlarmCause,
}

/// Reopening a cleared incident within this window (500 ms) of its
/// clearing revives it instead of paging again (flap suppression).
pub const DEBOUNCE: Nanos = Nanos(500_000_000);
/// An incident clears after this long (5 s) without new occurrences.
pub const CLEAR_AFTER: Nanos = Nanos(5_000_000_000);
/// Occurrence count at which an open incident escalates to Critical.
pub const ESCALATE_AFTER: u64 = 10;
/// Symptoms within this window (2 s) of a root incident's last activity
/// are absorbed into it.
pub const CORRELATION_WINDOW: Nanos = Nanos(2_000_000_000);

/// A correlated, debounced alarm group — the unit that pages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Stable id, assigned in open order.
    pub id: u64,
    /// Source switch.
    pub switch: u32,
    /// Correlation class.
    pub class: CauseClass,
    /// First cause observed (the presumed root).
    pub root: AlarmCause,
    /// When the incident opened.
    pub opened_at: Nanos,
    /// Last occurrence or absorbed symptom.
    pub last_at: Nanos,
    /// Worst severity seen (never decreases).
    pub severity: Severity,
    /// Same-class occurrences (including the opening alarm).
    pub occurrences: u64,
    /// Symptoms absorbed by blast-radius correlation.
    pub correlated: u64,
    /// Set when the incident has gone quiet and cleared.
    pub cleared_at: Option<Nanos>,
}

impl Incident {
    /// Whether the incident is still open.
    pub fn is_open(&self) -> bool {
        self.cleared_at.is_none()
    }
}

/// What [`AlarmAggregator::ingest`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// A new incident opened (this is the only outcome that pages).
    Paged {
        /// The new incident's id.
        incident: u64,
    },
    /// Coalesced into an already-open (or revived) incident of its class.
    Coalesced {
        /// The absorbing incident's id.
        incident: u64,
    },
    /// Escalated its incident to Critical while coalescing.
    Escalated {
        /// The escalated incident's id.
        incident: u64,
    },
    /// Absorbed into a root-cause incident's blast radius.
    Correlated {
        /// The root incident's id.
        incident: u64,
    },
}

impl IngestOutcome {
    /// The incident the record landed in.
    pub fn incident(&self) -> u64 {
        match *self {
            IngestOutcome::Paged { incident }
            | IngestOutcome::Coalesced { incident }
            | IngestOutcome::Escalated { incident }
            | IngestOutcome::Correlated { incident } => incident,
        }
    }
}

/// The fleet alarm aggregator.
#[derive(Debug, Default)]
pub struct AlarmAggregator {
    /// Every incident ever opened, in id order (`incidents[id]`).
    incidents: Vec<Incident>,
    /// Open (or recently cleared, for debounce) incident per key.
    latest: BTreeMap<(u32, CauseClass), usize>,
    pages: u64,
    suppressed: u64,
    ingested: u64,
}

impl AlarmAggregator {
    /// An empty aggregator.
    pub fn new() -> AlarmAggregator {
        AlarmAggregator::default()
    }

    /// Ingests one alarm record. Records must arrive in non-decreasing
    /// time order per switch (the natural order of a simulation export).
    pub fn ingest(&mut self, rec: AlarmRecord) -> IngestOutcome {
        self.ingested += 1;
        let class = rec.cause.class();
        let key = (rec.switch, class);

        // 1. An open (or revivable) incident of the same class absorbs
        //    the record: debounce.
        if let Some(&idx) = self.latest.get(&key) {
            // Open incidents absorb anything within the clear window of
            // their last activity; cleared ones revive within the
            // debounce window of their *clearing* (flap suppression).
            let (anchor, quiet_limit) = match self.incidents[idx].cleared_at {
                None => (self.incidents[idx].last_at, CLEAR_AFTER),
                Some(cleared) => (cleared, DEBOUNCE),
            };
            let since = rec.at.saturating_sub(anchor);
            if since <= quiet_limit {
                let inc = &mut self.incidents[idx];
                if inc.cleared_at.is_some() {
                    // Flap: revive without a fresh page.
                    inc.cleared_at = None;
                }
                inc.occurrences += 1;
                inc.last_at = inc.last_at.max(rec.at);
                let before = inc.severity;
                inc.severity = inc.severity.max(rec.severity);
                self.suppressed += 1;
                // A Critical record must never vanish into a quieter
                // incident: absorbing one lifts the incident and reports
                // Escalated so the event stream (and anything wired to
                // it, like a flight recorder) sees the severity change.
                if inc.severity == Severity::Critical && before != Severity::Critical {
                    return IngestOutcome::Escalated { incident: inc.id };
                }
                // Trend incidents are predictive early warnings with
                // non-escalating semantics: a repeating trend signal
                // (burn-rate re-checks, detector re-trips) coalesces
                // but never storms its way to Critical — only a raised
                // severity on the record itself can lift it (above).
                if class != CauseClass::Trend
                    && inc.occurrences >= ESCALATE_AFTER
                    && inc.severity.is_worse_than(Severity::Info)
                    && inc.severity != Severity::Critical
                {
                    inc.severity = Severity::Critical;
                    return IngestOutcome::Escalated { incident: inc.id };
                }
                return IngestOutcome::Coalesced { incident: inc.id };
            }
        }

        // 2. Blast-radius correlation: a recent root-cause incident on
        //    the same switch absorbs port-scoped symptoms.
        if rec.cause.is_correlatable_symptom() {
            for root_class in [CauseClass::Fru, CauseClass::Chassis] {
                if let Some(&idx) = self.latest.get(&(rec.switch, root_class)) {
                    let inc = &mut self.incidents[idx];
                    let since = rec.at.saturating_sub(inc.last_at);
                    if inc.cleared_at.is_none() && since <= CORRELATION_WINDOW {
                        inc.correlated += 1;
                        inc.last_at = inc.last_at.max(rec.at);
                        let before = inc.severity;
                        inc.severity = inc.severity.max(rec.severity);
                        self.suppressed += 1;
                        // Same never-drop-Critical rule as the debounce
                        // branch: a Critical symptom lifting its root
                        // incident reports Escalated, not a silent absorb.
                        if inc.severity == Severity::Critical && before != Severity::Critical {
                            return IngestOutcome::Escalated { incident: inc.id };
                        }
                        return IngestOutcome::Correlated { incident: inc.id };
                    }
                }
            }
        }

        // 3. Nothing absorbs it: open a new incident. This pages.
        let id = self.incidents.len() as u64;
        self.incidents.push(Incident {
            id,
            switch: rec.switch,
            class,
            root: rec.cause,
            opened_at: rec.at,
            last_at: rec.at,
            severity: rec.severity,
            occurrences: 1,
            correlated: 0,
            cleared_at: None,
        });
        self.latest.insert(key, id as usize);
        self.pages += 1;
        IngestOutcome::Paged { incident: id }
    }

    /// Advances aggregator time, clearing incidents quiet for longer than
    /// [`CLEAR_AFTER`]. Returns ids of incidents cleared now.
    pub fn advance(&mut self, now: Nanos) -> Vec<u64> {
        let mut cleared = Vec::new();
        for inc in &mut self.incidents {
            if inc.is_open() && now.saturating_sub(inc.last_at) > CLEAR_AFTER {
                inc.cleared_at = Some(now);
                cleared.push(inc.id);
            }
        }
        cleared
    }

    /// Every incident ever opened, in id (= open) order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Incident by id.
    pub fn incident(&self, id: u64) -> Option<&Incident> {
        self.incidents.get(id as usize)
    }

    /// Currently-open incidents.
    pub fn open_incidents(&self) -> impl Iterator<Item = &Incident> {
        self.incidents.iter().filter(|i| i.is_open())
    }

    /// Total pages emitted (new incidents opened).
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Alarms absorbed without paging (debounced + correlated).
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Total alarm records ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ms: u64, severity: Severity, switch: u32, cause: AlarmCause) -> AlarmRecord {
        AlarmRecord {
            at: Nanos::from_millis(at_ms),
            severity,
            switch,
            cause,
        }
    }

    #[test]
    fn one_fru_failure_pages_once_not_48_times() {
        // The §3.2.2 blast-radius scenario: an HV-driver FRU fails and
        // every one of its 48 disturbed circuits raises an alignment
        // alarm. The operator gets exactly one page.
        let mut agg = AlarmAggregator::new();
        agg.ingest(rec(
            0,
            Severity::Warning,
            3,
            AlarmCause::FruFailed { slot: 6 },
        ));
        for port in 0..48u16 {
            agg.ingest(rec(
                1 + port as u64,
                Severity::Warning,
                3,
                AlarmCause::AlignmentTimeout { north: port },
            ));
        }
        assert_eq!(agg.pages(), 1, "one incident, one page");
        assert_eq!(agg.suppressed(), 48);
        let inc = &agg.incidents()[0];
        assert_eq!(inc.correlated, 48);
        assert_eq!(inc.class, CauseClass::Fru);
    }

    #[test]
    fn trend_repeats_coalesce_without_escalating() {
        // A burn-rate ledger re-checks every poll while the condition
        // holds, so a sustained burn produces a storm of identical
        // Trend records. They must coalesce into the one open page and
        // never occurrence-escalate to Critical: a trend is the early
        // warning itself, not a worsening hard failure.
        let mut agg = AlarmAggregator::new();
        let trend = AlarmCause::TrendAnomaly {
            signal: TrendSignal::ErrorBudgetBurn,
            port: 0,
        };
        let first = agg.ingest(rec(0, Severity::Warning, 2, trend.clone()));
        assert!(matches!(first, IngestOutcome::Paged { .. }));
        for i in 0..100u64 {
            let out = agg.ingest(rec(1 + i, Severity::Warning, 2, trend.clone()));
            assert!(
                matches!(out, IngestOutcome::Coalesced { .. }),
                "repeat {i} must coalesce, got {out:?}"
            );
        }
        let inc = &agg.incidents()[0];
        assert_eq!(inc.class, CauseClass::Trend);
        assert_eq!(inc.occurrences, 101);
        assert_eq!(inc.severity, Severity::Warning, "no occurrence escalation");
        // The never-drop-Critical rule still applies: a genuinely
        // Critical trend record lifts the incident and reports it.
        let out = agg.ingest(rec(200, Severity::Critical, 2, trend));
        assert!(matches!(out, IngestOutcome::Escalated { .. }));
        assert_eq!(agg.incidents()[0].severity, Severity::Critical);
    }

    #[test]
    fn symptoms_on_other_switches_still_page() {
        let mut agg = AlarmAggregator::new();
        agg.ingest(rec(
            0,
            Severity::Warning,
            3,
            AlarmCause::FruFailed { slot: 6 },
        ));
        let out = agg.ingest(rec(
            1,
            Severity::Warning,
            4,
            AlarmCause::AlignmentTimeout { north: 0 },
        ));
        assert!(matches!(out, IngestOutcome::Paged { .. }));
        assert_eq!(agg.pages(), 2, "correlation is per-switch");
    }

    #[test]
    fn debounce_coalesces_same_class_repeats() {
        let mut agg = AlarmAggregator::new();
        let first = agg.ingest(rec(
            0,
            Severity::Warning,
            1,
            AlarmCause::MirrorFailed {
                north_die: true,
                port: 5,
                spare_used: true,
            },
        ));
        let second = agg.ingest(rec(
            100,
            Severity::Warning,
            1,
            AlarmCause::MirrorFailed {
                north_die: true,
                port: 9,
                spare_used: true,
            },
        ));
        assert!(matches!(first, IngestOutcome::Paged { .. }));
        assert!(matches!(second, IngestOutcome::Coalesced { .. }));
        assert_eq!(agg.pages(), 1);
        assert_eq!(agg.incidents()[0].occurrences, 2);
    }

    #[test]
    fn occurrence_storm_escalates_to_critical() {
        let mut agg = AlarmAggregator::new();
        let mut escalated = false;
        for i in 0..12u64 {
            let out = agg.ingest(rec(
                i * 10,
                Severity::Warning,
                2,
                AlarmCause::AlignmentTimeout { north: 0 },
            ));
            if matches!(out, IngestOutcome::Escalated { .. }) {
                escalated = true;
            }
        }
        assert!(escalated, "a 12-occurrence storm escalates");
        assert_eq!(agg.incidents()[0].severity, Severity::Critical);
        assert_eq!(agg.pages(), 1, "escalation reuses the existing page");
    }

    #[test]
    fn critical_never_downgrades_while_flapping() {
        let mut agg = AlarmAggregator::new();
        agg.ingest(rec(0, Severity::Critical, 7, AlarmCause::ChassisDown));
        // Later Warning repeats of the same class must not soften it.
        agg.ingest(rec(50, Severity::Warning, 7, AlarmCause::ChassisDown));
        agg.ingest(rec(90, Severity::Info, 7, AlarmCause::ChassisDown));
        assert_eq!(agg.incidents()[0].severity, Severity::Critical);
    }

    #[test]
    fn critical_absorbed_into_open_warning_reports_escalated() {
        // Regression: a Critical record coalesced into an open Warning
        // incident used to return Coalesced, so no event was published
        // and a flight recorder wired to the event stream never saw the
        // incident go Critical — even if it cleared before the next
        // poll. The absorption must surface as Escalated.
        let mut agg = AlarmAggregator::new();
        let first = agg.ingest(rec(0, Severity::Warning, 7, AlarmCause::ChassisDown));
        assert!(matches!(first, IngestOutcome::Paged { .. }));
        let lifted = agg.ingest(rec(50, Severity::Critical, 7, AlarmCause::ChassisDown));
        assert!(
            matches!(lifted, IngestOutcome::Escalated { .. }),
            "severity lift to Critical must not be a silent Coalesced, got {lifted:?}"
        );
        assert_eq!(agg.incidents()[0].severity, Severity::Critical);
        assert_eq!(agg.pages(), 1, "escalation reuses the existing page");
        // A further Critical repeat is already at ceiling: plain coalesce.
        let repeat = agg.ingest(rec(90, Severity::Critical, 7, AlarmCause::ChassisDown));
        assert!(matches!(repeat, IngestOutcome::Coalesced { .. }));
    }

    #[test]
    fn critical_symptom_correlated_into_warning_root_reports_escalated() {
        // Same never-drop-Critical rule on the blast-radius path: a
        // Critical symptom folded into its Warning root incident must
        // report Escalated, not a silent Correlated.
        let mut agg = AlarmAggregator::new();
        agg.ingest(rec(
            0,
            Severity::Warning,
            3,
            AlarmCause::FruFailed { slot: 6 },
        ));
        let out = agg.ingest(rec(
            1,
            Severity::Critical,
            3,
            AlarmCause::AlignmentTimeout { north: 0 },
        ));
        assert!(
            matches!(out, IngestOutcome::Escalated { .. }),
            "Critical symptom must escalate its root incident, got {out:?}"
        );
        assert_eq!(agg.incidents()[0].severity, Severity::Critical);
        assert_eq!(agg.pages(), 1);
    }

    #[test]
    fn quiet_incidents_clear_and_flaps_revive_without_paging() {
        let high_loss = |at_ms: u64, loss_mdb: i32| {
            rec(
                at_ms,
                Severity::Warning,
                1,
                AlarmCause::HighLoss {
                    north: 1,
                    south: 2,
                    loss_mdb,
                },
            )
        };
        let mut agg = AlarmAggregator::new();
        agg.ingest(high_loss(0, 2600));
        assert!(
            agg.advance(Nanos::from_millis(5_000)).is_empty(),
            "5 s is not yet quiet"
        );
        let cleared = agg.advance(Nanos::from_millis(5_100));
        assert_eq!(cleared, vec![0]);
        assert!(!agg.incidents()[0].is_open());
        // Reopen within the 500 ms debounce of the clear: revive, no page.
        let out = agg.ingest(high_loss(5_400, 2700));
        assert!(matches!(out, IngestOutcome::Coalesced { .. }));
        assert!(agg.incidents()[0].is_open(), "flap revived the incident");
        assert_eq!(agg.pages(), 1);
        // Far outside the window: a genuinely new incident.
        agg.advance(Nanos::from_millis(11_000));
        let out = agg.ingest(high_loss(20_000, 2500));
        assert!(matches!(out, IngestOutcome::Paged { .. }));
        assert_eq!(agg.pages(), 2);
    }

    #[test]
    fn correlation_window_expires() {
        let window_ms = CORRELATION_WINDOW.0 / 1_000_000;
        let clear_ms = CLEAR_AFTER.0 / 1_000_000;
        let mut agg = AlarmAggregator::new();
        agg.ingest(rec(
            0,
            Severity::Warning,
            3,
            AlarmCause::FruFailed { slot: 1 },
        ));
        // A symptom long after the root went quiet — and after the root
        // cleared — is its own incident again.
        let late = clear_ms + window_ms + 1000;
        agg.advance(Nanos::from_millis(late - 1));
        let out = agg.ingest(rec(
            late,
            Severity::Warning,
            3,
            AlarmCause::AlignmentTimeout { north: 2 },
        ));
        assert!(matches!(out, IngestOutcome::Paged { .. }));
    }
}
