//! Fleet health analytics: detector banks, a health scorer, and the
//! preemptive-maintenance advisor.
//!
//! The paper's availability story (§3.2.2, §4.3) rests on continuous
//! per-port monitoring: the 850 nm monitor path watches insertion loss,
//! link telemetry watches relock behaviour, and slow optical degradation
//! is repaired *before* circuits fail. [`FleetHealth`] is that layer for
//! the simulated fleet:
//!
//! - every drift/relock observation lands in a bounded
//!   [`crate::timeseries::SeriesStore`] (history for dashboards,
//!   Perfetto counter tracks, and flight-recorder postmortems);
//! - per-port `Cusum` + `EwmaDrift` banks and per-switch
//!   `RateSpike` detectors run on ingest in O(1) per sample;
//! - a detector trip raises a `Warning` [`AlarmCause::TrendAnomaly`]
//!   through the ordinary alarm path (debounce, paging, events);
//! - [`FleetHealth::report`] rolls detector state into a
//!   [`FleetHealthReport`] whose [`MaintenanceAction`]s propose
//!   drain-and-repair to the scheduler before hard failure.
//!
//! Everything is integer-state and sim-time-stamped, so the report, the
//! dashboard, and the JSONL export are byte-identical per seed at any
//! `LIGHTWAVE_THREADS` (pinned by `tests/fleet_health.rs`).

use crate::alarms::{AlarmCause, AlarmRecord, TrendSignal};
use crate::detect::{Cusum, EwmaDrift, RateSpike};
use crate::fleet::FleetTelemetry;
use crate::severity::Severity;
use crate::timeseries::{dequantize, quantize, CounterTrack, SeriesId, SeriesStore};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Drift (micro-dB) treated as the repair budget — 0.25 dB of creep
/// headroom: at or above half of this a port is *watched* even without a
/// detector trip.
pub(crate) const REPAIR_BUDGET_MICROS: i64 = 250_000;
/// Score penalty per port with a tripped drift detector (capped at 2×).
pub(crate) const DRIFT_TRIP_PENALTY: u32 = 30;
/// Score penalty when the relock rate detector tripped.
pub(crate) const RELOCK_TRIP_PENALTY: u32 = 25;
/// Score penalty when drift is past half the repair budget with no trip.
pub(crate) const WATCH_PENALTY: u32 = 10;

/// One detector trip, recorded in ingest order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrendTrip {
    /// Simulation time of the trip.
    pub at: Nanos,
    /// Switch the trend is on.
    pub switch: u32,
    /// Which signal tripped.
    pub signal: TrendSignal,
    /// Port attributed (0 for switch-wide relock trends).
    pub port: u16,
    /// Which detector fired (`cusum`, `ewma`, `rate`).
    pub detector: String,
    /// The sample value (micro-units) that tripped it.
    pub value_micros: i64,
}

#[derive(Debug, Clone)]
struct PortState {
    cusum: Cusum,
    ewma: EwmaDrift,
    series: SeriesId,
    last_micros: i64,
}

#[derive(Debug, Clone)]
struct SwitchRelock {
    spike: RateSpike,
    series: SeriesId,
    total: u64,
}

/// The fleet health analytics layer. See the module docs.
#[derive(Debug, Default)]
pub struct FleetHealth {
    store: SeriesStore,
    ports: BTreeMap<(u32, bool, u16), PortState>,
    relocks: BTreeMap<u32, SwitchRelock>,
    trips: Vec<TrendTrip>,
}

impl FleetHealth {
    /// Ingests one per-port drift observation (dB above as-built).
    ///
    /// Retains the sample, runs the port's CUSUM + EWMA detectors, and
    /// on a trip raises a `Warning` [`AlarmCause::TrendAnomaly`] into
    /// `sink` — the detector bank is sticky, so one creeping port pages
    /// its trend once, not once per sample.
    pub fn ingest_drift(
        &mut self,
        sink: &mut FleetTelemetry,
        at: Nanos,
        switch: u32,
        north: bool,
        port: u16,
        drift_db: f64,
    ) {
        let q = quantize(drift_db);
        let key = (switch, north, port);
        if !self.ports.contains_key(&key) {
            let series = self.store.series(
                "health_port_drift_db",
                &[
                    ("switch", &switch.to_string()),
                    ("die", if north { "north" } else { "south" }),
                    ("port", &port.to_string()),
                ],
            );
            self.ports.insert(
                key,
                PortState {
                    cusum: Cusum::default(),
                    ewma: EwmaDrift::default(),
                    series,
                    last_micros: 0,
                },
            );
        }
        let state = self.ports.get_mut(&key).expect("just inserted");
        state.last_micros = q;
        self.store.push_micros(state.series, at, q);
        let mut fired = Vec::new();
        if state.cusum.ingest(q) {
            fired.push("cusum");
        }
        if state.ewma.ingest(q) {
            fired.push("ewma");
        }
        for detector in fired {
            self.trip(
                sink,
                TrendTrip {
                    at,
                    switch,
                    signal: TrendSignal::LossDrift,
                    port,
                    detector: detector.to_string(),
                    value_micros: q,
                },
            );
        }
    }

    /// Ingests one relock/fallback event on `switch`.
    ///
    /// Retains the cumulative count as a series and runs the switch's
    /// windowed rate-spike detector; a trip raises a `Warning`
    /// [`AlarmCause::TrendAnomaly`] into `sink`.
    pub fn ingest_relock(&mut self, sink: &mut FleetTelemetry, at: Nanos, switch: u32, port: u16) {
        if !self.relocks.contains_key(&switch) {
            let series = self
                .store
                .series("health_relocks_total", &[("switch", &switch.to_string())]);
            self.relocks.insert(
                switch,
                SwitchRelock {
                    spike: RateSpike::default(),
                    series,
                    total: 0,
                },
            );
        }
        let state = self.relocks.get_mut(&switch).expect("just inserted");
        state.total += 1;
        let total = state.total as i64 * 1_000_000;
        self.store.push_micros(state.series, at, total);
        if state.spike.ingest(at) {
            self.trip(
                sink,
                TrendTrip {
                    at,
                    switch,
                    signal: TrendSignal::RelockRate,
                    port,
                    detector: "rate".to_string(),
                    value_micros: total,
                },
            );
        }
    }

    fn trip(&mut self, sink: &mut FleetTelemetry, trip: TrendTrip) {
        sink.ingest_alarm(AlarmRecord {
            at: trip.at,
            severity: Severity::Warning,
            switch: trip.switch,
            cause: AlarmCause::TrendAnomaly {
                signal: trip.signal,
                port: trip.port,
            },
        });
        self.trips.push(trip);
    }

    /// Every detector trip so far, in ingest order.
    pub fn trips(&self) -> &[TrendTrip] {
        &self.trips
    }

    /// Sim time of the first trip, if any — the preemptive-detection
    /// instant the oracle tests compare against the hard failure.
    pub fn first_trip_at(&self) -> Option<Nanos> {
        self.trips.first().map(|t| t.at)
    }

    /// The retained series (for exports and flight-recorder embedding).
    pub fn store(&self) -> &SeriesStore {
        &self.store
    }

    /// Every health series as a Perfetto counter track.
    pub fn counter_tracks(&self) -> Vec<CounterTrack> {
        self.store.tracks()
    }

    /// Rolls detector state into scores and maintenance proposals.
    ///
    /// All weights are integer constants; the score of a switch is a pure
    /// function of its detector bank, so reports are exactly reproducible.
    pub fn report(&self, now: Nanos) -> FleetHealthReport {
        #[derive(Default)]
        struct Acc {
            drift_tripped: u32,
            tripped_ports: Vec<u16>,
            worst_micros: i64,
            watched: u32,
        }
        let mut acc: BTreeMap<u32, Acc> = BTreeMap::new();
        for (&(switch, _north, port), state) in &self.ports {
            let a = acc.entry(switch).or_default();
            a.watched += 1;
            a.worst_micros = a.worst_micros.max(state.last_micros);
            if state.cusum.tripped() || state.ewma.tripped() {
                a.drift_tripped += 1;
                a.tripped_ports.push(port);
            }
        }
        let watch_floor = REPAIR_BUDGET_MICROS / 2;
        let mut switches = Vec::new();
        let mut actions = Vec::new();
        let all: std::collections::BTreeSet<u32> = acc
            .keys()
            .copied()
            .chain(self.relocks.keys().copied())
            .collect();
        for switch in all {
            let a = acc.remove(&switch).unwrap_or_default();
            let relock = self.relocks.get(&switch);
            let relock_tripped = relock.is_some_and(|r| r.spike.tripped());
            let relocks = relock.map_or(0, |r| r.total);
            let mut penalty = DRIFT_TRIP_PENALTY * a.drift_tripped.min(2);
            if relock_tripped {
                penalty += RELOCK_TRIP_PENALTY;
            }
            let watching = a.drift_tripped == 0 && a.worst_micros >= watch_floor;
            if watching {
                penalty += WATCH_PENALTY;
            }
            let score = 100u32.saturating_sub(penalty);
            if a.drift_tripped > 0 {
                actions.push(MaintenanceAction {
                    switch,
                    action: MaintenanceKind::DrainAndRepair,
                    reason: format!(
                        "loss drift tripped on port(s) {:?}, worst {:.3} dB — replace optics before the link budget is gone",
                        a.tripped_ports,
                        dequantize(a.worst_micros)
                    ),
                    proposed_at: now,
                });
            } else if relock_tripped {
                actions.push(MaintenanceAction {
                    switch,
                    action: MaintenanceKind::DrainAndRepair,
                    reason: format!(
                        "sustained relock spike ({relocks} relocks) — drain and inspect transceivers"
                    ),
                    proposed_at: now,
                });
            } else if watching {
                actions.push(MaintenanceAction {
                    switch,
                    action: MaintenanceKind::Watch,
                    reason: format!(
                        "worst drift {:.3} dB past half the repair budget",
                        dequantize(a.worst_micros)
                    ),
                    proposed_at: now,
                });
            }
            switches.push(SwitchHealth {
                switch,
                score,
                drift_tripped_ports: a.drift_tripped,
                relock_tripped,
                worst_drift_micros: a.worst_micros,
                watched_ports: a.watched,
                relocks,
            });
        }
        let fleet_score = switches.iter().map(|s| s.score).min().unwrap_or(100);
        FleetHealthReport {
            generated_at: now,
            fleet_score,
            switches,
            actions,
        }
    }

    /// Renders the text dashboard as of `now`.
    pub fn dashboard(&self, now: Nanos) -> String {
        let r = self.report(now);
        let mut out = String::new();
        out.push_str(&format!("── fleet health @ {} ──\n", now.0));
        out.push_str(&format!(
            "FLEET SCORE {}  (switches {}, actions {}, trips {})\n",
            r.fleet_score,
            r.switches.len(),
            r.actions.len(),
            self.trips.len()
        ));
        out.push_str(&format!("SWITCHES ({})\n", r.switches.len()));
        for s in &r.switches {
            out.push_str(&format!(
                "  ocs-{:02}  score {:3}  drift-trips {}  relock-trip {}  worst-drift {:.3} dB  watched {}\n",
                s.switch,
                s.score,
                s.drift_tripped_ports,
                if s.relock_tripped { "y" } else { "n" },
                dequantize(s.worst_drift_micros),
                s.watched_ports,
            ));
        }
        out.push_str(&format!("ACTIONS ({})\n", r.actions.len()));
        for a in &r.actions {
            out.push_str(&format!(
                "  {} ocs-{:02}: {}\n",
                match a.action {
                    MaintenanceKind::DrainAndRepair => "drain-and-repair",
                    MaintenanceKind::Watch => "watch           ",
                },
                a.switch,
                a.reason
            ));
        }
        out.push_str(&format!("TRIPS ({})\n", self.trips.len()));
        for t in &self.trips {
            out.push_str(&format!(
                "  [{:>12}] ocs-{:02} {:?} port {} via {} at {:.3}\n",
                t.at.0,
                t.switch,
                t.signal,
                t.port,
                t.detector,
                dequantize(t.value_micros)
            ));
        }
        out
    }

    /// Serializes the report, actions, and trips as JSON lines.
    pub fn to_jsonl(&self, now: Nanos) -> String {
        let r = self.report(now);
        let mut out = String::new();
        let mut push = |rec: &HealthJsonl| {
            out.push_str(&serde_json::to_string(rec).expect("health records serialize"));
            out.push('\n');
        };
        push(&HealthJsonl::Meta {
            schema: HEALTH_SCHEMA.to_string(),
            generated_at: now,
            fleet_score: r.fleet_score,
            switches: r.switches.len() as u64,
            actions: r.actions.len() as u64,
            trips: self.trips.len() as u64,
        });
        for s in &r.switches {
            push(&HealthJsonl::Switch(s.clone()));
        }
        for a in &r.actions {
            push(&HealthJsonl::Action(a.clone()));
        }
        for t in &self.trips {
            push(&HealthJsonl::Trip(t.clone()));
        }
        out
    }
}

/// The `schema` member the health JSONL export's header line carries.
pub const HEALTH_SCHEMA: &str = "lightwave/fleet-health/v2";

/// One line of the health JSONL export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthJsonl {
    /// Header line.
    Meta {
        /// [`HEALTH_SCHEMA`].
        schema: String,
        /// Export time.
        generated_at: Nanos,
        /// Fleet-wide score.
        fleet_score: u32,
        /// Switch-line count.
        switches: u64,
        /// Action-line count.
        actions: u64,
        /// Trip-line count.
        trips: u64,
    },
    /// Per-switch health.
    Switch(SwitchHealth),
    /// Advisor proposal.
    Action(MaintenanceAction),
    /// Detector trip.
    Trip(TrendTrip),
}

impl HealthJsonl {
    /// Reads back what [`FleetHealth::to_jsonl`] wrote: a `Meta` line
    /// with [`HEALTH_SCHEMA`], then exactly the `switches` `Switch`,
    /// `actions` `Action` and `trips` `Trip` lines it declares, in that
    /// order, and nothing after them. Returns every record, `Meta` first;
    /// the error names the line that breaks a rule.
    pub fn from_jsonl(text: &str) -> Result<Vec<HealthJsonl>, String> {
        let mut lines = text.lines().zip(1..).map(|(line, n)| {
            serde_json::from_str::<HealthJsonl>(line)
                .map(|record| (n, record))
                .map_err(|e| format!("line {n}: {e}"))
        });
        let (_, meta) = lines.next().ok_or("no Meta line")??;
        let HealthJsonl::Meta {
            schema,
            switches,
            actions,
            trips,
            ..
        } = &meta
        else {
            return Err("line 1: not a Meta record".to_string());
        };
        if schema != HEALTH_SCHEMA {
            return Err(format!("schema {schema:?}, want {HEALTH_SCHEMA:?}"));
        }
        let declared = [
            (1, "Switch", *switches),
            (2, "Action", *actions),
            (3, "Trip", *trips),
        ];
        let mut records = vec![meta];
        for (rank, kind, count) in declared {
            for i in 0..count {
                let (n, record) = lines
                    .next()
                    .ok_or_else(|| format!("Meta declares more than {i} {kind} lines"))??;
                if record.rank() != rank {
                    return Err(format!("line {n}: not the {kind} line the Meta declares"));
                }
                records.push(record);
            }
        }
        if lines.next().is_some() {
            let n = records.len() + 1;
            return Err(format!("line {n}: past what the Meta declares"));
        }
        Ok(records)
    }

    /// Where the writer puts a record: the `Meta` line, then the
    /// `Switch`, `Action` and `Trip` lines.
    fn rank(&self) -> usize {
        match self {
            HealthJsonl::Meta { .. } => 0,
            HealthJsonl::Switch(_) => 1,
            HealthJsonl::Action(_) => 2,
            HealthJsonl::Trip(_) => 3,
        }
    }
}

/// Health rollup for one switch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchHealth {
    /// Switch id.
    pub switch: u32,
    /// 0–100 health score (100 = no detector concern).
    pub score: u32,
    /// Ports with a tripped drift detector (CUSUM or EWMA).
    pub drift_tripped_ports: u32,
    /// Whether the relock rate-spike detector tripped.
    pub relock_tripped: bool,
    /// Worst current drift across watched ports, micro-dB.
    pub worst_drift_micros: i64,
    /// Ports with any drift history.
    pub watched_ports: u32,
    /// Relock events observed.
    pub relocks: u64,
}

/// What the advisor proposes for a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaintenanceKind {
    /// Drain traffic off the switch and repair now, before hard failure.
    DrainAndRepair,
    /// No action yet; re-inspect on the next report.
    Watch,
}

/// One preemptive-maintenance proposal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaintenanceAction {
    /// Switch to act on.
    pub switch: u32,
    /// Proposed action.
    pub action: MaintenanceKind,
    /// Deterministic human-readable justification.
    pub reason: String,
    /// When the report proposing it was generated.
    pub proposed_at: Nanos,
}

/// The fleet health report: per-switch rollups plus advisor actions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetHealthReport {
    /// When the report was generated (sim time).
    pub generated_at: Nanos,
    /// Worst switch score (100 when no switch is watched).
    pub fleet_score: u32,
    /// Per-switch rollups, switch-id order.
    pub switches: Vec<SwitchHealth>,
    /// Advisor proposals, switch-id order.
    pub actions: Vec<MaintenanceAction>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn creep(h: &mut FleetHealth, sink: &mut FleetTelemetry, switch: u32, port: u16, steps: i64) {
        for i in 1..=steps {
            h.ingest_drift(
                sink,
                Nanos::from_millis(i as u64 * 100),
                switch,
                true,
                port,
                i as f64 * 0.030,
            );
        }
    }

    #[test]
    fn creep_trips_pages_once_and_proposes_drain() {
        let mut h = FleetHealth::default();
        let mut sink = FleetTelemetry::new();
        creep(&mut h, &mut sink, 3, 17, 10);
        assert!(!h.trips.is_empty(), "creep must trip a drift detector");
        assert!(h.first_trip_at().is_some());
        // Both cusum and ewma may fire, but they coalesce into one
        // (switch, Trend) incident: exactly one page.
        assert_eq!(sink.alarms.pages(), 1);
        let r = h.report(Nanos::from_secs_f64(2.0));
        assert_eq!(r.switches.len(), 1);
        assert!(r.switches[0].score < 100);
        assert!(matches!(
            r.actions[0].action,
            MaintenanceKind::DrainAndRepair
        ));
        assert!(r.fleet_score < 100);
    }

    #[test]
    fn single_spare_swap_step_is_clean() {
        let mut h = FleetHealth::default();
        let mut sink = FleetTelemetry::new();
        // One 300 mdb jump — a legitimate spare-mirror swap.
        h.ingest_drift(&mut sink, Nanos::from_millis(5), 9, true, 40, 0.300);
        assert!(h.trips.is_empty());
        assert_eq!(sink.alarms.pages(), 0);
        let r = h.report(Nanos::from_millis(10));
        // Past half the budget: watched, not drained.
        assert_eq!(r.switches[0].drift_tripped_ports, 0);
        assert!(matches!(r.actions[0].action, MaintenanceKind::Watch));
    }

    #[test]
    fn relock_spike_trips_and_single_storm_does_not() {
        let w = crate::detect::RATE_SPIKE_WINDOW.0;
        let mut h = FleetHealth::default();
        let mut sink = FleetTelemetry::new();
        for round in 0..3u64 {
            for p in 0..3u16 {
                h.ingest_relock(&mut sink, Nanos(round * w), 5, p);
            }
        }
        assert_eq!(h.trips.len(), 1);
        assert_eq!(h.trips[0].signal, TrendSignal::RelockRate);
        let r = h.report(Nanos(3 * w));
        assert!(r.switches[0].relock_tripped);
        assert_eq!(r.switches[0].relocks, 9);
        // A 16-port single-instant storm on another switch: no trip.
        let mut h2 = FleetHealth::default();
        for p in 0..16u16 {
            h2.ingest_relock(&mut sink, Nanos(1000), 6, p);
        }
        assert!(h2.trips.is_empty());
    }

    #[test]
    fn exports_are_deterministic_and_jsonl_parses() {
        let build = || {
            let mut h = FleetHealth::default();
            let mut sink = FleetTelemetry::new();
            creep(&mut h, &mut sink, 3, 17, 10);
            h.ingest_relock(&mut sink, Nanos(7), 3, 2);
            h
        };
        let now = Nanos::from_secs_f64(3.0);
        let a = build();
        let b = build();
        assert_eq!(a.report(now), b.report(now));
        assert_eq!(a.dashboard(now), b.dashboard(now));
        assert_eq!(a.to_jsonl(now), b.to_jsonl(now));
        let jsonl = a.to_jsonl(now);
        let records = HealthJsonl::from_jsonl(&jsonl).expect("the writer's log reads back");
        let metas = records
            .iter()
            .filter(|rec| matches!(rec, HealthJsonl::Meta { .. }))
            .count();
        assert_eq!(metas, 1);
        // Written again, record by record, the log is the same bytes.
        let rewritten: String = records
            .iter()
            .map(|rec| serde_json::to_string(rec).expect("serializes") + "\n")
            .collect();
        assert_eq!(rewritten, jsonl);
        assert!(!a.counter_tracks().is_empty());
        assert!(!a.store().recent_for_switch(3, 4).is_empty());
    }

    #[test]
    fn a_health_log_reads_back_only_as_its_meta_declares_it() {
        let mut h = FleetHealth::default();
        let mut sink = FleetTelemetry::new();
        creep(&mut h, &mut sink, 3, 17, 10);
        let jsonl = h.to_jsonl(Nanos::from_secs_f64(3.0));
        let lines: Vec<&str> = jsonl.lines().collect();
        let [meta, switch, action, trip, ..] = lines[..] else {
            panic!("Meta, Switch, Action and trips: {jsonl}");
        };
        assert!(meta.contains("\"switches\":1,\"actions\":1,"), "{meta}");
        let read = |lines: &[&str]| HealthJsonl::from_jsonl(&(lines.join("\n") + "\n"));
        assert_eq!(read(&lines).map(|r| r.len()), Ok(lines.len()));
        let refused = |lines: &[&str], why: &str| {
            let err = read(lines).unwrap_err();
            assert!(err.contains(why), "{lines:?}: {err}");
        };
        let trips = &lines[3..];
        refused(
            &[&[meta, switch, action], &trips[1..]].concat(),
            "more than",
        );
        refused(
            &[&lines[..], &[trip]].concat(),
            "past what the Meta declares",
        );
        refused(
            &[&[meta, action, switch], trips].concat(),
            "line 2: not the Switch",
        );
        refused(
            &[&[switch, meta, action], trips].concat(),
            "line 1: not a Meta",
        );
        let renamed = meta.replace("fleet-health/v2", "fleet-health/v1");
        refused(&[&[&renamed, switch, action], trips].concat(), "schema");
        refused(
            &[&[meta, switch, action, "{}"], &trips[1..]].concat(),
            "line 4",
        );
        refused(&[], "line 1");
    }
}
