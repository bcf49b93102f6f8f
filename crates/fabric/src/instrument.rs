//! Bridges the fabric control plane into the fleet observability
//! subsystem (`lightwave-telemetry`).
//!
//! Two views feed in here:
//!
//! - **commits** — each controller transaction publishes a
//!   [`EventKind::Commit`] event (delta size, the non-disruption audit of
//!   untouched circuits, time-to-traffic-ready) and one
//!   [`EventKind::Reconfig`] per touched switch;
//! - **fleet scrapes** — every switch's availability SLO observation and
//!   raw alarms (which the aggregator debounces and correlates), via a
//!   per-switch [`OcsInstruments`].

use crate::controller::CommitReport;
use crate::fleet::{OcsFleet, OcsId};
use lightwave_ocs::instrument::OcsInstruments;
use lightwave_telemetry::{EventKind, FleetTelemetry};
use lightwave_units::Nanos;
use std::collections::BTreeMap;

/// The fabric controller's scrape state: one [`OcsInstruments`] per
/// switch seen so far, created at first use.
#[derive(Debug, Default)]
pub struct FabricInstruments {
    per_switch: BTreeMap<OcsId, OcsInstruments>,
}

impl FabricInstruments {
    /// Scrape state that has seen no switch yet.
    pub fn new() -> FabricInstruments {
        FabricInstruments::default()
    }

    fn switch(&mut self, id: OcsId) -> &mut OcsInstruments {
        self.per_switch
            .entry(id)
            .or_insert_with(|| OcsInstruments::new(id))
    }

    /// Records a committed transaction: a [`EventKind::Commit`] event,
    /// then each touched switch's [`EventKind::Reconfig`].
    ///
    /// `at` is the simulation time the commit was issued.
    pub fn record_commit(&mut self, sink: &mut FleetTelemetry, at: Nanos, report: &CommitReport) {
        sink.events.emit(
            at,
            "fabric",
            EventKind::Commit {
                switches: report.per_switch.len() as u32,
                added: report.added as u32,
                removed: report.removed as u32,
                untouched: report.untouched as u32,
                settle: report.traffic_ready_at.saturating_sub(at),
            },
        );
        for (&id, switch_report) in &report.per_switch {
            self.switch(id).record_reconfig(sink, at, switch_report);
        }
    }

    /// Scrapes every switch in the fleet: SLO observations and alarm
    /// forwarding into the aggregator, then incident aging.
    pub fn scrape_fleet(&mut self, sink: &mut FleetTelemetry, fleet: &OcsFleet) {
        let at = fleet.now();
        for (id, ocs) in fleet.iter() {
            self.switch(id).scrape(sink, at, ocs);
        }
        sink.advance(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CommitError, FabricController, FabricTarget};
    use lightwave_ocs::PortMapping;

    /// What a caller does: commit, then record the report at the time the
    /// commit was issued. A failed commit returns before anything is
    /// recorded.
    fn commit(
        inst: &mut FabricInstruments,
        sink: &mut FleetTelemetry,
        c: &mut FabricController,
        t: &FabricTarget,
    ) -> Result<CommitReport, CommitError> {
        let at = c.now();
        let report = c.commit(t)?;
        inst.record_commit(sink, at, &report);
        Ok(report)
    }

    #[test]
    fn recorded_commit_emits_commit_and_reconfig_events() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::new();
        let mut c = FabricController::new(OcsFleet::build(2, 17));
        let mut t = FabricTarget::new();
        t.set(0, PortMapping::from_pairs([(0, 1), (2, 3)]).unwrap());
        t.set(1, PortMapping::from_pairs([(5, 6)]).unwrap());
        let report = commit(&mut inst, &mut sink, &mut c, &t).unwrap();
        assert_eq!(report.added, 3);
        let reconfigs = sink
            .events
            .recent()
            .filter(|e| matches!(e.kind, EventKind::Reconfig { .. }))
            .count();
        assert_eq!(reconfigs, 2, "one per touched switch");
        assert!(sink.events.recent().any(|e| matches!(
            e.kind,
            EventKind::Commit {
                switches: 2,
                added: 3,
                ..
            }
        )));
    }

    #[test]
    fn failed_commit_records_nothing() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::new();
        let mut c = FabricController::new(OcsFleet::build(1, 3));
        let mut t = FabricTarget::new();
        t.set(9, PortMapping::from_pairs([(0, 1)]).unwrap());
        assert!(commit(&mut inst, &mut sink, &mut c, &t).is_err());
        assert_eq!(sink.events.published(), 0);
    }

    #[test]
    fn fleet_scrape_forwards_alarms_once() {
        let mut sink = FleetTelemetry::new();
        let mut inst = FabricInstruments::new();
        let mut fleet = OcsFleet::build(2, 5);
        fleet.get_mut(1).unwrap().fail_mirror(true, 4).unwrap();
        inst.scrape_fleet(&mut sink, &fleet);
        assert_eq!(sink.alarms.ingested(), 1);
        inst.scrape_fleet(&mut sink, &fleet);
        assert_eq!(sink.alarms.ingested(), 1, "scrape cursor advanced");
        assert_eq!(sink.slo.len(), 2, "both switches SLO-tracked");
    }
}
