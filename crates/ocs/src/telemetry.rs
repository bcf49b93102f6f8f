//! Telemetry and anomaly reporting.
//!
//! §3.2.2: "We invested heavily in improving telemetry and anomaly
//! reporting to account for the complexity of the hardware and the software
//! interactions that manage it ... The ability to deeply integrate the
//! control and monitoring software with the rest of our network
//! infrastructure was essential given that the switches had a large 'blast
//! radius'." This module is the per-switch counter/alarm surface a fleet
//! control plane scrapes.

use serde::{Deserialize, Serialize};

/// Severity of an alarm.
///
/// This is the fleet-wide scale from `lightwave-telemetry`, re-exported so
/// per-switch alarms and fleet incidents share one explicit is-worse-than
/// ordering (`Info < Warning < Critical`, see [`Severity::is_worse_than`]).
pub use lightwave_telemetry::Severity;

/// A switch raises the fleet's alarm record itself: the aggregator reads
/// the switch's log as it stands, with no per-switch code to convert.
pub use lightwave_telemetry::{AlarmCause, AlarmRecord};

/// Monotonic counters (Prometheus-style) for one switch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Circuits established since boot.
    pub connects: u64,
    /// Circuits torn down since boot.
    pub disconnects: u64,
    /// Bulk reconfigurations applied.
    pub reconfigs: u64,
    /// Circuits that were left undisturbed across reconfigs (the
    /// non-disruption guarantee, counted for audit).
    pub circuits_preserved: u64,
    /// Alignment convergences run.
    pub alignments: u64,
    /// Alignment failures.
    pub alignment_failures: u64,
    /// Field mirror failures.
    pub mirror_failures: u64,
    /// Spare mirrors consumed.
    pub spares_consumed: u64,
}

/// The telemetry surface of one switch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Counter block.
    pub counters: Counters,
    alarms: Vec<AlarmRecord>,
}

impl Telemetry {
    /// Creates an empty telemetry block.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Raises an alarm.
    pub fn raise(&mut self, alarm: AlarmRecord) {
        self.alarms.push(alarm);
    }

    /// All alarms since boot, oldest first.
    pub fn alarms(&self) -> &[AlarmRecord] {
        &self.alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        // The re-exported type keeps the explicit is-worse-than relation.
        assert!(Severity::Critical.is_worse_than(Severity::Warning));
        assert!(!Severity::Info.is_worse_than(Severity::Info));
    }
}
