//! Telemetry and anomaly reporting.
//!
//! §3.2.2: "We invested heavily in improving telemetry and anomaly
//! reporting to account for the complexity of the hardware and the software
//! interactions that manage it ... The ability to deeply integrate the
//! control and monitoring software with the rest of our network
//! infrastructure was essential given that the switches had a large 'blast
//! radius'." This module is the per-switch counter/alarm surface a fleet
//! control plane scrapes.

use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};

/// Severity of an alarm.
///
/// This is the fleet-wide scale from `lightwave-telemetry`, re-exported so
/// per-switch alarms and fleet incidents share one explicit is-worse-than
/// ordering (`Info < Warning < Critical`, see [`Severity::is_worse_than`]).
pub use lightwave_telemetry::Severity;

/// A timestamped alarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// When it fired (simulation time).
    pub at: Nanos,
    /// How bad.
    pub severity: Severity,
    /// Machine-parseable alarm code.
    pub code: AlarmCode,
}

/// Alarm codes raised by the simulated Palomar.
///
/// Not `Eq`: [`AlarmCode::HighLoss`] carries the measured loss as `f64`
/// (the raw telemetry reading). The fleet aggregator's `AlarmCause`
/// quantizes that to milli-dB so incidents can be hashed and map-keyed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlarmCode {
    /// A mirror failed in the field; spare swapped if available.
    MirrorFailed {
        /// North (true) or South (false) die.
        north_die: bool,
        /// Port whose mirror failed.
        port: u16,
        /// Whether a spare restored the port.
        spare_used: bool,
    },
    /// Alignment loop failed to converge on a circuit.
    AlignmentTimeout {
        /// North port of the circuit.
        north: u16,
    },
    /// A FRU failed.
    FruFailed {
        /// Slot index in the chassis.
        slot: usize,
    },
    /// The chassis dropped below operational redundancy.
    ChassisDown,
    /// A path's measured insertion loss exceeded its alarm threshold.
    HighLoss {
        /// North port.
        north: u16,
        /// South port.
        south: u16,
        /// Measured loss, dB.
        loss_db: f64,
    },
}

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
    alarms: Vec<Alarm>,
}

impl Telemetry {
    /// Creates an empty telemetry block.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Raises an alarm.
    pub fn raise(&mut self, at: Nanos, severity: Severity, code: AlarmCode) {
        self.alarms.push(Alarm { at, severity, code });
    }

    /// All alarms since boot, oldest first.
    pub fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Alarms at or above a severity.
    pub fn alarms_at_least(&self, severity: Severity) -> impl Iterator<Item = &Alarm> {
        self.alarms.iter().filter(move |a| a.severity >= severity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarm_filtering_by_severity() {
        let mut t = Telemetry::new();
        t.raise(Nanos(1), Severity::Info, AlarmCode::ChassisDown);
        t.raise(Nanos(2), Severity::Critical, AlarmCode::ChassisDown);
        t.raise(
            Nanos(3),
            Severity::Warning,
            AlarmCode::AlignmentTimeout { north: 4 },
        );
        assert_eq!(t.alarms().len(), 3);
        assert_eq!(t.alarms_at_least(Severity::Warning).count(), 2);
        assert_eq!(t.alarms_at_least(Severity::Critical).count(), 1);
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Critical > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        // The re-exported type keeps the explicit is-worse-than relation.
        assert!(Severity::Critical.is_worse_than(Severity::Warning));
        assert!(!Severity::Info.is_worse_than(Severity::Info));
    }
}
