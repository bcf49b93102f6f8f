//! Bridges transceiver rate negotiation into the fleet observability
//! subsystem (`lightwave-telemetry`).
//!
//! §3.3.1: a link that cannot negotiate its top lane rate is quietly
//! eating margin, so each fallback is surfaced as an event and a fleet
//! alarm before the link goes dark.

use crate::dsp::DspConfig;
use lightwave_optics::modulation::LaneRate;
use lightwave_telemetry::{AlarmCause, AlarmRecord, EventKind, FleetTelemetry, Severity};
use lightwave_units::Nanos;

/// Runs rate negotiation for the link on `port` and records the
/// outcome.
///
/// Negotiating below the best rate the local DSP supports emits a
/// [`EventKind::RateFallback`] event and a Warning fleet alarm;
/// failing outright (no common rate — the link is dead) alarms
/// Critical with `to_gbps = 0`. Returns the negotiated rate.
pub fn record_negotiation(
    sink: &mut FleetTelemetry,
    at: Nanos,
    port: u32,
    local: &DspConfig,
    peer: &DspConfig,
) -> Option<LaneRate> {
    let negotiated = local.negotiate_rate(peer);
    let best_local = LaneRate::ALL.into_iter().find(|&r| local.supports(r));
    let fell_back = match (negotiated, best_local) {
        (None, _) => true,
        (Some(got), Some(best)) => got != best,
        (Some(_), None) => false,
    };
    if fell_back {
        let to_gbps = negotiated.map_or(0, |r| r.bit_rate().gbps().round() as u32);
        sink.events
            .emit(at, "xcvr", EventKind::RateFallback { port, to_gbps });
        sink.ingest_alarm(AlarmRecord {
            at,
            severity: if negotiated.is_some() {
                Severity::Warning
            } else {
                Severity::Critical
            },
            // The census port index stands in for a switch id here:
            // link-scoped alarms correlate per endpoint.
            switch: port,
            cause: AlarmCause::RateFallback { port },
        });
    }
    negotiated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_negotiation_is_silent() {
        let mut sink = FleetTelemetry::new();
        let dsp = DspConfig::ml_production();
        let rate = record_negotiation(&mut sink, Nanos(1), 9, &dsp, &dsp);
        assert_eq!(rate, Some(LaneRate::Pam4_100));
        assert_eq!(sink.events.published(), 0);
        assert_eq!(sink.alarms.ingested(), 0);
    }

    #[test]
    fn fallback_emits_event_and_alarm() {
        let mut sink = FleetTelemetry::new();
        let new = DspConfig::ml_production();
        let old = DspConfig::standards_based();
        let rate = record_negotiation(&mut sink, Nanos(1), 12, &new, &old);
        assert_eq!(rate, Some(LaneRate::Pam4_50));
        assert!(sink.events.recent().any(|e| matches!(
            e.kind,
            EventKind::RateFallback {
                port: 12,
                to_gbps: 53
            }
        )));
        assert_eq!(sink.alarms.pages(), 1);
    }

    #[test]
    fn dead_link_alarms_critical() {
        let mut sink = FleetTelemetry::new();
        let only100 = DspConfig {
            supported_rates: [false, false, true],
            ..DspConfig::ml_production()
        };
        let only25 = DspConfig {
            supported_rates: [true, false, false],
            ..DspConfig::standards_based()
        };
        let rate = record_negotiation(&mut sink, Nanos(1), 3, &only100, &only25);
        assert_eq!(rate, None);
        let inc = sink.alarms.open_incidents().next().unwrap();
        assert_eq!(inc.severity, Severity::Critical);
        assert!(sink.events.recent().any(|e| matches!(
            e.kind,
            EventKind::RateFallback {
                port: 3,
                to_gbps: 0
            }
        )));
    }
}
