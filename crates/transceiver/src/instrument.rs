//! Bridges transceiver-fleet measurements into the fleet observability
//! subsystem (`lightwave-telemetry`).
//!
//! Two production signals from the paper feed in here:
//!
//! - the Fig. 13 per-lane BER census (§4.1.2) — the distribution, KP4
//!   violations, and the ~2-orders-of-magnitude median margin;
//! - rate negotiation (§3.3.1): a link that cannot negotiate its top
//!   lane rate is quietly eating margin, so each fallback is surfaced as
//!   an event and a fleet alarm before the link goes dark.

use crate::dsp::DspConfig;
use crate::fleet::FleetCensus;
use lightwave_optics::modulation::LaneRate;
use lightwave_telemetry::{
    AlarmCause, AlarmRecord, CounterId, EventKind, FleetTelemetry, GaugeId, HistogramId,
    RateWindow, Severity,
};
use lightwave_units::Nanos;

/// Fleet-metric handles for one transceiver family, labeled
/// `{family=<name>}`.
#[derive(Debug, Clone)]
pub struct XcvrInstruments {
    lane_ber: HistogramId,
    lanes_sampled: CounterId,
    kp4_violations: CounterId,
    median_margin_orders: GaugeId,
    rate_fallbacks: CounterId,
    fallback_rate: RateWindow,
}

impl XcvrInstruments {
    /// Registers the per-family instruments in `sink`'s metrics registry.
    pub fn register(sink: &mut FleetTelemetry, family: &str) -> XcvrInstruments {
        let labels: &[(&str, &str)] = &[("family", family)];
        let m = &mut sink.metrics;
        let rate_fallbacks = m.counter("xcvr_rate_fallbacks_total", labels);
        XcvrInstruments {
            lane_ber: m.histogram("xcvr_lane_ber", labels),
            lanes_sampled: m.counter("xcvr_lanes_sampled_total", labels),
            kp4_violations: m.counter("xcvr_kp4_violations_total", labels),
            median_margin_orders: m.gauge("xcvr_median_margin_orders", labels),
            rate_fallbacks,
            fallback_rate: m.rate_window(rate_fallbacks, "xcvr_rate_fallbacks_per_sec", labels),
        }
    }

    /// Records a BER census: every lane feeds the log-scale BER
    /// histogram (the Fig. 13 distribution), plus violation and margin
    /// aggregates.
    pub fn record_census(&mut self, sink: &mut FleetTelemetry, at: Nanos, census: &FleetCensus) {
        for s in &census.samples {
            sink.metrics.observe(self.lane_ber, at, s.ber.prob());
        }
        sink.metrics
            .inc(self.lanes_sampled, at, census.samples.len() as u64);
        sink.metrics
            .inc(self.kp4_violations, at, census.violations as u64);
        sink.metrics
            .set(self.median_margin_orders, at, census.median_margin_orders);
    }

    /// Runs rate negotiation for the link on `port` and records the
    /// outcome.
    ///
    /// Negotiating below the best rate the local DSP supports emits a
    /// [`EventKind::RateFallback`] event and a Warning fleet alarm;
    /// failing outright (no common rate — the link is dead) alarms
    /// Critical with `to_gbps = 0`. Returns the negotiated rate.
    pub fn record_negotiation(
        &mut self,
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
            sink.metrics.inc(self.rate_fallbacks, at, 1);
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
        self.fallback_rate.observe(&mut sink.metrics, at);
        negotiated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::fleet_census;
    use crate::module::ModuleFamily;
    use lightwave_par::Pool;

    #[test]
    fn census_populates_ber_distribution() {
        let mut sink = FleetTelemetry::new();
        let mut inst = XcvrInstruments::register(&mut sink, "cwdm4");
        let census = fleet_census(&Pool::new(2), 50, ModuleFamily::Cwdm4Bidi, 42);
        inst.record_census(&mut sink, Nanos(0), &census);
        let h = sink.metrics.histogram_value(inst.lane_ber);
        assert_eq!(h.count(), 200, "4 lanes × 50 ports");
        assert!(h.max().unwrap() < 2e-4, "all lanes inside KP4 spec");
        assert!(h.quantile(0.5).unwrap() < h.max().unwrap());
        assert_eq!(sink.metrics.counter_value(inst.kp4_violations), 0);
    }

    #[test]
    fn healthy_negotiation_is_silent() {
        let mut sink = FleetTelemetry::new();
        let mut inst = XcvrInstruments::register(&mut sink, "cwdm4");
        let dsp = DspConfig::ml_production();
        let rate = inst.record_negotiation(&mut sink, Nanos(1), 9, &dsp, &dsp);
        assert_eq!(rate, Some(LaneRate::Pam4_100));
        assert_eq!(sink.metrics.counter_value(inst.rate_fallbacks), 0);
        assert_eq!(sink.events.published(), 0);
    }

    #[test]
    fn fallback_emits_event_and_alarm() {
        let mut sink = FleetTelemetry::new();
        let mut inst = XcvrInstruments::register(&mut sink, "cwdm4");
        let new = DspConfig::ml_production();
        let old = DspConfig::standards_based();
        let rate = inst.record_negotiation(&mut sink, Nanos(1), 12, &new, &old);
        assert_eq!(rate, Some(LaneRate::Pam4_50));
        assert_eq!(sink.metrics.counter_value(inst.rate_fallbacks), 1);
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
    fn fallback_rate_gauge_publishes_per_window() {
        let mut sink = FleetTelemetry::new();
        let mut inst = XcvrInstruments::register(&mut sink, "cwdm4");
        let new = DspConfig::ml_production();
        let old = DspConfig::standards_based();
        for port in 0..3 {
            inst.record_negotiation(&mut sink, Nanos::from_millis(port as u64), port, &new, &old);
        }
        // A negotiation after the 1 s window rolls publishes the rate of
        // the completed window (3 fallbacks / 1 s).
        inst.record_negotiation(&mut sink, Nanos::from_secs_f64(1.2), 9, &new, &new);
        assert_eq!(sink.metrics.gauge_value(inst.fallback_rate.gauge()), 3.0);
    }

    #[test]
    fn dead_link_alarms_critical() {
        let mut sink = FleetTelemetry::new();
        let mut inst = XcvrInstruments::register(&mut sink, "cwdm4");
        let only100 = DspConfig {
            supported_rates: [false, false, true],
            ..DspConfig::ml_production()
        };
        let only25 = DspConfig {
            supported_rates: [true, false, false],
            ..DspConfig::standards_based()
        };
        let rate = inst.record_negotiation(&mut sink, Nanos(1), 3, &only100, &only25);
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
