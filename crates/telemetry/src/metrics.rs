//! The deterministic metrics registry.
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism** (§6 of DESIGN.md): samples are stamped with
//!    simulation [`Nanos`] passed by the caller — there is no wall clock
//!    anywhere in this crate — and export iterates instruments in
//!    name-sorted order, so two runs with the same seed export
//!    byte-identical state.
//! 2. **A cheap hot path**: instruments are registered once (get-or-create
//!    by name + labels, which allocates) and then recorded through copy
//!    handles ([`CounterId`], [`GaugeId`], [`HistogramId`]) — a recording
//!    is an index into a `Vec` plus a few integer ops, O(ns) and
//!    allocation-free (benchmarked in `lightwave-bench`).

use crate::histogram::{HistogramSnapshot, LogHistogram};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fully-qualified metric identity: a name plus label pairs.
///
/// Labels are sorted by key at registration, so two call sites that list
/// the same labels in different orders resolve to the same instrument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricKey {
    /// Metric name, `snake_case` with unit suffix by convention
    /// (e.g. `ocs_switch_duration_ms`).
    pub name: String,
    /// Sorted `(key, value)` label pairs (e.g. `[("switch", "3")]`).
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting labels by key name.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

impl std::fmt::Display for MetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// One instrument's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Log-scale distribution.
    Histogram(LogHistogram),
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Serializable sample of one instrument, as exported.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricSample {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

struct Metric {
    value: MetricValue,
    last_update: Nanos,
}

/// The fleet metrics registry.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
    index: BTreeMap<MetricKey, usize>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("instruments", &self.metrics.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    fn get_or_create(&mut self, key: MetricKey, make: fn() -> MetricValue) -> usize {
        if let Some(&i) = self.index.get(&key) {
            let existing = &self.metrics[i].value;
            let wanted = make();
            assert_eq!(
                existing.kind(),
                wanted.kind(),
                "metric `{key}` re-registered as a different kind"
            );
            return i;
        }
        let i = self.metrics.len();
        self.metrics.push(Metric {
            value: make(),
            last_update: Nanos(0),
        });
        self.index.insert(key, i);
        i
    }

    /// Registers (or finds) a counter.
    ///
    /// # Panics
    /// Panics if the same key is already registered as another kind.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.get_or_create(MetricKey::new(name, labels), || MetricValue::Counter(0)))
    }

    /// Registers (or finds) a gauge.
    ///
    /// # Panics
    /// Panics if the same key is already registered as another kind.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.get_or_create(MetricKey::new(name, labels), || MetricValue::Gauge(0.0)))
    }

    /// Registers (or finds) a log-scale histogram.
    ///
    /// # Panics
    /// Panics if the same key is already registered as another kind.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        HistogramId(self.get_or_create(MetricKey::new(name, labels), || {
            MetricValue::Histogram(LogHistogram::new())
        }))
    }

    /// Adds `delta` to a counter at simulation time `at`. Allocation-free.
    #[inline]
    pub fn inc(&mut self, id: CounterId, at: Nanos, delta: u64) {
        let m = &mut self.metrics[id.0];
        match &mut m.value {
            MetricValue::Counter(c) => *c += delta,
            _ => unreachable!("CounterId always points at a counter"),
        }
        m.last_update = m.last_update.max(at);
    }

    /// Sets a gauge at simulation time `at`. Allocation-free.
    #[inline]
    pub fn set(&mut self, id: GaugeId, at: Nanos, value: f64) {
        let m = &mut self.metrics[id.0];
        match &mut m.value {
            MetricValue::Gauge(g) => *g = value,
            _ => unreachable!("GaugeId always points at a gauge"),
        }
        m.last_update = m.last_update.max(at);
    }

    /// Records a histogram sample at simulation time `at`. Allocation-free.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, at: Nanos, value: f64) {
        let m = &mut self.metrics[id.0];
        match &mut m.value {
            MetricValue::Histogram(h) => h.record(value),
            _ => unreachable!("HistogramId always points at a histogram"),
        }
        m.last_update = m.last_update.max(at);
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match &self.metrics[id.0].value {
            MetricValue::Counter(c) => *c,
            _ => unreachable!("CounterId always points at a counter"),
        }
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        match &self.metrics[id.0].value {
            MetricValue::Gauge(g) => *g,
            _ => unreachable!("GaugeId always points at a gauge"),
        }
    }

    /// Read access to a histogram.
    pub fn histogram_value(&self, id: HistogramId) -> &LogHistogram {
        match &self.metrics[id.0].value {
            MetricValue::Histogram(h) => h,
            _ => unreachable!("HistogramId always points at a histogram"),
        }
    }

    /// Looks up an instrument by identity (for tests and exporters).
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.index
            .get(&MetricKey::new(name, labels))
            .map(|&i| &self.metrics[i].value)
    }

    /// Iterates instruments in deterministic (name-sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &MetricValue, Nanos)> {
        self.index.iter().map(|(key, &i)| {
            let m = &self.metrics[i];
            (key, &m.value, m.last_update)
        })
    }

    /// Registers a rate helper: a gauge named `rate_name` that tracks
    /// `counter`'s per-second rate over fixed windows of [`RATE_WINDOW`].
    ///
    /// Call [`RateWindow::observe`] from any periodic path (a scrape, a
    /// health poll); when the window rolls over, the helper publishes
    /// `delta / elapsed_seconds` computed from the counter's exact
    /// integer delta — call sites stop hand-rolling per-window rate
    /// bookkeeping, and the published rate is a pure function of the
    /// counter history.
    ///
    /// # Panics
    /// Panics if `rate_name` is already registered as a non-gauge.
    pub fn rate_window(
        &mut self,
        counter: CounterId,
        rate_name: &str,
        labels: &[(&str, &str)],
    ) -> RateWindow {
        RateWindow {
            counter,
            gauge: self.gauge(rate_name, labels),
            last_bucket: 0,
            last_count: 0,
        }
    }

    /// Serializable samples of every instrument, name-sorted.
    pub fn samples(&self) -> Vec<(MetricKey, MetricSample, Nanos)> {
        self.iter()
            .map(|(key, value, at)| {
                let sample = match value {
                    MetricValue::Counter(c) => MetricSample::Counter(*c),
                    MetricValue::Gauge(g) => MetricSample::Gauge(*g),
                    MetricValue::Histogram(h) => MetricSample::Histogram(h.snapshot()),
                };
                (key.clone(), sample, at)
            })
            .collect()
    }
}

/// Width of a [`RateWindow`]'s fixed sim-time windows: one second, so
/// a `*_per_sec` gauge is the count of one window.
pub const RATE_WINDOW: Nanos = Nanos(1_000_000_000);

/// Derives a per-second rate gauge from a counter over fixed sim-time
/// windows (see [`MetricsRegistry::rate_window`]).
///
/// State is two integers (last window index, last counter value), so the
/// helper is `Copy`-cheap and fully deterministic: the same counter
/// history and observe stamps publish the same rates, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct RateWindow {
    counter: CounterId,
    gauge: GaugeId,
    last_bucket: u64,
    last_count: u64,
}

impl RateWindow {
    /// Re-evaluates the rate at sim time `at`; publishes the companion
    /// gauge when (and only when) the window has rolled over. A stamp
    /// from an earlier window is a no-op, like a stamp from the current
    /// one: whatever was counted meanwhile is published at the next
    /// roll-over.
    pub fn observe(&mut self, metrics: &mut MetricsRegistry, at: Nanos) {
        let bucket = at.0 / RATE_WINDOW.0;
        if bucket <= self.last_bucket {
            return;
        }
        let count = metrics.counter_value(self.counter);
        let delta = count - self.last_count;
        let elapsed_secs = ((bucket - self.last_bucket) * RATE_WINDOW.0) as f64 / 1e9;
        metrics.set(self.gauge, at, delta as f64 / elapsed_secs);
        self.last_bucket = bucket;
        self.last_count = count;
    }

    /// The companion gauge (for reads and tests).
    pub fn gauge(&self) -> GaugeId {
        self.gauge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_dedups_and_label_order_is_canonical() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("reconfigs", &[("switch", "0"), ("pod", "a")]);
        let b = reg.counter("reconfigs", &[("pod", "a"), ("switch", "0")]);
        assert_eq!(a, b, "label order must not mint a new instrument");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x", &[]);
        reg.gauge("x", &[]);
    }

    #[test]
    fn record_and_read_back() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("commits", &[]);
        let g = reg.gauge("utilization", &[]);
        let h = reg.histogram("settle_ms", &[]);
        reg.inc(c, Nanos(10), 2);
        reg.inc(c, Nanos(5), 1); // out-of-order stamps keep the max
        reg.set(g, Nanos(20), 0.984);
        reg.observe(h, Nanos(30), 25.0);
        assert_eq!(reg.counter_value(c), 3);
        assert_eq!(reg.gauge_value(g), 0.984);
        assert_eq!(reg.histogram_value(h).count(), 1);
        let stamps: Vec<Nanos> = reg.iter().map(|(_, _, at)| at).collect();
        assert!(stamps.contains(&Nanos(10)));
    }

    #[test]
    fn iteration_is_name_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.counter("zeta", &[]);
        reg.counter("alpha", &[]);
        reg.counter("mid", &[("a", "1")]);
        let names: Vec<&str> = reg.iter().map(|(k, _, _)| k.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn rate_window_publishes_exact_per_window_rates() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("ocs_relocks_total", &[("switch", "3")]);
        let mut rate = reg.rate_window(c, "ocs_relock_rate_per_sec", &[("switch", "3")]);
        // 4 relocks in window 0; observed after the roll to window 1.
        reg.inc(c, Nanos::from_millis(100), 4);
        rate.observe(&mut reg, Nanos::from_millis(500)); // same window: no-op
        assert_eq!(reg.gauge_value(rate.gauge()), 0.0);
        rate.observe(&mut reg, Nanos::from_millis(1200));
        assert_eq!(reg.gauge_value(rate.gauge()), 4.0);
        // Quiet for 2 windows, then 6 more: 6 events / 2 s = 3/s.
        reg.inc(c, Nanos::from_millis(2500), 6);
        rate.observe(&mut reg, Nanos::from_millis(3100));
        assert_eq!(reg.gauge_value(rate.gauge()), 3.0);
        // A late stamp (window 1, after window 3 was published) is a
        // no-op: it used to underflow in debug builds and publish a
        // garbage rate in release ones. The two events counted meanwhile
        // come out at the next roll-over, over the one window since.
        reg.inc(c, Nanos::from_millis(3200), 2);
        rate.observe(&mut reg, Nanos::from_millis(1500));
        assert_eq!(reg.gauge_value(rate.gauge()), 3.0);
        rate.observe(&mut reg, Nanos::from_millis(4100));
        assert_eq!(reg.gauge_value(rate.gauge()), 2.0);
        // Determinism: an identical replay publishes identical rates.
        let replay = |stamps: &[(u64, u64, u64)]| {
            let mut reg = MetricsRegistry::new();
            let c = reg.counter("x", &[]);
            let mut r = reg.rate_window(c, "x_rate", &[]);
            for &(inc_at, n, obs_at) in stamps {
                reg.inc(c, Nanos::from_millis(inc_at), n);
                r.observe(&mut reg, Nanos::from_millis(obs_at));
            }
            reg.gauge_value(r.gauge()).to_bits()
        };
        let script = [(100u64, 4u64, 1200u64), (2500, 6, 3100), (3300, 1, 4400)];
        assert_eq!(replay(&script), replay(&script));
    }

    #[test]
    fn display_renders_prometheus_style() {
        let key = MetricKey::new("ber", &[("port", "7"), ("lane", "2")]);
        assert_eq!(key.to_string(), "ber{lane=2,port=7}");
        assert_eq!(MetricKey::new("ber", &[]).to_string(), "ber");
    }
}
