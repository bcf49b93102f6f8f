//! Deterministic fixed-capacity time-series retention.
//!
//! The metrics registry ([`crate::metrics`]) keeps only *current* values;
//! this module retains bounded **history** so dashboards, Perfetto counter
//! tracks and flight-recorder postmortems can see trends. The design
//! follows the log-histogram discipline of DESIGN.md §6: samples are
//! quantized to integer micro-units exactly once at ingest, so no
//! retained value ever depends on arrival order or worker count.
//!
//! Retention is one **raw ring** of the last [`RAW_CAPACITY`] samples per
//! series — what every reader ([`SeriesStore::recent_for_switch`],
//! [`SeriesStore::tracks`]) consumes. Ingest is a ring push, with no
//! allocation on the steady state (the ring is at capacity).

use crate::metrics::MetricKey;
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Micro-units per 1.0 of a sample's native unit (quantization scale).
pub const SERIES_SCALE: f64 = 1e6;

/// Quantizes a native-unit value to integer micro-units.
///
/// This is the *only* float→int boundary in the retention path; it runs
/// once per ingested sample, so every downstream aggregate is exact.
pub fn quantize(value: f64) -> i64 {
    (value * SERIES_SCALE).round() as i64
}

/// Converts micro-units back to the native unit (display only).
pub fn dequantize(micros: i64) -> f64 {
    micros as f64 / SERIES_SCALE
}

/// One retained sample: a sim-time stamp and a quantized value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sample {
    /// Simulation time of the observation.
    pub at: Nanos,
    /// Value in integer micro-units (see [`SERIES_SCALE`]).
    pub value_micros: i64,
}

/// Raw samples retained per series (ring, oldest evicted first). One
/// 4 KiB ring of 16-byte samples: a flight-recorder postmortem embeds
/// the last few of them per series, a Perfetto counter track all of them.
pub const RAW_CAPACITY: usize = 256;

/// A single bounded series: the raw ring plus a lifetime count.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    raw: VecDeque<Sample>,
    total: u64,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries {
            raw: VecDeque::with_capacity(RAW_CAPACITY),
            total: 0,
        }
    }
}

impl TimeSeries {
    /// Ingests one pre-quantized sample.
    pub fn push_micros(&mut self, at: Nanos, value_micros: i64) {
        if self.raw.len() == RAW_CAPACITY {
            self.raw.pop_front();
        }
        self.raw.push_back(Sample { at, value_micros });
        self.total += 1;
    }

    /// Ingests one native-unit sample (quantized here, exactly once).
    pub fn push(&mut self, at: Nanos, value: f64) {
        self.push_micros(at, quantize(value));
    }

    /// The raw retained samples, oldest first.
    pub fn raw(&self) -> impl Iterator<Item = &Sample> {
        self.raw.iter()
    }

    /// Most recent sample, if any.
    pub fn latest(&self) -> Option<Sample> {
        self.raw.back().copied()
    }

    /// Total samples ever ingested (including evicted).
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Handle to a series registered in a [`SeriesStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// One exported counter sample — the unit of flight-recorder embedding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Series identity, rendered Prometheus-style (`name{k=v,...}`).
    pub series: String,
    /// Simulation time of the sample.
    pub at: Nanos,
    /// Value in integer micro-units.
    pub value_micros: i64,
}

/// One Perfetto counter track: a named series plus its raw points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTrack {
    /// Track name (the series identity).
    pub name: String,
    /// Raw retained points, oldest first.
    pub points: Vec<Sample>,
}

/// A keyed collection of series.
///
/// Mirrors the [`crate::metrics::MetricsRegistry`] access pattern:
/// get-or-create by name + labels (allocates), then record through the
/// copy handle [`SeriesId`] (a `Vec` index).
#[derive(Debug, Clone, Default)]
pub struct SeriesStore {
    series: Vec<TimeSeries>,
    index: BTreeMap<MetricKey, usize>,
    /// `switch` label value → the series carrying it, keyed by full
    /// identity so lookups stay name-sorted. Maintained in [`series`]
    /// (the only place a series is minted), so a per-switch slice is
    /// O(that switch's series) instead of a scan of every series.
    ///
    /// [`series`]: SeriesStore::series
    switch_index: BTreeMap<String, BTreeMap<MetricKey, usize>>,
}

impl SeriesStore {
    /// Registers (or finds) a series by name + labels.
    pub fn series(&mut self, name: &str, labels: &[(&str, &str)]) -> SeriesId {
        let key = MetricKey::new(name, labels);
        if let Some(&i) = self.index.get(&key) {
            return SeriesId(i);
        }
        let i = self.series.len();
        self.series.push(TimeSeries::default());
        if let Some((_, sw)) = key.labels.iter().find(|(k, _)| k == "switch") {
            self.switch_index
                .entry(sw.clone())
                .or_default()
                .insert(key.clone(), i);
        }
        self.index.insert(key, i);
        SeriesId(i)
    }

    /// Ingests one native-unit sample into `id`.
    pub fn push(&mut self, id: SeriesId, at: Nanos, value: f64) {
        self.series[id.0].push(at, value);
    }

    /// Ingests one pre-quantized sample into `id`.
    pub fn push_micros(&mut self, id: SeriesId, at: Nanos, value_micros: i64) {
        self.series[id.0].push_micros(at, value_micros);
    }

    /// Read access to one series.
    pub fn get(&self, id: SeriesId) -> &TimeSeries {
        &self.series[id.0]
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Iterates series in deterministic (name-sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&MetricKey, &TimeSeries)> {
        self.index.iter().map(|(k, &i)| (k, &self.series[i]))
    }

    /// The last `per_series` raw samples of every series labeled
    /// `switch=<switch>` — the blast-radius slice a flight-recorder
    /// postmortem embeds. Deterministic: series in name-sorted order,
    /// samples oldest first.
    pub fn recent_for_switch(&self, switch: u32, per_series: usize) -> Vec<CounterSample> {
        let mut out = Vec::new();
        let Some(members) = self.switch_index.get(switch.to_string().as_str()) else {
            return out;
        };
        // The inner map is keyed by full MetricKey, so iteration is
        // already the name-sorted order the flat scan produced.
        for (key, &i) in members {
            let ts = &self.series[i];
            let n = ts.raw.len();
            for s in ts.raw.iter().skip(n.saturating_sub(per_series)) {
                out.push(CounterSample {
                    series: key.to_string(),
                    at: s.at,
                    value_micros: s.value_micros,
                });
            }
        }
        out
    }

    /// Every series rendered as a Perfetto counter track (raw points,
    /// name-sorted order).
    pub fn tracks(&self) -> Vec<CounterTrack> {
        self.iter()
            .map(|(key, ts)| CounterTrack {
                name: key.to_string(),
                points: ts.raw.iter().copied().collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_round_trips_at_micro_resolution() {
        for v in [0.0, 0.25, -3.125, 120.000001] {
            assert!((dequantize(quantize(v)) - v).abs() < 1e-6);
        }
    }

    #[test]
    fn raw_ring_evicts_oldest() {
        let mut ts = TimeSeries::default();
        let n = RAW_CAPACITY as u64 + 2;
        for i in 0..n {
            ts.push(Nanos(i * 10), i as f64);
        }
        let vals: Vec<i64> = ts.raw().map(|s| s.value_micros).collect();
        assert_eq!(vals.len(), RAW_CAPACITY);
        assert_eq!(vals[0], quantize(2.0), "the two oldest were evicted");
        assert_eq!(vals[RAW_CAPACITY - 1], quantize((n - 1) as f64));
        assert_eq!(ts.total(), n);
    }

    #[test]
    fn store_dedups_and_filters_by_switch_label() {
        let mut store = SeriesStore::default();
        let a = store.series("health_port_drift_db", &[("switch", "3"), ("port", "9")]);
        let b = store.series("health_port_drift_db", &[("port", "9"), ("switch", "3")]);
        assert_eq!(a, b, "label order must not mint a new series");
        let c = store.series("health_relocks", &[("switch", "4")]);
        store.push(a, Nanos(10), 0.25);
        store.push(c, Nanos(20), 1.0);
        let three = store.recent_for_switch(3, 8);
        assert_eq!(three.len(), 1);
        assert_eq!(three[0].series, "health_port_drift_db{port=9,switch=3}");
        assert_eq!(three[0].value_micros, quantize(0.25));
        assert!(store.recent_for_switch(7, 8).is_empty());
        assert_eq!(store.tracks().len(), 2);
    }

    /// The pre-index implementation of `recent_for_switch`, kept as the
    /// oracle: an O(all-series) scan in name-sorted order.
    fn recent_by_flat_scan(
        store: &SeriesStore,
        switch: u32,
        per_series: usize,
    ) -> Vec<CounterSample> {
        let want = switch.to_string();
        let mut out = Vec::new();
        for (key, ts) in store.iter() {
            if !key.labels.iter().any(|(k, v)| k == "switch" && *v == want) {
                continue;
            }
            let n = ts.raw.len();
            for s in ts.raw.iter().skip(n.saturating_sub(per_series)) {
                out.push(CounterSample {
                    series: key.to_string(),
                    at: s.at,
                    value_micros: s.value_micros,
                });
            }
        }
        out
    }

    #[test]
    fn switch_index_matches_the_flat_scan_exactly() {
        // A mixed registry: per-switch series interleaved with
        // unlabeled and differently-labeled ones, registered out of
        // name order so the index has to do the sorting.
        let mut store = SeriesStore::default();
        let mut ids = Vec::new();
        for sw in [7u32, 3, 5] {
            for name in ["z_relocks", "a_drift_db", "m_commits"] {
                let sv = sw.to_string();
                for port in 0..4u32 {
                    let pv = port.to_string();
                    ids.push(store.series(name, &[("switch", &sv), ("port", &pv)]));
                }
            }
        }
        ids.push(store.series("global_epoch", &[]));
        ids.push(store.series("pod_util", &[("pod", "1")]));
        let mut state = 0x51D3u64;
        for step in 0..600u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let id = ids[(state >> 33) as usize % ids.len()];
            store.push_micros(id, Nanos(step * 11), (state >> 40) as i64);
        }
        for sw in [3u32, 5, 7, 9] {
            for per in [1usize, 4, 1000] {
                assert_eq!(
                    store.recent_for_switch(sw, per),
                    recent_by_flat_scan(&store, sw, per),
                    "switch {sw} per_series {per}"
                );
            }
        }
        assert!(store.recent_for_switch(9, 8).is_empty());
    }
}
