//! Metric hot-path microbenchmarks.
//!
//! Instrumented crates record through pre-registered handles on every
//! reconfiguration, lane sample, and scheduler step, so the record path
//! must stay O(ns) and allocation-free: a counter increment is an index
//! plus an add, a histogram observe an exponent-field bucket bump. The
//! registration path (string keys, BTreeMap) runs once per instrument
//! and is benchmarked separately to keep the two regimes honest.
//!
//! `health_plane` prices the two per-sample paths of the fleet-health
//! layer no lwbench workload drives: a `SeriesStore` ring push and a
//! `FleetHealth::ingest_drift` (ring push + CUSUM + EWMA) over a pod's
//! worth of registered ports.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lightwave::telemetry::{
    FleetHealth, FleetTelemetry, LogHistogram, MetricsRegistry, SeriesStore,
};
use lightwave_units::Nanos;
use std::hint::black_box;

fn record_hot_path(c: &mut Criterion) {
    let mut reg = MetricsRegistry::new();
    let counter = reg.counter("bench_events_total", &[("switch", "3")]);
    let gauge = reg.gauge("bench_power_w", &[("switch", "3")]);
    let hist = reg.histogram("bench_duration_ms", &[("switch", "3")]);

    let mut g = c.benchmark_group("metrics_record");
    g.throughput(Throughput::Elements(1));
    g.bench_function("counter_inc", |b| {
        let mut at = Nanos(0);
        b.iter(|| {
            at.0 += 1;
            reg.inc(black_box(counter), at, 1);
        })
    });
    g.bench_function("gauge_set", |b| {
        let mut at = Nanos(0);
        b.iter(|| {
            at.0 += 1;
            reg.set(black_box(gauge), at, 42.5);
        })
    });
    g.bench_function("histogram_observe", |b| {
        let mut at = Nanos(0);
        let mut v = 1.0f64;
        b.iter(|| {
            at.0 += 1;
            v = v * 1.5 % 1e6 + 1e-3; // walk the buckets, stay finite
            reg.observe(black_box(hist), at, v);
        })
    });
    g.finish();
}

fn registration_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_register");
    g.bench_function("lookup_existing", |b| {
        let mut reg = MetricsRegistry::new();
        reg.counter("bench_events_total", &[("switch", "3")]);
        // Re-registration resolves to the same handle through the index.
        b.iter(|| black_box(reg.counter("bench_events_total", &[("switch", "3")])))
    });
    g.finish();
}

fn histogram_merge(c: &mut Criterion) {
    let mut a = LogHistogram::new();
    let mut bh = LogHistogram::new();
    let mut v = 1e-9;
    for i in 0..10_000 {
        v = v * 1.7 % 1e9 + 1e-9;
        if i % 2 == 0 {
            a.record(v);
        } else {
            bh.record(v);
        }
    }
    let mut g = c.benchmark_group("metrics_rollup");
    g.bench_function("histogram_merge", |b| {
        b.iter(|| {
            let mut m = a.clone();
            m.merge(black_box(&bh));
            black_box(m)
        })
    });
    g.finish();
}

fn health_plane(c: &mut Criterion) {
    let mut g = c.benchmark_group("health_plane");
    g.throughput(Throughput::Elements(1));
    g.bench_function("series_push", |b| {
        let mut store = SeriesStore::default();
        let id = store.series("bench_drift_db", &[("switch", "3")]);
        let mut at = Nanos(0);
        b.iter(|| {
            at.0 += 1_000_000; // stamps ascending, 1 ms apart
            store.push_micros(black_box(id), at, 30_000);
        })
    });
    g.bench_function("health_ingest_drift", |b| {
        // 48 switches × 128 ports, all registered before timing; the
        // drift wobbles 3 mdB around 10 mdB, under every detector's
        // threshold, so no sample trips and none reaches the alarm path.
        const SWITCHES: u32 = 48;
        const PORTS: u16 = 128;
        let mut health = FleetHealth::default();
        let mut sink = FleetTelemetry::new();
        for switch in 0..SWITCHES {
            for port in 0..PORTS {
                health.ingest_drift(&mut sink, Nanos(0), switch, true, port, 0.010);
            }
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let switch = (i % SWITCHES as u64) as u32;
            let port = (i / SWITCHES as u64 % PORTS as u64) as u16;
            let drift_db = 0.010 + (i % 4) as f64 * 0.001;
            health.ingest_drift(&mut sink, Nanos(i * 1_000), switch, true, port, drift_db);
        });
        assert!(health.trips().is_empty(), "the wobble must stay clean");
    });
    g.finish();
}

criterion_group!(
    benches,
    record_hot_path,
    registration_path,
    histogram_merge,
    health_plane
);
criterion_main!(benches);
