//! Campus-scale hierarchical telemetry rollups.
//!
//! ROADMAP item 1 grows the stack from one pod to dozens of pods and
//! ~100k OCS ports. Mission Apollo's fleet monitoring works at
//! datacenter scale because per-port optics roll up into chassis- and
//! fleet-level views; this module is that rollup plane.
//!
//! [`RollupTree`] keeps the leaves of a four-level hierarchy —
//! **port → switch → pod → campus** — over the exact integer
//! [`Aggregate`] lattice (integer sums plus min/max joins of samples
//! quantized by [`crate::timeseries::quantize`]):
//!
//! - **Ingest** is one fold into the sample's port leaf. A producer
//!   that writes the same ports again and again resolves each once
//!   ([`RollupTree::leaf`]) and ingests into the [`LeafId`], skipping
//!   the path lookup.
//! - **A row is its leaves.** A switch, pod or campus aggregate is the
//!   fold of the leaves under it, computed when a query or
//!   [`CampusHealthDoc::build`] asks. Leaves sit in path order, so a
//!   switch's or a pod's leaves are one range. Nothing interior is
//!   stored, so nothing interior can drift from its leaves.
//! - **Merge** is exact: [`Aggregate::merge`] is associative and
//!   commutative by construction, so the per-cell trees of a sharded
//!   service run (one `CampusObserver` per cell under
//!   `lightwave_service::run_sharded`) combine leaf by leaf in shard
//!   order and the exported snapshot is byte-identical at any
//!   `LIGHTWAVE_THREADS` (DESIGN.md §6.9).
//!
//! [`CampusHealthDoc`] is the versioned queryable snapshot
//! ([`CAMPUS_HEALTH_SCHEMA`]): per-level rollups with a
//! dominant-cause verdict at every node, plus the multi-window
//! burn-rate / error-budget section from [`crate::slo::BurnRateLedger`].

use crate::slo::{BurnReport, BurnStatus};
use crate::timeseries::{quantize, Sample};
use lightwave_units::Nanos;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// The `schema` member the exported campus snapshot opens with.
pub const CAMPUS_HEALTH_SCHEMA: &str = "lightwave/campus-health/v2";

/// An exact aggregate of quantized samples: integer sums and lattice
/// joins only.
///
/// `merge` is associative and commutative by construction — the same
/// guarantee the log histogram gives bucket counts — so a node built
/// from samples in any order (or from merged sub-nodes) is
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Samples folded in.
    pub count: u64,
    /// Exact integer sum of quantized values.
    pub sum_micros: i64,
    /// Smallest quantized value.
    pub min_micros: i64,
    /// Largest quantized value.
    pub max_micros: i64,
    /// Earliest sample stamp folded in.
    pub first_at: Nanos,
    /// Latest sample stamp folded in.
    pub last_at: Nanos,
}

impl Aggregate {
    /// The identity element for [`Aggregate::merge`].
    pub const EMPTY: Aggregate = Aggregate {
        count: 0,
        sum_micros: 0,
        min_micros: i64::MAX,
        max_micros: i64::MIN,
        first_at: Nanos(u64::MAX),
        last_at: Nanos(0),
    };

    /// An aggregate of exactly one sample.
    pub fn from_sample(s: Sample) -> Aggregate {
        Aggregate {
            count: 1,
            sum_micros: s.value_micros,
            min_micros: s.value_micros,
            max_micros: s.value_micros,
            first_at: s.at,
            last_at: s.at,
        }
    }

    /// Exact merge: integer sums plus min/max/first/last lattice joins.
    pub fn merge(self, other: Aggregate) -> Aggregate {
        Aggregate {
            count: self.count + other.count,
            sum_micros: self.sum_micros + other.sum_micros,
            min_micros: self.min_micros.min(other.min_micros),
            max_micros: self.max_micros.max(other.max_micros),
            first_at: self.first_at.min(other.first_at),
            last_at: self.last_at.max(other.last_at),
        }
    }

    /// Integer mean in micro-units (truncating; `None` when empty).
    pub fn mean_micros(&self) -> Option<i64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_micros / self.count as i64)
        }
    }
}

/// Leaf coordinates in the campus hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PortPath {
    /// Pod (cell) index.
    pub pod: u32,
    /// Switch id within the pod.
    pub switch: u32,
    /// Port id on the switch (0 for switch-scoped producers).
    pub port: u32,
}

impl PortPath {
    /// A leaf path.
    pub fn new(pod: u32, switch: u32, port: u32) -> PortPath {
        PortPath { pod, switch, port }
    }
}

/// Handle to an interned rollup metric (a `Vec` index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollupMetric(usize);

/// A resolved port leaf of a [`RollupTree`] ([`RollupTree::leaf`]). It
/// stays valid for the tree that issued it: leaves are only ever added,
/// by ingest and by [`RollupTree::merge`], never moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafId(u32);

/// One port leaf's per-metric aggregates, indexed by [`RollupMetric`].
#[derive(Debug, Clone, Default)]
struct Leaf {
    aggs: Vec<Aggregate>,
}

impl Leaf {
    fn fold(&mut self, metric: usize, delta: Aggregate) {
        if self.aggs.len() <= metric {
            self.aggs.resize(metric + 1, Aggregate::EMPTY);
        }
        self.aggs[metric] = self.aggs[metric].merge(delta);
    }

    fn get(&self, metric: usize) -> Aggregate {
        self.aggs.get(metric).copied().unwrap_or(Aggregate::EMPTY)
    }
}

/// The campus aggregation tree (see module docs): port leaves only. A
/// switch, pod or campus row is the fold of the leaves under it,
/// computed when asked.
#[derive(Debug, Clone, Default)]
pub struct RollupTree {
    /// Interned metric names, in registration order.
    metrics: Vec<String>,
    metric_ids: BTreeMap<String, usize>,
    leaves: Vec<Leaf>,
    /// Leaf slots in path order: a switch's or a pod's leaves are one
    /// range of it.
    leaf_slots: BTreeMap<PortPath, u32>,
    ingested: u64,
}

impl RollupTree {
    /// An empty tree.
    pub fn new() -> RollupTree {
        RollupTree::default()
    }

    /// Interns (or finds) a metric by name.
    pub fn metric(&mut self, name: &str) -> RollupMetric {
        if let Some(&i) = self.metric_ids.get(name) {
            return RollupMetric(i);
        }
        let i = self.metrics.len();
        self.metrics.push(name.to_string());
        self.metric_ids.insert(name.to_string(), i);
        RollupMetric(i)
    }

    /// The interned metric names, in registration order.
    pub fn metric_names(&self) -> &[String] {
        &self.metrics
    }

    /// Resolves (or creates) the leaf for `path`.
    pub fn leaf(&mut self, path: PortPath) -> LeafId {
        if let Some(&slot) = self.leaf_slots.get(&path) {
            return LeafId(slot);
        }
        let slot = self.leaves.len() as u32;
        self.leaves.push(Leaf::default());
        self.leaf_slots.insert(path, slot);
        LeafId(slot)
    }

    /// Ingests one pre-quantized sample into a resolved leaf: one fold.
    pub fn ingest_leaf(&mut self, m: RollupMetric, leaf: LeafId, at: Nanos, micros: i64) {
        let sample = Aggregate::from_sample(Sample {
            at,
            value_micros: micros,
        });
        self.leaves[leaf.0 as usize].fold(m.0, sample);
        self.ingested += 1;
    }

    /// Ingests one pre-quantized sample into `path`'s leaf: the leaf's
    /// [`RollupTree::leaf`], then [`RollupTree::ingest_leaf`].
    pub fn ingest_micros(&mut self, m: RollupMetric, path: PortPath, at: Nanos, micros: i64) {
        let leaf = self.leaf(path);
        self.ingest_leaf(m, leaf, at, micros);
    }

    /// Ingests one native-unit sample (quantized here, exactly once —
    /// the same float→int boundary as [`crate::timeseries::quantize`]).
    pub fn ingest(&mut self, m: RollupMetric, path: PortPath, at: Nanos, value: f64) {
        self.ingest_micros(m, path, at, quantize(value));
    }

    /// Convenience ingest by metric name (interns on first use).
    pub fn record(&mut self, name: &str, path: PortPath, at: Nanos, value: f64) {
        let m = self.metric(name);
        self.ingest(m, path, at, value);
    }

    /// Merges another tree into this one (consuming it), leaf by leaf,
    /// with metric names remapped through this tree's intern table —
    /// exact in any association because [`Aggregate::merge`] is, though
    /// callers merge in shard order for byte-identical intern ordering.
    pub fn merge(&mut self, other: RollupTree) {
        // other metric index -> self metric index.
        let remap: Vec<usize> = other.metrics.iter().map(|n| self.metric(n).0).collect();
        for (&path, &slot) in &other.leaf_slots {
            let LeafId(mine) = self.leaf(path);
            let dst = &mut self.leaves[mine as usize];
            for (m, &agg) in other.leaves[slot as usize].aggs.iter().enumerate() {
                if agg.count > 0 {
                    dst.fold(remap[m], agg);
                }
            }
        }
        self.ingested += other.ingested;
    }

    /// The fold of `m` over the leaves whose paths lie in `under`.
    fn fold_under(&self, under: RangeInclusive<PortPath>, m: RollupMetric) -> Aggregate {
        self.leaf_slots
            .range(under)
            .fold(Aggregate::EMPTY, |row, (_, &slot)| {
                row.merge(self.leaves[slot as usize].get(m.0))
            })
    }

    /// The campus-level aggregate of `m`: the fold of every leaf.
    pub fn campus_agg(&self, m: RollupMetric) -> Aggregate {
        self.leaves
            .iter()
            .fold(Aggregate::EMPTY, |row, leaf| row.merge(leaf.get(m.0)))
    }

    /// The pod-level aggregate of `m`: the fold of the pod's leaves.
    pub fn pod_agg(&self, pod: u32, m: RollupMetric) -> Aggregate {
        self.fold_under(pod_paths(pod), m)
    }

    /// The switch-level aggregate of `m`: the fold of the switch's leaves.
    pub fn switch_agg(&self, pod: u32, switch: u32, m: RollupMetric) -> Aggregate {
        self.fold_under(
            PortPath::new(pod, switch, 0)..=PortPath::new(pod, switch, u32::MAX),
            m,
        )
    }

    /// Pod ids present, ascending.
    pub fn pod_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.leaf_slots.keys().map(|p| p.pod).collect();
        ids.dedup();
        ids
    }

    /// Switch ids present under `pod`, ascending.
    pub fn switch_ids(&self, pod: u32) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .leaf_slots
            .range(pod_paths(pod))
            .map(|(p, _)| p.switch)
            .collect();
        ids.dedup();
        ids
    }

    /// Leaf count (distinct ports ever ingested).
    pub fn ports(&self) -> usize {
        self.leaves.len()
    }

    /// Samples ever ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }
}

/// Every leaf path under `pod`.
fn pod_paths(pod: u32) -> RangeInclusive<PortPath> {
    PortPath::new(pod, 0, 0)..=PortPath::new(pod, u32::MAX, u32::MAX)
}

/// One metric's aggregate at a node, named for export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricCell {
    /// Metric name.
    pub metric: String,
    /// Exact aggregate.
    pub agg: Aggregate,
}

/// One node of the exported hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeHealth {
    /// Per-metric aggregates, metric-name-sorted (empty metrics
    /// omitted).
    pub metrics: Vec<MetricCell>,
    /// The metric contributing the most samples at this node — the
    /// drill-down verdict an operator reads first. Ties break to the
    /// lexicographically smaller name.
    pub dominant_cause: Option<String>,
}

impl NodeHealth {
    fn build(names: &[String], get: impl Fn(usize) -> Aggregate) -> NodeHealth {
        let mut metrics: Vec<MetricCell> = names
            .iter()
            .enumerate()
            .filter_map(|(m, name)| {
                let agg = get(m);
                (agg.count > 0).then(|| MetricCell {
                    metric: name.clone(),
                    agg,
                })
            })
            .collect();
        metrics.sort_by(|a, b| a.metric.cmp(&b.metric));
        let dominant_cause = metrics
            .iter()
            .max_by(|a, b| a.agg.count.cmp(&b.agg.count).then(b.metric.cmp(&a.metric)))
            .map(|c| c.metric.clone());
        NodeHealth {
            metrics,
            dominant_cause,
        }
    }

    /// The aggregate of `metric` at this node, if present.
    pub fn metric(&self, metric: &str) -> Option<&Aggregate> {
        self.metrics
            .iter()
            .find(|c| c.metric == metric)
            .map(|c| &c.agg)
    }
}

/// One switch row in the snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchRow {
    /// Switch id within its pod.
    pub switch: u32,
    /// The switch-level rollup.
    pub node: NodeHealth,
}

/// One pod row in the snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodRow {
    /// Pod index.
    pub pod: u32,
    /// The pod-level rollup.
    pub node: NodeHealth,
    /// Per-switch drill-down, switch-id-sorted.
    pub switches: Vec<SwitchRow>,
}

/// The versioned queryable campus snapshot ([`CAMPUS_HEALTH_SCHEMA`]).
///
/// Everything inside is integer-exact or deterministically ordered, so
/// the serialized document is byte-identical for the same logical
/// state at any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampusHealthDoc {
    /// [`CAMPUS_HEALTH_SCHEMA`].
    pub schema: String,
    /// Sim time the snapshot was taken.
    pub generated_at: Nanos,
    /// Distinct port leaves rolled up.
    pub ports: u64,
    /// Campus-level rollup.
    pub campus: NodeHealth,
    /// Per-pod drill-down, pod-sorted.
    pub pods: Vec<PodRow>,
    /// Multi-window burn-rate / error-budget section.
    pub slo: BurnReport,
}

impl CampusHealthDoc {
    /// Builds the snapshot from a tree's leaves and a burn-rate
    /// assessment: every row is folded here, from the leaves under it.
    pub fn build(tree: &RollupTree, slo: BurnReport, generated_at: Nanos) -> CampusHealthDoc {
        let names = tree.metric_names();
        let pods = tree
            .pod_ids()
            .into_iter()
            .map(|pod| PodRow {
                pod,
                node: NodeHealth::build(names, |m| tree.pod_agg(pod, RollupMetric(m))),
                switches: tree
                    .switch_ids(pod)
                    .into_iter()
                    .map(|sw| SwitchRow {
                        switch: sw,
                        node: NodeHealth::build(names, |m| {
                            tree.switch_agg(pod, sw, RollupMetric(m))
                        }),
                    })
                    .collect(),
            })
            .collect();
        CampusHealthDoc {
            schema: CAMPUS_HEALTH_SCHEMA.to_string(),
            generated_at,
            ports: tree.ports() as u64,
            campus: NodeHealth::build(names, |m| tree.campus_agg(RollupMetric(m))),
            pods,
            slo,
        }
    }

    /// Drill-down: one pod's row.
    pub fn pod(&self, pod: u32) -> Option<&PodRow> {
        self.pods.iter().find(|p| p.pod == pod)
    }

    /// Drill-down: one switch's row.
    pub fn switch(&self, pod: u32, switch: u32) -> Option<&SwitchRow> {
        self.pod(pod)?.switches.iter().find(|s| s.switch == switch)
    }

    /// The top-`k` error-budget burners: pods ordered by budget spent
    /// (descending), ties by pod id. The campus row is excluded — it is
    /// the sum, not a burner.
    pub fn top_burners(&self, k: usize) -> Vec<&BurnStatus> {
        let mut rows: Vec<&BurnStatus> = self.slo.pods.iter().collect();
        rows.sort_by(|a, b| {
            b.spent_nanos
                .cmp(&a.spent_nanos)
                .then(a.object.cmp(&b.object))
        });
        rows.truncate(k);
        rows
    }

    /// Dominant cause at the campus level.
    pub fn dominant_cause(&self) -> Option<&str> {
        self.campus.dominant_cause.as_deref()
    }

    /// Serializes the document (pretty JSON + trailing newline — the CI
    /// byte-compare artifact).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("doc serializes");
        s.push('\n');
        s
    }

    /// Parses a serialized document, checking its `schema`.
    pub fn from_json(text: &str) -> Result<CampusHealthDoc, String> {
        let doc: CampusHealthDoc =
            serde_json::from_str(text).map_err(|e| format!("campus-health parse: {e}"))?;
        if doc.schema != CAMPUS_HEALTH_SCHEMA {
            return Err(format!(
                "campus-health schema {:?}, want {CAMPUS_HEALTH_SCHEMA:?}",
                doc.schema
            ));
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::BurnRateLedger;
    use proptest::prelude::*;

    fn p(pod: u32, sw: u32, port: u32) -> PortPath {
        PortPath::new(pod, sw, port)
    }

    #[test]
    fn every_row_is_the_fold_of_the_leaves_under_it() {
        // Each row's leaves sit beside a neighbour's: switch 1 next to
        // switch 2's first port, pod 0's last port next to pod 1's first.
        let samples = [
            (p(0, 1, 0), 4),
            (p(0, 1, 7), -2),
            (p(0, 2, 0), 30),
            (p(0, u32::MAX, u32::MAX), 9),
            (p(1, 0, 0), 500),
            (p(1, 1, 3), -70),
        ];
        let mut t = RollupTree::new();
        let m = t.metric("x");
        for (i, &(path, v)) in samples.iter().enumerate() {
            t.ingest_micros(m, path, Nanos(i as u64), v);
        }
        let fold_where = |keep: &dyn Fn(PortPath) -> bool| {
            samples
                .iter()
                .enumerate()
                .filter(|(_, (path, _))| keep(*path))
                .fold(Aggregate::EMPTY, |a, (i, &(_, v))| {
                    a.merge(Aggregate::from_sample(Sample {
                        at: Nanos(i as u64),
                        value_micros: v,
                    }))
                })
        };
        assert_eq!(t.campus_agg(m), fold_where(&|_| true));
        assert_eq!(t.pod_ids(), [0, 1]);
        for pod in t.pod_ids() {
            assert_eq!(t.pod_agg(pod, m), fold_where(&|q| q.pod == pod));
            for sw in t.switch_ids(pod) {
                let want = fold_where(&|q| (q.pod, q.switch) == (pod, sw));
                assert_eq!(t.switch_agg(pod, sw, m), want, "switch ({pod},{sw})");
            }
        }
        assert_eq!(t.switch_ids(0), [1, 2, u32::MAX]);
        assert_eq!(t.switch_agg(0, 1, m).count, 2);
        assert_eq!(t.pod_agg(2, m), Aggregate::EMPTY, "no leaves, no row");
        assert_eq!(t.ingested(), samples.len() as u64);
    }

    #[test]
    fn merge_equals_single_tree_whatever_the_intern_order() {
        let mut whole = RollupTree::new();
        let mut a = RollupTree::new();
        let mut b = RollupTree::new();
        // `a` meets "relocks" first (sample 0), `b` "drift_db": their
        // indices differ, so the merge must remap them by name.
        b.metric("drift_db");
        for i in 0..60u32 {
            let path = p(i % 3, i % 5, i);
            let at = Nanos(i as u64 * 7);
            let v = (i as f64) * 0.5 - 3.0;
            let name = if i % 3 == 0 { "relocks" } else { "drift_db" };
            whole.record(name, path, at, v);
            if i % 2 == 0 {
                a.record(name, path, at, v);
            } else {
                b.record(name, path, at, v);
            }
        }
        a.merge(b);
        assert_eq!(a.ports(), whole.ports());
        assert_eq!(a.ingested(), whole.ingested());
        for name in ["drift_db", "relocks"] {
            let (m, ma) = (whole.metric(name), a.metric(name));
            assert_eq!(whole.campus_agg(m), a.campus_agg(ma));
            for pod in whole.pod_ids() {
                assert_eq!(whole.pod_agg(pod, m), a.pod_agg(pod, ma));
                for sw in whole.switch_ids(pod) {
                    assert_eq!(whole.switch_agg(pod, sw, m), a.switch_agg(pod, sw, ma));
                }
            }
        }
    }

    #[test]
    fn doc_builds_queries_and_round_trips() {
        let mut t = RollupTree::new();
        t.record("relocks", p(0, 1, 4), Nanos(5), 1.0);
        t.record("relocks", p(0, 1, 5), Nanos(6), 1.0);
        t.record("drift_db", p(1, 0, 0), Nanos(7), 0.25);
        let mut burn = BurnRateLedger::default();
        burn.observe(Nanos(0), 0, true);
        burn.observe(Nanos(0), 1, true);
        let doc = CampusHealthDoc::build(&t, burn.assess(Nanos(100)), Nanos(100));
        assert_eq!(doc.schema, CAMPUS_HEALTH_SCHEMA);
        assert_eq!(doc.ports, 3);
        assert_eq!(doc.dominant_cause(), Some("relocks"));
        assert_eq!(
            doc.pod(1).unwrap().node.dominant_cause.as_deref(),
            Some("drift_db")
        );
        let sw = doc.switch(0, 1).expect("switch row");
        assert_eq!(sw.node.metric("relocks").unwrap().count, 2);
        assert!(doc.switch(0, 9).is_none());
        let parsed = CampusHealthDoc::from_json(&doc.to_json()).expect("round trip");
        assert_eq!(parsed, doc);
    }

    fn agg_of(samples: &[Sample]) -> Aggregate {
        samples
            .iter()
            .fold(Aggregate::EMPTY, |a, &s| a.merge(Aggregate::from_sample(s)))
    }

    proptest! {
        /// The lattice contract: aggregates merge *exactly* in any
        /// order — fold left, fold right, shuffled, or tree-merged from
        /// arbitrary splits, the result is identical.
        #[test]
        fn aggregate_merge_is_exact_in_any_order(
            values in proptest::collection::vec((0u64..1_000_000, -500_000i64..500_000), 1..64),
            split in 0usize..64,
            shuffle_seed in 0u64..u64::MAX,
        ) {
            let samples: Vec<Sample> = values
                .iter()
                .map(|&(t, v)| Sample { at: Nanos(t), value_micros: v })
                .collect();
            let reference = agg_of(&samples);

            // Arbitrary split point, merged as two sub-aggregates.
            let cut = split % samples.len();
            let (lo, hi) = samples.split_at(cut);
            prop_assert_eq!(agg_of(lo).merge(agg_of(hi)), reference);
            prop_assert_eq!(agg_of(hi).merge(agg_of(lo)), reference);

            // Deterministic shuffle (splitmix-style LCG walk).
            let mut shuffled = samples.clone();
            let mut state = shuffle_seed;
            for i in (1..shuffled.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                shuffled.swap(i, j);
            }
            prop_assert_eq!(agg_of(&shuffled), reference);
        }

        /// Every pod row and the campus row equal the flat fold of
        /// their samples, whatever the ingest order.
        #[test]
        fn rollup_equals_flat_under_any_order(
            samples in proptest::collection::vec(
                (0u32..4, 0u32..6, 0u32..8, 0u64..1000, -500i64..500), 1..80),
        ) {
            let mut t = RollupTree::new();
            let m = t.metric("x");
            let mut campus = Aggregate::EMPTY;
            let mut pods = [Aggregate::EMPTY; 4];
            for &(pod, sw, port, at, v) in &samples {
                t.ingest_micros(m, p(pod, sw, port), Nanos(at), v);
                let one = Aggregate::from_sample(Sample { at: Nanos(at), value_micros: v });
                campus = campus.merge(one);
                pods[pod as usize] = pods[pod as usize].merge(one);
            }
            prop_assert_eq!(t.campus_agg(m), campus);
            for (pod, &want) in pods.iter().enumerate() {
                prop_assert_eq!(t.pod_agg(pod as u32, m), want);
            }
        }
    }
}
