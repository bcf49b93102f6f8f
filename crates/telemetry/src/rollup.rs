//! Campus-scale hierarchical telemetry rollups.
//!
//! ROADMAP item 1 grows the stack from one pod to dozens of pods and
//! ~100k OCS ports. At that cardinality a flat scrape — walk every
//! port-level series, re-fold everything — is O(ports) per poll and
//! cannot keep up. Mission Apollo's fleet monitoring works at
//! datacenter scale precisely because per-port optics roll up into
//! chassis- and fleet-level views; this module is that rollup plane.
//!
//! [`RollupTree`] maintains a four-level aggregation hierarchy —
//! **port → switch → pod → campus** — over the exact integer
//! [`Aggregate`] lattice (integer sums plus min/max joins of samples
//! quantized by [`crate::timeseries::quantize`]):
//!
//! - **Ingest** is O(1): the sample folds into its port leaf's *pending
//!   delta* and the leaf joins a dirty set. A producer that writes the
//!   same ports again and again resolves each once ([`RollupTree::leaf`])
//!   and ingests into the [`LeafId`], skipping the path lookup.
//! - **Scrape** is O(changed · depth): each dirty leaf's pending delta
//!   merges into the leaf total and then into exactly one switch, one
//!   pod, and the campus node. Untouched ports cost nothing.
//! - **Merge** is exact: [`Aggregate::merge`] is associative and
//!   commutative by construction, so the per-cell trees of a sharded
//!   service run (one `CampusObserver` per cell under
//!   `lightwave_service::run_sharded`) combine in shard order and the
//!   exported snapshot is byte-identical at any `LIGHTWAVE_THREADS`
//!   (DESIGN.md §6.9).
//!
//! The flat re-aggregation (`fold every leaf from EMPTY`) is kept in two
//! forms. [`RollupTree::check_consistency`] re-folds the scraped leaf
//! totals into every switch, pod and campus node: it is the ground truth
//! the chaos invariant compares the incremental totals against after
//! every injected event, and what `tests/campus_health.rs` and the
//! `campus_health` example assert. [`RollupTree::flat_campus`] re-folds
//! the campus row with pending deltas included: it is the reference this
//! module's merge test and proptest compare against. lwbench reads
//! neither (its `telemetry.*` metrics time the observer and the document).
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

impl RollupMetric {
    /// The metric's intern index — the position of its slot in
    /// [`RollupTree::flat_campus`]'s output.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A resolved port leaf of a [`RollupTree`] ([`RollupTree::leaf`]). It
/// stays valid for the tree that issued it: leaves are only ever added,
/// by ingest and by [`RollupTree::merge`], never moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafId(u32);

/// One node's per-metric aggregates, indexed by [`RollupMetric`].
#[derive(Debug, Clone, Default)]
struct NodeAggs {
    aggs: Vec<Aggregate>,
}

impl NodeAggs {
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

/// One port leaf: the scraped total plus the not-yet-propagated delta,
/// with its interior-node slots resolved once at creation so the scrape
/// hot path is pure array arithmetic (no tree lookups).
#[derive(Debug, Clone)]
struct Leaf {
    total: NodeAggs,
    pending: NodeAggs,
    dirty: bool,
    /// Index into [`RollupTree::switches`].
    switch_slot: u32,
    /// Index into [`RollupTree::pods`].
    pod_slot: u32,
}

/// The campus aggregation tree (see module docs).
///
/// Node storage is slot-indexed `Vec`s; the `BTreeMap` side tables map
/// ids to slots and exist for queries and ordered iteration only —
/// ingest by path pays one leaf lookup, ingest into a [`LeafId`] and
/// [`RollupTree::scrape`] pay none.
#[derive(Debug, Clone, Default)]
pub struct RollupTree {
    /// Interned metric names, in registration order.
    metrics: Vec<String>,
    metric_ids: BTreeMap<String, usize>,
    leaves: Vec<Leaf>,
    leaf_slots: BTreeMap<PortPath, u32>,
    switches: Vec<NodeAggs>,
    switch_slots: BTreeMap<(u32, u32), u32>,
    pods: Vec<NodeAggs>,
    pod_slots: BTreeMap<u32, u32>,
    campus: NodeAggs,
    /// Dirty leaf slots awaiting propagation (each at most once — the
    /// leaf's `dirty` flag dedups).
    dirty: Vec<u32>,
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

    /// Resolves (or creates) the leaf for `path`, wiring its
    /// interior-node slots on first sight.
    pub fn leaf(&mut self, path: PortPath) -> LeafId {
        if let Some(&slot) = self.leaf_slots.get(&path) {
            return LeafId(slot);
        }
        let switch_slot = match self.switch_slots.get(&(path.pod, path.switch)) {
            Some(&s) => s,
            None => {
                let s = self.switches.len() as u32;
                self.switches.push(NodeAggs::default());
                self.switch_slots.insert((path.pod, path.switch), s);
                s
            }
        };
        let pod_slot = match self.pod_slots.get(&path.pod) {
            Some(&s) => s,
            None => {
                let s = self.pods.len() as u32;
                self.pods.push(NodeAggs::default());
                self.pod_slots.insert(path.pod, s);
                s
            }
        };
        let slot = self.leaves.len() as u32;
        self.leaves.push(Leaf {
            total: NodeAggs::default(),
            pending: NodeAggs::default(),
            dirty: false,
            switch_slot,
            pod_slot,
        });
        self.leaf_slots.insert(path, slot);
        LeafId(slot)
    }

    /// Ingests one pre-quantized sample into a resolved leaf: O(1), no
    /// propagation (that happens at the next [`RollupTree::scrape`]).
    pub fn ingest_leaf(&mut self, m: RollupMetric, leaf: LeafId, at: Nanos, micros: i64) {
        let delta = Aggregate::from_sample(Sample {
            at,
            value_micros: micros,
        });
        let node = &mut self.leaves[leaf.0 as usize];
        node.pending.fold(m.0, delta);
        if !node.dirty {
            node.dirty = true;
            self.dirty.push(leaf.0);
        }
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

    /// Propagates every dirty leaf's pending delta up the tree —
    /// leaf total, switch, pod, campus — and returns how many leaves
    /// were propagated. Cost is O(dirty · depth), independent of the
    /// total port count; with nothing dirty it is O(1).
    pub fn scrape(&mut self) -> usize {
        let dirty = std::mem::take(&mut self.dirty);
        let n = dirty.len();
        for slot in dirty {
            let leaf = &mut self.leaves[slot as usize];
            let pending = std::mem::take(&mut leaf.pending);
            leaf.dirty = false;
            let (sw, pod) = (leaf.switch_slot as usize, leaf.pod_slot as usize);
            for (metric, &delta) in pending.aggs.iter().enumerate() {
                if delta.count == 0 {
                    continue;
                }
                leaf.total.fold(metric, delta);
            }
            for (metric, &delta) in pending.aggs.iter().enumerate() {
                if delta.count == 0 {
                    continue;
                }
                self.switches[sw].fold(metric, delta);
                self.pods[pod].fold(metric, delta);
                self.campus.fold(metric, delta);
            }
        }
        n
    }

    /// Merges another tree into this one (consuming it). Both sides are
    /// scraped first, then every level merges node-wise with metric
    /// names remapped through this tree's intern table — exact in any
    /// association because [`Aggregate::merge`] is, though callers merge
    /// in shard order for byte-identical intern ordering.
    pub fn merge(&mut self, mut other: RollupTree) {
        self.scrape();
        other.scrape();
        // other metric index -> self metric index.
        let remap: Vec<usize> = other.metrics.iter().map(|n| self.metric(n).0).collect();
        let fold_remapped = |dst: &mut NodeAggs, src: &NodeAggs| {
            for (m, &agg) in src.aggs.iter().enumerate() {
                if agg.count > 0 {
                    dst.fold(remap[m], agg);
                }
            }
        };
        // The leaf fold reaches switch/pod/campus through the same
        // remap, so interior nodes stay exactly the leaf sums.
        let mut other_leaves = std::mem::take(&mut other.leaves);
        for (&path, &slot) in &other.leaf_slots {
            let LeafId(mine) = self.leaf(path);
            let src = std::mem::take(&mut other_leaves[slot as usize].total);
            let dst = &mut self.leaves[mine as usize];
            let (sw, pod) = (dst.switch_slot as usize, dst.pod_slot as usize);
            fold_remapped(&mut dst.total, &src);
            fold_remapped(&mut self.switches[sw], &src);
            fold_remapped(&mut self.pods[pod], &src);
            fold_remapped(&mut self.campus, &src);
        }
        self.ingested += other.ingested;
    }

    /// The campus-level aggregate of `m` (scraped state only).
    pub fn campus_agg(&self, m: RollupMetric) -> Aggregate {
        self.campus.get(m.0)
    }

    /// The pod-level aggregate of `m`.
    pub fn pod_agg(&self, pod: u32, m: RollupMetric) -> Aggregate {
        self.pod_slots
            .get(&pod)
            .map(|&s| self.pods[s as usize].get(m.0))
            .unwrap_or(Aggregate::EMPTY)
    }

    /// The switch-level aggregate of `m`.
    pub fn switch_agg(&self, pod: u32, switch: u32, m: RollupMetric) -> Aggregate {
        self.switch_slots
            .get(&(pod, switch))
            .map(|&s| self.switches[s as usize].get(m.0))
            .unwrap_or(Aggregate::EMPTY)
    }

    /// Pod ids present, ascending.
    pub fn pod_ids(&self) -> Vec<u32> {
        self.pod_slots.keys().copied().collect()
    }

    /// Switch ids present under `pod`, ascending.
    pub fn switch_ids(&self, pod: u32) -> Vec<u32> {
        self.switch_slots
            .range((pod, 0)..=(pod, u32::MAX))
            .map(|(&(_, s), _)| s)
            .collect()
    }

    /// Leaf count (distinct ports ever ingested).
    pub fn ports(&self) -> usize {
        self.leaves.len()
    }

    /// Samples ever ingested.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// The flat ground truth: campus totals re-folded from every leaf
    /// (scraped total ⊕ pending delta), one [`Aggregate`] per interned
    /// metric. O(ports) — the cost the incremental scrape avoids, kept
    /// as the reference for invariants and proptests.
    pub fn flat_campus(&self) -> Vec<Aggregate> {
        let mut out = vec![Aggregate::EMPTY; self.metrics.len()];
        for leaf in &self.leaves {
            for (m, slot) in out.iter_mut().enumerate() {
                *slot = slot.merge(leaf.total.get(m)).merge(leaf.pending.get(m));
            }
        }
        out
    }

    /// Checks every interior node against a fresh flat re-aggregation
    /// of the scraped leaf totals: switch, pod, and campus rollups must
    /// all equal the fold of their leaves. Call after
    /// [`RollupTree::scrape`]; returns the first divergence found.
    pub fn check_consistency(&self) -> Result<(), String> {
        let nm = self.metrics.len();
        let mut switches: BTreeMap<(u32, u32), Vec<Aggregate>> = BTreeMap::new();
        let mut pods: BTreeMap<u32, Vec<Aggregate>> = BTreeMap::new();
        let mut campus = vec![Aggregate::EMPTY; nm];
        for (path, &slot) in &self.leaf_slots {
            let leaf = &self.leaves[slot as usize];
            let sw = switches
                .entry((path.pod, path.switch))
                .or_insert_with(|| vec![Aggregate::EMPTY; nm]);
            for (m, slot) in sw.iter_mut().enumerate() {
                *slot = slot.merge(leaf.total.get(m));
            }
            let pd = pods
                .entry(path.pod)
                .or_insert_with(|| vec![Aggregate::EMPTY; nm]);
            for (m, slot) in pd.iter_mut().enumerate() {
                let a = leaf.total.get(m);
                *slot = slot.merge(a);
                campus[m] = campus[m].merge(a);
            }
        }
        for (&(pod, sw), want) in &switches {
            for (m, want) in want.iter().enumerate() {
                let have = self.switch_agg(pod, sw, RollupMetric(m));
                if have != *want {
                    return Err(format!(
                        "switch ({pod},{sw}) metric {}: rollup {:?} != flat {:?}",
                        self.metrics[m], have, want
                    ));
                }
            }
        }
        for (&pod, want) in &pods {
            for (m, want) in want.iter().enumerate() {
                let have = self.pod_agg(pod, RollupMetric(m));
                if have != *want {
                    return Err(format!(
                        "pod {pod} metric {}: rollup {:?} != flat {:?}",
                        self.metrics[m], have, want
                    ));
                }
            }
        }
        for (m, want) in campus.iter().enumerate() {
            let have = self.campus_agg(RollupMetric(m));
            if have != *want {
                return Err(format!(
                    "campus metric {}: rollup {:?} != flat {:?}",
                    self.metrics[m], have, want
                ));
            }
        }
        Ok(())
    }
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
    /// Builds the snapshot from a **scraped** tree and a burn-rate
    /// assessment. Call [`RollupTree::scrape`] first so pending deltas
    /// are included.
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
    fn scrape_propagates_only_dirty_leaves() {
        let mut t = RollupTree::new();
        let m = t.metric("relocks");
        for port in 0..100 {
            t.ingest(m, p(0, port % 4, port), Nanos(port as u64), 1.0);
        }
        assert_eq!(t.scrape(), 100);
        assert_eq!(t.campus_agg(m).count, 100);
        // Touch two ports: the next scrape propagates exactly two.
        t.ingest(m, p(0, 1, 1), Nanos(200), 1.0);
        t.ingest(m, p(0, 1, 1), Nanos(201), 1.0);
        t.ingest(m, p(0, 2, 2), Nanos(202), 1.0);
        assert_eq!(t.dirty.len(), 2, "dirty set dedups per leaf");
        assert_eq!(t.scrape(), 2);
        assert_eq!(t.campus_agg(m).count, 103);
        assert_eq!(t.switch_agg(0, 1, m).count, 27);
        let LeafId(port) = t.leaf(p(0, 1, 1));
        assert_eq!(t.leaves[port as usize].total.get(m.0).count, 3);
        assert_eq!(t.scrape(), 0, "clean tree scrapes nothing");
        t.check_consistency()
            .expect("nodes equal flat ground truth");
    }

    #[test]
    fn merge_equals_single_tree_and_flat_sum() {
        let mut whole = RollupTree::new();
        let mut a = RollupTree::new();
        let mut b = RollupTree::new();
        for i in 0..60u32 {
            let path = p(i % 3, i % 5, i);
            let at = Nanos(i as u64 * 7);
            let v = (i as f64) * 0.5 - 3.0;
            whole.record("drift_db", path, at, v);
            if i % 2 == 0 {
                a.record("drift_db", path, at, v);
            } else {
                b.record("drift_db", path, at, v);
            }
        }
        whole.scrape();
        a.merge(b);
        let m = whole.metric("drift_db");
        let ma = a.metric("drift_db");
        assert_eq!(whole.campus_agg(m), a.campus_agg(ma));
        assert_eq!(whole.flat_campus(), a.flat_campus());
        for pod in whole.pod_ids() {
            assert_eq!(whole.pod_agg(pod, m), a.pod_agg(pod, ma));
        }
        a.check_consistency().expect("merged tree consistent");
    }

    #[test]
    fn doc_builds_queries_and_round_trips() {
        let mut t = RollupTree::new();
        t.record("relocks", p(0, 1, 4), Nanos(5), 1.0);
        t.record("relocks", p(0, 1, 5), Nanos(6), 1.0);
        t.record("drift_db", p(1, 0, 0), Nanos(7), 0.25);
        t.scrape();
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

        /// Hierarchical totals equal the flat fold whatever the ingest
        /// order, and scraping at arbitrary points never changes them.
        #[test]
        fn rollup_equals_flat_under_any_order(
            samples in proptest::collection::vec(
                (0u32..4, 0u32..6, 0u32..8, 0u64..1000, -500i64..500), 1..80),
            scrape_every in 1usize..10,
        ) {
            let mut t = RollupTree::new();
            let m = t.metric("x");
            let mut reference = Aggregate::EMPTY;
            for (i, &(pod, sw, port, at, v)) in samples.iter().enumerate() {
                t.ingest_micros(m, p(pod, sw, port), Nanos(at), v);
                reference = reference.merge(Aggregate::from_sample(Sample {
                    at: Nanos(at), value_micros: v,
                }));
                if i % scrape_every == 0 {
                    t.scrape();
                }
            }
            prop_assert_eq!(t.flat_campus()[0], reference);
            t.scrape();
            prop_assert_eq!(t.campus_agg(m), reference);
            t.check_consistency().map_err(|e| {
                TestCaseError::fail(format!("inconsistent: {e}"))
            })?;
        }
    }
}
