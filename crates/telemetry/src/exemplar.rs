//! Exemplar-carrying histograms: every bucket remembers *which request*
//! produced its smallest and largest sample.
//!
//! An aggregate histogram answers "how bad is the tail?"; an exemplar
//! answers "show me one". Each bucket of an [`ExemplarHistogram`]
//! retains a min and a max [`Exemplar`] — the sample value plus the
//! request index and trace span id that produced it — so any tail
//! bucket links directly to the full Perfetto trace of a concrete
//! request.
//!
//! Exemplar selection is a lattice join over a total order, which keeps
//! the histogram's merge exactly associative and commutative like
//! [`LogHistogram`]'s: the min exemplar is the lexicographic minimum of
//! `(value, request)`, the max exemplar the lexicographic maximum of
//! `(value, −request)`. Ties on value therefore break **to the smaller
//! request index** on both ends — a pure, order-free rule, so sharded
//! runs pick the same exemplars whatever order cells merge in
//! (DESIGN §6.7).

use crate::histogram::{bucket_exponent, HistogramSnapshot, LogHistogram};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One retained sample: the value plus the identity needed to find its
/// full trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exemplar {
    /// The recorded sample value.
    pub value: f64,
    /// Request index in the arrival stream.
    pub request: u64,
    /// Trace span id of the request's root scope span (`0` = none).
    pub span: u64,
}

impl Exemplar {
    /// Whether `self` beats `other` as the bucket's **min** exemplar:
    /// smaller value, ties to the smaller request index.
    fn wins_min(&self, other: &Exemplar) -> bool {
        (self.value, self.request) < (other.value, other.request)
    }

    /// Whether `self` beats `other` as the bucket's **max** exemplar:
    /// larger value, ties to the smaller request index.
    fn wins_max(&self, other: &Exemplar) -> bool {
        self.value > other.value || (self.value == other.value && self.request < other.request)
    }
}

/// The two exemplars one bucket retains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct BucketExemplars {
    /// The bucket's smallest sample.
    pub min: Exemplar,
    /// The bucket's largest sample.
    pub max: Exemplar,
}

impl BucketExemplars {
    /// Joins `e` in; returns whether `e` is now one of the retained
    /// exemplars.
    fn join(&mut self, e: Exemplar) -> bool {
        let mut kept = false;
        if e.wins_min(&self.min) {
            self.min = e;
            kept = true;
        }
        if e.wins_max(&self.max) {
            self.max = e;
            kept = true;
        }
        kept || e == self.min || e == self.max
    }
}

/// A [`LogHistogram`] whose buckets also retain min/max [`Exemplar`]s.
///
/// Zero/negative/NaN samples land in the base histogram's `nonfinite`
/// count and retain no exemplar, exactly like [`LogHistogram::record`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExemplarHistogram {
    hist: LogHistogram,
    /// Per-bucket exemplars, keyed by the bucket's lower-bound binary
    /// exponent. Sparse: only buckets with at least one sample.
    exemplars: BTreeMap<i16, BucketExemplars>,
}

impl ExemplarHistogram {
    /// An empty histogram.
    pub fn new() -> ExemplarHistogram {
        ExemplarHistogram::default()
    }

    /// Records one sample with its identity. Returns whether the sample
    /// is now one of its bucket's retained exemplars (callers use this
    /// to decide which full per-request timelines are worth keeping).
    pub fn record(&mut self, value: f64, request: u64, span: u64) -> bool {
        self.hist.record(value);
        if !(value > 0.0 && value.is_finite()) {
            return false;
        }
        let e = Exemplar {
            value,
            request,
            span,
        };
        match self.exemplars.entry(bucket_exponent(value)) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(BucketExemplars { min: e, max: e });
                true
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => slot.get_mut().join(e),
        }
    }

    /// The underlying count histogram.
    pub fn hist(&self) -> &LogHistogram {
        &self.hist
    }

    /// Bucketed sample count.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Quantile estimate (see [`LogHistogram::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q)
    }

    /// The **max** exemplar of the bucket containing quantile `q` — the
    /// concrete request a tail report should name. `None` when empty.
    pub fn quantile_exemplar(&self, q: f64) -> Option<Exemplar> {
        let exp = self.hist.quantile_bucket(q)?;
        self.exemplars.get(&exp).map(|b| b.max)
    }

    /// Every retained exemplar's request index, in ascending bucket
    /// order (min then max per bucket) — the retention set for
    /// exemplar-linked timeline GC.
    pub fn exemplar_requests(&self, out: &mut std::collections::BTreeSet<u64>) {
        for b in self.exemplars.values() {
            out.insert(b.min.request);
            out.insert(b.max.request);
        }
    }

    /// Every retained exemplar's span id (nonzero only), for trace
    /// annotation.
    pub fn exemplar_spans(&self, out: &mut std::collections::BTreeSet<u64>) {
        for b in self.exemplars.values() {
            for e in [b.min, b.max] {
                if e.span != 0 {
                    out.insert(e.span);
                }
            }
        }
    }

    /// Folds another histogram in. Exactly associative and commutative:
    /// integer count sums plus per-bucket exemplar joins over a total
    /// order.
    pub fn merge(&mut self, other: &ExemplarHistogram) {
        self.hist.merge(&other.hist);
        for (&exp, theirs) in &other.exemplars {
            match self.exemplars.entry(exp) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(*theirs);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let b = slot.get_mut();
                    if theirs.min.wins_min(&b.min) {
                        b.min = theirs.min;
                    }
                    if theirs.max.wins_max(&b.max) {
                        b.max = theirs.max;
                    }
                }
            }
        }
    }

    /// Sparse serializable view.
    pub fn snapshot(&self) -> ExemplarSnapshot {
        ExemplarSnapshot {
            counts: self.hist.snapshot(),
            exemplars: self
                .exemplars
                .iter()
                .map(|(&exp, &b)| ExemplarBucket {
                    exp,
                    min: b.min,
                    max: b.max,
                })
                .collect(),
        }
    }
}

/// One bucket's exemplars in an [`ExemplarSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExemplarBucket {
    /// The bucket's lower-bound binary exponent.
    pub exp: i16,
    /// See `BucketExemplars::min`.
    pub min: Exemplar,
    /// See `BucketExemplars::max`.
    pub max: Exemplar,
}

/// Sparse, serializable view of an [`ExemplarHistogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExemplarSnapshot {
    /// The count histogram.
    pub counts: HistogramSnapshot,
    /// Per-bucket exemplars, ascending by `exp`. Same bucket keys as
    /// `counts.buckets`.
    pub exemplars: Vec<ExemplarBucket>,
}

impl ExemplarSnapshot {
    /// Rebuilds the dense histogram (for merge-after-load). `None` when
    /// [`HistogramSnapshot::restore`] refuses the counts or the exemplars
    /// do not key exactly the buckets the counts list.
    pub fn restore(&self) -> Option<ExemplarHistogram> {
        let keys = self.counts.buckets.iter().map(|&(exp, _)| exp);
        if !self.exemplars.iter().map(|b| b.exp).eq(keys) {
            return None;
        }
        Some(ExemplarHistogram {
            hist: self.counts.restore()?,
            exemplars: self
                .exemplars
                .iter()
                .map(|b| {
                    (
                        b.exp,
                        BucketExemplars {
                            min: b.min,
                            max: b.max,
                        },
                    )
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(v: f64, r: u64) -> (f64, u64, u64) {
        (v, r, r.wrapping_mul(31))
    }

    #[test]
    fn buckets_retain_min_and_max_exemplars() {
        let mut h = ExemplarHistogram::new();
        for (v, r, s) in [ex(1.5, 10), ex(1.1, 11), ex(1.9, 12), ex(5.0, 13)] {
            h.record(v, r, s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.exemplars.len(), 2, "two buckets: [1,2) and [4,8)");
        let b0 = &snap.exemplars[0];
        assert_eq!((b0.min.value, b0.min.request), (1.1, 11));
        assert_eq!((b0.max.value, b0.max.request), (1.9, 12));
        let b1 = &snap.exemplars[1];
        assert_eq!(b1.min.request, 13);
        assert_eq!(b1.max.request, 13);
    }

    #[test]
    fn value_ties_break_to_the_smaller_request() {
        // Both ends of the bucket: equal values keep the smaller index,
        // in either arrival order.
        for order in [[7u64, 3u64], [3, 7]] {
            let mut h = ExemplarHistogram::new();
            for r in order {
                h.record(2.5, r, 0);
            }
            let b = &h.snapshot().exemplars[0];
            assert_eq!(b.min.request, 3);
            assert_eq!(b.max.request, 3);
        }
    }

    #[test]
    fn merge_is_order_invariant_and_matches_single_stream() {
        let samples = [
            ex(0.002, 1),
            ex(3.0, 2),
            ex(3.0, 0),
            ex(900.0, 3),
            ex(2.2, 4),
            ex(0.0015, 5),
        ];
        let mut whole = ExemplarHistogram::new();
        let mut a = ExemplarHistogram::new();
        let mut b = ExemplarHistogram::new();
        for (i, &(v, r, s)) in samples.iter().enumerate() {
            whole.record(v, r, s);
            if i % 2 == 0 {
                a.record(v, r, s);
            } else {
                b.record(v, r, s);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab, whole, "merge equals single-stream recording");
    }

    #[test]
    fn quantile_exemplar_names_the_tail_bucket_representative() {
        let mut h = ExemplarHistogram::new();
        for i in 0..100u64 {
            h.record(1.0 + (i as f64) / 200.0, i, i + 1);
        }
        h.record(1000.0, 777, 778);
        let e = h.quantile_exemplar(0.999).expect("nonempty");
        assert_eq!(e.request, 777, "p99.9 lands in the outlier's bucket");
        assert!(h.quantile_exemplar(0.5).is_some());
        assert_eq!(ExemplarHistogram::new().quantile_exemplar(0.5), None);
    }

    #[test]
    fn record_reports_exemplar_status() {
        let mut h = ExemplarHistogram::new();
        assert!(h.record(4.0, 1, 0), "first sample is both exemplars");
        assert!(h.record(7.9, 2, 0), "new bucket max");
        assert!(!h.record(5.0, 3, 0), "mid-bucket sample is not retained");
        assert!(!h.record(0.0, 4, 0), "nonfinite samples never retained");
        assert_eq!(h.hist().nonfinite(), 1);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut h = ExemplarHistogram::new();
        for (v, r, s) in [ex(0.25, 9), ex(1e6, 2), ex(3.3, 4)] {
            h.record(v, r, s);
        }
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).expect("serializes");
        let back: ExemplarSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.restore(), Some(h));
    }

    #[test]
    fn retention_sets_cover_all_buckets() {
        let mut h = ExemplarHistogram::new();
        h.record(1.0, 10, 100);
        h.record(64.0, 20, 0);
        let mut reqs = std::collections::BTreeSet::new();
        let mut spans = std::collections::BTreeSet::new();
        h.exemplar_requests(&mut reqs);
        h.exemplar_spans(&mut spans);
        assert_eq!(reqs.into_iter().collect::<Vec<_>>(), vec![10, 20]);
        assert_eq!(spans.into_iter().collect::<Vec<_>>(), vec![100]);
    }
}
