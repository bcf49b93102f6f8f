//! Log-scale histograms with exactly-mergeable state.
//!
//! Observability distributions in this workspace span many decades — BER
//! from 1e-12 to 2e-4, switch durations from microseconds to seconds — so
//! buckets are logarithmic: one per binary order of magnitude (factor-of-2
//! resolution), indexed straight off the IEEE-754 exponent. That makes
//! `record` a few integer ops (no `log()` call, no allocation) and makes
//! [`LogHistogram::merge`] *exactly* associative and commutative: bucket
//! counts are integer sums and min/max are lattice joins. A histogram
//! deliberately stores no floating-point running sum — the mean is
//! estimated from bucket midpoints — so merging partial histograms in any
//! order yields bit-identical state (property-tested at the workspace
//! root).

use serde::{Deserialize, Serialize};

/// Lowest binary exponent with its own bucket; smaller positive values
/// land in the underflow (first) bucket.
const MIN_EXP: i32 = -128;
/// Highest binary exponent with its own bucket; larger values (including
/// +∞) land in the overflow (last) bucket.
const MAX_EXP: i32 = 127;
/// Bucket count: one per exponent in `MIN_EXP..=MAX_EXP`.
const BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

/// The lower-bound binary exponent of the bucket a positive finite
/// sample lands in, clamped into `MIN_EXP..=MAX_EXP`. Shared with
/// [`crate::exemplar::ExemplarHistogram`], whose per-bucket exemplars
/// must key on exactly the same bucketing as the counts.
pub(crate) fn bucket_exponent(v: f64) -> i16 {
    let exp = ((v.to_bits() >> 52) & 0x7ff) as i32 - 1023;
    exp.clamp(MIN_EXP, MAX_EXP) as i16
}

/// A log₂-bucketed histogram of positive samples.
///
/// Zero, negative, and NaN samples are counted in `nonfinite` rather than
/// silently dropped — a BER of exactly 0.0 or a negative "duration" is a
/// modeling bug worth surfacing, not averaging away.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// `buckets[i]` counts samples with `floor(log2(v)) == MIN_EXP + i`,
    /// clamped at both ends.
    buckets: Vec<u64>,
    /// Total positive finite (bucketed) samples.
    count: u64,
    /// Zero, negative, or NaN samples (not bucketed).
    nonfinite: u64,
    /// Smallest bucketed sample, if any.
    min: Option<f64>,
    /// Largest bucketed sample, if any.
    max: Option<f64>,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram. This is the only allocation the histogram ever
    /// performs; recording is allocation-free.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            nonfinite: 0,
            min: None,
            max: None,
        }
    }

    /// Bucket index of a positive finite sample, straight off the IEEE-754
    /// exponent field (subnormals read as exponent −1023 and clamp into
    /// the underflow bucket).
    fn bucket_index(v: f64) -> usize {
        (bucket_exponent(v) as i32 - MIN_EXP) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if v > 0.0 && v.is_finite() {
            self.buckets[Self::bucket_index(v)] += 1;
            self.count += 1;
            self.min = Some(match self.min {
                Some(m) if m <= v => m,
                _ => v,
            });
            self.max = Some(match self.max {
                Some(m) if m >= v => m,
                _ => v,
            });
        } else {
            self.nonfinite += 1;
        }
    }

    /// Bucketed (positive finite) sample count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Zero/negative/NaN sample count.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Smallest bucketed sample.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest bucketed sample.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Folds another histogram into this one.
    ///
    /// Merging is exactly associative and commutative: integer bucket
    /// sums plus min/max joins, no float accumulation. Fleet roll-ups may
    /// therefore combine per-switch histograms in any order and obtain
    /// identical state.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.nonfinite += other.nonfinite;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The value below which a fraction `q` (in `[0, 1]`) of bucketed
    /// samples fall, estimated at the geometric midpoint of the bucket
    /// containing the quantile (exact min/max are used for q at the
    /// extremes). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let exp = self.quantile_bucket(q)?;
        // Geometric midpoint of [2^exp, 2^(exp+1)): 2^(exp+0.5), clamped
        // into the observed range so estimates never leave [min, max].
        let mid = (exp as f64 + 0.5).exp2();
        Some(mid.clamp(self.min.expect("count > 0"), self.max.expect("count > 0")))
    }

    /// The lower-bound binary exponent of the bucket containing quantile
    /// `q` — the key an [`ExemplarHistogram`](crate::ExemplarHistogram)
    /// uses to look up that bucket's retained exemplars. `None` when
    /// empty.
    pub fn quantile_bucket(&self, q: f64) -> Option<i16> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min.map(bucket_exponent);
        }
        if q >= 1.0 {
            return self.max.map(bucket_exponent);
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(MIN_EXP as i16 + i as i16);
            }
        }
        self.max.map(bucket_exponent)
    }

    /// Geometric-midpoint estimate of the mean of bucketed samples.
    pub fn mean_estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mut acc = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let exp = MIN_EXP + i as i32;
                acc += c as f64 * (exp as f64 + 0.5).exp2();
            }
        }
        Some(acc / self.count as f64)
    }

    /// Sparse export snapshot: only non-empty buckets, keyed by the
    /// bucket's lower-bound binary exponent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            nonfinite: self.nonfinite,
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (MIN_EXP as i16 + i as i16, c))
                .collect(),
        }
    }
}

/// Sparse, serializable view of a [`LogHistogram`].
///
/// `buckets` holds `(exp, count)` pairs in ascending `exp` order: `count`
/// samples fell in `[2^exp, 2^(exp+1))`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total bucketed samples.
    pub count: u64,
    /// Zero/negative/NaN samples.
    pub nonfinite: u64,
    /// Smallest bucketed sample.
    pub min: Option<f64>,
    /// Largest bucketed sample.
    pub max: Option<f64>,
    /// Non-empty buckets as `(lower-bound exponent, count)`.
    pub buckets: Vec<(i16, u64)>,
}

impl HistogramSnapshot {
    /// Rebuilds a dense histogram from the snapshot (for merge-after-load).
    ///
    /// A snapshot is a document from outside the program, so it is checked
    /// rather than trusted: `None` for an exponent outside `−128..=127`,
    /// exponents not strictly ascending (so none repeats), a listed bucket
    /// that is empty, bucket counts that do not sum to `count`, or a
    /// `min`/`max` pair that is not a positive finite ordered range whose
    /// ends lie in the first and last listed buckets (both absent exactly
    /// when no bucket is listed).
    pub fn restore(&self) -> Option<LogHistogram> {
        if !self.buckets.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        let mut h = LogHistogram::new();
        let mut sum = 0u64;
        for &(exp, c) in &self.buckets {
            let i = usize::try_from(exp as i32 - MIN_EXP).ok()?;
            *h.buckets.get_mut(i)? = c;
            sum = sum.checked_add(c)?;
            if c == 0 {
                return None;
            }
        }
        let ends = self.buckets.first().zip(self.buckets.last());
        let range_ok = match (self.min, self.max, ends) {
            (None, None, None) => true,
            (Some(lo), Some(hi), Some((&(first, _), &(last, _)))) => {
                0.0 < lo
                    && lo <= hi
                    && hi.is_finite()
                    && bucket_exponent(lo) == first
                    && bucket_exponent(hi) == last
            }
            _ => false,
        };
        if sum != self.count || !range_ok {
            return None;
        }
        h.count = self.count;
        h.nonfinite = self.nonfinite;
        h.min = self.min;
        h.max = self.max;
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_by_binary_exponent() {
        let mut h = LogHistogram::new();
        for v in [1.0, 1.5, 1.99, 2.0, 3.9, 4.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(0, 3), (1, 2), (2, 1)]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
    }

    #[test]
    fn nonpositive_and_nan_are_counted_not_bucketed() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(1e-9);
        assert_eq!(h.nonfinite(), 3);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn extreme_values_clamp_into_edge_buckets() {
        let mut h = LogHistogram::new();
        h.record(f64::MIN_POSITIVE / 4.0); // subnormal → underflow bucket
        h.record(1e300);
        h.record(f64::INFINITY); // not finite → nonfinite
        let snap = h.snapshot();
        assert_eq!(snap.buckets.first().unwrap().0, MIN_EXP as i16);
        assert_eq!(snap.buckets.last().unwrap().0, MAX_EXP as i16);
        assert_eq!(h.nonfinite(), 1);
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for (i, v) in [0.003, 2.5e-4, 7.0, 1024.0, 0.11].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            whole.record(*v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        assert_eq!(ab, whole, "merge must equal single-stream recording");
    }

    #[test]
    fn quantiles_bracket_the_distribution() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u32 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((256.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= p50, "p99 {p99} ≥ p50 {p50}");
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        // Factor-of-2 buckets: estimates are within 2× of truth.
        assert!((p50 / 500.0) < 2.0 && (500.0 / p50) < 2.0);
    }

    #[test]
    fn snapshot_roundtrips() {
        let mut h = LogHistogram::new();
        for v in [1e-6, 3e-6, 0.5, 0.0, 42.0] {
            h.record(v);
        }
        assert_eq!(h.snapshot().restore(), Some(h));
    }

    #[test]
    fn mean_estimate_is_order_of_magnitude_right() {
        let mut h = LogHistogram::new();
        for _ in 0..100 {
            h.record(8.0);
        }
        let m = h.mean_estimate().unwrap();
        assert!(
            (8.0..16.0).contains(&m),
            "mean estimate {m} in bucket [8,16)"
        );
    }
}
