//! Order statistics for rep samples and span durations.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
/// spread computed here equals the one the driver computes. A single
/// sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a percentage of the median.
pub fn spread_pct(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs() * 100.0
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(ascending: &[u64], q: f64) -> u64 {
    assert!(!ascending.is_empty(), "percentile of nothing");
    let rank = (q * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile
/// `q`.
pub fn supported(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= MIN_BEYOND as f64
}

/// Percentile `q`, or — when fewer than [`MIN_BEYOND`] samples lie beyond
/// it — the highest of p99, p90 and the median that has that support.
/// Returns the value and the percentile actually used.
pub fn supported_percentile(ascending: &[u64], q: f64) -> (u64, f64) {
    let used = [q, 0.99, 0.9]
        .into_iter()
        .find(|&p| p <= q && supported(ascending.len(), p))
        .unwrap_or(0.5);
    (percentile(ascending, used), used)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_pct(&v) - 100.0).abs() < 1e-9);
        assert_eq!(spread_pct(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supported(1_000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(10_000, 0.999));
        assert!(!supported(9_000, 0.999));
        // 5 000 samples: p999 has 5 beyond, p99 has 50 — p99 is reported.
        let v: Vec<u64> = (1..=5_000).collect();
        assert_eq!(supported_percentile(&v, 0.999), (4_950, 0.99));
        // 150 samples: only p90 has 10 beyond.
        let v: Vec<u64> = (1..=150).collect();
        assert_eq!(supported_percentile(&v, 0.999), (135, 0.9));
        // 12 samples: nothing but the median.
        let v: Vec<u64> = (1..=12).collect();
        assert_eq!(supported_percentile(&v, 0.99), (6, 0.5));
        // Enough samples: the request is honoured.
        let v: Vec<u64> = (1..=20_000).collect();
        assert_eq!(supported_percentile(&v, 0.999), (19_980, 0.999));
    }
}
