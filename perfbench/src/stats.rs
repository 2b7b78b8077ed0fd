//! Order statistics with the benchmark's reporting rule.

/// Samples that must lie beyond a reported tail percentile, so that the
/// percentile is set by more than a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `sorted`, which must be
/// sorted ascending and non-empty: the smallest sample with at least
/// `p · n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Percentile `p` of `sorted`, or `None` unless at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank (for p99 that
/// needs at least 1000 samples).
pub fn tail(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (any order; `0.0` when empty, which the per-layer
/// table reads as "layer idle").
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(999), 0.99), None);
        assert_eq!(tail(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail(&ramp(2000), 0.99), Some(1980.0));
        assert_eq!(tail(&[], 0.99), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(nearest_rank(&ramp(100), 0.5), 50.0);
    }
}
