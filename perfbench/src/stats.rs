//! Order statistics for the benchmark's timings and error distributions.
//!
//! Percentiles use the nearest-rank rule on a sorted sample. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! above it: fewer than that and the "percentile" is one or two outliers.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `q` (0–100) in a sorted sample of
/// `n > 0` values.
fn rank(n: usize, q: f64) -> usize {
    let r = (q / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Percentile `q` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q)]
}

/// Percentile `q` of `sorted`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn supported_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), q);
    (sorted.len() - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Sorts `values` ascending (total order; NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    percentile(&sorted(values.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 values is the 990th: exactly 10 lie beyond it.
        assert_eq!(supported_percentile(&ramp(1000), 99.0), Some(990.0));
        // p99 of 999 values is the 990th too, but only 9 lie beyond.
        assert_eq!(supported_percentile(&ramp(999), 99.0), None);
        assert_eq!(supported_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(supported_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
