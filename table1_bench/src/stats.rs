//! Order statistics for latency samples and run-to-run spreads.
//!
//! A tail percentile is reported only when at least ten samples lie beyond
//! it, and nothing but the median is reported from fewer than forty
//! samples: a "p95" of twenty samples is just the largest one.

/// The sample tail percentile each run notes. Every workload repeats a
/// cycle of 20 requests whose latencies cluster by query, so a percentile
/// that cuts the cycle at a whole number of queries (p95 = the slowest
/// one, p90 = the slowest two) falls on the edge between two clusters and
/// jumps with noise; p97.5 falls inside the slowest query's cluster. It
/// resolves from 400 samples, which every workload collects.
pub const TAIL: f64 = 0.975;

/// Fewest samples from which anything beyond the median is reported.
pub const MIN_SAMPLES_FOR_TAIL: usize = 40;
/// Samples that must lie beyond a reported tail percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The `q` percentile, or `None` when the samples cannot resolve it: a
/// tail needs [`MIN_SAMPLES_FOR_TAIL`] samples and
/// [`MIN_SAMPLES_BEYOND`] of them beyond the percentile.
pub fn resolved_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    if q > 0.5 {
        let beyond = (n as f64 * (1.0 - q)).floor() as usize;
        if n < MIN_SAMPLES_FOR_TAIL || beyond < MIN_SAMPLES_BEYOND {
            return None;
        }
    }
    Some(quantile(samples, q))
}

/// The quartiles `(q1, median, q3)` as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method), which is how run-to-run spreads are judged.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    let m = (n + 1) as f64;
    let cut = |i: f64| {
        // Position i*m/4 counted from 1, clamped to the data as Python does.
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1.0), cut(2.0), cut(3.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_is_reported_from_any_sample_count() {
        assert_eq!(resolved_percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(resolved_percentile(&ramp(20), 0.5), Some(10.5));
        assert_eq!(resolved_percentile(&[], 0.5), None);
    }

    #[test]
    fn no_tail_under_forty_samples() {
        // 39 samples put 1.95 beyond p95 and 3.9 beyond p90: neither
        // resolves, and even p75 (9.75 beyond) does not.
        assert_eq!(resolved_percentile(&ramp(39), 0.75), None);
        assert_eq!(resolved_percentile(&ramp(39), 0.95), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p95 resolves from 200 samples (10 beyond), not from 199.
        assert!(resolved_percentile(&ramp(199), 0.95).is_none());
        assert!(resolved_percentile(&ramp(200), 0.95).is_some());
        // p99 resolves from 1000 samples, not from 999.
        assert!(resolved_percentile(&ramp(999), 0.99).is_none());
        let p99 = resolved_percentile(&ramp(1000), 0.99).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9);
        // p75 of 40 samples has exactly 10 beyond.
        assert!(resolved_percentile(&ramp(40), 0.75).is_some());
        // The reported tail resolves from 400 samples, not from 399.
        assert!(resolved_percentile(&ramp(399), TAIL).is_none());
        assert!(resolved_percentile(&ramp(400), TAIL).is_some());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q2, q3) = quartiles_exclusive(&ramp(10));
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q2, q3) = quartiles_exclusive(&[3.0, 1.0, 2.0]);
        assert_eq!((q1, q2, q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q2, q3) = quartiles_exclusive(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12);
        assert!((q2 - 1.5).abs() < 1e-12);
        assert!((q3 - 2.25).abs() < 1e-12);
    }
}
