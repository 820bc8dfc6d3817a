//! Order statistics for pooled timing samples.

/// Median of unsorted samples: the middle value, or the mean of the two
/// middle values when the count is even. `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in percent) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    service::percentile(&mut samples.to_vec(), q)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_PERCENTILES: [u32; 4] = [99, 95, 90, 75];

/// The highest reporting percentile that still has at least ten of `n`
/// samples beyond it (45 samples → p75, 200 → p95); `None` below 40
/// samples, where no tail is supported.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&q| n * (100 - q as usize) >= 10 * 100)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so spreads printed here match the ones the benchmark contract
/// is checked with. Fewer than two values have no spread: all three are
/// the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// values).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if values.len() < 2 || med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(45), Some(75));
        assert_eq!(highest_supported_percentile(90), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(199), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(999), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(4000), Some(99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 75.0), 75.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
    }
}
