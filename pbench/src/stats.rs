//! Order statistics: nearest-rank percentiles for latency samples, and the
//! quartiles `compare` uses to judge run-to-run spread.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// 1-based rank of the `p`-th percentile among `n` samples. The slack
/// keeps a product that is whole in exact arithmetic (99.9% of 10,000)
/// from rounding up past it in floating point.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// The highest percentile on the ladder that leaves at least ten samples
/// beyond it, so a reported tail never rests on a handful of outliers.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half: the values left after dropping the lowest
/// and the highest quarter (`n / 4` each, rounded down).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "interquartile mean of no values");
    let middle = &v[n / 4..n - n / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads read the same as in
/// any script that checks them that way. Needs two or more values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ascending(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Ranks round up: the 50th percentile of 5 samples is the 3rd.
        assert_eq!(percentile(&ascending(5), 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ascending(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
    }

    #[test]
    fn interquartile_mean_ignores_the_outer_quarters() {
        assert_eq!(interquartile_mean(&ascending(8)), 4.5);
        // One stall among eight operations does not move it.
        let mut v = ascending(8);
        v[7] = 1e9;
        assert_eq!(interquartile_mean(&v), 4.5);
        // Fewer than four values keep them all.
        assert_eq!(interquartile_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
    }

    #[test]
    fn relative_iqr_scales_with_the_median() {
        let v = ascending(10);
        assert_eq!(median(&v), 5.5);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
        let flat = [4.0; 6];
        assert_eq!(relative_iqr(&flat), 0.0);
    }
}
