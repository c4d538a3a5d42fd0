//! Order statistics over measured samples.

/// Sorted copy of `xs` (total order, so NaNs cannot scramble it).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs`: the middle sample, or the mean of the middle pair for
/// an even count. NaN when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the exclusive method of
/// Python's `statistics.quantiles(xs, n=4)`, so a spread computed here
/// equals the one recomputed from the raw samples. A single sample is
/// its own three quartiles; an empty slice gives NaNs.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let len = s.len();
    match len {
        0 => [f64::NAN; 3],
        1 => [s[0]; 3],
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            [cut(1), cut(2), cut(3)]
        }
    }
}

/// The nearest-rank `pct`-th percentile of ascending `sorted`, reported
/// only when at least ten samples lie beyond its rank: a tail percentile
/// resting on fewer samples is noise, not a measurement.
pub fn tail(sorted: &[f64], pct: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).clamp(1, n.max(1));
    (n >= rank + 10).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_its_rank() {
        let xs: Vec<f64> = (1..=170).map(f64::from).collect();
        // p90 of 170: rank 153, 17 samples beyond.
        assert_eq!(tail(&xs, 90), Some(153.0));
        // p99 of 170: rank 169, one sample beyond.
        assert_eq!(tail(&xs, 99), None);
        // p99 of 1000: rank 990, exactly ten beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99), Some(990.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 99), None);
        assert_eq!(tail(&[], 50), None);
    }
}
