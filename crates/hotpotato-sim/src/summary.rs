//! Distribution summaries (mean/std/percentiles) for run metrics.

/// Nearest-rank `q`-quantile of an ascending-sorted sample: the element
/// at 1-based rank `ceil(q·n)`, clamped into `1..=n` (`None` when the
/// sample is empty). Every percentile the workspace reports — route
/// summaries, trace analytics, fleet samples, `/metrics` windows — uses
/// this one definition.
///
/// ```
/// use hotpotato_sim::nearest_rank;
///
/// assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.5), Some(2));
/// assert_eq!(nearest_rank(&[1, 2, 3, 4], 0.99), Some(4));
/// assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
/// ```
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

/// A five-number-plus summary of a sample: count, mean, standard
/// deviation, min/max, and the 50th/90th/99th percentiles
/// (nearest-rank on the sorted sample).
///
/// ```
/// use hotpotato_sim::Summary;
///
/// let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.count, 4);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.p50, 2.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl serde::Serialize for Summary {
    fn to_json(&self) -> serde::Value {
        serde::Value::object([
            ("count", self.count.to_json()),
            ("mean", self.mean.to_json()),
            ("std", self.std.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
            ("p50", self.p50.to_json()),
            ("p90", self.p90.to_json()),
            ("p99", self.p99.to_json()),
        ])
    }
}

impl Summary {
    /// Summarizes a sample (empty samples yield the zero summary).
    pub fn of(sample: &[f64]) -> Summary {
        if sample.is_empty() {
            return Summary::default();
        }
        let mut sorted: Vec<f64> = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in metrics"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let pct = |q: f64| nearest_rank(&sorted, q).unwrap_or(0.0);
        Summary {
            count: n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        }
    }

    /// Summarizes an integer sample.
    pub fn of_u32(sample: &[u32]) -> Summary {
        let v: Vec<f64> = sample.iter().map(|&x| x as f64).collect();
        Summary::of(&v)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.2}±{:.2} min={} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.std, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

impl crate::stats::RouteStats {
    /// Summary of per-packet in-flight latencies (delivered packets only).
    pub fn latency_summary(&self) -> Summary {
        let sample: Vec<f64> = self
            .injected_at
            .iter()
            .zip(&self.delivered_at)
            .filter_map(|(i, d)| match (i, d) {
                (Some(i), Some(d)) => Some((d - i) as f64),
                _ => None,
            })
            .collect();
        Summary::of(&sample)
    }

    /// Summary of per-packet deflection counts.
    pub fn deflection_summary(&self) -> Summary {
        Summary::of_u32(&self.deflections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RouteStats;

    #[test]
    fn empty_sample_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn single_element() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(
            (s.min, s.p50, s.p90, s.p99, s.max),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    fn known_percentiles() {
        let sample: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = Summary::of(&sample);
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, 50.5);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn std_of_constant_sample_is_zero() {
        let s = Summary::of(&[4.0; 10]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    fn integer_helpers_match() {
        assert_eq!(Summary::of_u32(&[1, 2, 3]), Summary::of(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn route_stats_summaries() {
        let mut s = RouteStats::new(3);
        s.injected_at = vec![Some(0), Some(2), None];
        s.delivered_at = vec![Some(10), Some(4), None];
        s.deflections = vec![0, 4, 2];
        let lat = s.latency_summary();
        assert_eq!(lat.count, 2);
        assert_eq!(lat.mean, 6.0);
        let defl = s.deflection_summary();
        assert_eq!(defl.count, 3);
        assert_eq!(defl.max, 4.0);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of(&[1.0, 2.0]);
        let txt = format!("{s}");
        assert!(txt.contains("n=2"));
        assert!(txt.contains("mean=1.50"));
    }
}
