//! Routing-run statistics shared by all engines and algorithms.

use routing_core::PacketId;
use std::collections::BTreeMap;

/// Discrete simulation time (a step count).
pub type Time = u64;

/// Per-run statistics: injection/delivery times per packet, deflection and
/// deviation counts, and named counters algorithms use for their own
/// bookkeeping (e.g. invariant-violation counts).
#[derive(Clone, Debug)]
pub struct RouteStats {
    /// Step at which each packet was injected (`None` = never injected).
    pub injected_at: Vec<Option<Time>>,
    /// Step at which each packet arrived at its destination.
    pub delivered_at: Vec<Option<Time>>,
    /// Number of deflections each packet suffered.
    pub deflections: Vec<u32>,
    /// Maximum deviation-stack depth each packet reached: how far (in
    /// moves-to-undo) it ever was from its preselected path.
    pub max_deviation: Vec<u32>,
    /// Total number of steps the simulation ran.
    pub steps_run: Time,
    /// Named counters (algorithm-specific: fallback deflections, invariant
    /// violations, excitations, ...).
    pub counters: BTreeMap<&'static str, u64>,
}

impl serde::Serialize for RouteStats {
    fn to_json(&self) -> serde::Value {
        serde::Value::object([
            ("injected_at", self.injected_at.to_json()),
            ("delivered_at", self.delivered_at.to_json()),
            ("deflections", self.deflections.to_json()),
            ("max_deviation", self.max_deviation.to_json()),
            ("steps_run", self.steps_run.to_json()),
            ("counters", self.counters.to_json()),
        ])
    }
}

impl RouteStats {
    /// Empty statistics for `n` packets.
    pub fn new(n: usize) -> Self {
        RouteStats {
            injected_at: vec![None; n],
            delivered_at: vec![None; n],
            deflections: vec![0; n],
            max_deviation: vec![0; n],
            steps_run: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Number of packets in the run.
    pub fn num_packets(&self) -> usize {
        self.delivered_at.len()
    }

    /// Number of delivered packets.
    pub fn delivered_count(&self) -> usize {
        self.delivered_at.iter().filter(|d| d.is_some()).count()
    }

    /// Whether every packet reached its destination.
    pub fn all_delivered(&self) -> bool {
        self.delivered_at.iter().all(std::option::Option::is_some)
    }

    /// The step at which the last packet was delivered (the routing time
    /// the paper's Theorem 2.6 bounds), or `None` if nothing was delivered.
    pub fn makespan(&self) -> Option<Time> {
        self.delivered_at.iter().flatten().copied().max()
    }

    /// Mean in-flight latency (delivery minus injection) over delivered
    /// packets.
    pub fn mean_latency(&self) -> f64 {
        let mut sum = 0u64;
        let mut n = 0u64;
        for (inj, del) in self.injected_at.iter().zip(&self.delivered_at) {
            if let (Some(i), Some(d)) = (inj, del) {
                sum += d - i;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Total deflections across all packets.
    pub fn total_deflections(&self) -> u64 {
        self.deflections.iter().map(|&d| d as u64).sum()
    }

    /// The largest deviation-stack depth any packet ever reached.
    pub fn max_deviation_overall(&self) -> u32 {
        self.max_deviation.iter().copied().max().unwrap_or(0)
    }

    /// Increments a named counter.
    pub fn bump(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Adds `by` to a named counter.
    pub fn bump_by(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Reads a named counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Packets that were never delivered.
    pub fn undelivered(&self) -> Vec<PacketId> {
        self.delivered_at
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| PacketId(i as u32))
            .collect()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "delivered {}/{} in {} steps (makespan {:?}, mean latency {:.1}, \
             {} deflections, max deviation {})",
            self.delivered_count(),
            self.num_packets(),
            self.steps_run,
            self.makespan(),
            self.mean_latency(),
            self.total_deflections(),
            self.max_deviation_overall(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stats_are_empty() {
        let s = RouteStats::new(3);
        assert_eq!(s.num_packets(), 3);
        assert_eq!(s.delivered_count(), 0);
        assert!(!s.all_delivered());
        assert_eq!(s.makespan(), None);
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.total_deflections(), 0);
        assert_eq!(s.undelivered().len(), 3);
    }

    #[test]
    fn makespan_and_latency() {
        let mut s = RouteStats::new(2);
        s.injected_at = vec![Some(0), Some(4)];
        s.delivered_at = vec![Some(10), Some(6)];
        assert!(s.all_delivered());
        assert_eq!(s.makespan(), Some(10));
        assert_eq!(s.mean_latency(), 6.0); // (10 + 2) / 2
        assert!(s.undelivered().is_empty());
    }

    #[test]
    fn partial_delivery() {
        let mut s = RouteStats::new(2);
        s.injected_at = vec![Some(0), Some(0)];
        s.delivered_at = vec![Some(5), None];
        assert_eq!(s.delivered_count(), 1);
        assert!(!s.all_delivered());
        assert_eq!(s.undelivered(), vec![PacketId(1)]);
        assert_eq!(s.mean_latency(), 5.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = RouteStats::new(0);
        s.bump("fallback");
        s.bump("fallback");
        s.bump_by("isolation_violations", 5);
        assert_eq!(s.counter("fallback"), 2);
        assert_eq!(s.counter("isolation_violations"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn summary_mentions_delivery_fraction() {
        let mut s = RouteStats::new(2);
        s.delivered_at = vec![Some(3), None];
        assert!(s.summary().contains("delivered 1/2"));
    }
}
