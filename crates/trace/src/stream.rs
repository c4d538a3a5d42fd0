//! Bounded streaming aggregation of a live event stream.
//!
//! [`StreamingAggregator`] is a [`RouteObserver`] that maintains rolling
//! per-phase (or, for phase-less routers, per-step-range) aggregates
//! under a **hard memory cap**: it never holds more than `cap` buckets,
//! no matter how long the run is. When a run produces more keys than
//! `cap`, adjacent buckets are merged pairwise and the bucket *scale*
//! doubles — coverage stays total, only the resolution degrades, and
//! memory stays `O(cap)`.
//!
//! Within a bucket the aggregates are exact sums, so however many merges
//! happen, bucket totals always sum to the run totals — the invariant
//! the bounded-memory tests pin down against full-trace analysis.

use hotpotato_sim::{ExitKind, RouteObserver, StepReport, Time};
use leveled_net::ids::DirectedEdge;
use serde::Value;
use serde_json::json;

/// Exact aggregates over a contiguous key range.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bucket {
    /// First key covered (inclusive).
    pub key_lo: u64,
    /// Last key covered (inclusive).
    pub key_hi: u64,
    /// Steps completed.
    pub steps: u64,
    /// Moves staged (injections included).
    pub moved: u64,
    /// Packets absorbed.
    pub absorbed: u64,
    /// Packets injected.
    pub injected: u64,
    /// Deflections (safe + fallback).
    pub deflections: u64,
    /// Fallback deflections.
    pub fallback: u64,
    /// Oscillation moves.
    pub oscillations: u64,
    /// Peak in-flight count observed at any step end in the range.
    pub max_active: u64,
}

impl Bucket {
    fn absorb(&mut self, other: &Bucket) {
        self.key_hi = self.key_hi.max(other.key_hi);
        self.key_lo = self.key_lo.min(other.key_lo);
        self.steps += other.steps;
        self.moved += other.moved;
        self.absorbed += other.absorbed;
        self.injected += other.injected;
        self.deflections += other.deflections;
        self.fallback += other.fallback;
        self.oscillations += other.oscillations;
        self.max_active = self.max_active.max(other.max_active);
    }
}

/// A memory-bounded rolling aggregator (see the module docs).
///
/// The bucket key is the *phase* once any phase event has been seen, and
/// the *step* otherwise — phased routers (busch) aggregate per phase,
/// phase-less routers (greedy, baselines) per step range.
pub struct StreamingAggregator {
    cap: usize,
    /// Keys per bucket; doubles on every merge sweep.
    scale: u64,
    buckets: Vec<Bucket>,
    /// Current phase, once a phase event has been seen.
    phase: Option<u64>,
    phased: bool,
    /// Run totals (for the invariant check and the report header).
    total: Bucket,
    merges: u64,
}

impl StreamingAggregator {
    /// Creates an aggregator holding at most `cap` buckets (min 2).
    pub fn new(cap: usize) -> Self {
        StreamingAggregator {
            cap: cap.max(2),
            scale: 1,
            buckets: Vec::new(),
            phase: None,
            phased: false,
            total: Bucket::default(),
            merges: 0,
        }
    }

    /// The hard bucket cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Keys (phases or steps) per bucket after any merges.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// How many pairwise merge sweeps have run.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// The current buckets (always `<= cap`).
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Exact run totals (independent of bucket resolution).
    pub fn totals(&self) -> &Bucket {
        &self.total
    }

    /// What the bucket key means: `"phase"` once any phase event has
    /// been observed, `"step"` otherwise. Matches the `keyed_by` field
    /// of [`StreamingAggregator::to_json`].
    pub fn keyed_by(&self) -> &'static str {
        if self.phased {
            "phase"
        } else {
            "step"
        }
    }

    /// Merges adjacent bucket pairs in place and doubles the scale:
    /// halves the bucket count, preserves all sums.
    fn merge_sweep(&mut self) {
        let mut w = 0;
        for r in (0..self.buckets.len()).step_by(2) {
            let mut merged = self.buckets[r];
            if let Some(next) = self.buckets.get(r + 1) {
                merged.absorb(&next.clone());
            }
            self.buckets[w] = merged;
            w += 1;
        }
        self.buckets.truncate(w);
        self.scale *= 2;
        self.merges += 1;
    }

    /// The bucket owning `key`, appending (and, at the cap, merging)
    /// as needed. Keys are monotone, so only the last bucket ever grows.
    fn bucket_mut(&mut self, key: u64) -> &mut Bucket {
        let slot = key / self.scale;
        let needs_new = match self.buckets.last() {
            Some(last) => last.key_hi / self.scale != slot,
            None => true,
        };
        if needs_new {
            if self.buckets.len() == self.cap {
                self.merge_sweep();
                // The doubled scale may fold `key` into the (new) last
                // bucket; recheck before appending.
                return self.bucket_mut(key);
            }
            self.buckets.push(Bucket {
                key_lo: key,
                key_hi: key,
                ..Bucket::default()
            });
        }
        let last = self.buckets.last_mut().expect("bucket exists");
        last.key_hi = last.key_hi.max(key);
        last
    }

    /// Current bucket key for the step that just ended.
    fn key_for(&self, t: Time) -> u64 {
        if self.phased {
            self.phase.unwrap_or(0)
        } else {
            t
        }
    }

    /// Renders the aggregation as a JSON report.
    pub fn to_json(&self) -> Value {
        report_json(
            self.keyed_by(),
            self.cap,
            self.scale,
            self.merges,
            &self.total,
            &self.buckets,
        )
    }
}

/// Renders an aggregation report from its parts — the single source of
/// the report shape. [`StreamingAggregator::to_json`] calls this over
/// its own state, and `hotpotato serve` calls it over a published
/// snapshot of that state, so a quiesced `/rollup` snapshot compares
/// *exactly* equal to the in-process report.
pub fn report_json(
    keyed_by: &str,
    cap: usize,
    scale: u64,
    merges: u64,
    totals: &Bucket,
    buckets: &[Bucket],
) -> Value {
    let rows: Vec<Value> = buckets
        .iter()
        .map(|b| {
            json!({
                "key_lo": b.key_lo,
                "key_hi": b.key_hi,
                "steps": b.steps,
                "moved": b.moved,
                "absorbed": b.absorbed,
                "injected": b.injected,
                "deflections": b.deflections,
                "fallback": b.fallback,
                "oscillations": b.oscillations,
                "max_active": b.max_active,
            })
        })
        .collect();
    json!({
        "keyed_by": keyed_by,
        "cap": cap as u64,
        "scale": scale,
        "merges": merges,
        "totals": json!({
            "steps": totals.steps,
            "moved": totals.moved,
            "absorbed": totals.absorbed,
            "injected": totals.injected,
            "deflections": totals.deflections,
            "fallback": totals.fallback,
            "oscillations": totals.oscillations,
            "max_active": totals.max_active,
        }),
        "buckets": Value::Array(rows),
    })
}

impl RouteObserver for StreamingAggregator {
    fn on_move(&mut self, _t: Time, _pkt: u32, _mv: DirectedEdge, _kind: ExitKind) {}

    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        let key = self.key_for(t);
        let b = self.bucket_mut(key);
        b.steps += 1;
        b.moved += report.moved as u64;
        b.absorbed += report.absorbed as u64;
        b.injected += report.injected as u64;
        b.deflections += report.deflections as u64;
        b.fallback += report.fallback_deflections as u64;
        b.oscillations += report.oscillations as u64;
        b.max_active = b.max_active.max(active as u64);
        self.total.steps += 1;
        self.total.moved += report.moved as u64;
        self.total.absorbed += report.absorbed as u64;
        self.total.injected += report.injected as u64;
        self.total.deflections += report.deflections as u64;
        self.total.fallback += report.fallback_deflections as u64;
        self.total.oscillations += report.oscillations as u64;
        self.total.max_active = self.total.max_active.max(active as u64);
    }

    fn on_phase_start(&mut self, phase: u64, _t: Time) {
        self.phased = true;
        self.phase = Some(phase);
    }

    fn on_phase_end(&mut self, phase: u64, _t: Time) {
        self.phased = true;
        // Steps after this belong to the next phase until told otherwise.
        self.phase = Some(phase + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(agg: &mut StreamingAggregator, t: Time, moved: usize, deflections: usize) {
        let report = StepReport {
            moved,
            absorbed: 0,
            injected: 0,
            deflections,
            fallback_deflections: 0,
            oscillations: 0,
        };
        agg.on_step_end(t, &report, moved);
    }

    #[test]
    fn merges_keep_memory_bounded_and_sums_exact() {
        let mut agg = StreamingAggregator::new(4);
        for t in 0..1000 {
            step(&mut agg, t, 3, 1);
        }
        assert!(agg.buckets().len() <= 4);
        assert!(agg.scale() >= 256);
        let steps: u64 = agg.buckets().iter().map(|b| b.steps).sum();
        let moved: u64 = agg.buckets().iter().map(|b| b.moved).sum();
        let defl: u64 = agg.buckets().iter().map(|b| b.deflections).sum();
        assert_eq!(steps, 1000);
        assert_eq!(moved, 3000);
        assert_eq!(defl, 1000);
        assert_eq!(agg.totals().steps, 1000);
        // Buckets tile [0, 999] without gaps.
        let mut expect = 0;
        for b in agg.buckets() {
            assert_eq!(b.key_lo, expect);
            expect = b.key_hi + 1;
        }
        assert_eq!(expect, 1000);
    }

    #[test]
    fn phases_key_buckets_once_seen() {
        let mut agg = StreamingAggregator::new(8);
        agg.on_phase_start(0, 0);
        step(&mut agg, 0, 2, 0);
        step(&mut agg, 1, 2, 0);
        agg.on_phase_end(0, 2);
        step(&mut agg, 2, 1, 1);
        assert_eq!(agg.buckets().len(), 2);
        assert_eq!(agg.buckets()[0].steps, 2);
        assert_eq!(agg.buckets()[0].moved, 4);
        assert_eq!(agg.buckets()[1].steps, 1);
        assert_eq!(agg.buckets()[1].deflections, 1);
        let report = agg.to_json();
        assert_eq!(report["keyed_by"], "phase");
        assert_eq!(report["totals"]["moved"].as_u64(), Some(5));
    }
}
