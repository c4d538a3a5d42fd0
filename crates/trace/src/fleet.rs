//! Cross-run fleet aggregation: population-level evidence for the
//! Theorem 2.6 bound.
//!
//! A single run shows one `steps/(C+L)` ratio; the paper's claim is
//! statistical, so the fleet observatory aggregates *hundreds* of runs —
//! seed ranges × size ladders — into per-(topo, algo, size) cells of
//! ratio distributions, latency percentiles, deflection-chain depths,
//! and per-set congestion watermarks, each cell carrying a **bootstrap
//! 95% confidence interval** on its mean ratio. Across cells, a log-log
//! least-squares fit of `ln steps` against `ln (C+L)` produces the
//! empirical scaling exponent (Theorem 2.6 predicts ≈ 1 up to polylog)
//! with a normal-approximation CI.
//!
//! Everything here is deterministic at any worker count: cells live in a
//! `BTreeMap`, samples are sorted before any statistic is computed, and
//! the bootstrap resampler is a `ChaCha8Rng` seeded from the cell key —
//! so `tables t1`/`t8` rebuilt from fleet artifacts are byte-identical
//! however the runs were scheduled.

use crate::analyze::Analysis;
use crate::schema::Trace;
use hotpotato_sim::nearest_rank;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::Value;
use serde_json::json;
use std::collections::BTreeMap;

/// Version of the `/fleet` rollup document. Bump on any change to the
/// document shape.
pub const FLEET_SCHEMA_VERSION: u64 = 1;

/// Upper bounds of the cross-run `steps/(C+L)` ratio histogram (the
/// `hotpotato_fleet_ratio` Prometheus family); one overflow bucket sits
/// past the last bound.
pub const RATIO_BUCKET_BOUNDS: &[f64] = &[
    0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0,
];

/// Bootstrap resamples per confidence interval.
const BOOTSTRAP_RESAMPLES: usize = 200;

/// One completed run's trace-derived analytics, as the fleet folds them.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSample {
    /// Topology spec (cell key, with `algo` and `packets`).
    pub topo: String,
    /// Algorithm name.
    pub algo: String,
    /// Run seed.
    pub seed: u64,
    /// Packets in the instance.
    pub packets: u64,
    /// Instance congestion `C`.
    pub congestion: u64,
    /// Instance dilation `D`.
    pub dilation: u64,
    /// Instance levels `L`.
    pub levels: u64,
    /// Steps the run took (the makespan).
    pub steps: u64,
    /// Packet moves recorded in the trace (the throughput yardstick).
    pub moves: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Total deflections.
    pub deflections: u64,
    /// Invariant violations (from the router's audit; 0 required of a
    /// clean fleet).
    pub violations: u64,
    /// Streaming drops (0 in batch mode).
    pub drops: u64,
    /// Median in-flight latency ([`Analysis::latencies`]: trivial
    /// deliveries excluded).
    pub latency_p50: u64,
    /// 99th-percentile in-flight latency.
    pub latency_p99: u64,
    /// Maximum in-flight latency.
    pub latency_max: u64,
    /// Deepest causal deflection chain (Lemma 2.1 attribution).
    pub chain_max_depth: u64,
    /// Largest per-set congestion watermark from the phase-end audits
    /// (0 when the router emits none).
    pub congestion_watermark: u64,
}

impl FleetSample {
    /// The empirical Theorem 2.6 ratio, `steps / (C + L)`.
    pub fn ratio_cl(&self) -> f64 {
        self.steps as f64 / (self.congestion + self.levels).max(1) as f64
    }

    /// Builds a sample from a trace (parsed or recorded) and its
    /// analysis. The trace must carry a `meta` event (fleet runs always
    /// do — the instance parameters come from it verbatim, no
    /// reconstruction); everything else comes from the analysis, whose
    /// in-flight latencies exclude trivial deliveries. Invariant
    /// violations are not part of the trace stats, so the router's audit
    /// count rides along explicitly.
    pub fn from_trace(trace: &Trace, analysis: &Analysis, violations: u64) -> Result<Self, String> {
        let meta = trace
            .meta()
            .ok_or("fleet samples need a trace with a meta line")?;
        let latencies = &analysis.latencies;
        Ok(FleetSample {
            topo: meta.topo.clone(),
            algo: meta.algo.clone(),
            seed: meta.seed,
            packets: meta.packets,
            congestion: meta.congestion,
            dilation: meta.dilation,
            levels: meta.levels,
            steps: analysis.steps,
            moves: analysis.moves,
            delivered: analysis.deliveries,
            deflections: analysis.deflections,
            violations,
            drops: analysis.drops,
            latency_p50: nearest_rank(latencies, 0.50).unwrap_or(0),
            latency_p99: nearest_rank(latencies, 0.99).unwrap_or(0),
            latency_max: latencies.last().copied().unwrap_or(0),
            chain_max_depth: u64::from(analysis.chains.max_depth),
            congestion_watermark: analysis.congestion_watermark,
        })
    }
}

/// The log-log regression of `ln steps` on `ln (C+L)` over every fleet
/// sample: the scaling exponent plus a 95% CI is the empirical
/// Theorem 2.6 verdict (exponent ≈ 1 up to polylog factors).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetFit {
    /// Fitted exponent (the slope in log-log space).
    pub exponent: f64,
    /// 95% CI on the exponent (normal approximation of the slope
    /// standard error).
    pub ci95: (f64, f64),
    /// Fitted intercept (`ln` of the leading constant).
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Points entering the fit.
    pub points: u64,
}

/// The cross-run aggregation: cells keyed by (topo, algo, packets), each
/// holding every sample recorded for that cell, plus the fleet-wide
/// ratio histogram. All statistics (bootstrap CIs, the log-log fit) are
/// recomputed from sorted samples at report time, so the report is a
/// pure function of the recorded *set* of samples — record order and
/// worker scheduling cannot leak into it.
#[derive(Clone, Debug, Default)]
pub struct FleetAggregator {
    cells: BTreeMap<(String, String, u64), Vec<FleetSample>>,
    runs: u64,
    failed: u64,
    violations: u64,
    ratio_counts: Vec<u64>,
    ratio_sum: f64,
}

impl FleetAggregator {
    /// An empty aggregation.
    pub fn new() -> Self {
        FleetAggregator {
            ratio_counts: vec![0; RATIO_BUCKET_BOUNDS.len() + 1],
            ..FleetAggregator::default()
        }
    }

    /// Runs recorded so far (failures excluded).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs that produced no sample (errored or panicked). A run that
    /// completes with packets undelivered is recorded as a sample; its
    /// `delivered` falls short of `packets`.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Total invariant violations across every recorded run.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Per-bucket counts of the fleet ratio histogram (one overflow
    /// bucket past [`RATIO_BUCKET_BOUNDS`]).
    pub fn ratio_counts(&self) -> &[u64] {
        &self.ratio_counts
    }

    /// Sum of every recorded ratio (the histogram `_sum`).
    pub fn ratio_sum(&self) -> f64 {
        self.ratio_sum
    }

    /// Folds one completed run into its cell.
    pub fn record(&mut self, sample: FleetSample) {
        self.runs += 1;
        self.violations += sample.violations;
        let ratio = sample.ratio_cl();
        let bucket = RATIO_BUCKET_BOUNDS
            .iter()
            .position(|&b| ratio <= b)
            .unwrap_or(RATIO_BUCKET_BOUNDS.len());
        self.ratio_counts[bucket] += 1;
        self.ratio_sum += ratio;
        let key = (sample.topo.clone(), sample.algo.clone(), sample.packets);
        self.cells.entry(key).or_default().push(sample);
    }

    /// Records a run that did not produce a sample.
    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Every recorded sample, in cell order then record order within a
    /// cell (consumers wanting order-independence sort, as
    /// [`FleetAggregator::to_json`] does).
    pub fn samples(&self) -> impl Iterator<Item = &FleetSample> + '_ {
        self.cells.values().flatten()
    }

    /// The log-log fit over every sample, or `None` with fewer than 3
    /// points or a degenerate (single-size) design.
    pub fn fit(&self) -> Option<FleetFit> {
        let mut pts: Vec<(f64, f64)> = self
            .cells
            .values()
            .flatten()
            .filter(|s| s.steps > 0 && s.congestion + s.levels > 0)
            .map(|s| {
                (
                    ((s.congestion + s.levels) as f64).ln(),
                    (s.steps as f64).ln(),
                )
            })
            .collect();
        if pts.len() < 3 {
            return None;
        }
        pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
        if sxx <= f64::EPSILON {
            return None; // one distinct size: no slope to fit
        }
        let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        let sse: f64 = pts
            .iter()
            .map(|p| (p.1 - (intercept + slope * p.0)).powi(2))
            .sum();
        let syy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
        let r2 = if syy > 0.0 { 1.0 - sse / syy } else { 1.0 };
        let se = if pts.len() > 2 {
            (sse / (n - 2.0) / sxx).sqrt()
        } else {
            0.0
        };
        Some(FleetFit {
            exponent: slope,
            ci95: (slope - 1.96 * se, slope + 1.96 * se),
            intercept,
            r2,
            points: pts.len() as u64,
        })
    }

    /// The schema-versioned `/fleet` rollup document.
    pub fn to_json(&self) -> Value {
        let cells: Vec<Value> = self
            .cells
            .iter()
            .map(|((topo, algo, packets), samples)| cell_json(topo, algo, *packets, samples))
            .collect();
        let fit = match self.fit() {
            Some(f) => json!({
                "exponent": f.exponent,
                "ci95": json!([f.ci95.0, f.ci95.1]),
                "intercept": f.intercept,
                "r2": f.r2,
                "points": f.points,
            }),
            None => Value::Null,
        };
        json!({
            "schema": FLEET_SCHEMA_VERSION,
            "kind": "fleet",
            "runs": self.runs,
            "failed": self.failed,
            "violations": self.violations,
            "cells": Value::Array(cells),
            "fit": fit,
            "ratio_histogram": json!({
                "bounds": Value::Array(RATIO_BUCKET_BOUNDS.iter().map(|&b| json!(b)).collect()),
                "counts": Value::Array(self.ratio_counts.iter().map(|&c| json!(c)).collect()),
                "sum": self.ratio_sum,
            }),
        })
    }
}

/// One cell of the rollup. Samples are sorted by (seed, steps) first so
/// the cell — bootstrap CI included — is identical for every record
/// order.
fn cell_json(topo: &str, algo: &str, packets: u64, samples: &[FleetSample]) -> Value {
    let mut samples: Vec<&FleetSample> = samples.iter().collect();
    samples.sort_by_key(|s| (s.seed, s.steps));
    let n = samples.len() as f64;
    let ratios: Vec<f64> = samples.iter().map(|s| s.ratio_cl()).collect();
    let mean = ratios.iter().sum::<f64>() / n;
    let (mut ratio_lo, mut ratio_hi) = (f64::INFINITY, 0.0f64);
    for &r in &ratios {
        ratio_lo = ratio_lo.min(r);
        ratio_hi = ratio_hi.max(r);
    }
    let (ci_lo, ci_hi) = bootstrap_ci_mean(&ratios, cell_seed(topo, algo, packets));
    let min_max = |f: fn(&FleetSample) -> u64| {
        let lo = samples.iter().map(|s| f(s)).min().unwrap_or(0);
        let hi = samples.iter().map(|s| f(s)).max().unwrap_or(0);
        (lo, hi)
    };
    let (c_lo, c_hi) = min_max(|s| s.congestion);
    let (d_lo, d_hi) = min_max(|s| s.dilation);
    let (steps_lo, steps_hi) = min_max(|s| s.steps);
    let steps_mean = samples.iter().map(|s| s.steps as f64).sum::<f64>() / n;
    let p50_mean = samples.iter().map(|s| s.latency_p50 as f64).sum::<f64>() / n;
    let p99_mean = samples.iter().map(|s| s.latency_p99 as f64).sum::<f64>() / n;
    json!({
        "topo": topo,
        "algo": algo,
        "packets": packets,
        "runs": samples.len() as u64,
        "levels": samples.iter().map(|s| s.levels).max().unwrap_or(0),
        "congestion": json!({ "min": c_lo, "max": c_hi }),
        "dilation": json!({ "min": d_lo, "max": d_hi }),
        "steps": json!({ "min": steps_lo, "max": steps_hi, "mean": steps_mean }),
        "ratio_c_plus_l": json!({
            "mean": mean,
            "min": ratio_lo,
            "max": ratio_hi,
            "ci95": json!([ci_lo, ci_hi]),
        }),
        "latency": json!({
            "p50_mean": p50_mean,
            "p99_mean": p99_mean,
            "max": samples.iter().map(|s| s.latency_max).max().unwrap_or(0),
        }),
        "chains": json!({
            "max_depth": samples.iter().map(|s| s.chain_max_depth).max().unwrap_or(0),
        }),
        "watermark": json!({
            "max": samples.iter().map(|s| s.congestion_watermark).max().unwrap_or(0),
        }),
        "delivered": samples.iter().map(|s| s.delivered).sum::<u64>(),
        "violations": samples.iter().map(|s| s.violations).sum::<u64>(),
        "drops": samples.iter().map(|s| s.drops).sum::<u64>(),
    })
}

/// FNV-1a of the cell key: the deterministic bootstrap seed, so CIs are
/// identical for every worker count and record order.
fn cell_seed(topo: &str, algo: &str, packets: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in topo
        .bytes()
        .chain([b'|'])
        .chain(algo.bytes())
        .chain([b'|'])
        .chain(packets.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Percentile-method bootstrap 95% CI on the mean of `vals` (which the
/// caller has put in a deterministic order): [`BOOTSTRAP_RESAMPLES`]
/// seeded resamples with replacement, 2.5th/97.5th percentile of the
/// resampled means.
fn bootstrap_ci_mean(vals: &[f64], seed: u64) -> (f64, f64) {
    if vals.is_empty() {
        return (0.0, 0.0);
    }
    if vals.len() == 1 {
        // lint: allow-panic(guarded: len == 1)
        return (vals[0], vals[0]);
    }
    let n = vals.len();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut means: Vec<f64> = (0..BOOTSTRAP_RESAMPLES)
        .map(|_| {
            (0..n)
                // lint: allow-panic(index is reduced modulo the slice length)
                .map(|_| vals[(rng.gen::<u64>() % n as u64) as usize])
                .sum::<f64>()
                / n as f64
        })
        .collect();
    means.sort_by(f64::total_cmp);
    let rank = |q: f64| -> usize {
        (((BOOTSTRAP_RESAMPLES as f64) * q).ceil() as usize).clamp(1, BOOTSTRAP_RESAMPLES) - 1
    };
    // lint: allow-panic(rank is clamped into 0..BOOTSTRAP_RESAMPLES, the resample count)
    (means[rank(0.025)], means[rank(0.975)])
}

/// Validates a `/fleet` document: schema version, kind, and the required
/// shape of every cell and the fit envelope. Strict on what CI asserts;
/// extra keys are ignored (the schema version governs their meaning).
pub fn validate_fleet_doc(doc: &Value) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Value::as_u64)
        .ok_or("fleet doc has no schema version")?;
    if schema != FLEET_SCHEMA_VERSION {
        return Err(format!(
            "fleet schema {schema} != supported {FLEET_SCHEMA_VERSION}"
        ));
    }
    if doc.get("kind").and_then(Value::as_str) != Some("fleet") {
        return Err("fleet doc kind must be \"fleet\"".into());
    }
    for key in ["runs", "failed", "violations"] {
        if doc.get(key).and_then(Value::as_u64).is_none() {
            return Err(format!("fleet doc missing numeric '{key}'"));
        }
    }
    let cells = doc
        .get("cells")
        .and_then(Value::as_array)
        .ok_or("fleet doc missing cells array")?;
    for (i, cell) in cells.iter().enumerate() {
        for key in ["topo", "algo"] {
            if cell.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("cell {i} missing string '{key}'"));
            }
        }
        for key in ["packets", "runs", "violations"] {
            if cell.get(key).and_then(Value::as_u64).is_none() {
                return Err(format!("cell {i} missing numeric '{key}'"));
            }
        }
        let ratio = cell
            .get("ratio_c_plus_l")
            .ok_or_else(|| format!("cell {i} missing ratio_c_plus_l"))?;
        if ratio.get("mean").and_then(Value::as_f64).is_none() {
            return Err(format!("cell {i} ratio has no mean"));
        }
        let ci = ratio
            .get("ci95")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("cell {i} ratio has no ci95"))?;
        if ci.len() != 2 || ci.iter().any(|v| v.as_f64().is_none()) {
            return Err(format!("cell {i} ci95 must be [lo, hi]"));
        }
    }
    let fit = doc.get("fit").ok_or("fleet doc missing fit")?;
    if !fit.is_null() {
        if fit.get("exponent").and_then(Value::as_f64).is_none() {
            return Err("fit has no exponent".into());
        }
        let ci = fit
            .get("ci95")
            .and_then(Value::as_array)
            .ok_or("fit has no ci95")?;
        if ci.len() != 2 || ci.iter().any(|v| v.as_f64().is_none()) {
            return Err("fit ci95 must be [lo, hi]".into());
        }
        if fit.get("points").and_then(Value::as_u64).is_none() {
            return Err("fit has no points".into());
        }
    }
    Ok(())
}

/// Parses and validates a `/fleet` response body.
pub fn parse_fleet(text: &str) -> Result<Value, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("fleet doc: {e}"))?;
    validate_fleet_doc(&doc)?;
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(topo: &str, seed: u64, c: u64, l: u64, steps: u64) -> FleetSample {
        FleetSample {
            topo: topo.into(),
            algo: "busch".into(),
            seed,
            packets: 64,
            congestion: c,
            dilation: l,
            levels: l,
            steps,
            moves: steps * 4,
            delivered: 64,
            deflections: 10,
            violations: 0,
            drops: 0,
            latency_p50: 8,
            latency_p99: 20,
            latency_max: 30,
            chain_max_depth: 3,
            congestion_watermark: 4,
        }
    }

    #[test]
    fn sample_latencies_exclude_trivial_deliveries() {
        use crate::schema::{Meta, TraceEvent, SCHEMA_VERSION};
        use hotpotato_sim::ExitKind;
        use leveled_net::{ids::EdgeId, Direction};
        // Three of four packets are delivered trivially; the fourth is
        // injected at 0 and delivered at 4. Every in-flight latency figure
        // is that packet's 4, as in the analysis report.
        let meta = Meta {
            schema: SCHEMA_VERSION,
            topo: "bf:2".into(),
            workload: "hand".into(),
            algo: "greedy".into(),
            seed: 1,
            arrival: String::new(),
            packets: 4,
            levels: 3,
            congestion: 1,
            dilation: 4,
        };
        let hop = |t: u64, kind| TraceEvent::Move {
            t,
            pkt: 3,
            edge: EdgeId(t as u32),
            dir: Direction::Forward,
            kind,
        };
        let mut events = vec![TraceEvent::Meta(Box::new(meta))];
        events.extend((0..3).map(|pkt| TraceEvent::Trivial { t: 0, pkt }));
        events.push(hop(0, ExitKind::Inject));
        events.extend((1..4).map(|t| hop(t, ExitKind::Advance)));
        events.push(TraceEvent::Deliver { t: 4, pkt: 3 });
        let trace = Trace { events };
        let analysis = crate::analyze(&trace);
        assert_eq!(analysis.latencies, vec![4]);
        assert_eq!(analysis.to_json()["latency"]["p50"].as_u64(), Some(4));
        let s = FleetSample::from_trace(&trace, &analysis, 0).unwrap();
        assert_eq!(s.delivered, 4);
        assert_eq!((s.latency_p50, s.latency_p99, s.latency_max), (4, 4, 4));
    }

    #[test]
    fn report_is_independent_of_record_order() {
        let runs: Vec<FleetSample> = (0..20)
            .map(|i| sample("bf:6", i, 8, 6, 40 + 3 * i))
            .chain((0..20).map(|i| sample("bf:8", i, 16, 8, 90 + 5 * i)))
            .collect();
        let mut fwd = FleetAggregator::new();
        for s in &runs {
            fwd.record(s.clone());
        }
        let mut rev = FleetAggregator::new();
        for s in runs.iter().rev() {
            rev.record(s.clone());
        }
        assert_eq!(fwd.to_json(), rev.to_json());
        validate_fleet_doc(&fwd.to_json()).unwrap();
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean_deterministically() {
        let vals: Vec<f64> = (0..50).map(|i| 2.0 + (i % 7) as f64 * 0.1).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let (lo, hi) = bootstrap_ci_mean(&vals, 42);
        assert!(lo <= mean && mean <= hi, "{lo} !<= {mean} !<= {hi}");
        assert!(hi - lo < 0.2, "CI too wide: [{lo}, {hi}]");
        assert_eq!(
            bootstrap_ci_mean(&vals, 42),
            (lo, hi),
            "seeded = repeatable"
        );
        // A single observation collapses to a point interval.
        assert_eq!(bootstrap_ci_mean(&[3.0], 1), (3.0, 3.0));
    }

    #[test]
    fn fit_recovers_a_planted_exponent() {
        // steps = 2.5 * (C+L)^1.3, exactly: the fit must recover the
        // exponent with a tight CI and r² = 1.
        let mut agg = FleetAggregator::new();
        for (i, cl) in [10u64, 20, 40, 80, 160].iter().enumerate() {
            for seed in 0..4 {
                let steps = (2.5 * (*cl as f64).powf(1.3)).round() as u64;
                agg.record(sample(&format!("bf:{i}"), seed, cl / 2, cl - cl / 2, steps));
            }
        }
        let fit = agg.fit().expect("5 sizes fit");
        assert!((fit.exponent - 1.3).abs() < 0.01, "{}", fit.exponent);
        assert!(fit.ci95.0 <= fit.exponent && fit.exponent <= fit.ci95.1);
        assert!(fit.r2 > 0.999, "{}", fit.r2);
        assert_eq!(fit.points, 20);
    }

    #[test]
    fn fit_declines_degenerate_designs() {
        let mut agg = FleetAggregator::new();
        assert!(agg.fit().is_none(), "empty");
        for seed in 0..5 {
            agg.record(sample("bf:6", seed, 8, 6, 50));
        }
        assert!(agg.fit().is_none(), "one size has no slope");
        assert_eq!(agg.to_json()["fit"], Value::Null);
        validate_fleet_doc(&agg.to_json()).unwrap();
    }

    #[test]
    fn ratio_histogram_counts_and_sums() {
        let mut agg = FleetAggregator::new();
        agg.record(sample("bf:6", 1, 8, 6, 14)); // ratio 1.0 -> bucket le=1.0
        agg.record(sample("bf:6", 2, 8, 6, 1400)); // ratio 100 -> overflow
        let counts = agg.ratio_counts();
        assert_eq!(counts[1], 1, "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 1, "{counts:?}");
        assert!((agg.ratio_sum() - 101.0).abs() < 1e-9);
        agg.record_failure();
        assert_eq!(agg.failed(), 1);
        assert_eq!(agg.runs(), 2);
    }

    /// Replaces `doc[key]` in an object value (the vendored `Value` has
    /// no `IndexMut`).
    fn set(doc: &mut Value, key: &str, v: Value) {
        let Value::Object(members) = doc else {
            panic!("not an object");
        };
        members
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key present")
            .1 = v;
    }

    #[test]
    fn validation_rejects_malformed_docs() {
        let mut agg = FleetAggregator::new();
        agg.record(sample("bf:6", 1, 8, 6, 50));
        let good = agg.to_json();
        validate_fleet_doc(&good).unwrap();
        assert!(parse_fleet(&serde_json::to_string(&good).unwrap()).is_ok());

        let mut wrong_schema = good.clone();
        set(&mut wrong_schema, "schema", json!(99));
        assert!(validate_fleet_doc(&wrong_schema).is_err());

        let mut wrong_kind = good.clone();
        set(&mut wrong_kind, "kind", json!("rollup"));
        assert!(validate_fleet_doc(&wrong_kind).is_err());

        let mut no_ci = good.clone();
        let Value::Object(top) = &mut no_ci else {
            panic!("doc is an object");
        };
        let cells = &mut top.iter_mut().find(|(k, _)| k == "cells").expect("cells").1;
        let Value::Array(cells) = cells else {
            panic!("cells is an array");
        };
        set(&mut cells[0], "ratio_c_plus_l", json!({ "mean": 1.0 }));
        assert!(validate_fleet_doc(&no_ci).is_err());
        assert!(parse_fleet("{not json").is_err());
    }
}
