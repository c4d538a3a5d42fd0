//! Aggregate trace analytics: per-phase deflection heatmaps, frontier-lag
//! distributions, latency anatomy, causal chains, and empirical C+L
//! scaling ratios — everything a run leaves behind, condensed into one
//! JSON report.

use crate::schema::{Trace, TraceEvent};
use crate::timeline::{attribute_chains, build_timelines, ChainReport, PacketTimeline};
use crate::verify::{reconstruct, VerifiedInstance};
use hotpotato_sim::{ExitKind, Time};
use leveled_net::ids::DirectedEdge;
use leveled_net::Direction;
use serde::Value;
use serde_json::json;

/// Per-phase aggregates (phase 0 covers the whole run when the trace has
/// no phase events).
#[derive(Clone, Debug, Default)]
pub struct PhaseRow {
    /// Phase index.
    pub phase: u64,
    /// First step of the phase (inclusive).
    pub start_t: Time,
    /// First step after the phase (exclusive; `steps_run` for the last).
    pub end_t: Time,
    /// Moves staged during the phase.
    pub moves: u64,
    /// Deflections (safe + fallback).
    pub deflections: u64,
    /// Safe (edge-recycling) deflections.
    pub safe: u64,
    /// Fallback deflections.
    pub fallback: u64,
    /// Oscillation moves.
    pub oscillations: u64,
    /// Injections.
    pub injections: u64,
    /// Deliveries (arrival time inside the phase).
    pub deliveries: u64,
    /// Deflections per level of the node the loser departed (heatmap
    /// row; empty when the instance could not be reconstructed).
    pub deflections_by_level: Vec<u64>,
}

/// One frontier-lag observation: how far a set's slowest in-flight packet
/// trails the theoretical frontier `φ_i(k)` when it is announced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierLag {
    /// Phase of the announcement.
    pub phase: u64,
    /// Frontier set.
    pub set: u32,
    /// Announced frontier.
    pub frontier: i64,
    /// `max(0, frontier − min level)` over the set's undelivered packets.
    pub lag: u64,
}

/// The full analysis of one trace.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Identification (from the meta line, when present).
    pub topo: Option<String>,
    /// Workload spec.
    pub workload: Option<String>,
    /// Algorithm.
    pub algo: Option<String>,
    /// RNG seed.
    pub seed: Option<u64>,
    /// Steps covered by the trace.
    pub steps: u64,
    /// Packets (from meta or the largest id seen + 1).
    pub packets: usize,
    /// Total moves.
    pub moves: u64,
    /// Forward moves.
    pub forward: u64,
    /// Backward moves.
    pub backward: u64,
    /// Injections.
    pub injections: u64,
    /// Deliveries (trivial included).
    pub deliveries: u64,
    /// Trivial deliveries.
    pub trivial: u64,
    /// Deflections (safe + fallback).
    pub deflections: u64,
    /// Safe deflections.
    pub safe_deflections: u64,
    /// Oscillation moves.
    pub oscillations: u64,
    /// Streaming arrivals observed (schema-v3 `arrival` events).
    pub arrivals: u64,
    /// Streaming drops observed (schema-v3 `drop` events).
    pub drops: u64,
    /// Sorted admission-to-delivery latencies of streaming packets:
    /// steps from a packet's `arrival` event to its `deliver` event.
    pub arrival_latencies: Vec<u64>,
    /// Per-packet timelines.
    pub timelines: Vec<PacketTimeline>,
    /// Per-phase aggregates.
    pub phases: Vec<PhaseRow>,
    /// Frontier-lag observations (busch traces with sets + frontiers).
    pub frontier_lags: Vec<FrontierLag>,
    /// Causal deflection-chain attribution.
    pub chains: ChainReport,
    /// Instance parameters for scaling, when reconstructable:
    /// `(congestion, dilation, levels)`.
    pub instance: Option<(u32, u32, u32)>,
}

/// Nearest-rank percentile over a sorted slice (0 when empty).
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted.get(idx.min(sorted.len() - 1)).copied().unwrap_or(0)
}

/// Analyzes a parsed trace. Reconstruction of the instance (for level
/// heatmaps and frontier lags) is attempted from the meta line and
/// silently skipped when impossible — everything derivable from the
/// event stream alone is always present.
pub fn analyze(trace: &Trace) -> Analysis {
    let mut a = Analysis::default();
    let instance: Option<VerifiedInstance> = trace.meta().and_then(|m| {
        a.topo = Some(m.topo.clone());
        a.workload = Some(m.workload.clone());
        a.algo = Some(m.algo.clone());
        a.seed = Some(m.seed);
        reconstruct(m).ok()
    });

    // Packet universe: meta if present, otherwise max id seen + 1.
    let mut n = trace.meta().map_or(0, |m| m.packets as usize);
    for ev in &trace.events {
        if let TraceEvent::Move { pkt, .. }
        | TraceEvent::Trivial { pkt, .. }
        | TraceEvent::Deliver { pkt, .. } = ev
        {
            n = n.max(*pkt as usize + 1);
        }
    }
    a.packets = n;

    // Phase boundaries: (phase id, first step after the phase).
    let mut bounds: Vec<(u64, Time)> = Vec::new();
    let mut last_t = 0;
    for ev in &trace.events {
        match *ev {
            TraceEvent::PhaseEnd { phase, t } => bounds.push((phase, t)),
            TraceEvent::Step { t, .. } => last_t = last_t.max(t + 1),
            _ => {}
        }
    }
    a.steps = trace.stats().map_or(last_t, |s| s.steps);
    if bounds.is_empty() {
        bounds.push((0, a.steps));
    }
    let num_levels = instance.as_ref().map_or(0, |i| i.net.num_levels());
    let mut phases: Vec<PhaseRow> = Vec::with_capacity(bounds.len() + 1);
    let mut start = 0;
    for &(phase, end) in &bounds {
        phases.push(PhaseRow {
            phase,
            start_t: start,
            end_t: end,
            deflections_by_level: vec![0; num_levels],
            ..PhaseRow::default()
        });
        start = end;
    }
    if start < a.steps {
        // Steps after the last recorded phase (e.g. a truncated run).
        phases.push(PhaseRow {
            phase: bounds.last().map_or(0, |&(p, _)| p + 1),
            start_t: start,
            end_t: a.steps,
            deflections_by_level: vec![0; num_levels],
            ..PhaseRow::default()
        });
    }
    let ends: Vec<Time> = phases.iter().map(|row| row.end_t).collect();
    let phase_of =
        move |t: Time| -> usize { ends.partition_point(|&end| end <= t).min(ends.len() - 1) };

    // Single pass: totals, per-phase rows, per-packet positions (for
    // frontier lags, when the instance is known).
    let mut level_of_pkt: Vec<Option<u32>> = vec![None; n];
    let mut arrival_at: Vec<Option<Time>> = vec![None; n];
    let mut delivered: Vec<bool> = vec![false; n];
    let mut sets: Option<Vec<u32>> = None;
    let mut phase_rows = phases;
    for ev in &trace.events {
        match *ev {
            TraceEvent::Move {
                t,
                pkt,
                edge,
                dir,
                kind,
            } => {
                a.moves += 1;
                let row = &mut phase_rows[phase_of(t)];
                row.moves += 1;
                match dir {
                    Direction::Forward => a.forward += 1,
                    Direction::Backward => a.backward += 1,
                }
                match kind {
                    ExitKind::Inject => {
                        a.injections += 1;
                        row.injections += 1;
                    }
                    ExitKind::Deflect { safe } => {
                        a.deflections += 1;
                        row.deflections += 1;
                        if safe {
                            a.safe_deflections += 1;
                            row.safe += 1;
                        } else {
                            row.fallback += 1;
                        }
                    }
                    ExitKind::Oscillate => {
                        a.oscillations += 1;
                        row.oscillations += 1;
                    }
                    ExitKind::Advance => {}
                }
                if let Some(inst) = &instance {
                    let mv = DirectedEdge { edge, dir };
                    if edge.index() < inst.net.num_edges() {
                        if matches!(kind, ExitKind::Deflect { .. }) {
                            let lvl = inst.net.level(inst.net.move_origin(mv)) as usize;
                            if let Some(cell) = row.deflections_by_level.get_mut(lvl) {
                                *cell += 1;
                            }
                        }
                        if let Some(slot) = level_of_pkt.get_mut(pkt as usize) {
                            *slot = Some(inst.net.level(inst.net.move_target(mv)));
                        }
                    }
                }
            }
            TraceEvent::Trivial { t, pkt } => {
                a.deliveries += 1;
                a.trivial += 1;
                phase_rows[phase_of(t)].deliveries += 1;
                if let Some(d) = delivered.get_mut(pkt as usize) {
                    *d = true;
                }
            }
            TraceEvent::Deliver { t, pkt } => {
                a.deliveries += 1;
                phase_rows[phase_of(t.saturating_sub(1))].deliveries += 1;
                if let Some(d) = delivered.get_mut(pkt as usize) {
                    *d = true;
                }
                if let Some(at) = arrival_at.get(pkt as usize).copied().flatten() {
                    a.arrival_latencies.push(t.saturating_sub(at));
                }
            }
            TraceEvent::Arrival { t, pkt } => {
                a.arrivals += 1;
                if let Some(slot) = arrival_at.get_mut(pkt as usize) {
                    *slot = Some(t);
                }
            }
            TraceEvent::Drop { .. } => a.drops += 1,
            TraceEvent::Sets { sets: ref s, .. } => sets = Some(s.clone()),
            TraceEvent::Frontier {
                phase,
                set,
                frontier,
            } => {
                // Lag of the set's slowest undelivered packet behind the
                // announced frontier, measurable once positions are known.
                if let (Some(inst), Some(sets)) = (&instance, &sets) {
                    let mut min_level: Option<i64> = None;
                    for (p, &s) in sets.iter().enumerate() {
                        if s != set || delivered.get(p).copied().unwrap_or(true) {
                            continue;
                        }
                        let lvl = match level_of_pkt.get(p).copied().flatten() {
                            Some(l) => i64::from(l),
                            // Not yet injected: still at its source level.
                            None => match inst.problem.packets().get(p) {
                                Some(spec) => i64::from(inst.net.level(spec.path.source())),
                                None => continue,
                            },
                        };
                        min_level = Some(min_level.map_or(lvl, |m: i64| m.min(lvl)));
                    }
                    if let Some(m) = min_level {
                        a.frontier_lags.push(FrontierLag {
                            phase,
                            set,
                            frontier,
                            lag: (frontier - m).max(0) as u64,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    a.phases = phase_rows;
    a.arrival_latencies.sort_unstable();
    a.timelines = build_timelines(trace, n);
    a.chains = attribute_chains(trace);
    a.instance = instance.as_ref().map(|i| {
        (
            i.problem.congestion(),
            i.problem.dilation(),
            i.net.num_levels() as u32,
        )
    });
    a
}

impl Analysis {
    /// Drops per arrival (0 when the trace has no streaming events).
    pub fn drop_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.drops as f64 / self.arrivals as f64
        }
    }

    /// Mean admission-to-delivery latency of streaming packets (0 when
    /// the trace has no streaming events).
    pub fn arrival_latency_mean(&self) -> f64 {
        if self.arrival_latencies.is_empty() {
            0.0
        } else {
            self.arrival_latencies.iter().sum::<u64>() as f64 / self.arrival_latencies.len() as f64
        }
    }

    /// Sorted latencies of delivered, non-trivial packets.
    fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .timelines
            .iter()
            .filter(|t| !t.trivial)
            .filter_map(super::timeline::PacketTimeline::latency)
            .collect();
        v.sort_unstable();
        v
    }

    /// Renders the analysis as a JSON report.
    pub fn to_json(&self) -> Value {
        let lat = self.latencies();
        let sum: u64 = lat.iter().sum();
        let mean = if lat.is_empty() {
            0.0
        } else {
            sum as f64 / lat.len() as f64
        };
        let home_runs: Vec<u32> = self
            .timelines
            .iter()
            .filter(|t| t.delivered_at.is_some() && !t.trivial)
            .map(|t| t.home_run)
            .collect();
        let scaling = self.instance.map(|(c, d, l)| {
            let (c, d, l) = (u64::from(c), u64::from(d), u64::from(l));
            let cl = (c + l).max(1);
            let cd = (c + d).max(1);
            let log = ((l.max(1) * self.packets.max(1) as u64) as f64)
                .ln()
                .max(1.0);
            json!({
                "congestion": c,
                "dilation": d,
                "levels": l,
                "steps_over_c_plus_l": self.steps as f64 / cl as f64,
                "steps_over_c_plus_d": self.steps as f64 / cd as f64,
                "steps_over_c_plus_l_log": self.steps as f64 / (cl as f64 * log),
            })
        });
        let phases: Vec<Value> = self
            .phases
            .iter()
            .map(|p| {
                json!({
                    "phase": p.phase,
                    "start_t": p.start_t,
                    "end_t": p.end_t,
                    "steps": p.end_t - p.start_t,
                    "moves": p.moves,
                    "deflections": p.deflections,
                    "safe": p.safe,
                    "fallback": p.fallback,
                    "oscillations": p.oscillations,
                    "injections": p.injections,
                    "deliveries": p.deliveries,
                    "deflections_by_level": p.deflections_by_level.clone(),
                })
            })
            .collect();
        // Frontier lags as a distribution: (lag, count), plus the worst.
        let mut lag_hist: Vec<(u64, u64)> = Vec::new();
        for fl in &self.frontier_lags {
            match lag_hist.iter_mut().find(|(l, _)| *l == fl.lag) {
                Some((_, c)) => *c += 1,
                None => lag_hist.push((fl.lag, 1)),
            }
        }
        lag_hist.sort_unstable();
        let worst_lag = self.frontier_lags.iter().max_by_key(|f| f.lag);
        json!({
            "topo": self.topo.clone(),
            "workload": self.workload.clone(),
            "algo": self.algo.clone(),
            "seed": self.seed,
            "totals": json!({
                "steps": self.steps,
                "packets": self.packets,
                "moves": self.moves,
                "forward": self.forward,
                "backward": self.backward,
                "injections": self.injections,
                "deliveries": self.deliveries,
                "trivial": self.trivial,
                "deflections": self.deflections,
                "safe_deflections": self.safe_deflections,
                "fallback_deflections": self.deflections - self.safe_deflections,
                "oscillations": self.oscillations,
            }),
            "latency": json!({
                "delivered": lat.len() as u64,
                "mean": mean,
                "p50": percentile(&lat, 0.50),
                "p90": percentile(&lat, 0.90),
                "p99": percentile(&lat, 0.99),
                "max": lat.last().copied().unwrap_or(0),
                "home_run_max": home_runs.iter().copied().max().unwrap_or(0),
                "home_run_mean": if home_runs.is_empty() { 0.0 } else {
                    home_runs.iter().map(|&h| u64::from(h)).sum::<u64>() as f64
                        / home_runs.len() as f64
                },
            }),
            "streaming": json!({
                "arrivals": self.arrivals,
                "drops": self.drops,
                "drop_rate": self.drop_rate(),
                "arrival_latency_mean": self.arrival_latency_mean(),
                "arrival_latency_p50": percentile(&self.arrival_latencies, 0.50),
                "arrival_latency_max": self.arrival_latencies.last().copied().unwrap_or(0),
            }),
            "phases": Value::Array(phases),
            "frontier_lag": json!({
                "observations": self.frontier_lags.len() as u64,
                "histogram": lag_hist
                    .iter()
                    .map(|&(l, c)| json!([l, c]))
                    .collect::<Vec<Value>>(),
                "worst": worst_lag.map_or(json!(null), |f| json!({
                    "phase": f.phase,
                    "set": f.set,
                    "frontier": f.frontier,
                    "lag": f.lag,
                })),
            }),
            "chains": json!({
                "deflections": self.chains.links.len() as u64,
                "roots": self.chains.roots,
                "max_depth": self.chains.max_depth,
                "depth_histogram": self
                    .chains
                    .depth_histogram
                    .iter()
                    .map(|&(d, c)| json!([d, c]))
                    .collect::<Vec<Value>>(),
                "longest_chain": self
                    .chains
                    .longest_chain
                    .iter()
                    .map(|&(p, t)| json!([p, t]))
                    .collect::<Vec<Value>>(),
            }),
            "scaling": scaling.unwrap_or(Value::Null),
        })
    }
}

/// Compares two analyses metric by metric, reporting absolute values and
/// signed deltas (`b − a`) for every shared scalar. Streaming traces
/// (schema-v3 `arrival`/`drop` events) additionally get admission
/// latency and drop-rate rows; on batch traces those rows read zero.
pub fn diff(a: &Analysis, b: &Analysis) -> Value {
    fn row(name: &str, a: u64, b: u64) -> Value {
        json!({
            "metric": name,
            "a": a,
            "b": b,
            "delta": b as i64 - a as i64,
        })
    }
    fn frow(name: &str, a: f64, b: f64) -> Value {
        json!({
            "metric": name,
            "a": a,
            "b": b,
            "delta": b - a,
        })
    }
    // The Theorem 2.6 ratio, 0.0 when the instance is unknown (bare
    // traces without a meta line) so the row is always present and
    // threshold checks (`trace diff --fail-on`) can rely on it.
    fn ratio_cl(x: &Analysis) -> f64 {
        x.instance.map_or(0.0, |(c, _, l)| {
            x.steps as f64 / u64::from(c + l).max(1) as f64
        })
    }
    let lat_a = a.latencies();
    let lat_b = b.latencies();
    let rows = vec![
        row("steps", a.steps, b.steps),
        row("moves", a.moves, b.moves),
        row("deflections", a.deflections, b.deflections),
        row("safe_deflections", a.safe_deflections, b.safe_deflections),
        row("oscillations", a.oscillations, b.oscillations),
        row("deliveries", a.deliveries, b.deliveries),
        row(
            "latency_max",
            lat_a.last().copied().unwrap_or(0),
            lat_b.last().copied().unwrap_or(0),
        ),
        row(
            "latency_p50",
            percentile(&lat_a, 0.5),
            percentile(&lat_b, 0.5),
        ),
        row(
            "chain_max_depth",
            u64::from(a.chains.max_depth),
            u64::from(b.chains.max_depth),
        ),
        row("phases", a.phases.len() as u64, b.phases.len() as u64),
        row("arrivals", a.arrivals, b.arrivals),
        row("drops", a.drops, b.drops),
        frow("steps_over_c_plus_l", ratio_cl(a), ratio_cl(b)),
        frow("drop_rate", a.drop_rate(), b.drop_rate()),
        frow(
            "arrival_latency_mean",
            a.arrival_latency_mean(),
            b.arrival_latency_mean(),
        ),
        row(
            "arrival_latency_p50",
            percentile(&a.arrival_latencies, 0.5),
            percentile(&b.arrival_latencies, 0.5),
        ),
    ];
    json!({
        "a": json!({ "topo": a.topo.clone(), "workload": a.workload.clone(), "algo": a.algo.clone(), "seed": a.seed }),
        "b": json!({ "topo": b.topo.clone(), "workload": b.workload.clone(), "algo": b.algo.clone(), "seed": b.seed }),
        "rows": Value::Array(rows),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Trace;

    #[test]
    fn analyzes_a_bare_trace_without_meta() {
        let lines = [
            r#"{"ev":"move","t":0,"pkt":0,"edge":0,"dir":"F","kind":"inj"}"#,
            r#"{"ev":"move","t":1,"pkt":0,"edge":1,"dir":"F","kind":"adv"}"#,
            r#"{"ev":"deliver","t":2,"pkt":0}"#,
            r#"{"ev":"step","t":1,"moved":1,"absorbed":1,"injected":0,"deflections":0,"fallback":0,"oscillations":0,"active":0}"#,
        ];
        let trace = Trace::parse(&(lines.join("\n") + "\n")).unwrap();
        let a = analyze(&trace);
        assert_eq!(a.packets, 1);
        assert_eq!(a.moves, 2);
        assert_eq!(a.deliveries, 1);
        assert_eq!(a.steps, 2);
        assert_eq!(a.phases.len(), 1);
        assert_eq!(a.phases[0].moves, 2);
        let report = a.to_json();
        assert_eq!(report["totals"]["moves"].as_u64(), Some(2));
        assert_eq!(report["latency"]["max"].as_u64(), Some(2));
        assert!(report["scaling"].is_null());
    }

    #[test]
    fn phase_rows_partition_the_run() {
        let lines = [
            r#"{"ev":"move","t":0,"pkt":0,"edge":0,"dir":"F","kind":"inj"}"#,
            r#"{"ev":"phase_end","phase":0,"t":2}"#,
            r#"{"ev":"move","t":2,"pkt":0,"edge":1,"dir":"B","kind":"def-free"}"#,
            r#"{"ev":"phase_end","phase":1,"t":4}"#,
        ];
        let trace = Trace::parse(&(lines.join("\n") + "\n")).unwrap();
        let a = analyze(&trace);
        assert_eq!(a.phases.len(), 2);
        assert_eq!((a.phases[0].start_t, a.phases[0].end_t), (0, 2));
        assert_eq!((a.phases[1].start_t, a.phases[1].end_t), (2, 4));
        assert_eq!(a.phases[0].moves, 1);
        assert_eq!(a.phases[1].deflections, 1);
        assert_eq!(a.chains.links.len(), 1);
    }
}
