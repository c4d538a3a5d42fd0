//! Aggregate trace analytics: per-phase deflection heatmaps, frontier-lag
//! distributions, latency anatomy, causal chains, and empirical C+L
//! scaling ratios — everything a run leaves behind, condensed into one
//! JSON report by a single pass over the events ([`Analyzer`]).
//!
//! The same fold runs live as an [`EventSink`]: beside a
//! [`MetricsObserver`], it keeps every count of the metrics document
//! that [`metrics_json`] renders from the pair.

use crate::schema::{Trace, TraceEvent};
use crate::timeline::{ChainFold, ChainReport, PacketTimeline, TimelineFold};
use crate::verify::{reconstruct, VerifiedInstance};
use hotpotato_sim::{nearest_rank, EventSink, ExitKind, MetricsObserver, Time};
use leveled_net::ids::DirectedEdge;
use leveled_net::Direction;
use serde::Value;
use serde_json::json;
use std::collections::HashMap;

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

impl PhaseRow {
    /// Adds `other`'s counts into this row.
    fn absorb(&mut self, other: &PhaseRow) {
        self.moves += other.moves;
        self.deflections += other.deflections;
        self.safe += other.safe;
        self.fallback += other.fallback;
        self.oscillations += other.oscillations;
        self.injections += other.injections;
        self.deliveries += other.deliveries;
        for (cell, n) in self
            .deflections_by_level
            .iter_mut()
            .zip(&other.deflections_by_level)
        {
            *cell += n;
        }
    }
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
    /// Sorted in-flight latencies: delivery minus injection step of every
    /// delivered packet, trivial deliveries excluded. The JSON report,
    /// [`diff`] and the fleet's samples all read their latency figures
    /// from this one vector.
    pub latencies: Vec<u64>,
    /// Largest per-set congestion of the phase-end audits (`congestion`
    /// events; 0 when the router emits none).
    pub congestion_watermark: u64,
    /// Per-phase aggregates.
    pub phases: Vec<PhaseRow>,
    /// Whether the trace carried any `phase_start` or `phase_end` event.
    /// Without one, [`Analysis::phases`] is the single whole-run row the
    /// fold makes up, not a phase of the router's schedule.
    pub phased: bool,
    /// Frontier-lag observations (busch traces with sets + frontiers).
    pub frontier_lags: Vec<FrontierLag>,
    /// Causal deflection-chain attribution.
    pub chains: ChainReport,
    /// Instance parameters for scaling, when reconstructable:
    /// `(congestion, dilation, levels)`.
    pub instance: Option<(u32, u32, u32)>,
}

/// The analytics fold: [`Analyzer::push`] reads each event once and
/// [`Analyzer::finish`] condenses them into an [`Analysis`]. It is also
/// an [`EventSink`], hence a `RouteObserver`: in the observer slot it
/// folds a run as it happens, with no trace in between.
///
/// Events must come in the chronological order the engine writes and
/// [`crate::verify_trace`] enforces: every event of step `t` before any
/// move of step `t + 1`, and each `phase_end` before the moves of the
/// phase after it. Under that order each move lands in the same phase
/// row, and each deflection resolves to the same cause, as with the
/// whole trace in view. The fold keeps per-packet state, the open phase
/// row and two steps of forward crossings; nothing grows with the
/// number of moves. `Analyzer::default()` is `Analyzer::new(None)`.
#[derive(Default)]
pub struct Analyzer {
    a: Analysis,
    /// The reconstructed instance, for level heatmaps and frontier lags.
    instance: Option<VerifiedInstance>,
    num_levels: usize,
    /// The first event has been pushed (only a first `meta` counts).
    started: bool,
    /// Rows closed by `phase_end` events, in order.
    closed: Vec<PhaseRow>,
    /// The row collecting events since the last `phase_end`.
    open: PhaseRow,
    /// One past the latest `step` line.
    last_t: Time,
    /// Steps of a `stats` event, while it is the latest event.
    stats_steps: Option<u64>,
    timelines: TimelineFold,
    chains: ChainFold,
    /// Level each packet's latest move landed on (with an instance).
    level_of_pkt: Vec<Option<u32>>,
    /// Streaming arrival step per packet.
    arrival_at: HashMap<u32, Time>,
    sets: Option<Vec<u32>>,
}

impl Analyzer {
    /// An empty fold. With `instance`, phase rows get deflections-by-level
    /// heatmaps, frontier announcements get lags, and the packet universe
    /// starts at the instance's packets (a fold running live sees no meta
    /// line); without it, every other field of the [`Analysis`] is still
    /// filled.
    pub fn new(instance: Option<VerifiedInstance>) -> Self {
        let num_levels = instance.as_ref().map_or(0, |i| i.net.num_levels());
        let packets = instance.as_ref().map_or(0, |i| i.problem.num_packets());
        let mut analyzer = Analyzer {
            instance,
            num_levels,
            open: PhaseRow {
                deflections_by_level: vec![0; num_levels],
                ..PhaseRow::default()
            },
            ..Analyzer::default()
        };
        analyzer.grow(packets);
        analyzer
    }

    /// Widens the packet universe to `0..n`.
    fn grow(&mut self, n: usize) {
        if n > self.a.packets {
            self.a.packets = n;
            self.level_of_pkt.resize(n, None);
            self.timelines.grow(n);
        }
    }

    /// Reads one event.
    pub fn push(&mut self, ev: &TraceEvent) {
        let first = !self.started;
        self.started = true;
        self.stats_steps = None;
        match *ev {
            TraceEvent::Meta(ref m) if first => {
                self.a.topo = Some(m.topo.clone());
                self.a.workload = Some(m.workload.clone());
                self.a.algo = Some(m.algo.clone());
                self.a.seed = Some(m.seed);
                self.grow(m.packets as usize);
            }
            TraceEvent::Stats(ref s) => self.stats_steps = Some(s.steps),
            TraceEvent::Step { t, .. } => self.last_t = self.last_t.max(t + 1),
            TraceEvent::PhaseStart { .. } => self.a.phased = true,
            TraceEvent::PhaseEnd { phase, t } => {
                self.a.phased = true;
                let next = PhaseRow {
                    start_t: t,
                    deflections_by_level: vec![0; self.num_levels],
                    ..PhaseRow::default()
                };
                let mut row = std::mem::replace(&mut self.open, next);
                row.phase = phase;
                row.end_t = t;
                self.closed.push(row);
            }
            TraceEvent::Move {
                t,
                pkt,
                edge,
                dir,
                kind,
            } => {
                self.grow(pkt as usize + 1);
                match dir {
                    Direction::Forward => self.a.forward += 1,
                    Direction::Backward => self.a.backward += 1,
                }
                let row = row_at(&mut self.closed, &mut self.open, t);
                row.moves += 1;
                match kind {
                    ExitKind::Inject => row.injections += 1,
                    ExitKind::Deflect { safe } => {
                        row.deflections += 1;
                        if safe {
                            row.safe += 1;
                        } else {
                            row.fallback += 1;
                        }
                    }
                    ExitKind::Oscillate => row.oscillations += 1,
                    ExitKind::Advance => {}
                }
                if let Some(inst) = &self.instance {
                    let mv = DirectedEdge { edge, dir };
                    if edge.index() < inst.net.num_edges() {
                        if matches!(kind, ExitKind::Deflect { .. }) {
                            let lvl = inst.net.level(inst.net.move_origin(mv)) as usize;
                            if let Some(cell) = row.deflections_by_level.get_mut(lvl) {
                                *cell += 1;
                            }
                        }
                        if let Some(slot) = self.level_of_pkt.get_mut(pkt as usize) {
                            *slot = Some(inst.net.level(inst.net.move_target(mv)));
                        }
                    }
                }
            }
            TraceEvent::Trivial { t, pkt } => {
                self.grow(pkt as usize + 1);
                self.a.trivial += 1;
                row_at(&mut self.closed, &mut self.open, t).deliveries += 1;
            }
            TraceEvent::Deliver { t, pkt } => {
                self.grow(pkt as usize + 1);
                row_at(&mut self.closed, &mut self.open, t.saturating_sub(1)).deliveries += 1;
                if let Some(&at) = self.arrival_at.get(&pkt) {
                    self.a.arrival_latencies.push(t.saturating_sub(at));
                }
            }
            TraceEvent::Arrival { t, pkt } => {
                self.a.arrivals += 1;
                self.arrival_at.insert(pkt, t);
            }
            TraceEvent::Drop { .. } => self.a.drops += 1,
            TraceEvent::Congestion { congestion, .. } => {
                self.a.congestion_watermark =
                    self.a.congestion_watermark.max(u64::from(congestion));
            }
            TraceEvent::Sets { ref sets, .. } => self.sets = Some(sets.clone()),
            TraceEvent::Frontier {
                phase,
                set,
                frontier,
            } => self.frontier_lag(phase, set, frontier),
            _ => {}
        }
        self.timelines.push(ev);
        self.chains.push(ev);
    }

    /// Records how far the set's slowest undelivered packet trails the
    /// announced frontier, measurable once positions are known.
    fn frontier_lag(&mut self, phase: u64, set: u32, frontier: i64) {
        let (Some(inst), Some(sets)) = (&self.instance, &self.sets) else {
            return;
        };
        let timelines = &self.timelines.timelines;
        let mut min_level: Option<i64> = None;
        for (p, &s) in sets.iter().enumerate() {
            if s != set || timelines.get(p).is_none_or(|tl| tl.delivered_at.is_some()) {
                continue;
            }
            let lvl = match self.level_of_pkt.get(p).copied().flatten() {
                Some(l) => i64::from(l),
                // Not yet injected: still at its source level.
                None if p < inst.problem.num_packets() => {
                    i64::from(inst.net.level(inst.problem.path(p).source()))
                }
                None => continue,
            };
            min_level = Some(min_level.map_or(lvl, |m: i64| m.min(lvl)));
        }
        if let Some(m) = min_level {
            self.a.frontier_lags.push(FrontierLag {
                phase,
                set,
                frontier,
                lag: (frontier - m).max(0) as u64,
            });
        }
    }

    /// Closes the trailing phase row and condenses the fold.
    pub fn finish(self) -> Analysis {
        let mut a = self.a;
        a.steps = self.stats_steps.unwrap_or(self.last_t);
        let mut phases = self.closed;
        let mut open = self.open;
        open.end_t = a.steps;
        match phases.last_mut() {
            // No phase events: one row covers the whole run.
            None => phases.push(open),
            // Steps after the last recorded phase (e.g. a truncated run).
            Some(last) if open.start_t < a.steps => {
                open.phase = last.phase + 1;
                phases.push(open);
            }
            // No steps after the last phase: stray later events count
            // toward it.
            Some(last) => last.absorb(&open),
        }
        // Every move and delivery counts toward exactly one row.
        for row in &phases {
            a.moves += row.moves;
            a.injections += row.injections;
            a.deflections += row.deflections;
            a.safe_deflections += row.safe;
            a.oscillations += row.oscillations;
            a.deliveries += row.deliveries;
        }
        a.phases = phases;
        a.timelines = self.timelines.timelines;
        a.latencies = a
            .timelines
            .iter()
            .filter(|t| !t.trivial)
            .filter_map(PacketTimeline::latency)
            .collect();
        a.latencies.sort_unstable();
        a.arrival_latencies.sort_unstable();
        a.chains = self.chains.finish();
        a.instance = self.instance.as_ref().map(|i| {
            (
                i.problem.congestion(),
                i.problem.dilation(),
                i.net.num_levels() as u32,
            )
        });
        a
    }
}

/// The fold as a live observer: each hook's event is pushed as it
/// happens, in the order the engine emits it.
impl EventSink for Analyzer {
    fn event(&mut self, ev: TraceEvent) {
        self.push(&ev);
    }
}

hotpotato_sim::observe_as_events!(Analyzer);

/// The phase row an event at step `t` counts toward: the open row from
/// its first step on, otherwise the closed row spanning `t`.
fn row_at<'r>(closed: &'r mut [PhaseRow], open: &'r mut PhaseRow, t: Time) -> &'r mut PhaseRow {
    if t >= open.start_t {
        return open;
    }
    let i = closed.partition_point(|row| row.end_t <= t);
    closed.get_mut(i).unwrap_or(open)
}

/// Analyzes a parsed trace in one pass ([`Analyzer`], whose event-order
/// precondition applies). Reconstruction of the instance (for level
/// heatmaps and frontier lags) is attempted from the meta line and
/// silently skipped when impossible — everything derivable from the
/// event stream alone is always present.
pub fn analyze(trace: &Trace) -> Analysis {
    analyze_with(trace, trace.meta().and_then(|m| reconstruct(m).ok()))
}

/// [`analyze`] against an instance the caller has already rebuilt, or
/// none.
pub fn analyze_with(trace: &Trace, instance: Option<VerifiedInstance>) -> Analysis {
    let mut analyzer = Analyzer::new(instance);
    for ev in &trace.events {
        analyzer.push(ev);
    }
    analyzer.finish()
}

/// Counts per distinct value: `(value, multiplicity)`, ascending by value.
fn histogram(values: &[u32]) -> Vec<(u32, u32)> {
    let mut sorted: Vec<u32> = values.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for v in sorted {
        match out.last_mut() {
            Some((val, count)) if *val == v => *count += 1,
            _ => out.push((v, 1)),
        }
    }
    out
}

impl Analysis {
    /// Deflections-per-packet histogram over the packet universe:
    /// `(deflections, packets)` pairs, ascending.
    pub fn deflection_histogram(&self) -> Vec<(u32, u32)> {
        let per_packet: Vec<u32> = self.timelines.iter().map(|t| t.deflections).collect();
        histogram(&per_packet)
    }

    /// Deflections by the level of the node each loser departed, summed
    /// over the phase rows (empty when the instance was unknown).
    pub fn deflections_by_level(&self) -> Vec<u64> {
        let levels = self
            .phases
            .first()
            .map_or(0, |r| r.deflections_by_level.len());
        let mut out = vec![0; levels];
        for row in &self.phases {
            for (cell, n) in out.iter_mut().zip(&row.deflections_by_level) {
                *cell += n;
            }
        }
        out
    }

    /// Phases of the router's schedule: one per phase row of a
    /// [`phased`](Analysis::phased) trace, 0 for a phase-less one.
    pub fn schedule_phases(&self) -> u64 {
        if self.phased {
            self.phases.len() as u64
        } else {
            0
        }
    }

    /// Deflections per phase of the router's schedule (a phase-less run:
    /// one whole-run cell once it deflected, none before).
    pub fn deflections_by_phase(&self) -> Vec<u64> {
        if self.phased {
            self.phases.iter().map(|r| r.deflections).collect()
        } else if self.deflections > 0 {
            vec![self.deflections]
        } else {
            Vec::new()
        }
    }

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

    /// Renders the analysis as a JSON report.
    pub fn to_json(&self) -> Value {
        let lat = &self.latencies;
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
                "p50": nearest_rank(lat, 0.50).unwrap_or(0),
                "p90": nearest_rank(lat, 0.90).unwrap_or(0),
                "p99": nearest_rank(lat, 0.99).unwrap_or(0),
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
                "arrival_latency_p50": nearest_rank(&self.arrival_latencies, 0.50).unwrap_or(0),
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

/// The metrics document of one run (`route --metrics-out`, `tables
/// metricsjson`): the occupancy, frame-progress and congestion series of
/// `metrics`, and every count from `a`, a live [`Analyzer`] fold
/// of the same run.
pub fn metrics_json(metrics: &MetricsObserver, a: &Analysis) -> Value {
    let histogram: Vec<Value> = a
        .deflection_histogram()
        .into_iter()
        .map(|(deflections, packets)| json!({ "deflections": deflections, "packets": packets }))
        .collect();
    let frame_progress: Vec<Value> = metrics
        .frame_progress()
        .iter()
        .map(|row| {
            json!({
                "phase": row.phase,
                "set": row.set,
                "frontier": row.frontier,
                "max_level": row.max_level,
                "in_flight": row.in_flight,
            })
        })
        .collect();
    let series: Vec<Value> = metrics
        .occupancy_series()
        .iter()
        .map(|(t, levels)| json!({ "t": t, "levels": levels }))
        .collect();
    let watermarks = metrics.congestion_watermarks();
    json!({
        "packets": metrics.packets(),
        "steps": a.steps,
        "delivered": a.deliveries,
        "trivial_deliveries": a.trivial,
        "phases": a.schedule_phases(),
        "deflections": json!({
            "total": a.deflections,
            "safe": a.safe_deflections,
            "unsafe": a.deflections - a.safe_deflections,
            "per_packet_histogram": histogram,
            "by_level": a.deflections_by_level(),
            "by_phase": a.deflections_by_phase(),
        }),
        "occupancy": json!({
            "packet_steps_by_level": metrics.level_packet_steps(),
            "watermark_by_level": metrics.level_watermarks(),
            "series": series,
        }),
        "injection": json!({ "arrivals": a.arrivals, "drops": a.drops }),
        "frame_progress": frame_progress,
        "congestion": json!({
            "num_sets": metrics.num_sets(),
            "initial_per_set": metrics.congestion_initial(),
            "watermark_per_set": watermarks,
            "watermark_max": watermarks.iter().copied().max().unwrap_or(0),
            "ln_ln_bound": metrics.ln_ln_bound(),
        }),
    })
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
    let (lat_a, lat_b) = (&a.latencies, &b.latencies);
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
            nearest_rank(lat_a, 0.5).unwrap_or(0),
            nearest_rank(lat_b, 0.5).unwrap_or(0),
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
            nearest_rank(&a.arrival_latencies, 0.5).unwrap_or(0),
            nearest_rank(&b.arrival_latencies, 0.5).unwrap_or(0),
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
    use hotpotato_sim::{RouteObserver, StepReport};
    use leveled_net::{builders, NodeId};
    use routing_core::{Path, RoutingProblem};
    use std::sync::Arc;

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
    fn latency_percentiles_are_nearest_rank() {
        // Four packets injected at step 0 and delivered at steps 1..=4:
        // in-flight latencies [1, 2, 3, 4], whose nearest-rank median
        // (rank ceil(0.5 * 4) = 2) is 2, as `route --json` reports it.
        let mut lines = Vec::new();
        for p in 0..4 {
            lines.push(format!(
                r#"{{"ev":"move","t":0,"pkt":{p},"edge":{p},"dir":"F","kind":"inj"}}"#
            ));
        }
        for p in 0..4 {
            lines.push(format!(r#"{{"ev":"deliver","t":{},"pkt":{p}}}"#, p + 1));
        }
        let trace = Trace::parse(&(lines.join("\n") + "\n")).unwrap();
        let a = analyze(&trace);
        assert_eq!(a.latencies, vec![1, 2, 3, 4]);
        let report = a.to_json();
        assert_eq!(report["latency"]["p50"].as_u64(), Some(2));
        assert_eq!(report["latency"]["p90"].as_u64(), Some(4));
        let rows = diff(&a, &a);
        let p50 = rows["rows"]
            .as_array()
            .unwrap()
            .iter()
            .find(|r| r["metric"] == "latency_p50")
            .unwrap();
        assert_eq!(p50["a"].as_u64(), Some(2));
    }

    #[test]
    fn histogram_run_length_encodes_sorted_values() {
        assert_eq!(histogram(&[]), vec![]);
        assert_eq!(histogram(&[3]), vec![(3, 1)]);
        assert_eq!(histogram(&[2, 0, 2, 1, 2, 0]), vec![(0, 2), (1, 1), (2, 3)]);
    }

    /// A hand-built 3-level line (4 nodes, depth 3) with two packets
    /// walking the full chain, plus the chain's forward moves.
    fn three_level_problem() -> (Arc<RoutingProblem>, Vec<DirectedEdge>) {
        let net = Arc::new(builders::linear_array(4));
        let mut moves = Vec::new();
        let mut at = NodeId(0);
        for _ in 0..3 {
            let mv = net
                .exits(at)
                .find(|m| m.dir == Direction::Forward)
                .expect("line node has a forward exit");
            moves.push(mv);
            at = net.move_target(mv);
        }
        let edges: Vec<_> = moves.iter().map(|m| m.edge).collect();
        let paths = vec![
            Path::new(&net, NodeId(0), edges.clone()).unwrap(),
            Path::new(&net, NodeId(0), edges).unwrap(),
        ];
        // Relaxed: both packets share the source node.
        let prob = Arc::new(RoutingProblem::new_relaxed(net, paths));
        (prob, moves)
    }

    fn live(prob: &Arc<RoutingProblem>) -> (MetricsObserver, Analyzer) {
        (
            MetricsObserver::new(prob),
            Analyzer::new(Some(VerifiedInstance::of(prob))),
        )
    }

    fn step(o: &mut impl RouteObserver, t: Time) {
        o.on_step_end(t, &StepReport::default(), 0);
    }

    #[test]
    fn live_analysis_counts_deflections_by_packet_level_and_kind() {
        let (prob, mv) = three_level_problem();
        let mut o = live(&prob);
        o.on_move(0, 0, mv[0], ExitKind::Inject);
        step(&mut o, 0);
        o.on_move(1, 0, mv[1], ExitKind::Advance);
        o.on_move(1, 1, mv[0], ExitKind::Inject);
        step(&mut o, 1);
        // Packet 0 safely deflected back from level 2 to level 1.
        o.on_move(
            2,
            0,
            DirectedEdge::backward(mv[1].edge),
            ExitKind::Deflect { safe: true },
        );
        step(&mut o, 2);
        o.on_move(3, 0, mv[1], ExitKind::Advance);
        o.on_move(3, 1, mv[1], ExitKind::Advance);
        step(&mut o, 3);
        o.on_move(4, 0, mv[2], ExitKind::Advance);
        o.on_move(4, 1, mv[2], ExitKind::Advance);
        o.on_deliver(5, 0);
        o.on_deliver(5, 1);
        step(&mut o, 4);

        let (metrics, analyzer) = o;
        let a = analyzer.finish();
        assert_eq!(a.deflection_histogram(), vec![(0, 1), (1, 1)]);
        assert_eq!(a.safe_deflections, 1);
        assert_eq!(a.deflections - a.safe_deflections, 0);
        // Deflected *from* level 2.
        assert_eq!(a.deflections_by_level(), vec![0, 0, 1, 0]);
        // No phase events: no schedule phases, one whole-run cell.
        assert_eq!(a.schedule_phases(), 0);
        assert_eq!(a.deflections_by_phase(), vec![1]);
        let doc = metrics_json(&metrics, &a);
        assert_eq!(doc["steps"].as_u64(), Some(5));
        assert_eq!(doc["delivered"].as_u64(), Some(2));
        assert_eq!(doc["deflections"]["by_phase"], json!([1]));
        assert_eq!(doc["occupancy"]["watermark_by_level"], json!([0, 2, 2, 0]));
    }

    #[test]
    fn phaseless_runs_without_deflections_have_no_phase_cells() {
        let (prob, mv) = three_level_problem();
        let mut o = live(&prob);
        o.on_move(0, 0, mv[0], ExitKind::Inject);
        step(&mut o, 0);
        let (metrics, analyzer) = o;
        let a = analyzer.finish();
        assert!(!a.phased);
        assert_eq!(a.phases.len(), 1, "the fold still makes up one row");
        let doc = metrics_json(&metrics, &a);
        assert_eq!(doc["phases"].as_u64(), Some(0));
        assert_eq!(doc["deflections"]["by_phase"], json!([]));
    }

    #[test]
    fn phased_runs_count_deflections_per_schedule_phase() {
        let (prob, mv) = three_level_problem();
        let mut o = live(&prob);
        o.on_phase_start(0, 0);
        o.on_move(0, 0, mv[0], ExitKind::Inject);
        step(&mut o, 0);
        o.on_phase_end(0, 1);
        o.on_phase_start(1, 1);
        o.on_move(
            1,
            0,
            DirectedEdge::backward(mv[0].edge),
            ExitKind::Deflect { safe: false },
        );
        step(&mut o, 1);
        let a = o.1.finish();
        assert!(a.phased);
        assert_eq!(a.schedule_phases(), 2);
        assert_eq!(a.deflections_by_phase(), vec![0, 1]);
        assert_eq!(a.deflections - a.safe_deflections, 1);
    }

    #[test]
    fn metrics_document_survives_a_zero_packet_problem() {
        let net = Arc::new(builders::linear_array(4));
        let prob = Arc::new(RoutingProblem::new(net, Vec::new()).unwrap());
        let mut o = live(&prob);
        o.on_sets_assigned(&[], 4);
        o.on_phase_start(0, 0);
        o.on_frontier(0, 0, 2);
        step(&mut o, 0);
        o.on_phase_end(0, 1);
        let (metrics, analyzer) = o;
        let a = analyzer.finish();
        assert_eq!(a.deflection_histogram(), vec![]);
        let doc = metrics_json(&metrics, &a);
        assert_eq!(doc.get("packets").and_then(Value::as_u64), Some(0));
        assert_eq!(
            doc.get("congestion")
                .and_then(|c| c.get("watermark_max"))
                .and_then(Value::as_u64),
            Some(0)
        );
    }

    #[test]
    fn metrics_document_survives_a_single_level_network() {
        let net = Arc::new(builders::linear_array(1));
        let prob = Arc::new(RoutingProblem::new(net, vec![Path::trivial(NodeId(0))]).unwrap());
        let mut o = live(&prob);
        o.on_trivial(0, 0);
        step(&mut o, 0);
        let (metrics, analyzer) = o;
        let doc = metrics_json(&metrics, &analyzer.finish());
        assert_eq!(
            doc.get("trivial_deliveries").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(doc.get("delivered").and_then(Value::as_u64), Some(1));
        assert!(doc["congestion"]["ln_ln_bound"]
            .as_f64()
            .unwrap()
            .is_finite());
    }

    #[test]
    fn metrics_document_survives_stray_set_ids() {
        let (prob, mv) = three_level_problem();
        let mut o = live(&prob);
        o.on_sets_assigned(&[0, 0], 4);
        o.on_phase_start(0, 0);
        o.on_frontier(0, 9, 5);
        o.on_set_congestion(0, 9, 1, 1);
        o.on_move(0, 0, mv[0], ExitKind::Inject);
        step(&mut o, 0);
        o.on_phase_end(0, 1);
        let (metrics, analyzer) = o;
        let doc = metrics_json(&metrics, &analyzer.finish());
        assert!(doc.get("congestion").is_some());
        assert_eq!(
            doc["congestion"]["watermark_per_set"]
                .as_array()
                .unwrap()
                .len(),
            10
        );
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
