//! Structured observability: event sinks for the routing engine.
//!
//! The paper's analysis is a chain of *quantitative* claims — per
//! frontier-set congestion stays below `ln(LN)` (Lemma 2.2), frame
//! frontiers advance as `φ_i(k) = k − i·m`, deflections are bounded per
//! phase — but an end-of-run [`crate::RouteStats`] cannot show any of
//! them. This module defines [`RouteObserver`], an event-sink trait the
//! engine and the routers feed as the run unfolds, plus three concrete
//! sinks:
//!
//! * [`MetricsObserver`] — what only positions at step and phase ends
//!   show: per-level occupancy over time, frame progress against the
//!   theoretical frontier, and per-set congestion watermarks. Counts of
//!   steps, moves, deliveries and deflections are not kept here: the
//!   trace crate's `Analyzer` (an [`EventSink`], so it runs live beside
//!   this observer) and `StreamingAggregator` already count them;
//! * [`JsonlTraceObserver`] — streams every event as one JSON line to any
//!   [`std::io::Write`] sink, for offline analysis. It is an
//!   [`EventSink`]: its hooks are [`crate::observe_as_events!`]'s one
//!   hook→[`TraceEvent`] mapping, and [`jsonl::push_event`] renders each
//!   event;
//! * [`SectionProfiler`] — accumulates wall time per router section
//!   (conflict resolution vs. kinematics vs. audits vs. injection).
//!
//! # Zero cost when disabled
//!
//! [`SoaEngine`](crate::SoaEngine) takes the observer as a generic
//! parameter defaulting to [`NoopObserver`]. Every hook has an inline
//! empty default body, so with `NoopObserver` the monomorphized engine
//! contains no observer code at all — the golden-equivalence tests and
//! the PERF baseline hold byte-for-byte and within noise respectively.
//! The only conditional hook is timing ([`RouteObserver::wants_timing`]),
//! which routers consult once per run before reaching for the clock.
//!
//! The trait is object-safe: algorithm-agnostic drivers can take a
//! `&mut dyn RouteObserver` (see [`crate::Router`]).

use crate::event::{EventSink, TraceEvent};
use crate::jsonl::{self, SnapshotCounts};
use crate::soa::{ExitKind, StepReport};
use crate::stats::Time;
use leveled_net::ids::DirectedEdge;
use leveled_net::{Direction, Level, LeveledNetwork, NodeId};
use routing_core::RoutingProblem;
use std::io::Write;
use std::sync::Arc;

/// Router sections timed by [`RouteObserver::on_section`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Section {
    /// Building contenders and resolving edge conflicts.
    Conflict,
    /// Applying staged moves and rebuilding arrivals
    /// ([`SoaEngine::finish_step`](crate::SoaEngine::finish_step)).
    Kinematics,
    /// Phase-end invariant audits.
    Audit,
    /// The injection agenda scan.
    Injection,
}

impl Section {
    /// All sections, in reporting order.
    pub const ALL: [Section; 4] = [
        Section::Conflict,
        Section::Kinematics,
        Section::Audit,
        Section::Injection,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Section::Conflict => "conflict",
            Section::Kinematics => "kinematics",
            Section::Audit => "audit",
            Section::Injection => "injection",
        }
    }

    #[inline]
    fn index(self) -> usize {
        match self {
            Section::Conflict => 0,
            Section::Kinematics => 1,
            Section::Audit => 2,
            Section::Injection => 3,
        }
    }
}

/// Event sink for a routing run.
///
/// The engine emits the packet-movement events (`on_move`, `on_trivial`,
/// `on_deliver`, `on_step_end`); phase-structured routers such as
/// `BuschRouter` additionally emit the schedule events (`on_phase_start`,
/// `on_frontier`, `on_set_congestion`, …). Every method has an inline
/// no-op default, so implementors override only what they consume and the
/// [`NoopObserver`] compiles away entirely.
///
/// Times follow the engine convention: a move carries the step `t` it was
/// staged in; a delivery carries the arrival time `t + 1` (matching
/// `RouteStats::delivered_at`).
#[allow(unused_variables)]
pub trait RouteObserver {
    /// A packet crossed an edge this step (`ExitKind::Inject` is the
    /// injection move out of the source).
    #[inline]
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {}

    /// A packet with a trivial path (source == destination) was delivered
    /// without entering the network.
    #[inline]
    fn on_trivial(&mut self, t: Time, pkt: u32) {}

    /// A packet was absorbed at its destination (time is the arrival time,
    /// i.e. staging step + 1).
    #[inline]
    fn on_deliver(&mut self, t: Time, pkt: u32) {}

    /// A step completed; `active` is the in-flight count after absorption.
    #[inline]
    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {}

    /// Streaming mode: packet `pkt` *arrived* at step `t` — it became
    /// available for injection per the run's arrival process. Batch runs
    /// never emit this (every packet is implicitly available at step 0).
    #[inline]
    fn on_arrival(&mut self, t: Time, pkt: u32) {}

    /// Streaming mode: admission control *dropped* packet `pkt` at step
    /// `t` (the deferred queue was full). A dropped packet is never
    /// injected and counts as undelivered in the final statistics.
    #[inline]
    fn on_drop(&mut self, t: Time, pkt: u32) {}

    /// The router assigned packets to frontier sets.
    #[inline]
    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {}

    /// A phase began at step `t`.
    #[inline]
    fn on_phase_start(&mut self, phase: u64, t: Time) {}

    /// A phase ended; `t` is the first step of the next phase.
    #[inline]
    fn on_phase_end(&mut self, phase: u64, t: Time) {}

    /// The theoretical frontier `φ_i(k) = k − i·m` of frontier-set `set`
    /// for the phase that just began (emitted only while the set's frame
    /// overlaps the network).
    #[inline]
    fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {}

    /// A phase-end audit measured frontier-set `set`'s current-path
    /// congestion (Lemma 2.2 / invariant `I_e` subject); `initial` is the
    /// set's preselected-path congestion. Emitted only when the router
    /// runs audits.
    #[inline]
    fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {}

    /// Whether the driver should time sections and call
    /// [`RouteObserver::on_section`]. Routers read this once per run; the
    /// default `false` lets the timing code vanish for observers that do
    /// not profile.
    #[inline]
    fn wants_timing(&self) -> bool {
        false
    }

    /// `nanos` of wall time were spent in `section` (only emitted when
    /// [`RouteObserver::wants_timing`] returns `true`).
    #[inline]
    fn on_section(&mut self, section: Section, nanos: u64) {}
}

/// The do-nothing observer: the default `SoaEngine` parameter. All hooks
/// inline to nothing, so an unobserved run compiles to exactly the code it
/// had before the observability layer existed.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoopObserver;

impl RouteObserver for NoopObserver {}

/// Forwarding impl so drivers can hold `&mut O` (or `&mut dyn
/// RouteObserver`) and hand it to the engine by value. Always inlined:
/// the forwarding call must not stand between the engine and a sink
/// whose hooks are inlined, such as the JSONL writer.
impl<O: RouteObserver + ?Sized> RouteObserver for &mut O {
    #[inline(always)]
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        (**self).on_move(t, pkt, mv, kind);
    }
    #[inline(always)]
    fn on_trivial(&mut self, t: Time, pkt: u32) {
        (**self).on_trivial(t, pkt);
    }
    #[inline(always)]
    fn on_deliver(&mut self, t: Time, pkt: u32) {
        (**self).on_deliver(t, pkt);
    }
    #[inline(always)]
    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        (**self).on_step_end(t, report, active);
    }
    #[inline(always)]
    fn on_arrival(&mut self, t: Time, pkt: u32) {
        (**self).on_arrival(t, pkt);
    }
    #[inline(always)]
    fn on_drop(&mut self, t: Time, pkt: u32) {
        (**self).on_drop(t, pkt);
    }
    #[inline(always)]
    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
        (**self).on_sets_assigned(sets, num_sets);
    }
    #[inline(always)]
    fn on_phase_start(&mut self, phase: u64, t: Time) {
        (**self).on_phase_start(phase, t);
    }
    #[inline(always)]
    fn on_phase_end(&mut self, phase: u64, t: Time) {
        (**self).on_phase_end(phase, t);
    }
    #[inline(always)]
    fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {
        (**self).on_frontier(phase, set, frontier);
    }
    #[inline(always)]
    fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {
        (**self).on_set_congestion(phase, set, congestion, initial);
    }
    #[inline(always)]
    fn wants_timing(&self) -> bool {
        (**self).wants_timing()
    }
    #[inline(always)]
    fn on_section(&mut self, section: Section, nanos: u64) {
        (**self).on_section(section, nanos);
    }
}

/// Fan-out to two observers (compose with nesting for more).
impl<A: RouteObserver, B: RouteObserver> RouteObserver for (A, B) {
    #[inline]
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        self.0.on_move(t, pkt, mv, kind);
        self.1.on_move(t, pkt, mv, kind);
    }
    #[inline]
    fn on_trivial(&mut self, t: Time, pkt: u32) {
        self.0.on_trivial(t, pkt);
        self.1.on_trivial(t, pkt);
    }
    #[inline]
    fn on_deliver(&mut self, t: Time, pkt: u32) {
        self.0.on_deliver(t, pkt);
        self.1.on_deliver(t, pkt);
    }
    #[inline]
    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        self.0.on_step_end(t, report, active);
        self.1.on_step_end(t, report, active);
    }
    #[inline]
    fn on_arrival(&mut self, t: Time, pkt: u32) {
        self.0.on_arrival(t, pkt);
        self.1.on_arrival(t, pkt);
    }
    #[inline]
    fn on_drop(&mut self, t: Time, pkt: u32) {
        self.0.on_drop(t, pkt);
        self.1.on_drop(t, pkt);
    }
    #[inline]
    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
        self.0.on_sets_assigned(sets, num_sets);
        self.1.on_sets_assigned(sets, num_sets);
    }
    #[inline]
    fn on_phase_start(&mut self, phase: u64, t: Time) {
        self.0.on_phase_start(phase, t);
        self.1.on_phase_start(phase, t);
    }
    #[inline]
    fn on_phase_end(&mut self, phase: u64, t: Time) {
        self.0.on_phase_end(phase, t);
        self.1.on_phase_end(phase, t);
    }
    #[inline]
    fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {
        self.0.on_frontier(phase, set, frontier);
        self.1.on_frontier(phase, set, frontier);
    }
    #[inline]
    fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {
        self.0.on_set_congestion(phase, set, congestion, initial);
        self.1.on_set_congestion(phase, set, congestion, initial);
    }
    #[inline]
    fn wants_timing(&self) -> bool {
        self.0.wants_timing() || self.1.wants_timing()
    }
    #[inline]
    fn on_section(&mut self, section: Section, nanos: u64) {
        self.0.on_section(section, nanos);
        self.1.on_section(section, nanos);
    }
}

/// `Option<O>` forwards to the observer when present — convenient for
/// optional CLI sinks (`--metrics-out` / `--trace-out`).
impl<O: RouteObserver> RouteObserver for Option<O> {
    #[inline]
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        if let Some(o) = self {
            o.on_move(t, pkt, mv, kind);
        }
    }
    #[inline]
    fn on_trivial(&mut self, t: Time, pkt: u32) {
        if let Some(o) = self {
            o.on_trivial(t, pkt);
        }
    }
    #[inline]
    fn on_deliver(&mut self, t: Time, pkt: u32) {
        if let Some(o) = self {
            o.on_deliver(t, pkt);
        }
    }
    #[inline]
    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        if let Some(o) = self {
            o.on_step_end(t, report, active);
        }
    }
    #[inline]
    fn on_arrival(&mut self, t: Time, pkt: u32) {
        if let Some(o) = self {
            o.on_arrival(t, pkt);
        }
    }
    #[inline]
    fn on_drop(&mut self, t: Time, pkt: u32) {
        if let Some(o) = self {
            o.on_drop(t, pkt);
        }
    }
    #[inline]
    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
        if let Some(o) = self {
            o.on_sets_assigned(sets, num_sets);
        }
    }
    #[inline]
    fn on_phase_start(&mut self, phase: u64, t: Time) {
        if let Some(o) = self {
            o.on_phase_start(phase, t);
        }
    }
    #[inline]
    fn on_phase_end(&mut self, phase: u64, t: Time) {
        if let Some(o) = self {
            o.on_phase_end(phase, t);
        }
    }
    #[inline]
    fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {
        if let Some(o) = self {
            o.on_frontier(phase, set, frontier);
        }
    }
    #[inline]
    fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {
        if let Some(o) = self {
            o.on_set_congestion(phase, set, congestion, initial);
        }
    }
    #[inline]
    fn wants_timing(&self) -> bool {
        self.as_ref().is_some_and(RouteObserver::wants_timing)
    }
    #[inline]
    fn on_section(&mut self, section: Section, nanos: u64) {
        if let Some(o) = self {
            o.on_section(section, nanos);
        }
    }
}

/// One frame-progress measurement: where frontier-set `set`'s packets
/// actually were at the end of `phase`, against the theoretical frontier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameProgress {
    /// Phase that just ended.
    pub phase: u64,
    /// Frontier set.
    pub set: u32,
    /// Theoretical frontier `φ_i(k) = k − i·m` at the start of that phase.
    pub frontier: i64,
    /// Highest level reached by any of the set's in-flight packets.
    pub max_level: Level,
    /// The set's in-flight packet count at the phase end.
    pub in_flight: u32,
}

/// The live-only measurements, which need packet positions at step and
/// phase ends: per-level occupancy over time, frame progress against the
/// theoretical frontier, and per-set congestion watermarks. Counts of
/// moves, steps, deliveries and deflections are left to the folds that
/// keep them (see the module docs).
///
/// Tracks packet positions from the move stream, so it works with any
/// router driving the engine; the schedule-aware series (frame progress,
/// congestion watermarks) fill in only when the router emits the
/// corresponding events (the Busch router does).
pub struct MetricsObserver {
    net: Arc<LeveledNetwork>,
    /// Current node per packet (meaningful while `in_network`).
    position: Vec<NodeId>,
    in_network: Vec<bool>,
    /// Live per-level packet count.
    occupancy: Vec<u32>,
    /// Σ over steps of per-level occupancy (packet-steps).
    level_packet_steps: Vec<u64>,
    /// Max per-level occupancy seen at any step end.
    level_watermark: Vec<u32>,
    /// Sample the full occupancy vector every `sample_every` steps
    /// (0 = aggregates only).
    sample_every: u64,
    occupancy_series: Vec<(Time, Vec<u32>)>,
    /// Frontier-set of each packet (empty until `on_sets_assigned`).
    sets: Vec<u32>,
    num_sets: u32,
    /// Last frontier emitted per set.
    frontier: Vec<i64>,
    frame_progress: Vec<FrameProgress>,
    /// Initial per-set congestion (captured from the first audit).
    congestion_initial: Vec<u32>,
    /// Max audited per-set congestion across all phase ends.
    congestion_watermark: Vec<u32>,
}

impl MetricsObserver {
    /// Creates a metrics sink for `problem` (aggregates only; see
    /// [`MetricsObserver::with_occupancy_sampling`]).
    pub fn new(problem: &RoutingProblem) -> Self {
        let net = problem.network_arc();
        let levels = net.num_levels();
        MetricsObserver {
            net,
            position: problem.packets().iter().map(|p| p.path.source()).collect(),
            in_network: vec![false; problem.num_packets()],
            occupancy: vec![0; levels],
            level_packet_steps: vec![0; levels],
            level_watermark: vec![0; levels],
            sample_every: 0,
            occupancy_series: Vec::new(),
            sets: Vec::new(),
            num_sets: 0,
            frontier: Vec::new(),
            frame_progress: Vec::new(),
            congestion_initial: Vec::new(),
            congestion_watermark: Vec::new(),
        }
    }

    /// Additionally records the full per-level occupancy vector every
    /// `every` steps (`0` disables sampling).
    pub fn with_occupancy_sampling(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }

    /// Packets in the instance.
    pub fn packets(&self) -> usize {
        self.position.len()
    }

    /// Live per-level packet count (as of the last event applied).
    pub fn occupancy(&self) -> &[u32] {
        &self.occupancy
    }

    /// Max per-level occupancy observed at any step end.
    pub fn level_watermarks(&self) -> &[u32] {
        &self.level_watermark
    }

    /// Σ over steps of per-level occupancy (packet-steps per level).
    pub fn level_packet_steps(&self) -> &[u64] {
        &self.level_packet_steps
    }

    /// The sampled `(step, per-level occupancy)` series (empty unless
    /// [`MetricsObserver::with_occupancy_sampling`] asked for one).
    pub fn occupancy_series(&self) -> &[(Time, Vec<u32>)] {
        &self.occupancy_series
    }

    /// Frontier sets the router announced (0 before `on_sets_assigned`).
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// The frame-progress series (one row per (phase end, set with
    /// in-flight packets)).
    pub fn frame_progress(&self) -> &[FrameProgress] {
        &self.frame_progress
    }

    /// Per-set congestion watermarks from the phase-end audits (empty if
    /// the router ran without audits).
    pub fn congestion_watermarks(&self) -> &[u32] {
        &self.congestion_watermark
    }

    /// Initial per-set congestion (the Lemma 2.2 quantity), captured from
    /// the first audit.
    pub fn congestion_initial(&self) -> &[u32] {
        &self.congestion_initial
    }

    /// `ln(L·N)` for this run — the Lemma 2.2 bound that the per-set
    /// congestion watermarks are measured against (`L` = network depth,
    /// `N` = packets).
    pub fn ln_ln_bound(&self) -> f64 {
        let l = self.net.depth().max(1) as f64;
        let n = self.position.len().max(1) as f64;
        (l * n).ln()
    }
}

impl RouteObserver for MetricsObserver {
    fn on_move(&mut self, _t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        let i = pkt as usize;
        let target = self.net.move_target(mv);
        if kind == ExitKind::Inject {
            self.in_network[i] = true;
        } else {
            self.occupancy[self.net.level(self.net.move_origin(mv)) as usize] -= 1;
        }
        self.occupancy[self.net.level(target) as usize] += 1;
        self.position[i] = target;
    }

    fn on_deliver(&mut self, _t: Time, pkt: u32) {
        let i = pkt as usize;
        if self.in_network[i] {
            self.in_network[i] = false;
            self.occupancy[self.net.level(self.position[i]) as usize] -= 1;
        }
    }

    // lint: trusted(clones the occupancy vec only on sampled steps, an
    // amortized telemetry cost the hot-path budget accepts)
    fn on_step_end(&mut self, t: Time, _report: &StepReport, _active: usize) {
        for (level, &occ) in self.occupancy.iter().enumerate() {
            self.level_packet_steps[level] += occ as u64;
            if occ > self.level_watermark[level] {
                self.level_watermark[level] = occ;
            }
        }
        if self.sample_every > 0 && t.is_multiple_of(self.sample_every) {
            self.occupancy_series.push((t, self.occupancy.clone()));
        }
    }

    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
        self.sets = sets.to_vec();
        self.num_sets = num_sets;
        self.frontier = vec![i64::MIN; num_sets as usize];
    }

    fn on_phase_end(&mut self, phase: u64, _t: Time) {
        if self.sets.is_empty() {
            return;
        }
        // Per-set (max level, count) over in-flight packets: O(N) per
        // phase end, which is amortized out by the m·w steps per phase.
        let mut max_level = vec![0 as Level; self.num_sets as usize];
        let mut in_flight = vec![0u32; self.num_sets as usize];
        for (i, &inside) in self.in_network.iter().enumerate() {
            if !inside {
                continue;
            }
            let set = self.sets[i] as usize;
            let level = self.net.level(self.position[i]);
            max_level[set] = max_level[set].max(level);
            in_flight[set] += 1;
        }
        for set in 0..self.num_sets as usize {
            if in_flight[set] == 0 {
                continue;
            }
            self.frame_progress.push(FrameProgress {
                phase,
                set: set as u32,
                frontier: self.frontier[set],
                max_level: max_level[set],
                in_flight: in_flight[set],
            });
        }
    }

    fn on_frontier(&mut self, _phase: u64, set: u32, frontier: i64) {
        if let Some(slot) = self.frontier.get_mut(set as usize) {
            *slot = frontier;
        }
    }

    fn on_set_congestion(&mut self, _phase: u64, set: u32, congestion: u32, initial: u32) {
        let want = set as usize + 1;
        if self.congestion_watermark.len() < want {
            self.congestion_watermark.resize(want, 0);
            self.congestion_initial.resize(want, 0);
        }
        self.congestion_initial[set as usize] = initial;
        let slot = &mut self.congestion_watermark[set as usize];
        *slot = (*slot).max(congestion);
    }
}

/// Per-packet lifecycle bookkeeping for phase-entry `snapshot` events
/// (opt-in via [`JsonlTraceObserver::with_snapshots`]). Mirrors exactly
/// what the trace verifier replays, so every emitted checkpoint is
/// audited against an independent reconstruction — and a sharded
/// verifier can seed a mid-trace replay from it.
struct SnapshotTracker {
    net: Arc<LeveledNetwork>,
    /// Lifecycle code per packet: 0 pending, 1 arrived, 2 dropped,
    /// 3 in flight, 4 delivered (the verifier's precedence order).
    state: Vec<u8>,
    /// Current node per packet; meaningful only while `state == 3`.
    node: Vec<u32>,
    counts: SnapshotCounts,
    /// Edges crossed forward in the step being built.
    cur_forward: Vec<u32>,
    /// Edges crossed forward in the last completed step (the
    /// safe-deflection recycling pool a seeded verifier needs).
    prev_forward: Vec<u32>,
}

impl SnapshotTracker {
    fn new(problem: &RoutingProblem) -> Self {
        let n = problem.num_packets();
        SnapshotTracker {
            net: problem.network_arc(),
            state: vec![0; n],
            node: vec![0; n],
            counts: SnapshotCounts::default(),
            cur_forward: Vec::new(),
            prev_forward: Vec::new(),
        }
    }

    /// Applies one event to the per-packet state and the counters.
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Move {
                pkt,
                edge,
                dir,
                kind,
                ..
            } => {
                let p = pkt as usize;
                self.state[p] = 3;
                self.node[p] = self.net.move_target(DirectedEdge { edge, dir }).0;
                self.counts.moves += 1;
                match dir {
                    Direction::Forward => {
                        self.counts.forward += 1;
                        self.cur_forward.push(edge.0);
                    }
                    Direction::Backward => self.counts.backward += 1,
                }
                match kind {
                    ExitKind::Deflect { .. } => self.counts.deflections += 1,
                    ExitKind::Oscillate => self.counts.oscillations += 1,
                    _ => {}
                }
            }
            TraceEvent::Trivial { pkt, .. } => {
                self.state[pkt as usize] = 4;
                self.counts.trivial += 1;
            }
            TraceEvent::Deliver { pkt, .. } => self.state[pkt as usize] = 4,
            TraceEvent::Arrival { pkt, .. } => self.state[pkt as usize] = 1,
            TraceEvent::Drop { pkt, .. } => self.state[pkt as usize] = 2,
            TraceEvent::Step { .. } => {
                std::mem::swap(&mut self.prev_forward, &mut self.cur_forward);
                self.cur_forward.clear();
            }
            TraceEvent::Sets { num_sets, .. } => self.counts.num_sets = num_sets,
            _ => {}
        }
    }

    /// Appends the checkpoint line for the entry of `phase` at step `t`.
    fn push_line(&self, out: &mut String, phase: u64, t: Time) {
        let in_flight = self.state.iter().zip(&self.node).filter(|(&s, _)| s == 3);
        jsonl::push_snapshot(
            out,
            phase,
            t,
            self.state.iter().map(|&s| u32::from(s)),
            in_flight.map(|(_, &node)| node),
            &self.prev_forward,
            &self.counts,
        );
    }
}

/// Streams every event as one JSON object per line (JSON Lines) to a
/// writer. Events carry an `"ev"` discriminator (`move`, `trivial`,
/// `deliver`, `arrival`, `drop`, `step`, `sets`, `phase_start`,
/// `phase_end`, `frontier`, `congestion`, `section`, and — with
/// [`JsonlTraceObserver::with_snapshots`] — `snapshot`). The hooks are
/// [`crate::observe_as_events!`]'s mapping, and every line is rendered
/// by [`jsonl::push_event`].
///
/// Lines accumulate in an internal sized buffer that drains to the
/// writer only when full and at phase/quiesce boundaries
/// ([`RouteObserver::on_phase_end`] / [`JsonlTraceObserver::finish`]),
/// so the per-event path never performs I/O.
///
/// Write errors are sticky: the first one stops the stream and is
/// surfaced by [`JsonlTraceObserver::finish`].
pub struct JsonlTraceObserver<W: Write> {
    out: W,
    buf: String,
    err: Option<std::io::Error>,
    snap: Option<SnapshotTracker>,
}

/// Internal buffer size: lines drain to the writer once this many bytes
/// accumulate (or earlier, at a phase/quiesce boundary).
const TRACE_BUF_CAP: usize = 64 * 1024;

impl<W: Write> JsonlTraceObserver<W> {
    /// Wraps `out`. Events are buffered internally (see the type docs),
    /// so `out` does not need its own [`std::io::BufWriter`].
    pub fn new(out: W) -> Self {
        JsonlTraceObserver {
            out,
            buf: String::with_capacity(TRACE_BUF_CAP),
            err: None,
            snap: None,
        }
    }

    /// Like [`JsonlTraceObserver::new`], but also emits a `snapshot`
    /// checkpoint event after every `phase_start` line: the full
    /// per-packet lifecycle/kinematics state, counter totals, and the
    /// forward-arrival pool. Checkpoints let the trace verifier replay
    /// phases independently (sharded verification) and are themselves
    /// audited against the replayed stream.
    pub fn with_snapshots(out: W, problem: &RoutingProblem) -> Self {
        let mut obs = JsonlTraceObserver::new(out);
        obs.snap = Some(SnapshotTracker::new(problem));
        obs
    }

    /// Flushes and returns the writer, or the first write error.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.flush_buf();
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Drains the internal buffer to the writer (after a write error,
    /// discards it).
    fn flush_buf(&mut self) {
        if self.err.is_none() && !self.buf.is_empty() {
            if let Err(e) = self.out.write_all(self.buf.as_bytes()) {
                self.err = Some(e);
            }
        }
        self.buf.clear();
    }

    /// Terminates the line just rendered into the buffer.
    // lint: hot-path
    fn end_line(&mut self) {
        self.buf.push('\n');
        if self.buf.len() >= TRACE_BUF_CAP {
            self.flush_buf();
        }
    }
}

impl<W: Write> EventSink for JsonlTraceObserver<W> {
    // Inlined into each hook, with the line rendered before the tracker
    // sees the event: the hook's variant stays known while it renders, so
    // the hook compiles to its own arm of `push_event`.
    #[inline(always)]
    fn event(&mut self, ev: TraceEvent) {
        jsonl::push_event(&mut self.buf, &ev);
        self.end_line();
        match ev {
            // Phase events leave the tracker's state as it is.
            TraceEvent::PhaseStart { phase, t } => {
                if let Some(tr) = &self.snap {
                    tr.push_line(&mut self.buf, phase, t);
                    self.end_line();
                }
            }
            // Phase boundary: drain the buffer so a crashed or killed run
            // leaves at most one phase of events unwritten.
            TraceEvent::PhaseEnd { .. } => self.flush_buf(),
            _ => {
                if let Some(tr) = &mut self.snap {
                    tr.observe(&ev);
                }
            }
        }
    }
}

crate::observe_as_events!([W: Write] JsonlTraceObserver<W>);

/// Sampling profiler sink: accumulates wall time per router section.
/// Returning `true` from [`RouteObserver::wants_timing`] asks the driver
/// to time its sections and report them via
/// [`RouteObserver::on_section`].
#[derive(Clone, Copy, Default, Debug)]
pub struct SectionProfiler {
    nanos: [u64; 4],
    calls: [u64; 4],
}

impl SectionProfiler {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total nanoseconds attributed to `section`.
    pub fn nanos(&self, section: Section) -> u64 {
        self.nanos[section.index()]
    }

    /// Number of timed intervals attributed to `section`.
    pub fn calls(&self, section: Section) -> u64 {
        self.calls[section.index()]
    }

    /// `(section, total nanos, intervals)` rows in reporting order.
    pub fn rows(&self) -> Vec<(Section, u64, u64)> {
        Section::ALL
            .iter()
            .map(|&s| (s, self.nanos(s), self.calls(s)))
            .collect()
    }

    /// One-line human summary, e.g.
    /// `conflict 1.2ms (54%) · kinematics 0.9ms (41%) · …`.
    pub fn summary(&self) -> String {
        let total: u64 = self.nanos.iter().sum();
        let mut out = String::new();
        for (i, (section, nanos, _)) in self.rows().into_iter().enumerate() {
            if i > 0 {
                out.push_str(" · ");
            }
            let pct = if total > 0 {
                100.0 * nanos as f64 / total as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{} {:.2}ms ({pct:.0}%)",
                section.name(),
                nanos as f64 / 1e6
            ));
        }
        out
    }

    /// Exports the per-section totals as JSON.
    pub fn to_json(&self) -> serde::Value {
        use serde::Serialize as _;
        serde::Value::object(self.rows().into_iter().map(|(section, nanos, calls)| {
            (
                section.name(),
                serde::Value::object([("nanos", nanos.to_json()), ("calls", calls.to_json())]),
            )
        }))
    }
}

impl RouteObserver for SectionProfiler {
    fn wants_timing(&self) -> bool {
        true
    }

    fn on_section(&mut self, section: Section, nanos: u64) {
        self.nanos[section.index()] += nanos;
        self.calls[section.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::StepReport;
    use leveled_net::builders;
    use leveled_net::ids::Direction;
    use routing_core::Path;

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
        // Relaxed: both packets share the source node, which the strict
        // one-injection-port-per-node validation would reject.
        let prob = Arc::new(RoutingProblem::new_relaxed(net, paths));
        (prob, moves)
    }

    fn step(m: &mut MetricsObserver, t: Time, active: usize) {
        m.on_step_end(t, &StepReport::default(), active);
    }

    /// The deflection counts of this run are asserted on the trace
    /// crate's `Analyzer`, which counts them (`analyze.rs` tests).
    #[test]
    fn metrics_tracks_occupancy_and_watermarks() {
        let (prob, mv) = three_level_problem();
        let mut m = MetricsObserver::new(&prob);

        // t=0: packet 0 injected, crossing to level 1.
        m.on_move(0, 0, mv[0], ExitKind::Inject);
        step(&mut m, 0, 1);
        // t=1: packet 0 advances to level 2; packet 1 injected to level 1.
        m.on_move(1, 0, mv[1], ExitKind::Advance);
        m.on_move(1, 1, mv[0], ExitKind::Inject);
        step(&mut m, 1, 2);
        // t=2: packet 0 safely deflected back level 2 → 1 while packet 1
        // waits in place (buffered-engine style: no move event).
        m.on_move(
            2,
            0,
            DirectedEdge::backward(mv[1].edge),
            ExitKind::Deflect { safe: true },
        );
        step(&mut m, 2, 2);
        // t=3..: both walk out and are absorbed at level 3.
        m.on_move(3, 0, mv[1], ExitKind::Advance);
        m.on_move(3, 1, mv[1], ExitKind::Advance);
        step(&mut m, 3, 2);
        m.on_move(4, 0, mv[2], ExitKind::Advance);
        m.on_move(4, 1, mv[2], ExitKind::Advance);
        m.on_deliver(5, 0);
        m.on_deliver(5, 1);
        step(&mut m, 4, 0);

        // The deflection moved packet 0 from level 2 back to level 1.
        assert_eq!(m.occupancy(), &[0, 0, 0, 0]);
        // Watermarks: level 1 held both packets at the end of t=2, level 2
        // at the end of t=3; level 3 is absorb-on-arrival, so its
        // occupancy never survives to a step end.
        assert_eq!(m.level_watermarks(), &[0, 2, 2, 0]);
        // Packet-steps: level 1 occupied at t=0 (1), t=1 (1), t=2 (2);
        // level 2 at t=1 (1) and t=3 (2).
        assert_eq!(m.level_packet_steps(), &[0, 4, 3, 0]);
    }

    #[test]
    fn metrics_tracks_congestion_watermarks_and_frame_progress() {
        let (prob, mv) = three_level_problem();
        let mut m = MetricsObserver::new(&prob);
        m.on_sets_assigned(&[0, 1], 2);

        m.on_phase_start(0, 0);
        m.on_frontier(0, 0, 3);
        m.on_frontier(0, 1, 1);
        m.on_move(0, 0, mv[0], ExitKind::Inject);
        m.on_move(0, 1, mv[0], ExitKind::Inject);
        m.on_move(1, 0, mv[1], ExitKind::Advance);
        m.on_set_congestion(0, 0, 2, 2);
        m.on_set_congestion(0, 1, 1, 3);
        m.on_phase_end(0, 2);

        m.on_phase_start(1, 2);
        m.on_set_congestion(1, 0, 1, 2);
        m.on_set_congestion(1, 1, 3, 3);
        m.on_phase_end(1, 4);

        // Initial congestion reflects the audits; watermark is the max
        // audited value per set across phases.
        assert_eq!(m.congestion_initial(), &[2, 3]);
        assert_eq!(m.congestion_watermarks(), &[2, 3]);
        assert!(m.ln_ln_bound() > 0.0);

        // One frame-progress row per (phase end, set with packets in
        // flight), carrying the frontier that phase announced.
        let rows = m.frame_progress();
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows[0],
            FrameProgress {
                phase: 0,
                set: 0,
                frontier: 3,
                max_level: 2,
                in_flight: 1,
            }
        );
        assert_eq!(rows[1].set, 1);
        assert_eq!(rows[1].max_level, 1);
        // No new frontier events in phase 1: the last announced value
        // sticks.
        assert_eq!(rows[2].frontier, 3);
    }

    #[test]
    fn jsonl_trace_emits_one_line_per_event() {
        let (_, mv) = three_level_problem();
        let mut t = JsonlTraceObserver::new(Vec::new());
        t.on_sets_assigned(&[0, 1], 2);
        t.on_phase_start(0, 0);
        t.on_move(0, 7, mv[0], ExitKind::Inject);
        t.on_move(1, 7, mv[1], ExitKind::Deflect { safe: true });
        t.on_trivial(1, 3);
        t.on_deliver(2, 7);
        t.on_step_end(1, &StepReport::default(), 1);
        t.on_phase_end(0, 2);
        let text = String::from_utf8(t.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains("\"ev\":\"sets\""));
        assert!(lines[2].contains("\"kind\":\"inj\""));
        assert!(lines[3].contains("\"kind\":\"def-safe\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn section_profiler_accumulates_per_section() {
        let mut p = SectionProfiler::new();
        assert!(p.wants_timing());
        p.on_section(Section::Conflict, 10);
        p.on_section(Section::Conflict, 5);
        p.on_section(Section::Kinematics, 7);
        assert_eq!(p.nanos(Section::Conflict), 15);
        assert_eq!(p.calls(Section::Conflict), 2);
        assert_eq!(p.nanos(Section::Kinematics), 7);
        assert_eq!(p.nanos(Section::Audit), 0);
        assert!(p.summary().contains("conflict"));
    }

    #[test]
    fn metrics_survives_a_zero_packet_problem() {
        let net = Arc::new(builders::linear_array(4));
        let prob = RoutingProblem::new(net, Vec::new()).unwrap();
        let mut m = MetricsObserver::new(&prob).with_occupancy_sampling(1);
        m.on_sets_assigned(&[], 4);
        m.on_phase_start(0, 0);
        m.on_frontier(0, 0, 2);
        step(&mut m, 0, 0);
        m.on_phase_end(0, 1);
        assert_eq!(m.packets(), 0);
        assert!(m.frame_progress().is_empty());
        assert!(m.congestion_watermarks().is_empty());
        assert!(m.ln_ln_bound().is_finite());
        assert_eq!(m.occupancy_series(), &[(0, vec![0; 4])]);
    }

    #[test]
    fn metrics_survives_a_single_level_network() {
        // One level, zero depth: every path is trivial and `ln(L·N)`
        // degenerates — the bound must stay finite, not NaN or -inf.
        let net = Arc::new(builders::linear_array(1));
        let prob = RoutingProblem::new(net, vec![Path::trivial(NodeId(0))]).unwrap();
        let mut m = MetricsObserver::new(&prob);
        m.on_trivial(0, 0);
        step(&mut m, 0, 0);
        assert!(m.ln_ln_bound().is_finite());
        assert_eq!(m.level_watermarks(), &[0]);
        assert_eq!(m.level_packet_steps(), &[0]);
    }

    #[test]
    fn metrics_survives_empty_frontier_sets_and_stray_set_ids() {
        let (prob, mv) = three_level_problem();
        let mut m = MetricsObserver::new(&prob);
        // Both packets land in set 0; sets 1..3 stay empty forever.
        m.on_sets_assigned(&[0, 0], 4);
        m.on_phase_start(0, 0);
        // Frontier and audit events for an out-of-range set must not
        // panic (a corrupted or foreign stream can carry them).
        m.on_frontier(0, 9, 5);
        m.on_set_congestion(0, 9, 1, 1);
        m.on_move(0, 0, mv[0], ExitKind::Inject);
        step(&mut m, 0, 1);
        m.on_phase_end(0, 1);
        // Empty sets produce no frame-progress rows; the occupied set
        // reports exactly one.
        let rows: Vec<u32> = m.frame_progress().iter().map(|r| r.set).collect();
        assert_eq!(rows, vec![0]);
        // The stray audit grew the watermark vectors without panicking.
        assert_eq!(m.congestion_watermarks().len(), 10);
        assert_eq!(m.congestion_initial().len(), 10);
    }

    #[test]
    fn noop_and_composite_observers_are_transparent() {
        // The composite forwarding impls must agree on wants_timing.
        assert!(!NoopObserver.wants_timing());
        assert!(!(NoopObserver, NoopObserver).wants_timing());
        assert!((NoopObserver, SectionProfiler::new()).wants_timing());
        assert!(!None::<SectionProfiler>.wants_timing());
        assert!(Some(SectionProfiler::new()).wants_timing());
        let mut opt = Some(SectionProfiler::new());
        opt.on_section(Section::Audit, 3);
        assert_eq!(opt.as_ref().unwrap().nanos(Section::Audit), 3);
    }
}
