//! The trace wire types and the one hook→event mapping.
//!
//! A trace is the engine's event stream written down: one [`TraceEvent`]
//! per observer hook, framed by a [`Meta`] envelope line first (instance
//! specs + seed, enough to rebuild the [`RoutingProblem`] offline) and a
//! [`StatsLine`] last (the run's final [`RouteStats`]). The types live
//! here, next to the [`RouteObserver`](crate::RouteObserver) trait whose
//! hooks they record; `hotpotato_trace::schema` re-exports them and owns
//! their strict parsing, and [`crate::jsonl`] renders them.
//!
//! [`observe_as_events!`](crate::observe_as_events) is the only place a
//! hook is mapped to a [`TraceEvent`]. A sink implements [`EventSink`]
//! ("take one event") and invokes the macro to become a full observer:
//! the in-memory `hotpotato_trace::Trace` and the JSONL writer
//! [`JsonlTraceObserver`](crate::JsonlTraceObserver) are both built this
//! way, so they cannot disagree on what a hook means.
//!
//! The token streams of `Meta`, `StatsLine`, `TraceEvent` and `Rollup`,
//! and the value of [`SCHEMA_VERSION`], are pinned by the schema-drift
//! lint (`cargo xtask lint`): changing a field without bumping the
//! version fails CI.

use crate::soa::ExitKind;
use crate::stats::{RouteStats, Time};
use leveled_net::{Direction, EdgeId};
use routing_core::spec::RunSpec;
use routing_core::RoutingProblem;
use serde::Value;

/// The trace schema version carried by the `meta` line and the live
/// [`Rollup`] envelope. Bump when any event's field set changes.
///
/// Version history: 1 = the original JSONL trace format; 2 = adds the
/// `Rollup` envelope served by `hotpotato serve` (trace lines are
/// unchanged, but the version is shared so one fingerprint pins both);
/// 3 = streaming mode: the `meta` line gains the `arrival` field (the
/// arrival-process spec, empty for batch runs) and the `arrival` /
/// `drop` injection events are added; 4 = trace pipeline: the
/// `snapshot` phase-entry checkpoint event is added and the binary
/// `.hpt` framing (`hotpotato_trace::binary`) is pinned to the same
/// version — its wire layout is fingerprinted alongside this file by
/// `cargo xtask lint`; 5 = the in-memory layout shrinks (the `meta`,
/// `snapshot` and `stats` variants are boxed and the `step` counters
/// become `u32`, so a `step` counter past `u32::MAX` is now an error):
/// the JSONL and `.hpt` bytes are those of version 4 apart from the
/// version number.
pub const SCHEMA_VERSION: u64 = 5;

/// The `meta` envelope line: everything needed to rebuild the instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Meta {
    /// Trace schema version (must equal [`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Topology spec (`routing_core::spec` grammar).
    pub topo: String,
    /// Workload spec (`routing_core::spec` grammar).
    pub workload: String,
    /// Algorithm name (`busch`, `greedy`, ...).
    pub algo: String,
    /// The run seed (workload generation and routing share one rng).
    pub seed: u64,
    /// Arrival-process spec (`routing_core::workloads::ArrivalProcess`
    /// grammar); empty string = batch mode. A non-empty value marks a
    /// streaming trace: the verifier rebuilds the arrival schedule from
    /// it and enforces the arrival/admission laws.
    pub arrival: String,
    /// Number of packets (cross-checked on reconstruction).
    pub packets: u64,
    /// Number of levels, `L + 1` (cross-checked on reconstruction).
    pub levels: u64,
    /// Instance congestion `C`.
    pub congestion: u64,
    /// Instance dilation `D`.
    pub dilation: u64,
}

impl Meta {
    /// The envelope of a run labelled by `spec` on `problem`: the labels
    /// come from the spec, the packet and level counts, `C` and `D` from
    /// the problem.
    pub fn new(spec: &RunSpec, problem: &RoutingProblem) -> Meta {
        Meta {
            schema: SCHEMA_VERSION,
            topo: spec.topo.clone(),
            workload: spec.workload.clone(),
            algo: spec.algo.clone(),
            seed: spec.seed,
            arrival: spec.arrival.clone().unwrap_or_default(),
            packets: problem.num_packets() as u64,
            levels: problem.network().num_levels() as u64,
            congestion: u64::from(problem.congestion()),
            dilation: u64::from(problem.dilation()),
        }
    }
}

/// The `stats` envelope line: the final per-packet statistics the
/// verifier's reconstructed timelines must match exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsLine {
    /// Total steps the simulation ran.
    pub steps: u64,
    /// Per-packet injection step (`null` = never injected).
    pub injected_at: Vec<Option<Time>>,
    /// Per-packet delivery (arrival) time.
    pub delivered_at: Vec<Option<Time>>,
    /// Per-packet deflection count.
    pub deflections: Vec<u32>,
}

impl From<&RouteStats> for StatsLine {
    fn from(stats: &RouteStats) -> StatsLine {
        StatsLine {
            steps: stats.steps_run,
            injected_at: stats.injected_at.clone(),
            delivered_at: stats.delivered_at.clone(),
            deflections: stats.deflections.clone(),
        }
    }
}

/// The `/rollup/<run>` response document served by `hotpotato serve`: a
/// schema-versioned envelope around one `StreamingAggregator` snapshot
/// (`rollup` holds the aggregator's `to_json()` report verbatim, so a
/// quiesced envelope compares *exactly* equal to the in-process report).
#[derive(Clone, Debug, PartialEq)]
pub struct Rollup {
    /// Envelope schema version (must equal [`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Name of the run the snapshot belongs to.
    pub run: String,
    /// Publisher sequence number (0 = nothing published yet; the seed
    /// snapshot).
    pub seq: u64,
    /// `true` once the run has quiesced: the snapshot is final and exact.
    pub finished: bool,
    /// The aggregator report, exactly as `StreamingAggregator::to_json()`
    /// rendered it.
    pub rollup: Value,
}

/// A `snapshot` checkpoint line: the full verifier-visible state at a
/// phase entry (a step boundary), emitted by the recorder so the trace
/// can be *sharded* — each snapshot seeds an independent verification
/// segment, and the sequential verifier cross-checks every snapshot
/// against its replayed state (the `snapshot-consistency` law).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Phase index this snapshot opens (matches the preceding
    /// `phase_start` line).
    pub phase: u64,
    /// First step of the phase; the replayed clock must agree.
    pub t: Time,
    /// Per-packet lifecycle code: 0 = pending, 1 = arrived (streaming,
    /// not yet injected), 2 = dropped, 3 = in flight, 4 = delivered.
    pub state: Vec<u32>,
    /// Current node of each in-flight (`state == 3`) packet, in packet
    /// order.
    pub nodes: Vec<u32>,
    /// Edges crossed forward in the step just before the boundary (the
    /// arrival pool the safe-deflection-recycling law checks against).
    pub prev_forward: Vec<u32>,
    /// Cumulative move count at the boundary.
    pub moves: u64,
    /// Cumulative forward crossings.
    pub forward: u64,
    /// Cumulative backward crossings.
    pub backward: u64,
    /// Cumulative deflections.
    pub deflections: u64,
    /// Cumulative oscillation moves.
    pub oscillations: u64,
    /// Cumulative trivial deliveries.
    pub trivial: u64,
    /// Frontier-set count from the `sets` line (0 = not assigned yet).
    pub num_sets: u32,
}

/// One trace line.
///
/// Moves are over 90% of a trace, so the variant size is the trace's
/// memory: the three envelope variants, which occur once per trace or
/// once per phase, are boxed, and the `step` counters are `u32` (each is
/// bounded by the packet count, and packet ids are `u32` already).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Envelope: instance identification (first line).
    Meta(Box<Meta>),
    /// A packet crossed an edge.
    Move {
        /// Staging step.
        t: Time,
        /// Packet index.
        pkt: u32,
        /// Edge crossed.
        edge: EdgeId,
        /// Traversal direction.
        dir: Direction,
        /// Caller-declared kind.
        kind: ExitKind,
    },
    /// A trivial (source == destination) delivery.
    Trivial {
        /// Step of delivery.
        t: Time,
        /// Packet index.
        pkt: u32,
    },
    /// An absorption at the destination (arrival time, staging step + 1).
    Deliver {
        /// Arrival time.
        t: Time,
        /// Packet index.
        pkt: u32,
    },
    /// Streaming: the packet became available for injection (its
    /// arrival-process step was reached).
    Arrival {
        /// Arrival step.
        t: Time,
        /// Packet index.
        pkt: u32,
    },
    /// Streaming: admission control dropped the packet (the injection
    /// queue was full); it is never injected.
    Drop {
        /// Drop step.
        t: Time,
        /// Packet index.
        pkt: u32,
    },
    /// A step completed.
    Step {
        /// The step.
        t: Time,
        /// Packets that moved (including injections).
        moved: u32,
        /// Packets absorbed.
        absorbed: u32,
        /// Packets injected.
        injected: u32,
        /// Deflections (safe + fallback).
        deflections: u32,
        /// Fallback (unsafe) deflections.
        fallback: u32,
        /// Oscillation moves.
        oscillations: u32,
        /// In-flight count after absorption.
        active: u32,
    },
    /// Frontier-set assignment.
    Sets {
        /// Number of frontier sets.
        num_sets: u32,
        /// Set of each packet.
        sets: Vec<u32>,
    },
    /// A phase began.
    PhaseStart {
        /// Phase index.
        phase: u64,
        /// First step of the phase.
        t: Time,
    },
    /// A phase ended.
    PhaseEnd {
        /// Phase index.
        phase: u64,
        /// First step after the phase.
        t: Time,
    },
    /// Theoretical frontier announcement.
    Frontier {
        /// Phase.
        phase: u64,
        /// Frontier set.
        set: u32,
        /// `φ_i(k) = k − i·m`.
        frontier: i64,
    },
    /// Phase-end congestion audit.
    Congestion {
        /// Phase.
        phase: u64,
        /// Frontier set.
        set: u32,
        /// Audited current-path congestion.
        congestion: u32,
        /// The set's preselected-path congestion.
        initial: u32,
    },
    /// Section timing sample.
    Section {
        /// Section name (`conflict`, `kinematics`, `audit`, `injection`).
        section: String,
        /// Nanoseconds spent.
        nanos: u64,
    },
    /// Phase-entry state checkpoint (see [`Snapshot`]).
    Snapshot(Box<Snapshot>),
    /// Envelope: final run statistics (last line).
    Stats(Box<StatsLine>),
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 40);

impl TraceEvent {
    /// The `ev` discriminator this event serializes under.
    pub fn ev(&self) -> &'static str {
        match self {
            TraceEvent::Meta(_) => "meta",
            TraceEvent::Move { .. } => "move",
            TraceEvent::Trivial { .. } => "trivial",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Step { .. } => "step",
            TraceEvent::Sets { .. } => "sets",
            TraceEvent::PhaseStart { .. } => "phase_start",
            TraceEvent::PhaseEnd { .. } => "phase_end",
            TraceEvent::Frontier { .. } => "frontier",
            TraceEvent::Congestion { .. } => "congestion",
            TraceEvent::Section { .. } => "section",
            TraceEvent::Snapshot(_) => "snapshot",
            TraceEvent::Stats(_) => "stats",
        }
    }
}

/// A consumer of the engine's event stream, one [`TraceEvent`] at a
/// time, in emission order. [`observe_as_events!`](crate::observe_as_events)
/// turns a sink into a [`RouteObserver`](crate::RouteObserver).
pub trait EventSink {
    /// Takes the next event.
    fn event(&mut self, ev: TraceEvent);
}

/// Implements [`RouteObserver`](crate::RouteObserver) for an
/// [`EventSink`] by handing each hook to the sink as the [`TraceEvent`]
/// that `hotpotato_trace::schema::parse_line` reads back from the line
/// [`crate::jsonl::push_event`] renders for it. This is the one
/// hook→event mapping: every event-shaped sink goes through it.
///
/// The sink keeps the default [`wants_timing`] (`false`), so it records
/// `section` events only when paired with an observer that asks for
/// timing. Generic sinks list their parameters in brackets first:
///
/// ```ignore
/// hotpotato_sim::observe_as_events!(Trace);
/// hotpotato_sim::observe_as_events!([W: Write] JsonlTraceObserver<W>);
/// ```
///
/// [`wants_timing`]: crate::RouteObserver::wants_timing
#[macro_export]
macro_rules! observe_as_events {
    ([$($generics:tt)*] $sink:ty) => {
        // The block scopes the `EventSink` import the hooks call through.
        // The hooks the engine calls per move or step are always inlined,
        // so a sink's event glue lands in the engine's loop as
        // hand-written hooks did (measured on the JSONL writer).
        const _: () = {
            use $crate::EventSink as _;
            use $crate::TraceEvent as Ev;

            impl<$($generics)*> $crate::RouteObserver for $sink {
                #[inline(always)]
                fn on_move(
                    &mut self,
                    t: $crate::Time,
                    pkt: u32,
                    mv: $crate::DirectedEdge,
                    kind: $crate::ExitKind,
                ) {
                    let (edge, dir) = (mv.edge, mv.dir);
                    self.event(Ev::Move { t, pkt, edge, dir, kind });
                }

                #[inline(always)]
                fn on_trivial(&mut self, t: $crate::Time, pkt: u32) {
                    self.event(Ev::Trivial { t, pkt });
                }

                #[inline(always)]
                fn on_deliver(&mut self, t: $crate::Time, pkt: u32) {
                    self.event(Ev::Deliver { t, pkt });
                }

                #[inline(always)]
                fn on_step_end(&mut self, t: $crate::Time, r: &$crate::StepReport, active: usize) {
                    self.event(Ev::Step {
                        t,
                        moved: r.moved as u32,
                        absorbed: r.absorbed as u32,
                        injected: r.injected as u32,
                        deflections: r.deflections as u32,
                        fallback: r.fallback_deflections as u32,
                        oscillations: r.oscillations as u32,
                        active: active as u32,
                    });
                }

                #[inline(always)]
                fn on_arrival(&mut self, t: $crate::Time, pkt: u32) {
                    self.event(Ev::Arrival { t, pkt });
                }

                #[inline(always)]
                fn on_drop(&mut self, t: $crate::Time, pkt: u32) {
                    self.event(Ev::Drop { t, pkt });
                }

                fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
                    let sets = sets.to_vec();
                    self.event(Ev::Sets { num_sets, sets });
                }

                #[inline(always)]
                fn on_phase_start(&mut self, phase: u64, t: $crate::Time) {
                    self.event(Ev::PhaseStart { phase, t });
                }

                #[inline(always)]
                fn on_phase_end(&mut self, phase: u64, t: $crate::Time) {
                    self.event(Ev::PhaseEnd { phase, t });
                }

                #[inline(always)]
                fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {
                    self.event(Ev::Frontier { phase, set, frontier });
                }

                #[inline(always)]
                fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {
                    self.event(Ev::Congestion { phase, set, congestion, initial });
                }

                fn on_section(&mut self, section: $crate::Section, nanos: u64) {
                    let section = section.name().to_string();
                    self.event(Ev::Section { section, nanos });
                }
            }
        };
    };
    ($sink:ty) => {
        $crate::observe_as_events!([] $sink);
    };
}
