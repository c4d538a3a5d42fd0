//! The JSONL trace schema: strict, version-pinned parsing.
//!
//! A trace file is one JSON object per line. The movement lines are
//! written by [`hotpotato_sim::JsonlTraceObserver`]; the CLI wraps them
//! in an *envelope*: a `meta` line first (instance specs + seed, enough
//! to reconstruct the [`routing_core::RoutingProblem`] offline) and a
//! `stats` line last (the run's final [`hotpotato_sim::RouteStats`]).
//!
//! A [`Trace`] is also a [`RouteObserver`]: routed straight into, it
//! records the events [`Trace::parse`] would read back from the
//! observer's lines, without the text in between (the fleet envelope
//! records this way).
//!
//! Parsing is deliberately strict: an unknown `ev` discriminator, a
//! missing field, an extra field, or a wrong `schema` version is an
//! error, not a warning. The schema-stability test in
//! `tests/schema_roundtrip.rs` round-trips every event variant the
//! observer can emit, so renaming a field in the emitter without bumping
//! [`SCHEMA_VERSION`] fails CI.

use crate::scan::{Fields, ScanBuf};
use hotpotato_sim::jsonl::{self, SnapshotCounts};
use hotpotato_sim::{ExitKind, RouteObserver, RouteStats, Section, StepReport, Time};
use leveled_net::ids::DirectedEdge;
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
/// `.hpt` framing (see [`crate::binary`]) is pinned to the same
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
/// schema-versioned envelope around one [`StreamingAggregator`] snapshot
/// (`rollup` holds the aggregator's `to_json()` report verbatim, so a
/// quiesced envelope compares *exactly* equal to the in-process report).
///
/// [`StreamingAggregator`]: crate::StreamingAggregator
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

/// One parsed trace line.
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

/// A parse failure, with the offending line (1-based) once known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 = not yet attributed).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(msg: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        msg: msg.into(),
    }
}

pub use hotpotato_sim::jsonl::kind_name;

fn parse_kind(s: &str) -> Result<ExitKind, ParseError> {
    Ok(match s {
        "adv" => ExitKind::Advance,
        "def-safe" => ExitKind::Deflect { safe: true },
        "def-free" => ExitKind::Deflect { safe: false },
        "osc" => ExitKind::Oscillate,
        "inj" => ExitKind::Inject,
        other => return Err(err(format!("unknown move kind '{other}'"))),
    })
}

/// Parses one trace line, strictly (see the module docs).
// lint: no-panic
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    parse_line_with(line, &mut ScanBuf::default())
}

/// [`parse_line`] with the scan buffers a caller reuses across lines.
fn parse_line_with<'a>(line: &'a str, buf: &mut ScanBuf<'a>) -> Result<TraceEvent, ParseError> {
    let mut f = Fields::scan(line, buf)?;
    let ev = f.str("ev")?;
    let event = match &*ev {
        "meta" => {
            // Check the version before the field set: an old trace
            // should report its version, not a missing v3 field.
            let schema = f.u64("schema")?;
            if schema != SCHEMA_VERSION {
                return Err(err(format!(
                    "unsupported trace schema {schema} (this build reads {SCHEMA_VERSION})"
                )));
            }
            TraceEvent::Meta(Box::new(Meta {
                schema,
                topo: f.str("topo")?.into_owned(),
                workload: f.str("workload")?.into_owned(),
                algo: f.str("algo")?.into_owned(),
                seed: f.u64("seed")?,
                arrival: f.str("arrival")?.into_owned(),
                packets: f.u64("packets")?,
                levels: f.u64("levels")?,
                congestion: f.u64("congestion")?,
                dilation: f.u64("dilation")?,
            }))
        }
        "move" => TraceEvent::Move {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
            edge: EdgeId(f.u32("edge")?),
            dir: match &*f.str("dir")? {
                "F" => Direction::Forward,
                "B" => Direction::Backward,
                other => return Err(err(format!("unknown direction '{other}'"))),
            },
            kind: parse_kind(&f.str("kind")?)?,
        },
        "trivial" => TraceEvent::Trivial {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "deliver" => TraceEvent::Deliver {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "arrival" => TraceEvent::Arrival {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "drop" => TraceEvent::Drop {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "step" => TraceEvent::Step {
            t: f.u64("t")?,
            moved: f.u32("moved")?,
            absorbed: f.u32("absorbed")?,
            injected: f.u32("injected")?,
            deflections: f.u32("deflections")?,
            fallback: f.u32("fallback")?,
            oscillations: f.u32("oscillations")?,
            active: f.u32("active")?,
        },
        "sets" => TraceEvent::Sets {
            num_sets: f.u32("num_sets")?,
            sets: f.u32_array("sets")?,
        },
        "phase_start" => TraceEvent::PhaseStart {
            phase: f.u64("phase")?,
            t: f.u64("t")?,
        },
        "phase_end" => TraceEvent::PhaseEnd {
            phase: f.u64("phase")?,
            t: f.u64("t")?,
        },
        "frontier" => TraceEvent::Frontier {
            phase: f.u64("phase")?,
            set: f.u32("set")?,
            frontier: f.i64("frontier")?,
        },
        "congestion" => TraceEvent::Congestion {
            phase: f.u64("phase")?,
            set: f.u32("set")?,
            congestion: f.u32("congestion")?,
            initial: f.u32("initial")?,
        },
        "section" => TraceEvent::Section {
            section: f.str("section")?.into_owned(),
            nanos: f.u64("nanos")?,
        },
        "snapshot" => TraceEvent::Snapshot(Box::new(Snapshot {
            phase: f.u64("phase")?,
            t: f.u64("t")?,
            state: f.u32_array("state")?,
            nodes: f.u32_array("nodes")?,
            prev_forward: f.u32_array("prev_forward")?,
            moves: f.u64("moves")?,
            forward: f.u64("forward")?,
            backward: f.u64("backward")?,
            deflections: f.u64("deflections")?,
            oscillations: f.u64("oscillations")?,
            trivial: f.u64("trivial")?,
            num_sets: f.u32("num_sets")?,
        })),
        "stats" => TraceEvent::Stats(Box::new(StatsLine {
            steps: f.u64("steps")?,
            injected_at: f.opt_u64_array("injected_at")?,
            delivered_at: f.opt_u64_array("delivered_at")?,
            deflections: f.u32_array("deflections")?,
        })),
        other => return Err(err(format!("unknown event '{other}'"))),
    };
    f.end()?;
    Ok(event)
}

/// A trace as a list of events. A parsed trace holds one event per
/// line, in file order (so `events[i]` came from line `i + 1`); a
/// recorded one (see the [`RouteObserver`] impl) holds them in emission
/// order, with whatever envelope events the caller pushed around them.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The events, in line or emission order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Parses a whole trace text; blank lines are rejected (they would
    /// desynchronize line attribution in diagnostics).
    // lint: no-panic
    pub fn parse(text: &str) -> Result<Trace, ParseError> {
        let mut events = Vec::new();
        let mut buf = ScanBuf::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                return Err(ParseError {
                    line: i + 1,
                    msg: "blank line in trace".into(),
                });
            }
            let ev = parse_line_with(line, &mut buf).map_err(|mut e| {
                e.line = i + 1;
                e
            })?;
            events.push(ev);
        }
        Ok(Trace { events })
    }

    /// The `meta` envelope line, which must be the first line if present.
    pub fn meta(&self) -> Option<&Meta> {
        match self.events.first() {
            Some(TraceEvent::Meta(m)) => Some(m),
            _ => None,
        }
    }

    /// The `stats` envelope line, which must be the last line if present.
    pub fn stats(&self) -> Option<&StatsLine> {
        match self.events.last() {
            Some(TraceEvent::Stats(s)) => Some(s),
            _ => None,
        }
    }
}

/// Records every hook as the [`TraceEvent`] that [`parse_line`] builds
/// from the line `JsonlTraceObserver` writes for it, so routing into a
/// `Trace` equals recording JSONL and parsing it back. The observer's
/// optional `snapshot` checkpoints are not recorded: they exist to seed
/// sharded verification of a file. The meta and stats envelope events
/// are the caller's to push.
impl RouteObserver for Trace {
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        self.events.push(TraceEvent::Move {
            t,
            pkt,
            edge: mv.edge,
            dir: mv.dir,
            kind,
        });
    }

    fn on_trivial(&mut self, t: Time, pkt: u32) {
        self.events.push(TraceEvent::Trivial { t, pkt });
    }

    fn on_deliver(&mut self, t: Time, pkt: u32) {
        self.events.push(TraceEvent::Deliver { t, pkt });
    }

    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        self.events.push(TraceEvent::Step {
            t,
            moved: report.moved as u32,
            absorbed: report.absorbed as u32,
            injected: report.injected as u32,
            deflections: report.deflections as u32,
            fallback: report.fallback_deflections as u32,
            oscillations: report.oscillations as u32,
            active: active as u32,
        });
    }

    fn on_arrival(&mut self, t: Time, pkt: u32) {
        self.events.push(TraceEvent::Arrival { t, pkt });
    }

    fn on_drop(&mut self, t: Time, pkt: u32) {
        self.events.push(TraceEvent::Drop { t, pkt });
    }

    fn on_sets_assigned(&mut self, sets: &[u32], num_sets: u32) {
        self.events.push(TraceEvent::Sets {
            num_sets,
            sets: sets.to_vec(),
        });
    }

    fn on_phase_start(&mut self, phase: u64, t: Time) {
        self.events.push(TraceEvent::PhaseStart { phase, t });
    }

    fn on_phase_end(&mut self, phase: u64, t: Time) {
        self.events.push(TraceEvent::PhaseEnd { phase, t });
    }

    fn on_frontier(&mut self, phase: u64, set: u32, frontier: i64) {
        self.events.push(TraceEvent::Frontier {
            phase,
            set,
            frontier,
        });
    }

    fn on_set_congestion(&mut self, phase: u64, set: u32, congestion: u32, initial: u32) {
        self.events.push(TraceEvent::Congestion {
            phase,
            set,
            congestion,
            initial,
        });
    }

    fn on_section(&mut self, section: Section, nanos: u64) {
        self.events.push(TraceEvent::Section {
            section: section.name().to_string(),
            nanos,
        });
    }
}

/// Renders the `meta` envelope line (without trailing newline).
pub fn meta_line(meta: &Meta) -> String {
    use serde::Serialize as _;
    Value::object([
        ("ev", Value::String("meta".into())),
        ("schema", meta.schema.to_json()),
        ("topo", Value::String(meta.topo.clone())),
        ("workload", Value::String(meta.workload.clone())),
        ("algo", Value::String(meta.algo.clone())),
        ("seed", meta.seed.to_json()),
        ("arrival", Value::String(meta.arrival.clone())),
        ("packets", meta.packets.to_json()),
        ("levels", meta.levels.to_json()),
        ("congestion", meta.congestion.to_json()),
        ("dilation", meta.dilation.to_json()),
    ])
    .to_compact_string()
}

/// Renders a [`Rollup`] envelope as a JSON document (the `/rollup/<run>`
/// response body).
pub fn rollup_doc(r: &Rollup) -> Value {
    use serde::Serialize as _;
    Value::object([
        ("schema", r.schema.to_json()),
        ("run", Value::String(r.run.clone())),
        ("seq", r.seq.to_json()),
        ("finished", Value::Bool(r.finished)),
        ("rollup", r.rollup.clone()),
    ])
}

/// Parses a [`Rollup`] envelope, strictly: unknown or missing envelope
/// fields and a wrong `schema` version are errors. The inner `rollup`
/// report is carried opaquely (its shape is owned by
/// `StreamingAggregator::to_json`).
pub fn parse_rollup(text: &str) -> Result<Rollup, ParseError> {
    let mut buf = ScanBuf::default();
    let mut f = Fields::scan(text, &mut buf)?;
    let rollup = Rollup {
        schema: f.u64("schema")?,
        run: f.str("run")?.into_owned(),
        seq: f.u64("seq")?,
        finished: f.bool("finished")?,
        rollup: serde_json::from_str(f.raw("rollup")?).map_err(|e| err(e.to_string()))?,
    };
    if rollup.schema != SCHEMA_VERSION {
        return Err(err(format!(
            "unsupported rollup schema {} (this build reads {SCHEMA_VERSION})",
            rollup.schema
        )));
    }
    f.end()?;
    Ok(rollup)
}

/// Renders the `stats` envelope line (without trailing newline) from the
/// run's final statistics.
pub fn stats_line(stats: &RouteStats) -> String {
    stats_line_of(&stats.into())
}

/// Renders the `stats` envelope line from an already-parsed
/// [`StatsLine`].
pub fn stats_line_of(s: &StatsLine) -> String {
    use serde::Serialize as _;
    Value::object([
        ("ev", Value::String("stats".into())),
        ("steps", s.steps.to_json()),
        ("injected_at", s.injected_at.to_json()),
        ("delivered_at", s.delivered_at.to_json()),
        ("deflections", s.deflections.to_json()),
    ])
    .to_compact_string()
}

/// Renders any [`TraceEvent`] exactly as the recording pipeline writes
/// it (no trailing newline): envelope lines via [`meta_line`] /
/// [`stats_line_of`], every other line through the same
/// [`hotpotato_sim::jsonl`] renderer `hotpotato_sim::JsonlTraceObserver`
/// writes with. This canonical rendering is what makes binary → JSONL
/// transcoding lossless down to the byte for any trace the pipeline
/// recorded.
pub fn event_line(ev: &TraceEvent) -> String {
    let mut out = String::new();
    match ev {
        TraceEvent::Meta(m) => return meta_line(m),
        TraceEvent::Stats(s) => return stats_line_of(s),
        &TraceEvent::Move {
            t,
            pkt,
            edge,
            dir,
            kind,
        } => jsonl::push_move(&mut out, t, pkt, DirectedEdge { edge, dir }, kind),
        &TraceEvent::Trivial { t, pkt } => jsonl::push_trivial(&mut out, t, pkt),
        &TraceEvent::Deliver { t, pkt } => jsonl::push_deliver(&mut out, t, pkt),
        &TraceEvent::Arrival { t, pkt } => jsonl::push_arrival(&mut out, t, pkt),
        &TraceEvent::Drop { t, pkt } => jsonl::push_drop(&mut out, t, pkt),
        &TraceEvent::Step {
            t,
            moved,
            absorbed,
            injected,
            deflections,
            fallback,
            oscillations,
            active,
        } => {
            let report = StepReport {
                moved: moved as usize,
                absorbed: absorbed as usize,
                injected: injected as usize,
                deflections: deflections as usize,
                fallback_deflections: fallback as usize,
                oscillations: oscillations as usize,
            };
            jsonl::push_step(&mut out, t, &report, u64::from(active));
        }
        TraceEvent::Sets { num_sets, sets } => jsonl::push_sets(&mut out, *num_sets, sets),
        &TraceEvent::PhaseStart { phase, t } => jsonl::push_phase_start(&mut out, phase, t),
        &TraceEvent::PhaseEnd { phase, t } => jsonl::push_phase_end(&mut out, phase, t),
        &TraceEvent::Frontier {
            phase,
            set,
            frontier,
        } => jsonl::push_frontier(&mut out, phase, set, frontier),
        &TraceEvent::Congestion {
            phase,
            set,
            congestion,
            initial,
        } => jsonl::push_congestion(&mut out, phase, set, congestion, initial),
        TraceEvent::Section { section, nanos } => jsonl::push_section(&mut out, section, *nanos),
        TraceEvent::Snapshot(s) => jsonl::push_snapshot(
            &mut out,
            s.phase,
            s.t,
            s.state.iter().copied(),
            s.nodes.iter().copied(),
            &s.prev_forward,
            &SnapshotCounts {
                moves: s.moves,
                forward: s.forward,
                backward: s.backward,
                deflections: s.deflections,
                oscillations: s.oscillations,
                trivial: s.trivial,
                num_sets: s.num_sets,
            },
        ),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_fields_are_rejected() {
        assert!(parse_line(r#"{"ev":"deliver","t":1,"pkt":2}"#).is_ok());
        let e = parse_line(r#"{"ev":"deliver","t":1,"pkt":2,"extra":3}"#).unwrap_err();
        assert!(e.msg.contains("unknown field 'extra'"), "{e}");
        let e = parse_line(r#"{"ev":"deliver","t":1}"#).unwrap_err();
        assert!(e.msg.contains("missing field 'pkt'"), "{e}");
    }

    #[test]
    fn unknown_events_and_schemas_are_rejected() {
        assert!(parse_line(r#"{"ev":"warp","t":1}"#).is_err());
        let meta = r#"{"ev":"meta","schema":99,"topo":"bf:3","workload":"bitrev","algo":"busch","seed":1,"packets":8,"levels":4,"congestion":2,"dilation":3}"#;
        let e = parse_line(meta).unwrap_err();
        assert!(e.msg.contains("unsupported trace schema"), "{e}");
    }

    #[test]
    fn envelope_lines_round_trip() {
        let meta = Meta {
            schema: SCHEMA_VERSION,
            topo: "butterfly:3".into(),
            workload: "bitrev".into(),
            algo: "busch".into(),
            seed: 42,
            arrival: "poisson:0.5".into(),
            packets: 8,
            levels: 4,
            congestion: 2,
            dilation: 3,
        };
        match parse_line(&meta_line(&meta)).unwrap() {
            TraceEvent::Meta(m) => assert_eq!(*m, meta),
            other => panic!("wrong event: {other:?}"),
        }

        let mut stats = RouteStats::new(2);
        stats.steps_run = 7;
        stats.injected_at = vec![Some(0), None];
        stats.delivered_at = vec![Some(5), None];
        stats.deflections = vec![1, 0];
        match parse_line(&stats_line(&stats)).unwrap() {
            TraceEvent::Stats(s) => {
                assert_eq!(s.steps, 7);
                assert_eq!(s.injected_at, vec![Some(0), None]);
                assert_eq!(s.delivered_at, vec![Some(5), None]);
                assert_eq!(s.deflections, vec![1, 0]);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn rollup_envelope_round_trips_strictly() {
        let rollup = Rollup {
            schema: SCHEMA_VERSION,
            run: "bf10-bitrev".into(),
            seq: 17,
            finished: true,
            rollup: Value::object([("cap", Value::Number(serde::Number::U(64)))]),
        };
        let text = rollup_doc(&rollup).to_compact_string();
        assert_eq!(parse_rollup(&text).unwrap(), rollup);

        // Wrong version, unknown field, missing field: all hard errors.
        let stale = text.replacen(&format!("\"schema\":{SCHEMA_VERSION}"), "\"schema\":1", 1);
        let e = parse_rollup(&stale).unwrap_err();
        assert!(e.msg.contains("unsupported rollup schema"), "{e}");
        let extra = format!("{},\"zz\":0}}", &text[..text.len() - 1]);
        assert!(parse_rollup(&extra)
            .unwrap_err()
            .msg
            .contains("unknown field 'zz'"));
        assert!(
            parse_rollup(r#"{"schema":5,"run":"x","seq":0,"finished":false}"#)
                .unwrap_err()
                .msg
                .contains("missing field 'rollup'")
        );
    }

    #[test]
    fn snapshot_lines_round_trip() {
        let snap = Snapshot {
            phase: 3,
            t: 36,
            state: vec![0, 3, 4, 2],
            nodes: vec![17],
            prev_forward: vec![2, 5],
            moves: 9,
            forward: 8,
            backward: 1,
            deflections: 1,
            oscillations: 0,
            trivial: 1,
            num_sets: 2,
        };
        let line = event_line(&TraceEvent::Snapshot(Box::new(snap.clone())));
        match parse_line(&line).unwrap() {
            TraceEvent::Snapshot(s) => assert_eq!(*s, snap),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn streaming_injection_events_parse() {
        match parse_line(r#"{"ev":"arrival","t":3,"pkt":1}"#).unwrap() {
            TraceEvent::Arrival { t: 3, pkt: 1 } => {}
            other => panic!("wrong event: {other:?}"),
        }
        match parse_line(r#"{"ev":"drop","t":4,"pkt":2}"#).unwrap() {
            TraceEvent::Drop { t: 4, pkt: 2 } => {}
            other => panic!("wrong event: {other:?}"),
        }
        assert!(parse_line(r#"{"ev":"drop","t":4}"#).is_err());
    }

    #[test]
    fn trace_parse_attributes_line_numbers() {
        let text = "{\"ev\":\"deliver\",\"t\":1,\"pkt\":0}\n{\"ev\":\"bogus\"}\n";
        let e = Trace::parse(text).unwrap_err();
        assert_eq!(e.line, 2);
    }
}
