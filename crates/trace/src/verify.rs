//! Offline replay verification of a JSONL trace.
//!
//! [`verify_trace`] re-runs the *entire* event stream against the model
//! from scratch, independently of the engine that produced it:
//!
//! 1. the `meta` line identifies the instance; the problem is rebuilt
//!    from `(topo, workload, seed)` via [`routing_core::spec`] and the
//!    meta's `packets`/`levels`/`congestion`/`dilation` must match;
//! 2. every `move` is checked against the bufferless invariants — one
//!    packet per (edge, direction) slot per step, no teleports, exactly
//!    one injection per packet departing its path's first edge, no
//!    resting while active (bufferless model only), safe deflections
//!    really recycle an edge some packet crossed forward in the previous
//!    step, absorption exactly on arrival — and every `step` line's
//!    counts must equal the batch it closes;
//! 3. every `snapshot` checkpoint must equal the replayed state at its
//!    position in the stream (the snapshot-consistency law) — which is
//!    also what makes checkpoints trustworthy *seeds*: the sharded
//!    verifier ([`crate::shard`]) replays each snapshot-delimited
//!    segment independently and reports the same first divergence the
//!    sequential pass would;
//! 4. the reconstructed per-packet timelines must match the `stats`
//!    envelope line **exactly** (injection step, arrival time, deflection
//!    count, per packet), and the step count must match;
//! 5. as defense in depth, the moves and trivial deliveries are fed
//!    one at a time to the *in-memory* auditor
//!    [`hotpotato_sim::replay::Auditor`] — two independently written
//!    verifiers must agree (bufferless traces).
//!
//! Any divergence is reported with the 1-based line number of the first
//! offending event, so a corrupted trace names its own corruption.

use crate::schema::{Meta, Snapshot, StatsLine, Trace, TraceEvent};
use crate::timeline::{build_timelines, PacketTimeline};
use hotpotato_sim::{replay, ExitKind, RouteObserver, Time};
use leveled_net::ids::DirectedEdge;
use leveled_net::{Direction, LeveledNetwork, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::{spec, RoutingProblem};
use std::collections::HashMap;
use std::sync::Arc;

/// Which movement model the trace's algorithm obeys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Model {
    /// Hot-potato: active packets move every step.
    Bufferless,
    /// Store-and-forward: packets may wait in queues.
    Buffered,
}

impl Model {
    /// The model implied by an algorithm name.
    pub fn for_algo(algo: &str) -> Model {
        match algo {
            "sf" | "sfrank" => Model::Buffered,
            _ => Model::Bufferless,
        }
    }
}

/// A verification failure, attributed to the first divergent line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// 1-based line of the first divergence (0 = whole-trace property).
    pub line: usize,
    /// What diverged.
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "first divergence at line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for VerifyError {}

fn fail<T>(line: usize, msg: impl Into<String>) -> Result<T, VerifyError> {
    Err(VerifyError {
        line,
        msg: msg.into(),
    })
}

/// Aggregate results of a successful verification.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Packets in the instance.
    pub packets: usize,
    /// Steps verified.
    pub steps: u64,
    /// Moves verified.
    pub moves: u64,
    /// Forward moves.
    pub forward: u64,
    /// Backward moves.
    pub backward: u64,
    /// Packets delivered (including trivial).
    pub delivered: usize,
    /// Trivial deliveries.
    pub trivial: usize,
    /// Deflections seen.
    pub deflections: u64,
    /// Oscillation moves seen.
    pub oscillations: u64,
    /// Whether the independent in-memory auditor was also run (bufferless
    /// traces only) — when `true`, both verifiers agreed.
    pub replay_cross_checked: bool,
    /// The movement model verified against.
    pub model: Model,
    /// Reconstructed per-packet timelines (exactly matching the trace's
    /// `stats` line).
    pub timelines: Vec<PacketTimeline>,
}

/// The reconstructed instance a trace was verified against.
#[derive(Clone)]
pub struct VerifiedInstance {
    /// The network.
    pub net: Arc<LeveledNetwork>,
    /// The routing problem.
    pub problem: Arc<RoutingProblem>,
}

impl VerifiedInstance {
    /// The instance of a run routed in this process, for a fold running
    /// live beside it: nothing was parsed, so there is nothing to rebuild
    /// or cross-check.
    pub fn of(problem: &Arc<RoutingProblem>) -> Self {
        VerifiedInstance {
            net: problem.network_arc(),
            problem: Arc::clone(problem),
        }
    }
}

/// Rebuilds and cross-checks the instance named by a trace's meta line.
pub fn reconstruct(meta: &Meta) -> Result<VerifiedInstance, VerifyError> {
    let instance = rebuild(meta)?.map_err(|msg| VerifyError { line: 1, msg })?;
    check_shape(meta, &instance)?;
    Ok(instance)
}

/// The first half of [`reconstruct`], for loaders that accept a meta
/// naming no instance this build can construct: the inner `Err` is that
/// spec error, the outer one a packet claim the instance contradicts. A
/// workload spec that states its packet count is checked against the
/// claim, and against [`spec::MAX_PACKETS`], before anything is built,
/// so a hostile count cannot allocate; the workload is checked against
/// [`spec::MAX_BUILD_WORK`] on the built topology before any path is
/// drawn, so it cannot compute without bound either.
pub fn rebuild(meta: &Meta) -> Result<Result<VerifiedInstance, String>, VerifyError> {
    if let Some(stated) = spec::stated_packets(&meta.workload) {
        if stated as u64 != meta.packets {
            return fail(
                1,
                format!(
                    "meta says {} packets but workload '{}' states {stated}",
                    meta.packets, meta.workload
                ),
            );
        }
    }
    if let Err(e) = spec::check_packet_budget(&meta.workload) {
        return fail(1, e);
    }
    // The steps of `spec::reconstruct_problem`, with the build-work
    // budget refused like the packet budget rather than taken for a spec
    // this build cannot construct.
    let topo = match spec::parse_topo(&meta.topo) {
        Ok(topo) => topo,
        Err(e) => return Ok(Err(e)),
    };
    if let Err(e) = spec::check_build_work(&meta.workload, &topo.net) {
        return fail(1, e);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(meta.seed);
    let problem = match spec::parse_workload(&meta.workload, &topo, &mut rng) {
        Ok(problem) => problem,
        Err(e) => return Ok(Err(e)),
    };
    if problem.num_packets() as u64 != meta.packets {
        return fail(
            1,
            format!(
                "meta says {} packets but reconstruction yields {}",
                meta.packets,
                problem.num_packets()
            ),
        );
    }
    let net = Arc::clone(&topo.net);
    Ok(Ok(VerifiedInstance { net, problem }))
}

/// The second half of [`reconstruct`]: the meta's level count, `C` and
/// `D` must be the rebuilt instance's.
pub fn check_shape(meta: &Meta, instance: &VerifiedInstance) -> Result<(), VerifyError> {
    let (net, problem) = (&instance.net, &instance.problem);
    if net.num_levels() as u64 != meta.levels {
        return fail(
            1,
            format!(
                "meta says {} levels but reconstruction yields {}",
                meta.levels,
                net.num_levels()
            ),
        );
    }
    if u64::from(problem.congestion()) != meta.congestion
        || u64::from(problem.dilation()) != meta.dilation
    {
        return fail(
            1,
            format!(
                "meta says C={} D={} but reconstruction yields C={} D={}",
                meta.congestion,
                meta.dilation,
                problem.congestion(),
                problem.dilation()
            ),
        );
    }
    Ok(())
}

/// Verifies a parsed trace end to end (see the module docs).
pub fn verify_trace(trace: &Trace) -> Result<VerifyReport, VerifyError> {
    let Some(meta) = trace.meta() else {
        return fail(1, "trace has no meta line (re-record with --trace-out)");
    };
    let Some(stats) = trace.stats() else {
        return fail(
            trace.events.len(),
            "trace has no final stats line (truncated?)",
        );
    };
    let instance = reconstruct(meta)?;
    let model = Model::for_algo(&meta.algo);
    let streaming = !meta.arrival.is_empty();
    let state = StreamState::run(trace, &instance, model, streaming)?;
    state.check_stats(stats, trace.events.len())?;

    let timelines = build_timelines(trace, state.n);
    check_timelines_against_stats(&timelines, stats, model, trace.events.len())?;

    let replay_cross_checked = if model == Model::Bufferless {
        cross_check_replay(&instance.problem, trace, stats)?;
        true
    } else {
        false
    };

    Ok(VerifyReport {
        packets: state.n,
        steps: state.now,
        moves: state.moves,
        forward: state.forward,
        backward: state.backward,
        delivered: state.delivered.iter().filter(|&&d| d).count(),
        trivial: state.trivial,
        deflections: state.deflections,
        oscillations: state.oscillations,
        replay_cross_checked,
        model,
        timelines,
    })
}

/// The streaming verifier state (one pass over the events). A fresh
/// state replays a trace from the top; [`StreamState::apply_snapshot`]
/// instead seeds it from a `snapshot` checkpoint so a snapshot-delimited
/// segment can be replayed independently (the sharded path).
pub(crate) struct StreamState {
    pub(crate) n: usize,
    pub(crate) now: Time,
    /// Streaming trace (meta's `arrival` spec is non-empty): injections
    /// must be preceded by an `arrival` event, drops are legal.
    streaming: bool,
    pos: Vec<Option<NodeId>>,
    arrived: Vec<bool>,
    dropped: Vec<bool>,
    injected: Vec<bool>,
    pub(crate) delivered: Vec<bool>,
    last_move_step: Vec<u64>,
    active: usize,
    pub(crate) moves: u64,
    pub(crate) forward: u64,
    pub(crate) backward: u64,
    pub(crate) deflections: u64,
    pub(crate) oscillations: u64,
    pub(crate) trivial: usize,
    /// Per-step accumulators, reset at every `step` line.
    batch: Batch,
    /// Forward moves of the previous step: arrivals into this step's
    /// nodes, i.e. the admissible safe-deflection recycling pool.
    prev_forward: HashMap<u32, usize>,
    num_sets: Option<u32>,
    /// Phase announced by the most recent `phase_start` line (snapshots
    /// must agree with it).
    last_phase: Option<u64>,
}

/// Per-step (batch) accumulators, reset at every `step` line.
#[derive(Default)]
struct Batch {
    moves: u64,
    injections: u64,
    deflections: u64,
    fallback: u64,
    oscillations: u64,
    delivers: u64,
    /// (slot index) -> line that used it.
    slots: HashMap<usize, usize>,
    /// Edges crossed forward this step — next step's safe-deflection
    /// recycling pool (losers bounce backward over an edge some packet
    /// *arrived* through, and arrivals are the previous step's moves).
    forward_edges: HashMap<u32, usize>,
    /// Safe backward deflections awaiting the recycling check:
    /// (edge, line).
    safe_backward: Vec<(u32, usize)>,
    /// Packets that landed on their destination this step and must be
    /// delivered before the step closes: (pkt, line of landing move).
    landed: Vec<(u32, usize)>,
}

impl StreamState {
    /// A fresh state: nothing arrived, injected, or delivered yet.
    pub(crate) fn new(n: usize, streaming: bool) -> Self {
        StreamState {
            n,
            now: 0,
            streaming,
            pos: vec![None; n],
            arrived: vec![false; n],
            dropped: vec![false; n],
            injected: vec![false; n],
            delivered: vec![false; n],
            last_move_step: vec![u64::MAX; n],
            active: 0,
            moves: 0,
            forward: 0,
            backward: 0,
            deflections: 0,
            oscillations: 0,
            trivial: 0,
            batch: Batch::default(),
            prev_forward: HashMap::new(),
            num_sets: None,
            last_phase: None,
        }
    }

    /// Replays the whole trace from a fresh state (the sequential path).
    fn run(
        trace: &Trace,
        instance: &VerifiedInstance,
        model: Model,
        streaming: bool,
    ) -> Result<Self, VerifyError> {
        let mut s = StreamState::new(instance.problem.num_packets(), streaming);
        let last = trace.events.len();
        s.run_range(trace, instance, model, 0..last, last, None)?;
        s.check_trailing(last)?;
        Ok(s)
    }

    /// Seeds the state from a `snapshot` checkpoint so replay can start
    /// at the checkpoint's position instead of line 1. The snapshot's
    /// own trustworthiness is established separately: the shard (or the
    /// sequential pass) covering the *preceding* segment checks it
    /// against replayed state via [`StreamState::check_snapshot`].
    pub(crate) fn apply_snapshot(
        &mut self,
        snap: &Snapshot,
        line: usize,
        instance: &VerifiedInstance,
    ) -> Result<(), VerifyError> {
        if snap.state.len() != self.n {
            return fail(
                line,
                format!(
                    "snapshot covers {} packets, instance has {}",
                    snap.state.len(),
                    self.n
                ),
            );
        }
        let num_nodes = instance.net.num_nodes() as u32;
        let mut ni = 0usize;
        for p in 0..self.n {
            match snap.state[p] {
                0 => {}
                1 => self.arrived[p] = true,
                2 => {
                    self.arrived[p] = true;
                    self.dropped[p] = true;
                }
                3 => {
                    let Some(&node) = snap.nodes.get(ni) else {
                        return fail(
                            line,
                            "snapshot has fewer nodes than in-flight packets".to_string(),
                        );
                    };
                    if node >= num_nodes {
                        return fail(
                            line,
                            format!("snapshot places packet {p} on nonexistent node {node}"),
                        );
                    }
                    ni += 1;
                    self.arrived[p] = true;
                    self.injected[p] = true;
                    self.pos[p] = Some(NodeId(node));
                    self.active += 1;
                }
                4 => {
                    self.arrived[p] = true;
                    self.injected[p] = true;
                    self.delivered[p] = true;
                }
                other => {
                    return fail(
                        line,
                        format!("unknown snapshot state code {other} for packet {p}"),
                    )
                }
            }
        }
        if ni != snap.nodes.len() {
            return fail(
                line,
                format!(
                    "snapshot carries {} nodes but {} in-flight packets",
                    snap.nodes.len(),
                    ni
                ),
            );
        }
        self.now = snap.t;
        self.last_phase = Some(snap.phase);
        self.moves = snap.moves;
        self.forward = snap.forward;
        self.backward = snap.backward;
        self.deflections = snap.deflections;
        self.oscillations = snap.oscillations;
        self.trivial = snap.trivial as usize;
        self.prev_forward = snap.prev_forward.iter().map(|&e| (e, line)).collect();
        self.num_sets = if snap.num_sets == 0 {
            None
        } else {
            Some(snap.num_sets)
        };
        Ok(())
    }

    // check: snapshot-consistency — every phase-entry checkpoint must
    // equal the state replayed from the event stream at its position:
    // per-packet lifecycle + kinematics, the forward-arrival recycling
    // pool, the cumulative counters, and the phase/step clocks. This is
    // both a law in its own right (the recorder's bookkeeping is audited
    // against the replayer's) and the hinge of sharded verification —
    // shard k ends by checking snapshot k+1, so a seeded segment chain
    // proves exactly what the sequential pass proves.
    pub(crate) fn check_snapshot(&self, snap: &Snapshot, line: usize) -> Result<(), VerifyError> {
        if snap.t != self.now {
            return fail(
                line,
                format!(
                    "snapshot at t={} but replay is at step {}",
                    snap.t, self.now
                ),
            );
        }
        if self.last_phase != Some(snap.phase) {
            return fail(
                line,
                format!(
                    "snapshot opens phase {} but the last phase_start announced {:?}",
                    snap.phase, self.last_phase
                ),
            );
        }
        // A snapshot must sit on a step boundary, or seeding a shard
        // from it would drop the open batch's slot bookkeeping.
        if self.batch.moves > 0 {
            return fail(line, "snapshot taken mid-step".to_string());
        }
        if snap.state.len() != self.n {
            return fail(
                line,
                format!(
                    "snapshot covers {} packets, instance has {}",
                    snap.state.len(),
                    self.n
                ),
            );
        }
        let mut ni = 0usize;
        for p in 0..self.n {
            let expect: u32 = if self.delivered[p] {
                4
            } else if self.pos[p].is_some() {
                3
            } else if self.dropped[p] {
                2
            } else if self.arrived[p] {
                1
            } else {
                0
            };
            if snap.state[p] != expect {
                return fail(
                    line,
                    format!(
                        "snapshot says packet {p} state={} but replay shows {expect}",
                        snap.state[p]
                    ),
                );
            }
            if let Some(at) = self.pos[p] {
                let claimed = snap.nodes.get(ni).copied();
                if claimed != Some(at.0) {
                    return fail(
                        line,
                        format!(
                            "snapshot places packet {p} at node {claimed:?} but replay shows {}",
                            at.0
                        ),
                    );
                }
                ni += 1;
            }
        }
        if ni != snap.nodes.len() {
            return fail(
                line,
                format!(
                    "snapshot carries {} nodes but replay shows {} in-flight packets",
                    snap.nodes.len(),
                    ni
                ),
            );
        }
        if snap.prev_forward.len() != self.prev_forward.len()
            || snap
                .prev_forward
                .iter()
                .any(|e| !self.prev_forward.contains_key(e))
        {
            return fail(
                line,
                format!(
                    "snapshot's forward-arrival pool ({} edges) disagrees with replay ({} edges)",
                    snap.prev_forward.len(),
                    self.prev_forward.len()
                ),
            );
        }
        let counters = [
            ("moves", snap.moves, self.moves),
            ("forward", snap.forward, self.forward),
            ("backward", snap.backward, self.backward),
            ("deflections", snap.deflections, self.deflections),
            ("oscillations", snap.oscillations, self.oscillations),
            ("trivial", snap.trivial, self.trivial as u64),
        ];
        for (name, claimed, counted) in counters {
            if claimed != counted {
                return fail(
                    line,
                    format!("snapshot claims {name}={claimed} but replay counted {counted}"),
                );
            }
        }
        if snap.num_sets != self.num_sets.unwrap_or(0) {
            return fail(
                line,
                format!(
                    "snapshot claims num_sets={} but replay saw {:?}",
                    snap.num_sets, self.num_sets
                ),
            );
        }
        Ok(())
    }

    /// The trailing mid-step check: only meaningful at the true end of
    /// the trace (segment ends at snapshots sit on step boundaries and
    /// are covered by [`StreamState::check_snapshot`] instead).
    pub(crate) fn check_trailing(&self, last: usize) -> Result<(), VerifyError> {
        if self.batch.moves > 0 {
            return fail(last, "trace ends mid-step (moves after the last step line)");
        }
        Ok(())
    }

    /// Replays `trace.events[range]` into the state. `last` is the
    /// whole trace's event count (envelope positions and diagnostics
    /// stay global, so a shard reports the same line numbers the
    /// sequential pass would). `tick`, when set, is called with a delta
    /// of newly processed events every few tens of thousands of events
    /// (progress reporting).
    pub(crate) fn run_range(
        &mut self,
        trace: &Trace,
        instance: &VerifiedInstance,
        model: Model,
        range: std::ops::Range<usize>,
        last: usize,
        tick: Option<&(dyn Fn(u64) + Sync)>,
    ) -> Result<(), VerifyError> {
        const TICK_EVERY: u64 = 65_536;
        let mut since_tick = 0u64;
        for i in range {
            let line = i + 1;
            self.event(&trace.events[i], line, instance, model, last)?;
            since_tick += 1;
            if since_tick == TICK_EVERY {
                if let Some(tick) = tick {
                    tick(since_tick);
                }
                since_tick = 0;
            }
        }
        if since_tick > 0 {
            if let Some(tick) = tick {
                tick(since_tick);
            }
        }
        Ok(())
    }

    /// Replays one event into the state.
    #[allow(clippy::too_many_lines)]
    fn event(
        &mut self,
        ev: &TraceEvent,
        line: usize,
        instance: &VerifiedInstance,
        model: Model,
        last: usize,
    ) -> Result<(), VerifyError> {
        let net = &instance.net;
        let problem = &instance.problem;
        let n = self.n;
        match ev {
            TraceEvent::Meta(_) => {
                if line != 1 {
                    return fail(line, "meta line not at the start of the trace");
                }
            }
            TraceEvent::Stats(_) => {
                if line != last {
                    return fail(line, "stats line not at the end of the trace");
                }
            }
            TraceEvent::Move {
                t,
                pkt,
                edge,
                dir,
                kind,
            } => {
                let (t, pkt) = (*t, *pkt);
                if t != self.now {
                    return fail(
                        line,
                        format!("move at t={t} inside step {} (out of order)", self.now),
                    );
                }
                let p = pkt as usize;
                if p >= n {
                    return fail(line, format!("packet {pkt} out of range (N={n})"));
                }
                if edge.index() >= net.num_edges() {
                    return fail(line, format!("edge {} does not exist", edge.0));
                }
                if self.delivered[p] {
                    return fail(line, format!("packet {pkt} moved after delivery"));
                }
                if self.last_move_step[p] == self.now {
                    return fail(line, format!("packet {pkt} moved twice in step {t}"));
                }
                let mv = DirectedEdge {
                    edge: *edge,
                    dir: *dir,
                };
                // check: slot-capacity — one packet per (edge, dir) slot per step.
                if let Some(prev) = self.batch.slots.insert(mv.slot_index(), line) {
                    return fail(
                        line,
                        format!(
                            "edge {e} {dir:?} slot already used in step {t} (line {prev})",
                            e = edge.0
                        ),
                    );
                }
                let origin = net.move_origin(mv);
                let target = net.move_target(mv);
                match kind {
                    // check: injection-port — one injection per packet,
                    // departing the first edge of its preselected path.
                    ExitKind::Inject => {
                        if self.injected[p] {
                            return fail(line, format!("packet {pkt} injected twice"));
                        }
                        // check: admission — streaming injections need a
                        // prior arrival and must not have been dropped.
                        if self.streaming && !self.arrived[p] {
                            return fail(
                                line,
                                format!("packet {pkt} injected before its arrival event"),
                            );
                        }
                        if self.dropped[p] {
                            return fail(
                                line,
                                format!("packet {pkt} injected after being dropped"),
                            );
                        }
                        let path = problem.path(p);
                        let ok = !path.is_empty() && mv == DirectedEdge::forward(path.edges()[0]);
                        if !ok {
                            return fail(
                                line,
                                format!("packet {pkt} injected away from its source/first edge"),
                            );
                        }
                        self.injected[p] = true;
                        self.batch.injections += 1;
                    }
                    _ => {
                        let Some(at) = self.pos[p] else {
                            return fail(line, format!("packet {pkt} moved while not in flight"));
                        };
                        // check: locality — the move must depart the node
                        // the packet actually occupies.
                        if at != origin {
                            return fail(
                                line,
                                format!(
                                    "packet {pkt} teleported: trace departs node {} but it \
                                     is at node {}",
                                    origin.0, at.0
                                ),
                            );
                        }
                    }
                }
                match kind {
                    ExitKind::Deflect { safe } => {
                        self.batch.deflections += 1;
                        self.deflections += 1;
                        if !safe {
                            self.batch.fallback += 1;
                        } else if *dir == Direction::Backward {
                            self.batch.safe_backward.push((edge.0, line));
                        } else {
                            return fail(
                                line,
                                format!(
                                    "packet {pkt} safe-deflected forward (safe deflections \
                                     are backward recycles)"
                                ),
                            );
                        }
                    }
                    ExitKind::Oscillate => {
                        self.batch.oscillations += 1;
                        self.oscillations += 1;
                    }
                    _ => {}
                }
                match dir {
                    Direction::Forward => {
                        self.forward += 1;
                        self.batch.forward_edges.insert(edge.0, line);
                    }
                    Direction::Backward => self.backward += 1,
                }
                self.moves += 1;
                self.batch.moves += 1;
                self.last_move_step[p] = self.now;
                let dest = problem.path(p).dest(net);
                if target == dest {
                    if self.pos[p].is_some() {
                        self.active -= 1;
                    }
                    self.pos[p] = None;
                    self.batch.landed.push((pkt, line));
                } else {
                    if self.pos[p].is_none() {
                        self.active += 1;
                    }
                    self.pos[p] = Some(target);
                }
            }
            TraceEvent::Trivial { t, pkt } => {
                let p = *pkt as usize;
                if p >= n {
                    return fail(line, format!("packet {pkt} out of range (N={n})"));
                }
                if *t != self.now {
                    return fail(
                        line,
                        format!("trivial delivery at t={t} in step {}", self.now),
                    );
                }
                if self.injected[p] || self.delivered[p] {
                    return fail(line, format!("packet {pkt} delivered trivially twice"));
                }
                if self.streaming && !self.arrived[p] {
                    return fail(
                        line,
                        format!("packet {pkt} delivered trivially before its arrival event"),
                    );
                }
                if self.dropped[p] {
                    return fail(
                        line,
                        format!("packet {pkt} delivered trivially after being dropped"),
                    );
                }
                if !problem.path(p).is_empty() {
                    return fail(
                        line,
                        format!("packet {pkt} delivered trivially but its path is not trivial"),
                    );
                }
                self.injected[p] = true;
                self.delivered[p] = true;
                self.trivial += 1;
            }
            TraceEvent::Deliver { t, pkt } => {
                let p = *pkt as usize;
                if p >= n {
                    return fail(line, format!("packet {pkt} out of range (N={n})"));
                }
                if *t != self.now + 1 {
                    return fail(
                        line,
                        format!(
                            "delivery of packet {pkt} at t={t} but arrivals of step {} land \
                             at t={}",
                            self.now,
                            self.now + 1
                        ),
                    );
                }
                let Some(slot) = self.batch.landed.iter().position(|&(q, _)| q == *pkt) else {
                    return fail(
                        line,
                        format!(
                            "packet {pkt} delivered without landing on its destination this \
                             step"
                        ),
                    );
                };
                self.batch.landed.swap_remove(slot);
                if self.delivered[p] {
                    return fail(line, format!("packet {pkt} delivered twice"));
                }
                self.delivered[p] = true;
                self.batch.delivers += 1;
            }
            TraceEvent::Step {
                t,
                moved,
                absorbed,
                injected,
                deflections,
                fallback,
                oscillations,
                active,
            } => {
                if *t != self.now {
                    return fail(
                        line,
                        format!("step line t={t} but current step is {}", self.now),
                    );
                }
                // check: safe-deflection-recycling — safe deflections
                // must recycle an arrival edge: one some packet crossed
                // forward in the previous step (Lemma 2.1 edge
                // recycling).
                for &(edge, defl_line) in &self.batch.safe_backward {
                    if !self.prev_forward.contains_key(&edge) {
                        return fail(
                            defl_line,
                            format!(
                                "safe deflection over edge {edge} in step {t} but no packet \
                                 arrived forward over it in step {}",
                                t.wrapping_sub(1)
                            ),
                        );
                    }
                }
                // check: absorb-on-arrival — every packet that landed on
                // its destination this step must have been delivered
                // before the step line closed the batch.
                if let Some(&(pkt, move_line)) = self.batch.landed.first() {
                    return fail(
                        move_line,
                        format!(
                            "packet {pkt} landed on its destination in step {t} but was \
                             never delivered"
                        ),
                    );
                }
                // check: step-counter-consistency — the step line's
                // claimed counters must equal the batch it closes.
                let report = [
                    ("moved", u64::from(*moved), self.batch.moves),
                    ("absorbed", u64::from(*absorbed), self.batch.delivers),
                    ("injected", u64::from(*injected), self.batch.injections),
                    (
                        "deflections",
                        u64::from(*deflections),
                        self.batch.deflections,
                    ),
                    ("fallback", u64::from(*fallback), self.batch.fallback),
                    (
                        "oscillations",
                        u64::from(*oscillations),
                        self.batch.oscillations,
                    ),
                ];
                for (name, claimed, counted) in report {
                    if claimed != counted {
                        return fail(
                            line,
                            format!(
                                "step {t} claims {name}={claimed} but the event stream \
                                 shows {counted}"
                            ),
                        );
                    }
                }
                if model == Model::Bufferless {
                    if u64::from(*active) != self.active as u64 {
                        return fail(
                            line,
                            format!(
                                "step {t} claims active={active} but the event stream shows \
                                 {}",
                                self.active
                            ),
                        );
                    }
                    // check: no-rest — bufferless: every packet in
                    // flight at the start of the step must have moved
                    // during it.
                    if let Some(p) = (0..n)
                        .find(|&p| self.pos[p].is_some() && self.last_move_step[p] != self.now)
                    {
                        return fail(
                            line,
                            format!("packet {p} rested in step {t} (hot-potato violation)"),
                        );
                    }
                }
                self.now += 1;
                self.prev_forward = std::mem::take(&mut self.batch.forward_edges);
                self.batch = Batch::default();
            }
            TraceEvent::Sets { num_sets: k, sets } => {
                if sets.len() != n {
                    return fail(
                        line,
                        format!("sets line covers {} packets, instance has {n}", sets.len()),
                    );
                }
                if let Some(bad) = sets.iter().find(|&&x| x >= *k) {
                    return fail(line, format!("set id {bad} out of range (num_sets={k})"));
                }
                self.num_sets = Some(*k);
            }
            TraceEvent::Frontier { set, .. } | TraceEvent::Congestion { set, .. } => {
                if let Some(k) = self.num_sets {
                    if *set >= k {
                        return fail(
                            line,
                            format!("frontier-set id {set} out of range (num_sets={k})"),
                        );
                    }
                }
            }
            TraceEvent::Arrival { t, pkt } => {
                let p = *pkt as usize;
                if p >= n {
                    return fail(line, format!("packet {pkt} out of range (N={n})"));
                }
                if !self.streaming {
                    return fail(
                        line,
                        format!("arrival event for packet {pkt} in a batch trace"),
                    );
                }
                if *t != self.now {
                    return fail(line, format!("arrival at t={t} in step {}", self.now));
                }
                if self.arrived[p] {
                    return fail(line, format!("packet {pkt} arrived twice"));
                }
                // check: arrival-before-injection — the packet must not
                // already be in the network (or delivered).
                if self.injected[p] {
                    return fail(
                        line,
                        format!("packet {pkt} arrived after it was already injected"),
                    );
                }
                self.arrived[p] = true;
            }
            TraceEvent::Drop { t, pkt } => {
                let p = *pkt as usize;
                if p >= n {
                    return fail(line, format!("packet {pkt} out of range (N={n})"));
                }
                if !self.streaming {
                    return fail(
                        line,
                        format!("drop event for packet {pkt} in a batch trace"),
                    );
                }
                if *t != self.now {
                    return fail(line, format!("drop at t={t} in step {}", self.now));
                }
                // check: drop-discipline — only an arrived, never-injected,
                // never-dropped packet can be dropped by admission control.
                if !self.arrived[p] {
                    return fail(line, format!("packet {pkt} dropped before arriving"));
                }
                if self.injected[p] {
                    return fail(line, format!("packet {pkt} dropped after injection"));
                }
                if self.dropped[p] {
                    return fail(line, format!("packet {pkt} dropped twice"));
                }
                self.dropped[p] = true;
            }
            TraceEvent::Snapshot(snap) => self.check_snapshot(snap, line)?,
            TraceEvent::PhaseStart { phase, .. } => self.last_phase = Some(*phase),
            TraceEvent::PhaseEnd { .. } | TraceEvent::Section { .. } => {}
        }
        Ok(())
    }

    /// Compares the reconstructed end state with the stats envelope.
    pub(crate) fn check_stats(
        &self,
        stats: &StatsLine,
        stats_line_no: usize,
    ) -> Result<(), VerifyError> {
        if stats.steps != self.now {
            return fail(
                stats_line_no,
                format!(
                    "stats claim {} steps but the trace contains {}",
                    stats.steps, self.now
                ),
            );
        }
        for (name, len) in [
            ("injected_at", stats.injected_at.len()),
            ("delivered_at", stats.delivered_at.len()),
            ("deflections", stats.deflections.len()),
        ] {
            if len != self.n {
                return fail(
                    stats_line_no,
                    format!(
                        "stats field '{name}' covers {len} packets, instance has {}",
                        self.n
                    ),
                );
            }
        }
        for p in 0..self.n {
            let claimed = stats.delivered_at[p].is_some();
            if claimed != self.delivered[p] {
                return fail(
                    stats_line_no,
                    format!(
                        "stats and trace disagree on delivery of packet {p} \
                         (stats: {claimed}, trace: {})",
                        self.delivered[p]
                    ),
                );
            }
        }
        Ok(())
    }
}

/// Exact per-packet comparison between the reconstructed timelines and
/// the stats envelope (the acceptance contract: totals match RouteStats).
pub(crate) fn check_timelines_against_stats(
    timelines: &[PacketTimeline],
    stats: &StatsLine,
    model: Model,
    stats_line_no: usize,
) -> Result<(), VerifyError> {
    for (p, tl) in timelines.iter().enumerate() {
        let rows = [
            ("injected_at", tl.injected_at, stats.injected_at[p]),
            ("delivered_at", tl.delivered_at, stats.delivered_at[p]),
        ];
        for (name, mine, theirs) in rows {
            if mine != theirs {
                return fail(
                    stats_line_no,
                    format!("packet {p}: timeline {name}={mine:?} but stats say {theirs:?}"),
                );
            }
        }
        if tl.deflections != stats.deflections[p] {
            return fail(
                stats_line_no,
                format!(
                    "packet {p}: timeline counts {} deflections but stats say {}",
                    tl.deflections, stats.deflections[p]
                ),
            );
        }
        // The hot-potato latency identity: every in-flight step is
        // exactly one move. Buffered (store-and-forward) packets may
        // rest in queues, so the identity only binds bufferless traces.
        if model == Model::Buffered {
            continue;
        }
        if let (Some(lat), false) = (tl.latency(), tl.trivial) {
            let moves = u64::from(tl.advances + tl.deflections + tl.oscillations);
            if lat != moves {
                return fail(
                    stats_line_no,
                    format!(
                        "packet {p}: latency {lat} != anatomy total {moves} \
                         (advances + deflections + oscillations)"
                    ),
                );
            }
        }
    }
    Ok(())
}

/// Feeds the trace's moves and trivial deliveries to the independent
/// in-memory [`replay::Auditor`] and checks its verdict against the
/// `stats` line's deliveries. Under sharded verification the auditor
/// runs *concurrently* with the stream verifier, so it can see corrupt
/// events the sequential pass would have rejected first; it reports an
/// id outside the instance as a fault instead of indexing with it.
pub(crate) fn cross_check_replay(
    problem: &RoutingProblem,
    trace: &Trace,
    stats: &StatsLine,
) -> Result<(), VerifyError> {
    let mut auditor = replay::Auditor::new(problem);
    for ev in &trace.events {
        match *ev {
            TraceEvent::Move {
                t,
                pkt,
                edge,
                dir,
                kind,
            } => auditor.on_move(t, pkt, DirectedEdge { edge, dir }, kind),
            TraceEvent::Trivial { t, pkt } => auditor.on_trivial(t, pkt),
            _ => {}
        }
    }
    auditor
        .finish(&stats.delivered_at)
        .map(|_| ())
        .map_err(|e| VerifyError {
            line: 0,
            msg: format!("independent replay auditor disagrees: {e}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SCHEMA_VERSION;

    #[test]
    fn a_meta_over_the_packet_budget_is_refused_before_any_build() {
        // The meta's claim matches the count its workload states, so only
        // the budget stands between it and building four billion paths.
        // `linear:1` has no source node, so a build that slipped past the
        // budget fails at once instead of exhausting memory.
        let meta = Meta {
            schema: SCHEMA_VERSION,
            topo: "linear:1".into(),
            workload: "m2m:4000000000".into(),
            algo: "greedy".into(),
            seed: 1,
            arrival: String::new(),
            packets: 4_000_000_000,
            levels: 1,
            congestion: 0,
            dilation: 0,
        };
        let e = rebuild(&meta).err().expect("refused");
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("over the budget of 16777216"), "{}", e.msg);
    }

    #[test]
    fn a_meta_over_the_build_work_budget_is_refused_before_any_path() {
        // Inside the packet budget, but about 2^41 units of build work.
        let meta = Meta {
            schema: SCHEMA_VERSION,
            topo: "bf:12".into(),
            workload: "m2m:16000000".into(),
            algo: "greedy".into(),
            seed: 1,
            arrival: String::new(),
            packets: 16_000_000,
            levels: 13,
            congestion: 0,
            dilation: 0,
        };
        let e = rebuild(&meta).err().expect("refused");
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("over the budget of 4294967296"), "{}", e.msg);
    }
}
