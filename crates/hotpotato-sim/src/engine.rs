//! The synchronous bufferless (hot-potato) engine.
//!
//! The engine owns the dynamic packet states and enforces the hot-potato
//! model of the paper (§1.1, §2.3):
//!
//! * time is discrete; at each step a node receives packets, a routing
//!   decision is made, and the packets are forwarded;
//! * **no buffering**: every packet that arrives at a node must be staged
//!   an exit in the same step ([`Simulation::finish_step`] fails with
//!   [`SimError::PacketRested`] otherwise);
//! * **link capacity**: at most one packet traverses an edge per direction
//!   per step (at most two packets per link, one per direction);
//! * packets reaching their destination are absorbed on arrival.
//!
//! Routing algorithms drive the engine step by step:
//!
//! ```text
//! loop {
//!     for v in sim.occupied_nodes() {            // nodes with arrivals
//!         // decide one exit per packet, e.g. via conflict::resolve
//!         sim.stage_exit(pkt, mv, kind)?;
//!     }
//!     sim.try_inject(pkt)?;                      // source-side injections
//!     sim.finish_step()?;                        // move, absorb, advance
//! }
//! ```

use crate::kinematics::SimPacket;
use crate::observe::{NoopObserver, RouteObserver};
use crate::record::{MoveEvent, RunRecord, TrivialDelivery};
use crate::stats::{RouteStats, Time};
use leveled_net::ids::DirectedEdge;
use leveled_net::{LeveledNetwork, NodeId};
use routing_core::{PacketId, RoutingProblem};
use std::sync::Arc;

/// Lifecycle of a packet inside the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketStatus {
    /// Waiting at its source, not yet injected.
    Pending,
    /// In flight.
    Active,
    /// Absorbed at its destination.
    Delivered,
}

/// How the caller classifies a staged exit; drives the statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitKind {
    /// The packet advances along its current path (won its conflict).
    Advance,
    /// The packet was deflected; `safe` records whether the deflection was
    /// backward-and-safe in the sense of the paper's Lemma 2.1.
    Deflect {
        /// Backward along an edge another packet traversed forward this
        /// step (edge recycling), versus an arbitrary free link.
        safe: bool,
    },
    /// A wait-state oscillation move (not a deflection: the edge stays in
    /// the packet's path list).
    Oscillate,
    /// The injection move out of the source node.
    Inject,
}

/// Errors surfaced by the engine. Algorithms treat these as bugs in their
/// own dispatch logic, except for [`SimError::SlotBusy`] which they use to
/// probe availability.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The (edge, direction) slot is already taken this step.
    SlotBusy,
    /// The staged move does not start at the packet's current node.
    NotAtOrigin,
    /// The packet was already staged an exit this step.
    AlreadyStaged,
    /// The packet is not active.
    NotActive,
    /// The packet is not pending (injection only applies to pending
    /// packets).
    NotPending,
    /// `finish_step` found an active packet with no staged exit — a
    /// violation of the hot-potato (bufferless) constraint by the caller.
    PacketRested(PacketId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::SlotBusy => write!(f, "edge-direction slot already used this step"),
            SimError::NotAtOrigin => write!(f, "move does not start at the packet's node"),
            SimError::AlreadyStaged => write!(f, "packet already staged this step"),
            SimError::NotActive => write!(f, "packet is not active"),
            SimError::NotPending => write!(f, "packet is not pending"),
            SimError::PacketRested(p) => {
                write!(f, "hot-potato violation: packet {p} was left resting")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of an injection attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InjectOutcome {
    /// The packet departed its source along the first edge of its path.
    Injected,
    /// The packet's path is trivial (source == destination); it was
    /// delivered without entering the network.
    DeliveredTrivially,
    /// The first edge's forward slot is occupied; try again next step.
    Blocked,
}

/// Per-step movement summary returned by [`Simulation::finish_step`].
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct StepReport {
    /// Packets that moved this step (including injections).
    pub moved: usize,
    /// Packets absorbed at their destination.
    pub absorbed: usize,
    /// Packets injected.
    pub injected: usize,
    /// Deflections (safe + fallback).
    pub deflections: usize,
    /// Unsafe (fallback) deflections.
    pub fallback_deflections: usize,
    /// Oscillation moves.
    pub oscillations: usize,
}

/// Staged construction of a [`Simulation`].
///
/// ```
/// # use hotpotato_sim::Simulation;
/// # use routing_core::{Path, RoutingProblem};
/// # use leveled_net::{builders, NodeId};
/// # use std::sync::Arc;
/// # let net = Arc::new(builders::linear_array(3));
/// # let path = Path::from_nodes(&net, &[NodeId(0), NodeId(1)]).unwrap();
/// # let problem = Arc::new(RoutingProblem::new(net, vec![path]).unwrap());
/// let mut sim: Simulation<()> = Simulation::builder(problem, vec![()])
///     .trace(true)
///     .recording(true)
///     .build();
/// ```
///
/// Attach an event sink with [`SimulationBuilder::observer`]; the type
/// parameter changes from the default [`NoopObserver`] to the sink's
/// type, so an unobserved build stays statically observer-free.
pub struct SimulationBuilder<M, O = NoopObserver> {
    problem: Arc<RoutingProblem>,
    metas: Vec<M>,
    trace: bool,
    recording: bool,
    observer: O,
}

impl<M> SimulationBuilder<M> {
    fn new(problem: Arc<RoutingProblem>, metas: Vec<M>) -> Self {
        SimulationBuilder {
            problem,
            metas,
            trace: false,
            recording: false,
            observer: NoopObserver,
        }
    }
}

impl<M, O> SimulationBuilder<M, O> {
    /// Enables the per-step active-count trace in the statistics.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Enables full movement recording for later
    /// [`crate::replay::verify`] auditing.
    pub fn recording(mut self, on: bool) -> Self {
        self.recording = on;
        self
    }

    /// Attaches an event sink; the simulation feeds it every engine event
    /// (see [`RouteObserver`]). Pass `&mut sink` to keep ownership.
    pub fn observer<O2: RouteObserver>(self, observer: O2) -> SimulationBuilder<M, O2> {
        SimulationBuilder {
            problem: self.problem,
            metas: self.metas,
            trace: self.trace,
            recording: self.recording,
            observer,
        }
    }

    /// Builds the engine.
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn build(self) -> Simulation<M, O>
    where
        O: RouteObserver,
    {
        let SimulationBuilder {
            problem,
            metas,
            trace,
            recording,
            observer,
        } = self;
        assert_eq!(metas.len(), problem.num_packets());
        let net = problem.network_arc();
        let n = problem.num_packets();
        let packets: Vec<SimPacket<M>> = problem
            .packets()
            .iter()
            .zip(metas)
            .map(|(spec, meta)| SimPacket::new(spec.id, spec.path.source(), meta))
            .collect();
        let nv = net.num_nodes();
        let ne = net.num_edges();
        let dest = problem
            .packets()
            .iter()
            .map(|spec| spec.path.dest(&net).0)
            .collect();
        let mut stats = RouteStats::new(n);
        if trace {
            stats.active_trace = Some(Vec::new());
        }
        Simulation {
            problem,
            net,
            packets,
            status: vec![PacketStatus::Pending; n],
            now: 0,
            arrivals_flat: Vec::with_capacity(n),
            bucket_start: vec![0; nv],
            bucket_len: vec![0; nv],
            occupied: Vec::new(),
            incoming: Vec::with_capacity(n),
            slot_stamp: vec![0; 2 * ne],
            staged: Vec::new(),
            staged_stamp: vec![0; n],
            stamp: 1,
            staged_arrivals: 0,
            active_list: Vec::with_capacity(n),
            pending_list: (0..n as u32).collect(),
            list_pos: (0..n as u32).collect(),
            dest,
            delivered: 0,
            stats,
            record: if recording {
                Some(RunRecord::default())
            } else {
                None
            },
            observer,
        }
    }
}

/// The bufferless simulation engine; `M` is the per-packet metadata type
/// of the driving algorithm, `O` the attached event sink (default:
/// [`NoopObserver`], which compiles to nothing).
///
/// # Internals
///
/// The per-step hot state is allocation-free after construction:
///
/// * Arrivals live in a single flat arena (`arrivals_flat`), grouped by
///   node via `bucket_start`/`bucket_len`, rebuilt in place by
///   [`Simulation::finish_step`] with a stable counting sort — no
///   per-node `Vec`s, no per-step allocation.
/// * `occupied` is the ascending-sorted list of nodes with arrivals,
///   maintained by `finish_step`; [`Simulation::occupied_nodes_into`]
///   copies it into a caller-owned scratch buffer.
/// * Active and pending packet sets are maintained as swap-remove lists
///   (`active_list`/`pending_list` indexed by `list_pos`), so membership
///   updates are O(1) and enumeration is O(set size), not O(N).
pub struct Simulation<M, O = NoopObserver> {
    problem: Arc<RoutingProblem>,
    net: Arc<LeveledNetwork>,
    packets: Vec<SimPacket<M>>,
    status: Vec<PacketStatus>,
    now: Time,
    /// Packet indices of every arrival this step, grouped by node.
    arrivals_flat: Vec<u32>,
    /// Per node: offset of its group in `arrivals_flat` (valid only while
    /// `bucket_len` is non-zero).
    bucket_start: Vec<u32>,
    /// Per node: arrivals this step (zeroed via `occupied` at step end).
    bucket_len: Vec<u32>,
    /// Nodes with at least one arrival this step, ascending.
    occupied: Vec<u32>,
    /// `finish_step` scratch: (node, packet) pairs in staged order.
    incoming: Vec<(u32, u32)>,
    /// Per (edge, direction): stamp of the step that claimed the slot.
    slot_stamp: Vec<u32>,
    staged: Vec<(u32, DirectedEdge, ExitKind)>,
    /// Per packet: stamp of the step it was staged in.
    staged_stamp: Vec<u32>,
    /// Stamp of the current step. Wraps every 2^32 steps, at which point
    /// both stamp arrays are cleared (so stale stamps can never collide).
    stamp: u32,
    /// Packets staged via [`Simulation::stage_exit`] this step — exactly
    /// the arrivals that have been given an exit (injections go through
    /// [`Simulation::try_inject`] and are not arrivals).
    staged_arrivals: u32,
    /// In-flight packet indices (unordered; `list_pos` locates members).
    active_list: Vec<u32>,
    /// Not-yet-injected packet indices (unordered).
    pending_list: Vec<u32>,
    /// Position of each packet in whichever list currently holds it.
    list_pos: Vec<u32>,
    /// Destination node of each packet, precomputed from its path.
    dest: Vec<u32>,
    delivered: usize,
    stats: RouteStats,
    record: Option<RunRecord>,
    observer: O,
}

/// Removes `idx` from a swap-remove list, patching the moved element's
/// position entry.
// lint: hot-path
#[inline]
fn list_remove(list: &mut Vec<u32>, pos: &mut [u32], idx: u32) {
    let p = pos[idx as usize] as usize;
    debug_assert_eq!(list[p], idx);
    list.swap_remove(p);
    if let Some(&moved) = list.get(p) {
        pos[moved as usize] = p as u32;
    }
}

impl<M> Simulation<M> {
    /// Starts building an engine over `problem`; `metas` supplies the
    /// initial algorithm metadata for each packet (same order as
    /// `problem.packets()`).
    pub fn builder(problem: Arc<RoutingProblem>, metas: Vec<M>) -> SimulationBuilder<M> {
        SimulationBuilder::new(problem, metas)
    }
}

impl<M, O: RouteObserver> Simulation<M, O> {
    /// The attached event sink.
    #[inline]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the attached event sink, so drivers can emit
    /// their own (e.g. phase-level) events through it mid-run.
    #[inline]
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Current simulation time (step number).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The routing problem being simulated.
    #[inline]
    pub fn problem(&self) -> &RoutingProblem {
        &self.problem
    }

    /// The underlying network.
    #[inline]
    pub fn network(&self) -> &LeveledNetwork {
        &self.net
    }

    /// Nodes with at least one arriving packet this step, ascending.
    ///
    /// Allocates a fresh `Vec`; step loops should prefer
    /// [`Simulation::occupied_nodes_into`] with a reused scratch buffer.
    pub fn occupied_nodes(&self) -> Vec<NodeId> {
        self.occupied.iter().map(|&v| NodeId(v)).collect()
    }

    /// Copies the ascending occupied-node list into `out` (cleared first).
    /// The engine maintains the list sorted, so this is a plain copy.
    #[inline]
    pub fn occupied_nodes_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.occupied.iter().map(|&v| NodeId(v)));
    }

    /// Number of nodes with arrivals this step.
    #[inline]
    pub fn occupied_count(&self) -> usize {
        self.occupied.len()
    }

    /// Packet indices that arrived at `node` this step, in staged order.
    #[inline]
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn arrivals(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        let len = self.bucket_len[i] as usize;
        if len == 0 {
            return &[];
        }
        let start = self.bucket_start[i] as usize;
        &self.arrivals_flat[start..start + len]
    }

    /// The dynamic state of packet `idx`.
    #[inline]
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn packet(&self, idx: u32) -> &SimPacket<M> {
        &self.packets[idx as usize]
    }

    /// Mutable access to packet metadata.
    #[inline]
    pub fn meta_mut(&mut self, idx: u32) -> &mut M {
        &mut self.packets[idx as usize].meta
    }

    /// The preselected path of packet `idx`.
    #[inline]
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn path_of(&self, idx: u32) -> &routing_core::Path {
        &self.problem.packets()[idx as usize].path
    }

    /// The next move along packet `idx`'s current path.
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn next_move_of(&self, idx: u32) -> Option<DirectedEdge> {
        self.packets[idx as usize].next_move(self.path_of(idx))
    }

    /// Lifecycle status of packet `idx`.
    #[inline]
    pub fn status(&self, idx: u32) -> PacketStatus {
        self.status[idx as usize]
    }

    /// Whether the (edge, direction) slot is still free this step.
    #[inline]
    pub fn slot_free(&self, mv: DirectedEdge) -> bool {
        self.slot_stamp[mv.slot_index()] != self.stamp
    }

    /// Number of delivered packets.
    #[inline]
    pub fn delivered_count(&self) -> usize {
        self.delivered
    }

    /// Number of in-flight packets.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active_list.len()
    }

    /// Number of packets still waiting to be injected.
    #[inline]
    pub fn pending_count(&self) -> usize {
        self.pending_list.len()
    }

    /// Whether every packet has been delivered.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.delivered == self.packets.len()
    }

    /// Indices of all active packets (ascending). Backed by a maintained
    /// list: costs O(A log A) in the number of in-flight packets, not
    /// O(N) in the number of packets.
    pub fn active_indices(&self) -> Vec<u32> {
        let mut v = self.active_list.clone();
        v.sort_unstable();
        v
    }

    /// Indices of all pending (not yet injected) packets (ascending).
    /// Backed by a maintained list, like [`Simulation::active_indices`].
    pub fn pending_indices(&self) -> Vec<u32> {
        let mut v = self.pending_list.clone();
        v.sort_unstable();
        v
    }

    /// The maintained active-packet list, in *unspecified* order and
    /// without allocating. For order-insensitive consumers (auditors
    /// summing over the set); use [`Simulation::active_indices`] when
    /// iteration order must be deterministic.
    #[inline]
    pub fn active_slice(&self) -> &[u32] {
        &self.active_list
    }

    /// The maintained pending-packet list, in *unspecified* order and
    /// without allocating (see [`Simulation::active_slice`]).
    #[inline]
    pub fn pending_slice(&self) -> &[u32] {
        &self.pending_list
    }

    /// Mutable handle to the run statistics (for algorithm counters).
    pub fn stats_mut(&mut self) -> &mut RouteStats {
        &mut self.stats
    }

    /// Read-only handle to the run statistics.
    pub fn stats(&self) -> &RouteStats {
        &self.stats
    }

    /// Stages the exit of active packet `idx` along `mv` this step.
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn stage_exit(
        &mut self,
        idx: u32,
        mv: DirectedEdge,
        kind: ExitKind,
    ) -> Result<(), SimError> {
        let i = idx as usize;
        if self.status[i] != PacketStatus::Active {
            return Err(SimError::NotActive);
        }
        if self.staged_stamp[i] == self.stamp {
            return Err(SimError::AlreadyStaged);
        }
        if self.net.move_origin(mv) != self.packets[i].node() {
            return Err(SimError::NotAtOrigin);
        }
        if !self.slot_free(mv) {
            return Err(SimError::SlotBusy);
        }
        self.slot_stamp[mv.slot_index()] = self.stamp;
        self.staged_stamp[i] = self.stamp;
        self.staged_arrivals += 1;
        self.staged.push((idx, mv, kind));
        Ok(())
    }

    /// Attempts to inject pending packet `idx`: it departs its source along
    /// the first edge of its preselected path if that slot is free.
    ///
    /// Packets with trivial paths are delivered immediately. The engine
    /// does not require *isolation* (no other packets at the source) — the
    /// paper's algorithm arranges isolation by scheduling; algorithms can
    /// check [`Simulation::arrivals`] at the source to audit it.
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn try_inject(&mut self, idx: u32) -> Result<InjectOutcome, SimError> {
        let i = idx as usize;
        if self.status[i] != PacketStatus::Pending {
            return Err(SimError::NotPending);
        }
        let path = &self.problem.packets()[i].path;
        if path.is_empty() {
            self.status[i] = PacketStatus::Delivered;
            self.delivered += 1;
            list_remove(&mut self.pending_list, &mut self.list_pos, idx);
            self.stats.injected_at[i] = Some(self.now);
            self.stats.delivered_at[i] = Some(self.now);
            if let Some(rec) = self.record.as_mut() {
                rec.trivial.push(TrivialDelivery {
                    time: self.now,
                    pkt: PacketId(i as u32),
                });
            }
            self.observer.on_trivial(self.now, idx);
            return Ok(InjectOutcome::DeliveredTrivially);
        }
        let mv = DirectedEdge::forward(path.edges()[0]);
        if !self.slot_free(mv) {
            return Ok(InjectOutcome::Blocked);
        }
        self.slot_stamp[mv.slot_index()] = self.stamp;
        self.staged_stamp[i] = self.stamp;
        self.status[i] = PacketStatus::Active;
        list_remove(&mut self.pending_list, &mut self.list_pos, idx);
        self.list_pos[i] = self.active_list.len() as u32;
        self.active_list.push(idx);
        self.staged.push((idx, mv, ExitKind::Inject));
        Ok(InjectOutcome::Injected)
    }

    /// Applies all staged exits: verifies that *every* arriving packet was
    /// staged (the bufferless constraint), moves packets, absorbs arrivals
    /// at destinations, and advances the clock.
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn finish_step(&mut self) -> Result<StepReport, SimError> {
        // Bufferless check: every packet that arrived this step must leave.
        // Every `stage_exit` stages a distinct arrival (injections cannot
        // be re-staged, non-arrivals are not active), so a count comparison
        // suffices; the full scan only runs to name the offender.
        if self.staged_arrivals as usize != self.arrivals_flat.len() {
            for &v in &self.occupied {
                let start = self.bucket_start[v as usize] as usize;
                let len = self.bucket_len[v as usize] as usize;
                for &p in &self.arrivals_flat[start..start + len] {
                    if self.staged_stamp[p as usize] != self.stamp {
                        return Err(SimError::PacketRested(PacketId(p)));
                    }
                }
            }
            unreachable!("staged-arrival count mismatch without a resting packet");
        }

        let mut report = StepReport::default();
        let step = self.now;
        let staged = std::mem::take(&mut self.staged);
        debug_assert!(self.incoming.is_empty());
        for (idx, mv, kind) in &staged {
            let i = *idx as usize;
            if let Some(rec) = self.record.as_mut() {
                rec.moves.push(MoveEvent {
                    time: self.now,
                    pkt: PacketId(*idx),
                    mv: *mv,
                    kind: *kind,
                });
            }
            self.observer.on_move(self.now, *idx, *mv, *kind);
            let path = &self.problem.packets()[i].path;
            let pkt = &mut self.packets[i];
            let deflect = matches!(kind, ExitKind::Deflect { .. });
            pkt.apply_move(&self.net, path, *mv, deflect);
            report.moved += 1;
            match kind {
                ExitKind::Deflect { safe } => {
                    report.deflections += 1;
                    if !safe {
                        report.fallback_deflections += 1;
                    }
                }
                ExitKind::Oscillate => report.oscillations += 1,
                ExitKind::Inject => {
                    report.injected += 1;
                    self.stats.injected_at[i] = Some(self.now);
                }
                ExitKind::Advance => {}
            }
            self.stats.max_deviation[i] = pkt.max_deviation();
            self.stats.deflections[i] = pkt.deflections();

            let arrived_at = pkt.node();
            if arrived_at.0 == self.dest[i] {
                self.status[i] = PacketStatus::Delivered;
                self.delivered += 1;
                list_remove(&mut self.active_list, &mut self.list_pos, *idx);
                self.stats.delivered_at[i] = Some(self.now + 1);
                self.observer.on_deliver(self.now + 1, *idx);
                report.absorbed += 1;
            } else {
                self.incoming.push((arrived_at.0, *idx));
            }
        }
        self.staged = staged;
        self.staged.clear();
        if report.fallback_deflections > 0 {
            self.stats
                .bump_by("fallback_deflections", report.fallback_deflections as u64);
        }

        // Rebuild the arrival arena in place (the old contents were fully
        // consumed by the check above). Stable counting sort: group the
        // (node, packet) pairs by node, preserving staged order within
        // each node, and keep `occupied` ascending.
        for &v in &self.occupied {
            self.bucket_len[v as usize] = 0;
        }
        self.occupied.clear();
        for &(node, _) in &self.incoming {
            let c = &mut self.bucket_len[node as usize];
            if *c == 0 {
                self.occupied.push(node);
            }
            *c += 1;
        }
        self.occupied.sort_unstable();
        let mut off = 0u32;
        for &v in &self.occupied {
            self.bucket_start[v as usize] = off;
            off += self.bucket_len[v as usize];
        }
        self.arrivals_flat.resize(self.incoming.len(), 0);
        // Scatter, using `bucket_start` as the fill cursor; restore after.
        for &(node, pkt) in &self.incoming {
            let cursor = &mut self.bucket_start[node as usize];
            self.arrivals_flat[*cursor as usize] = pkt;
            *cursor += 1;
        }
        for &v in &self.occupied {
            self.bucket_start[v as usize] -= self.bucket_len[v as usize];
        }
        self.incoming.clear();

        self.now += 1;
        self.staged_arrivals = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp epoch rollover (every 2^32 steps): clear the stale
            // stamps so they cannot collide with the new epoch.
            self.slot_stamp.fill(0);
            self.staged_stamp.fill(0);
            self.stamp = 1;
        }
        if let Some(trace) = self.stats.active_trace.as_mut() {
            trace.push(self.active_list.len() as u32);
        }
        self.observer
            .on_step_end(step, &report, self.active_list.len());
        Ok(report)
    }

    /// Consumes the engine and returns the final statistics.
    pub fn into_stats(self) -> RouteStats {
        self.into_parts().0
    }

    /// Consumes the engine and returns the statistics together with the
    /// movement record (if recording was enabled).
    pub fn into_parts(mut self) -> (RouteStats, Option<RunRecord>) {
        self.stats.steps_run = self.now;
        (self.stats, self.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders;
    use leveled_net::EdgeId;
    use routing_core::Path;

    fn line_problem(paths: Vec<Vec<u32>>) -> Arc<RoutingProblem> {
        let net = Arc::new(builders::linear_array(6));
        let ps = paths
            .into_iter()
            .map(|nodes| {
                let nodes: Vec<NodeId> = nodes.into_iter().map(NodeId).collect();
                Path::from_nodes(&net, &nodes).unwrap()
            })
            .collect();
        Arc::new(RoutingProblem::new(net, ps).unwrap())
    }

    /// Drive a single packet straight to its destination.
    #[test]
    fn single_packet_advances_to_destination() {
        let prob = line_problem(vec![vec![0, 1, 2, 3]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).trace(true).build();
        assert_eq!(sim.try_inject(0).unwrap(), InjectOutcome::Injected);
        sim.finish_step().unwrap();
        assert_eq!(sim.status(0), PacketStatus::Active);
        assert_eq!(sim.packet(0).node(), NodeId(1));
        for _ in 0..2 {
            let nodes = sim.occupied_nodes();
            assert_eq!(nodes.len(), 1);
            let pkts = sim.arrivals(nodes[0]).to_vec();
            let mv = sim.next_move_of(pkts[0]).unwrap();
            sim.stage_exit(pkts[0], mv, ExitKind::Advance).unwrap();
            sim.finish_step().unwrap();
        }
        assert!(sim.is_done());
        let stats = sim.into_stats();
        assert_eq!(stats.injected_at[0], Some(0));
        assert_eq!(stats.delivered_at[0], Some(3));
        assert_eq!(stats.makespan(), Some(3));
        assert_eq!(stats.deflections[0], 0);
    }

    #[test]
    fn trivial_path_delivered_at_injection() {
        let net = Arc::new(builders::linear_array(3));
        let prob = Arc::new(
            RoutingProblem::new(Arc::clone(&net), vec![Path::trivial(NodeId(1))]).unwrap(),
        );
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).build();
        assert_eq!(
            sim.try_inject(0).unwrap(),
            InjectOutcome::DeliveredTrivially
        );
        assert!(sim.is_done());
    }

    #[test]
    fn injection_blocked_by_slot() {
        // Two packets from the same... sources must differ, so use a packet
        // already moving through the source's first edge.
        let prob = line_problem(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![(), ()]).build();
        // Inject p0 at t=0; it occupies edge 0->1.
        sim.try_inject(0).unwrap();
        sim.finish_step().unwrap();
        // t=1: p0 is at node 1 and wants edge 1->2; p1 also wants edge
        // 1->2 for injection. Stage p0 first: p1 must block.
        let mv = sim.next_move_of(0).unwrap();
        sim.stage_exit(0, mv, ExitKind::Advance).unwrap();
        assert_eq!(sim.try_inject(1).unwrap(), InjectOutcome::Blocked);
        sim.finish_step().unwrap();
        // t=2: edge 1->2 free again; p1 injects.
        assert_eq!(sim.try_inject(1).unwrap(), InjectOutcome::Injected);
    }

    #[test]
    fn slot_capacity_is_one_per_direction() {
        let prob = line_problem(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![(), ()]).build();
        sim.try_inject(0).unwrap();
        sim.try_inject(1).unwrap();
        sim.finish_step().unwrap();
        // Both at their second node; p0 at n1 wants 1->2, p1 at n2 wants 2->3.
        let m0 = sim.next_move_of(0).unwrap();
        let m1 = sim.next_move_of(1).unwrap();
        sim.stage_exit(0, m0, ExitKind::Advance).unwrap();
        // Staging p1 on p0's slot fails; its own slot works.
        assert_eq!(
            sim.stage_exit(1, m0, ExitKind::Advance).unwrap_err(),
            SimError::NotAtOrigin
        );
        sim.stage_exit(1, m1, ExitKind::Advance).unwrap();
        sim.finish_step().unwrap();
    }

    #[test]
    fn both_directions_of_an_edge_usable_in_one_step() {
        // At t=1, p1 traverses edge (1,2) forward while p0 traverses the
        // same edge backward — the paper's "at most two packets per link,
        // one per direction" rule.
        let prob = line_problem(vec![vec![1, 2, 3], vec![0, 1, 2]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![(), ()]).build();
        sim.try_inject(0).unwrap(); // p0: 1 -> 2 (forward on edge 1)
        sim.try_inject(1).unwrap(); // p1: 0 -> 1 (forward on edge 0)
        sim.finish_step().unwrap();
        // p0 at node 2 deflects backward over edge 1; p1 at node 1 advances
        // forward over edge 1. Both succeed in the same step.
        let fwd = sim.next_move_of(1).unwrap();
        assert_eq!(fwd, DirectedEdge::forward(EdgeId(1)));
        sim.stage_exit(1, fwd, ExitKind::Advance).unwrap();
        sim.stage_exit(
            0,
            DirectedEdge::backward(EdgeId(1)),
            ExitKind::Deflect { safe: true },
        )
        .unwrap();
        sim.finish_step().unwrap();
        assert_eq!(sim.packet(0).node(), NodeId(1));
        assert_eq!(sim.packet(0).deflections(), 1);
        // p1 was absorbed at its destination node 2.
        assert_eq!(sim.status(1), PacketStatus::Delivered);
    }

    #[test]
    fn resting_packet_is_detected() {
        let prob = line_problem(vec![vec![0, 1, 2]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).build();
        sim.try_inject(0).unwrap();
        sim.finish_step().unwrap();
        // Don't stage anything for the active packet.
        assert_eq!(
            sim.finish_step().unwrap_err(),
            SimError::PacketRested(PacketId(0))
        );
    }

    #[test]
    fn double_stage_rejected() {
        let prob = line_problem(vec![vec![0, 1, 2]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).build();
        sim.try_inject(0).unwrap();
        sim.finish_step().unwrap();
        let mv = sim.next_move_of(0).unwrap();
        sim.stage_exit(0, mv, ExitKind::Advance).unwrap();
        assert_eq!(
            sim.stage_exit(0, DirectedEdge::backward(EdgeId(0)), ExitKind::Advance)
                .unwrap_err(),
            SimError::AlreadyStaged
        );
    }

    #[test]
    fn absorption_happens_on_arrival() {
        let prob = line_problem(vec![vec![0, 1]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).build();
        sim.try_inject(0).unwrap();
        let report = sim.finish_step().unwrap();
        assert_eq!(report.absorbed, 1);
        assert_eq!(report.injected, 1);
        assert!(sim.is_done());
        assert!(sim.occupied_nodes().is_empty());
    }

    #[test]
    fn deflection_statistics_flow_through() {
        let prob = line_problem(vec![vec![0, 1, 2, 3]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).build();
        sim.try_inject(0).unwrap();
        sim.finish_step().unwrap();
        // Deflect backward (unsafe), then advance twice, then resume.
        sim.stage_exit(
            0,
            DirectedEdge::backward(EdgeId(0)),
            ExitKind::Deflect { safe: false },
        )
        .unwrap();
        let report = sim.finish_step().unwrap();
        assert_eq!(report.deflections, 1);
        assert_eq!(report.fallback_deflections, 1);
        while !sim.is_done() {
            let mv = sim.next_move_of(0).unwrap();
            sim.stage_exit(0, mv, ExitKind::Advance).unwrap();
            sim.finish_step().unwrap();
        }
        let stats = sim.into_stats();
        assert_eq!(stats.deflections[0], 1);
        assert_eq!(stats.max_deviation[0], 1);
        assert_eq!(stats.counter("fallback_deflections"), 1);
        // 1 step out + 1 back + 3 forward from node 0 (path has 3 edges).
        assert_eq!(stats.delivered_at[0], Some(5));
    }

    #[test]
    fn active_trace_records_in_flight_counts() {
        let prob = line_problem(vec![vec![0, 1, 2, 3]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).trace(true).build();
        sim.try_inject(0).unwrap();
        sim.finish_step().unwrap();
        while !sim.is_done() {
            let mv = sim.next_move_of(0).unwrap();
            sim.stage_exit(0, mv, ExitKind::Advance).unwrap();
            sim.finish_step().unwrap();
        }
        let stats = sim.into_stats();
        assert_eq!(stats.active_trace.unwrap(), vec![1, 1, 0]);
    }

    #[test]
    fn occupied_nodes_are_sorted_and_deduped() {
        let prob = line_problem(vec![vec![3, 4, 5], vec![1, 2, 3], vec![0, 1, 2]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![(); 3]).build();
        for p in [2u32, 0, 1] {
            sim.try_inject(p).unwrap();
        }
        sim.finish_step().unwrap();
        let nodes = sim.occupied_nodes();
        let mut sorted = nodes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(nodes, sorted);
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn counts_track_lifecycle() {
        let prob = line_problem(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![(), ()]).build();
        assert_eq!(sim.pending_count(), 2);
        assert_eq!(sim.active_count(), 0);
        assert_eq!(sim.delivered_count(), 0);
        sim.try_inject(0).unwrap();
        assert_eq!(sim.pending_count(), 1);
        sim.finish_step().unwrap();
        assert_eq!(sim.active_count(), 1);
        assert_eq!(sim.active_indices(), vec![0]);
        assert_eq!(sim.pending_indices(), vec![1]);
        // Drive packet 0 home.
        while sim.status(0) == PacketStatus::Active {
            let mv = sim.next_move_of(0).unwrap();
            sim.stage_exit(0, mv, ExitKind::Advance).unwrap();
            sim.finish_step().unwrap();
        }
        assert_eq!(sim.delivered_count(), 1);
        assert_eq!(sim.active_count(), 0);
        assert!(!sim.is_done());
    }

    #[test]
    fn slot_free_reflects_staging() {
        let prob = line_problem(vec![vec![0, 1, 2]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).build();
        let mv = DirectedEdge::forward(EdgeId(0));
        assert!(sim.slot_free(mv));
        sim.try_inject(0).unwrap();
        assert!(!sim.slot_free(mv), "injection claims the slot");
        assert!(sim.slot_free(mv.reversed()), "other direction unaffected");
        sim.finish_step().unwrap();
        assert!(sim.slot_free(mv), "slots reset every step");
    }

    #[test]
    fn builder_trace_and_recording_route() {
        let prob = line_problem(vec![vec![0, 1, 2]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()])
            .trace(true)
            .recording(true)
            .build();
        sim.try_inject(0).unwrap();
        sim.finish_step().unwrap();
        while !sim.is_done() {
            let mv = sim.next_move_of(0).unwrap();
            sim.stage_exit(0, mv, ExitKind::Advance).unwrap();
            sim.finish_step().unwrap();
        }
        let (stats, record) = sim.into_parts();
        assert_eq!(stats.delivered_count(), 1);
        assert!(stats.active_trace.is_some());
        assert_eq!(record.expect("recording enabled").moves.len(), 2);
    }

    #[test]
    fn step_report_accounts_every_move_kind() {
        let prob = line_problem(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![(), ()]).build();
        sim.try_inject(0).unwrap();
        let r = sim.finish_step().unwrap();
        assert_eq!(r.injected, 1);
        assert_eq!(r.moved, 1);
        // p0 at n1: oscillate it backward; also inject p1 from n1? n1 is
        // p1's source: slot (edge 0 backward) vs p1's (edge 1 forward)
        // don't clash.
        sim.stage_exit(0, DirectedEdge::backward(EdgeId(0)), ExitKind::Oscillate)
            .unwrap();
        sim.try_inject(1).unwrap();
        let r = sim.finish_step().unwrap();
        assert_eq!(r.moved, 2);
        assert_eq!(r.oscillations, 1);
        assert_eq!(r.injected, 1);
        assert_eq!(r.deflections, 0);
    }

    #[test]
    fn stage_requires_active_packet() {
        let prob = line_problem(vec![vec![0, 1, 2]]);
        let mut sim: Simulation<()> = Simulation::builder(prob, vec![()]).build();
        let err = sim
            .stage_exit(0, DirectedEdge::forward(EdgeId(0)), ExitKind::Advance)
            .unwrap_err();
        assert_eq!(err, SimError::NotActive);
        sim.try_inject(0).unwrap();
        assert_eq!(sim.try_inject(0).unwrap_err(), SimError::NotPending);
    }
}
