//! The data-oriented (structure-of-arrays) bufferless engine.
//!
//! [`SoaEngine`] is the cache-friendly twin of [`crate::Simulation`]: the
//! same hot-potato semantics (bufferless law, per-(edge, direction) slot
//! capacity, absorb-on-arrival), rebuilt around flat arrays so the
//! per-step inner loops stream over memory instead of chasing pointers:
//!
//! * **Packet state is SoA.** Position, last move, preselected-path
//!   cursor and deviation depth live in parallel `Vec<u32>`s indexed by
//!   packet id; the `Vec<DirectedEdge>` deviation stack of
//!   [`crate::SimPacket`] becomes a free-list arena of `(move, next)`
//!   pairs shared by all packets.
//! * **Moves are packed.** A directed edge traversal is a single `u32`
//!   (`edge << 1 | direction`), chosen so the packed value *is* the
//!   [`DirectedEdge::slot_index`] and reversing a move is `mv ^ 1`.
//! * **Slot occupancy is a bitset.** The per-step (edge, direction)
//!   claims live in `2·num_edges` bits (one cache line per ~512 slots)
//!   instead of a `u32` stamp array, and are cleared by iterating the
//!   staged moves rather than touching the whole table.
//! * **Preselected paths are CSR.** All paths are concatenated into one
//!   `path_mv` array with per-packet offsets, so following a path is a
//!   linear scan with no per-packet `Vec` indirection.
//!
//! The dispatch-read state is split into [`SoaShared`]: a step driver
//! borrows it through [`SoaEngine::shared`] to read arrivals and
//! positions while it stages exits into its own [`StepStage`], then
//! hands the stage over with [`SoaEngine::commit_stage`] and calls
//! [`SoaEngine::finish_step`].
//!
//! The scalar engine remains the oracle: driven with the same decision
//! sequence, `SoaEngine` produces bit-identical [`RouteStats`], movement
//! records and observer event streams (`tests/soa_equivalence.rs` at the
//! workspace root asserts this end to end).

use crate::conflict::SlotView;
use crate::engine::{ExitKind, InjectOutcome, SimError, StepReport};
use crate::observe::{NoopObserver, RouteObserver};
use crate::record::{MoveEvent, RunRecord, TrivialDelivery};
use crate::stats::{RouteStats, Time};
use leveled_net::ids::{DirectedEdge, Direction};
use leveled_net::{EdgeId, LeveledNetwork};
use routing_core::{PacketId, RoutingProblem};
use std::sync::Arc;

/// Sentinel for "no move" / "empty list" in packed-move and arena-index
/// fields.
pub const NO_MOVE: u32 = u32::MAX;

/// Packet lifecycle tags (the SoA counterpart of
/// [`crate::PacketStatus`]).
pub const STATUS_PENDING: u8 = 0;
/// In flight.
pub const STATUS_ACTIVE: u8 = 1;
/// Absorbed at its destination.
pub const STATUS_DELIVERED: u8 = 2;

/// Staged-exit kind tags (the SoA counterpart of [`ExitKind`]).
pub const KIND_ADVANCE: u8 = 0;
/// Safe backward deflection (Lemma 2.1 edge recycling).
pub const KIND_DEFLECT_SAFE: u8 = 1;
/// Fallback (free-link) deflection.
pub const KIND_DEFLECT_FREE: u8 = 2;
/// Wait-state oscillation move.
pub const KIND_OSCILLATE: u8 = 3;
/// The injection move out of the source.
pub const KIND_INJECT: u8 = 4;

/// Packs a directed edge traversal into the engine's `u32` move
/// representation. The packed value equals [`DirectedEdge::slot_index`].
#[inline]
pub fn pack_move(mv: DirectedEdge) -> u32 {
    mv.slot_index() as u32
}

/// Unpacks a packed move back into a [`DirectedEdge`].
#[inline]
pub fn unpack_move(p: u32) -> DirectedEdge {
    DirectedEdge {
        edge: EdgeId(p >> 1),
        dir: if p & 1 == 0 {
            Direction::Forward
        } else {
            Direction::Backward
        },
    }
}

/// Widens a kind tag back into the engine's [`ExitKind`].
#[inline]
pub fn kind_of(tag: u8) -> ExitKind {
    match tag {
        KIND_ADVANCE => ExitKind::Advance,
        KIND_DEFLECT_SAFE => ExitKind::Deflect { safe: true },
        KIND_DEFLECT_FREE => ExitKind::Deflect { safe: false },
        KIND_OSCILLATE => ExitKind::Oscillate,
        _ => ExitKind::Inject,
    }
}

/// Packs one staged exit into a single word: the kind tag in the top 3
/// bits, the packed move in bits 32..61, the packet id in the low 32.
/// One push per staged exit (instead of one per column) is what keeps
/// [`StepStage::stage`] a two-store operation.
#[inline]
pub fn pack_staged(pkt: u32, mv: u32, kind: u8) -> u64 {
    debug_assert!(mv < 1 << 29, "move index overflows the staged-exit word");
    ((kind as u64) << 61) | ((mv as u64) << 32) | pkt as u64
}

/// The packet id of a packed staged exit.
#[inline]
pub fn staged_pkt(e: u64) -> u32 {
    e as u32
}

/// The packed move of a packed staged exit.
#[inline]
pub fn staged_mv(e: u64) -> u32 {
    (e >> 32) as u32 & ((1 << 29) - 1)
}

/// The kind tag of a packed staged exit.
#[inline]
pub fn staged_kind(e: u64) -> u8 {
    (e >> 61) as u8
}

#[inline]
fn bit_get(words: &[u64], i: u32) -> bool {
    words[(i >> 6) as usize] >> (i & 63) & 1 != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] |= 1u64 << (i & 63);
}

#[inline]
fn bit_clear(words: &mut [u64], i: u32) {
    words[(i >> 6) as usize] &= !(1u64 << (i & 63));
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

/// The per-packet columns every per-move hot loop touches — position,
/// arrival move, deviation-stack head and depth, preselected-path
/// cursor, destination — grouped into one 32-byte row so a move costs
/// one cache line of packet state instead of six. Grouping by access
/// pattern rather than one-array-per-field is the usual second step of
/// a data-oriented layout: the columns that are always read together
/// become a row, and the rarely-touched columns (status, stats,
/// per-packet path storage) stay in their own arrays.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
pub struct Flight {
    /// Current node.
    pub node: u32,
    /// Destination node.
    pub dest: u32,
    /// Packed move that brought the packet here ([`NO_MOVE`] before
    /// injection).
    pub last_move: u32,
    /// Arena index of the deviation-stack top ([`NO_MOVE`] = on the
    /// preselected path).
    pub dev_head: u32,
    /// Current deviation-stack depth.
    pub dev_depth: u32,
    /// Absolute `path_mv` index of the next unconsumed preselected-path
    /// edge.
    pub path_next: u32,
    /// Absolute `path_mv` index one past the preselected path.
    pub path_end: u32,
}

/// The dispatch-read half of the engine's state: everything a step
/// driver reads while deciding exits. Mutated only inside
/// [`SoaEngine::finish_step`].
pub struct SoaShared {
    /// Per-packet flight rows: every column the per-move hot loops
    /// touch, packed into one cache line per packet.
    pub flight: Vec<Flight>,
    /// Deviation arena: the packed undo move of each entry.
    pub dev_mv: Vec<u32>,
    /// Deviation arena: next entry down the stack ([`NO_MOVE`] = bottom);
    /// doubles as the free-list link for recycled entries.
    pub dev_next: Vec<u32>,
    /// Head of the arena free list ([`NO_MOVE`] = empty).
    pub dev_free: u32,
    /// CSR offsets into `path_mv`, `num_packets + 1` entries (immutable
    /// after construction; the mutable cursor lives in
    /// [`Flight::path_next`]).
    pub path_off: Vec<u32>,
    /// Concatenated preselected paths as packed forward moves.
    pub path_mv: Vec<u32>,
    /// Per-node arrival regions, `arr_stride` words each: the arriving
    /// packet ids in staged order. One strided arena instead of
    /// offset/length/data arrays means an arrival costs one cache line
    /// to record and one to read, with no prefix-summing or cursor
    /// restoration between steps.
    pub arrivals: Vec<u32>,
    /// Per-node `(epoch_tag << 8) | len`: node `v`'s region is valid iff
    /// the tag field equals `arr_tag`, so stale regions read as empty
    /// without ever being cleared. Folding the length into the same
    /// word keeps the hot validity check *and* the region length in one
    /// dense `num_nodes`-word array, so recording an arrival never
    /// loads from the (much larger) region arena.
    pub arr_meta: Vec<u32>,
    /// Words per node region of `arrivals`: the max degree (a node
    /// receives at most one packet per incident edge per step).
    pub arr_stride: u32,
    /// Tag of the current step's arrival regions (24 bits — the meta
    /// word keeps 8 for the length); bumped once per committed step, so
    /// regions written for earlier steps are dead without being touched.
    pub arr_tag: u32,
    /// Total arrivals recorded this step.
    pub arrivals_count: u32,
    /// Nodes with at least one arrival this step, ascending.
    pub occupied: Vec<u32>,
    /// Node-occupancy bitset scratch for the arena rebuild: set bits
    /// mirror `occupied` transiently inside
    /// [`SoaEngine::finish_step`], all-clear between steps.
    pub occ_words: Vec<u64>,
    /// Summary level of `occ_words` (one bit per word), same lifecycle.
    pub occ_sum: Vec<u64>,
}

impl SoaShared {
    /// Packet indices that arrived at node `v` this step, in staged
    /// order.
    #[inline]
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn arrivals(&self, v: u32) -> &[u32] {
        let m = self.arr_meta[v as usize];
        if (m >> 8) != self.arr_tag {
            return &[];
        }
        let base = (v * self.arr_stride) as usize;
        &self.arrivals[base..base + (m & 0xFF) as usize]
    }

    /// The next packed move along packet `pkt`'s current path: the
    /// deviation-stack top, else the next preselected edge (forward),
    /// else [`NO_MOVE`] (the packet stands at its destination).
    // lint: hot-path
    #[inline]
    pub fn next_move(&self, pkt: u32) -> u32 {
        let f = &self.flight[pkt as usize];
        if f.dev_head != NO_MOVE {
            return self.dev_mv[f.dev_head as usize];
        }
        if f.path_next < f.path_end {
            self.path_mv[f.path_next as usize]
        } else {
            NO_MOVE
        }
    }

    /// The edges of packet `pkt`'s *current path*, in order from its
    /// current node to its destination: deviation stack top-down, then
    /// the remainder of the preselected path (the same order as
    /// [`crate::SimPacket::current_path_edges`]).
    pub fn current_path_edges(&self, pkt: u32) -> impl Iterator<Item = EdgeId> + '_ {
        let f = &self.flight[pkt as usize];
        let mut cur = f.dev_head;
        let dev = std::iter::from_fn(move || {
            if cur == NO_MOVE {
                return None;
            }
            let mv = self.dev_mv[cur as usize];
            cur = self.dev_next[cur as usize];
            Some(EdgeId(mv >> 1))
        });
        let base = self.path_mv[f.path_next as usize..f.path_end as usize]
            .iter()
            .map(|&mv| EdgeId(mv >> 1));
        dev.chain(base)
    }

    /// Validates that packet `pkt`'s current path is a valid forward path
    /// starting at its current node (the conclusion of the paper's
    /// Lemma 2.1) — the SoA counterpart of
    /// [`crate::SimPacket::validate_current_path`].
    pub fn validate_current_path(&self, net: &LeveledNetwork, pkt: u32) -> bool {
        let f = &self.flight[pkt as usize];
        let mut at = f.node;
        let mut cur = f.dev_head;
        while cur != NO_MOVE {
            let mv = self.dev_mv[cur as usize];
            if mv & 1 != 0 {
                return false; // backward move in a current path
            }
            let e = net.edge(EdgeId(mv >> 1));
            if e.tail.0 != at {
                return false;
            }
            at = e.head.0;
            cur = self.dev_next[cur as usize];
        }
        for off in f.path_next..f.path_end {
            let e = net.edge(EdgeId(self.path_mv[off as usize] >> 1));
            if e.tail.0 != at {
                return false;
            }
            at = e.head.0;
        }
        true
    }
}

/// The step driver's staging buffer for one step's dispatch: the staged
/// exits plus a private slot bitset that the conflict resolver reads as
/// its [`SlotView`]. Every staged move originates at the node being
/// processed, so the stage needs no view of injections (those follow
/// the dispatch). [`SoaEngine::commit_stage`] adopts its buffers.
pub struct StepStage {
    net: Arc<LeveledNetwork>,
    slot_words: Vec<u64>,
    /// Staged exits in staging order, packed per [`pack_staged`].
    pub staged: Vec<u64>,
}

impl StepStage {
    /// An empty stage over `net`'s slot space.
    pub fn new(net: Arc<LeveledNetwork>) -> Self {
        let words = (2 * net.num_edges()).div_ceil(64);
        StepStage {
            net,
            slot_words: vec![0; words],
            staged: Vec::new(),
        }
    }

    /// Stages packet `pkt` on packed move `mv`, claiming its slot in the
    /// stage's bitset. The caller (the step driver) guarantees the
    /// packet is active, unstaged, and at the move's origin.
    // lint: hot-path
    #[inline]
    pub fn stage(&mut self, pkt: u32, mv: u32, kind: u8) {
        debug_assert!(!bit_get(&self.slot_words, mv), "slot staged twice");
        bit_set(&mut self.slot_words, mv);
        self.staged.push(pack_staged(pkt, mv, kind));
    }

    /// Number of staged exits.
    #[inline]
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// Whether nothing is staged.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }
}

impl SlotView for StepStage {
    #[inline]
    fn network(&self) -> &LeveledNetwork {
        &self.net
    }

    #[inline]
    fn slot_free(&self, mv: DirectedEdge) -> bool {
        !bit_get(&self.slot_words, mv.slot_index() as u32)
    }
}

/// The structure-of-arrays bufferless engine. See the module docs for
/// the layout; the step protocol matches [`crate::Simulation`]:
/// dispatch exits for every arrival into a [`StepStage`] handed over
/// with [`SoaEngine::commit_stage`], inject with
/// [`SoaEngine::try_inject`], then commit with
/// [`SoaEngine::finish_step`].
pub struct SoaEngine<O = NoopObserver> {
    problem: Arc<RoutingProblem>,
    net: Arc<LeveledNetwork>,
    shared: SoaShared,
    status: Vec<u8>,
    /// Global per-step slot claims (one bit per (edge, direction)).
    slot_words: Vec<u64>,
    /// The step's committed staged exits, packed per [`pack_staged`].
    staged: Vec<u64>,
    /// Arrivals staged this step (exits, not injections).
    staged_arrivals: u32,
    active_list: Vec<u32>,
    pending_list: Vec<u32>,
    list_pos: Vec<u32>,
    delivered: usize,
    now: Time,
    stats: RouteStats,
    record: Option<RunRecord>,
    observer: O,
}

impl<O: RouteObserver> SoaEngine<O> {
    /// Builds the engine over `problem`. `trace` enables the per-step
    /// active-count trace, `recording` the full movement record for
    /// [`crate::replay::verify`].
    pub fn new(problem: Arc<RoutingProblem>, trace: bool, recording: bool, observer: O) -> Self {
        let net = problem.network_arc();
        let n = problem.num_packets();
        let nv = net.num_nodes();
        let ne = net.num_edges();
        let arr_stride = net.max_degree() as u32;
        assert!(
            arr_stride < 256,
            "the SoA arrival meta word keeps 8 bits for the region length; \
             a node of degree {arr_stride} cannot be encoded"
        );

        let mut path_off = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        path_off.push(0);
        for spec in problem.packets() {
            total += spec.path.edges().len() as u32;
            path_off.push(total);
        }
        let mut path_mv = Vec::with_capacity(total as usize);
        let mut flight = Vec::with_capacity(n);
        for (i, spec) in problem.packets().iter().enumerate() {
            for &e in spec.path.edges() {
                path_mv.push(e.0 << 1);
            }
            flight.push(Flight {
                node: spec.path.source().0,
                dest: spec.path.dest(&net).0,
                last_move: NO_MOVE,
                dev_head: NO_MOVE,
                dev_depth: 0,
                path_next: path_off[i],
                path_end: path_off[i + 1],
            });
        }

        let mut stats = RouteStats::new(n);
        if trace {
            stats.active_trace = Some(Vec::new());
        }
        SoaEngine {
            problem,
            net,
            shared: SoaShared {
                flight,
                dev_mv: Vec::new(),
                dev_next: Vec::new(),
                dev_free: NO_MOVE,
                path_off,
                path_mv,
                arrivals: vec![0; nv * arr_stride as usize],
                arr_meta: vec![0; nv],
                arr_stride,
                arr_tag: 0,
                arrivals_count: 0,
                occupied: Vec::new(),
                occ_words: vec![0; nv.div_ceil(64)],
                occ_sum: vec![0; nv.div_ceil(64).div_ceil(64)],
            },
            status: vec![STATUS_PENDING; n],
            slot_words: vec![0; (2 * ne).div_ceil(64)],
            staged: Vec::new(),
            staged_arrivals: 0,
            active_list: Vec::with_capacity(n),
            pending_list: (0..n as u32).collect(),
            list_pos: (0..n as u32).collect(),
            delivered: 0,
            now: 0,
            stats,
            record: if recording {
                Some(RunRecord::default())
            } else {
                None
            },
            observer,
        }
    }

    /// The dispatch-read state.
    #[inline]
    pub fn shared(&self) -> &SoaShared {
        &self.shared
    }

    /// The routing problem being simulated.
    #[inline]
    pub fn problem(&self) -> &RoutingProblem {
        &self.problem
    }

    /// The underlying network (also reachable through
    /// [`SlotView::network`]).
    #[inline]
    pub fn net(&self) -> &Arc<LeveledNetwork> {
        &self.net
    }

    /// Current simulation time (step number).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether every packet has been delivered.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.delivered == self.status.len()
    }

    /// Number of delivered packets.
    #[inline]
    pub fn delivered_count(&self) -> usize {
        self.delivered
    }

    /// Lifecycle tag of packet `pkt` (`STATUS_*`).
    #[inline]
    pub fn status(&self, pkt: u32) -> u8 {
        self.status[pkt as usize]
    }

    /// The maintained active-packet list, unordered (see
    /// [`crate::Simulation::active_slice`]).
    #[inline]
    pub fn active_slice(&self) -> &[u32] {
        &self.active_list
    }

    /// The maintained pending-packet list, unordered.
    #[inline]
    pub fn pending_slice(&self) -> &[u32] {
        &self.pending_list
    }

    /// Mutable handle to the run statistics (for algorithm counters).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut RouteStats {
        &mut self.stats
    }

    /// Read-only handle to the run statistics.
    #[inline]
    pub fn stats(&self) -> &RouteStats {
        &self.stats
    }

    /// Mutable access to the attached event sink.
    #[inline]
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Commits the step's dispatch: adopts the stage's buffers
    /// wholesale — its claimed bits become the global bits, and it
    /// inherits the engine's (clear) bitset and (empty) staging list for
    /// the next step. O(1); call once per step, before any injection.
    // lint: hot-path
    pub fn commit_stage(&mut self, stage: &mut StepStage) {
        debug_assert!(self.staged.is_empty(), "stage committed twice in a step");
        debug_assert!(self.slot_words.iter().all(|&w| w == 0));
        self.staged_arrivals = stage.staged.len() as u32;
        std::mem::swap(&mut self.slot_words, &mut stage.slot_words);
        std::mem::swap(&mut self.staged, &mut stage.staged);
    }

    /// Attempts to inject pending packet `pkt` — same semantics and
    /// outcome set as [`crate::Simulation::try_inject`].
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn try_inject(&mut self, pkt: u32) -> InjectOutcome {
        let i = pkt as usize;
        debug_assert_eq!(self.status[i], STATUS_PENDING);
        let sh = &self.shared;
        let f = &sh.flight[i];
        if f.path_next == f.path_end {
            // Trivial path: delivered without entering the network.
            self.status[i] = STATUS_DELIVERED;
            self.delivered += 1;
            list_remove(&mut self.pending_list, &mut self.list_pos, pkt);
            self.stats.injected_at[i] = Some(self.now);
            self.stats.delivered_at[i] = Some(self.now);
            if let Some(rec) = self.record.as_mut() {
                rec.trivial.push(TrivialDelivery {
                    time: self.now,
                    pkt: PacketId(pkt),
                });
            }
            self.observer.on_trivial(self.now, pkt);
            return InjectOutcome::DeliveredTrivially;
        }
        let mv = sh.path_mv[f.path_next as usize];
        if bit_get(&self.slot_words, mv) {
            return InjectOutcome::Blocked;
        }
        bit_set(&mut self.slot_words, mv);
        self.status[i] = STATUS_ACTIVE;
        list_remove(&mut self.pending_list, &mut self.list_pos, pkt);
        self.list_pos[i] = self.active_list.len() as u32;
        self.active_list.push(pkt);
        self.staged.push(pack_staged(pkt, mv, KIND_INJECT));
        InjectOutcome::Injected
    }

    /// Names the arrival that was left resting (cold path of the
    /// bufferless check).
    // lint: trusted(cold diagnosis path: allocates once, immediately before the
    // run aborts with the error it names)
    #[cold]
    fn find_rested(&self) -> SimError {
        let sh = &self.shared;
        let mut staged = vec![false; self.status.len()];
        for &e in &self.staged {
            if staged_kind(e) != KIND_INJECT {
                staged[staged_pkt(e) as usize] = true;
            }
        }
        for &v in &sh.occupied {
            for &p in sh.arrivals(v) {
                if !staged[p as usize] {
                    return SimError::PacketRested(PacketId(p));
                }
            }
        }
        unreachable!("staged-arrival count mismatch without a resting packet");
    }

    /// Applies all staged exits: verifies the bufferless constraint,
    /// moves packets, absorbs arrivals at destinations, rebuilds the
    /// arrival arena, clears the slot bitset via the staged list, and
    /// advances the clock. Mirrors [`crate::Simulation::finish_step`]
    /// event for event.
    // lint: hot-path
    // lint: panics-by-design(dense-index invariant surface: packet/node ids are
    // validated at construction, so an OOB here is an engine bug caught by the
    // golden suites, never a client-input path)
    pub fn finish_step(&mut self) -> Result<StepReport, SimError> {
        if self.staged_arrivals != self.shared.arrivals_count {
            return Err(self.find_rested());
        }
        let sh = &mut self.shared;

        let mut report = StepReport::default();
        let step = self.now;
        // The outgoing step's arrival regions die by tag, not by
        // clearing: bump the tag and write next step's arrivals directly
        // as moves commit. (Tag 0 is reserved for never-written regions,
        // so on the rare 24-bit wraparound the meta words are flushed
        // wholesale.)
        if sh.arr_tag == (1 << 24) - 1 {
            sh.arr_tag = 0;
            sh.arr_meta.fill(0);
        }
        let new_tag = sh.arr_tag + 1;
        let stride = sh.arr_stride;
        let mut arrivals_count = 0u32;
        sh.occupied.clear();
        for s in 0..self.staged.len() {
            // Touch the flight row and edge record a few exits ahead so
            // their cache misses overlap this iteration's work — the two
            // loads are data-independent across staged exits, but far
            // apart in memory.
            if let Some(&ahead) = self.staged.get(s + 12) {
                std::hint::black_box(sh.flight[staged_pkt(ahead) as usize].node);
                std::hint::black_box(self.net.edge(EdgeId(staged_mv(ahead) >> 1)).head);
            }
            let entry = self.staged[s];
            let pkt = staged_pkt(entry);
            let mv = staged_mv(entry);
            let kind = staged_kind(entry);
            let i = pkt as usize;
            if let Some(rec) = self.record.as_mut() {
                rec.moves.push(MoveEvent {
                    time: step,
                    pkt: PacketId(pkt),
                    mv: unpack_move(mv),
                    kind: kind_of(kind),
                });
            }
            self.observer
                .on_move(step, pkt, unpack_move(mv), kind_of(kind));

            // Kinematics: consume the current path or push the undo move.
            // Advances and injections staged `next_move` verbatim, so the
            // consume/undo comparison is already decided; deflections and
            // oscillations can coincidentally retrace the deviation
            // stack, so they take the full comparison. The per-kind
            // counters fold into the same dispatch so each move branches
            // on its kind once.
            let mut f = sh.flight[i];
            let head = f.dev_head;
            let consumes = match kind {
                KIND_ADVANCE => {
                    debug_assert_eq!(sh.next_move(pkt), mv, "advance is the current next move");
                    true
                }
                KIND_INJECT => {
                    debug_assert_eq!(sh.next_move(pkt), mv, "injection is the first path move");
                    report.injected += 1;
                    self.stats.injected_at[i] = Some(step);
                    true
                }
                _ => {
                    if kind == KIND_OSCILLATE {
                        report.oscillations += 1;
                    } else {
                        report.deflections += 1;
                        self.stats.deflections[i] += 1;
                        if kind == KIND_DEFLECT_FREE {
                            report.fallback_deflections += 1;
                        }
                    }
                    let next = if head != NO_MOVE {
                        sh.dev_mv[head as usize]
                    } else if f.path_next < f.path_end {
                        sh.path_mv[f.path_next as usize]
                    } else {
                        NO_MOVE
                    };
                    next == mv
                }
            };
            if consumes {
                if head != NO_MOVE {
                    f.dev_head = sh.dev_next[head as usize];
                    sh.dev_next[head as usize] = sh.dev_free;
                    sh.dev_free = head;
                    f.dev_depth -= 1;
                } else {
                    f.path_next += 1;
                }
            } else {
                let undo = mv ^ 1;
                let slot = if sh.dev_free != NO_MOVE {
                    let slot = sh.dev_free;
                    sh.dev_free = sh.dev_next[slot as usize];
                    sh.dev_mv[slot as usize] = undo;
                    sh.dev_next[slot as usize] = head;
                    slot
                } else {
                    sh.dev_mv.push(undo);
                    sh.dev_next.push(head);
                    (sh.dev_mv.len() - 1) as u32
                };
                f.dev_head = slot;
                f.dev_depth += 1;
                if f.dev_depth > self.stats.max_deviation[i] {
                    self.stats.max_deviation[i] = f.dev_depth;
                }
            }
            report.moved += 1;
            let e = self.net.edge(EdgeId(mv >> 1));
            let target = if mv & 1 == 0 { e.head.0 } else { e.tail.0 };
            f.node = target;
            f.last_move = mv;
            sh.flight[i] = f;

            if target == f.dest {
                self.status[i] = STATUS_DELIVERED;
                self.delivered += 1;
                list_remove(&mut self.active_list, &mut self.list_pos, pkt);
                self.stats.delivered_at[i] = Some(step + 1);
                self.observer.on_deliver(step + 1, pkt);
                report.absorbed += 1;
            } else {
                let m = sh.arr_meta[target as usize];
                let len = if (m >> 8) == new_tag {
                    m & 0xFF
                } else {
                    sh.occ_words[(target >> 6) as usize] |= 1u64 << (target & 63);
                    sh.occ_sum[(target >> 12) as usize] |= 1u64 << ((target >> 6) & 63);
                    0
                };
                sh.arr_meta[target as usize] = (new_tag << 8) | (len + 1);
                sh.arrivals[(target * stride + len) as usize] = pkt;
                arrivals_count += 1;
            }
        }
        if report.fallback_deflections > 0 {
            self.stats
                .bump_by("fallback_deflections", report.fallback_deflections as u64);
        }

        // Clear the slot bitset via the staged moves (every set bit came
        // from a staged exit or injection), then recover the ascending
        // occupied-node list from the occupancy bits.
        for &e in &self.staged {
            bit_clear(&mut self.slot_words, staged_mv(e));
        }
        self.staged.clear();
        self.staged_arrivals = 0;

        // The ascending `occupied` order is part of the pinned decision
        // sequence (node visit order feeds the rng draws). An in-order
        // sweep of the two-level occupancy bitset recovers it in
        // O(num_nodes / 4096 + touched words): the summary word steers
        // the sweep straight to occupied words, so nothing is loaded,
        // stored, or sorted for the empty stretches in between.
        for sw in 0..sh.occ_sum.len() {
            let mut sbits = sh.occ_sum[sw];
            if sbits == 0 {
                continue;
            }
            sh.occ_sum[sw] = 0;
            while sbits != 0 {
                let w = (sw << 6) | sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let mut bits = sh.occ_words[w];
                sh.occ_words[w] = 0;
                while bits != 0 {
                    sh.occupied.push((w as u32) << 6 | bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
        sh.arr_tag = new_tag;
        sh.arrivals_count = arrivals_count;

        self.now += 1;
        if let Some(trace) = self.stats.active_trace.as_mut() {
            trace.push(self.active_list.len() as u32);
        }
        self.observer
            .on_step_end(step, &report, self.active_list.len());
        Ok(report)
    }

    /// Advances the clock across `n` steps known to be idle: no arrivals
    /// in flight and nothing staged. Emits exactly what `n` calls of
    /// [`SoaEngine::finish_step`] would on an idle engine — one
    /// active-trace sample and one observer step call per step — so a
    /// run that fast-forwards its idle stretches is indistinguishable
    /// from one that grinds them (hot-potato phases leave long gaps
    /// where nothing is in flight and nothing is due for injection).
    // lint: hot-path
    pub fn skip_idle(&mut self, n: u64) {
        debug_assert!(
            self.shared.arrivals_count == 0,
            "idle skip with arrivals in flight"
        );
        debug_assert!(self.staged.is_empty(), "idle skip with staged exits");
        let report = StepReport::default();
        let active = self.active_list.len();
        for _ in 0..n {
            if let Some(trace) = self.stats.active_trace.as_mut() {
                trace.push(active as u32);
            }
            self.observer.on_step_end(self.now, &report, active);
            self.now += 1;
        }
    }

    /// Consumes the engine and returns the statistics together with the
    /// movement record (if recording was enabled).
    pub fn into_parts(mut self) -> (RouteStats, Option<RunRecord>) {
        self.stats.steps_run = self.now;
        (self.stats, self.record)
    }
}

impl<O: RouteObserver> SlotView for SoaEngine<O> {
    #[inline]
    fn network(&self) -> &LeveledNetwork {
        &self.net
    }

    #[inline]
    fn slot_free(&self, mv: DirectedEdge) -> bool {
        !bit_get(&self.slot_words, mv.slot_index() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::{builders, NodeId};
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

    #[test]
    fn move_packing_round_trips() {
        for e in [0u32, 1, 7] {
            for dir in [Direction::Forward, Direction::Backward] {
                let mv = DirectedEdge {
                    edge: EdgeId(e),
                    dir,
                };
                assert_eq!(unpack_move(pack_move(mv)), mv);
                assert_eq!(pack_move(mv) as usize, mv.slot_index());
                assert_eq!(unpack_move(pack_move(mv) ^ 1), mv.reversed());
            }
        }
    }

    #[test]
    fn single_packet_advances_to_destination() {
        let prob = line_problem(vec![vec![0, 1, 2, 3]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, true, false, NoopObserver);
        assert_eq!(sim.try_inject(0), InjectOutcome::Injected);
        sim.finish_step().unwrap();
        assert_eq!(sim.status(0), STATUS_ACTIVE);
        let mut stage = StepStage::new(net);
        for _ in 0..2 {
            let sh = sim.shared();
            for &v in &sh.occupied {
                for &p in sh.arrivals(v) {
                    stage.stage(p, sh.next_move(p), KIND_ADVANCE);
                }
            }
            sim.commit_stage(&mut stage);
            sim.finish_step().unwrap();
        }
        assert!(sim.is_done());
        let (stats, _) = sim.into_parts();
        assert_eq!(stats.injected_at[0], Some(0));
        assert_eq!(stats.delivered_at[0], Some(3));
        assert_eq!(stats.deflections[0], 0);
        assert_eq!(stats.active_trace.unwrap(), vec![1, 1, 0]);
    }

    #[test]
    fn trivial_path_delivered_at_injection() {
        let net = Arc::new(builders::linear_array(3));
        let prob = Arc::new(
            RoutingProblem::new(Arc::clone(&net), vec![Path::trivial(NodeId(1))]).unwrap(),
        );
        let mut sim: SoaEngine = SoaEngine::new(prob, false, true, NoopObserver);
        assert_eq!(sim.try_inject(0), InjectOutcome::DeliveredTrivially);
        assert!(sim.is_done());
        let (stats, record) = sim.into_parts();
        assert_eq!(stats.injected_at[0], Some(0));
        assert_eq!(record.unwrap().trivial.len(), 1);
    }

    #[test]
    fn deflection_updates_deviation_and_unwinds() {
        let prob = line_problem(vec![vec![0, 1, 2, 3]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        // Deflect backward along edge 0 (unsafe), then walk home.
        let mut stage = StepStage::new(net);
        stage.stage(
            0,
            pack_move(DirectedEdge::backward(EdgeId(0))),
            KIND_DEFLECT_FREE,
        );
        sim.commit_stage(&mut stage);
        let report = sim.finish_step().unwrap();
        assert_eq!(report.deflections, 1);
        assert_eq!(report.fallback_deflections, 1);
        assert_eq!(sim.shared().flight[0].dev_depth, 1);
        assert!(sim.shared().validate_current_path(sim.net(), 0));
        while !sim.is_done() {
            let sh = sim.shared();
            for &v in &sh.occupied {
                for &p in sh.arrivals(v) {
                    stage.stage(p, sh.next_move(p), KIND_ADVANCE);
                }
            }
            sim.commit_stage(&mut stage);
            sim.finish_step().unwrap();
        }
        let (stats, _) = sim.into_parts();
        assert_eq!(stats.deflections[0], 1);
        assert_eq!(stats.max_deviation[0], 1);
        assert_eq!(stats.counter("fallback_deflections"), 1);
        assert_eq!(stats.delivered_at[0], Some(5));
    }

    #[test]
    fn resting_packet_is_detected() {
        let prob = line_problem(vec![vec![0, 1, 2]]);
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        assert_eq!(
            sim.finish_step().unwrap_err(),
            SimError::PacketRested(PacketId(0))
        );
    }

    #[test]
    fn injection_blocked_by_claimed_slot() {
        let prob = line_problem(vec![vec![0, 1, 2], vec![1, 2, 3]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        // p0 at node 1 advances over edge 1; p1's injection (edge 1 fwd)
        // must block, then succeed next step.
        let mut stage = StepStage::new(net);
        stage.stage(0, pack_move(DirectedEdge::forward(EdgeId(1))), KIND_ADVANCE);
        sim.commit_stage(&mut stage);
        assert_eq!(sim.try_inject(1), InjectOutcome::Blocked);
        sim.finish_step().unwrap();
        assert_eq!(sim.try_inject(1), InjectOutcome::Injected);
    }

    #[test]
    fn current_path_edges_lists_deviation_then_base() {
        let prob = line_problem(vec![vec![0, 1, 2, 3, 4]]);
        let net = prob.network_arc();
        let mut sim: SoaEngine = SoaEngine::new(prob, false, false, NoopObserver);
        sim.try_inject(0);
        sim.finish_step().unwrap();
        let mut stage = StepStage::new(net);
        stage.stage(0, pack_move(DirectedEdge::forward(EdgeId(1))), KIND_ADVANCE);
        sim.commit_stage(&mut stage);
        sim.finish_step().unwrap();
        stage.stage(
            0,
            pack_move(DirectedEdge::backward(EdgeId(1))),
            KIND_DEFLECT_SAFE,
        );
        sim.commit_stage(&mut stage);
        sim.finish_step().unwrap();
        let edges: Vec<EdgeId> = sim.shared().current_path_edges(0).collect();
        assert_eq!(edges, vec![EdgeId(1), EdgeId(2), EdgeId(3)]);
    }
}
