//! The paper's hot-potato routing algorithm (§3).
//!
//! Per step, for every node with arriving packets:
//!
//! 1. **States & priorities.** Each packet is *normal*, *excited* (highest
//!    priority; entered with probability `q` per step) or *wait* (lowest).
//!    Excited packets demote to normal when deflected and at round ends;
//!    wait packets demote when deflected and at phase ends.
//! 2. **Targets.** A packet's target node is the node of its current path
//!    in its frame's target level (which recedes one inner level per
//!    round), or its destination if the path does not cross that level.
//!    Normal/excited packets follow their current path toward the target;
//!    on reaching it (by a forward move) they enter the wait state and
//!    oscillate on their arrival edge.
//! 3. **Conflicts.** One winner per (edge, direction), by priority, ties
//!    uniformly at random; losers are deflected *backward and safely*
//!    (Lemma 2.1) via [`hotpotato_sim::conflict::resolve`].
//! 4. **Injection.** A packet enters the network at the beginning of the
//!    phase in which its source sits at inner level `m − 1` of its frame,
//!    retrying on subsequent steps if its first edge is busy (§3, "Packet
//!    Injection").
//!
//! The run lasts `(num_sets·m + L)` phases of `m·w` steps; under scaled
//! parameters a configurable grace period follows (frames have left the
//! network, targets degenerate to destinations, so stragglers chase their
//! destinations directly with the same conflict rules).
//!
//! Every run goes through [`BuschRouter::route_observed`], which drives
//! the data-oriented engine (`crate::soa`). [`BuschRouter::route_reference`]
//! runs the same algorithm on the scalar [`Simulation`]; it is kept only
//! as the oracle the equivalence tests compare the fast driver against.

use crate::invariants::{
    check_phase_end, initial_per_set_congestion, InvariantReport, PhaseAuditScratch,
};
use crate::params::Params;
use crate::schedule::{assign_sets, FrameSchedule};
use hotpotato_sim::conflict::{self, Contender, DeflectRule};
use hotpotato_sim::{
    ExitKind, InjectOutcome, NoopObserver, RouteObserver, RouteOutcome, RouteStats, Router,
    Section, Simulation, Time,
};
use leveled_net::ids::{DirectedEdge, Direction};
use leveled_net::EdgeId;
use rand::{Rng, RngCore};
use routing_core::RoutingProblem;
use std::sync::Arc;

/// The paper's packet states (§3, "Packet State").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketState {
    /// Following the current path toward the target; middle priority.
    Normal,
    /// Highest priority; entered with probability `q`, left on deflection
    /// or at round end.
    Excited,
    /// Lowest priority; oscillating on `edge`, whose head is the packet's
    /// target node.
    Wait {
        /// The edge the packet oscillates on (the last link it traversed
        /// to reach its target node).
        edge: EdgeId,
    },
}

impl PacketState {
    fn priority(self) -> u32 {
        match self {
            PacketState::Excited => 2,
            PacketState::Normal => 1,
            PacketState::Wait { .. } => 0,
        }
    }
}

/// Per-packet metadata carried through the engine.
#[derive(Clone, Copy, Debug)]
pub struct Meta {
    /// The packet's frontier set.
    pub set: u32,
    /// The packet's current state.
    pub state: PacketState,
}

/// Router configuration beyond the scheduling parameters.
#[derive(Clone, Copy, Debug)]
pub struct BuschConfig {
    /// Scheduling parameters (`m`, `w`, `q`, number of frontier sets).
    pub params: Params,
    /// Run the `O(N·L)` phase-end invariant audits (`I_b..I_f`).
    pub check_invariants: bool,
    /// Permit non-safe deflections when no safe backward edge exists
    /// (needed for scaled parameters, where the w.h.p. preconditions can
    /// fail; every use is counted in the invariant report). With `false`
    /// the router panics where the paper's Lemma 2.1 would be violated.
    pub allow_fallback: bool,
    /// Ablation switch (`A4`): deflect losers to a uniformly random free
    /// link instead of the paper's safe backward rule. Breaks Lemma 2.1
    /// and Lemma 4.10 — exists to *measure* what safe deflections buy.
    pub arbitrary_deflections: bool,
    /// Ablation switch (`A5`): ignore the frame-scheduled injection phases
    /// and admit every packet from step 0 (greedy-style). Destroys
    /// injection isolation (`I_a`) and lets packets of different sets meet
    /// (`I_d`) — exists to *measure* what the paper's injection discipline
    /// buys.
    pub eager_injection: bool,
    /// Record the per-step active-packet trace.
    pub trace: bool,
    /// Record every movement event for independent replay auditing
    /// ([`hotpotato_sim::replay::verify`]).
    pub record: bool,
}

impl BuschConfig {
    /// Default configuration for the given parameters: fallback allowed,
    /// invariants checked, no trace.
    pub fn new(params: Params) -> Self {
        BuschConfig {
            params,
            check_invariants: true,
            allow_fallback: true,
            arbitrary_deflections: false,
            eager_injection: false,
            trace: false,
            record: false,
        }
    }
}

/// Result of a routing run.
#[derive(Clone, Debug)]
pub struct BuschOutcome {
    /// Standard routing statistics (makespan, latencies, deflections,
    /// deviation depths, counters).
    pub stats: RouteStats,
    /// Violation counters for the paper's invariants `I_a..I_f`.
    pub invariants: InvariantReport,
    /// The frontier-set each packet was assigned to.
    pub set_assignment: Vec<u32>,
    /// The frame schedule used.
    pub schedule: FrameSchedule,
    /// Phases elapsed when the run ended.
    pub phases_elapsed: u64,
    /// The parameters used.
    pub params: Params,
    /// The movement record, when [`BuschConfig::record`] was set.
    pub record: Option<hotpotato_sim::RunRecord>,
}

/// The paper's routing algorithm, ready to route problems.
#[derive(Clone, Copy, Debug)]
pub struct BuschRouter {
    cfg: BuschConfig,
}

impl BuschRouter {
    /// Creates a router with default configuration for `params`.
    pub fn new(params: Params) -> Self {
        BuschRouter {
            cfg: BuschConfig::new(params),
        }
    }

    /// Creates a router with an explicit configuration.
    pub fn with_config(cfg: BuschConfig) -> Self {
        BuschRouter { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BuschConfig {
        &self.cfg
    }

    /// Routes `problem`, consuming randomness from `rng` (set assignment,
    /// excitation, tie-breaking). Deterministic given the rng state.
    ///
    /// Takes the problem behind an `Arc` so the engine can share it
    /// without deep-cloning the paths (problems are immutable).
    pub fn route<R: Rng + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
    ) -> BuschOutcome {
        self.route_observed(problem, rng, &mut NoopObserver)
    }

    /// [`BuschRouter::route`] with an attached event sink: besides the
    /// engine's movement events, the router emits the schedule events —
    /// phase boundaries, per-set frontiers `φ_i(k)`, and (when audits are
    /// on) the per-set congestion measured at each phase end. With
    /// [`NoopObserver`] this monomorphizes to exactly [`BuschRouter::route`].
    ///
    /// Runs on the data-oriented engine ([`hotpotato_sim::SoaEngine`]).
    pub fn route_observed<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
        observer: &mut O,
    ) -> BuschOutcome {
        crate::soa::route_soa(&self.cfg, problem, rng, observer)
    }

    /// The reference driver: the same algorithm on the scalar engine
    /// ([`Simulation`]), written for clarity rather than speed. It is the
    /// oracle [`BuschRouter::route_observed`] must reproduce bit for bit
    /// (stats, records, observer streams) from the same rng state; only
    /// the equivalence tests call it.
    // lint: telemetry
    // (the `Instant` reads feed `on_section` profiling only; no routing
    // decision depends on them)
    pub fn route_reference<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
        observer: &mut O,
    ) -> BuschOutcome {
        let params = self.cfg.params;
        let net = problem.network_arc();
        let depth = net.depth();
        let schedule = FrameSchedule::new(params.m, params.num_sets, depth);
        let phase_len = params.phase_len();
        let max_steps = params.max_steps(depth).max(phase_len);

        // Random uniform frontier-set assignment (§2.4).
        let sets = assign_sets(problem.num_packets(), params.num_sets, rng);
        let metas: Vec<Meta> = sets
            .iter()
            .map(|&set| Meta {
                set,
                state: PacketState::Normal,
            })
            .collect();

        observer.on_sets_assigned(&sets, params.num_sets);
        let timing = observer.wants_timing();
        let mut sim = Simulation::builder(Arc::clone(problem), metas)
            .trace(self.cfg.trace)
            .recording(self.cfg.record)
            .observer(observer)
            .build();
        let mut invariants = InvariantReport::default();
        let initial_per_set = if self.cfg.check_invariants {
            initial_per_set_congestion(&sim, &sets, params.num_sets)
        } else {
            Vec::new()
        };

        // Injection agenda: (injection step, packet), sorted descending so
        // due packets pop off the back.
        let mut agenda: Vec<(Time, u32)> = (0..problem.num_packets() as u32)
            .map(|p| {
                if self.cfg.eager_injection {
                    return (0, p);
                }
                let src = problem.packets()[p as usize].path.source();
                let phase = schedule.injection_phase(sets[p as usize], net.level(src));
                (phase * phase_len, p)
            })
            .collect();
        agenda.sort_unstable_by(|a, b| b.cmp(a));
        let mut ready: Vec<u32> = Vec::new();

        // Scratch buffers reused across steps.
        let mut arrivals_buf: Vec<u32> = Vec::new();
        let mut contenders: Vec<Contender> = Vec::new();
        let mut nodes_buf: Vec<leveled_net::NodeId> = Vec::new();
        let mut conflict_scratch = conflict::ConflictScratch::default();
        let mut audit_scratch = PhaseAuditScratch::default();
        let mut total_moves = 0u64;

        while !sim.is_done() && sim.now() < max_steps {
            let t = sim.now();
            let phase = t / phase_len;
            let round = ((t / params.w as u64) % params.m as u64) as u32;
            let round_start = t.is_multiple_of(params.w as u64);
            let phase_start = t.is_multiple_of(phase_len);

            if phase_start {
                let obs = sim.observer_mut();
                obs.on_phase_start(phase, t);
                for set in 0..params.num_sets {
                    if schedule.frame_in_network(set, phase) {
                        obs.on_frontier(phase, set, schedule.frontier(set, phase));
                    }
                }
            }
            let section_start = if timing {
                Some(std::time::Instant::now())
            } else {
                None
            };

            // Dispatch every node with arrivals. The per-packet state
            // updates (round/phase demotions, excitation — §3) are folded
            // into this loop: every active packet is visited exactly once
            // per step, and both updates are per-packet decisions that
            // only influence its own node's conflict resolution, so the
            // fold is equivalent to separate passes while avoiding two
            // O(N) status scans per step.
            let mut excitations = 0u64;
            sim.occupied_nodes_into(&mut nodes_buf);
            for &v in &nodes_buf {
                arrivals_buf.clear();
                arrivals_buf.extend_from_slice(sim.arrivals(v));

                for &p in &arrivals_buf {
                    let meta = sim.meta_mut(p);
                    // Excited packets demote at round ends, wait packets
                    // at phase ends.
                    if round_start {
                        match meta.state {
                            PacketState::Excited => meta.state = PacketState::Normal,
                            PacketState::Wait { .. } if phase_start => {
                                meta.state = PacketState::Normal;
                            }
                            _ => {}
                        }
                    }
                    // Each normal packet turns excited with probability q,
                    // every step.
                    if params.q > 0.0 && meta.state == PacketState::Normal && rng.gen_bool(params.q)
                    {
                        meta.state = PacketState::Excited;
                        excitations += 1;
                    }
                }

                // I_d: packets of different frontier-sets must not meet.
                if self.cfg.check_invariants && arrivals_buf.len() > 1 {
                    let first = sim.packet(arrivals_buf[0]).meta.set;
                    if arrivals_buf[1..]
                        .iter()
                        .any(|&p| sim.packet(p).meta.set != first)
                    {
                        invariants.cross_set_meetings += 1;
                    }
                }

                contenders.clear();
                for &p in &arrivals_buf {
                    let meta = sim.packet(p).meta;
                    let last = sim.packet(p).last_move;
                    let (state, desired) = match meta.state {
                        PacketState::Wait { edge } => {
                            // Oscillate: back from the target (edge head),
                            // forward from the rear node (edge tail).
                            let e = net.edge(edge);
                            let mv = if v == e.head {
                                DirectedEdge::backward(edge)
                            } else {
                                debug_assert_eq!(v, e.tail);
                                DirectedEdge::forward(edge)
                            };
                            (meta.state, mv)
                        }
                        PacketState::Normal | PacketState::Excited => {
                            let target = schedule.target_level(meta.set, phase, round);
                            let arrived_fwd = matches!(
                                last,
                                Some(mv) if mv.dir == Direction::Forward
                            );
                            if net.level(v) as i64 == target && arrived_fwd {
                                // Reached the target node: enter the wait
                                // state on the arrival edge (§3, "Wait
                                // state").
                                let edge = last.expect("checked above").edge;
                                let st = PacketState::Wait { edge };
                                sim.meta_mut(p).state = st;
                                (st, DirectedEdge::backward(edge))
                            } else {
                                let mv = sim
                                    .next_move_of(p)
                                    .expect("active packets are not at their destination");
                                (meta.state, mv)
                            }
                        }
                    };
                    contenders.push(Contender {
                        pkt: p,
                        desired,
                        priority: state.priority(),
                        arrival: last,
                    });
                }

                // Fast path: a lone packet at a node cannot conflict — its
                // desired slot originates here and nobody else wants it.
                // This skips the resolver's allocations on the (dominant)
                // uncontended case.
                if let [c] = contenders[..] {
                    let kind = match sim.packet(c.pkt).meta.state {
                        PacketState::Wait { .. } => ExitKind::Oscillate,
                        _ => ExitKind::Advance,
                    };
                    sim.stage_exit(c.pkt, c.desired, kind)
                        .expect("lone desired slot is free");
                    continue;
                }

                let rule = if self.cfg.arbitrary_deflections {
                    DeflectRule::Arbitrary
                } else {
                    DeflectRule::SafeBackward {
                        allow_fallback: self.cfg.allow_fallback,
                    }
                };
                let exits =
                    conflict::resolve_into(&sim, v, &contenders, rule, rng, &mut conflict_scratch)
                        .expect("hot-potato assignment failed: arrival bound violated");
                for &exit in exits {
                    let kind = if exit.won {
                        match sim.packet(exit.pkt).meta.state {
                            PacketState::Wait { .. } => ExitKind::Oscillate,
                            _ => ExitKind::Advance,
                        }
                    } else {
                        // Losers demote (§3: deflected excited and wait
                        // packets become normal).
                        sim.meta_mut(exit.pkt).state = PacketState::Normal;
                        if !exit.safe {
                            invariants.unsafe_deflections += 1;
                        }
                        ExitKind::Deflect { safe: exit.safe }
                    };
                    sim.stage_exit(exit.pkt, exit.mv, kind)
                        .expect("resolver produces feasible exits");
                }
            }

            if excitations > 0 {
                sim.stats_mut().bump_by("excitations", excitations);
            }
            let section_start = section_start.map(|start| {
                let now = std::time::Instant::now();
                sim.observer_mut()
                    .on_section(Section::Conflict, (now - start).as_nanos() as u64);
                now
            });

            // Injections: admit packets whose phase has begun; retry the
            // blocked ones every subsequent step (§3, "Packet Injection").
            while let Some(&(due, p)) = agenda.last() {
                if due > t {
                    break;
                }
                agenda.pop();
                ready.push(p);
            }
            ready.retain(|&p| {
                let src = sim.path_of(p).source();
                let occupied_source = !sim.arrivals(src).is_empty();
                match sim.try_inject(p).expect("pending packet") {
                    InjectOutcome::Injected => {
                        if occupied_source {
                            invariants.isolation_violations += 1;
                        }
                        false
                    }
                    InjectOutcome::DeliveredTrivially => false,
                    InjectOutcome::Blocked => {
                        sim.stats_mut().bump("injection_retries");
                        true
                    }
                }
            });

            let section_start = section_start.map(|start| {
                let now = std::time::Instant::now();
                sim.observer_mut()
                    .on_section(Section::Injection, (now - start).as_nanos() as u64);
                now
            });

            let report = sim.finish_step().expect("all arrivals staged");
            total_moves += report.moved as u64;
            let section_start = section_start.map(|start| {
                let now = std::time::Instant::now();
                sim.observer_mut()
                    .on_section(Section::Kinematics, (now - start).as_nanos() as u64);
                now
            });

            // Phase-end audits (the paper states I_a..I_f at phase ends).
            if self.cfg.check_invariants && (t + 1).is_multiple_of(phase_len) {
                // Wait packets count at their target node (the head of
                // their oscillation edge), regardless of oscillation parity.
                let effective =
                    |idx: u32, actual: leveled_net::Level| match sim.packet(idx).meta.state {
                        PacketState::Wait { edge } => net.level(net.edge(edge).head),
                        _ => actual,
                    };
                let per_set_max = check_phase_end(
                    &sim,
                    &schedule,
                    &sets,
                    phase,
                    &initial_per_set,
                    effective,
                    &mut audit_scratch,
                    &mut invariants,
                );
                let obs = sim.observer_mut();
                for (set, (&now_max, &init)) in per_set_max.iter().zip(&initial_per_set).enumerate()
                {
                    obs.on_set_congestion(phase, set as u32, now_max, init);
                }
                if let Some(start) = section_start {
                    sim.observer_mut()
                        .on_section(Section::Audit, start.elapsed().as_nanos() as u64);
                }
            }
            if (t + 1).is_multiple_of(phase_len) {
                sim.observer_mut().on_phase_end(phase, t + 1);
            }
        }

        let phases_elapsed = sim.now() / phase_len;
        let (mut stats, record) = sim.into_parts();
        invariants.unsafe_deflections = invariants
            .unsafe_deflections
            .max(stats.counter("fallback_deflections"));
        stats.counters.insert("phases", phases_elapsed);
        stats.counters.insert("moves", total_moves);
        BuschOutcome {
            stats,
            invariants,
            set_assignment: sets,
            schedule,
            phases_elapsed,
            params,
            record,
        }
    }
}

impl Router for BuschRouter {
    fn name(&self) -> &'static str {
        "busch"
    }

    fn route(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut dyn RngCore,
        observer: &mut dyn RouteObserver,
    ) -> RouteOutcome {
        let out = self.route_observed(problem, rng, observer);
        let mut stats = out.stats;
        stats.counters.insert("phases", out.phases_elapsed);
        stats
            .counters
            .insert("invariant_violations", out.invariants.total_violations());
        out.invariants.fold_into(&mut stats.counters);
        stats
            .counters
            .insert("num_sets", out.params.num_sets as u64);
        RouteOutcome {
            algorithm: "busch",
            stats,
            record: out.record,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders::{self, ButterflyCoords, MeshCorner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing_core::workloads;

    fn router(m: u32, w: u32, q: f64, sets: u32) -> BuschRouter {
        BuschRouter::new(Params::scaled(m, w, q, sets))
    }

    #[test]
    fn single_packet_on_a_line_is_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Arc::new(builders::linear_array(8));
        let prob = workloads::level_to_level(&net, 0, 7, &mut rng).unwrap();
        let out = router(3, 8, 0.1, 1).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
        assert_eq!(out.stats.deflections[0], 0, "no conflicts on a line");
    }

    #[test]
    fn butterfly_random_pairs_all_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 16, &mut rng).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn butterfly_permutation_all_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let k = 4;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = workloads::butterfly_permutation(&net, &coords, &mut rng);
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn mesh_transpose_all_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let (raw, coords) = builders::mesh(6, 6, MeshCorner::TopLeft);
        let net = Arc::new(raw);
        let prob = workloads::mesh_transpose(&net, &coords).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn hotspot_on_complete_leveled_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = Arc::new(builders::complete_leveled(8, 4));
        let prob = workloads::hotspot(&net, 10, 2, &mut rng).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let net = Arc::new(builders::butterfly(3));
        let mut rng_w = ChaCha8Rng::seed_from_u64(6);
        let prob = workloads::random_pairs(&net, 8, &mut rng_w).unwrap();
        let r = router(4, 16, 0.1, 2);
        let mut rng1 = ChaCha8Rng::seed_from_u64(99);
        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        let o1 = r.route(&prob, &mut rng1);
        let o2 = r.route(&prob, &mut rng2);
        assert_eq!(o1.stats.delivered_at, o2.stats.delivered_at);
        assert_eq!(o1.stats.deflections, o2.stats.deflections);
        assert_eq!(o1.set_assignment, o2.set_assignment);
    }

    #[test]
    fn injection_happens_at_the_scheduled_phase() {
        // On a line with one packet and one set, injection must occur at
        // the start of phase (m - 1 + source_level).
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = Arc::new(builders::linear_array(10));
        let prob = workloads::level_to_level(&net, 2, 9, &mut rng).unwrap();
        let params = Params::scaled(3, 6, 0.0, 1);
        let out = BuschRouter::new(params).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
        let expected_phase = 3 - 1 + 2; // m - 1 + source level
        assert_eq!(
            out.stats.injected_at[0],
            Some(expected_phase * params.phase_len()),
        );
    }

    #[test]
    fn invariants_clean_on_conflict_free_instance() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net = Arc::new(builders::linear_array(12));
        let prob = workloads::level_to_level(&net, 0, 11, &mut rng).unwrap();
        let out = router(4, 12, 0.05, 1).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
        assert!(out.invariants.is_clean(), "{}", out.invariants.summary());
    }

    #[test]
    fn wait_state_parks_packets_without_losing_them() {
        // A single packet with a destination in the middle of the network:
        // it must be absorbed during round 0 of the right phase and never
        // linger.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let net = Arc::new(builders::linear_array(9));
        let prob = workloads::level_to_level(&net, 1, 5, &mut rng).unwrap();
        let out = router(3, 8, 0.1, 1).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
    }

    #[test]
    fn zero_excitation_probability_still_works_on_low_conflict_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let net = Arc::new(builders::butterfly(3));
        let prob = workloads::random_pairs(&net, 4, &mut rng).unwrap();
        let out = router(4, 16, 0.0, 4).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
        assert_eq!(out.stats.counter("excitations"), 0);
    }

    #[test]
    fn congested_funnel_is_fully_delivered() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let net = Arc::new(builders::complete_leveled(10, 4));
        let prob = workloads::funnel(&net, 16, &mut rng).unwrap();
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn outcome_carries_schedule_and_assignment() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let net = Arc::new(builders::butterfly(3));
        let prob = workloads::random_pairs(&net, 6, &mut rng).unwrap();
        let out = router(4, 16, 0.1, 3).route(&prob, &mut rng);
        assert_eq!(out.set_assignment.len(), 6);
        assert!(out.set_assignment.iter().all(|&s| s < 3));
        assert_eq!(out.schedule.num_sets, 3);
        assert!(out.phases_elapsed > 0);
    }

    #[test]
    fn makespan_within_schedule_plus_grace() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 12, &mut rng).unwrap();
        let params = Params::auto(&prob);
        let out = BuschRouter::new(params).route(&prob, &mut rng);
        assert!(out.stats.all_delivered());
        assert!(out.stats.makespan().unwrap() <= params.max_steps(net.depth()));
    }
}
