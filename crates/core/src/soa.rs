//! The step driver for [`crate::BuschRouter`].
//!
//! Runs the paper's states/targets/conflicts/injection (§3) on
//! [`hotpotato_sim::SoaEngine`]. The per-packet algorithm state — the
//! paper's *normal*, *excited* or *wait* state — lives in one flat byte
//! array mirroring the engine's SoA layout. A wait packet needs no
//! stored edge: it oscillates on the edge of its last move, so its next
//! move is that move reversed (`last_move ^ 1`).
//!
//! Each step dispatches every occupied node in ascending order into one
//! [`StepStage`], and all randomness comes from the caller's rng, drawn
//! in a fixed order (set assignment, then per step and node: excitation
//! draws in arrival order, then conflict tie-breaks) that the golden
//! runs pin.
//!
//! Steps in which every packet in flight is a waiter decide nothing, and
//! after two of them the state repeats every two steps. The driver jumps
//! such a quiet window a whole number of cycles at once
//! ([`SoaEngine::repeat_steps`]), replaying the cycles' rng words, I_d
//! meetings and move counts; an idle stretch is the empty cycle. See
//! `route_soa` and DESIGN §11.

use crate::invariants::{check_phase_end, InvariantReport, PhaseAuditScratch};
use crate::router::{BuschConfig, BuschOutcome};
use crate::schedule::{assign_sets, FrameSchedule};
use hotpotato_sim::conflict::{self, ConflictScratch, Contender, DeflectRule};
use hotpotato_sim::soa::{
    pack_move, unpack_move, KIND_ADVANCE, KIND_DEFLECT_FREE, KIND_DEFLECT_SAFE, KIND_OSCILLATE,
};
use hotpotato_sim::{
    InjectOutcome, RouteObserver, Section, SoaEngine, SoaShared, StepStage, Time, NO_MOVE,
};
use leveled_net::{EdgeId, LeveledNetwork, NodeId};
use rand::Rng;
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Packet state tags; numerically equal to the paper's conflict
/// priorities (excited > normal > wait), so `tag as u32` *is* the
/// [`Contender::priority`].
const TAG_WAIT: u8 = 0;
const TAG_NORMAL: u8 = 1;
const TAG_EXCITED: u8 = 2;

/// The step clock decomposition and the configuration switches that
/// influence dispatch.
#[derive(Clone, Copy)]
struct StepCtx {
    round_start: bool,
    phase_start: bool,
    /// Integer form of the excitation draw `gen_bool(q)`: the vendored
    /// sampler is `(next_u64() >> 11) as f64 / 2^53 < q`, which for
    /// `0 < q < 1` is exactly `(next_u64() >> 11) < ceil(q · 2^53)` —
    /// both sides of the float compare are exact, so precomputing the
    /// integer threshold removes the float conversion from the hottest
    /// rng call without perturbing the pinned stream. `0` means no draw
    /// (no draw is made when `q <= 0`).
    exc_threshold: u64,
    /// `q >= 1.0`: every normal arrival excites, and — matching
    /// `gen_bool`'s early return — *without* consuming a draw.
    exc_always: bool,
    rule: DeflectRule,
}

/// The dispatch working set, persistent across steps: the staging
/// buffer, resolver scratch, and per-step counters folded into the run
/// totals after each dispatch.
struct DispatchCtx {
    stage: StepStage,
    scratch: ConflictScratch,
    contenders: Vec<Contender>,
    /// The state tag per arrival of the node in hand — the node-local
    /// view of the state updates, which conflict resolution must see.
    tags_buf: Vec<u8>,
    excitations: u64,
    cross_set_meetings: u64,
    unsafe_deflections: u64,
}

/// Dispatches every occupied node, ascending: folds the round/phase
/// demotions and excitation draws into the visit, builds contenders, resolves conflicts against
/// the stage's slot bitset, and stages one exit per arrival. Packet
/// states are updated in `tags` as each node finishes; no other node
/// reads them in the same step. A wait packet's move is its last move
/// reversed: it entered the wait state by reversing its arrival, and a
/// wait packet that loses a conflict is demoted, so its last move is
/// always its previous oscillation.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn dispatch<R: Rng + ?Sized>(
    net: &LeveledNetwork,
    sh: &SoaShared,
    tags: &mut [u8],
    sets: &[u32],
    targets: &[i64],
    sc: StepCtx,
    rng: &mut R,
    ctx: &mut DispatchCtx,
) {
    for &v in &sh.occupied {
        let arrivals = sh.arrivals(v);

        // Most nodes host a single arrival, which cannot conflict: its
        // desired slot originates here and nobody else wants it. Decide
        // its state and exit without building contenders — the rng draw
        // sequence (one excitation draw per normal packet, in arrival
        // order) is exactly the general path's.
        if let [p] = *arrivals {
            let i = p as usize;
            let old_tag = tags[i];
            let mut tag = old_tag;
            if sc.round_start && (tag == TAG_EXCITED || (tag == TAG_WAIT && sc.phase_start)) {
                tag = TAG_NORMAL;
            }
            if tag == TAG_NORMAL
                && (sc.exc_always
                    || (sc.exc_threshold != 0 && (rng.next_u64() >> 11) < sc.exc_threshold))
            {
                tag = TAG_EXCITED;
                ctx.excitations += 1;
            }
            let last = sh.flight[i].last_move;
            let arrived_fwd = last != NO_MOVE && last & 1 == 0;
            if tag != TAG_WAIT
                && arrived_fwd
                && net.level(NodeId(v)) as i64 == targets[sets[i] as usize]
            {
                // Reached the target node: enter the wait state on the
                // arrival edge (§3, "Wait state").
                tag = TAG_WAIT;
            }
            if tag == TAG_WAIT {
                ctx.stage.stage(p, last ^ 1, KIND_OSCILLATE);
            } else {
                let mv = sh.next_move(p);
                debug_assert_ne!(mv, NO_MOVE, "active packets are not at their destination");
                ctx.stage.stage(p, mv, KIND_ADVANCE);
            }
            if tag != old_tag {
                tags[i] = tag;
            }
            continue;
        }

        // Per-packet state pass: demotions at round/phase starts, then
        // the excitation draw — into the node-local tag buffer, since
        // this node's conflict resolution must see the updated states.
        ctx.tags_buf.clear();
        for &p in arrivals {
            let mut tag = tags[p as usize];
            if sc.round_start && (tag == TAG_EXCITED || (tag == TAG_WAIT && sc.phase_start)) {
                tag = TAG_NORMAL;
            }
            if tag == TAG_NORMAL
                && (sc.exc_always
                    || (sc.exc_threshold != 0 && (rng.next_u64() >> 11) < sc.exc_threshold))
            {
                tag = TAG_EXCITED;
                ctx.excitations += 1;
            }
            ctx.tags_buf.push(tag);
        }

        // I_d: packets of different frontier-sets must not meet.
        if arrivals.len() > 1 {
            let first = sets[arrivals[0] as usize];
            if arrivals[1..].iter().any(|&p| sets[p as usize] != first) {
                ctx.cross_set_meetings += 1;
            }
        }

        ctx.contenders.clear();
        for (j, &p) in arrivals.iter().enumerate() {
            let last = sh.flight[p as usize].last_move;
            let arrived_fwd = last != NO_MOVE && last & 1 == 0;
            if ctx.tags_buf[j] != TAG_WAIT
                && arrived_fwd
                && net.level(NodeId(v)) as i64 == targets[sets[p as usize] as usize]
            {
                // Reached the target node: enter the wait state on the
                // arrival edge (§3, "Wait state").
                ctx.tags_buf[j] = TAG_WAIT;
            }
            let desired = if ctx.tags_buf[j] == TAG_WAIT {
                unpack_move(last ^ 1)
            } else {
                let mv = sh.next_move(p);
                debug_assert_ne!(mv, NO_MOVE, "active packets are not at their destination");
                unpack_move(mv)
            };
            ctx.contenders.push(Contender {
                pkt: p,
                desired,
                priority: ctx.tags_buf[j] as u32,
                arrival: if last == NO_MOVE {
                    None
                } else {
                    Some(unpack_move(last))
                },
            });
        }

        // Fast path: a lone packet at a node cannot conflict — its
        // desired slot originates here and nobody else wants it.
        if let [c] = ctx.contenders[..] {
            let kind = if ctx.tags_buf[0] == TAG_WAIT {
                KIND_OSCILLATE
            } else {
                KIND_ADVANCE
            };
            ctx.stage.stage(c.pkt, pack_move(c.desired), kind);
        } else {
            let exits = conflict::resolve_into(
                &ctx.stage,
                NodeId(v),
                &ctx.contenders,
                sc.rule,
                rng,
                &mut ctx.scratch,
            )
            .expect("hot-potato assignment failed: arrival bound violated");
            // `resolve_into` returns exits in contender order, which is
            // arrival order — so exit j is arrival j, no matching needed.
            for (j, exit) in exits.iter().enumerate() {
                debug_assert_eq!(exit.pkt, arrivals[j]);
                let kind = if exit.won {
                    if ctx.tags_buf[j] == TAG_WAIT {
                        KIND_OSCILLATE
                    } else {
                        KIND_ADVANCE
                    }
                } else {
                    // Losers demote (§3: deflected excited and wait
                    // packets become normal).
                    ctx.tags_buf[j] = TAG_NORMAL;
                    if exit.safe {
                        KIND_DEFLECT_SAFE
                    } else {
                        ctx.unsafe_deflections += 1;
                        KIND_DEFLECT_FREE
                    }
                };
                ctx.stage.stage(exit.pkt, pack_move(exit.mv), kind);
            }
        }

        for (&p, &tag) in arrivals.iter().zip(&ctx.tags_buf) {
            if tag != tags[p as usize] {
                tags[p as usize] = tag;
            }
        }
    }
}

/// Routes `problem` on the bufferless engine: the body of
/// [`crate::BuschRouter::route_observed`].
// lint: telemetry
// (the `Instant` reads feed `on_section` profiling only; no routing
// decision depends on them)
pub(crate) fn route_soa<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
    cfg: &BuschConfig,
    problem: &Arc<RoutingProblem>,
    rng: &mut R,
    observer: &mut O,
) -> BuschOutcome {
    let params = cfg.params;
    let net = problem.network_arc();
    let depth = net.depth();
    let schedule = FrameSchedule::new(params.m, params.num_sets, depth);
    let phase_len = params.phase_len();
    let max_steps = params.max_steps(depth).max(phase_len);

    // Random uniform frontier-set assignment (§2.4).
    let sets = assign_sets(problem.num_packets(), params.num_sets, rng);
    observer.on_sets_assigned(&sets, params.num_sets);

    let timing = observer.wants_timing();
    let mut sim = SoaEngine::new(Arc::clone(problem), observer);
    let mut invariants = InvariantReport::default();
    let initial_per_set = problem.per_set_congestion(&sets, params.num_sets as usize);

    let n = problem.num_packets();
    let mut tags = vec![TAG_NORMAL; n];
    let mut ctx = DispatchCtx {
        stage: StepStage::new(Arc::clone(&net)),
        scratch: ConflictScratch::default(),
        contenders: Vec::new(),
        tags_buf: Vec::new(),
        excitations: 0,
        cross_set_meetings: 0,
        unsafe_deflections: 0,
    };

    // Injection agenda: (injection step, packet), sorted descending so
    // due packets pop off the back.
    let mut agenda: Vec<(Time, u32)> = (0..n as u32)
        .map(|p| {
            if cfg.eager_injection {
                return (0, p);
            }
            let src = problem.path(p as usize).source();
            let phase = schedule.injection_phase(sets[p as usize], net.level(src));
            (phase * phase_len, p)
        })
        .collect();
    agenda.sort_unstable_by(|a, b| b.cmp(a));
    let mut ready: Vec<u32> = Vec::new();

    let mut audit_scratch = PhaseAuditScratch::default();
    let mut total_moves = 0u64;
    // Per-set target levels, hoisted out of the per-packet dispatch:
    // they only change when (phase, round) does.
    let mut targets = vec![0i64; params.num_sets as usize];
    let mut targets_key = (u64::MAX, u32::MAX);
    let rule = if cfg.arbitrary_deflections {
        DeflectRule::Arbitrary
    } else {
        DeflectRule::SafeBackward {
            allow_fallback: cfg.allow_fallback,
        }
    };
    // See `StepCtx::exc_threshold` for why this integer compare is
    // exactly the vendored `gen_bool(q)`.
    let exc_threshold = if params.q <= 0.0 || params.q >= 1.0 {
        0
    } else {
        (params.q * (1u64 << 53) as f64).ceil() as u64
    };
    let exc_always = params.q >= 1.0;

    // The two-step cycle of a quiet window (see the jump below): the
    // staged exits of the quiet steps just ground, by step parity, with
    // the rng words and I_d meetings each step's dispatch spent. Empty
    // outside a window, so an idle stretch jumps as the empty cycle. The
    // buffers live across windows.
    let mut cycle: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut cycle_words = [0u64; 2];
    let mut cycle_meetings = [0u64; 2];
    // Quiet steps ground in a row, and whether the last ground step moved
    // only oscillations (then every packet in flight is a waiter).
    let mut quiet_run = 0u32;
    let mut all_waiting = false;

    while !sim.is_done() && sim.now() < max_steps {
        let t = sim.now();
        let phase = t / phase_len;
        let round = ((t / params.w as u64) % params.m as u64) as u32;
        let sc = StepCtx {
            round_start: t.is_multiple_of(params.w as u64),
            phase_start: t.is_multiple_of(phase_len),
            exc_threshold,
            exc_always,
            rule,
        };

        if sc.phase_start {
            let obs = sim.observer_mut();
            obs.on_phase_start(phase, t);
            for set in 0..params.num_sets {
                if schedule.frame_in_network(set, phase) {
                    obs.on_frontier(phase, set, schedule.frontier(set, phase));
                }
            }
        }
        // A quiet step decides nothing: every packet in flight is a
        // waiter, no phase start demotes it, and nothing is injected. A
        // waiter draws no excitation and never loses a conflict (waiters
        // at one node arrived on distinct edges, so they want distinct
        // slots): it reverses its last move, and each node hosting two or
        // more spends one rng word per waiter on `resolve_into`'s
        // tie-break of a lone contender. After two quiet steps, the state
        // repeats every two steps: the waiters are back where they were,
        // and since dispatch stages nodes in ascending order, each node's
        // arrivals are back in the same order. So the window jumps a
        // whole number of cycles at once, up to the next injection due,
        // the phase's last step (its audit is ground, as is the next
        // phase start) or the step cap, replaying the cycles' rng words,
        // I_d meetings and moves. With nothing in flight the cycle is
        // empty and repeats at any length: the idle stretch.
        let next_due = agenda.last().map_or(u64::MAX, |&(due, _)| due);
        let no_injection = ready.is_empty() && next_due > t;
        let quiet = all_waiting && !sc.phase_start && no_injection;
        let idle = sim.shared().occupied.is_empty() && no_injection;
        if idle || (quiet && quiet_run >= 2) {
            let phase_last = (phase + 1) * phase_len - 1;
            let span = next_due.min(phase_last).min(max_steps - 1) - t;
            let n = if cycle[0].is_empty() { span } else { span & !1 };
            if n > 0 {
                let start = timing.then(std::time::Instant::now);
                let periods = n / 2;
                for _ in 0..periods * (cycle_words[0] + cycle_words[1]) {
                    rng.next_u64();
                }
                invariants.cross_set_meetings += periods * (cycle_meetings[0] + cycle_meetings[1]);
                total_moves += periods * (cycle[0].len() + cycle[1].len()) as u64;
                let now = (t & 1) as usize;
                sim.repeat_steps(n, [&cycle[now], &cycle[now ^ 1]]);
                if let Some(start) = start {
                    sim.observer_mut()
                        .on_section(Section::Kinematics, start.elapsed().as_nanos() as u64);
                }
                continue;
            }
        }

        if targets_key != (phase, round) {
            targets_key = (phase, round);
            for (set, t) in targets.iter_mut().enumerate() {
                *t = schedule.target_level(set as u32, phase, round);
            }
        }
        let section_start = if timing {
            Some(std::time::Instant::now())
        } else {
            None
        };

        // Dispatch, then hand the staged exits to the engine and fold the
        // dispatch counters into the run totals.
        dispatch(
            &net,
            sim.shared(),
            &mut tags,
            &sets,
            &targets,
            sc,
            rng,
            &mut ctx,
        );
        if quiet {
            let slot = (t & 1) as usize;
            cycle[slot].clear();
            cycle[slot].extend_from_slice(&ctx.stage.staged);
            let sh = sim.shared();
            cycle_words[slot] = sh
                .occupied
                .iter()
                .map(|&v| sh.arrivals(v).len() as u64)
                .filter(|&k| k > 1)
                .sum();
            cycle_meetings[slot] = ctx.cross_set_meetings;
            quiet_run += 1;
        } else if quiet_run > 0 {
            quiet_run = 0;
            cycle[0].clear();
            cycle[1].clear();
            cycle_words = [0; 2];
            cycle_meetings = [0; 2];
        }
        sim.commit_stage(&mut ctx.stage);
        invariants.cross_set_meetings += std::mem::take(&mut ctx.cross_set_meetings);
        invariants.unsafe_deflections += std::mem::take(&mut ctx.unsafe_deflections);
        let excitations = std::mem::take(&mut ctx.excitations);
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
            let src = problem.path(p as usize).source();
            let occupied_source = !sim.shared().arrivals(src.0).is_empty();
            match sim.try_inject(p) {
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
        all_waiting = report.moved > 0 && report.oscillations == report.moved;
        let section_start = section_start.map(|start| {
            let now = std::time::Instant::now();
            sim.observer_mut()
                .on_section(Section::Kinematics, (now - start).as_nanos() as u64);
            now
        });

        // Phase-end audits (the paper states I_a..I_f at phase ends).
        if (t + 1).is_multiple_of(phase_len) {
            // Wait packets count at their target node (the head of
            // their oscillation edge, the edge of their last move),
            // regardless of oscillation parity.
            let flight = &sim.shared().flight;
            let effective = |idx: u32, actual: leveled_net::Level| {
                if tags[idx as usize] == TAG_WAIT {
                    let last = flight[idx as usize].last_move;
                    net.level(net.edge(EdgeId(last >> 1)).head)
                } else {
                    actual
                }
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
            for (set, (&now_max, &init)) in per_set_max.iter().zip(&initial_per_set).enumerate() {
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
    let mut stats = sim.into_parts();
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
    }
}
