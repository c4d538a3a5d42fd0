//! Failure-injection and chaos testing.
//!
//! * A *chaos policy* drives the engine with adversarial-but-legal
//!   decisions (uniformly random free exits, random injection timing);
//!   the replay auditor must still certify the run and the engine must
//!   never corrupt its accounting.
//! * A *mutation fuzzer* corrupts valid run records in seeded-random ways;
//!   the replay auditor must flag every corruption that changes semantics.

use hotpotato_routing::prelude::*;
use hotpotato_sim::replay::{self, ReplayError};
use hotpotato_sim::soa::{pack_move, unpack_move, KIND_ADVANCE, KIND_DEFLECT_FREE};
use hotpotato_sim::{InjectOutcome, SlotView, SoaEngine, StepStage};
use leveled_net::ids::DirectedEdge;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Drives the engine with uniformly random legal exits until `max_steps`
/// or delivery; returns the run statistics and the recorded moves. After
/// every step, each active packet's flight row must name the origin of
/// its last move as `prev`, the node a reversal of that move returns to.
fn chaos_run(
    problem: &Arc<routing_core::RoutingProblem>,
    seed: u64,
    max_steps: u64,
) -> (hotpotato_sim::RouteStats, hotpotato_sim::RunRecord) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = problem.num_packets();
    let net = problem.network_arc();
    let mut record = hotpotato_sim::RunRecord::default();
    let mut sim = SoaEngine::new(Arc::clone(problem), &mut record);
    let mut stage = StepStage::new(Arc::clone(&net));
    let mut pending: Vec<u32> = (0..n as u32).collect();

    while !sim.is_done() && sim.now() < max_steps {
        let sh = sim.shared();
        for &v in &sh.occupied {
            // Assign each arriving packet a random free exit: legal but
            // completely structure-free routing.
            let mut exits: Vec<DirectedEdge> = net
                .exits(NodeId(v))
                .filter(|&mv| stage.slot_free(mv))
                .collect();
            exits.shuffle(&mut rng);
            for (&pkt, mv) in sh.arrivals(v).iter().zip(exits) {
                let mv = pack_move(mv);
                let kind = if mv == sh.next_move(pkt) {
                    KIND_ADVANCE
                } else {
                    KIND_DEFLECT_FREE
                };
                stage.stage(pkt, mv, kind);
            }
        }
        sim.commit_stage(&mut stage);
        // Random-subset injection this step.
        pending.retain(|&p| !rng.gen_bool(0.3) || sim.try_inject(p) == InjectOutcome::Blocked);
        sim.finish_step().expect("all arrivals staged");
        for &p in sim.active_slice() {
            let f = &sim.shared().flight[p as usize];
            let origin = net.move_origin(unpack_move(f.last_move));
            assert_eq!(origin, NodeId(f.prev), "packet {p} at t={}", sim.now());
        }
    }
    (sim.into_parts(), record)
}

#[test]
fn chaos_routing_never_breaks_physics() {
    for seed in 0..6u64 {
        let mut wrng = ChaCha8Rng::seed_from_u64(seed);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 12, &mut wrng).unwrap();
        let (stats, record) = chaos_run(&prob, 100 + seed, 4000);
        // Whatever happened, the record must replay cleanly.
        let report =
            replay::verify(&prob, &record, &stats).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(report.delivered, stats.delivered_count());
        // Conservation: every delivered packet was injected first.
        for (i, d) in stats.delivered_at.iter().enumerate() {
            if d.is_some() {
                assert!(stats.injected_at[i].is_some(), "seed {seed} pkt {i}");
            }
        }
    }
}

#[test]
fn chaos_on_a_line_delivers_by_luck() {
    // On a linear array a random walk is recurrent: the lone packet must
    // eventually stumble into its destination.
    let mut wrng = ChaCha8Rng::seed_from_u64(9);
    let net = Arc::new(builders::linear_array(6));
    let prob = workloads::level_to_level(&net, 0, 5, &mut wrng).unwrap();
    let (stats, record) = chaos_run(&prob, 7, 200_000);
    assert!(stats.all_delivered(), "random walk on a line is recurrent");
    replay::verify(&prob, &record, &stats).expect("clean replay");
}

#[test]
fn chaos_with_heavy_load_saturates_but_stays_legal() {
    // As many packets as the network can hold at once.
    let mut wrng = ChaCha8Rng::seed_from_u64(11);
    let net = Arc::new(builders::complete_leveled(6, 4));
    let prob = workloads::many_to_many(&net, 48, &mut wrng).unwrap();
    let (stats, record) = chaos_run(&prob, 13, 3000);
    replay::verify(&prob, &record, &stats).expect("clean replay under load");
}

// ---------------------------------------------------------------------
// Mutation fuzzing of the replay auditor.
// ---------------------------------------------------------------------

fn valid_run() -> (
    Arc<routing_core::RoutingProblem>,
    hotpotato_sim::RouteStats,
    hotpotato_sim::RunRecord,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::random_pairs(&net, 10, &mut rng).unwrap();
    let mut record = hotpotato_sim::RunRecord::default();
    let out = baselines::GreedyRouter::new().route_observed(&prob, &mut rng, &mut record);
    assert!(out.stats.all_delivered());
    (prob, out.stats, record)
}

/// Deleting any single move from a valid record must be detected
/// (the packet either rests, teleports, or ends undelivered).
#[test]
fn deleting_any_move_is_detected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB1);
    for case in 0..48 {
        let (prob, stats, mut record) = valid_run();
        let idx = rng.gen_range(0..record.moves.len());
        record.moves.remove(idx);
        assert!(
            replay::verify(&prob, &record, &stats).is_err(),
            "case {case}: deleted move {idx} went unnoticed"
        );
    }
}

/// Duplicating a move must be detected as that packet moving twice in
/// the move's step: the copy sits next to the original, so the double
/// move is the first thing wrong with the step.
#[test]
fn duplicating_any_move_is_detected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB2);
    for case in 0..48 {
        let (prob, stats, mut record) = valid_run();
        let idx = rng.gen_range(0..record.moves.len());
        let ev = record.moves[idx];
        record.moves.insert(idx, ev);
        assert_eq!(
            replay::verify(&prob, &record, &stats),
            Err(ReplayError::MovedTwice {
                time: ev.time,
                pkt: ev.pkt
            }),
            "case {case}: duplicated move {idx}"
        );
    }
}

/// Retiming a move to a different step must be detected — except for
/// the one genuinely legal case: delaying an injection that is a
/// packet's *only* move (injection timing is free in the model).
#[test]
fn retiming_a_move_is_detected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB3);
    for case in 0..48 {
        let (prob, stats, mut record) = valid_run();
        let idx = rng.gen_range(0..record.moves.len());
        let delta = rng.gen_range(1u64..5);
        let ev = record.moves[idx];
        let pkt_moves = record.moves.iter().filter(|e| e.pkt == ev.pkt).count();
        if ev.kind == hotpotato_sim::ExitKind::Inject && pkt_moves == 1 {
            continue; // delaying a lone injection is legal
        }
        record.moves[idx].time += delta;
        // Keep the vector time-sorted so we test semantics, not ordering.
        record.moves.sort_by_key(|e| e.time);
        assert!(
            replay::verify(&prob, &record, &stats).is_err(),
            "case {case}: retimed move {idx} (+{delta}) went unnoticed"
        );
    }
}

/// Redirecting a move onto a random other edge must be detected
/// unless the substitute happens to be an identical parallel edge
/// (butterflies have none, so always detected here).
#[test]
fn redirecting_a_move_is_detected() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB4);
    for case in 0..48 {
        let (prob, stats, mut record) = valid_run();
        let idx = rng.gen_range(0..record.moves.len());
        let ne = prob.network().num_edges() as u32;
        let new_edge = leveled_net::EdgeId(rng.gen_range(0..ne));
        if record.moves[idx].mv.edge == new_edge {
            continue; // no-op mutation
        }
        record.moves[idx].mv.edge = new_edge;
        assert!(
            replay::verify(&prob, &record, &stats).is_err(),
            "case {case}: redirected move {idx} went unnoticed"
        );
    }
}

#[test]
fn flipping_stats_delivery_is_detected() {
    let (prob, mut stats, record) = valid_run();
    stats.delivered_at[3] = None;
    let err = replay::verify(&prob, &record, &stats).unwrap_err();
    assert!(matches!(err, ReplayError::DeliveryMismatch { .. }));
}
