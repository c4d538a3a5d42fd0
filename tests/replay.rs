//! Full-run replay audits: every move of complete routing runs is
//! re-verified from scratch by the independent auditor in
//! `hotpotato_sim::replay` — slot capacity, no-resting, no teleports,
//! injection legality, absorption-on-arrival, and delivery consistency.

use baselines::GreedyRouter;
use busch_router::{BuschConfig, BuschRouter, Params};
use hotpotato_routing::prelude::*;
use hotpotato_sim::{replay, RunRecord};
use leveled_net::builders::{ButterflyCoords, MeshCorner};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

#[test]
fn busch_runs_replay_cleanly_across_workloads() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let cases: Vec<Arc<routing_core::RoutingProblem>> = vec![
        {
            let net = Arc::new(builders::butterfly(4));
            workloads::random_pairs(&net, 16, &mut rng).unwrap()
        },
        {
            let net = Arc::new(builders::butterfly(5));
            let coords = ButterflyCoords { k: 5 };
            workloads::butterfly_permutation(&net, &coords, &mut rng)
        },
        {
            let (raw, coords) = builders::mesh(6, 6, MeshCorner::TopLeft);
            workloads::mesh_transpose(&Arc::new(raw), &coords).unwrap()
        },
        {
            let net = Arc::new(builders::complete_leveled(10, 4));
            workloads::funnel(&net, 12, &mut rng).unwrap()
        },
    ];
    for prob in &cases {
        let mut record = RunRecord::default();
        let out = BuschRouter::new(Params::auto(prob)).route_observed(prob, &mut rng, &mut record);
        assert!(out.stats.all_delivered(), "{}", prob.describe());
        let report = replay::verify(prob, &record, &out.stats)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", prob.describe()));
        assert_eq!(report.delivered, prob.num_packets());
        assert_eq!(report.moves as usize, record.len());
        // Busch moves packets both ways (oscillation + deflections) except
        // on conflict-free instances.
        assert!(report.forward >= report.backward);
        assert_eq!(report.last_move_time + 1, out.stats.makespan().unwrap());
    }
}

#[test]
fn greedy_runs_replay_cleanly() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let k = 6;
    let net = Arc::new(builders::butterfly(k));
    let coords = ButterflyCoords { k };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let mut record = RunRecord::default();
    let out = GreedyRouter::new().route_observed(&prob, &mut rng, &mut record);
    assert!(out.stats.all_delivered());
    let report = replay::verify(&prob, &record, &out.stats).expect("replay clean");
    assert_eq!(report.delivered, prob.num_packets());
}

#[test]
fn arbitrary_deflection_ablation_still_obeys_physics() {
    // Even the A4 ablation variant must respect the hot-potato model —
    // only the *paper's* invariants break, never the engine's.
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let k = 5;
    let net = Arc::new(builders::butterfly(k));
    let coords = ButterflyCoords { k };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let cfg = BuschConfig {
        arbitrary_deflections: true,
        ..BuschConfig::new(Params::scaled(6, 36, 0.1, 2))
    };
    let mut record = RunRecord::default();
    let out = BuschRouter::with_config(cfg).route_observed(&prob, &mut rng, &mut record);
    replay::verify(&prob, &record, &out.stats).expect("physics hold under ablation");
}

#[test]
fn record_length_matches_move_accounting() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::random_pairs(&net, 8, &mut rng).unwrap();
    let mut record = RunRecord::default();
    let out = GreedyRouter::new().route_observed(&prob, &mut rng, &mut record);
    // Every packet contributes at least path-length moves.
    let min_moves: usize = prob.paths().map(PathRef::len).sum();
    assert!(record.len() >= min_moves);
    // Deflections add exactly two extra moves each (out and back) on a
    // butterfly where deflections are backward.
    let deflections: u64 = out.stats.total_deflections();
    assert_eq!(record.len() as u64, min_moves as u64 + 2 * deflections);
}
