//! Integration tests for the extension features beyond the paper's core
//! setting: many-to-many (relaxed) problems, Beneš networks, and routing
//! on levelized arbitrary DAGs.

use baselines::{GreedyRouter, StoreForwardRouter};
use busch_router::{BuschRouter, Params};
use hotpotato_routing::prelude::*;
use hotpotato_sim::{replay, RunRecord};
use leveled_net::levelize::Dag;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::dag::{self, DagNetwork};
use std::sync::Arc;

#[test]
fn many_to_many_routes_with_all_algorithms() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let net = Arc::new(builders::butterfly(4));
    // 3x more packets than nodes with forward edges: sources collide.
    let prob = workloads::many_to_many(&net, 120, &mut rng).unwrap();
    assert!(prob.is_relaxed());

    let busch = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
    assert!(busch.stats.all_delivered(), "{}", busch.stats.summary());

    let greedy = GreedyRouter::new().route(&prob, &mut rng);
    assert!(greedy.stats.all_delivered());

    let sf = StoreForwardRouter::fifo().route(&prob, &mut rng);
    assert!(sf.stats.all_delivered());
}

#[test]
fn many_to_many_busch_counts_isolation_but_keeps_physics() {
    // With colliding sources, the paper's isolation guarantee cannot hold
    // — the router must count violations (or delay injections), never
    // break the engine model. The replay auditor confirms the latter.
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::many_to_many(&net, 200, &mut rng).unwrap();
    let mut record = RunRecord::default();
    let out = BuschRouter::new(Params::auto(&prob)).route_observed(&prob, &mut rng, &mut record);
    assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    replay::verify(&prob, &record, &out.stats)
        .expect("hot-potato physics hold in the relaxed model");
}

#[test]
fn benes_permutations_route() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let (raw, _) = leveled_net::builders::benes(3);
    let net = Arc::new(raw);
    // Permutation from level 0 to level 2k. Generous frames (m = 8) so
    // the strict I_f check has its three levels of slack.
    let prob = workloads::level_to_level(&net, 0, net.depth(), &mut rng).unwrap();
    let params = Params::scaled(8, 96, 0.1, prob.congestion().max(1));
    let busch = BuschRouter::new(params).route(&prob, &mut rng);
    assert!(busch.stats.all_delivered(), "{}", busch.stats.summary());
    assert!(
        busch.invariants.is_clean(),
        "{}",
        busch.invariants.summary()
    );
    let greedy = GreedyRouter::new().route(&prob, &mut rng);
    assert!(greedy.stats.all_delivered());
}

#[test]
fn random_dags_route_end_to_end() {
    for seed in 0..5u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(100 + seed);
        let n = 40;
        let mut dagg = Dag::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(0.12) {
                    dagg.add_edge(u, v);
                }
            }
        }
        let dagnet = DagNetwork::new(&dagg).unwrap();
        let Ok(prob) = dag::random_dag_pairs(&dagnet, 12, &mut rng) else {
            continue; // too sparse this seed; acceptable
        };
        let out = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut rng);
        assert!(
            out.stats.all_delivered(),
            "seed {seed}: {}",
            out.stats.summary()
        );
        assert!(
            out.invariants.is_clean(),
            "seed {seed}: {}",
            out.invariants.summary()
        );
    }
}

#[test]
fn dag_routing_with_recording_replays() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let mut dagg = Dag::new(30);
    for u in 0..30u32 {
        for v in (u + 1)..30u32 {
            if rng.gen_bool(0.2) {
                dagg.add_edge(u, v);
            }
        }
    }
    let dagnet = DagNetwork::new(&dagg).unwrap();
    let prob = dag::random_dag_pairs(&dagnet, 8, &mut rng).unwrap();
    let mut record = RunRecord::default();
    let out = GreedyRouter::new().route_observed(&prob, &mut rng, &mut record);
    assert!(out.stats.all_delivered());
    replay::verify(&prob, &record, &out.stats).expect("clean replay");
}

#[test]
fn relaxed_empty_and_duplicate_trivials() {
    // Degenerate relaxed problems: several trivial packets at one node.
    let net = Arc::new(builders::linear_array(3));
    let prob = Arc::new(routing_core::RoutingProblem::new_relaxed(
        Arc::clone(&net),
        vec![
            routing_core::Path::trivial(leveled_net::NodeId(1)),
            routing_core::Path::trivial(leveled_net::NodeId(1)),
        ],
    ));
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let out = GreedyRouter::new().route(&prob, &mut rng);
    assert!(out.stats.all_delivered());
    assert_eq!(out.stats.makespan(), Some(0));
}
