//! End-to-end integration: every topology × every algorithm delivers every
//! packet, and the outcomes respect the basic physics of the model.

use baselines::{GreedyConfig, GreedyRouter, RandomPriorityRouter, StoreForwardRouter};
use hotpotato_routing::prelude::*;
use hotpotato_sim::StreamPriority;
use leveled_net::builders::{ButterflyCoords, MeshCorner};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::RoutingProblem;
use std::sync::Arc;

/// A zoo of (topology, workload) instances spanning every builder.
fn instance_zoo(seed: u64) -> Vec<Arc<RoutingProblem>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();

    let bf = Arc::new(builders::butterfly(4));
    out.push(workloads::random_pairs(&bf, 20, &mut rng).unwrap());
    let coords = ButterflyCoords { k: 4 };
    out.push(workloads::butterfly_permutation(&bf, &coords, &mut rng));
    out.push(workloads::butterfly_bit_reversal(&bf, &coords));

    let (mesh_raw, mesh_coords) = builders::mesh(6, 6, MeshCorner::TopLeft);
    let mesh = Arc::new(mesh_raw);
    out.push(workloads::mesh_transpose(&mesh, &mesh_coords).unwrap());
    out.push(workloads::random_pairs(&mesh, 12, &mut rng).unwrap());

    let (mesh_br_raw, _) = builders::mesh(5, 7, MeshCorner::BottomRight);
    let mesh_br = Arc::new(mesh_br_raw);
    out.push(workloads::random_pairs(&mesh_br, 8, &mut rng).unwrap());

    let complete = Arc::new(builders::complete_leveled(8, 4));
    out.push(workloads::hotspot(&complete, 16, 2, &mut rng).unwrap());
    out.push(workloads::funnel(&complete, 10, &mut rng).unwrap());
    out.push(workloads::level_to_level(&complete, 0, 8, &mut rng).unwrap());

    let (hc_raw, _) = builders::hypercube(5);
    let hc = Arc::new(hc_raw);
    out.push(workloads::random_pairs(&hc, 10, &mut rng).unwrap());

    let random = Arc::new(builders::random_leveled(10, 2..=5, 0.4, &mut rng));
    out.push(workloads::random_pairs(&random, 10, &mut rng).unwrap());

    let tree = Arc::new(builders::binary_tree(4));
    out.push(workloads::random_pairs(&tree, 6, &mut rng).unwrap());

    let fat = Arc::new(builders::fat_tree(4, 4));
    out.push(workloads::random_pairs(&fat, 6, &mut rng).unwrap());

    let se = Arc::new(builders::shuffle_exchange_unrolled(4));
    out.push(workloads::random_pairs(&se, 12, &mut rng).unwrap());

    let line = Arc::new(builders::linear_array(12));
    out.push(workloads::level_to_level(&line, 0, 11, &mut rng).unwrap());

    let (grid_raw, _) = builders::multidim_array(&[3, 3, 3]);
    let grid = Arc::new(grid_raw);
    out.push(workloads::random_pairs(&grid, 8, &mut rng).unwrap());

    out
}

fn sanity(problem: &RoutingProblem, stats: &RouteStats, algo: &str) {
    assert!(
        stats.all_delivered(),
        "{algo} failed on {}: {}",
        problem.describe(),
        stats.summary()
    );
    let lower = problem.congestion().max(problem.dilation()) as u64;
    let mk = stats.makespan().unwrap_or(0);
    assert!(
        problem.dilation() == 0 || mk >= problem.paths().map(PathRef::len).max().unwrap() as u64,
        "{algo}: makespan {mk} beats the dilation bound on {}",
        problem.describe()
    );
    let _ = lower;
    // Delivery must not precede injection.
    for (inj, del) in stats.injected_at.iter().zip(&stats.delivered_at) {
        let (inj, del) = (inj.unwrap(), del.unwrap());
        assert!(del >= inj, "{algo}: delivered before injected");
    }
}

#[test]
fn busch_delivers_on_the_whole_zoo() {
    for (i, problem) in instance_zoo(1).into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(100 + i as u64);
        let out = BuschRouter::new(Params::auto(&problem)).route(&problem, &mut rng);
        sanity(&problem, &out.stats, "busch");
    }
}

#[test]
fn greedy_delivers_on_the_whole_zoo() {
    for (i, problem) in instance_zoo(2).into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(200 + i as u64);
        let out = GreedyRouter::new().route(&problem, &mut rng);
        sanity(&problem, &out.stats, "greedy");
    }
}

#[test]
fn greedy_furthest_first_delivers_on_the_whole_zoo() {
    let cfg = GreedyConfig {
        priority: StreamPriority::FurthestToGo,
        ..Default::default()
    };
    for (i, problem) in instance_zoo(3).into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(300 + i as u64);
        let out = GreedyRouter::with_config(cfg).route(&problem, &mut rng);
        sanity(&problem, &out.stats, "greedy-ftg");
    }
}

#[test]
fn random_priority_delivers_on_the_whole_zoo() {
    for (i, problem) in instance_zoo(4).into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(400 + i as u64);
        let out = RandomPriorityRouter::new().route(&problem, &mut rng);
        sanity(&problem, &out.stats, "random-priority");
    }
}

#[test]
fn store_forward_delivers_on_the_whole_zoo() {
    for (i, problem) in instance_zoo(5).into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(500 + i as u64);
        let out = StoreForwardRouter::fifo().route(&problem, &mut rng);
        sanity(&problem, &out.stats, "store-forward");
        // Buffered routing never deflects.
        assert_eq!(out.stats.total_deflections(), 0);
        assert_eq!(out.stats.max_deviation_overall(), 0);
    }
}

#[test]
fn store_forward_random_rank_delivers_on_the_whole_zoo() {
    for (i, problem) in instance_zoo(6).into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(600 + i as u64);
        let cap = problem.congestion() as u64;
        let out = StoreForwardRouter::random_rank(cap).route(&problem, &mut rng);
        sanity(&problem, &out.stats, "store-forward-rr");
    }
}

#[test]
fn mesh_orientations_route_in_all_four_directions() {
    for (i, corner) in MeshCorner::ALL.into_iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(700 + i as u64);
        let (raw, _) = builders::mesh(5, 5, corner);
        let net = Arc::new(raw);
        let problem = workloads::random_pairs(&net, 10, &mut rng).unwrap();
        let out = BuschRouter::new(Params::auto(&problem)).route(&problem, &mut rng);
        sanity(&problem, &out.stats, "busch-mesh");
    }
}

#[test]
fn trivial_and_singleton_problems() {
    let net = Arc::new(builders::linear_array(3));
    // A problem with a single trivial packet.
    let prob = Arc::new(
        RoutingProblem::new(
            Arc::clone(&net),
            vec![routing_core::Path::trivial(leveled_net::NodeId(1))],
        )
        .unwrap(),
    );
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let out = BuschRouter::new(Params::scaled(3, 4, 0.1, 1)).route(&prob, &mut rng);
    assert!(out.stats.all_delivered());
    let g = GreedyRouter::new().route(&prob, &mut rng);
    assert!(g.stats.all_delivered());
    let sf = StoreForwardRouter::fifo().route(&prob, &mut rng);
    assert!(sf.stats.all_delivered());
}

#[test]
fn empty_problem_is_a_noop() {
    let net = Arc::new(builders::linear_array(3));
    let prob = Arc::new(RoutingProblem::new(Arc::clone(&net), vec![]).unwrap());
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let out = BuschRouter::new(Params::scaled(3, 4, 0.1, 1)).route(&prob, &mut rng);
    assert!(out.stats.all_delivered());
    assert_eq!(out.stats.num_packets(), 0);
    let g = GreedyRouter::new().route(&prob, &mut rng);
    assert_eq!(g.stats.steps_run, 0);
}
