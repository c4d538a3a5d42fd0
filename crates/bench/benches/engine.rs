//! Micro-benchmarks of the simulator hot paths: conflict resolution, the
//! per-step engine cycle, and the store-and-forward queue machinery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hotpotato_sim::conflict::{self, Contender, GreedyScratch};
use hotpotato_sim::soa::unpack_move;
use hotpotato_sim::{store_forward, SoaEngine, StepStage};
use leveled_net::builders;
use leveled_net::NodeId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::{workloads, RoutingProblem};
use std::sync::Arc;

/// A wide conflict: `width` packets converge on one node, all wanting the
/// same edge.
fn converging_sim(width: usize) -> (SoaEngine, NodeId, Vec<Contender>) {
    let net = Arc::new(builders::complete_leveled(3, width));
    let mid = net.nodes_at_level(1)[0];
    let top = net.nodes_at_level(2)[0];
    let dest = net.nodes_at_level(3)[0];
    let paths: Vec<routing_core::Path> = net
        .nodes_at_level(0)
        .iter()
        .map(|&src| routing_core::Path::from_nodes(&net, &[src, mid, top, dest]).unwrap())
        .collect();
    let prob = Arc::new(RoutingProblem::new(Arc::clone(&net), paths).unwrap());
    let n = prob.num_packets();
    let mut sim: SoaEngine = SoaEngine::new(prob, hotpotato_sim::NoopObserver);
    for p in 0..n as u32 {
        sim.try_inject(p);
    }
    sim.finish_step().unwrap();
    let sh = sim.shared();
    let contenders: Vec<Contender> = sh
        .arrivals(mid.0)
        .iter()
        .map(|&p| Contender {
            pkt: p,
            desired: unpack_move(sh.next_move(p)),
            priority: 1,
            arrival: Some(unpack_move(sh.flight[p as usize].last_move)),
        })
        .collect();
    (sim, mid, contenders)
}

fn bench_conflict(c: &mut Criterion) {
    let mut g = c.benchmark_group("conflict_resolve");
    for width in [4usize, 16, 64] {
        let (sim, node, contenders) = converging_sim(width);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        g.bench_function(format!("width_{width}"), |b| {
            b.iter(|| {
                conflict::resolve(&sim, node, &contenders, true, &mut rng)
                    .expect("resolvable")
                    .len()
            });
        });
    }
    g.finish();
}

fn bench_engine_step(c: &mut Criterion) {
    // Measure one full engine cycle (dispatch + finish) with many packets
    // in flight, by advancing a greedy wavefront on a butterfly.
    let mut g = c.benchmark_group("engine_step");
    for k in [6u32, 8] {
        let net = Arc::new(builders::butterfly(k));
        let coords = leveled_net::builders::ButterflyCoords { k };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let prob = Arc::new(workloads::butterfly_permutation(&net, &coords, &mut rng));
        g.bench_function(format!("butterfly_{k}_one_wave"), |b| {
            b.iter_batched(
                || {
                    let n = prob.num_packets();
                    let mut sim: SoaEngine =
                        SoaEngine::new(Arc::clone(&prob), hotpotato_sim::NoopObserver);
                    for p in 0..n as u32 {
                        sim.try_inject(p);
                    }
                    sim.finish_step().unwrap();
                    let stage = StepStage::new(Arc::clone(sim.net()));
                    (sim, stage)
                },
                |(mut sim, mut stage)| {
                    let mut rng = ChaCha8Rng::seed_from_u64(3);
                    let mut scratch = GreedyScratch::default();
                    conflict::greedy_step(&sim, &mut stage, |_, _| 0, &mut rng, &mut scratch);
                    sim.commit_stage(&mut stage);
                    sim.finish_step().unwrap();
                    sim.now()
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_store_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_forward");
    let net = Arc::new(builders::butterfly(8));
    let coords = leveled_net::builders::ButterflyCoords { k: 8 };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    g.bench_function("bit_reversal_bf8", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        b.iter(|| {
            let out = store_forward::route(
                &prob,
                store_forward::StoreForwardConfig::default(),
                &mut rng,
            );
            assert!(out.stats.all_delivered());
            out.stats.steps_run
        });
    });
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    // Record a full greedy run, then measure the independent audit.
    let mut g = c.benchmark_group("replay_verify");
    let net = Arc::new(builders::butterfly(7));
    let coords = leveled_net::builders::ButterflyCoords { k: 7 };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut record = hotpotato_sim::RunRecord::default();
    let out = baselines::GreedyRouter::new().route_observed(&prob, &mut rng, &mut record);
    g.bench_function("greedy_bf7_bitrev", |b| {
        b.iter(|| {
            hotpotato_sim::replay::verify(&prob, &record, &out.stats)
                .expect("clean run")
                .moves
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conflict, bench_engine_step, bench_store_forward, bench_replay
);
criterion_main!(benches);
