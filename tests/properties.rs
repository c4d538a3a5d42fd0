//! Property-style tests for structural invariants across the whole stack:
//! topology builders, frame schedules, path kinematics, conflict
//! resolution, and engine conservation laws.
//!
//! Each test draws its cases from a seeded [`ChaCha8Rng`], so the sampled
//! parameter space is broad but the run is fully deterministic (the build
//! environment has no proptest; a fixed-seed sweep keeps the same coverage
//! style without the shrinking machinery).

use baselines::GreedyRouter;
use hotpotato_routing::prelude::*;
use hotpotato_sim::replay;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Runs `f` over `cases` parameter draws from a generator seeded per test.
fn sweep(test_seed: u64, cases: usize, mut f: impl FnMut(usize, &mut ChaCha8Rng)) {
    let mut rng = ChaCha8Rng::seed_from_u64(test_seed);
    for case in 0..cases {
        f(case, &mut rng);
    }
}

/// Random leveled networks are valid and routable (no dead ends).
#[test]
fn random_leveled_networks_are_valid() {
    sweep(0xA1, 64, |case, rng| {
        let depth = rng.gen_range(1u32..14);
        let max_w = rng.gen_range(1usize..7);
        let prob = rng.gen::<f64>();
        let net = builders::random_leveled(depth, 1..=max_w, prob, rng);
        assert!(net.validate().is_ok(), "case {case}");
        assert_eq!(net.depth(), depth, "case {case}");
        for v in net.nodes() {
            if net.level(v) < depth {
                assert!(!net.fwd_edges(v).is_empty(), "case {case}: dead end");
            }
            if net.level(v) > 0 {
                assert!(!net.bwd_edges(v).is_empty(), "case {case}: orphan");
            }
        }
    });
}

/// Frame schedules never overlap, shift one level per phase, and place
/// injections at the rear inner level.
#[test]
fn frame_schedules_are_sound() {
    sweep(0xA2, 64, |case, rng| {
        let m = rng.gen_range(3u32..12);
        let sets = rng.gen_range(1u32..8);
        let depth = rng.gen_range(1u32..40);
        let s = busch_router::FrameSchedule::new(m, sets, depth);
        for phase in 0..s.end_phase() {
            for i in 0..sets {
                // Shift: exactly one level per phase.
                assert_eq!(
                    s.frontier(i, phase + 1),
                    s.frontier(i, phase) + 1,
                    "case {case}"
                );
                // Non-overlap with every other frame.
                for j in (i + 1)..sets {
                    let (lo_i, _) = s.frame_range(i, phase);
                    let (_, hi_j) = s.frame_range(j, phase);
                    assert!(hi_j < lo_i, "case {case}: frames {i},{j} overlap");
                }
            }
        }
        for i in 0..sets {
            for level in 0..=depth {
                let inj = s.injection_phase(i, level);
                assert_eq!(s.inner_level(i, inj, level), Some(m - 1), "case {case}");
                assert!(inj < s.end_phase(), "case {case}");
            }
            assert!(!s.frame_in_network(i, s.end_phase()), "case {case}");
        }
    });
}

/// Uniformly sampled minimal paths are valid, minimal, and end at the
/// requested destination.
#[test]
fn sampled_paths_are_valid_minimal() {
    sweep(0xA3, 64, |case, rng| {
        let depth = rng.gen_range(2u32..10);
        let width = rng.gen_range(1usize..5);
        let net = builders::complete_leveled(depth, width);
        let src = net.nodes_at_level(0)[0];
        let dst = *net.nodes_at_level(depth).last().unwrap();
        let p = paths::random_minimal(&net, src, dst, rng).unwrap();
        assert!(p.validate(&net).is_ok(), "case {case}");
        assert_eq!(p.source(), src, "case {case}");
        assert_eq!(p.dest(&net), dst, "case {case}");
        assert_eq!(p.len() as u32, depth, "case {case}");
    });
}

/// Single-set partitioning reproduces total congestion; any partition
/// stays below it.
#[test]
fn per_set_congestion_bounds() {
    sweep(0xA4, 64, |case, rng| {
        let sets = rng.gen_range(1u32..9);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 16, rng).unwrap();
        let c = prob.congestion();
        let one = prob.per_set_congestion(&[0; 16], 1);
        assert_eq!(one[0], c, "case {case}");
        let assignment = busch_router::schedule::assign_sets(16, sets, rng);
        let per = prob.per_set_congestion(&assignment, sets as usize);
        assert_eq!(per.len(), sets as usize, "case {case}");
        for &ci in &per {
            assert!(ci <= c, "case {case}: set congestion {ci} > total {c}");
        }
        // The per-set maxima cover the full congestion: some edge attains C,
        // and its per-set parts sum to C, so sum of maxima >= C.
        let sum: u32 = per.iter().sum();
        assert!(sum >= c, "case {case}");
    });
}

/// Engine conservation under greedy routing: every packet is injected
/// exactly once, delivered exactly once, after its injection.
#[test]
fn greedy_conserves_packets() {
    sweep(0xA5, 64, |case, rng| {
        let n = rng.gen_range(1usize..24);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, n, rng).unwrap();
        let out = GreedyRouter::new().route(&prob, rng);
        assert!(out.stats.all_delivered(), "case {case}");
        assert_eq!(out.stats.delivered_count(), n, "case {case}");
        for (inj, del) in out.stats.injected_at.iter().zip(&out.stats.delivered_at) {
            let (i, d) = (inj.unwrap(), del.unwrap());
            assert!(d >= i, "case {case}: delivered before injection");
            assert!(d <= out.stats.steps_run, "case {case}");
        }
    });
}

/// The bufferless lower bound: no algorithm beats the longest path.
#[test]
fn makespan_at_least_longest_path() {
    sweep(0xA6, 64, |case, rng| {
        let n = rng.gen_range(1usize..16);
        let net = Arc::new(builders::complete_leveled(6, 3));
        let prob = workloads::random_pairs(&net, n, rng).unwrap();
        let longest = prob.paths().map(PathRef::len).max().unwrap() as u64;
        let g = GreedyRouter::new().route(&prob, rng);
        assert!(g.stats.makespan().unwrap() >= longest, "case {case}");
        let sf = StoreForwardRouter::fifo().route(&prob, rng);
        assert!(sf.stats.makespan().unwrap() >= longest, "case {case}");
    });
}

/// Busch routing delivers everything within its schedule bound for any
/// structurally valid scaled parameters.
#[test]
fn busch_delivers_for_arbitrary_scaled_params() {
    sweep(0xA7, 48, |case, rng| {
        let m = rng.gen_range(3u32..8);
        let w_mult = rng.gen_range(4u32..10);
        let sets = rng.gen_range(1u32..5);
        let q = rng.gen_range(0u32..20) as f64 / 20.0;
        let net = Arc::new(builders::butterfly(3));
        let prob = workloads::random_pairs(&net, 6, rng).unwrap();
        let params = Params::scaled(m, w_mult * m, q, sets);
        let out = BuschRouter::new(params).route(&prob, rng);
        assert!(
            out.stats.all_delivered(),
            "case {case} params {:?}: {}",
            params,
            out.stats.summary()
        );
        assert!(
            out.stats.makespan().unwrap() <= params.max_steps(net.depth()),
            "case {case}"
        );
    });
}

/// Every Busch run, under arbitrary structurally-valid parameters,
/// produces a record the independent replay auditor certifies.
#[test]
fn busch_always_replays_cleanly() {
    sweep(0xA8, 32, |case, rng| {
        let m = rng.gen_range(3u32..7);
        let w_mult = rng.gen_range(3u32..8);
        let sets = rng.gen_range(1u32..4);
        let net = Arc::new(builders::butterfly(3));
        let prob = workloads::random_pairs(&net, 6, rng).unwrap();
        let router = busch_router::BuschRouter::new(Params::scaled(m, w_mult * m, 0.1, sets));
        let mut record = hotpotato_sim::RunRecord::default();
        let out = router.route_observed(&prob, rng, &mut record);
        let report = replay::verify(&prob, &record, &out.stats);
        assert!(
            report.is_ok(),
            "case {case}: replay failed: {:?}",
            report.err()
        );
    });
}

/// Store-and-forward with bounded buffers of any capacity delivers and
/// respects the capacity bound.
#[test]
fn bounded_store_forward_respects_capacity() {
    sweep(0xA9, 64, |case, rng| {
        let cap = rng.gen_range(1usize..6);
        let n = rng.gen_range(1usize..16);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, n, rng).unwrap();
        let cfg = hotpotato_sim::store_forward::StoreForwardConfig {
            buffer_cap: cap,
            ..Default::default()
        };
        let out = hotpotato_sim::store_forward::route(&prob, cfg, rng);
        assert!(out.stats.all_delivered(), "case {case}");
        assert!(
            out.max_queue <= cap,
            "case {case}: queue {} exceeded cap {}",
            out.max_queue,
            cap
        );
    });
}

/// Store-and-forward with FIFO takes at most (roughly) C·D + C + D
/// steps on any instance — queues can't hold a packet longer than the
/// traffic crossing its path.
#[test]
fn store_forward_is_politely_bounded() {
    sweep(0xAA, 64, |case, rng| {
        let n = rng.gen_range(1usize..20);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, n, rng).unwrap();
        let out = StoreForwardRouter::fifo().route(&prob, rng);
        assert!(out.stats.all_delivered(), "case {case}");
        let c = prob.congestion() as u64;
        let d = prob.dilation() as u64;
        assert!(
            out.stats.makespan().unwrap() <= c * d + c + d + 1,
            "case {case}"
        );
    });
}
