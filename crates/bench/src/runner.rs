//! Run helpers: condensed per-run summaries, seed averaging, and
//! [`parallel_map`], the scoped-thread fan-out behind every sweep.

use baselines::StoreForwardRouter;
use busch_router::{BuschRouter, Params};
use hotpotato_sim::{configured_threads, RouteStats, Router};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::RoutingProblem;
use serve::service::build_router;
use std::sync::Arc;

/// A condensed view of one routing run, sufficient for every table.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Number of packets.
    pub n: usize,
    /// Delivered packets.
    pub delivered: usize,
    /// Makespan (0 when nothing was delivered).
    pub makespan: u64,
    /// Mean in-flight latency.
    pub mean_latency: f64,
    /// Total deflections.
    pub deflections: u64,
    /// Largest deviation-stack depth.
    pub max_deviation: u32,
    /// Invariant violations (0 for baselines).
    pub violations: u64,
    /// Named counters carried over from the run.
    pub counters: std::collections::BTreeMap<&'static str, u64>,
}

impl RunSummary {
    /// Builds a summary from routing statistics.
    pub fn from_stats(stats: &RouteStats, violations: u64) -> Self {
        RunSummary {
            n: stats.num_packets(),
            delivered: stats.delivered_count(),
            makespan: stats.makespan().unwrap_or(0),
            mean_latency: stats.mean_latency(),
            deflections: stats.total_deflections(),
            max_deviation: stats.max_deviation_overall(),
            violations,
            counters: stats.counters.clone(),
        }
    }

    /// Whether everything was delivered.
    pub fn complete(&self) -> bool {
        self.delivered == self.n
    }
}

/// Mean-field average of several run summaries (counters summed).
pub fn average(runs: &[RunSummary]) -> RunSummary {
    assert!(!runs.is_empty());
    let k = runs.len() as f64;
    let mut counters = std::collections::BTreeMap::new();
    for r in runs {
        for (&name, &v) in &r.counters {
            *counters.entry(name).or_insert(0) += v;
        }
    }
    RunSummary {
        n: runs[0].n,
        delivered: (runs.iter().map(|r| r.delivered).sum::<usize>() as f64 / k).round() as usize,
        makespan: (runs.iter().map(|r| r.makespan).sum::<u64>() as f64 / k).round() as u64,
        mean_latency: runs.iter().map(|r| r.mean_latency).sum::<f64>() / k,
        deflections: (runs.iter().map(|r| r.deflections).sum::<u64>() as f64 / k).round() as u64,
        max_deviation: runs.iter().map(|r| r.max_deviation).max().unwrap(),
        violations: runs.iter().map(|r| r.violations).sum(),
        counters,
    }
}

/// Routes through the algorithm-agnostic [`Router`] interface; one seed.
/// Invariant violations are read back from the `"invariant_violations"`
/// counter (absent, hence zero, for routers that do not audit).
pub fn run_router(router: &dyn Router, problem: &Arc<RoutingProblem>, seed: u64) -> RunSummary {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let out = router.route_unobserved(problem, &mut rng);
    let violations = out
        .stats
        .counters
        .get("invariant_violations")
        .copied()
        .unwrap_or(0);
    RunSummary::from_stats(&out.stats, violations)
}

/// Routes with the paper's algorithm under `params`; one seed.
pub fn run_busch(problem: &Arc<RoutingProblem>, params: Params, seed: u64) -> RunSummary {
    run_router(&BuschRouter::new(params), problem, seed)
}

/// Routes with the router `algo` names in [`build_router`], the one
/// table from algorithm names to routers; one seed.
pub fn run_algo(algo: &str, problem: &Arc<RoutingProblem>, seed: u64) -> RunSummary {
    let router = build_router(algo, problem).expect("a known algorithm");
    run_router(router.as_ref(), problem, seed)
}

/// Routes with store-and-forward under constant (size-2) buffers — the
/// bounded-buffer regime of reference 16.
pub fn run_store_forward_bounded(problem: &Arc<RoutingProblem>, seed: u64) -> RunSummary {
    run_router(&StoreForwardRouter::bounded(2), problem, seed)
}

thread_local! {
    /// Set on sweep workers so nested sweeps run inline instead of
    /// fanning out again from inside a fan-out.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` over `items` on scoped worker threads, preserving input
/// order in the output. Work is distributed as contiguous chunks, one per
/// requested thread, and results are concatenated in chunk order, so the
/// output is identical for every thread count (including 1). Thread
/// budget comes from [`configured_threads`] (`HOTPOTATO_THREADS` override
/// respected).
pub fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    parallel_map_with_threads(items, f, configured_threads())
}

/// [`parallel_map`] with an explicit thread budget. A panic in `f` is
/// resumed on the calling thread once every chunk has finished.
pub fn parallel_map_with_threads<T, U, F>(items: Vec<T>, f: F, threads: usize) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 || IS_WORKER.with(std::cell::Cell::get) {
        return items.into_iter().map(f).collect();
    }

    // Contiguous chunks, sized as evenly as possible.
    let per = n / threads;
    let extra = n % threads;
    let mut it = items.into_iter();
    let chunks: Vec<Vec<T>> = (0..threads)
        .map(|c| it.by_ref().take(per + usize::from(c < extra)).collect())
        .collect();

    let f = &f;
    let joined: Vec<std::thread::Result<Vec<U>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    IS_WORKER.with(|w| w.set(true));
                    chunk.into_iter().map(f).collect::<Vec<U>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect()
    });

    let mut out = Vec::with_capacity(n);
    for chunk in joined {
        match chunk {
            Ok(mut results) => out.append(&mut results),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::GreedyRouter;
    use leveled_net::builders;
    use routing_core::workloads;
    use std::sync::Arc;

    #[test]
    fn parallel_map_preserves_order_and_values() {
        let items: Vec<u64> = (0..200).collect();
        let out = parallel_map(items, |x| x * 3);
        assert_eq!(out, (0..200).map(|x| x * 3).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_map_moves_non_clone_items() {
        // Strings are Clone but Box<dyn ...> is not; use a move-only type.
        struct MoveOnly(u64);
        let items: Vec<MoveOnly> = (0..50).map(MoveOnly).collect();
        let out = parallel_map(items, |m| m.0 + 1);
        assert_eq!(out, (1..=50).collect::<Vec<u64>>());
    }

    #[test]
    fn identical_results_for_every_thread_count() {
        let work = |x: u64| x.wrapping_mul(0x9e3779b97f4a7c15) >> 7;
        let expect: Vec<u64> = (0..97).map(work).collect();
        let max = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        for threads in [1, 2, 3, max, max + 5] {
            let out = parallel_map_with_threads((0..97).collect(), work, threads);
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn pool_survives_repeated_sweeps() {
        for round in 0..20 {
            let out = parallel_map((0..16u64).collect(), |x| x + round);
            assert_eq!(out[0], round);
            assert_eq!(out[15], 15 + round);
        }
    }

    #[test]
    fn nested_sweeps_run_inline_without_deadlock() {
        let out = parallel_map((0..8u64).collect(), |x| {
            parallel_map((0..4u64).collect(), move |y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out[1], 10 * 4 + 6);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn panics_propagate_after_sweep_completes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Four chunks of eight; item 15 ends the second chunk, so every
        // other item runs even though a chunk stops at its panic.
        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map_with_threads(
                (0..32u64).collect(),
                |x| {
                    if x == 15 {
                        panic!("boom");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                },
                4,
            )
        }));
        let payload = result.expect_err("the panic resumes on the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(ran.load(Ordering::Relaxed), 31);
        // Sweeps still work afterwards.
        let ok = parallel_map((0..8u64).collect(), |x| x);
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn run_helpers_produce_complete_summaries() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 10, &mut rng).unwrap();
        let b = run_busch(&prob, Params::auto(&prob), 1);
        assert!(b.complete());
        for algo in ["greedy", "rank", "sf", "sfrank"] {
            assert!(run_algo(algo, &prob, 1).complete(), "{algo}");
        }
    }

    #[test]
    fn run_router_matches_concrete_helpers() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 10, &mut rng).unwrap();
        // The trait path must draw the same random sequence as the
        // concrete inherent methods: identical summaries, seed for seed.
        let mut direct = ChaCha8Rng::seed_from_u64(7);
        let concrete = BuschRouter::new(Params::auto(&prob)).route(&prob, &mut direct);
        let via_trait = run_router(&BuschRouter::new(Params::auto(&prob)), &prob, 7);
        assert_eq!(via_trait.makespan, concrete.stats.makespan().unwrap_or(0));
        assert_eq!(via_trait.delivered, concrete.stats.delivered_count());
        assert_eq!(via_trait.violations, concrete.invariants.total_violations());
        assert_eq!(
            via_trait.counters.get("phases").copied(),
            Some(concrete.phases_elapsed)
        );

        let mut direct = ChaCha8Rng::seed_from_u64(9);
        let g = GreedyRouter::new().route(&prob, &mut direct);
        let gt = run_router(&GreedyRouter::new(), &prob, 9);
        assert_eq!(gt.makespan, g.stats.makespan().unwrap_or(0));
        assert_eq!(gt.deflections, g.stats.total_deflections());
    }

    #[test]
    fn average_combines_runs() {
        let a = RunSummary {
            n: 4,
            delivered: 4,
            makespan: 10,
            mean_latency: 2.0,
            deflections: 4,
            max_deviation: 1,
            violations: 0,
            counters: Default::default(),
        };
        let mut b = a.clone();
        b.makespan = 20;
        b.max_deviation = 3;
        b.violations = 2;
        let avg = average(&[a, b]);
        assert_eq!(avg.makespan, 15);
        assert_eq!(avg.max_deviation, 3);
        assert_eq!(avg.violations, 2);
    }
}
