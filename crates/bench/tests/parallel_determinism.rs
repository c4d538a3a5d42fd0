//! Determinism under parallelism: sweep results must be byte-identical
//! regardless of the worker-thread budget. The pool distributes contiguous
//! chunks and writes results back by index, and every run seeds its own
//! rng — so nothing about the output may depend on scheduling.

use bench::runner::{self, parallel_map_with_threads};
use busch_router::Params;
use leveled_net::builders;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::{workloads, RoutingProblem};
use std::sync::Arc;

/// A seed sweep over a fixed instance, rendered to a canonical string so
/// comparisons catch any divergence (delivery times, deflections,
/// counters — everything a table could print).
fn sweep(problem: &Arc<RoutingProblem>, seeds: Vec<u64>, threads: usize) -> String {
    let params = Params::auto(problem);
    let rows = parallel_map_with_threads(
        seeds,
        |seed| {
            let b = runner::run_busch(problem, params, seed);
            let g = runner::run_algo("greedy", problem, seed);
            format!(
                "seed={seed} busch(mk={} defl={} moves={} viol={}) greedy(mk={} defl={})",
                b.makespan,
                b.deflections,
                b.counters.get("moves").copied().unwrap_or(0),
                b.violations,
                g.makespan,
                g.deflections,
            )
        },
        threads,
    );
    rows.join("\n")
}

#[test]
fn sweep_results_identical_for_every_thread_count() {
    let mut wrng = ChaCha8Rng::seed_from_u64(0xD15C0);
    let net = Arc::new(builders::butterfly(5));
    let problem = workloads::random_pairs(&net, 48, &mut wrng).unwrap();
    let seeds: Vec<u64> = (0..12).collect();

    let max = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let reference = sweep(&problem, seeds.clone(), 1);
    for threads in [2, max] {
        let got = sweep(&problem, seeds.clone(), threads);
        assert_eq!(got, reference, "sweep output diverged at {threads} threads");
    }
}

#[test]
fn hotpotato_threads_env_override_is_respected_and_deterministic() {
    // `configured_threads` re-reads the environment on every call, so the
    // override can be exercised inside one process. Serialize against
    // other tests by running both checks in this single #[test].
    let mut wrng = ChaCha8Rng::seed_from_u64(0xBEEF);
    let net = Arc::new(builders::butterfly(4));
    let problem = workloads::random_pairs(&net, 24, &mut wrng).unwrap();
    let seeds: Vec<u64> = (0..8).collect();

    std::env::set_var("HOTPOTATO_THREADS", "1");
    assert_eq!(hotpotato_sim::configured_threads(), 1);
    let single: Vec<String> = runner::parallel_map(seeds.clone(), |seed| {
        let s = runner::run_algo("greedy", &problem, seed);
        format!("{seed}:{}:{}", s.makespan, s.deflections)
    });

    std::env::set_var("HOTPOTATO_THREADS", "3");
    assert_eq!(hotpotato_sim::configured_threads(), 3);
    let triple: Vec<String> = runner::parallel_map(seeds, |seed| {
        let s = runner::run_algo("greedy", &problem, seed);
        format!("{seed}:{}:{}", s.makespan, s.deflections)
    });

    std::env::remove_var("HOTPOTATO_THREADS");
    assert_eq!(single, triple, "env-configured budgets changed the output");
}
