//! Greedy hot-potato routing: the folklore baseline.
//!
//! Every packet is injected as early as possible (from step 0, retrying
//! while its first link is busy). At each node, every packet tries the
//! next move of its current path; conflicts are decided uniformly at
//! random or by a static priority rule, and losers are deflected backward
//! and safely when possible (falling back to any free link — greedy
//! injection provides no isolation guarantee, so Lemma 2.1's precondition
//! can fail).
//!
//! Greedy hot-potato routing has no general `O(C + D)`-style bound on
//! leveled networks — the point of the paper — but is fast in easy
//! regimes; the `T4` comparison experiment quantifies both sides.

use hotpotato_sim::conflict::{self, GreedyScratch};
use hotpotato_sim::{
    InjectOutcome, NoopObserver, RouteObserver, RouteOutcome, RouteStats, Router, SoaEngine,
    StepStage, StreamPriority,
};
use rand::{Rng, RngCore};
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Configuration of the greedy baseline.
#[derive(Clone, Copy, Debug)]
pub struct GreedyConfig {
    /// Conflict priority rule.
    pub priority: StreamPriority,
    /// Safety cap on simulated steps.
    pub max_steps: u64,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            priority: StreamPriority::Uniform,
            max_steps: 5_000_000,
        }
    }
}

/// Result of a greedy run.
#[derive(Clone, Debug)]
pub struct GreedyOutcome {
    /// Standard routing statistics.
    pub stats: RouteStats,
}

/// The greedy hot-potato router.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyRouter {
    cfg: GreedyConfig,
}

impl GreedyRouter {
    /// Uniform-priority greedy with default limits.
    pub fn new() -> Self {
        GreedyRouter::default()
    }

    /// Greedy with an explicit configuration.
    pub fn with_config(cfg: GreedyConfig) -> Self {
        GreedyRouter { cfg }
    }

    /// Routes `problem` greedily. Deterministic given the rng state.
    /// Takes the problem behind an `Arc` so the engine shares it without
    /// deep-cloning the paths.
    pub fn route<R: Rng + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
    ) -> GreedyOutcome {
        self.route_observed(problem, rng, &mut NoopObserver)
    }

    /// [`GreedyRouter::route`] with an event sink: every engine event
    /// (injection, movement, deflection, delivery, step report) is fed to
    /// `observer`. With [`NoopObserver`] this monomorphizes to exactly the
    /// unobserved run.
    pub fn route_observed<R: Rng + ?Sized, O: RouteObserver + ?Sized>(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut R,
        observer: &mut O,
    ) -> GreedyOutcome {
        let rule = self.cfg.priority;
        route_batch(
            problem,
            |sim, p| rule.priority_of(sim, p),
            self.cfg.max_steps,
            rng,
            observer,
        )
    }
}

/// The batch run of the greedy family, shared by [`GreedyRouter`] and
/// [`crate::RandomPriorityRouter`]: every pending packet tries to inject
/// every step until admitted, and the packets in the network move by
/// [`conflict::greedy_step`] under `priority`.
pub(crate) fn route_batch<R, O, P>(
    problem: &Arc<RoutingProblem>,
    priority: P,
    max_steps: u64,
    rng: &mut R,
    observer: &mut O,
) -> GreedyOutcome
where
    R: Rng + ?Sized,
    O: RouteObserver + ?Sized,
    P: Fn(&SoaEngine<&mut O>, u32) -> u32,
{
    let mut sim = SoaEngine::new(Arc::clone(problem), observer);
    let mut stage = StepStage::new(problem.network_arc());
    let mut pending: Vec<u32> = (0..problem.num_packets() as u32).collect();
    let mut scratch = GreedyScratch::default();
    while !sim.is_done() && sim.now() < max_steps {
        conflict::greedy_step(&sim, &mut stage, &priority, rng, &mut scratch);
        sim.commit_stage(&mut stage);
        pending.retain(|&p| sim.try_inject(p) == InjectOutcome::Blocked);
        sim.finish_step().expect("all arrivals staged");
    }
    GreedyOutcome {
        stats: sim.into_parts(),
    }
}

impl Router for GreedyRouter {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn route(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut dyn RngCore,
        observer: &mut dyn RouteObserver,
    ) -> RouteOutcome {
        let out = self.route_observed(problem, rng, observer);
        RouteOutcome {
            algorithm: "greedy",
            stats: out.stats,
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

    #[test]
    fn delivers_random_pairs_on_butterfly() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Arc::new(builders::butterfly(5));
        let prob = workloads::random_pairs(&net, 24, &mut rng).unwrap();
        let out = GreedyRouter::new().route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn delivers_permutation_on_butterfly() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let k = 5;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = workloads::butterfly_permutation(&net, &coords, &mut rng);
        let out = GreedyRouter::new().route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn delivers_mesh_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (raw, coords) = builders::mesh(8, 8, MeshCorner::TopLeft);
        let net = Arc::new(raw);
        let prob = workloads::mesh_transpose(&net, &coords).unwrap();
        let out = GreedyRouter::new().route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn furthest_to_go_variant_delivers() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = Arc::new(builders::complete_leveled(8, 4));
        let prob = workloads::funnel(&net, 12, &mut rng).unwrap();
        let cfg = GreedyConfig {
            priority: StreamPriority::FurthestToGo,
            ..Default::default()
        };
        let out = GreedyRouter::with_config(cfg).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn aging_variant_delivers_under_heavy_contention() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let k = 6;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = workloads::butterfly_bit_reversal(&net, &coords);
        let cfg = GreedyConfig {
            priority: StreamPriority::Aging,
            ..Default::default()
        };
        let out = GreedyRouter::with_config(cfg).route(&prob, &mut rng);
        assert!(out.stats.all_delivered(), "{}", out.stats.summary());
    }

    #[test]
    fn aging_bounds_worst_case_deflections() {
        // With aging, the most-deflected packet wins every conflict, so
        // per-packet deflections stay close to the uniform variant's
        // *mean*, not its max.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let net = Arc::new(builders::complete_leveled(10, 4));
        let prob = workloads::funnel(&net, 16, &mut rng).unwrap();
        let uni = GreedyRouter::new().route(&prob, &mut rng);
        let cfg = GreedyConfig {
            priority: StreamPriority::Aging,
            ..Default::default()
        };
        let aging = GreedyRouter::with_config(cfg).route(&prob, &mut rng);
        assert!(uni.stats.all_delivered() && aging.stats.all_delivered());
        let max_aging = aging.stats.deflection_summary().max;
        let max_uni = uni.stats.deflection_summary().max;
        assert!(
            max_aging <= max_uni + 2.0,
            "aging should not worsen the deflection tail: {max_aging} vs {max_uni}"
        );
    }

    #[test]
    fn greedy_injects_everything_early() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 10, &mut rng).unwrap();
        let out = GreedyRouter::new().route(&prob, &mut rng);
        // With 10 packets on a 4-butterfly, injections clear within a few
        // steps (contention on first edges only).
        for inj in out.stats.injected_at.iter().flatten() {
            assert!(*inj < 10, "greedy injection was delayed to {inj}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut wrng = ChaCha8Rng::seed_from_u64(6);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 12, &mut wrng).unwrap();
        let mut r1 = ChaCha8Rng::seed_from_u64(42);
        let mut r2 = ChaCha8Rng::seed_from_u64(42);
        let o1 = GreedyRouter::new().route(&prob, &mut r1);
        let o2 = GreedyRouter::new().route(&prob, &mut r2);
        assert_eq!(o1.stats.delivered_at, o2.stats.delivered_at);
    }

    #[test]
    fn max_steps_caps_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 10, &mut rng).unwrap();
        let cfg = GreedyConfig {
            max_steps: 1,
            ..Default::default()
        };
        let out = GreedyRouter::with_config(cfg).route(&prob, &mut rng);
        assert!(!out.stats.all_delivered());
        assert_eq!(out.stats.steps_run, 1);
    }
}
