//! Baseline routing algorithms for comparison against the paper's router.
//!
//! * [`GreedyRouter`] — plain greedy hot-potato routing: every packet is
//!   injected as soon as its first link is free and always tries its next
//!   current-path move; conflicts resolved uniformly at random (or by the
//!   furthest-to-go or aging rule of [`hotpotato_sim::StreamPriority`]),
//!   losers deflected backward-and-safe when possible, arbitrarily
//!   otherwise. The folklore algorithm the experimental literature
//!   measures ([4, 5] in the paper).
//! * [`RandomPriorityRouter`] — greedy with *fixed random ranks*: each
//!   packet draws a rank at the start and all conflicts are decided by
//!   rank, in the spirit of Busch–Herlihy–Wattenhofer's randomized greedy
//!   hot-potato routing (reference 11 in the paper).
//!
//!   Both greedy routers run one batch loop: pending packets retry
//!   injection every step, and the network moves by
//!   [`hotpotato_sim::conflict::greedy_step`], the step the streaming mode
//!   runs too. They differ only in the priority closure they pass it.
//! * [`StoreForwardRouter`] — the buffered baseline (re-exported from
//!   `hotpotato-sim`): FIFO or random-rank scheduling on the preselected
//!   paths with optional `Θ(C)` random initial delays, achieving
//!   `O(C + L + log N)` on leveled networks (reference 16).

pub mod greedy;
pub mod random_priority;

pub use greedy::{GreedyConfig, GreedyOutcome, GreedyRouter};
pub use hotpotato_sim::store_forward::{QueueDiscipline, StoreForwardConfig, StoreForwardOutcome};
pub use random_priority::RandomPriorityRouter;

/// Convenience façade over [`hotpotato_sim::store_forward::route`] with the
/// same constructor shape as the other baselines.
#[derive(Clone, Copy, Debug)]
pub struct StoreForwardRouter {
    cfg: StoreForwardConfig,
}

impl StoreForwardRouter {
    /// FIFO scheduling without initial delays.
    pub fn fifo() -> Self {
        StoreForwardRouter {
            cfg: StoreForwardConfig::default(),
        }
    }

    /// Random-rank scheduling with initial delays in `0..=delay_cap` — the
    /// classic `O(C + L + log N)` style schedule for leveled networks.
    pub fn random_rank(delay_cap: u64) -> Self {
        StoreForwardRouter {
            cfg: StoreForwardConfig {
                discipline: QueueDiscipline::RandomRank,
                initial_delay_cap: delay_cap,
                ..Default::default()
            },
        }
    }

    /// FIFO scheduling with constant per-edge buffers of size `cap` —
    /// the bounded-buffer regime of reference 16.
    pub fn bounded(cap: usize) -> Self {
        StoreForwardRouter {
            cfg: StoreForwardConfig {
                buffer_cap: cap,
                ..Default::default()
            },
        }
    }

    /// Explicit configuration.
    pub fn with_config(cfg: StoreForwardConfig) -> Self {
        StoreForwardRouter { cfg }
    }

    /// Routes `problem` with buffered store-and-forward scheduling.
    pub fn route<R: rand::Rng + ?Sized>(
        &self,
        problem: &routing_core::RoutingProblem,
        rng: &mut R,
    ) -> StoreForwardOutcome {
        hotpotato_sim::store_forward::route(problem, self.cfg, rng)
    }

    /// [`StoreForwardRouter::route`] with an event sink. Buffered queue
    /// departures map onto the hot-potato event vocabulary: a packet's
    /// first traversal reports as an injection, later ones as advances.
    pub fn route_observed<R: rand::Rng + ?Sized, O: hotpotato_sim::RouteObserver + ?Sized>(
        &self,
        problem: &routing_core::RoutingProblem,
        rng: &mut R,
        observer: &mut O,
    ) -> StoreForwardOutcome {
        hotpotato_sim::store_forward::route_observed(problem, self.cfg, rng, observer)
    }
}

impl hotpotato_sim::Router for StoreForwardRouter {
    fn name(&self) -> &'static str {
        "sf"
    }

    fn route(
        &self,
        problem: &std::sync::Arc<routing_core::RoutingProblem>,
        rng: &mut dyn rand::RngCore,
        observer: &mut dyn hotpotato_sim::RouteObserver,
    ) -> hotpotato_sim::RouteOutcome {
        let out = self.route_observed(problem, rng, observer);
        let mut stats = out.stats;
        stats.counters.insert("max_queue", out.max_queue as u64);
        stats
            .counters
            .insert("total_queue_wait", out.total_queue_wait);
        stats
            .counters
            .insert("backpressure_stalls", out.backpressure_stalls);
        hotpotato_sim::RouteOutcome {
            algorithm: "sf",
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use routing_core::workloads;
    use std::sync::Arc;

    #[test]
    fn store_forward_router_facade_routes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Arc::new(builders::butterfly(4));
        let prob = workloads::random_pairs(&net, 12, &mut rng).unwrap();
        let fifo = StoreForwardRouter::fifo().route(&prob, &mut rng);
        assert!(fifo.stats.all_delivered());
        let rr = StoreForwardRouter::random_rank(prob.congestion() as u64).route(&prob, &mut rng);
        assert!(rr.stats.all_delivered());
    }
}
