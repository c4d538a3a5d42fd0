//! The algorithm-agnostic routing interface.
//!
//! Every routing algorithm in the workspace — the paper's Busch router
//! and all the baselines — reduces to the same contract: given a
//! [`RoutingProblem`] and a randomness source, deliver the packets and
//! report what happened. [`Router`] captures that contract behind a
//! single object-safe trait so benches, experiments, and the CLI can
//! dispatch over `&dyn Router` instead of per-algorithm match arms, and
//! [`RouteOutcome`] is the shared result shape (algorithm-specific
//! extras travel in [`RouteStats::counters`]).
//!
//! The concrete routers keep their inherent, fully-generic `route`
//! methods (monomorphized rng + observer: zero dispatch cost on hot
//! paths); the trait impls are thin shims over those.

use crate::observe::{NoopObserver, RouteObserver};
use crate::stats::RouteStats;
use rand::RngCore;
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Common result of a [`Router::route`] call.
///
/// Algorithm-specific outputs are folded into
/// [`RouteStats::counters`] under stable names — the Busch router adds
/// `"phases"`, `"invariant_violations"` and the per-invariant `inv_*`
/// counters; store-and-forward adds `"max_queue"`,
/// `"total_queue_wait"` and `"backpressure_stalls"`. To audit the run,
/// pass a [`crate::replay::Auditor`] as (or beside) the observer.
#[derive(Clone, Debug)]
pub struct RouteOutcome {
    /// Stable algorithm name (same as [`Router::name`]).
    pub algorithm: &'static str,
    /// Routing statistics.
    pub stats: RouteStats,
}

/// An object-safe routing algorithm.
///
/// Implementations must be deterministic given the rng: the trait path
/// draws the same random sequence as the concrete inherent methods, so
/// a seed produces the identical run either way.
pub trait Router {
    /// Stable lowercase algorithm name (e.g. `"busch"`, `"greedy"`).
    fn name(&self) -> &'static str;

    /// Routes `problem`, feeding every engine and schedule event to
    /// `observer`. Pass [`NoopObserver`] (see [`Router::route_unobserved`])
    /// when no events are wanted.
    fn route(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut dyn RngCore,
        observer: &mut dyn RouteObserver,
    ) -> RouteOutcome;

    /// [`Router::route`] without an event sink.
    fn route_unobserved(
        &self,
        problem: &Arc<RoutingProblem>,
        rng: &mut dyn RngCore,
    ) -> RouteOutcome {
        self.route(problem, rng, &mut NoopObserver)
    }
}
