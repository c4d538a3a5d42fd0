//! Live monitoring service for hot-potato simulations.
//!
//! Everything the workspace could observe so far was post-hoc: metrics
//! JSON after the run, JSONL traces replayed offline. This crate makes a
//! *running* simulation observable. `hotpotato serve` hosts one or more
//! runs (each on its own thread) and serves, over a dependency-free
//! `std::net` HTTP/1.1 listener:
//!
//! * `GET /metrics` — Prometheus text exposition (format 0.0.4): steps,
//!   moves, deliveries, deflection histograms, per-level occupancy
//!   watermarks, and per-frontier-set congestion watermarks against the
//!   `ln(L·N)` Lemma 2.2 bound, labeled by run;
//! * `GET /rollup/<run>` — the run's bounded-memory
//!   [`StreamingAggregator`] snapshot as schema-versioned JSON (the
//!   [`hotpotato_trace::Rollup`] envelope);
//! * `GET /runs` — the hosted runs and their specs;
//! * `GET /healthz` — liveness.
//!
//! [`fleet`] mode replaces the per-run host with a sweep executor: a
//! queue of run specs fans out over scoped worker threads and every
//! completed run folds into a cross-run [`FleetAggregator`] served at
//! `GET /fleet` (per-cell CIs plus the scaling fit) and
//! `GET /fleet/progress` (queue state, ETA, per-worker utilization).
//!
//! [`FleetAggregator`]: hotpotato_trace::FleetAggregator
//!
//! The engine→service handoff is the single-mutex
//! [`hotpotato_sim::SnapshotPublisher`] exchange: the simulation thread
//! publishes a [`LiveSnapshot`] every `publish_every` steps without ever
//! blocking (contended publishes are skipped, not waited on), and HTTP
//! handler threads [`acquire`](hotpotato_sim::SnapshotReader::acquire)
//! untorn snapshots whose sequence number only goes up.
//!
//! [`StreamingAggregator`]: hotpotato_trace::StreamingAggregator

pub mod fleet;
pub mod http;
pub mod live;
pub mod prom;
pub mod service;

pub use fleet::{
    into_fleet_handler, run_fleet_router, run_fleet_spec, FleetConfig, FleetService, FleetSnapshot,
};
pub use http::{Request, Response};
pub use live::{LiveObserver, LiveSnapshot};
pub use service::{RunConfig, Service};
