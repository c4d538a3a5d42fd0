//! Synchronous network simulators for leveled-network routing.
//!
//! Two engines share the packet/problem model of `routing-core`:
//!
//! * [`SoaEngine`] ([`soa`]) — the **bufferless (hot-potato) engine**
//!   (paper §2.3), on flat structure-of-arrays state: time is discrete;
//!   at each step every active packet *must* leave its current node; at
//!   most one packet traverses each edge per direction per step. Routing
//!   algorithms drive the engine by staging one exit per arriving packet
//!   each step; the engine enforces the hot-potato constraints, performs
//!   movement/absorption, and keeps statistics. The Busch router and the
//!   whole greedy family run on it.
//! * [`store_forward`] — the **buffered engine** used by the
//!   store-and-forward baselines: per-edge output queues, one dequeue per
//!   edge per direction per step.
//!
//! The [`conflict`] module provides the shared conflict-resolution routine
//! (priority winners, *safe backward deflections* in the sense of the
//! paper's Lemma 2.1) used by both the paper's algorithm and the greedy
//! baselines, and [`conflict::greedy_step`], the one per-step loop of the
//! whole greedy family with its priority rule [`StreamPriority`]. The
//! [`streaming`] module drives that step in the *continuous-injection*
//! (online) mode: an open-ended loop fed by an arrival process through
//! bounded admission control, instead of the batch run-to-quiesce loop
//! of the `baselines` crate.
//!
//! Cross-cutting layers on top of the engines:
//!
//! * [`observe`] — the [`RouteObserver`] event-sink trait (statically
//!   zero-cost when disabled) plus concrete sinks: [`MetricsObserver`],
//!   [`JsonlTraceObserver`], [`SectionProfiler`], the [`RunRecord`]
//!   movement log and the [`replay::Auditor`] fold;
//! * [`event`] — the trace wire types ([`TraceEvent`] and its `meta`,
//!   `stats`, `snapshot` and rollup envelopes) and [`observe_as_events!`],
//!   the one mapping of the observer hooks to events, shared by
//!   [`JsonlTraceObserver`] and the trace crate's in-memory `Trace`;
//! * [`jsonl`] — [`jsonl::push_event`], the one renderer of every JSONL
//!   trace line shape, shared by [`JsonlTraceObserver`] and
//!   `hotpotato trace convert`;
//! * [`router_api`] — the object-safe [`Router`] trait and shared
//!   [`RouteOutcome`] every routing algorithm implements;
//! * [`exchange`] — the single-mutex, never-blocking
//!   [`SnapshotPublisher`]/[`SnapshotReader`] handoff that live
//!   monitoring (the `serve` crate) uses to read mid-run metrics
//!   without touching the step loop's latency.

pub mod conflict;
pub mod event;
pub mod exchange;
pub mod jsonl;
pub mod observe;
pub mod record;
pub mod router_api;
pub mod soa;
pub mod stats;
pub mod store_forward;
pub mod streaming;
pub mod summary;

pub use conflict::{SlotView, StreamPriority};
pub use event::{EventSink, TraceEvent};
pub use exchange::{snapshot_exchange, SnapshotPublisher, SnapshotReader};
/// The edge-and-direction move type of [`RouteObserver::on_move`].
pub use leveled_net::ids::DirectedEdge;
pub use observe::{
    JsonlTraceObserver, MetricsObserver, NoopObserver, RouteObserver, Section, SectionProfiler,
};
pub use record::{replay, MoveEvent, RunRecord, TrivialDelivery};
pub use router_api::{RouteOutcome, Router};
pub use soa::{
    ExitKind, InjectOutcome, SimError, SoaEngine, SoaShared, StepReport, StepStage, NO_MOVE,
};
pub use stats::{RouteStats, Time};
pub use streaming::{
    route_streaming, route_streaming_observed, AdmissionControl, StreamingConfig, StreamingOutcome,
};
pub use summary::{nearest_rank, Summary};

/// The worker-thread budget shared by every parallel fan-out in the
/// workspace: the `HOTPOTATO_THREADS` environment variable when set to a
/// positive integer, otherwise the machine's available parallelism. Read
/// on every call, so tests and operators can retune a running process.
pub fn configured_threads() -> usize {
    match std::env::var("HOTPOTATO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
    }
}
