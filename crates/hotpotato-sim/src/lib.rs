//! Synchronous network simulators for leveled-network routing.
//!
//! Three engines share the packet/problem model of `routing-core`:
//!
//! * [`Simulation`] — the **bufferless (hot-potato) engine** (paper §2.3):
//!   time is discrete; at each step every active packet *must* leave its
//!   current node; at most one packet traverses each edge per direction per
//!   step. Routing algorithms drive the engine by staging one exit per
//!   arriving packet each step; the engine enforces the hot-potato
//!   constraints, performs movement/absorption, and keeps statistics.
//! * [`SoaEngine`] ([`soa`]) — the same bufferless semantics on flat
//!   structure-of-arrays state. The Busch router runs on it; the
//!   equivalence tests pin it bit for bit against the Busch reference
//!   driver on [`Simulation`].
//! * [`store_forward`] — the **buffered engine** used by the
//!   store-and-forward baselines: per-edge output queues, one dequeue per
//!   edge per direction per step.
//!
//! The [`conflict`] module provides the shared conflict-resolution routine
//! (priority winners, *safe backward deflections* in the sense of the
//! paper's Lemma 2.1) used by both the paper's algorithm and the greedy
//! baselines. The [`streaming`] module drives the engine in the
//! *continuous-injection* (online) mode: an open-ended step loop fed by
//! an arrival process through bounded admission control, instead of the
//! batch run-to-quiesce loop.
//!
//! Cross-cutting layers on top of the engines:
//!
//! * [`observe`] — the [`RouteObserver`] event-sink trait (statically
//!   zero-cost when disabled) plus concrete sinks: [`MetricsObserver`],
//!   [`JsonlTraceObserver`], [`SectionProfiler`];
//! * [`router_api`] — the object-safe [`Router`] trait and shared
//!   [`RouteOutcome`] every routing algorithm implements;
//! * [`exchange`] — the double-buffered, never-blocking
//!   [`SnapshotPublisher`]/[`SnapshotReader`] handoff that live
//!   monitoring (the `serve` crate) uses to read mid-run metrics
//!   without touching the step loop's latency.

pub mod conflict;
pub mod engine;
pub mod exchange;
pub mod kinematics;
pub mod observe;
pub mod pool_core;
pub mod record;
pub mod router_api;
pub mod soa;
pub mod stats;
pub mod store_forward;
pub mod streaming;
pub mod summary;

pub use conflict::SlotView;
pub use engine::{
    ExitKind, InjectOutcome, PacketStatus, SimError, Simulation, SimulationBuilder, StepReport,
};
pub use exchange::{snapshot_exchange, SnapshotPublisher, SnapshotReader};
pub use kinematics::SimPacket;
pub use observe::{
    JsonlTraceObserver, MetricsObserver, NoopObserver, RouteObserver, Section, SectionProfiler,
};
pub use record::{replay, MoveEvent, RunRecord, TrivialDelivery};
pub use router_api::{RouteOutcome, Router};
pub use soa::{SoaEngine, SoaShared, StepStage, NO_MOVE};
pub use stats::{RouteStats, Time};
pub use streaming::{
    route_streaming, route_streaming_observed, AdmissionControl, StreamPriority, StreamingConfig,
    StreamingOutcome,
};
pub use summary::Summary;
