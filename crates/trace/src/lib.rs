//! Trace analytics and replay verification for hotpotato JSONL event
//! streams.
//!
//! The simulator (PR 2) can stream every observable event of a run —
//! moves, deliveries, step reports, phases, frontiers, congestion audits
//! — as one JSON object per line. This crate closes the loop on that
//! stream:
//!
//! - [`schema`] — the **strict, versioned** line format: every event
//!   variant, a `meta`/`stats` envelope making traces self-contained
//!   (the types live in `hotpotato_sim::event` and are re-exported
//!   here), and a parser that rejects unknown events, unknown or missing
//!   fields, and schema-version mismatches (the stability contract).
//!   [`Trace`] is also a [`RouteObserver`] that records the same events
//!   in memory, with no text in between (the fleet envelope), through
//!   the one hook→event mapping the JSONL writer also runs.
//! - [`timeline`] — per-packet latency anatomy (the exact hot-potato
//!   identity `latency = advances + deflections + oscillations`),
//!   home-run segments, and **causal deflection-chain attribution**
//!   via Lemma 2.1 edge recycling.
//! - [`verify`] — offline replay verification: the instance is rebuilt
//!   from the envelope, every move is checked against the bufferless
//!   invariants, every step report against its event batch, the final
//!   stats against the reconstructed timelines, and (for bufferless
//!   traces) an independent in-memory auditor must concur. Corruption
//!   is reported with the first divergent line.
//! - [`analyze`](mod@analyze) — aggregate reports: per-phase deflection heatmaps,
//!   frontier-lag distributions, latency percentiles, chain depths,
//!   and empirical C+L scaling ratios, as JSON. [`Analyzer`] builds
//!   them in one pass over events in engine (chronological) order, from
//!   a trace or live as an observer; [`FleetSample`] and the metrics
//!   document ([`metrics_json`]) are views of its result.
//! - [`stream`] — [`stream::StreamingAggregator`], a [`RouteObserver`]
//!   with a hard memory cap for runs too long to trace in full.
//! - [`binary`] — the `.hpt` varint/delta binary framing: the same
//!   version-pinned schema in a fraction of the bytes, transcoding
//!   losslessly to and from canonical JSONL.
//! - [`shard`] — sharded parallel verification: `snapshot` checkpoints
//!   split the stream into independently replayable segments fanned out
//!   over scoped worker threads, with deterministic first-divergence
//!   reporting and pipeline telemetry (events/s, bytes/s, peak RSS,
//!   shard utilization).
//! - [`fleet`] — cross-run aggregation for the fleet observatory:
//!   per-(topo, algo, size) ratio distributions with deterministic
//!   bootstrap confidence intervals and the log-log scaling fit whose
//!   exponent is the empirical Theorem 2.6 verdict.
//!
//! [`RouteObserver`]: hotpotato_sim::RouteObserver

pub mod analyze;
pub mod binary;
pub mod fleet;
mod scan;
pub mod schema;
pub mod shard;
pub mod stream;
pub mod timeline;
pub mod verify;

pub use analyze::{analyze, analyze_with, diff, metrics_json, Analysis, Analyzer};
pub use binary::{decode_trace, encode_trace, is_binary, BinaryError};
pub use fleet::{
    parse_fleet, validate_fleet_doc, FleetAggregator, FleetFit, FleetSample, FLEET_SCHEMA_VERSION,
    RATIO_BUCKET_BOUNDS,
};
pub use schema::{
    parse_line, parse_rollup, rollup_doc, Meta, ParseError, Rollup, Snapshot, StatsLine, Trace,
    TraceEvent, SCHEMA_VERSION,
};
pub use shard::{
    parse_jsonl_parallel, peak_rss_bytes, verify_trace_sharded, verify_trace_sharded_with,
    PipelineTelemetry, ShardOptions, ShardRun,
};
pub use stream::{report_json, Bucket, StreamingAggregator};
pub use timeline::{attribute_chains, build_timelines, ChainReport, PacketTimeline};
pub use verify::{verify_trace, Model, VerifyError, VerifyReport};
