//! Shared recording helper for the trace integration tests: runs the
//! Busch router on a spec-described instance and captures the enveloped
//! JSONL trace exactly as `hotpotato route --trace-out` writes it.

// Each test binary compiles this module afresh and uses one recorder
// or the other.
#![allow(dead_code)]

use hotpotato_sim::{
    AdmissionControl, JsonlTraceObserver, RouteObserver, RouteStats, StreamingConfig,
};
use hotpotato_trace::schema;
use routing_core::spec::RunSpec;
use serve::service::RunPlan;

/// Routes `topo_spec`/`workload_spec` under `seed` with the default
/// Busch configuration (the run plan `hotpotato route` uses), streaming events into a `JsonlTraceObserver`
/// composed with `extra`, and returns the complete trace text (meta
/// line, event lines, stats line), the run statistics, and `extra`.
///
/// The rng discipline mirrors the CLI: workload generation and routing
/// share one `ChaCha8Rng` seeded from `seed`, which is what makes the
/// trace reproducible from its meta line alone.
pub fn record_busch_with<O: RouteObserver>(
    topo_spec: &str,
    workload_spec: &str,
    seed: u64,
    extra: O,
) -> (String, RouteStats, O) {
    record_busch_inner(topo_spec, workload_spec, seed, extra, false)
}

/// Like [`record_busch_with`], but records through
/// `JsonlTraceObserver::with_snapshots`, so the trace carries the
/// phase-entry `snapshot` checkpoints that sharded verification seeds
/// from — exactly what `hotpotato route --trace-out` emits.
pub fn record_busch_snapshots(
    topo_spec: &str,
    workload_spec: &str,
    seed: u64,
) -> (String, RouteStats) {
    let (text, stats, _) = record_busch_inner(
        topo_spec,
        workload_spec,
        seed,
        hotpotato_sim::NoopObserver,
        true,
    );
    (text, stats)
}

fn record_busch_inner<O: RouteObserver>(
    topo_spec: &str,
    workload_spec: &str,
    seed: u64,
    extra: O,
    snapshots: bool,
) -> (String, RouteStats, O) {
    let spec = RunSpec::batch(topo_spec, workload_spec, "busch", seed);
    let (_, problem, mut rng) = spec.instantiate().expect("run spec");
    let meta = schema::Meta::new(&spec, &problem);
    let plan = RunPlan::new(
        &spec,
        &problem,
        AdmissionControl::default(),
        StreamingConfig::default().max_steps,
    )
    .expect("busch routes every instance");

    let jsonl = if snapshots {
        JsonlTraceObserver::with_snapshots(Vec::new(), &problem)
    } else {
        JsonlTraceObserver::new(Vec::new())
    };
    let mut observer = (extra, jsonl);
    let stats = plan.route(&problem, &mut rng, &mut observer).into_stats();
    let (extra, trace) = observer;
    let body = trace.finish().expect("in-memory sink cannot fail");

    let mut text = schema::meta_line(&meta);
    text.push('\n');
    text.push_str(std::str::from_utf8(&body).expect("observer emits UTF-8"));
    text.push_str(&schema::stats_line(&stats));
    text.push('\n');
    (text, stats, extra)
}
