//! The fleet envelope records each run's events straight into a
//! `Trace`. These tests pin it to the JSONL envelope it replaced, kept
//! here as reference code: record through
//! `JsonlTraceObserver::with_snapshots` between the meta and stats
//! lines, parse the text back, then verify, analyze and sample exactly
//! as the fleet does. Both paths must give the same `FleetSample` on
//! one spec per row of the benchmark's fleet ladder, at two seeds (the
//! streaming row at 250 packets instead of 1000, to keep debug builds
//! quick).

use busch_router::{BuschRouter, Params};
use hotpotato_sim::{AdmissionControl, JsonlTraceObserver, RouteStats, Router, StreamingConfig};
use hotpotato_trace::{analyze, schema, verify_trace, FleetSample, Trace, TraceEvent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec::{parse_run_spec, RunSpec};
use routing_core::RoutingProblem;
use serve::service::RunPlan;
use serve::{run_fleet_router, run_fleet_spec};
use std::io::Write as _;

/// Routes `problem` into a snapshot-recording JSONL observer wrapped in
/// the meta/stats envelope and returns the trace text.
fn record_jsonl(
    meta: &schema::Meta,
    problem: &RoutingProblem,
    route: impl FnOnce(&mut JsonlTraceObserver<Vec<u8>>) -> RouteStats,
) -> (String, RouteStats) {
    let mut buf: Vec<u8> = Vec::new();
    writeln!(buf, "{}", schema::meta_line(meta)).unwrap();
    let mut obs = JsonlTraceObserver::with_snapshots(buf, problem);
    let stats = route(&mut obs);
    let mut buf = obs.finish().expect("in-memory sink");
    writeln!(buf, "{}", schema::stats_line(&stats)).unwrap();
    (String::from_utf8(buf).expect("trace is UTF-8"), stats)
}

/// The old envelope tail: parse, verify, analyze, sample. The move
/// count is taken from the parsed `move` events, as the sample did
/// before it read the analysis.
fn seal_jsonl(text: &str, stats: &RouteStats, verify: bool) -> FleetSample {
    let trace = Trace::parse(text).expect("trace parses");
    let audited = stats
        .counters
        .get("invariant_violations")
        .copied()
        .unwrap_or(0);
    let replay = u64::from(verify && verify_trace(&trace).is_err());
    let analysis = analyze(&trace);
    let mut sample = FleetSample::from_trace(&trace, &analysis, audited + replay).unwrap();
    sample.moves = trace
        .events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::Move { .. }))
        .count() as u64;
    sample
}

/// `run_fleet_spec` as it was: the JSONL render-and-reparse envelope.
fn jsonl_fleet_spec(spec: &RunSpec, verify: bool) -> FleetSample {
    let (_, problem, mut rng) = spec.instantiate().unwrap();
    let plan = RunPlan::new(
        spec,
        &problem,
        AdmissionControl::default(),
        StreamingConfig::default().max_steps,
    )
    .unwrap();
    let meta = schema::Meta::new(spec, &problem);
    let (text, stats) = record_jsonl(&meta, &problem, |obs| {
        plan.route(&problem, &mut rng, obs).into_stats()
    });
    seal_jsonl(&text, &stats, verify)
}

#[test]
fn recorded_envelope_matches_the_jsonl_envelope_on_the_fleet_ladder() {
    for seed in [1, 2] {
        for spec in [
            format!("bf:7/bitrev/busch/{seed}"),
            format!("mesh:8x8/transpose/busch/{seed}"),
            format!("bf:8/pairs:64/greedy/{seed}"),
            format!("bf:10/pairs:250/ftg/{seed}/poisson:8"),
        ] {
            let spec = parse_run_spec(&spec).unwrap();
            let want = jsonl_fleet_spec(&spec, true);
            assert_eq!(want.violations, 0, "{}", spec.name());
            assert!(want.moves > 0, "{}", spec.name());
            assert_eq!(
                run_fleet_spec(&spec, true).unwrap(),
                want,
                "{}",
                spec.name()
            );
        }
    }
}

#[test]
fn recorded_envelope_matches_the_jsonl_envelope_for_explicit_routers() {
    let spec = parse_run_spec("bf:5/bitrev/busch/9").unwrap();
    let (_, problem, _) = spec.instantiate().unwrap();
    let router = BuschRouter::new(Params::auto(&problem));
    let meta = schema::Meta::new(&RunSpec::batch("bf:5", "bitrev", "busch", 9), &problem);
    let (text, stats) = record_jsonl(&meta, &problem, |obs| {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        Router::route(&router, &problem, &mut rng, obs).stats
    });
    let want = seal_jsonl(&text, &stats, true);
    assert_eq!(want.violations, 0);
    assert_eq!(
        run_fleet_router(&router, &problem, "bf:5", "bitrev", 9, true).unwrap(),
        want
    );
}
