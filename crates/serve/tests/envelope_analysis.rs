//! The fleet envelope folds each run's events through an `Analyzer`
//! with no instance, so no fleet run rebuilds its instance for
//! analysis. Its sample must equal the one `analyze`, which does
//! rebuild the instance, gives on the same recorded trace: one spec
//! per row of the benchmark's fleet ladder, at two seeds. Replay
//! verification is off on both sides (`tests/fleet_envelope.rs` covers
//! it), which keeps the 1000-packet streaming row quick in debug builds.

use hotpotato_sim::{route_streaming_observed, StreamPriority, StreamingConfig};
use hotpotato_trace::{analyze, FleetSample, Meta, Trace, TraceEvent};
use routing_core::spec::{parse_run_spec, RunSpec};
use serve::run_fleet_spec;
use serve::service::build_router;

/// Records `spec` into a `Trace` between its meta and stats envelope
/// events, as the fleet does, and returns it with the router's own
/// invariant-violation count.
fn record(spec: &RunSpec) -> (Trace, u64) {
    let (_, problem, mut rng) = spec.instantiate().unwrap();
    let mut trace = Trace {
        events: vec![TraceEvent::Meta(Meta::new(spec, &problem))],
    };
    let stats = match spec.arrival_process().unwrap() {
        Some(process) => {
            let schedule = process.schedule(problem.num_packets(), &mut rng);
            let cfg = StreamingConfig {
                priority: StreamPriority::for_algo(&spec.algo).unwrap(),
                ..StreamingConfig::default()
            };
            route_streaming_observed(&problem, &schedule, &cfg, &mut rng, &mut trace).stats
        }
        None => {
            let router = build_router(&spec.algo, &problem).unwrap();
            router.route(&problem, &mut rng, &mut trace).stats
        }
    };
    trace.events.push(TraceEvent::Stats((&stats).into()));
    let audited = stats
        .counters
        .get("invariant_violations")
        .copied()
        .unwrap_or(0);
    (trace, audited)
}

#[test]
fn envelope_sample_equals_the_full_analysis_on_the_fleet_ladder() {
    for seed in [1, 2] {
        for spec in [
            format!("bf:7/bitrev/busch/{seed}"),
            format!("bf:8/bitrev/busch/{seed}"),
            format!("mesh:8x8/transpose/busch/{seed}"),
            format!("bf:8/pairs:64/greedy/{seed}"),
            format!("bf:10/pairs:1000/ftg/{seed}/poisson:8"),
        ] {
            let spec = parse_run_spec(&spec).unwrap();
            let (trace, violations) = record(&spec);
            let analysis = analyze(&trace);
            assert!(analysis.instance.is_some(), "{}", spec.name());
            let want = FleetSample::from_trace(&trace, &analysis, violations).unwrap();
            assert_eq!(want.violations, 0, "{}", spec.name());
            assert_eq!(
                run_fleet_spec(&spec, false).unwrap(),
                want,
                "{}",
                spec.name()
            );
        }
    }
}
