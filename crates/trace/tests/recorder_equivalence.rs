//! A `Trace` routed into as an observer must hold exactly the events
//! that recording JSONL through `JsonlTraceObserver::with_snapshots`
//! and parsing it back yields, less the `snapshot` checkpoints the
//! recorder leaves out. Each case runs one seeded run twice, once per
//! recorder, and also verifies both traces: the parsed one still
//! carries snapshots, so the snapshot-consistency law stays audited on
//! batch greedy, ftg, sfrank and streaming traces.

use hotpotato_sim::{
    AdmissionControl, JsonlTraceObserver, RouteObserver, RouteStats, StreamingConfig,
};
use hotpotato_trace::{schema, verify_trace, Trace, TraceEvent, VerifyReport};
use routing_core::spec::{parse_run_spec, KNOWN_ALGOS};
use serve::service::RunPlan;

/// Runs `spec` from its seed into `make(problem)`'s observer and
/// returns the observer with the run's statistics. Streaming specs run
/// under `admission`.
fn run<O: RouteObserver>(
    spec: &str,
    admission: AdmissionControl,
    make: impl FnOnce(&routing_core::RoutingProblem) -> O,
) -> (schema::Meta, O, RouteStats) {
    let spec = parse_run_spec(spec).unwrap();
    let (_, problem, mut rng) = spec.instantiate().unwrap();
    let mut obs = make(&problem);
    let plan = RunPlan::new(
        &spec,
        &problem,
        admission,
        StreamingConfig::default().max_steps,
    )
    .unwrap();
    let stats = plan.route(&problem, &mut rng, &mut obs).into_stats();
    (schema::Meta::new(&spec, &problem), obs, stats)
}

/// The counters of a verification, everything but the timelines.
fn counters(r: &VerifyReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.packets, r.steps, r.moves, r.forward, r.backward),
        (r.delivered, r.trivial, r.deflections, r.oscillations),
        (r.replay_cross_checked, r.model),
    )
}

/// Records `spec` both ways and checks the two traces agree. Returns
/// the recorded trace for case-specific checks.
fn check(spec: &str, admission: AdmissionControl) -> Trace {
    let (meta, obs, stats) = run(spec, admission, |problem| {
        JsonlTraceObserver::with_snapshots(Vec::new(), problem)
    });
    let body = String::from_utf8(obs.finish().unwrap()).unwrap();
    let text = format!(
        "{}\n{body}{}\n",
        schema::meta_line(&meta),
        schema::stats_line(&stats)
    );
    let parsed = Trace::parse(&text).unwrap();

    let (_, mut recorded, stats) = run(spec, admission, |_| Trace {
        events: vec![TraceEvent::Meta(Box::new(meta))],
    });
    recorded
        .events
        .push(TraceEvent::Stats(Box::new((&stats).into())));

    let without_snapshots: Vec<&TraceEvent> = parsed
        .events
        .iter()
        .filter(|ev| !matches!(ev, TraceEvent::Snapshot(_)))
        .collect();
    assert_eq!(
        recorded.events.iter().collect::<Vec<_>>(),
        without_snapshots,
        "{spec}"
    );

    let from_text = verify_trace(&parsed).unwrap_or_else(|e| panic!("{spec}: {e}"));
    let from_events = verify_trace(&recorded).unwrap_or_else(|e| panic!("{spec}: {e}"));
    assert_eq!(counters(&from_text), counters(&from_events), "{spec}");
    assert_eq!(from_text.timelines, from_events.timelines, "{spec}");
    recorded
}

#[test]
fn every_algorithm_records_the_parsed_events() {
    for algo in KNOWN_ALGOS {
        check(
            &format!("bf:5/bitrev/{algo}/3"),
            AdmissionControl::default(),
        );
    }
    let mesh = check("mesh:6x6/transpose/busch/5", AdmissionControl::default());
    assert!(
        mesh.events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Congestion { .. })),
        "Busch emits its schedule events"
    );
}

#[test]
fn a_stream_that_drops_records_the_parsed_events() {
    let tight = AdmissionControl {
        max_in_flight: 8,
        max_deferred: 16,
    };
    let trace = check("bf:6/pairs:192/ftg/3/poisson:8", tight);
    assert!(
        trace
            .events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Drop { .. })),
        "tight admission must drop packets"
    );
}

#[test]
fn an_adversarial_stream_records_the_parsed_events() {
    let trace = check(
        "bf:5/bitrev/greedy/2/adversarial:4:8",
        AdmissionControl::default(),
    );
    assert!(trace
        .events
        .iter()
        .any(|ev| matches!(ev, TraceEvent::Arrival { .. })));
}
