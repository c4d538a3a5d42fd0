//! End-to-end service tests: the quiesce-consistency guarantees
//! (`/metrics` == final `RouteStats`, `/rollup` == the in-process
//! aggregator, byte-for-byte through the shared renderer) plus the HTTP
//! plumbing over a real ephemeral-port listener.

use hotpotato_sim::{route_streaming, StreamPriority, StreamingConfig};
use hotpotato_trace::{parse_rollup, StreamingAggregator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec::{parse_run_spec, parse_topo, parse_workload};
use serve::http::{http_get, HttpServer};
use serve::service::{build_router, into_handler};
use serve::{Request, RunConfig, Service};

const SPEC: &str = "butterfly:6/bitrev/busch/7";

fn get(service: &Service, path: &str) -> serve::Response {
    service.handle(&Request {
        method: "GET".into(),
        path: path.into(),
    })
}

/// Runs the same instance the service hosts, in-process, with the same
/// seed discipline; returns the final stats and aggregator.
fn reference_run(spec: &str, cap: usize) -> (hotpotato_sim::RouteStats, StreamingAggregator) {
    let run = parse_run_spec(spec).unwrap();
    let topo = parse_topo(&run.topo).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(run.seed);
    let problem = parse_workload(&run.workload, &topo, &mut rng).unwrap();
    let router = build_router(&run.algo, &problem).unwrap();
    let mut agg = StreamingAggregator::new(cap);
    let outcome = router.route(&problem, &mut rng, &mut agg);
    (outcome.stats, agg)
}

/// Extracts the value of a single-sample metric line
/// `name{run="<run>"...} value` from an exposition.
fn metric_value(text: &str, name: &str, labels: &str) -> f64 {
    let needle = format!("{name}{{{labels}}} ");
    let line = text
        .lines()
        .find(|l| l.starts_with(&needle))
        .unwrap_or_else(|| panic!("no sample '{needle}' in exposition:\n{text}"));
    line[needle.len()..].parse().unwrap()
}

#[test]
fn final_metrics_match_route_stats_exactly() {
    let run = parse_run_spec(SPEC).unwrap();
    let name = run.name();
    let mut service = Service::launch(vec![RunConfig::new(run)]).unwrap();
    service.wait();

    let (stats, _) = reference_run(SPEC, 64);
    let text = get(&service, "/metrics").body;
    let run_label = format!("run=\"{name}\"");
    assert_eq!(
        metric_value(&text, "hotpotato_steps_total", &run_label),
        stats.steps_run as f64,
    );
    assert_eq!(
        metric_value(&text, "hotpotato_deliveries_total", &run_label),
        stats.delivered_count() as f64,
    );
    let safe = metric_value(
        &text,
        "hotpotato_deflections_total",
        &format!("{run_label},kind=\"safe\""),
    );
    let unsafe_ = metric_value(
        &text,
        "hotpotato_deflections_total",
        &format!("{run_label},kind=\"unsafe\""),
    );
    assert_eq!(safe + unsafe_, stats.total_deflections() as f64);
    // The histogram's _sum is total deflections and its _count is the
    // packet population.
    assert_eq!(
        metric_value(&text, "hotpotato_deflections_per_packet_sum", &run_label),
        stats.total_deflections() as f64,
    );
    assert_eq!(
        metric_value(&text, "hotpotato_run_finished", &run_label),
        1.0
    );
    assert_eq!(
        metric_value(&text, "hotpotato_active_packets", &run_label),
        0.0
    );
}

#[test]
fn rollup_at_quiesce_equals_in_process_aggregator() {
    let run = parse_run_spec(SPEC).unwrap();
    let name = run.name();
    let mut service = Service::launch(vec![RunConfig::new(run)]).unwrap();
    service.wait();

    let (_, agg) = reference_run(SPEC, 64);
    let body = get(&service, &format!("/rollup/{name}")).body;
    let envelope = parse_rollup(&body).unwrap();
    assert_eq!(envelope.run, name);
    assert!(envelope.finished);
    // Same renderer, same state → identical JSON values, and identical
    // compact encodings.
    assert_eq!(envelope.rollup, agg.to_json());
    assert_eq!(
        envelope.rollup.to_compact_string(),
        agg.to_json().to_compact_string(),
    );
}

#[test]
fn mid_run_scrapes_are_well_formed() {
    // Throttle hard enough that the run is still in flight when we
    // scrape: butterfly:6 bitrev takes >= 64 steps and each step sleeps
    // 2ms, so the window is >= 100ms wide.
    let mut config = RunConfig::new(parse_run_spec(SPEC).unwrap());
    config.throttle_us = 2000;
    config.publish_every = 8;
    let name = config.spec.name();
    let mut service = Service::launch(vec![config]).unwrap();

    let mut saw_unfinished = false;
    for _ in 0..20 {
        let text = get(&service, "/metrics").body;
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.rsplit_once(' ').is_some(),
                "malformed exposition line: {line}"
            );
        }
        let rollup = parse_rollup(&get(&service, &format!("/rollup/{name}")).body).unwrap();
        if !rollup.finished {
            saw_unfinished = true;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(saw_unfinished, "every scrape saw the run already finished");
    service.wait();
    assert!(
        parse_rollup(&get(&service, &format!("/rollup/{name}")).body)
            .unwrap()
            .finished
    );
}

#[test]
fn endpoints_route_and_404() {
    let mut service = Service::launch(vec![RunConfig::new(parse_run_spec(SPEC).unwrap())]).unwrap();
    service.wait();

    assert_eq!(get(&service, "/healthz").status, 200);
    assert_eq!(get(&service, "/healthz").body, "ok\n");
    let runs = get(&service, "/runs");
    assert_eq!(runs.status, 200);
    assert!(runs.body.contains("\"algo\":\"busch\""), "{}", runs.body);
    assert!(runs.body.contains("\"finished\":true"), "{}", runs.body);
    assert_eq!(get(&service, "/rollup/nope").status, 404);
    assert_eq!(get(&service, "/wat").status, 404);
    // Query strings are ignored for routing.
    assert_eq!(get(&service, "/metrics?x=1").status, 200);
}

#[test]
fn serves_over_real_sockets() {
    let run = parse_run_spec(SPEC).unwrap();
    let name = run.name();
    let mut service = Service::launch(vec![RunConfig::new(run)]).unwrap();
    service.wait();
    let (stats, _) = reference_run(SPEC, 64);

    let server = HttpServer::bind("127.0.0.1:0").unwrap();
    let addr = server
        .serve_in_background(into_handler(service))
        .to_string();

    let (status, body) = http_get(&addr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, text) = http_get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        metric_value(&text, "hotpotato_steps_total", &format!("run=\"{name}\"")),
        stats.steps_run as f64,
    );
    let (status, body) = http_get(&addr, &format!("/rollup/{name}")).unwrap();
    assert_eq!(status, 200);
    assert!(parse_rollup(&body).unwrap().finished);
    let (status, _) = http_get(&addr, "/rollup/nope").unwrap();
    assert_eq!(status, 404);
}

#[test]
fn streaming_run_serves_admission_and_latency_families() {
    const STREAM_SPEC: &str = "butterfly:6/pairs:64/greedy/7/poisson:0.5";
    let run = parse_run_spec(STREAM_SPEC).unwrap();
    let name = run.name();
    let mut service = Service::launch(vec![RunConfig::new(run)]).unwrap();
    service.wait();

    // Reference: the same spec under the same rng discipline (schedule
    // drawn from the post-workload stream, routing continues from it).
    let run = parse_run_spec(STREAM_SPEC).unwrap();
    let (_topo, problem, mut rng) = run.instantiate().unwrap();
    let process = run.arrival_process().unwrap().unwrap();
    let schedule = process.schedule(problem.num_packets(), &mut rng);
    let cfg = StreamingConfig {
        priority: StreamPriority::for_algo(&run.algo).unwrap(),
        ..StreamingConfig::default()
    };
    let out = route_streaming(&problem, &schedule, &cfg, &mut rng);
    assert!(out.drained);

    let text = get(&service, "/metrics").body;
    let rl = format!("run=\"{name}\"");
    assert_eq!(
        metric_value(&text, "hotpotato_arrivals_total", &rl),
        out.arrivals as f64,
    );
    assert_eq!(
        metric_value(&text, "hotpotato_dropped_total", &rl),
        out.dropped as f64,
    );
    assert_eq!(
        metric_value(&text, "hotpotato_steps_total", &rl),
        out.stats.steps_run as f64,
    );
    assert_eq!(
        metric_value(&text, "hotpotato_deliveries_total", &rl),
        out.stats.delivered_count() as f64,
    );
    // Quiesced: nothing arrived-but-unresolved remains.
    assert_eq!(
        metric_value(&text, "hotpotato_injection_queue_depth", &rl),
        0.0
    );
    // The latency histogram counted every delivery, and the sliding
    // window percentiles are finite and ordered.
    assert_eq!(
        metric_value(&text, "hotpotato_delivery_latency_steps_count", &rl),
        out.stats.delivered_count() as f64,
    );
    let p = |q: &str| {
        metric_value(
            &text,
            "hotpotato_delivery_latency_window_steps",
            &format!("{rl},quantile=\"{q}\""),
        )
    };
    let (p50, p95, p99) = (p("0.5"), p("0.95"), p("0.99"));
    assert!(p50.is_finite() && p95.is_finite() && p99.is_finite());
    assert!(p50 <= p95 && p95 <= p99, "percentiles ordered");
    // Rollup quiesce consistency holds for streaming runs too, and the
    // /runs listing carries the arrival spec.
    assert!(
        parse_rollup(&get(&service, &format!("/rollup/{name}")).body)
            .unwrap()
            .finished
    );
    assert!(
        get(&service, "/runs").body.contains("poisson:0.5"),
        "{}",
        get(&service, "/runs").body
    );
}

#[test]
fn duplicate_and_invalid_specs_fail_launch() {
    let a = RunConfig::new(parse_run_spec(SPEC).unwrap());
    let b = RunConfig::new(parse_run_spec(SPEC).unwrap());
    let Err(e) = Service::launch(vec![a, b]) else {
        panic!("duplicate specs launched")
    };
    assert!(e.contains("duplicate"), "{e}");
    assert!(Service::launch(vec![]).is_err());
    // An unknown algorithm no longer reaches launch: parse_run_spec
    // validates against the known set up front.
    let Err(e) = parse_run_spec("butterfly:4/bitrev/zigzag") else {
        panic!("bad algo parsed")
    };
    assert!(e.contains("unknown algorithm"), "{e}");
    assert!(parse_run_spec("nope").is_err());
}

#[test]
fn two_runs_render_in_deterministic_sorted_order() {
    let configs = vec![
        RunConfig::new(parse_run_spec("butterfly:4/bitrev/sf/3").unwrap()),
        RunConfig::new(parse_run_spec("butterfly:4/bitrev/greedy/3").unwrap()),
    ];
    let mut service = Service::launch(configs).unwrap();
    service.wait();
    let names: Vec<String> = service
        .run_names()
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let mut sorted = names.clone();
    sorted.sort();
    assert_eq!(names, sorted);
    // Two scrapes of the quiesced service are byte-identical.
    assert_eq!(
        get(&service, "/metrics").body,
        get(&service, "/metrics").body
    );
}
