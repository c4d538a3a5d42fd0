//! Golden-equivalence tests: fixed seeds must produce bit-identical run
//! records across engine refactors.
//!
//! The engine's hot path is optimization territory (arena arrivals,
//! maintained occupied lists, scratch-based conflict resolution), but the
//! *semantics* — which packet crosses which edge at which step — must not
//! drift: iteration order feeds the tie-breaking RNG, so any accidental
//! reordering silently changes every downstream experiment. These tests
//! pin full runs against committed golden records: Busch on a butterfly
//! and a mesh, and every greedy-family driver (uniform, furthest-to-go,
//! aging and fixed-rank batch greedy, and the streaming loop).
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! HOTPOTATO_BLESS=1 cargo test --test golden_equivalence
//! ```

use busch_router::{BuschConfig, BuschRouter, Params};
use hotpotato_sim::{ExitKind, RouteObserver, RouteStats, RunRecord, StepReport};
use leveled_net::builders::{self, ButterflyCoords, MeshCorner};
use leveled_net::Direction;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::workloads;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Canonical, line-oriented text encoding of a run: stable across
/// platforms, readable in diffs, independent of serde details.
fn encode(stats: &RouteStats, record: &RunRecord) -> String {
    let mut out = String::new();
    writeln!(out, "# golden run record v1").unwrap();
    writeln!(
        out,
        "stats steps={} delivered={} makespan={} deflections={}",
        stats.steps_run,
        stats.delivered_count(),
        stats.makespan().unwrap_or(0),
        stats.total_deflections(),
    )
    .unwrap();
    for tv in &record.trivial {
        writeln!(out, "trivial t={} pkt={}", tv.time, tv.pkt.0).unwrap();
    }
    for ev in &record.moves {
        let dir = match ev.mv.dir {
            Direction::Forward => "F",
            Direction::Backward => "B",
        };
        let kind = match ev.kind {
            ExitKind::Advance => "adv",
            ExitKind::Deflect { safe: true } => "def-safe",
            ExitKind::Deflect { safe: false } => "def-free",
            ExitKind::Oscillate => "osc",
            ExitKind::Inject => "inj",
        };
        writeln!(
            out,
            "move t={} pkt={} edge={} dir={dir} kind={kind}",
            ev.time, ev.pkt.0, ev.mv.edge.0
        )
        .unwrap();
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

/// Compares the encoded run against the committed golden file; with
/// `HOTPOTATO_BLESS=1`, rewrites the golden instead.
fn check_golden(name: &str, stats: &RouteStats, record: &RunRecord) {
    check_encoded(name, &encode(stats, record));
}

/// Compares `encoded` against the committed golden file `name`; with
/// `HOTPOTATO_BLESS=1`, rewrites the golden instead.
fn check_encoded(name: &str, encoded: &str) {
    let path = golden_path(name);
    if std::env::var("HOTPOTATO_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, encoded).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless with HOTPOTATO_BLESS=1"));
    if encoded != want {
        // Locate the first diverging line for a readable failure.
        let first_diff = encoded
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| encoded.lines().count().min(want.lines().count()));
        panic!(
            "run diverged from golden {name} at line {} \
             (got {:?}, want {:?}); if the change is intentional, \
             re-bless with HOTPOTATO_BLESS=1",
            first_diff + 1,
            encoded.lines().nth(first_diff),
            want.lines().nth(first_diff),
        );
    }
}

/// Busch router on a butterfly(4) random-pairs instance: exercises
/// injections, conflicts, safe/free deflections, and wait oscillations.
#[test]
fn busch_butterfly_matches_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::random_pairs(&net, 14, &mut rng).unwrap();
    let router = BuschRouter::new(Params::scaled(4, 16, 0.15, 2));
    let mut record = RunRecord::default();
    let out = router.route_observed(&prob, &mut rng, &mut record);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    check_golden("busch_butterfly4.txt", &out.stats, &record);
}

/// Busch router on the §5 mesh-transpose instance (C = D = n - 1):
/// deterministic workload, randomized set assignment and tie-breaks.
#[test]
fn busch_mesh_matches_golden() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF);
    let (raw, coords) = builders::mesh(6, 6, MeshCorner::TopLeft);
    let net = Arc::new(raw);
    let prob = workloads::mesh_transpose(&net, &coords).unwrap();
    let router = BuschRouter::new(Params::auto(&prob));
    let mut record = RunRecord::default();
    let out = router.route_observed(&prob, &mut rng, &mut record);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    check_golden("busch_mesh6.txt", &out.stats, &record);
}

/// The bf(5) bit-reversal instance the batch greedy-family goldens share.
fn bitrev5() -> Arc<routing_core::RoutingProblem> {
    let net = Arc::new(builders::butterfly(5));
    workloads::butterfly_bit_reversal(&net, &ButterflyCoords { k: 5 })
}

/// A 16-packet funnel on `complete_leveled(8, 4)`: packets of different
/// remaining distance and deflection count meet, so the ftg and aging
/// rules decide conflicts that uniform greedy leaves to the rng (on
/// bit reversal every contender ties under all three rules).
fn funnel8() -> Arc<routing_core::RoutingProblem> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED);
    let net = Arc::new(builders::complete_leveled(8, 4));
    workloads::funnel(&net, 16, &mut rng).unwrap()
}

/// Routes `prob` with a greedy-family batch router from a fixed seed,
/// recording its moves, and pins the run against the golden `name`.
fn check_greedy(
    name: &str,
    prob: &Arc<routing_core::RoutingProblem>,
    route: impl FnOnce(
        &Arc<routing_core::RoutingProblem>,
        &mut ChaCha8Rng,
        &mut RunRecord,
    ) -> baselines::GreedyOutcome,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED);
    let mut record = RunRecord::default();
    let out = route(prob, &mut rng, &mut record);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    check_golden(name, &out.stats, &record);
}

/// A recorded greedy run under `priority`.
fn greedy(
    priority: hotpotato_sim::StreamPriority,
) -> impl FnOnce(
    &Arc<routing_core::RoutingProblem>,
    &mut ChaCha8Rng,
    &mut RunRecord,
) -> baselines::GreedyOutcome {
    move |prob, rng, record| {
        let cfg = baselines::GreedyConfig {
            priority,
            ..Default::default()
        };
        baselines::GreedyRouter::with_config(cfg).route_observed(prob, rng, record)
    }
}

/// Greedy router on a butterfly bit-reversal: covers the baseline loop's
/// rng consumption and conflict ordering too.
#[test]
fn greedy_bit_reversal_matches_golden() {
    use hotpotato_sim::StreamPriority::{Aging, FurthestToGo, Uniform};
    check_greedy("greedy_bitrev5.txt", &bitrev5(), greedy(Uniform));
    check_greedy("greedy_ftg_bitrev5.txt", &bitrev5(), greedy(FurthestToGo));
    check_greedy("greedy_aging_bitrev5.txt", &bitrev5(), greedy(Aging));
}

/// Furthest-to-go and aging greedy where their priorities decide
/// conflicts.
#[test]
fn greedy_priorities_on_funnel_match_goldens() {
    use hotpotato_sim::StreamPriority::{Aging, FurthestToGo};
    check_greedy("greedy_ftg_funnel8.txt", &funnel8(), greedy(FurthestToGo));
    check_greedy("greedy_aging_funnel8.txt", &funnel8(), greedy(Aging));
}

/// Fixed-random-rank greedy: pins the rank shuffle's rng draws and the
/// rank priority.
#[test]
fn rank_bit_reversal_matches_golden() {
    check_greedy("rank_bitrev5.txt", &bitrev5(), |prob, rng, record| {
        baselines::RandomPriorityRouter::new().route_observed(prob, rng, record)
    });
}

/// Furthest-to-go streaming under Poisson arrivals with a tight in-flight
/// cap: pins arrival intake, deferred injection and the in-network step.
#[test]
fn streaming_ftg_poisson_matches_golden() {
    use hotpotato_sim::{AdmissionControl, StreamPriority, StreamingConfig};
    use routing_core::workloads::ArrivalProcess;

    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let net = Arc::new(builders::butterfly(5));
    let prob = workloads::random_pairs(&net, 128, &mut rng).unwrap();
    let schedule = ArrivalProcess::Poisson { rate: 8.0 }.schedule(prob.num_packets(), &mut rng);
    let cfg = StreamingConfig {
        admission: AdmissionControl {
            max_in_flight: 64,
            max_deferred: 64,
        },
        priority: StreamPriority::FurthestToGo,
        ..StreamingConfig::default()
    };
    let mut record = RunRecord::default();
    let out =
        hotpotato_sim::route_streaming_observed(&prob, &schedule, &cfg, &mut rng, &mut record);
    assert!(out.drained, "golden stream must drain");
    assert!(out.stats.all_delivered(), "golden stream must deliver");
    check_golden("stream_ftg_poisson5.txt", &out.stats, &record);
}

/// Attaching observers must not change routing by a single bit: the same
/// seeded run with a `MetricsObserver`, a live `Analyzer` and a
/// `JsonlTraceObserver` feeding off every event must reproduce the
/// committed golden exactly.
#[test]
fn observed_run_matches_unobserved_golden() {
    use hotpotato_sim::{JsonlTraceObserver, MetricsObserver};
    use hotpotato_trace::{verify::VerifiedInstance, Analyzer};

    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let net = Arc::new(builders::butterfly(4));
    let prob = workloads::random_pairs(&net, 14, &mut rng).unwrap();
    let router = BuschRouter::new(Params::scaled(4, 16, 0.15, 2));
    let mut observer = (
        (
            (
                MetricsObserver::new(&prob),
                Analyzer::new(Some(VerifiedInstance::of(&prob))),
            ),
            JsonlTraceObserver::new(Vec::new()),
        ),
        RunRecord::default(),
    );
    let out = router.route_observed(&prob, &mut rng, &mut observer);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    let (((metrics, analyzer), trace), record) = observer;
    check_golden("busch_butterfly4.txt", &out.stats, &record);

    // The sinks really observed the run they did not perturb.
    assert_eq!(metrics.packets(), prob.num_packets());
    let hist: u64 = analyzer
        .finish()
        .deflection_histogram()
        .iter()
        .map(|&(d, c)| u64::from(d) * u64::from(c))
        .sum();
    assert_eq!(hist, out.stats.total_deflections(), "histogram mass");
    let jsonl = String::from_utf8(trace.finish().expect("no io errors")).unwrap();
    assert_eq!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"ev\":\"deliver\""))
            .count(),
        out.stats.delivered_count(),
        "one deliver event per delivered packet"
    );
    for line in jsonl.lines() {
        serde_json::from_str(line).expect("trace lines are valid JSON");
    }
}

// ---------------------------------------------------------------------
// Outcome goldens: everything a run reports, not just its moves.
// ---------------------------------------------------------------------

/// 64-bit FNV-1a: a dependency-free digest for pinning byte streams.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Writes `key:` followed by `values`, 32 to a line, so a divergence
/// shows up as a short diff near the packet or step that moved.
fn write_array(out: &mut String, key: &str, values: impl IntoIterator<Item = String>) {
    writeln!(out, "{key}:").unwrap();
    let values: Vec<String> = values.into_iter().collect();
    for chunk in values.chunks(32) {
        writeln!(out, "  {}", chunk.join(" ")).unwrap();
    }
}

/// Canonical text encoding of an outcome: every `RouteStats` array and
/// counter, the driver-specific `extra` lines, and the length and
/// FNV-1a-64 digest of the run's JSONL trace stream. The active-count
/// series, when given, is run-length encoded (`value*count`): Busch runs
/// idle for long stretches between phases.
fn encode_outcome(
    stats: &RouteStats,
    active: Option<&[u32]>,
    extra: &[String],
    trace: &[u8],
) -> String {
    let opt = |t: &Option<u64>| t.map_or_else(|| "-".to_string(), |t| t.to_string());
    let mut out = String::new();
    writeln!(out, "# golden outcome v2").unwrap();
    writeln!(out, "steps_run={}", stats.steps_run).unwrap();
    for (k, v) in &stats.counters {
        writeln!(out, "counter {k}={v}").unwrap();
    }
    for line in extra {
        writeln!(out, "{line}").unwrap();
    }
    write_array(&mut out, "injected_at", stats.injected_at.iter().map(opt));
    write_array(&mut out, "delivered_at", stats.delivered_at.iter().map(opt));
    write_array(
        &mut out,
        "deflections",
        stats.deflections.iter().map(u32::to_string),
    );
    write_array(
        &mut out,
        "max_deviation",
        stats.max_deviation.iter().map(u32::to_string),
    );
    match active {
        None => writeln!(out, "active_trace: none").unwrap(),
        Some(trace) => {
            let mut runs: Vec<(u32, usize)> = Vec::new();
            for &v in trace {
                match runs.last_mut() {
                    Some((last, n)) if *last == v => *n += 1,
                    _ => runs.push((v, 1)),
                }
            }
            write_array(
                &mut out,
                "active_trace",
                runs.iter().map(|(v, n)| format!("{v}*{n}")),
            );
        }
    }
    writeln!(
        out,
        "jsonl bytes={} fnv1a64={:016x}",
        trace.len(),
        fnv1a64(trace)
    )
    .unwrap();
    out
}

/// The in-flight count after every step, as `on_step_end` reports it.
#[derive(Default)]
struct ActiveSeries(Vec<u32>);

impl RouteObserver for ActiveSeries {
    fn on_step_end(&mut self, _t: u64, _report: &StepReport, active: usize) {
        self.0.push(active as u32);
    }
}

/// A Busch run observed by a JSONL sink and an active-count series.
fn busch_traced(
    problem: &Arc<routing_core::RoutingProblem>,
    seed: u64,
) -> (busch_router::BuschOutcome, Vec<u8>, Vec<u32>) {
    let router = BuschRouter::with_config(BuschConfig::new(Params::auto(problem)));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sinks = (
        hotpotato_sim::JsonlTraceObserver::new(Vec::new()),
        ActiveSeries::default(),
    );
    let out = router.route_observed(problem, &mut rng, &mut sinks);
    let (jsonl, active) = sinks;
    (out, jsonl.finish().expect("no io errors"), active.0)
}

/// Pins a traced Busch run's full outcome against golden `name`.
fn check_busch_outcome(name: &str, topo: &str, workload: &str, seed: u64) {
    let (_, problem) = routing_core::spec::reconstruct_problem(topo, workload, 42).unwrap();
    let (out, trace, active) = busch_traced(&problem, seed);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    let inv = &out.invariants;
    let extra = vec![
        format!("phases_elapsed={}", out.phases_elapsed),
        format!(
            "invariants isolation={} unsafe={} paths={} escapes={} cross_set={} \
             congestion={} rear={} checks={}",
            inv.isolation_violations,
            inv.unsafe_deflections,
            inv.invalid_current_paths,
            inv.frame_escapes,
            inv.cross_set_meetings,
            inv.congestion_exceeded,
            inv.rear_levels_occupied,
            inv.phase_checks,
        ),
        format!(
            "set_assignment {}",
            out.set_assignment
                .iter()
                .map(u32::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    check_encoded(
        name,
        &encode_outcome(&out.stats, Some(&active), &extra, &trace),
    );
}

/// Busch on butterfly(10) bit reversal: ~1k packets, heavy conflicts,
/// both deflection kinds and wait oscillation.
#[test]
fn busch_butterfly10_outcome_matches_golden() {
    check_busch_outcome("outcome_busch_bf10_bitrev.txt", "butterfly:10", "bitrev", 7);
}

/// Busch on the §5 mesh application: 8×8 transpose.
#[test]
fn busch_mesh8_outcome_matches_golden() {
    check_busch_outcome(
        "outcome_busch_mesh8_transpose.txt",
        "mesh:8x8",
        "transpose",
        11,
    );
}

/// The traced bf(10) Busch run passes the offline verifier: wrap the
/// events in the meta/stats envelope the CLI writes and re-run the
/// whole stream against the model from scratch.
#[test]
fn busch_butterfly10_trace_verifies_offline() {
    use hotpotato_trace::schema::{self, Trace};
    let (topo, problem) =
        routing_core::spec::reconstruct_problem("butterfly:10", "bitrev", 42).unwrap();
    let (out, events, _) = busch_traced(&problem, 7);
    let meta = schema::Meta {
        schema: schema::SCHEMA_VERSION,
        topo: "butterfly:10".into(),
        workload: "bitrev".into(),
        algo: "busch".into(),
        seed: 42,
        arrival: String::new(),
        packets: problem.num_packets() as u64,
        levels: topo.net.num_levels() as u64,
        congestion: u64::from(problem.congestion()),
        dilation: u64::from(problem.dilation()),
    };
    let mut text = schema::meta_line(&meta);
    text.push('\n');
    text.push_str(std::str::from_utf8(&events).unwrap());
    text.push_str(&schema::stats_line(&out.stats));
    text.push('\n');
    let trace = Trace::parse(&text).expect("trace parses");
    let report = hotpotato_trace::verify::verify_trace(&trace).expect("trace verifies clean");
    assert_eq!(report.delivered, problem.num_packets());
    assert!(report.replay_cross_checked);
}

/// Pins a JSONL-observed greedy-family batch run on bf(5) bit reversal.
fn check_greedy_outcome(
    name: &str,
    route: impl FnOnce(
        &Arc<routing_core::RoutingProblem>,
        &mut ChaCha8Rng,
        &mut hotpotato_sim::JsonlTraceObserver<Vec<u8>>,
    ) -> baselines::GreedyOutcome,
) {
    let prob = bitrev5();
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEED);
    let mut sink = hotpotato_sim::JsonlTraceObserver::new(Vec::new());
    let out = route(&prob, &mut rng, &mut sink);
    assert!(out.stats.all_delivered(), "golden run must deliver");
    let trace = sink.finish().expect("no io errors");
    check_encoded(name, &encode_outcome(&out.stats, None, &[], &trace));
}

/// Uniform, furthest-to-go, aging and fixed-rank greedy on bf(5) bit
/// reversal, observed.
#[test]
fn greedy_family_outcomes_match_goldens() {
    use hotpotato_sim::StreamPriority::{self, Aging, FurthestToGo, Uniform};
    let rule = |priority: StreamPriority| {
        move |prob: &Arc<routing_core::RoutingProblem>,
              rng: &mut ChaCha8Rng,
              sink: &mut hotpotato_sim::JsonlTraceObserver<Vec<u8>>| {
            let cfg = baselines::GreedyConfig {
                priority,
                ..Default::default()
            };
            baselines::GreedyRouter::with_config(cfg).route_observed(prob, rng, sink)
        }
    };
    check_greedy_outcome("outcome_greedy_bitrev5.txt", rule(Uniform));
    check_greedy_outcome("outcome_greedy_ftg_bitrev5.txt", rule(FurthestToGo));
    check_greedy_outcome("outcome_greedy_aging_bitrev5.txt", rule(Aging));
    check_greedy_outcome("outcome_rank_bitrev5.txt", |prob, rng, sink| {
        baselines::RandomPriorityRouter::new().route_observed(prob, rng, sink)
    });
}

/// Pins a JSONL-observed streaming run on 128 random pairs in bf(5).
fn check_stream_outcome(
    name: &str,
    arrival: routing_core::workloads::ArrivalProcess,
    cfg: hotpotato_sim::StreamingConfig,
) -> hotpotato_sim::StreamingOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let net = Arc::new(builders::butterfly(5));
    let prob = workloads::random_pairs(&net, 128, &mut rng).unwrap();
    let schedule = arrival.schedule(prob.num_packets(), &mut rng);
    let mut sink = hotpotato_sim::JsonlTraceObserver::new(Vec::new());
    let out = hotpotato_sim::route_streaming_observed(&prob, &schedule, &cfg, &mut rng, &mut sink);
    assert!(out.drained, "golden stream must drain");
    let trace = sink.finish().expect("no io errors");
    let extra = vec![format!(
        "stream arrivals={} admitted={} dropped={} peak_deferred={} peak_in_flight={}",
        out.arrivals, out.admitted, out.dropped, out.peak_deferred, out.peak_in_flight
    )];
    check_encoded(name, &encode_outcome(&out.stats, None, &extra, &trace));
    out
}

/// The furthest-to-go Poisson stream of `streaming_ftg_poisson_matches_golden`,
/// observed.
#[test]
fn streaming_ftg_poisson_outcome_matches_golden() {
    use hotpotato_sim::{AdmissionControl, StreamPriority, StreamingConfig};
    let cfg = StreamingConfig {
        admission: AdmissionControl {
            max_in_flight: 64,
            max_deferred: 64,
        },
        priority: StreamPriority::FurthestToGo,
        ..StreamingConfig::default()
    };
    let arrival = workloads::ArrivalProcess::Poisson { rate: 8.0 };
    let out = check_stream_outcome("outcome_stream_ftg_poisson5.txt", arrival, cfg);
    assert_eq!(out.dropped, 0);
}

/// Uniform greedy streaming under bursts that overflow a tight deferred
/// queue: pins the drop path alongside deferral and the in-network step.
#[test]
fn streaming_greedy_burst_drops_match_golden() {
    use hotpotato_sim::{AdmissionControl, StreamPriority, StreamingConfig};
    let cfg = StreamingConfig {
        admission: AdmissionControl {
            max_in_flight: 64,
            max_deferred: 8,
        },
        priority: StreamPriority::Uniform,
        ..StreamingConfig::default()
    };
    let arrival = workloads::ArrivalProcess::Bursts {
        size: 16,
        period: 1,
    };
    let out = check_stream_outcome("outcome_stream_greedy_burst5.txt", arrival, cfg);
    assert!(out.dropped > 0, "the burst stream must drop packets");
    assert!(out.stats.total_deflections() > 0, "and deflect some");
    assert_eq!(out.admitted + out.dropped, out.arrivals);
}
