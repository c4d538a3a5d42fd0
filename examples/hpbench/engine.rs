//! The three engine workloads. Each routes saturation random walks (one
//! packet on every non-final node of a butterfly) and times only the
//! router call:
//!
//! * `busch-bf14` — the paper's router on its default engine, audits on;
//! * `greedy-bf16` — uniform greedy in batch mode;
//! * `stream-bf16` — furthest-to-go streaming with open-loop Poisson
//!   arrivals through admission control.

use crate::common::{self, Check, Outcome};
use crate::spans::Recorder;
use baselines::GreedyRouter;
use busch_router::{BuschRouter, Params};
use hotpotato_sim::{
    route_streaming, AdmissionControl, RouteStats, SectionProfiler, StreamPriority, StreamingConfig,
};
use leveled_net::builders;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::workloads::{self, ArrivalProcess};
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Which router a workload drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// `busch-bf14`.
    Busch,
    /// `greedy-bf16`.
    Greedy,
    /// `stream-bf16`.
    Stream,
}

impl Engine {
    /// Butterfly dimension. Busch on bf(16) takes about 110 s per route,
    /// past any sensible run length, so bf(14) stands in for it.
    fn k(self) -> u32 {
        match self {
            Engine::Busch => 14,
            Engine::Greedy | Engine::Stream => 16,
        }
    }
}

/// The open-loop arrival rate of `stream-bf16`: a million packets over
/// about 1,024 steps.
const ARRIVALS: &str = "poisson:1024";

/// Admission bounds of `stream-bf16`: wide enough that nothing is
/// dropped, narrow enough that the deferred queue does real work.
const ADMISSION: AdmissionControl = AdmissionControl {
    max_in_flight: 16_384,
    max_deferred: 65_536,
};

/// A ready instance.
struct Instance {
    problem: Arc<RoutingProblem>,
    /// The rng after the workload (and arrival) draws; every repetition
    /// routes from a clone, so repetitions must agree exactly.
    rng: ChaCha8Rng,
    params: Option<Params>,
    /// Arrival step of each packet (streaming only).
    schedule: Vec<u64>,
    /// C + L, the Theorem 2.6 yardstick (L counted as levels, as the
    /// fleet rollup does).
    c_plus_l: u64,
}

fn setup(engine: Engine, seed: u64, rec: &mut Recorder) -> Instance {
    let net = rec.span("leveled_net.build", |_| {
        Arc::new(builders::butterfly(engine.k()))
    });
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let problem = rec.span("routing_core.workload", |_| {
        let sources = net
            .nodes()
            .filter(|&v| !net.fwd_edges(v).is_empty())
            .count();
        workloads::random_walks(&net, sources, &mut rng)
            .expect("every non-final node admits a walk")
    });
    let params = (engine == Engine::Busch)
        .then(|| rec.span("busch_router.params", |_| Params::auto(&problem)));
    let schedule = if engine == Engine::Stream {
        rec.span("routing_core.arrivals", |_| {
            let process = ArrivalProcess::parse(ARRIVALS).expect("fixed arrival grammar");
            process.schedule(problem.num_packets(), &mut rng)
        })
    } else {
        Vec::new()
    };
    let c_plus_l = u64::from(problem.congestion()) + net.num_levels() as u64;
    Instance {
        problem,
        rng,
        params,
        schedule,
        c_plus_l,
    }
}

/// One route's raw output.
struct Routed {
    stats: RouteStats,
    violations: u64,
    /// Busch's own move counter, checked against [`common::moves`].
    counted_moves: Option<u64>,
    /// `(peak in flight, peak deferred, drained)` of a stream.
    stream: Option<(usize, usize, bool)>,
    /// Per-layer counts taken at the route boundary.
    layers: Vec<(&'static str, f64)>,
}

fn route(engine: Engine, inst: &Instance, rec: &mut Recorder) -> Routed {
    let mut rng = inst.rng.clone();
    match engine {
        Engine::Busch => rec.span("busch_router.route", |rec| {
            let router = BuschRouter::new(inst.params.expect("busch instances carry params"));
            let mut layers = Vec::new();
            let out = if rec.is_on() {
                // The engine times its own sections when asked; each
                // section becomes a child of the route span.
                let mut profiler = SectionProfiler::new();
                let out = router.route_observed(&inst.problem, &mut rng, &mut profiler);
                for (section, nanos, _) in profiler.rows() {
                    rec.packed(section_span(section.name()), nanos);
                }
                // The engine skips idle stretches; only stepped steps
                // run the conflict section.
                let active = profiler.calls(hotpotato_sim::Section::Conflict) as f64;
                let steps = out.stats.steps_run as f64;
                rec.count("active_steps", active);
                rec.count("steps", steps);
                layers.push(("busch_router.active_step_frac", active / steps.max(1.0)));
                out
            } else {
                router.route(&inst.problem, &mut rng)
            };
            Routed {
                violations: out.invariants.total_violations(),
                counted_moves: Some(out.stats.counter("moves")),
                stats: out.stats,
                stream: None,
                layers,
            }
        }),
        Engine::Greedy => rec.span("baselines.greedy_route", |_| Routed {
            stats: GreedyRouter::new().route(&inst.problem, &mut rng).stats,
            violations: 0,
            counted_moves: None,
            stream: None,
            layers: Vec::new(),
        }),
        Engine::Stream => rec.span("hotpotato_sim.streaming_route", |_| {
            let cfg = StreamingConfig {
                admission: ADMISSION,
                priority: StreamPriority::FurthestToGo,
                ..StreamingConfig::default()
            };
            let out = route_streaming(&inst.problem, &inst.schedule, &cfg, &mut rng);
            Routed {
                stats: out.stats,
                violations: 0,
                counted_moves: None,
                stream: Some((out.peak_in_flight, out.peak_deferred, out.drained)),
                layers: Vec::new(),
            }
        }),
    }
}

/// The span name of a Busch engine section.
fn section_span(section: &str) -> &'static str {
    match section {
        "conflict" => "busch_router.conflict",
        "kinematics" => "busch_router.kinematics",
        "injection" => "busch_router.injection",
        "audit" => "busch_router.audit",
        _ => "busch_router.other_section",
    }
}

/// What one repetition leaves behind once condensed.
#[derive(Clone, Debug, PartialEq)]
struct Summary {
    moves: u64,
    counted_moves: Option<u64>,
    makespan_over_cl: f64,
    latency_p50: f64,
    latency_p99: f64,
    digest: u64,
    packets: u64,
    failed: u64,
    /// Per-layer counts (streaming admission).
    layers: Vec<(&'static str, f64)>,
}

fn summarize(inst: &Instance, r: Routed) -> Summary {
    let stats = &r.stats;
    let n = stats.num_packets() as u64;
    let undelivered = n - stats.delivered_count() as u64;
    // A repetition that broke an invariant fails every packet in it.
    let mut failed = if r.violations > 0 { n } else { undelivered };
    let mut layers = r.layers;
    if let Some((peak_in_flight, peak_deferred, drained)) = r.stream {
        let admitted = stats.injected_at.iter().flatten().count().max(1);
        let deferred = stats
            .injected_at
            .iter()
            .zip(&inst.schedule)
            .filter(|(inj, &due)| inj.is_some_and(|t| t > due))
            .count();
        layers.push((
            "hotpotato_sim.streaming_peak_in_flight",
            peak_in_flight as f64,
        ));
        layers.push((
            "hotpotato_sim.streaming_peak_deferred",
            peak_deferred as f64,
        ));
        layers.push((
            "hotpotato_sim.streaming_deferred_frac",
            deferred as f64 / admitted as f64,
        ));
        // Dropped packets are undelivered, so already failed; a stream
        // that never drained fails whole.
        if !drained {
            failed = n;
        }
    }
    let due = |i: usize| inst.schedule.get(i).copied().unwrap_or(0);
    let (latency_p50, latency_p99) = common::latency_p50_p99(&common::latencies(stats, due));
    Summary {
        moves: common::moves(stats),
        counted_moves: r.counted_moves,
        makespan_over_cl: stats.makespan().unwrap_or(0) as f64 / inst.c_plus_l as f64,
        latency_p50,
        latency_p99,
        digest: common::digest(stats.delivered_at.iter().map(|d| d.unwrap_or(u64::MAX))),
        packets: n,
        failed,
        layers,
    }
}

/// Runs one engine workload: `setups` set-ups, then repetitions for
/// `seconds`.
pub fn run(engine: Engine, seed: u64, setups: usize, seconds: f64, rec: &mut Recorder) -> Outcome {
    let (setup_s, reps) = common::drive(
        setups,
        seconds,
        rec,
        |rec| setup(engine, seed, rec),
        |inst, rec| route(engine, inst, rec),
        summarize,
    );
    let first = &reps[0].out;
    let mut out = Outcome {
        setup_s,
        rep_s: reps.iter().map(|r| r.secs).collect(),
        rep_peak_mb: reps.iter().map(|r| r.peak_mb).collect(),
        rep_moves: reps.iter().map(|r| r.out.moves).collect(),
        attempted: reps.iter().map(|r| r.out.packets).sum(),
        failed: reps.iter().map(|r| r.out.failed).sum(),
        layers: common::layers(
            &first.layers,
            first.latency_p50,
            first.latency_p99,
            first.makespan_over_cl,
        ),
        ..Outcome::default()
    };
    let summaries: Vec<&Summary> = reps.iter().map(|r| &r.out).collect();
    out.checks.push(Check::all_equal(
        "repetitions agree (moves, makespan, latency, digest)",
        &summaries,
    ));
    for s in &summaries {
        if let Some(counted) = s.counted_moves {
            out.checks
                .push(Check::eq("moves == busch moves counter", s.moves, counted));
        }
    }
    out
}
