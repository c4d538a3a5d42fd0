//! `trace-bf11`: one Busch bit-reversal run on bf(11) through the whole
//! trace pipeline — record JSONL with snapshots, parse it, encode it to
//! `.hpt`, decode that, verify the decoded trace on two shards, and
//! analyze it. The trace layers do almost all the work; the engine does
//! under 2% of it.

use crate::common::{self, Check, Outcome};
use crate::spans::{self, Recorder};
use busch_router::{BuschRouter, Params};
use hotpotato_sim::JsonlTraceObserver;
use hotpotato_trace::{
    analyze, decode_trace, encode_trace, parse_jsonl_parallel, schema, verify,
    verify_trace_sharded, ShardOptions,
};
use leveled_net::builders::{self, ButterflyCoords};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::workloads;
use routing_core::RoutingProblem;
use std::io::Write as _;
use std::sync::Arc;

/// Butterfly dimension: about two million trace events.
const K: u32 = 11;

/// Threads for parsing and verification (the machine budget).
const JOBS: usize = 2;

struct Instance {
    problem: Arc<RoutingProblem>,
    params: Params,
    rng: ChaCha8Rng,
    meta: schema::Meta,
    c_plus_l: u64,
    /// Traced run only: a plain route and an instance reconstruction,
    /// timed before the traced pass. They become children of the
    /// observed-route and verify spans, whose self time is then the
    /// observer's and the verifier's own.
    plain_route_ns: u64,
    reconstruct_ns: u64,
}

fn setup(seed: u64, rec: &mut Recorder) -> Instance {
    let net = rec.span("leveled_net.build", |_| Arc::new(builders::butterfly(K)));
    let problem = rec.span("routing_core.workload", |_| {
        workloads::butterfly_bit_reversal(&net, &ButterflyCoords { k: K })
    });
    let params = rec.span("busch_router.params", |_| Params::auto(&problem));
    let meta = schema::Meta {
        schema: schema::SCHEMA_VERSION,
        topo: format!("bf:{K}"),
        workload: "bitrev".to_string(),
        algo: "busch".to_string(),
        seed,
        arrival: String::new(),
        packets: problem.num_packets() as u64,
        levels: net.num_levels() as u64,
        congestion: u64::from(problem.congestion()),
        dilation: u64::from(problem.dilation()),
    };
    Instance {
        c_plus_l: meta.congestion + meta.levels,
        problem,
        params,
        // Bit reversal draws nothing, so this is also the rng state
        // `RunSpec::instantiate` would hand the router.
        rng: ChaCha8Rng::seed_from_u64(seed),
        meta,
        plain_route_ns: 0,
        reconstruct_ns: 0,
    }
}

/// The facts two passes over the same instance must agree on.
#[derive(Clone, Debug, PartialEq)]
struct Facts {
    events: usize,
    jsonl_bytes: usize,
    hpt_bytes: usize,
    moves: u64,
    makespan: u64,
    latency_digest: u64,
}

struct Pass {
    facts: Facts,
    c_plus_l: u64,
    counted_moves: u64,
    analyzed_moves: u64,
    steps_run: u64,
    verified_steps: Option<u64>,
    decoded_matches: bool,
    failed: bool,
    errors: Vec<String>,
    latency: (f64, f64),
    layers: Vec<(&'static str, f64)>,
}

fn pass(inst: &Instance, rec: &mut Recorder) -> Pass {
    let mut rng = inst.rng.clone();
    let (text, out) = rec.span("hotpotato_sim.observe_jsonl", |rec| {
        let mut buf: Vec<u8> = Vec::new();
        writeln!(buf, "{}", schema::meta_line(&inst.meta)).expect("vec sink");
        let mut obs = JsonlTraceObserver::with_snapshots(buf, &inst.problem);
        let out = BuschRouter::new(inst.params).route_observed(&inst.problem, &mut rng, &mut obs);
        let mut buf = obs.finish().expect("vec sink");
        writeln!(buf, "{}", schema::stats_line(&out.stats)).expect("vec sink");
        rec.packed("busch_router.route", inst.plain_route_ns);
        rec.count("bytes", buf.len() as f64);
        (
            String::from_utf8(buf).expect("the recorder writes UTF-8"),
            out,
        )
    });
    let stats = out.stats;
    let latency = common::latency_p50_p99(&common::latencies(&stats, |_| 0));
    let mut p = Pass {
        facts: Facts {
            events: 0,
            jsonl_bytes: text.len(),
            hpt_bytes: 0,
            moves: common::moves(&stats),
            makespan: stats.makespan().unwrap_or(0),
            latency_digest: common::digest(
                stats.delivered_at.iter().map(|d| d.unwrap_or(u64::MAX)),
            ),
        },
        c_plus_l: inst.c_plus_l,
        counted_moves: stats.counter("moves"),
        analyzed_moves: 0,
        steps_run: stats.steps_run,
        verified_steps: None,
        decoded_matches: false,
        failed: !stats.all_delivered() || !out.invariants.is_clean(),
        errors: Vec::new(),
        latency,
        layers: vec![("trace.jsonl_bytes", text.len() as f64)],
    };

    // Stage peaks are taken in the traced run only: resetting the peak
    // in the untraced run would hide the workload's own peak.
    let traced = rec.is_on();
    if traced {
        spans::reset_peak_rss();
    }
    let parsed = rec.span("trace.schema.parse", |rec| {
        let parsed = parse_jsonl_parallel(&text, JOBS);
        rec.count("bytes", text.len() as f64);
        parsed
    });
    p.layers
        .push(("trace.schema.peak_rss_mb", spans::peak_rss_mb()));
    drop(text);
    let parsed = match parsed {
        Ok(t) => t,
        Err(e) => return p.error(format!("parse: {e}")),
    };
    p.facts.events = parsed.events.len();
    p.layers.push(("trace.events", parsed.events.len() as f64));
    let parsed_stats = parsed.stats().cloned();
    let hpt = rec.span("trace.binary.encode", |_| encode_trace(&parsed));
    drop(parsed);
    p.facts.hpt_bytes = hpt.len();
    p.layers.push(("trace.binary.hpt_bytes", hpt.len() as f64));
    let decoded = match rec.span("trace.binary.decode", |_| decode_trace(&hpt)) {
        Ok(t) => t,
        Err(e) => return p.error(format!("decode: {e}")),
    };
    drop(hpt);
    p.decoded_matches =
        decoded.events.len() == p.facts.events && decoded.stats() == parsed_stats.as_ref();
    let trace = Arc::new(decoded);

    if traced {
        spans::reset_peak_rss();
    }
    let opts = ShardOptions {
        jobs: JOBS,
        ..ShardOptions::default()
    };
    let (verify_ns, verified) = rec.span("trace.verify.verify", |rec| {
        rec.packed("trace.verify.reconstruct", inst.reconstruct_ns);
        common::timed_ns(|| verify_trace_sharded(&trace, &opts))
    });
    p.layers
        .push(("trace.verify.peak_rss_mb", spans::peak_rss_mb()));
    match verified {
        Ok(run) => {
            p.verified_steps = Some(run.report.steps);
            let capacity = verify_ns as f64 / 1e9 * run.jobs.max(1) as f64;
            p.layers.push(("trace.verify.shards", run.shards as f64));
            p.layers.push((
                "trace.verify.busy_frac",
                run.busy_s / capacity.max(f64::MIN_POSITIVE),
            ));
        }
        Err(e) => {
            p.failed = true;
            p.errors.push(format!("verify: {e}"));
        }
    }
    let analysis = rec.span("trace.analyze.analyze", |_| analyze(&trace));
    p.analyzed_moves = analysis.moves;
    p
}

impl Pass {
    fn error(mut self, msg: String) -> Pass {
        self.failed = true;
        self.errors.push(msg);
        self
    }
}

/// Runs `trace-bf11`: `setups` set-ups, then passes for `seconds`.
pub fn run(seed: u64, setups: usize, seconds: f64, rec: &mut Recorder) -> Outcome {
    let mut checks = Vec::new();
    let (mut plain_route_ns, mut reconstruct_ns, mut plain_moves) = (0, 0, None);
    if rec.is_on() {
        let inst = setup(seed, &mut Recorder::off());
        let (ns, plain) = common::timed_ns(|| {
            BuschRouter::new(inst.params).route(&inst.problem, &mut inst.rng.clone())
        });
        plain_route_ns = ns;
        plain_moves = Some(common::moves(&plain.stats));
        reconstruct_ns = common::timed_ns(|| verify::reconstruct(&inst.meta)).0;
    }
    let (setup_s, reps) = common::drive(
        setups,
        seconds,
        rec,
        |rec| Instance {
            plain_route_ns,
            reconstruct_ns,
            ..setup(seed, rec)
        },
        pass,
        |_, p| p,
    );
    let first = &reps[0].out;
    for p in reps.iter().map(|r| &r.out) {
        for e in &p.errors {
            checks.push(Check {
                name: "pipeline stage".to_string(),
                ok: false,
                detail: e.clone(),
            });
        }
        checks.push(Check::eq(
            "decoded .hpt == parsed JSONL (events, stats)",
            p.decoded_matches,
            true,
        ));
        checks.push(Check::eq(
            "verified steps == route steps_run",
            p.verified_steps,
            Some(p.steps_run),
        ));
        checks.push(Check::eq(
            "moves == busch moves counter",
            p.facts.moves,
            p.counted_moves,
        ));
        checks.push(Check::eq(
            "analyzed moves == route moves",
            p.analyzed_moves,
            p.facts.moves,
        ));
    }
    if let Some(plain) = plain_moves {
        checks.push(Check::eq(
            "observed route moves == plain route moves",
            first.facts.moves,
            plain,
        ));
    }
    let facts: Vec<&Facts> = reps.iter().map(|r| &r.out.facts).collect();
    checks.push(Check::all_equal(
        "passes agree (events, bytes, moves, makespan, latency)",
        &facts,
    ));
    Outcome {
        setup_s,
        rep_s: reps.iter().map(|r| r.secs).collect(),
        rep_peak_mb: reps.iter().map(|r| r.peak_mb).collect(),
        rep_moves: reps.iter().map(|r| r.out.facts.moves).collect(),
        attempted: reps.len() as u64,
        failed: reps.iter().filter(|r| r.out.failed).count() as u64,
        checks,
        layers: common::layers(
            &first.layers,
            first.latency.0,
            first.latency.1,
            first.facts.makespan as f64 / first.c_plus_l as f64,
        ),
        ..Outcome::default()
    }
}
