//! `fleet-mixed`: a fixed ladder of 170 small runs, each through the
//! fleet envelope (`serve::run_fleet_spec` with verification: record
//! JSONL, re-parse it, replay-verify it, analyze it), run as a closed
//! loop by two worker threads and folded into a `FleetAggregator`.
//!
//! The traced run cannot put spans inside `run_fleet_spec`, so it runs
//! a replica of the envelope built from the same public stages, in the
//! same order, and the parent checks that every replica run agrees with
//! the real envelope's sample on steps and moves.

use crate::common::{self, Check, Outcome};
use crate::spans::Recorder;
use crate::stats;
use baselines::GreedyRouter;
use busch_router::{BuschRouter, Params};
use hotpotato_sim::{
    route_streaming_observed, JsonlTraceObserver, RouteStats, Router, StreamPriority,
    StreamingConfig,
};
use hotpotato_trace::{analyze, parse_fleet, schema, verify, verify_trace};
use hotpotato_trace::{FleetAggregator, FleetSample, Trace};
use routing_core::spec::{expand_sweep, ParsedTopo, RunSpec};
use routing_core::RoutingProblem;
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads running the closed loop (the machine has two cores).
const WORKERS: usize = 2;

/// The ladder for `seed`: each kind of run takes the next block of run
/// seeds, so seed 1 runs seeds 1..=40 (1..=10 for streaming) and seed 2
/// runs 41..=80. Busch bit reversal starts at bf:7: on bf:6 about 3% of
/// run seeds (4 and 78 among them) break a phase-end invariant by
/// chance, and a ladder whose runs fail would measure the failures.
fn ladder(seed: u64) -> Vec<RunSpec> {
    let i = seed.wrapping_sub(1) % 1_000_000;
    let (a, b) = (1 + 40 * i, 40 + 40 * i);
    let (c, d) = (1 + 10 * i, 10 + 10 * i);
    [
        format!("bf:7..8/bitrev/busch/{a}..{b}"),
        format!("mesh:8x8/transpose/busch/{a}..{b}"),
        format!("bf:8/pairs:64/greedy/{a}..{b}"),
        format!("bf:10/pairs:1000/ftg/{c}..{d}/poisson:8"),
    ]
    .iter()
    .flat_map(|expr| expand_sweep(expr).expect("fixed ladder grammar"))
    .collect()
}

/// Set-up: every run's instance (topology, workload, arrival schedule),
/// built and dropped. Each envelope call repeats this work for its run.
fn setup(seed: u64, rec: &mut Recorder) -> Vec<RunSpec> {
    let specs = ladder(seed);
    for spec in &specs {
        let (_, problem, mut rng) = rec
            .span("routing_core.instantiate", |_| spec.instantiate())
            .expect("ladder specs instantiate");
        if let Some(process) = spec.arrival_process().expect("ladder arrivals parse") {
            rec.span("routing_core.arrivals", |_| {
                process.schedule(problem.num_packets(), &mut rng)
            });
        }
    }
    specs
}

/// Runs `job(index, recorder)` over `0..n` on [`WORKERS`] threads, each
/// taking the next index when it finishes one; results come back in
/// index order with their wall time in seconds.
fn closed_loop<T: Send>(
    n: usize,
    rec: &mut Recorder,
    job: impl Fn(usize, &mut Recorder) -> T + Sync,
) -> Vec<(f64, T)> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, f64, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let mut wrec = rec.fork();
                let (next, job) = (&next, &job);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    // The counter only hands out indices; no other data
                    // rides on it, so relaxed ordering suffices.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t = Instant::now();
                        let r = wrec.span("hpbench.run", |wrec| job(i, wrec));
                        out.push((i, t.elapsed().as_secs_f64(), r));
                    }
                    (out, wrec)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            let (out, wrec) = w.join().expect("fleet worker panicked");
            all.extend(out);
            rec.adopt(wrec);
        }
        all
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|(_, secs, r)| (secs, r)).collect()
}

/// The meta envelope line `run_fleet_spec` writes for `spec`.
fn meta_of(spec: &RunSpec, topo: &ParsedTopo, problem: &RoutingProblem) -> schema::Meta {
    schema::Meta {
        schema: schema::SCHEMA_VERSION,
        topo: spec.topo.clone(),
        workload: spec.workload.clone(),
        algo: spec.algo.clone(),
        seed: spec.seed,
        arrival: spec.arrival.clone().unwrap_or_default(),
        packets: problem.num_packets() as u64,
        levels: topo.net.num_levels() as u64,
        congestion: u64::from(problem.congestion()),
        dilation: u64::from(problem.dilation()),
    }
}

/// The batch router a ladder algorithm names, configured as the fleet
/// envelope configures it.
fn batch_router(algo: &str, problem: &RoutingProblem) -> Box<dyn Router> {
    match algo {
        "busch" => Box::new(BuschRouter::new(Params::auto(problem))),
        "greedy" => Box::new(GreedyRouter::new()),
        other => unreachable!("the ladder has no batch '{other}' runs"),
    }
}

/// The span a ladder run's plain route is filed under.
fn router_span(spec: &RunSpec) -> &'static str {
    match (spec.arrival.is_some(), spec.algo.as_str()) {
        (true, _) => "hotpotato_sim.streaming_route",
        (false, "busch") => "busch_router.route",
        (false, _) => "baselines.greedy_route",
    }
}

/// Routes one ladder run from its freshly instantiated rng, through
/// `observer`.
fn route_run(
    spec: &RunSpec,
    problem: &Arc<RoutingProblem>,
    rng: &mut rand_chacha::ChaCha8Rng,
    schedule: Option<&[u64]>,
    observer: &mut dyn hotpotato_sim::RouteObserver,
) -> RouteStats {
    match schedule {
        Some(schedule) => {
            let cfg = StreamingConfig {
                priority: StreamPriority::for_algo(&spec.algo).expect("ladder streams with ftg"),
                ..StreamingConfig::default()
            };
            route_streaming_observed(problem, schedule, &cfg, rng, observer).stats
        }
        None => {
            batch_router(&spec.algo, problem)
                .route(problem, rng, observer)
                .stats
        }
    }
}

/// What the traced run times ahead of the ladder, per run: the plain
/// route and the instance reconstruction, which the envelope's stages
/// contain but cannot be timed apart inside them.
#[derive(Clone, Copy, Default)]
struct PrePass {
    route_ns: u64,
    reconstruct_ns: u64,
}

fn pre_pass(spec: &RunSpec) -> PrePass {
    let (topo, problem, mut rng) = spec.instantiate().expect("ladder specs instantiate");
    let schedule = spec
        .arrival_process()
        .expect("ladder arrivals parse")
        .map(|p| p.schedule(problem.num_packets(), &mut rng));
    let route_ns = common::timed_ns(|| {
        route_run(
            spec,
            &problem,
            &mut rng,
            schedule.as_deref(),
            &mut hotpotato_sim::NoopObserver,
        )
    })
    .0;
    let meta = meta_of(spec, &topo, &problem);
    let reconstruct_ns = common::timed_ns(|| verify::reconstruct(&meta)).0;
    PrePass {
        route_ns,
        reconstruct_ns,
    }
}

/// The fleet envelope rebuilt from its public stages, in its order:
/// instantiate, route with the JSONL observer, parse, verify (which
/// reconstructs the instance), analyze, distill the sample. Returns the
/// sample and the run's moves by [`common::moves`].
fn replica(spec: &RunSpec, pre: PrePass, rec: &mut Recorder) -> Result<(FleetSample, u64), String> {
    let (topo, problem, mut rng) = rec.span("routing_core.instantiate", |_| spec.instantiate())?;
    let schedule = spec.arrival_process()?.map(|p| {
        rec.span("routing_core.arrivals", |_| {
            p.schedule(problem.num_packets(), &mut rng)
        })
    });
    let (text, stats) = rec.span("hotpotato_sim.observe_jsonl", |rec| {
        let mut buf: Vec<u8> = Vec::new();
        writeln!(
            buf,
            "{}",
            schema::meta_line(&meta_of(spec, &topo, &problem))
        )
        .expect("vec sink");
        let mut obs = JsonlTraceObserver::with_snapshots(buf, &problem);
        let stats = route_run(spec, &problem, &mut rng, schedule.as_deref(), &mut obs);
        rec.packed(router_span(spec), pre.route_ns);
        let mut buf = obs.finish().map_err(|e| format!("trace sink: {e}"))?;
        writeln!(buf, "{}", schema::stats_line(&stats)).expect("vec sink");
        rec.count("bytes", buf.len() as f64);
        let text = String::from_utf8(buf).map_err(|_| "trace is not UTF-8".to_string())?;
        Ok::<_, String>((text, stats))
    })?;
    let trace = rec
        .span("trace.schema.parse", |_| Trace::parse(&text))
        .map_err(|e| format!("trace parse: {e}"))?;
    let audited = stats
        .counters
        .get("invariant_violations")
        .copied()
        .unwrap_or(0);
    let verified = rec.span("trace.verify.verify", |rec| {
        rec.packed("trace.verify.reconstruct", pre.reconstruct_ns);
        verify_trace(&trace).is_ok()
    });
    let analysis = rec.span("trace.analyze.analyze", |_| analyze(&trace));
    // Distilling one run's sample happens on the worker, inside the
    // envelope; `trace.fleet.fold` is only the cross-run fold.
    let sample = rec.span("trace.fleet.sample", |_| {
        FleetSample::from_trace(&trace, &analysis, audited + u64::from(!verified))
    })?;
    Ok((sample, common::moves(&stats)))
}

/// One ladder pass, condensed.
struct Ladder {
    /// `(steps, moves)` per run; `(0, 0)` for a run that errored.
    runs: Vec<(u64, u64)>,
    /// Moves by [`common::moves`] per run (replica only).
    stats_moves: Vec<Option<u64>>,
    run_ms: Vec<f64>,
    failed: u64,
    busy_frac: f64,
    ratio_mean: f64,
    latency_p50: f64,
    latency_p99: f64,
    doc_valid: Result<(), String>,
}

fn ladder_pass(specs: &[RunSpec], pre: &[PrePass], rec: &mut Recorder) -> Ladder {
    let t = Instant::now();
    let results = if rec.is_on() {
        closed_loop(specs.len(), rec, |i, wrec| {
            replica(&specs[i], pre[i], wrec).map(|(s, m)| (s, Some(m)))
        })
    } else {
        closed_loop(specs.len(), rec, |i, _| {
            serve::run_fleet_spec(&specs[i], true).map(|s| (s, None))
        })
    };
    let wall = t.elapsed().as_secs_f64();
    let mut agg = FleetAggregator::new();
    rec.span("trace.fleet.fold", |_| {
        for (_, r) in &results {
            match r {
                Ok((sample, _)) => agg.record(sample.clone()),
                Err(_) => agg.record_failure(),
            }
        }
    });
    // The rollup as `/fleet` serves it: the fit and bootstrap intervals,
    // rendered to text, then parsed back and validated as a client would.
    let doc_valid = rec.span("trace.fleet.render", |_| {
        parse_fleet(&agg.to_json().to_compact_string()).map(drop)
    });
    let samples: Vec<&FleetSample> = results
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|r| &r.0)
        .collect();
    let failed = results
        .iter()
        .filter(|(_, r)| match r {
            Ok((s, _)) => s.violations > 0 || s.delivered < s.packets,
            Err(_) => true,
        })
        .count() as u64;
    let run_ms: Vec<f64> = results.iter().map(|(secs, _)| secs * 1e3).collect();
    let busy: f64 = results.iter().map(|(secs, _)| secs).sum();
    let per_run = |f: fn(&FleetSample) -> f64| {
        stats::median(&samples.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    Ladder {
        runs: results
            .iter()
            .map(|(_, r)| r.as_ref().map_or((0, 0), |(s, _)| (s.steps, s.moves)))
            .collect(),
        stats_moves: results
            .iter()
            .map(|(_, r)| r.as_ref().ok().and_then(|x| x.1))
            .collect(),
        run_ms,
        failed,
        busy_frac: busy / (wall * WORKERS as f64),
        ratio_mean: samples.iter().map(|s| s.ratio_cl()).sum::<f64>() / samples.len().max(1) as f64,
        latency_p50: per_run(|s| s.latency_p50 as f64),
        latency_p99: per_run(|s| s.latency_p99 as f64),
        doc_valid,
    }
}

/// Runs `fleet-mixed`: `setups` set-ups, then ladder passes for
/// `seconds`.
pub fn run(seed: u64, setups: usize, seconds: f64, rec: &mut Recorder) -> Outcome {
    let pre: Vec<PrePass> = if rec.is_on() {
        ladder(seed).iter().map(pre_pass).collect()
    } else {
        Vec::new()
    };
    let (setup_s, reps) = common::drive(
        setups,
        seconds,
        rec,
        |rec| setup(seed, rec),
        |specs, rec| ladder_pass(specs, &pre, rec),
        |_, l| l,
    );
    let first = &reps[0].out;
    let mut checks = Vec::new();
    let runs: Vec<&Vec<(u64, u64)>> = reps.iter().map(|r| &r.out.runs).collect();
    checks.push(Check::all_equal(
        "ladder passes agree (steps, moves per run)",
        &runs,
    ));
    for l in reps.iter().map(|r| &r.out) {
        checks.push(Check::eq(
            "fleet rollup validates",
            l.doc_valid.clone(),
            Ok(()),
        ));
        if rec.is_on() {
            let mismatched: Vec<usize> = (0..l.runs.len())
                .filter(|&i| l.stats_moves[i].is_some_and(|m| m != l.runs[i].1))
                .collect();
            checks.push(Check::eq(
                "trace moves == route moves, every run",
                mismatched,
                Vec::new(),
            ));
        }
    }
    // The envelope's own latency is measured on `run_fleet_spec` itself,
    // so only the untraced run reports it.
    let sorted_ms = stats::sorted(&first.run_ms);
    let fleet_counts = [
        ("serve.fleet.run_p50_ms", stats::median(&sorted_ms)),
        (
            "serve.fleet.run_p90_ms",
            stats::tail(&sorted_ms, 90).unwrap_or(f64::NAN),
        ),
        ("serve.fleet.worker_busy_frac", first.busy_frac),
    ];
    let counts: &[(&str, f64)] = if rec.is_on() { &[] } else { &fleet_counts };
    let layers = common::layers(
        counts,
        first.latency_p50,
        first.latency_p99,
        first.ratio_mean,
    );
    Outcome {
        setup_s,
        rep_s: reps.iter().map(|r| r.secs).collect(),
        rep_peak_mb: reps.iter().map(|r| r.peak_mb).collect(),
        rep_moves: reps
            .iter()
            .map(|r| r.out.runs.iter().map(|x| x.1).sum())
            .collect(),
        attempted: reps.iter().map(|r| r.out.runs.len() as u64).sum(),
        failed: reps.iter().map(|r| r.out.failed).sum(),
        checks,
        layers,
        runs: first.runs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_has_170_runs_and_shifts_with_the_seed() {
        let one = ladder(1);
        assert_eq!(one.len(), 170);
        assert_eq!((one[0].topo.as_str(), one[0].seed), ("bf:7", 1));
        assert_eq!(one[169].arrival.as_deref(), Some("poisson:8"));
        let two = ladder(2);
        assert_eq!((two[0].seed, two[169].seed), (41, 20));
    }
}
