//! `hotpotato` — command-line front end for the library.
//!
//! ```text
//! hotpotato topo <SPEC> [--dot]          describe a topology
//! hotpotato route --topo <SPEC> --workload <WL> [--algo A] [--seed S]
//!                 [--spec TOPO/WL[/ALGO[/SEED[/ARRIVAL]]]]
//!                 [--arrival P]
//!                 [--max-in-flight N] [--max-deferred N] [--max-steps N]
//!                 [--params m,w,q,sets] [--verify] [--json]
//!                 [--metrics-out PATH] [--trace-out PATH]
//!                 [--aggregate-out PATH] [--aggregate-cap N]
//! hotpotato serve --run TOPO/WL[/ALGO[/SEED[/ARRIVAL]]] [--run ...] [--addr A]
//!                 [--publish-every N] [--rollup-cap N] [--throttle-us N]
//!                 [--max-in-flight N] [--max-deferred N]
//! hotpotato serve --fleet --sweep EXPR [--sweep ...] [--addr A] [--workers N]
//!                 [--no-verify] [--throttle-ms N]
//!                                        execute a sweep, serve /fleet live
//!                                        (EXPR = run spec where any integer
//!                                         may be a LO..HI range)
//! hotpotato trace verify <FILE> [--jobs N] [--progress] [--json]
//!                                        replay-verify a recorded trace
//! hotpotato trace analyze <FILE> [--out PATH]   aggregate trace report
//! hotpotato trace convert <IN> <OUT>     transcode JSONL ↔ binary (.hpt)
//! hotpotato trace diff <A> <B> [--fail-on METRIC=LIMIT ...]
//!                                        compare two trace analyses; exit 1
//!                                        when |delta| exceeds a threshold
//! hotpotato params <C> <L> <N>           paper §2.1 parameter calculator
//! hotpotato frames <L> <m> <sets>        frontier-frame schedule (Fig. 2)
//!
//! topology SPEC:
//!   butterfly:K | mesh:RxC[:tl|tr|bl|br] | linear:N | complete:LxW
//!   hypercube:D | tree:H | fattree:H[:CAP] | shuffle:K | benes:K
//!   random:L[:WMAX[:PROB[:SEED]]]
//!
//! workload WL:
//!   pairs:N | m2m:N | permutation | bitrev | transpose
//!   hotspot:N:D | funnel:N | level:FROM:TO | blast:FROM:TO
//!
//! algorithms: busch (default) | greedy | ftg | aging | rank | sf | sfrank
//!             (streaming arrivals: greedy | ftg | aging)
//!
//! arrival P (continuous-injection streaming mode):
//!   poisson:RATE | burst:SIZE:PERIOD | replay:T0,T1,... | adversarial:SIZE:GAP
//! ```
//!
//! Examples:
//!
//! ```text
//! hotpotato topo butterfly:5
//! hotpotato route --topo butterfly:6 --workload bitrev --algo busch --verify
//! hotpotato route --topo butterfly:6 --workload bitrev --metrics-out metrics.json
//! hotpotato route --topo butterfly:6 --workload bitrev --trace-out run.jsonl
//! hotpotato trace convert run.jsonl run.hpt
//! hotpotato trace verify run.hpt --jobs 4 --progress
//! hotpotato route --topo mesh:16x16 --workload transpose --algo sf
//! hotpotato serve --run bf:10/bitrev/busch/7 --addr 127.0.0.1:9898
//! hotpotato params 64 32 1024
//! ```

use busch_router::{BuschRouter, FrameSchedule, InvariantReport, PaperParams, Params};
use hotpotato_sim::{
    route_streaming_observed, AdmissionControl, JsonlTraceObserver, MetricsObserver, Router,
    RunRecord, StreamPriority, StreamingConfig,
};
use hotpotato_trace::{schema, Model, StreamingAggregator, Trace, TraceEvent};
use leveled_net::render;
use routing_core::spec::{expand_sweep, parse_run_spec, parse_topo, RunSpec};
use routing_core::ArrivalProcess;
use std::io::Write as _;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(std::string::String::as_str) {
        Some("topo") => cmd_topo(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("params") => cmd_params(&args[1..]),
        Some("frames") => cmd_frames(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'");
            print_usage();
            2
        }
    };
    exit(code);
}

fn print_usage() {
    eprintln!(
        "hotpotato — Busch's Õ(C+L) hot-potato routing on leveled networks\n\
         \n\
         usage:\n\
         \u{20}  hotpotato topo <SPEC> [--dot]\n\
         \u{20}  hotpotato route --topo <SPEC> --workload <WL> [--algo A] [--seed S]\n\
         \u{20}                  [--spec TOPO/WL[/ALGO[/SEED[/ARRIVAL]]]]\n\
         \u{20}                  [--arrival P]\n\
         \u{20}                  [--max-in-flight N] [--max-deferred N] [--max-steps N]\n\
         \u{20}                  [--params m,w,q,sets] [--verify] [--json]\n\
         \u{20}                  [--metrics-out PATH] [--trace-out PATH]\n\
         \u{20}                  [--aggregate-out PATH] [--aggregate-cap N]\n\
         \u{20}  hotpotato serve --run TOPO/WL[/ALGO[/SEED[/ARRIVAL]]] [--run ...] [--addr A]\n\
         \u{20}                  [--publish-every N] [--rollup-cap N] [--throttle-us N]\n\
         \u{20}                  [--max-in-flight N] [--max-deferred N]\n\
         \u{20}  hotpotato serve --fleet --sweep EXPR [--sweep ...] [--addr A] [--workers N]\n\
         \u{20}                  [--no-verify] [--throttle-ms N]\n\
         \u{20}                  (EXPR = run spec; any integer may be LO..HI)\n\
         \u{20}  hotpotato trace verify <FILE> [--jobs N] [--progress] [--json]\n\
         \u{20}  hotpotato trace analyze <FILE> [--out PATH]\n\
         \u{20}  hotpotato trace convert <IN> <OUT>\n\
         \u{20}  hotpotato trace diff <A> <B> [--fail-on METRIC=LIMIT ...]\n\
         \u{20}  hotpotato params <C> <L> <N>\n\
         \u{20}  hotpotato frames <L> <m> <sets>\n\
         \n\
         topologies: butterfly:K mesh:RxC[:tl|tr|bl|br] linear:N complete:LxW\n\
         \u{20}           hypercube:D tree:H fattree:H[:CAP] shuffle:K benes:K\n\
         \u{20}           random:L[:WMAX[:PROB[:SEED]]]\n\
         workloads:  pairs:N m2m:N permutation bitrev transpose hotspot:N:D\n\
         \u{20}           funnel:N level:FROM:TO blast:FROM:TO\n\
         algorithms: busch greedy ftg aging rank sf sfrank (streaming: greedy ftg aging)\n\
         arrivals:   poisson:RATE burst:SIZE:PERIOD replay:T0,T1,... \
         adversarial:SIZE:GAP"
    );
}

/// Rejects every argument that is neither one of the `valued` flags
/// (which consume the next argument) nor one of the `switches`, so a
/// mistyped or unsupported flag fails instead of silently running the
/// default.
fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if valued.contains(&arg) {
            i += 2;
        } else if switches.contains(&arg) {
            i += 1;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag '{arg}'"));
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(std::string::String::as_str)
}

/// Parses `value`, the argument of `flag`. A malformed value ends the
/// process with exit code 2 and an error naming the flag and the value,
/// so a typo never silently runs with a default.
fn parse_arg<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} wants a number (got '{value}')");
        exit(2)
    })
}

/// The value of the numeric `flag`, or `default` when the flag is
/// absent (see [`parse_arg`] for malformed values).
fn numeric_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag).map_or(default, |s| parse_arg(flag, s))
}

fn cmd_topo(args: &[String]) -> i32 {
    let Some(spec) = args.first() else {
        eprintln!("usage: hotpotato topo <SPEC> [--dot]");
        return 2;
    };
    match parse_topo(spec) {
        Ok(topo) => {
            if args.iter().any(|a| a == "--dot") {
                print!("{}", render::to_dot(&topo.net));
            } else {
                print!("{}", render::level_summary(&topo.net));
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn cmd_route(args: &[String]) -> i32 {
    const VALUED: &[&str] = &[
        "--topo",
        "--workload",
        "--algo",
        "--seed",
        "--spec",
        "--arrival",
        "--max-in-flight",
        "--max-deferred",
        "--max-steps",
        "--params",
        "--metrics-out",
        "--trace-out",
        "--aggregate-out",
        "--aggregate-cap",
    ];
    if let Err(e) = check_flags(args, VALUED, &["--verify", "--json"]) {
        eprintln!("error: {e}");
        return 2;
    }
    // Every numeric flag is parsed before any work, whether or not the
    // run ends up reading it.
    let seed: u64 = numeric_flag(args, "--seed", 42);
    let aggregate_cap: usize = numeric_flag(args, "--aggregate-cap", 64);
    let stream_defaults = StreamingConfig::default();
    let admission = AdmissionControl {
        max_in_flight: numeric_flag(
            args,
            "--max-in-flight",
            stream_defaults.admission.max_in_flight,
        ),
        max_deferred: numeric_flag(
            args,
            "--max-deferred",
            stream_defaults.admission.max_deferred,
        ),
    };
    let max_steps = numeric_flag(args, "--max-steps", stream_defaults.max_steps);
    let explicit_params = match flag_value(args, "--params") {
        None => None,
        Some(spec) => {
            let v: Vec<&str> = spec.split(',').collect();
            if v.len() != 4 {
                eprintln!("--params wants m,w,q,sets (e.g. 6,48,0.1,4)");
                return 2;
            }
            let (m, w, q, sets): (u32, u32, f64, u32) = (
                parse_arg("--params", v[0]),
                parse_arg("--params", v[1]),
                parse_arg("--params", v[2]),
                parse_arg("--params", v[3]),
            );
            if m < 3 || w < 1 || !(0.0..=1.0).contains(&q) || sets < 1 {
                eprintln!("--params out of range: need m ≥ 3, w ≥ 1, 0 ≤ q ≤ 1, sets ≥ 1");
                return 2;
            }
            Some(Params::scaled(m, w, q, sets))
        }
    };
    // One typed surface: either a full run spec (`--spec TOPO/WL[/ALGO
    // [/SEED[/ARRIVAL]]]`, the same grammar `serve --run` and the bench
    // gate accept) or the individual flags; both produce a `RunSpec`.
    let mut run = match flag_value(args, "--spec") {
        Some(spec) => match parse_run_spec(spec) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        },
        None => {
            let Some(topo_spec) = flag_value(args, "--topo") else {
                eprintln!("route needs --topo <SPEC> (or --spec TOPO/WL[/ALGO[/SEED[/ARRIVAL]]])");
                return 2;
            };
            let Some(wl_spec) = flag_value(args, "--workload") else {
                eprintln!("route needs --workload <WL>");
                return 2;
            };
            let algo = flag_value(args, "--algo").unwrap_or("busch");
            RunSpec::batch(topo_spec, wl_spec, algo, seed)
        }
    };
    if let Some(arrival) = flag_value(args, "--arrival") {
        if let Err(e) = ArrivalProcess::parse(arrival) {
            eprintln!("error: {e}");
            return 2;
        }
        run.arrival = Some(arrival.to_string());
    }
    let verify = args.iter().any(|a| a == "--verify");
    let json = args.iter().any(|a| a == "--json");
    let metrics_out = flag_value(args, "--metrics-out");
    let trace_out = flag_value(args, "--trace-out");
    let aggregate_out = flag_value(args, "--aggregate-out");

    let (topo, problem, mut rng) = match run.instantiate() {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let algo = run.algo.as_str();
    if !json {
        println!("problem:  {}", problem.describe());
        println!(
            "lower bound max(C, D) = {}",
            problem.congestion().max(problem.dilation())
        );
    }

    // Streaming mode resolves its whole configuration up front so a bad
    // algorithm/arrival combination fails before any sink file exists.
    let streaming = match run.arrival_process() {
        Ok(None) => None,
        Ok(Some(process)) => match StreamPriority::for_algo(algo) {
            Ok(priority) => {
                let cfg = StreamingConfig {
                    admission,
                    priority,
                    max_steps,
                };
                Some((process, cfg))
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    // Algorithm dispatch (batch mode): every router reduces to the same
    // object-safe interface and comes from `serve::build_router`, except
    // Busch, whose `--params` and pre-run parameter output live here (it
    // also carries post-run output: invariants). Streaming runs the
    // shared greedy step directly, so it builds no router.
    let mut params: Option<Params> = None;
    let router: Option<Box<dyn Router>> = match algo {
        _ if streaming.is_some() => None,
        "busch" => {
            let p = explicit_params.unwrap_or_else(|| Params::auto(&problem));
            if !json {
                println!(
                    "params:   m={} w={} q={:.3} sets={} (scheduled {} steps)",
                    p.m,
                    p.w,
                    p.q,
                    p.num_sets,
                    p.scheduled_steps(topo.net.depth())
                );
            }
            params = Some(p);
            Some(Box::new(BuschRouter::new(p)))
        }
        _ => match serve::service::build_router(algo, &problem) {
            Ok(router) => Some(router),
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
    };

    // Optional event sinks; `(Option<A>, Option<B>)` is itself an
    // observer, and with all sides `None` every hook is a no-op. Trace
    // files are wrapped in a meta/stats envelope so `hotpotato trace
    // verify` can rebuild the instance offline; phase-entry snapshots
    // let the verifier shard the replay across workers.
    let metrics = metrics_out.map(|_| MetricsObserver::new(&problem).with_occupancy_sampling(64));
    let trace = match trace_out {
        Some(path) => {
            let meta = schema::Meta::new(&run, &problem);
            let sink = std::fs::File::create(path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                writeln!(w, "{}", schema::meta_line(&meta))?;
                Ok(w)
            });
            match sink {
                Ok(w) => Some(JsonlTraceObserver::with_snapshots(w, &problem)),
                Err(e) => {
                    eprintln!("error: cannot create {path}: {e}");
                    return 2;
                }
            }
        }
        None => None,
    };
    let aggregate = aggregate_out.map(|_| StreamingAggregator::new(aggregate_cap));
    // `--verify` records the moves for the replay auditor, which checks
    // the bufferless law: buffered (store-and-forward) runs get no record.
    let record = (verify && Model::for_algo(algo) == Model::Bufferless).then(RunRecord::default);
    let mut observer = (((metrics, trace), aggregate), record);
    // Drive the run: the open-ended injection loop in streaming mode,
    // the batch router otherwise. Both paths feed the same sinks and
    // converge on the run statistics.
    let (stats, stream) = match &streaming {
        Some((process, cfg)) => {
            let schedule = process.schedule(problem.num_packets(), &mut rng);
            let out = route_streaming_observed(&problem, &schedule, cfg, &mut rng, &mut observer);
            if !json {
                println!(
                    "stream:   {} arrivals, {} admitted, {} dropped (peak queue {}, \
                     peak in-flight {}), {:.1} pkts/kstep",
                    out.arrivals,
                    out.admitted,
                    out.dropped,
                    out.peak_deferred,
                    out.peak_in_flight,
                    out.throughput() * 1000.0
                );
            }
            let drained = out.drained;
            (out.stats, Some(drained))
        }
        None => {
            let out = router.expect("batch mode always builds a router").route(
                &problem,
                &mut rng,
                &mut observer,
            );
            (out.stats, None)
        }
    };
    let (((metrics, trace), aggregate), record) = observer;

    if let (Some(path), Some(metrics)) = (metrics_out, metrics) {
        let doc = serde_json::json!({
            "algorithm": algo,
            "problem": problem.describe(),
            "metrics": metrics.to_json(),
        });
        match std::fs::write(path, serde_json::to_string_pretty(&doc).expect("serialize")) {
            Ok(()) => {
                if !json {
                    println!("metrics:  written to {path}");
                }
            }
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                return 1;
            }
        }
    }
    if let Some(trace) = trace {
        let path = trace_out.expect("trace sink implies --trace-out");
        let close = trace.finish().and_then(|mut w| {
            writeln!(w, "{}", schema::stats_line(&stats))?;
            w.flush()
        });
        match close {
            Ok(()) => {
                if !json {
                    println!("trace:    written to {path}");
                }
            }
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                return 1;
            }
        }
    }
    if let (Some(path), Some(aggregate)) = (aggregate_out, aggregate) {
        let doc = aggregate.to_json();
        match std::fs::write(path, serde_json::to_string_pretty(&doc).expect("serialize")) {
            Ok(()) => {
                if !json {
                    println!("rollup:   written to {path}");
                }
            }
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                return 1;
            }
        }
    }

    // Streaming failure = the run hit its step cap before draining;
    // batch failure = some packet was never delivered (drops are a
    // legitimate streaming outcome, not a failure).
    let failed = match stream {
        Some(drained) => !drained,
        None => !stats.all_delivered(),
    };

    if json {
        let doc = if algo == "busch" {
            serde_json::json!({
                "algorithm": algo,
                "problem": problem.describe(),
                "params": params.expect("busch always has params"),
                "stats": stats,
                "latency": stats.latency_summary(),
                "invariants": InvariantReport::from_counters(&stats.counters),
                "phases_elapsed": stats.counter("phases"),
            })
        } else if stream.is_some() {
            serde_json::json!({
                "algorithm": algo,
                "problem": problem.describe(),
                "arrival": run.arrival.clone().unwrap_or_default(),
                "stats": stats,
                "latency": stats.latency_summary(),
                "arrivals": stats.counter("arrivals"),
                "admitted": stats.counter("admitted"),
                "dropped": stats.counter("dropped"),
                "drained": stream == Some(true),
            })
        } else {
            serde_json::json!({
                "algorithm": algo,
                "problem": problem.describe(),
                "stats": stats,
                "latency": stats.latency_summary(),
            })
        };
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
        return i32::from(failed);
    }

    if stream.is_some() {
        println!("{algo}:   {}", stats.summary());
        println!("latency:  {}", stats.latency_summary());
    } else {
        match algo {
            "busch" => println!("busch:    {}", stats.summary()),
            "greedy" | "ftg" | "aging" => println!("{algo}:   {}", stats.summary()),
            "rank" => println!("rank:     {}", stats.summary()),
            "sf" => println!(
                "sf:       {} (max queue {})",
                stats.summary(),
                stats.counter("max_queue")
            ),
            "sfrank" => println!(
                "sfrank:   {} (max queue {})",
                stats.summary(),
                stats.counter("max_queue")
            ),
            _ => unreachable!("dispatch rejected unknown algorithms"),
        }
        if matches!(algo, "busch" | "greedy" | "ftg" | "aging") {
            println!("latency:  {}", stats.latency_summary());
        }
        if algo == "busch" {
            println!(
                "invariants: {}",
                InvariantReport::from_counters(&stats.counters).summary()
            );
        }
    }
    if verify {
        if let Some(record) = record.as_ref() {
            match hotpotato_sim::replay::verify(&problem, record, &stats) {
                Ok(rep) => {
                    if algo == "busch" {
                        println!(
                            "replay:   VERIFIED ({} moves, {} fwd / {} bwd)",
                            rep.moves, rep.forward, rep.backward
                        );
                    } else {
                        println!("replay:   VERIFIED ({} moves)", rep.moves);
                    }
                }
                Err(e) => {
                    eprintln!("replay:   FAILED: {e}");
                    return 1;
                }
            }
        } else {
            eprintln!("replay:   unavailable ({algo} does not record moves)");
        }
    }
    i32::from(failed)
}

/// Reads a trace file, sniffing the `.hpt` magic: binary traces are
/// decoded, everything else is strictly parsed as JSONL (across `jobs`
/// threads when > 1). Returns the trace and its on-disk size in bytes.
///
/// Every packet id must lie inside the trace's packet universe: the
/// meta line's `packets`, or without a meta line the number of events.
/// The analytics size per-packet state by the largest id, so the bound
/// keeps their memory proportional to the input.
fn load_trace(path: &str, jobs: usize) -> Result<(Trace, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let size = bytes.len() as u64;
    let binary = hotpotato_trace::is_binary(&bytes);
    let trace = if binary {
        hotpotato_trace::decode_trace(&bytes).map_err(|e| format!("{path}: {e}"))?
    } else {
        let text =
            String::from_utf8(bytes).map_err(|e| format!("{path}: trace is not UTF-8 ({e})"))?;
        hotpotato_trace::parse_jsonl_parallel(&text, jobs).map_err(|e| format!("{path}: {e}"))?
    };
    // A meta's packet claim sizes the analytics, so it must match the
    // instance the meta names; a meta that does not rebuild bounds ids by
    // the event count, as a trace without one does.
    let rebuilt = trace.meta().and_then(|m| {
        routing_core::spec::reconstruct_problem(&m.topo, &m.workload, m.seed)
            .ok()
            .map(|(_, problem)| (m.packets, problem.num_packets() as u64))
    });
    let universe = match rebuilt {
        Some((claimed, built)) if claimed != built => {
            return Err(format!(
                "{path}: meta says {claimed} packets but reconstruction yields {built}"
            ));
        }
        Some((claimed, _)) => claimed,
        None => trace.events.len() as u64,
    };
    for (i, ev) in trace.events.iter().enumerate() {
        let pkt = match *ev {
            TraceEvent::Move { pkt, .. }
            | TraceEvent::Trivial { pkt, .. }
            | TraceEvent::Deliver { pkt, .. }
            | TraceEvent::Arrival { pkt, .. }
            | TraceEvent::Drop { pkt, .. } => u64::from(pkt),
            _ => continue,
        };
        if pkt >= universe {
            let unit = if binary { "event" } else { "line" };
            return Err(format!(
                "{path}: {unit} {}: packet {pkt} outside a universe of {universe} packets",
                i + 1
            ));
        }
    }
    Ok((trace, size))
}

fn cmd_serve(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--fleet") {
        return cmd_serve_fleet(args);
    }
    const VALUED: &[&str] = &[
        "--run",
        "--addr",
        "--publish-every",
        "--rollup-cap",
        "--throttle-us",
        "--max-in-flight",
        "--max-deferred",
    ];
    if let Err(e) = check_flags(args, VALUED, &[]) {
        eprintln!("error: {e}");
        return 2;
    }
    let specs: Vec<&str> = args
        .windows(2)
        .filter(|w| w[0] == "--run")
        .map(|w| w[1].as_str())
        .collect();
    if specs.is_empty() {
        eprintln!(
            "serve needs at least one --run TOPO/WL[/ALGO[/SEED[/ARRIVAL]]] \
             (e.g. --run bf:10/bitrev/busch/7 or --run bf:10/pairs:64/greedy/7/poisson:0.5)"
        );
        return 2;
    }
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:9898");
    let publish_every: u64 = numeric_flag(args, "--publish-every", 64);
    let rollup_cap: usize = numeric_flag(args, "--rollup-cap", 64);
    let throttle_us: u64 = numeric_flag(args, "--throttle-us", 0);
    let defaults = AdmissionControl::default();
    let admission = AdmissionControl {
        max_in_flight: numeric_flag(args, "--max-in-flight", defaults.max_in_flight),
        max_deferred: numeric_flag(args, "--max-deferred", defaults.max_deferred),
    };

    let mut configs = Vec::with_capacity(specs.len());
    for spec in specs {
        match parse_run_spec(spec) {
            Ok(run) => {
                configs.push(serve::RunConfig {
                    spec: run,
                    publish_every,
                    rollup_cap,
                    throttle_us,
                    admission,
                });
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    }
    let service = match serve::Service::launch(configs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let server = match serve::http::HttpServer::bind(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return 1;
        }
    };
    let bound = server.local_addr();
    println!("serving on http://{bound}");
    for name in service.run_names() {
        println!("  run: {name}  (rollup at /rollup/{name})");
    }
    println!("endpoints: /metrics /runs /healthz /rollup/<run>");
    // Serves forever (runs keep their final snapshots available after
    // they quiesce); only an accept-loop error returns.
    let err = server.serve(serve::service::into_handler(service));
    eprintln!("error: accept loop failed: {err}");
    1
}

/// `serve --fleet`: expand every `--sweep` expression, execute the whole
/// queue on worker threads, and serve the cross-run aggregation live.
/// Keeps serving the final rollup after the sweep completes.
fn cmd_serve_fleet(args: &[String]) -> i32 {
    const VALUED: &[&str] = &["--sweep", "--addr", "--workers", "--throttle-ms"];
    if let Err(e) = check_flags(args, VALUED, &["--fleet", "--no-verify"]) {
        eprintln!("error: {e}");
        return 2;
    }
    let sweeps: Vec<&str> = args
        .windows(2)
        .filter(|w| w[0] == "--sweep")
        .map(|w| w[1].as_str())
        .collect();
    if sweeps.is_empty() {
        eprintln!(
            "serve --fleet needs at least one --sweep TOPO/WL[/ALGO[/SEED[/ARRIVAL]]] \
             where any integer may be a LO..HI range \
             (e.g. --sweep bf:6..10/bitrev/busch/1..25)"
        );
        return 2;
    }
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:9898");
    let workers: usize = numeric_flag(args, "--workers", 0);
    let throttle_ms: u64 = numeric_flag(args, "--throttle-ms", 0);
    let verify = !args.iter().any(|a| a == "--no-verify");
    let mut specs = Vec::new();
    for sweep in sweeps {
        match expand_sweep(sweep) {
            Ok(expanded) => specs.extend(expanded),
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    }
    let service = match serve::FleetService::launch(serve::FleetConfig {
        specs,
        workers,
        verify,
        throttle_ms,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let server = match serve::http::HttpServer::bind(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            return 1;
        }
    };
    let bound = server.local_addr();
    println!(
        "serving fleet on http://{bound}  ({} runs on {} workers, verify {})",
        service.total(),
        service.workers(),
        if verify { "on" } else { "off" }
    );
    println!("endpoints: /fleet /fleet/progress /metrics /healthz");
    let err = server.serve(serve::into_fleet_handler(service));
    eprintln!("error: accept loop failed: {err}");
    1
}

fn cmd_trace(args: &[String]) -> i32 {
    let usage = || {
        eprintln!(
            "usage: hotpotato trace verify <FILE> [--jobs N] [--progress] [--json]\n\
             \u{20}      hotpotato trace analyze <FILE> [--out PATH]\n\
             \u{20}      hotpotato trace convert <IN> <OUT>\n\
             \u{20}      hotpotato trace diff <A> <B>"
        );
        2
    };
    match args.first().map(std::string::String::as_str) {
        Some("verify") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let jobs: usize = numeric_flag(args, "--jobs", 0);
            let jobs = if jobs == 0 {
                hotpotato_sim::configured_threads()
            } else {
                jobs
            };
            let progress = args.iter().any(|a| a == "--progress");
            let json = args.iter().any(|a| a == "--json");
            let started = std::time::Instant::now();
            let (trace, bytes) = match load_trace(path, jobs) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let trace = std::sync::Arc::new(trace);
            let opts = hotpotato_trace::ShardOptions { jobs, progress };
            match hotpotato_trace::verify_trace_sharded(&trace, &opts) {
                Ok(run) => {
                    let pipeline = hotpotato_trace::PipelineTelemetry {
                        events: trace.events.len() as u64,
                        bytes,
                        wall_s: started.elapsed().as_secs_f64(),
                        jobs: run.jobs,
                        shards: run.shards,
                        busy_s: run.busy_s,
                        peak_rss_bytes: hotpotato_trace::peak_rss_bytes(),
                    };
                    let rep = &run.report;
                    if json {
                        let doc = serde_json::json!({
                            "ok": true,
                            "instance": trace.meta().map(|m| serde_json::json!({
                                "topo": m.topo.clone(),
                                "workload": m.workload.clone(),
                                "algo": m.algo.clone(),
                                "seed": m.seed,
                            })),
                            "verified": serde_json::json!({
                                "packets": rep.packets,
                                "steps": rep.steps,
                                "moves": rep.moves,
                                "forward": rep.forward,
                                "backward": rep.backward,
                                "delivered": rep.delivered,
                                "trivial": rep.trivial,
                                "deflections": rep.deflections,
                                "oscillations": rep.oscillations,
                                "replay_cross_checked": rep.replay_cross_checked,
                            }),
                            "pipeline": pipeline.to_json(),
                        });
                        println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
                        return 0;
                    }
                    if let Some(m) = trace.meta() {
                        println!(
                            "instance: {} / {} / {} (seed {})",
                            m.topo, m.workload, m.algo, m.seed
                        );
                    }
                    println!(
                        "verified: {} packets, {} steps, {} moves ({} fwd / {} bwd)",
                        rep.packets, rep.steps, rep.moves, rep.forward, rep.backward
                    );
                    println!(
                        "\u{20}         {} delivered ({} trivial), {} deflections, {} \
                         oscillations, 0 violations",
                        rep.delivered, rep.trivial, rep.deflections, rep.oscillations
                    );
                    if rep.replay_cross_checked {
                        println!("replay:   independent auditor concurs");
                    } else {
                        println!("replay:   skipped (buffered store-and-forward trace)");
                    }
                    let util = pipeline
                        .shard_utilization()
                        .map_or_else(|| "n/a".to_string(), |u| format!("{:.0}%", u * 100.0));
                    let rss = pipeline.peak_rss_bytes.map_or_else(
                        || "n/a".to_string(),
                        |b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
                    );
                    println!(
                        "pipeline: {:.3e} events/s, {:.3e} bytes/s, {} shards over {} \
                         jobs (busy {util}), peak RSS {rss}",
                        pipeline.events_per_s(),
                        pipeline.bytes_per_s(),
                        run.shards,
                        run.jobs
                    );
                    0
                }
                Err(e) => {
                    eprintln!("verify:   FAILED: {e}");
                    1
                }
            }
        }
        Some("analyze") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let started = std::time::Instant::now();
            let jobs = hotpotato_sim::configured_threads();
            let (trace, bytes) = match load_trace(path, jobs) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let mut report = hotpotato_trace::analyze(&trace).to_json();
            let pipeline = hotpotato_trace::PipelineTelemetry {
                events: trace.events.len() as u64,
                bytes,
                wall_s: started.elapsed().as_secs_f64(),
                jobs,
                shards: 0,
                busy_s: 0.0,
                peak_rss_bytes: hotpotato_trace::peak_rss_bytes(),
            };
            if let serde_json::Value::Object(members) = &mut report {
                members.push(("pipeline".to_string(), pipeline.to_json()));
            }
            let text = serde_json::to_string_pretty(&report).expect("serialize");
            match flag_value(args, "--out") {
                Some(out) => {
                    if let Err(e) = std::fs::write(out, text) {
                        eprintln!("error: writing {out}: {e}");
                        return 1;
                    }
                    println!("report:   written to {out}");
                }
                None => println!("{text}"),
            }
            0
        }
        Some("convert") => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let bytes = match std::fs::read(input) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("error: cannot read {input}: {e}");
                    return 2;
                }
            };
            let in_len = bytes.len();
            let (out_bytes, direction) = if hotpotato_trace::is_binary(&bytes) {
                match hotpotato_trace::decode_trace(&bytes) {
                    Ok(trace) => {
                        let mut text = String::new();
                        for ev in &trace.events {
                            text.push_str(&schema::event_line(ev));
                            text.push('\n');
                        }
                        (text.into_bytes(), "binary -> jsonl")
                    }
                    Err(e) => {
                        eprintln!("error: {input}: {e}");
                        return 2;
                    }
                }
            } else {
                let text = match String::from_utf8(bytes) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: {input}: trace is not UTF-8 ({e})");
                        return 2;
                    }
                };
                match Trace::parse(&text) {
                    Ok(trace) => (hotpotato_trace::encode_trace(&trace), "jsonl -> binary"),
                    Err(e) => {
                        eprintln!("error: {input}: {e}");
                        return 2;
                    }
                }
            };
            if let Err(e) = std::fs::write(output, &out_bytes) {
                eprintln!("error: writing {output}: {e}");
                return 1;
            }
            println!(
                "convert:  {direction}, {in_len} -> {} bytes ({:.1}% of input)",
                out_bytes.len(),
                out_bytes.len() as f64 / in_len as f64 * 100.0
            );
            0
        }
        Some("diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            // `--fail-on METRIC=LIMIT` (repeatable): exit nonzero when
            // |delta| of that diff row exceeds LIMIT, so CI can gate on
            // regressions (ratio drift, drop-rate spikes) directly.
            let mut thresholds: Vec<(&str, f64)> = Vec::new();
            for w in args.windows(2).filter(|w| w[0] == "--fail-on") {
                let Some((metric, limit)) = w[1].split_once('=') else {
                    eprintln!("--fail-on wants METRIC=LIMIT (got '{}')", w[1]);
                    return 2;
                };
                let Ok(limit) = limit.parse::<f64>() else {
                    eprintln!("--fail-on limit '{limit}' is not a number");
                    return 2;
                };
                thresholds.push((metric, limit));
            }
            let jobs = hotpotato_sim::configured_threads();
            let traces =
                load_trace(a, jobs).and_then(|(ta, _)| load_trace(b, jobs).map(|(tb, _)| (ta, tb)));
            let (ta, tb) = match traces {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let doc = hotpotato_trace::diff(
                &hotpotato_trace::analyze(&ta),
                &hotpotato_trace::analyze(&tb),
            );
            println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
            let rows = doc["rows"].as_array().cloned().unwrap_or_default();
            let mut breached = 0;
            for (metric, limit) in thresholds {
                let row = rows.iter().find(|r| r["metric"].as_str() == Some(metric));
                let Some(row) = row else {
                    eprintln!("error: --fail-on metric '{metric}' is not a diff row");
                    return 2;
                };
                let delta = row["delta"].as_f64().unwrap_or(f64::NAN).abs();
                // A NaN delta (non-numeric row) breaches, never passes.
                if delta.is_nan() || delta > limit {
                    eprintln!("fail-on: |Δ{metric}| = {delta} exceeds {limit}");
                    breached += 1;
                }
            }
            if breached > 0 {
                1
            } else {
                0
            }
        }
        _ => usage(),
    }
}

fn cmd_params(args: &[String]) -> i32 {
    let vals: Vec<u64> = args.iter().filter_map(|s| s.parse().ok()).collect();
    let [c, l, n] = vals[..] else {
        eprintln!("usage: hotpotato params <C> <L> <N>");
        return 2;
    };
    let p = PaperParams::new(c, l, n);
    println!(
        "paper parameters for C={c}, L={l}, N={n} (ln(LN) = {:.3}):",
        p.ln_ln
    );
    println!(
        "  a      = {:.6}  (frontier sets ⌈aC⌉ = {})",
        p.a,
        p.num_sets()
    );
    println!("  m      = {:.1}", p.m);
    println!("  q      = {:.3e}", p.q);
    println!("  w      = {:.3e}", p.w);
    println!("  p0     = {:.12}", p.p0);
    println!("  p1     = {:.3e}", p.p1);
    println!("  phases = {:.3e}  (⌈aC⌉·m + L)", p.total_phases());
    println!("  time   = {:.3e}  steps  (phases · m · w)", p.total_time());
    println!(
        "  Õ      = {:.3e}  = time/(C+L);   ln⁹(LN) = {:.3e}",
        p.polylog_factor(),
        p.ln_ln.powi(9)
    );
    println!(
        "  success ≥ {:.9}  (Theorem 2.6 bound 1 − 1/LN = {:.9})",
        p.success_probability(),
        p.success_lower_bound()
    );
    0
}

fn cmd_frames(args: &[String]) -> i32 {
    let vals: Vec<u32> = args.iter().filter_map(|s| s.parse().ok()).collect();
    let [l, m, sets] = vals[..] else {
        eprintln!("usage: hotpotato frames <L> <m> <sets>");
        return 2;
    };
    if m < 3 {
        eprintln!("frames need at least 3 inner levels (got m = {m})");
        return 2;
    }
    if sets < 1 {
        eprintln!("need at least one frontier set");
        return 2;
    }
    let s = FrameSchedule::new(m, sets, l);
    for phase in 0..s.end_phase() {
        print!("phase {phase:>4}  ");
        for level in 0..=l {
            match (0..sets).find(|&i| s.contains(i, phase, level)) {
                Some(i) => print!("{}", i % 10),
                None => print!("."),
            }
        }
        println!();
    }
    println!("(all frames gone at phase {})", s.end_phase());
    0
}
