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
    AdmissionControl, JsonlTraceObserver, MetricsObserver, RunRecord, StreamingConfig,
};
use hotpotato_trace::verify::{self, VerifiedInstance};
use hotpotato_trace::{schema, Analyzer, Model, StreamingAggregator, Trace, TraceEvent};
use leveled_net::render;
use routing_core::spec::{check_algo, expand_sweep, parse_run_spec, parse_topo, RunSpec};
use routing_core::ArrivalProcess;
use serve::service::{RunOutcome, RunPlan};
use std::io::Write as _;
use std::process::exit;

/// Unwraps a `Result`, or prints its error as `error: …` and returns
/// from the enclosing command with exit code 2 (bad input) or the code
/// given.
macro_rules! or_exit {
    ($result:expr) => {
        or_exit!($result, 2)
    };
    ($result:expr, $code:expr) => {
        match $result {
            Ok(value) => value,
            Err(e) => {
                eprintln!("error: {e}");
                return $code;
            }
        }
    };
}

/// Writes to stdout: every line the CLI prints goes through here. A
/// reader that closed early (`hotpotato … | head`) ends the command
/// quietly with exit 0; any other write error ends it with exit 1.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes `contents` to `path`, naming the path in the error.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

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
/// (which consume the next argument), one of the `switches`, nor one of
/// the first `positionals` bare arguments, so a mistyped or unsupported
/// flag or a stray argument fails instead of silently running the
/// default. Returns the bare arguments, in order.
fn check_flags<'a>(
    args: &'a [String],
    positionals: usize,
    valued: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut bare = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if valued.contains(&arg) {
            i += 2;
        } else if switches.contains(&arg) {
            i += 1;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag '{arg}'"));
        } else if bare.len() < positionals {
            bare.push(arg);
            i += 1;
        } else {
            return Err(format!("unexpected argument '{arg}'"));
        }
    }
    Ok(bare)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(std::string::String::as_str)
}

/// Parses `value`, the argument of `flag` (or the positional argument
/// `flag` names, such as `<C>`). A malformed value ends the process with
/// exit code 2 and an error naming the argument and the value, so a typo
/// never silently runs with a default.
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
    let bare = or_exit!(check_flags(args, 1, &[], &["--dot"]));
    let [spec] = bare[..] else {
        eprintln!("usage: hotpotato topo <SPEC> [--dot]");
        return 2;
    };
    let topo = or_exit!(parse_topo(spec));
    if args.iter().any(|a| a == "--dot") {
        out!("{}", render::to_dot(&topo.net));
    } else {
        out!("{}", render::level_summary(&topo.net));
    }
    0
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
    or_exit!(check_flags(args, 0, VALUED, &["--verify", "--json"]));
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
        Some(spec) => or_exit!(parse_run_spec(spec)),
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
            or_exit!(check_algo(algo));
            RunSpec::batch(topo_spec, wl_spec, algo, seed)
        }
    };
    if let Some(arrival) = flag_value(args, "--arrival") {
        or_exit!(ArrivalProcess::parse(arrival));
        run.arrival = Some(arrival.to_string());
    }
    // The admission bounds and the step cap are the streaming loop's; a
    // batch router runs to its own cap, so on a batch run they would be
    // silently ignored.
    if run.arrival.is_none() {
        let caps = ["--max-steps", "--max-in-flight", "--max-deferred"];
        if let Some(flag) = caps.iter().find(|&&f| args.iter().any(|a| a == f)) {
            eprintln!(
                "error: {flag} applies only to streaming runs \
                 (name an arrival process: --arrival P or TOPO/WL/ALGO/SEED/ARRIVAL)"
            );
            return 2;
        }
    }
    let verify = args.iter().any(|a| a == "--verify");
    let json = args.iter().any(|a| a == "--json");
    let metrics_out = flag_value(args, "--metrics-out");
    let trace_out = flag_value(args, "--trace-out");
    let aggregate_out = flag_value(args, "--aggregate-out");

    let (topo, problem, mut rng) = or_exit!(run.instantiate());
    let algo = run.algo.as_str();
    if !json {
        outln!("problem:  {}", problem.describe());
        outln!(
            "lower bound max(C, D) = {}",
            problem.congestion().max(problem.dilation())
        );
    }

    // The one stream-or-batch dispatch `serve` and the fleet also run.
    // It resolves before any sink file exists, so a bad
    // algorithm/arrival combination fails first.
    let mut plan = or_exit!(RunPlan::new(&run, &problem, admission, max_steps));
    // Busch is the one router the CLI configures itself: `--params` and
    // the pre-run `params:` line (its post-run output is the invariants).
    let mut params: Option<Params> = None;
    if algo == "busch" && matches!(plan, RunPlan::Batch(_)) {
        let p = explicit_params.unwrap_or_else(|| Params::auto(&problem));
        if !json {
            outln!(
                "params:   m={} w={} q={:.3} sets={} (scheduled {} steps)",
                p.m,
                p.w,
                p.q,
                p.num_sets,
                p.scheduled_steps(topo.net.depth())
            );
        }
        params = Some(p);
        plan = RunPlan::Batch(Box::new(BuschRouter::new(p)));
    }

    // Optional event sinks; `(Option<A>, Option<B>)` is itself an
    // observer, and with all sides `None` every hook is a no-op. The
    // metrics document pairs the live-only series with a live analysis
    // of the run, which keeps its counts. Trace files are wrapped in a
    // meta/stats envelope so `hotpotato trace verify` can rebuild the
    // instance offline; phase-entry snapshots let the verifier shard the
    // replay across workers.
    let metrics = metrics_out.map(|_| {
        (
            MetricsObserver::new(&problem).with_occupancy_sampling(64),
            Analyzer::new(Some(VerifiedInstance::of(&problem))),
        )
    });
    let trace = match trace_out {
        Some(path) => {
            let meta = schema::Meta::new(&run, &problem);
            let sink = std::fs::File::create(path).and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                writeln!(w, "{}", schema::meta_line(&meta))?;
                Ok(w)
            });
            let w = or_exit!(sink.map_err(|e| format!("cannot create {path}: {e}")));
            Some(JsonlTraceObserver::with_snapshots(w, &problem))
        }
        None => None,
    };
    let aggregate = aggregate_out.map(|_| StreamingAggregator::new(aggregate_cap));
    // `--verify` records the moves for the replay auditor, which checks
    // the bufferless law: buffered (store-and-forward) runs get no record.
    let record = (verify && Model::for_algo(algo) == Model::Bufferless).then(RunRecord::default);
    let mut observer = (((metrics, trace), aggregate), record);
    // Both modes feed the same sinks and converge on the run statistics.
    let outcome = plan.route(&problem, &mut rng, &mut observer);
    let stream = match &outcome {
        RunOutcome::Stream(out) => {
            if !json {
                outln!(
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
            Some(out.drained)
        }
        RunOutcome::Batch(_) => None,
    };
    let stats = outcome.into_stats();
    let (((metrics, trace), aggregate), record) = observer;

    if let (Some(path), Some((metrics, analyzer))) = (metrics_out, metrics) {
        let doc = serde_json::json!({
            "algorithm": algo,
            "problem": problem.describe(),
            "metrics": hotpotato_trace::metrics_json(&metrics, &analyzer.finish()),
        });
        let text = serde_json::to_string_pretty(&doc).expect("serialize");
        or_exit!(write_file(path, text), 1);
        if !json {
            outln!("metrics:  written to {path}");
        }
    }
    if let Some(trace) = trace {
        let path = trace_out.expect("trace sink implies --trace-out");
        let close = trace.finish().and_then(|mut w| {
            writeln!(w, "{}", schema::stats_line(&stats))?;
            w.flush()
        });
        or_exit!(close.map_err(|e| format!("writing {path}: {e}")), 1);
        if !json {
            outln!("trace:    written to {path}");
        }
    }
    if let (Some(path), Some(aggregate)) = (aggregate_out, aggregate) {
        let doc = aggregate.to_json();
        let text = serde_json::to_string_pretty(&doc).expect("serialize");
        or_exit!(write_file(path, text), 1);
        if !json {
            outln!("rollup:   written to {path}");
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
        outln!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
        return i32::from(failed);
    }

    if stream.is_some() {
        outln!("{algo}:   {}", stats.summary());
        outln!("latency:  {}", stats.latency_summary());
    } else {
        match algo {
            "busch" => outln!("busch:    {}", stats.summary()),
            "greedy" | "ftg" | "aging" => outln!("{algo}:   {}", stats.summary()),
            "rank" => outln!("rank:     {}", stats.summary()),
            "sf" => outln!(
                "sf:       {} (max queue {})",
                stats.summary(),
                stats.counter("max_queue")
            ),
            "sfrank" => outln!(
                "sfrank:   {} (max queue {})",
                stats.summary(),
                stats.counter("max_queue")
            ),
            _ => unreachable!("dispatch rejected unknown algorithms"),
        }
        if matches!(algo, "busch" | "greedy" | "ftg" | "aging") {
            outln!("latency:  {}", stats.latency_summary());
        }
        if algo == "busch" {
            outln!(
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
                        outln!(
                            "replay:   VERIFIED ({} moves, {} fwd / {} bwd)",
                            rep.moves,
                            rep.forward,
                            rep.backward
                        );
                    } else {
                        outln!("replay:   VERIFIED ({} moves)", rep.moves);
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

/// A trace file read by [`load_trace`].
struct Loaded {
    trace: Trace,
    /// On-disk size in bytes.
    bytes: u64,
    /// The instance the meta line names, when it rebuilds and matches
    /// every claim of the meta.
    instance: Option<VerifiedInstance>,
}

/// Reads a trace file, sniffing the `.hpt` magic: binary traces are
/// decoded, everything else is strictly parsed as JSONL (across `jobs`
/// threads when > 1). The meta line's instance is rebuilt once, here.
///
/// Every packet id must lie inside the trace's packet universe: the
/// meta line's `packets`, or without a meta line the number of events.
/// The analytics size per-packet state by the largest id, so the bound
/// keeps their memory proportional to the input.
fn load_trace(path: &str, jobs: usize) -> Result<Loaded, String> {
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
    let (universe, instance) = match trace.meta() {
        Some(m) => match verify::rebuild(m).map_err(|e| format!("{path}: {}", e.msg))? {
            Ok(instance) => {
                let matches = verify::check_shape(m, &instance).is_ok();
                (m.packets, matches.then_some(instance))
            }
            Err(_) => (trace.events.len() as u64, None),
        },
        None => (trace.events.len() as u64, None),
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
    Ok(Loaded {
        trace,
        bytes: size,
        instance,
    })
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
    or_exit!(check_flags(args, 0, VALUED, &[]));
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
        configs.push(serve::RunConfig {
            spec: or_exit!(parse_run_spec(spec)),
            publish_every,
            rollup_cap,
            throttle_us,
            admission,
        });
    }
    let service = or_exit!(serve::Service::launch(configs));
    let server = or_exit!(
        serve::http::HttpServer::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}")),
        1
    );
    let bound = server.local_addr();
    outln!("serving on http://{bound}");
    for name in service.run_names() {
        outln!("  run: {name}  (rollup at /rollup/{name})");
    }
    outln!("endpoints: /metrics /runs /healthz /rollup/<run>");
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
    or_exit!(check_flags(args, 0, VALUED, &["--fleet", "--no-verify"]));
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
        specs.extend(or_exit!(expand_sweep(sweep)));
    }
    let service = or_exit!(serve::FleetService::launch(serve::FleetConfig {
        specs,
        workers,
        verify,
        throttle_ms,
    }));
    let server = or_exit!(
        serve::http::HttpServer::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}")),
        1
    );
    let bound = server.local_addr();
    outln!(
        "serving fleet on http://{bound}  ({} runs on {} workers, verify {})",
        service.total(),
        service.workers(),
        if verify { "on" } else { "off" }
    );
    outln!("endpoints: /fleet /fleet/progress /metrics /healthz");
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
             \u{20}      hotpotato trace diff <A> <B> [--fail-on METRIC=LIMIT ...]"
        );
        2
    };
    let sub = args.get(1..).unwrap_or_default();
    match args.first().map(std::string::String::as_str) {
        Some("verify") => {
            let bare = or_exit!(check_flags(sub, 1, &["--jobs"], &["--progress", "--json"]));
            let [path] = bare[..] else {
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
            let Loaded {
                trace,
                bytes,
                instance,
            } = or_exit!(load_trace(path, jobs));
            let opts = hotpotato_trace::ShardOptions { jobs, progress };
            // Without the loader's instance, the plain form rebuilds and
            // reports why the meta names no instance this build accepts.
            let verified = match &instance {
                Some(instance) => {
                    hotpotato_trace::verify_trace_sharded_with(&trace, instance, &opts)
                }
                None => hotpotato_trace::verify_trace_sharded(&trace, &opts),
            };
            match verified {
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
                        outln!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
                        return 0;
                    }
                    if let Some(m) = trace.meta() {
                        outln!(
                            "instance: {} / {} / {} (seed {})",
                            m.topo,
                            m.workload,
                            m.algo,
                            m.seed
                        );
                    }
                    outln!(
                        "verified: {} packets, {} steps, {} moves ({} fwd / {} bwd)",
                        rep.packets,
                        rep.steps,
                        rep.moves,
                        rep.forward,
                        rep.backward
                    );
                    outln!(
                        "\u{20}         {} delivered ({} trivial), {} deflections, {} \
                         oscillations, 0 violations",
                        rep.delivered,
                        rep.trivial,
                        rep.deflections,
                        rep.oscillations
                    );
                    if rep.replay_cross_checked {
                        outln!("replay:   independent auditor concurs");
                    } else {
                        outln!("replay:   skipped (buffered store-and-forward trace)");
                    }
                    let util = pipeline
                        .shard_utilization()
                        .map_or_else(|| "n/a".to_string(), |u| format!("{:.0}%", u * 100.0));
                    let rss = pipeline.peak_rss_bytes.map_or_else(
                        || "n/a".to_string(),
                        |b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0)),
                    );
                    outln!(
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
            let bare = or_exit!(check_flags(sub, 1, &["--out"], &[]));
            let [path] = bare[..] else {
                return usage();
            };
            let started = std::time::Instant::now();
            let jobs = hotpotato_sim::configured_threads();
            let Loaded {
                trace,
                bytes,
                instance,
            } = or_exit!(load_trace(path, jobs));
            let mut report = hotpotato_trace::analyze_with(&trace, instance).to_json();
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
                    or_exit!(write_file(out, text), 1);
                    outln!("report:   written to {out}");
                }
                None => outln!("{text}"),
            }
            0
        }
        Some("convert") => {
            let bare = or_exit!(check_flags(sub, 2, &[], &[]));
            let [input, output] = bare[..] else {
                return usage();
            };
            let bytes =
                or_exit!(std::fs::read(input).map_err(|e| format!("cannot read {input}: {e}")));
            let in_len = bytes.len();
            let (out_bytes, direction) = if hotpotato_trace::is_binary(&bytes) {
                let trace = hotpotato_trace::decode_trace(&bytes);
                let trace = or_exit!(trace.map_err(|e| format!("{input}: {e}")));
                let mut text = String::new();
                for ev in &trace.events {
                    text.push_str(&schema::event_line(ev));
                    text.push('\n');
                }
                (text.into_bytes(), "binary -> jsonl")
            } else {
                let text = or_exit!(String::from_utf8(bytes)
                    .map_err(|e| format!("{input}: trace is not UTF-8 ({e})")));
                let trace = or_exit!(Trace::parse(&text).map_err(|e| format!("{input}: {e}")));
                (hotpotato_trace::encode_trace(&trace), "jsonl -> binary")
            };
            or_exit!(write_file(output, &out_bytes), 1);
            outln!(
                "convert:  {direction}, {in_len} -> {} bytes ({:.1}% of input)",
                out_bytes.len(),
                out_bytes.len() as f64 / in_len as f64 * 100.0
            );
            0
        }
        Some("diff") => {
            let bare = or_exit!(check_flags(sub, 2, &["--fail-on"], &[]));
            let [a, b] = bare[..] else {
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
            let traces = load_trace(a, jobs).and_then(|ta| load_trace(b, jobs).map(|tb| (ta, tb)));
            let (ta, tb) = or_exit!(traces);
            let doc = hotpotato_trace::diff(
                &hotpotato_trace::analyze_with(&ta.trace, ta.instance),
                &hotpotato_trace::analyze_with(&tb.trace, tb.instance),
            );
            outln!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
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
    let bare = or_exit!(check_flags(args, 3, &[], &[]));
    let [c, l, n] = bare[..] else {
        eprintln!("usage: hotpotato params <C> <L> <N>");
        return 2;
    };
    let (c, l, n): (u64, u64, u64) = (
        parse_arg("<C>", c),
        parse_arg("<L>", l),
        parse_arg("<N>", n),
    );
    let p = PaperParams::new(c, l, n);
    outln!(
        "paper parameters for C={c}, L={l}, N={n} (ln(LN) = {:.3}):",
        p.ln_ln
    );
    outln!(
        "  a      = {:.6}  (frontier sets ⌈aC⌉ = {})",
        p.a,
        p.num_sets()
    );
    outln!("  m      = {:.1}", p.m);
    outln!("  q      = {:.3e}", p.q);
    outln!("  w      = {:.3e}", p.w);
    outln!("  p0     = {:.12}", p.p0);
    outln!("  p1     = {:.3e}", p.p1);
    outln!("  phases = {:.3e}  (⌈aC⌉·m + L)", p.total_phases());
    outln!("  time   = {:.3e}  steps  (phases · m · w)", p.total_time());
    outln!(
        "  Õ      = {:.3e}  = time/(C+L);   ln⁹(LN) = {:.3e}",
        p.polylog_factor(),
        p.ln_ln.powi(9)
    );
    outln!(
        "  success ≥ {:.9}  (Theorem 2.6 bound 1 − 1/LN = {:.9})",
        p.success_probability(),
        p.success_lower_bound()
    );
    0
}

fn cmd_frames(args: &[String]) -> i32 {
    let bare = or_exit!(check_flags(args, 3, &[], &[]));
    let [l, m, sets] = bare[..] else {
        eprintln!("usage: hotpotato frames <L> <m> <sets>");
        return 2;
    };
    let (l, m, sets): (u32, u32, u32) = (
        parse_arg("<L>", l),
        parse_arg("<m>", m),
        parse_arg("<sets>", sets),
    );
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
        out!("phase {phase:>4}  ");
        for level in 0..=l {
            match (0..sets).find(|&i| s.contains(i, phase, level)) {
                Some(i) => out!("{}", i % 10),
                None => out!("."),
            }
        }
        outln!();
    }
    outln!("(all frames gone at phase {})", s.end_phase());
    0
}
