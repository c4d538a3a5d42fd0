//! `hpbench`: the end-to-end and per-layer benchmark of the hot-potato
//! routing workspace. `BENCHMARK.json` at the repository root describes
//! it, and `README.md` beside this file explains the workloads and
//! metrics.
//!
//! ```text
//! hpbench [--seed N] [--seconds S]                  every workload, untraced then traced
//! hpbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs in a child process of its own (this executable,
//! re-run with `--child`), so every peak-memory reading belongs to one
//! workload. End-to-end metrics come from an untraced child; per-layer
//! metrics from a traced child that runs the workload once more with
//! spans around every call into a layer. A human table goes to stderr;
//! the last line of stdout is one JSON object. The exit code is 1 when a
//! correctness check fails, 2 on a usage error.

mod common;
mod engine;
mod fleet;
mod pipeline;
mod spans;
mod stats;

use serde_json::{json, Value};
use spans::Recorder;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The workloads, in run order.
const WORKLOADS: [&str; 5] = [
    "busch-bf14",
    "greedy-bf16",
    "stream-bf16",
    "trace-bf11",
    "fleet-mixed",
];

/// End-to-end metrics: `(name, unit, better)`. Every workload reports
/// every one of them.
const END_TO_END: [(&str, &str, &str); 3] = [
    ("setup_s", "s", "lower"),
    ("moves_per_s", "moves/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: `(name, unit, better)`. A layer a workload does
/// not call reads 0 there.
const PER_LAYER: [(&str, &str, &str); 41] = [
    ("leveled_net.build_s", "s", "lower"),
    ("routing_core.workload_s", "s", "lower"),
    ("routing_core.arrivals_s", "s", "lower"),
    ("routing_core.instantiate_s", "s", "lower"),
    ("busch_router.params_s", "s", "lower"),
    ("busch_router.route_s", "s", "lower"),
    ("busch_router.conflict_s", "s", "lower"),
    ("busch_router.kinematics_s", "s", "lower"),
    ("busch_router.injection_s", "s", "lower"),
    ("busch_router.audit_s", "s", "lower"),
    ("busch_router.active_step_frac", "fraction", "lower"),
    ("baselines.greedy_route_s", "s", "lower"),
    ("hotpotato_sim.streaming_route_s", "s", "lower"),
    ("hotpotato_sim.streaming_peak_in_flight", "count", "lower"),
    ("hotpotato_sim.streaming_peak_deferred", "count", "lower"),
    ("hotpotato_sim.streaming_deferred_frac", "fraction", "lower"),
    ("hotpotato_sim.observe_jsonl_s", "s", "lower"),
    ("trace.jsonl_bytes", "bytes", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.schema.parse_s", "s", "lower"),
    ("trace.schema.peak_rss_mb", "MiB", "lower"),
    ("trace.binary.encode_s", "s", "lower"),
    ("trace.binary.decode_s", "s", "lower"),
    ("trace.binary.hpt_bytes", "bytes", "lower"),
    ("trace.verify.reconstruct_s", "s", "lower"),
    ("trace.verify.verify_s", "s", "lower"),
    ("trace.verify.busy_frac", "fraction", "higher"),
    ("trace.verify.shards", "count", "higher"),
    ("trace.verify.peak_rss_mb", "MiB", "lower"),
    ("trace.analyze.analyze_s", "s", "lower"),
    ("trace.fleet.sample_s", "s", "lower"),
    ("trace.fleet.fold_s", "s", "lower"),
    ("trace.fleet.render_s", "s", "lower"),
    ("serve.fleet.run_p50_ms", "ms", "lower"),
    ("serve.fleet.run_p90_ms", "ms", "lower"),
    ("serve.fleet.worker_busy_frac", "fraction", "higher"),
    ("outcome.latency_p50_steps", "steps", "lower"),
    ("outcome.latency_p99_steps", "steps", "lower"),
    ("outcome.makespan_over_cl", "ratio", "lower"),
    ("trace_overhead_frac", "fraction", "lower"),
    ("layer_coverage_frac", "fraction", "higher"),
];

/// Set-ups per untraced run at the least; `setup_s` is their median.
const SETUPS: usize = 3;

/// Default measuring time per untraced run, in seconds: the
/// `run_seconds` of `BENCHMARK.json`, so both entry points measure the
/// same repetitions.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: hpbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
                     workloads: busch-bf14 greedy-bf16 stream-bf16 trace-bf11 fleet-mixed";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    child: Option<String>,
    traced: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        child: None,
        traced: false,
    };
    let known = |w: String| {
        if WORKLOADS.contains(&w.as_str()) {
            Ok(w)
        } else {
            Err(format!("unknown workload '{w}'"))
        }
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(known(value()?)?),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--child" => a.child = Some(known(value()?)?),
            "--traced" => a.traced = true,
            "--untraced" => a.traced = false,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(workload) = &args.child {
        child(workload, &args);
        return ExitCode::SUCCESS;
    }
    let result = match &args.workload {
        Some(w) => one_workload(w, &args),
        None => every_workload(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hpbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Child mode: measure one workload and print the outcome as one line.
/// A traced child, like an untraced one given `--seconds 0`, sets up
/// once and repeats once.
fn child(workload: &str, args: &Args) {
    let (mut rec, seconds) = if args.traced {
        (Recorder::on(Instant::now()), 0.0)
    } else {
        (Recorder::off(), args.seconds)
    };
    let setups = if seconds > 0.0 { SETUPS } else { 1 };
    let seed = args.seed;
    let mut out = match workload {
        "busch-bf14" => engine::run(engine::Engine::Busch, seed, setups, seconds, &mut rec),
        "greedy-bf16" => engine::run(engine::Engine::Greedy, seed, setups, seconds, &mut rec),
        "stream-bf16" => engine::run(engine::Engine::Stream, seed, setups, seconds, &mut rec),
        "trace-bf11" => pipeline::run(seed, setups, seconds, &mut rec),
        "fleet-mixed" => fleet::run(seed, setups, seconds, &mut rec),
        _ => unreachable!("workload names are checked when parsed"),
    };
    if rec.is_on() {
        out.absorb_spans(workload, &rec.into_spans());
    }
    println!("{}", out.to_json().to_compact_string());
}

/// Runs this executable as a child for `workload` and parses its line.
fn spawn(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--child",
            workload,
            if traced { "--traced" } else { "--untraced" },
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} child failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("the {workload} child printed no result: {e}"))
}

fn f64s(v: &Value) -> Vec<f64> {
    v.as_array()
        .map_or_else(Vec::new, |a| a.iter().filter_map(Value::as_f64).collect())
}

/// One metric as measured: the reported value plus the samples behind
/// it, for the quartiles on stderr.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

/// The end-to-end metrics of an untraced child's outcome.
fn end_to_end(untraced: &Value) -> Vec<Metric> {
    let setup = f64s(&untraced["setup_s"]);
    let rate: Vec<f64> = f64s(&untraced["rep_moves"])
        .iter()
        .zip(f64s(&untraced["rep_s"]))
        .map(|(m, s)| m / s)
        .collect();
    END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let samples = match name {
                "setup_s" => setup.clone(),
                "moves_per_s" => rate.clone(),
                "peak_rss_mb" => f64s(&untraced["rep_peak_mb"]),
                _ => unreachable!("every end-to-end metric has samples"),
            };
            Metric {
                name: name.to_string(),
                unit,
                value: stats::median(&samples),
                samples,
            }
        })
        .collect()
}

/// The per-layer metrics of a traced child, with the untraced child
/// that ran the same workload once for comparison.
fn per_layer(traced: &Value, untraced: &Value) -> Vec<Metric> {
    let traced_rep = f64s(&traced["rep_s"]).first().copied().unwrap_or(f64::NAN);
    let untraced_rep = stats::median(&f64s(&untraced["rep_s"]));
    let overhead = traced_rep / untraced_rep - 1.0;
    let lookup = |name: &str| {
        (name == "trace_overhead_frac")
            .then_some(overhead)
            .or_else(|| traced["layers"][name].as_f64())
            .or_else(|| untraced["layers"][name].as_f64())
            .unwrap_or(0.0)
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name: name.to_string(),
            unit,
            value: lookup(name),
            samples: Vec::new(),
        })
        .collect()
}

/// Every check a child reported, plus the fleet replica check, as
/// `(ok, description)`.
fn checks(workload: &str, children: &[&Value]) -> Vec<(bool, String)> {
    let mut out: Vec<(bool, String)> = children
        .iter()
        .flat_map(|c| c["checks"].as_array().cloned().unwrap_or_default())
        .map(|c| {
            let ok = c["ok"].as_bool() == Some(true);
            let name = c["name"].as_str().unwrap_or("?");
            (
                ok,
                format!("{name}: {}", c["detail"].as_str().unwrap_or("")),
            )
        })
        .collect();
    if let [untraced, traced] = children {
        if workload == "fleet-mixed" {
            let (real, replica) = (&untraced["runs"], &traced["runs"]);
            out.push((
                real == replica && real.as_array().is_some_and(|r| !r.is_empty()),
                "traced replica (steps, moves) == run_fleet_spec samples, every run".to_string(),
            ));
        }
    }
    out
}

fn count(children: &[&Value], key: &str) -> u64 {
    children.iter().map(|c| c[key].as_u64().unwrap_or(0)).sum()
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit}))),
    )
}

/// Prints one workload's metrics and failed checks to stderr.
fn print_table(workload: &str, metrics: &[Metric], checks: &[(bool, String)]) {
    eprintln!("\n== {workload}");
    eprintln!(
        "{:<42} {:>16} {:>14} {:>14} {:>4}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for m in metrics {
        let [q1, _, q3] = stats::quartiles(&m.samples);
        let n = m.samples.len().max(1);
        let (q1, q3) = if m.samples.len() > 1 {
            (format!("{q1:.6}"), format!("{q3:.6}"))
        } else {
            ("-".into(), "-".into())
        };
        eprintln!(
            "{:<42} {:>16.6} {:>14} {:>14} {:>4}  {}",
            m.name, m.value, q1, q3, n, m.unit
        );
    }
    for (ok, what) in checks {
        if !ok {
            eprintln!("CHECK FAILED  {what}");
        }
    }
    eprintln!(
        "checks: {}/{} passed",
        checks.iter().filter(|c| c.0).count(),
        checks.len()
    );
}

/// `--workload W`: the end-to-end metrics (`--trace 0`) or the
/// per-layer metrics (`--trace 1`) of one workload, as the last line of
/// stdout.
fn one_workload(workload: &str, args: &Args) -> Result<bool, String> {
    let (metrics, children) = if args.trace == Some(true) {
        // One untraced repetition is the yardstick for the tracing
        // overhead; the end-to-end numbers come from `--trace 0` runs.
        let untraced = spawn(workload, args.seed, 0.0, false)?;
        let traced = spawn(workload, args.seed, 0.0, true)?;
        (per_layer(&traced, &untraced), vec![untraced, traced])
    } else {
        let untraced = spawn(workload, args.seed, args.seconds, false)?;
        (end_to_end(&untraced), vec![untraced])
    };
    let refs: Vec<&Value> = children.iter().collect();
    let checks = checks(workload, &refs);
    print_table(workload, &metrics, &checks);
    let correct = checks.iter().all(|c| c.0);
    let line = json!({
        "correct": correct,
        "attempted": count(&refs, "attempted").max(1),
        "failed": count(&refs, "failed"),
        "metrics": metrics_json(&metrics),
    });
    println!("{}", line.to_compact_string());
    Ok(correct)
}

/// No `--workload`: every workload, untraced then traced, as one JSON
/// document keyed by workload.
fn every_workload(args: &Args) -> Result<bool, String> {
    let mut doc = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let untraced = spawn(workload, args.seed, args.seconds, false)?;
        let traced = spawn(workload, args.seed, 0.0, true)?;
        let mut metrics = end_to_end(&untraced);
        metrics.extend(per_layer(&traced, &untraced));
        let refs = [&untraced, &traced];
        let checks = checks(workload, &refs);
        print_table(workload, &metrics, &checks);
        let ok = checks.iter().all(|c| c.0);
        correct &= ok;
        doc.push((
            workload,
            json!({
                "correct": ok,
                "attempted": count(&refs, "attempted"),
                "failed": count(&refs, "failed"),
                "reps": f64s(&untraced["rep_s"]).len(),
                "metrics": metrics_json(&metrics),
            }),
        ));
    }
    let doc = json!({"seed": args.seed, "correct": correct, "workloads": Value::object(doc)});
    println!("{}", doc.to_compact_string());
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` sits at the repository root, two levels above
    /// this directory; it must name exactly the metrics this file emits.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let Some(path) = here
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
        else {
            panic!("no BENCHMARK.json above {}", here.display());
        };
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload trace-bf11 --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("trace-bf11"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, Some(true)));
        assert!(parse("--workload nosuch").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
    }
}
