//! Experiment driver: regenerates every figure and evaluation table.
//!
//! ```text
//! cargo run -p bench --release --bin tables -- all            # everything
//! cargo run -p bench --release --bin tables -- t1 t4          # selected
//! cargo run -p bench --release --bin tables -- all --quick    # smaller sweeps
//! cargo run -p bench --release --bin tables -- all --json out.json
//! cargo run -p bench --release --bin tables -- perfjson --out F     # perf baseline document
//! cargo run -p bench --release --bin tables -- metricsjson --out F  # metrics document
//! cargo run -p bench --release --bin tables -- gate --quick   # telemetry gate
//!     [--baselines F1,F2,..] [--metrics-baseline F]
//!     [--perf-out F] [--metrics-out F]
//!     [--scrape ADDR] [--scrape-only]
//! ```
//!
//! `perfjson`, `metricsjson` and `gate` take only the flags shown, each
//! at most once (plus `--quick`/`-q`); anything else exits 2 before any
//! measurement. The perf gate checks [`experiments::perf::COMPONENTS`]
//! against per-component floors derived from the spread of the
//! `--baselines` list (default `BENCH_PR1.json`; see
//! [`bench::gate::adaptive_perf_gate`]). `--scrape ADDR` adds
//! liveness/exposition checks against a running `hotpotato serve`
//! (`--scrape-only` skips the measurement checks entirely — what the CI
//! smoke job uses).

use bench::experiments;
use bench::table::sink;
use std::collections::BTreeMap;
use std::time::Instant;

/// Prints `error: MSG` and exits 2, the usage-error code.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The flags of a `perfjson`, `metricsjson` or `gate` invocation, by
/// name: every argument but the `mode` word itself must be `--quick`
/// (alias `-q`), one of `switches`, or one of `valued` followed by its
/// value, and none may repeat. A switch maps to `""`. Anything else is a
/// usage error.
fn mode_flags<'a>(
    args: &'a [String],
    mode: &str,
    valued: &[&str],
    switches: &[&str],
) -> BTreeMap<&'a str, &'a str> {
    let mut flags = BTreeMap::new();
    let mut mode_seen = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = if arg == "-q" { "--quick" } else { arg.as_str() };
        let value = if valued.contains(&name) {
            match it.next() {
                Some(v) => v.as_str(),
                None => usage_error(&format!("flag '{name}' needs a value")),
            }
        } else if name == "--quick" || switches.contains(&name) {
            ""
        } else if name == mode && !mode_seen {
            mode_seen = true;
            continue;
        } else if name.starts_with('-') {
            usage_error(&format!("unknown flag '{name}' for {mode}"))
        } else {
            usage_error(&format!("unexpected argument '{name}' for {mode}"))
        };
        if flags.insert(name, value).is_some() {
            usage_error(&format!("flag '{name}' given twice"));
        }
    }
    flags
}

/// The `--out FILE` a document writer requires: there is no default, so
/// a committed document is never overwritten by accident.
fn required_out<'a>(args: &'a [String], mode: &str) -> &'a str {
    mode_flags(args, mode, &["--out"], &[])
        .get("--out")
        .copied()
        .unwrap_or_else(|| usage_error(&format!("{mode} needs --out FILE")))
}

/// Runs the PERF suite `repeats` times, keeps each component's best
/// (fastest) run, and renders the machine-readable baseline document.
fn measure_perf_doc(quick: bool) -> serde_json::Value {
    let repeats = if quick { 1 } else { 5 };
    let mut best: Option<experiments::perf::PerfReport> = None;
    for i in 0..repeats {
        eprintln!("perfjson: measuring pass {}/{repeats}...", i + 1);
        let rep = experiments::perf::measure(quick);
        best = Some(match best.take() {
            None => rep,
            Some(mut acc) => {
                for (a, b) in acc.rows.iter_mut().zip(rep.rows) {
                    assert_eq!(a.component, b.component);
                    if b.wall_s < a.wall_s {
                        *a = b;
                    }
                }
                acc
            }
        });
    }
    let rep = best.expect("at least one pass");
    let rows: Vec<serde_json::Value> = rep
        .rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "component": r.component,
                "packets": r.packets,
                "wall_s": r.wall_s,
                "repeats": r.repeats,
                "steps": r.steps,
                "steps_per_s": r.steps_per_s(),
                "moves": r.moves,
                "moves_per_s": r.moves_per_s(),
                "packets_per_s": r.packets_per_s(),
                "violations": r.violations,
            })
        })
        .collect();
    serde_json::json!({
        "suite": "hotpotato-routing perf baseline",
        "instance": "butterfly bit-reversal",
        "quick": quick,
        "k": rep.k,
        "packets": rep.n,
        "nodes": rep.nodes,
        "edges": rep.edges,
        "repeats": repeats,
        "policy": "best of repeats per component; inner repeats until 50ms wall",
        "rows": rows,
    })
}

/// `perfjson` mode: writes the perf baseline document.
fn perfjson(quick: bool, out_path: &str) {
    let doc = measure_perf_doc(quick);
    std::fs::write(
        out_path,
        serde_json::to_string_pretty(&doc).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote perf baseline to {out_path}");
}

/// `gate` mode: re-measures perf and metrics, compares against the
/// committed baselines with explicit tolerances, and exits non-zero on
/// any regression (see [`bench::gate`]).
fn gate_mode(quick: bool, args: &[String]) -> ! {
    let flags = mode_flags(
        args,
        "gate",
        &[
            "--baselines",
            "--metrics-baseline",
            "--perf-out",
            "--metrics-out",
            "--scrape",
        ],
        &["--scrape-only"],
    );
    let flag = |name: &str| flags.get(name).copied();
    let scrape_addr = flag("--scrape");
    let scrape_only = flag("--scrape-only").is_some();
    if scrape_only && scrape_addr.is_none() {
        usage_error("--scrape-only needs --scrape ADDR");
    }
    let read_doc = |path: &str| -> serde_json::Value {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
    };

    let mut findings = Vec::new();
    if !scrape_only {
        let metrics_base_path = flag("--metrics-baseline").unwrap_or("METRICS_PR2.json");
        let metrics_base = read_doc(metrics_base_path);

        let perf_cur = measure_perf_doc(quick);
        if let Some(out) = flag("--perf-out") {
            std::fs::write(
                out,
                serde_json::to_string_pretty(&perf_cur).expect("serialize"),
            )
            .unwrap_or_else(|e| panic!("writing {out}: {e}"));
        }
        eprintln!("gate: collecting metrics run...");
        let metrics_cur = experiments::metrics::collect(quick).to_json();
        if let Some(out) = flag("--metrics-out") {
            std::fs::write(
                out,
                serde_json::to_string_pretty(&metrics_cur).expect("serialize"),
            )
            .unwrap_or_else(|e| panic!("writing {out}: {e}"));
        }

        // Per-component floors from the spread of the listed baselines
        // (oldest first); a lone baseline gates at the global ratio.
        let list = flag("--baselines").unwrap_or("BENCH_PR1.json");
        let baselines: Vec<serde_json::Value> = list.split(',').map(read_doc).collect();
        findings.extend(bench::gate::adaptive_perf_gate(
            experiments::perf::COMPONENTS,
            &baselines,
            &perf_cur,
        ));
        findings.extend(bench::gate::metrics_gate(&metrics_base, &metrics_cur));
    }
    if let Some(addr) = scrape_addr {
        let fetch = |path: &str| -> (u16, String) {
            serve::http::http_get(addr, path)
                .unwrap_or_else(|e| panic!("scraping http://{addr}{path}: {e}"))
        };
        let (hz_status, hz_body) = fetch("/healthz");
        let (metrics_status, metrics_text) = fetch("/metrics");
        assert_eq!(
            metrics_status, 200,
            "GET /metrics returned {metrics_status}"
        );
        findings.extend(bench::gate::scrape_gate(hz_status, &hz_body, &metrics_text));
    }
    for f in &findings {
        println!(
            "{} {:32} {}",
            if f.ok { "PASS" } else { "FAIL" },
            f.check,
            f.detail
        );
    }
    let ok = bench::gate::passed(&findings);
    println!(
        "gate: {} ({} checks, {} failed)",
        if ok { "PASS" } else { "FAIL" },
        findings.len(),
        findings.iter().filter(|f| !f.ok).count()
    );
    std::process::exit(i32::from(!ok));
}

/// `metricsjson` mode: one instrumented reference run, serialized whole —
/// histograms, occupancy, frame progress, congestion watermarks vs the
/// Lemma 2.2 bound, and the section profile.
fn metricsjson(quick: bool, out_path: &str) {
    let rep = experiments::metrics::collect(quick);
    std::fs::write(
        out_path,
        serde_json::to_string_pretty(&rep.to_json()).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote metrics artifact to {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    if args.iter().any(|a| a == "perfjson") {
        perfjson(quick, required_out(&args, "perfjson"));
        return;
    }
    if args.iter().any(|a| a == "gate") {
        gate_mode(quick, &args);
    }
    if args.iter().any(|a| a == "metricsjson") {
        metricsjson(quick, required_out(&args, "metricsjson"));
        return;
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut skip_next = false;
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--json" {
                skip_next = true;
                return false;
            }
            !a.starts_with('-')
        })
        .map(std::string::String::as_str)
        .collect();
    let ids: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        experiments::ALL.to_vec()
    } else {
        ids
    };

    if json_path.is_some() {
        sink::begin();
    }
    let total = Instant::now();
    for id in &ids {
        println!("==================== experiment {id} ====================");
        let t0 = Instant::now();
        if !experiments::dispatch(id, quick) {
            eprintln!(
                "unknown experiment '{id}'; available: {}",
                experiments::ALL.join(", ")
            );
            std::process::exit(2);
        }
        println!("[{} finished in {:.1?}]\n", id, t0.elapsed());
    }
    println!("all experiments done in {:.1?}", total.elapsed());
    if let Some(path) = json_path {
        let tables = sink::finish().unwrap_or_default();
        let doc = serde_json::json!({
            "suite": "hotpotato-routing experiments",
            "quick": quick,
            "experiments": ids,
            "tables": tables,
        });
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serialize"),
        )
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote JSON results to {path}");
    }
}
