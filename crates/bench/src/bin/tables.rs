//! Experiment driver: regenerates every figure and evaluation table.
//!
//! ```text
//! cargo run -p bench --release --bin tables -- all            # everything
//! cargo run -p bench --release --bin tables -- t1 t4          # selected
//! cargo run -p bench --release --bin tables -- all --quick    # smaller sweeps
//! cargo run -p bench --release --bin tables -- all --json out.json
//! cargo run -p bench --release --bin tables -- metricsjson --out F  # metrics document
//! cargo run -p bench --release --bin tables -- gate           # telemetry gate
//!     [--metrics-baseline F] [--metrics-out F]
//!     [--scrape ADDR] [--scrape-only]
//! ```
//!
//! A mode (`metricsjson`, `gate`) is the first argument; anything else
//! names experiments. Every mode takes only the flags shown, each at
//! most once (`-q` is
//! `--quick`, which `gate` does not take); an unknown flag, a flag
//! missing its value, a stray argument or an unknown experiment id exits
//! 2 before anything runs. So does an input or output file that cannot
//! be read or written, or a `--scrape` address that does not answer.
//! `gate` routes the full-size metrics instance and holds it to
//! `--metrics-baseline` (default `METRICS_PR2.json`; see
//! [`bench::gate::metrics_gate`]). `--scrape ADDR` adds
//! liveness/exposition checks against a running `hotpotato serve`
//! (`--scrape-only` skips the metrics run entirely and takes no metrics
//! flag — what the CI smoke jobs use). Speed is measured by
//! `examples/hpbench`, not here.

use bench::experiments;
use bench::table::sink;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Prints `error: MSG` and exits 2, the usage-error code.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The flags and words of a `tables` invocation: every argument must be
/// one of `switches`, one of `valued` followed by its value, or a word
/// (anything not starting with `-`), and no flag may repeat. A switch
/// maps to `""`; `-q` is `--quick` where that is a switch. Anything else
/// is a usage error naming `context`.
fn parse_args<'a>(
    args: &'a [String],
    context: &str,
    valued: &[&str],
    switches: &[&str],
) -> (BTreeMap<&'a str, &'a str>, Vec<&'a str>) {
    let mut flags = BTreeMap::new();
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = match arg.as_str() {
            "-q" if switches.contains(&"--quick") => "--quick",
            name => name,
        };
        let value = if valued.contains(&name) {
            match it.next() {
                Some(v) => v.as_str(),
                None => usage_error(&format!("flag '{name}' needs a value")),
            }
        } else if switches.contains(&name) {
            ""
        } else if name.starts_with('-') {
            usage_error(&format!("unknown flag '{name}' for {context}"))
        } else {
            words.push(name);
            continue;
        };
        if flags.insert(name, value).is_some() {
            usage_error(&format!("flag '{name}' given twice"));
        }
    }
    (flags, words)
}

/// The flags of a `metricsjson` or `gate` invocation, whose only word is
/// the `mode` itself, its first argument.
fn mode_flags<'a>(
    args: &'a [String],
    mode: &str,
    valued: &[&str],
    switches: &[&str],
) -> BTreeMap<&'a str, &'a str> {
    let (flags, words) = parse_args(&args[1..], mode, valued, switches);
    if let Some(stray) = words.first() {
        usage_error(&format!("unexpected argument '{stray}' for {mode}"));
    }
    flags
}

/// Creates the output file `path` up front, so one that cannot be
/// written fails before anything is measured.
fn create_out(path: &str) -> std::fs::File {
    std::fs::File::create(path).unwrap_or_else(|e| usage_error(&format!("writing {path}: {e}")))
}

/// Writes `doc` pretty-printed to `file`, created by [`create_out`].
fn write_doc(mut file: std::fs::File, path: &str, doc: &serde_json::Value) {
    let text = serde_json::to_string_pretty(doc).expect("serialize");
    file.write_all(text.as_bytes())
        .unwrap_or_else(|e| usage_error(&format!("writing {path}: {e}")));
}

/// Reads and parses the JSON document at `path`, `what` naming it in
/// the error.
fn read_doc(path: &str, what: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("reading {what} {path}: {e}")));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| usage_error(&format!("parsing {what} {path}: {e}")))
}

/// `gate` mode: routes the full-size metrics instance, compares it
/// against the committed baseline, optionally checks a live scrape, and
/// exits 1 on any failed check (see [`bench::gate`]).
fn gate_mode(args: &[String]) -> ! {
    let flags = mode_flags(
        args,
        "gate",
        &["--metrics-baseline", "--metrics-out", "--scrape"],
        &["--scrape-only"],
    );
    let flag = |name: &str| flags.get(name).copied();
    let scrape_addr = flag("--scrape");
    let scrape_only = flag("--scrape-only").is_some();
    if scrape_only && scrape_addr.is_none() {
        usage_error("--scrape-only needs --scrape ADDR");
    }
    if let Some(name) = ["--metrics-baseline", "--metrics-out"]
        .into_iter()
        .find(|name| scrape_only && flags.contains_key(name))
    {
        usage_error(&format!(
            "--scrape-only runs no metrics; it cannot be combined with {name}"
        ));
    }
    // Inputs first (the baseline, then the scrape), so a missing one
    // leaves no empty `--metrics-out` behind.
    let metrics_base = (!scrape_only).then(|| {
        let path = flag("--metrics-baseline").unwrap_or("METRICS_PR2.json");
        read_doc(path, "metrics baseline")
    });
    let scraped = scrape_addr.map(|addr| {
        let fetch = |path: &str| -> (u16, String) {
            serve::http::http_get(addr, path)
                .unwrap_or_else(|e| usage_error(&format!("scraping http://{addr}{path}: {e}")))
        };
        (fetch("/healthz"), fetch("/metrics"))
    });
    let metrics_out = flag("--metrics-out").map(|out| (out, create_out(out)));

    let mut findings = Vec::new();
    if let Some(metrics_base) = metrics_base {
        eprintln!("gate: collecting metrics run...");
        let metrics_cur = experiments::metrics::collect(false).to_json();
        if let Some((path, file)) = metrics_out {
            write_doc(file, path, &metrics_cur);
        }
        findings.extend(bench::gate::metrics_gate(&metrics_base, &metrics_cur));
    }
    if let Some(((hz_status, hz_body), (metrics_status, metrics_text))) = scraped {
        findings.extend(bench::gate::scrape_gate(
            hz_status,
            &hz_body,
            metrics_status,
            &metrics_text,
        ));
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
/// Lemma 2.2 bound, and the section profile. `--out FILE` is required:
/// there is no default, so a committed document is never overwritten by
/// accident.
fn metricsjson(args: &[String]) {
    let flags = mode_flags(args, "metricsjson", &["--out"], &["--quick"]);
    let Some(&out_path) = flags.get("--out") else {
        usage_error("metricsjson needs --out FILE");
    };
    let file = create_out(out_path);
    let rep = experiments::metrics::collect(flags.contains_key("--quick"));
    write_doc(file, out_path, &rep.to_json());
    println!("wrote metrics artifact to {out_path}");
}

/// Experiment mode: runs the named experiments (all of them for none or
/// `all`) and optionally writes their tables as one JSON document.
fn experiments_mode(args: &[String]) {
    let (flags, ids) = parse_args(args, "experiments", &["--json"], &["--quick"]);
    let quick = flags.contains_key("--quick");
    if let Some(id) = ids
        .iter()
        .find(|id| **id != "all" && !experiments::ALL.contains(id))
    {
        usage_error(&format!(
            "unknown experiment '{id}'; available: {}",
            experiments::ALL.join(", ")
        ));
    }
    let ids: Vec<&str> = if ids.is_empty() || ids.contains(&"all") {
        experiments::ALL.to_vec()
    } else {
        ids
    };
    let json_out = flags.get("--json").map(|&path| (path, create_out(path)));

    if json_out.is_some() {
        sink::begin();
    }
    let total = Instant::now();
    for id in &ids {
        println!("==================== experiment {id} ====================");
        let t0 = Instant::now();
        assert!(experiments::dispatch(id, quick), "'{id}' is in ALL");
        println!("[{} finished in {:.1?}]\n", id, t0.elapsed());
    }
    println!("all experiments done in {:.1?}", total.elapsed());
    if let Some((path, file)) = json_out {
        let tables = sink::finish().unwrap_or_default();
        let doc = serde_json::json!({
            "suite": "hotpotato-routing experiments",
            "quick": quick,
            "experiments": ids,
            "tables": tables,
        });
        write_doc(file, path, &doc);
        println!("wrote JSON results to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The mode is the first argument only: a flag value spelt like a
    // mode (`all --json gate`) names a file, not a mode.
    match args.first().map(String::as_str) {
        Some("gate") => gate_mode(&args),
        Some("metricsjson") => metricsjson(&args),
        _ => experiments_mode(&args),
    }
}
