//! `tables` must never write a committed gate input by default, every
//! mode must refuse flags and words it does not know instead of quietly
//! running with its defaults, and a gate input or output that cannot be
//! used is an error, not a panic. Each case runs the binary in a working
//! directory of its own and checks that it exits 2 there before running
//! anything, having written nothing. The gate itself must fail (exit 1)
//! against a baseline its run does not reproduce.

use std::path::PathBuf;
use std::process::{Command, Output};

/// An empty directory of this test's own, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> WorkDir {
        let dir = std::env::temp_dir().join(format!("tables-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work dir");
        WorkDir(dir)
    }

    fn tables(&self, args: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .current_dir(&self.0)
            .output()
            .expect("run tables")
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_string_lossy().into_owned()
    }

    fn files(&self) -> Vec<String> {
        let mut files: Vec<String> = std::fs::read_dir(&self.0)
            .expect("read work dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        files.sort();
        files
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The committed metrics baseline.
fn committed_metrics() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_PR2.json");
    std::fs::read_to_string(path).expect("read METRICS_PR2.json")
}

/// Writes `text` into `dir` as `file`.
fn put_doc(dir: &WorkDir, file: &str, text: &str) {
    std::fs::write(dir.path(file), text).expect("write doc");
}

/// Runs `tables ARGS` in `dir` and asserts a usage error whose message
/// contains `needle`, with nothing printed to stdout and no file added.
fn assert_usage_error_in(dir: &WorkDir, args: &[&str], needle: &str) {
    let before = dir.files();
    let out = dir.tables(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_eq!(dir.files(), before, "{args:?} wrote a file");
}

/// [`assert_usage_error_in`] in a fresh, empty directory.
fn assert_usage_error(name: &str, args: &[&str], needle: &str) {
    assert_usage_error_in(&WorkDir::new(name), args, needle);
}

#[test]
fn metricsjson_requires_out() {
    assert_usage_error(
        "metricsjson",
        &["metricsjson", "--quick"],
        "metricsjson needs --out FILE",
    );
    assert_usage_error(
        "metricsjson-bare-out",
        &["metricsjson", "--quick", "--out"],
        "flag '--out' needs a value",
    );
    assert_usage_error(
        "metricsjson-twice",
        &["metricsjson", "--out", "a.json", "--out", "b.json"],
        "flag '--out' given twice",
    );
}

#[test]
fn gate_rejects_unknown_and_repeated_flags_before_measuring() {
    // A misspelt `--metrics-baseline` would otherwise gate against the
    // default baseline; `--metrics-out` shows no measurement ran.
    assert_usage_error(
        "gate-typo",
        &["gate", "--metrics-baselin", "X", "--metrics-out", "m.json"],
        "unknown flag '--metrics-baselin'",
    );
    assert_usage_error(
        "gate-twice",
        &["gate", "--metrics-out", "a.json", "--metrics-out", "b.json"],
        "flag '--metrics-out' given twice",
    );
    // `--scrape-only` runs no metrics, so a metrics flag beside it would
    // be silently dropped.
    assert_usage_error(
        "gate-scrape-only-out",
        &[
            "gate",
            "--scrape",
            "127.0.0.1:1",
            "--scrape-only",
            "--metrics-out",
            "m.json",
        ],
        "cannot be combined with --metrics-out",
    );
    assert_usage_error(
        "gate-stray",
        &["gate", "stray", "--metrics-out", "m.json"],
        "unexpected argument 'stray'",
    );
}

#[test]
fn experiments_check_ids_and_flags_before_running() {
    assert_usage_error("f1-bogus", &["f1", "bogus"], "unknown experiment 'bogus'");
    assert_usage_error("f1-typo", &["f1", "--qiuck"], "unknown flag '--qiuck'");
    assert_usage_error(
        "f1-bare-json",
        &["f1", "--json"],
        "flag '--json' needs a value",
    );
    assert_usage_error(
        "f1-quick-twice",
        &["f1", "-q", "--quick"],
        "flag '--quick' given twice",
    );
}

#[test]
fn the_mode_is_the_first_argument_only() {
    // A `--json` value spelt like a mode names the output file.
    for mode in ["gate", "metricsjson"] {
        let dir = WorkDir::new(&format!("json-{mode}"));
        let out = dir.tables(&["f2", "--quick", "--json", mode]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{mode}: {stderr}");
        assert_eq!(dir.files(), vec![mode.to_string()]);
        let doc = std::fs::read_to_string(dir.path(mode)).expect("read the document");
        serde_json::from_str(&doc).expect("the document is JSON");
    }
    // A mode word after the first argument is an experiment id.
    assert_usage_error(
        "late-gate",
        &["--quick", "gate"],
        "unknown experiment 'gate'",
    );
}

#[test]
fn the_retired_perf_harness_is_gone() {
    assert_usage_error("perf", &["perf"], "unknown experiment 'perf'");
    assert_usage_error(
        "perfjson",
        &["perfjson", "--out", "x.json"],
        "unknown flag '--out'",
    );
    assert_usage_error(
        "gate-baselines",
        &["gate", "--baselines", "X"],
        "unknown flag '--baselines'",
    );
    assert_usage_error(
        "gate-perf-out",
        &["gate", "--perf-out", "p.json"],
        "unknown flag '--perf-out'",
    );
    assert_usage_error("gate-quick", &["gate", "--quick"], "unknown flag '--quick'");
}

#[test]
fn gate_inputs_and_outputs_that_cannot_be_used_are_errors() {
    // No `METRICS_PR2.json` in the working directory.
    assert_usage_error(
        "gate-no-baseline",
        &["gate", "--metrics-out", "m.json"],
        "reading metrics baseline METRICS_PR2.json",
    );
    let dir = WorkDir::new("gate-bad-inputs");
    std::fs::write(dir.path("broken.json"), "{ not json").expect("write");
    assert_usage_error_in(
        &dir,
        &["gate", "--metrics-baseline", "broken.json"],
        "parsing metrics baseline broken.json",
    );
    put_doc(&dir, "base.json", &committed_metrics());
    assert_usage_error_in(
        &dir,
        &[
            "gate",
            "--metrics-baseline",
            "base.json",
            "--metrics-out",
            "no/such/dir/m.json",
        ],
        "writing no/such/dir/m.json",
    );
    // A port nothing listens on: bound, then released.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind")
        .port();
    let addr = format!("127.0.0.1:{port}");
    assert_usage_error_in(
        &dir,
        &["gate", "--scrape", &addr, "--scrape-only"],
        &format!("scraping http://{addr}/healthz"),
    );
    // The scrape is fetched before `--metrics-out` is created, so a dead
    // address leaves no file behind and overwrites none, not even the
    // baseline itself.
    for out in ["m.json", "base.json"] {
        assert_usage_error_in(
            &dir,
            &[
                "gate",
                "--metrics-baseline",
                "base.json",
                "--metrics-out",
                out,
                "--scrape",
                &addr,
            ],
            &format!("scraping http://{addr}/healthz"),
        );
    }
    let base = std::fs::read_to_string(dir.path("base.json")).expect("read base.json");
    assert_eq!(base, committed_metrics(), "the baseline was overwritten");
}

#[test]
fn full_size_gate_checks_the_baseline_exactly() {
    let dir = WorkDir::new("gate-full");
    let doc = committed_metrics();
    put_doc(&dir, "METRICS_PR2.json", &doc);
    let out = dir.tables(&["gate", "--metrics-out", "m.json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    for check in [
        "metrics/makespan",
        "metrics/deflections",
        "metrics/watermark-exact",
    ] {
        assert!(stdout.contains(&format!("PASS {check} ")), "{stdout}");
    }
    assert!(
        dir.files().contains(&"m.json".to_owned()),
        "no --metrics-out"
    );

    // One step of drift in the baseline's makespan must fail the gate.
    let drift = doc.replace("\"makespan\": 64004,", "\"makespan\": 64005,");
    assert_ne!(drift, doc, "METRICS_PR2.json's makespan is 64004");
    put_doc(&dir, "drift.json", &drift);
    let out = dir.tables(&["gate", "--metrics-baseline", "drift.json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL metrics/makespan "), "{stdout}");
}
