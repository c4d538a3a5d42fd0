//! `tables` must never write a committed gate input by default, and
//! `tables gate` must refuse flags it does not know instead of quietly
//! gating against its defaults. Each case runs the binary in an empty
//! working directory and checks that it exits 2 there having written
//! nothing.

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

    fn files(&self) -> Vec<String> {
        std::fs::read_dir(&self.0)
            .expect("read work dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `tables ARGS` in a fresh directory and asserts a usage error
/// whose message contains `needle`, with nothing printed to stdout and
/// no file written.
fn assert_usage_error(name: &str, args: &[&str], needle: &str) {
    let dir = WorkDir::new(name);
    let out = dir.tables(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert!(dir.files().is_empty(), "{args:?} wrote {:?}", dir.files());
}

#[test]
fn document_writers_require_out() {
    assert_usage_error(
        "perfjson",
        &["perfjson", "--quick"],
        "perfjson needs --out FILE",
    );
    assert_usage_error(
        "metricsjson",
        &["metricsjson", "--quick"],
        "metricsjson needs --out FILE",
    );
    assert_usage_error(
        "perfjson-bare-out",
        &["perfjson", "--quick", "--out"],
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
    // A misspelt `--baselines` would otherwise gate against the default
    // baseline alone; `--perf-out` shows no measurement ran.
    assert_usage_error(
        "gate-typo",
        &["gate", "--quick", "--baseline", "X", "--perf-out", "p.json"],
        "unknown flag '--baseline'",
    );
    assert_usage_error(
        "gate-twice",
        &[
            "gate",
            "--quick",
            "--perf-out",
            "a.json",
            "--perf-out",
            "b.json",
        ],
        "flag '--perf-out' given twice",
    );
    assert_usage_error(
        "gate-stray",
        &["gate", "--quick", "stray", "--perf-out", "p.json"],
        "unexpected argument 'stray'",
    );
}
