//! Byte-level goldens of the `route --metrics-out` document.
//!
//! The document mixes what only a live observer measures (occupancy,
//! frame progress, per-set congestion) with counts the trace analytics
//! also keep (steps, phases, deflections by packet, level and phase).
//! These goldens pin the exact bytes on three runs that cover its
//! shapes: a phased Busch run, a phase-less run with deflections (whose
//! `by_phase` is one whole-run cell) and a phase-less streaming run with
//! none (whose `by_phase` is empty).
//!
//! To regenerate after an *intentional* change to the document:
//!
//! ```text
//! HOTPOTATO_BLESS=1 cargo test --test metrics_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

/// Runs `route --spec SPEC --metrics-out` and compares the written file
/// with the committed golden `name`, byte for byte; with
/// `HOTPOTATO_BLESS=1`, rewrites the golden instead.
fn check(spec: &str, name: &str) {
    let written = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let out = Command::new(env!("CARGO_BIN_EXE_hotpotato"))
        .args(["route", "--spec", spec, "--metrics-out"])
        .arg(&written)
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{spec}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = std::fs::read(&written).expect("metrics document written");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var("HOTPOTATO_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&golden, &got).unwrap();
        eprintln!("blessed {}", golden.display());
        return;
    }
    let want = std::fs::read(&golden)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless with HOTPOTATO_BLESS=1"));
    if got != want {
        let (got, want) = (
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
        );
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{spec}: metrics document diverged from golden {name} at line {} \
             (got {:?}, want {:?})",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
        );
    }
}

#[test]
fn busch_metrics_document_matches_golden() {
    check("bf:8/bitrev/busch/7", "metrics_busch_bf8_bitrev7.json");
}

#[test]
fn phaseless_metrics_document_with_deflections_matches_golden() {
    check("bf:6/bitrev/ftg/3", "metrics_ftg_bf6_bitrev3.json");
}

#[test]
fn streaming_metrics_document_without_deflections_matches_golden() {
    check(
        "bf:8/pairs:64/greedy/7/poisson:0.5",
        "metrics_greedy_bf8_pairs64_poisson.json",
    );
}
