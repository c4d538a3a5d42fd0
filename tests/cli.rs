//! Integration tests of the `hotpotato` CLI binary.

use std::process::Command;

fn hotpotato(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_hotpotato"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn help_prints_usage() {
    let (_, err, code) = hotpotato(&["--help"]);
    assert_eq!(code, 0);
    assert!(err.contains("usage:"));
    assert!(err.contains("butterfly:K"));
}

#[test]
fn unknown_command_fails() {
    let (_, err, code) = hotpotato(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown command"));
}

#[test]
fn topo_summary_and_dot() {
    let (out, _, code) = hotpotato(&["topo", "butterfly:3"]);
    assert_eq!(code, 0);
    assert!(out.contains("butterfly(3): 32 nodes, 48 edges, depth L = 3"));

    let (dot, _, code) = hotpotato(&["topo", "linear:4", "--dot"]);
    assert_eq!(code, 0);
    assert!(dot.starts_with("digraph"));
    assert_eq!(dot.matches(" -> ").count(), 3);
}

#[test]
fn topo_rejects_bad_specs() {
    for bad in ["nosuch:3", "mesh:8", "mesh:4x4:xx", "butterfly"] {
        let (_, err, code) = hotpotato(&["topo", bad]);
        assert_eq!(code, 2, "spec {bad}");
        assert!(err.contains("error:"), "spec {bad}: {err}");
    }
}

#[test]
fn route_busch_with_verify() {
    let (out, err, code) = hotpotato(&[
        "route",
        "--topo",
        "butterfly:4",
        "--workload",
        "permutation",
        "--algo",
        "busch",
        "--seed",
        "7",
        "--verify",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("delivered 16/16"), "{out}");
    assert!(out.contains("replay:   VERIFIED"), "{out}");
    assert!(out.contains("invariants: Ia=0"), "{out}");
}

#[test]
fn route_with_explicit_params() {
    let (out, _, code) = hotpotato(&[
        "route",
        "--topo",
        "linear:8",
        "--workload",
        "level:0:7",
        "--algo",
        "busch",
        "--params",
        "3,9,0.1,1",
    ]);
    assert_eq!(code, 0);
    assert!(out.contains("m=3 w=9"), "{out}");
    assert!(out.contains("delivered 1/1"), "{out}");
}

#[test]
fn route_all_baselines() {
    for algo in ["greedy", "ftg", "rank", "sf", "sfrank"] {
        let (out, err, code) = hotpotato(&[
            "route",
            "--topo",
            "complete:6x3",
            "--workload",
            "pairs:6",
            "--algo",
            algo,
        ]);
        assert_eq!(code, 0, "algo {algo}: {err}");
        assert!(out.contains("delivered 6/6"), "algo {algo}: {out}");
    }
}

#[test]
fn route_batch_aging_spec() {
    // `aging` is a known algorithm, so batch mode must run it too, not
    // only streaming mode.
    let (out, err, code) = hotpotato(&["route", "--spec", "bf:4/bitrev/aging", "--verify"]);
    assert_eq!(code, 0, "{err}");
    assert!(
        out.contains("aging:") && out.contains("delivered 16/16"),
        "{out}"
    );
    assert!(out.contains("replay:   VERIFIED"), "{out}");
}

#[test]
fn route_verify_skips_buffered_runs() {
    // Store-and-forward packets wait in queues, which the bufferless
    // replay auditor would reject, so `--verify` reports the audit as
    // unavailable and the run still succeeds.
    let (out, err, code) = hotpotato(&["route", "--spec", "bf:4/bitrev/sf", "--verify"]);
    assert_eq!(code, 0, "{err}");
    assert!(
        err.contains("replay:   unavailable (sf does not record moves)"),
        "{err}"
    );
    assert!(
        !out.contains("VERIFIED") && !err.contains("VERIFIED"),
        "{out}"
    );
}

#[test]
fn route_verify_audits_streaming_runs() {
    let (out, err, code) = hotpotato(&[
        "route",
        "--spec",
        "bf:4/pairs:16/greedy/3/poisson:0.5",
        "--verify",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("stream:"), "{out}");
    assert!(out.contains("replay:   VERIFIED"), "{out}");
}

#[test]
fn route_workload_topology_mismatch() {
    let (_, err, code) = hotpotato(&["route", "--topo", "linear:5", "--workload", "permutation"]);
    assert_eq!(code, 2);
    assert!(err.contains("butterfly"), "{err}");
}

#[test]
fn params_calculator_matches_theorem() {
    let (out, _, code) = hotpotato(&["params", "64", "32", "1024"]);
    assert_eq!(code, 0);
    assert!(out.contains("paper parameters for C=64, L=32, N=1024"));
    assert!(out.contains("success ≥"));
    // The Õ factor line mentions ln⁹.
    assert!(out.contains("ln⁹(LN)"));
}

#[test]
fn frames_renders_pipeline() {
    let (out, _, code) = hotpotato(&["frames", "6", "3", "2"]);
    assert_eq!(code, 0);
    assert!(out.contains("phase    0"));
    assert!(out.contains("(all frames gone at phase 12)"));
}

#[test]
fn out_of_range_inputs_get_clean_errors_not_panics() {
    let cases: &[&[&str]] = &[
        &["topo", "butterfly:30"],
        &["topo", "benes:0"],
        &["frames", "6", "2", "1"],
        &["frames", "6", "4", "0"],
        &[
            "route",
            "--topo",
            "linear:5",
            "--workload",
            "level:0:4",
            "--params",
            "2,9,0.1,1",
        ],
    ];
    for args in cases {
        let (_, err, code) = hotpotato(args);
        assert_eq!(code, 2, "args {args:?} must fail cleanly, got: {err}");
        assert!(
            !err.contains("panicked"),
            "args {args:?} panicked instead of erroring: {err}"
        );
    }
}

#[test]
fn route_json_output_is_machine_readable() {
    let (out, err, code) = hotpotato(&[
        "route",
        "--topo",
        "butterfly:4",
        "--workload",
        "pairs:6",
        "--json",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    let doc: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    assert_eq!(doc["algorithm"], "busch");
    assert_eq!(doc["stats"]["deflections"].as_array().unwrap().len(), 6);
    assert!(doc["invariants"]["phase_checks"].as_u64().unwrap() > 0);
    assert!(doc["params"]["m"].as_u64().unwrap() >= 3);
}

#[test]
fn deterministic_given_seed() {
    let run = || {
        hotpotato(&[
            "route",
            "--topo",
            "butterfly:4",
            "--workload",
            "pairs:8",
            "--seed",
            "123",
        ])
        .0
    };
    assert_eq!(run(), run());
}

/// Unknown flags fail before any work, including the retired engine
/// selector: a script passing it must not silently get the default.
#[test]
fn unknown_flags_are_rejected_before_any_work() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["route", "--spec", "bf:4/bitrev/busch", "--engine", "soa"],
            "--engine",
        ),
        (&["route", "--spec", "bf:4/bitrev", "--bogus"], "--bogus"),
        (&["serve", "--run", "bf:4/bitrev", "--bogus"], "--bogus"),
        (
            &[
                "serve",
                "--fleet",
                "--sweep",
                "bf:4/bitrev/busch/1..2",
                "--bogus",
            ],
            "--bogus",
        ),
    ];
    for &(args, flag) in cases {
        let (out, err, code) = hotpotato(args);
        assert_eq!(code, 2, "args {args:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag '{flag}'")),
            "args {args:?}: {err}"
        );
        assert!(
            out.is_empty(),
            "args {args:?} did work before failing: {out}"
        );
    }
}

#[test]
fn malformed_numeric_flags_fail_instead_of_defaulting() {
    // `--addr` names a port that cannot exist: a `serve` that ignored
    // the malformed flag would fail to bind (exit 1) rather than hang.
    let cases: &[(&[&str], &str, &str)] = &[
        (
            &[
                "route",
                "--topo",
                "bf:4",
                "--workload",
                "bitrev",
                "--seed",
                "1O",
            ],
            "--seed",
            "1O",
        ),
        (
            &[
                "route",
                "--spec",
                "bf:4/bitrev/greedy/1/poisson:0.5",
                "--max-in-flight",
                "many",
            ],
            "--max-in-flight",
            "many",
        ),
        (
            &["route", "--spec", "bf:4/bitrev", "--params", "6,48,0.1,x"],
            "--params",
            "x",
        ),
        (
            &[
                "serve",
                "--run",
                "bf:4/bitrev",
                "--addr",
                "127.0.0.1:99999",
                "--rollup-cap",
                "-3",
            ],
            "--rollup-cap",
            "-3",
        ),
        (
            &[
                "serve",
                "--fleet",
                "--sweep",
                "bf:4/bitrev/busch/1..2",
                "--addr",
                "127.0.0.1:99999",
                "--workers",
                "two",
            ],
            "--workers",
            "two",
        ),
    ];
    for &(args, flag, value) in cases {
        let (out, err, code) = hotpotato(args);
        assert_eq!(code, 2, "args {args:?}: {err}");
        assert!(
            err.contains(flag) && err.contains(&format!("'{value}'")),
            "args {args:?}: the error must name the flag and value: {err}"
        );
        assert!(
            out.is_empty(),
            "args {args:?} did work before failing: {out}"
        );
    }
}

#[test]
fn trace_packet_ids_outside_the_universe_are_rejected() {
    // The analytics size per-packet state by packet id, so an id far past
    // the trace's packet universe used to abort on a 32 GB allocation, and
    // so did a meta line claiming more packets than its instance has.
    // The address-space cap makes such an allocation fail fast rather than
    // exhaust the host.
    let meta = r#"{"ev":"meta","schema":4,"topo":"bf:3","workload":"bitrev","algo":"busch","seed":7,"arrival":"","packets":8,"levels":4,"congestion":2,"dilation":3}"#;
    let cases = [
        (
            "lone",
            "{\"ev\":\"deliver\",\"t\":1,\"pkt\":4000000000}\n".to_string(),
            2,
            "line 1: packet 4000000000 outside a universe of 1 packets",
        ),
        (
            "meta",
            format!("{meta}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":8}}\n"),
            2,
            "line 2: packet 8 outside a universe of 8 packets",
        ),
        (
            "claim",
            format!(
                "{}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":3}}\n",
                meta.replace("\"seed\":7", "\"seed\":1")
                    .replace("\"packets\":8", "\"packets\":4000000000")
            ),
            2,
            "meta says 4000000000 packets but reconstruction yields 8",
        ),
        (
            "inside",
            format!("{meta}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":7}}\n"),
            0,
            "",
        ),
    ];
    for (name, text, want, msg) in cases {
        let path = std::env::temp_dir().join(format!(
            "hotpotato-cli-universe-{}-{name}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, text).expect("temp file");
        let out = Command::new("sh")
            .arg("-c")
            .arg("ulimit -v 4000000; exec \"$0\" trace analyze \"$1\"")
            .arg(env!("CARGO_BIN_EXE_hotpotato"))
            .arg(&path)
            .output()
            .expect("sh runs");
        let _ = std::fs::remove_file(&path);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(want), "{name}: {err}");
        assert!(err.contains(msg), "{name}: {err}");
    }
}
