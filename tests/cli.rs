//! Integration tests of the `hotpotato` CLI binary.

use std::process::Command;

fn hotpotato(args: &[&str]) -> (String, String, i32) {
    run(Command::new(env!("CARGO_BIN_EXE_hotpotato")).args(args))
}

/// [`hotpotato`] under a 4 GB address-space cap, so an unbounded
/// allocation fails fast (exit 134) rather than exhaust the host.
fn hotpotato_capped(args: &[&str]) -> (String, String, i32) {
    run(Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 4000000; exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_hotpotato"))
        .args(args))
}

fn run(cmd: &mut Command) -> (String, String, i32) {
    let out = cmd.output().expect("binary runs");
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
    // Under the address-space cap, a spec whose network would not fit in
    // memory must fail on its computed size before anything is built.
    let too_big = |spec| format!("topology '{spec}' exceeds");
    let cases = [
        ("nosuch:3", "unknown topology 'nosuch'".to_string()),
        ("mesh:8", "mesh needs RxC".to_string()),
        ("mesh:4x4:xx", "unknown mesh corner 'xx'".to_string()),
        (
            "butterfly",
            "topology 'butterfly' needs an argument".to_string(),
        ),
        ("linear:4000000000", too_big("linear:4000000000")),
        ("mesh:100000x100000", too_big("mesh:100000x100000")),
        ("complete:4000000000x2", too_big("complete:4000000000x2")),
        ("fattree:40:4000000000", too_big("fattree:40:4000000000")),
        ("tree:40", too_big("tree:40")),
        ("bf:27", too_big("bf:27")),
        ("random:4000000000:9", too_big("random:4000000000:9")),
        (
            "hypercube:40",
            "hypercube dimension 40 out of range".to_string(),
        ),
    ];
    for (bad, msg) in cases {
        let (out, err, code) = hotpotato_capped(&["topo", bad]);
        assert_eq!(code, 2, "spec {bad}: {err}");
        assert!(err.contains(&format!("error: {msg}")), "spec {bad}: {err}");
        assert!(out.is_empty(), "spec {bad}: {out}");
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

/// Busch at the paper's literal parameters (`hotpotato params 2 3 8`,
/// rounded) schedules about 9.5e8 steps for bf(3)'s 8 packets, nearly all
/// idle or quiet; the router jumps those windows instead of grinding
/// them, so the run takes milliseconds.
#[test]
fn route_at_literal_paper_parameters() {
    let (out, err, code) = hotpotato(&[
        "route",
        "--spec",
        "bf:3/bitrev/busch/1",
        "--params",
        "16,141100,0.00138,26",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(
        out.contains("delivered 8/8 in 864660803 steps (makespan Some(864660803), mean latency 3.0, 0 deflections, max deviation 0)"),
        "{out}"
    );
    assert!(
        out.contains(
            "invariants: Ia=0 Ib(unsafe)=0 Ib(paths)=0 Ic=0 Id=0 Ie=0 If=0 (383 phase checks)"
        ),
        "{out}"
    );
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

/// The flag path checks the algorithm as `--spec` does, before any work.
#[test]
fn route_rejects_an_unknown_algo_before_any_work() {
    for args in [
        &[
            "route",
            "--topo",
            "bf:3",
            "--workload",
            "bitrev",
            "--algo",
            "nosuch",
        ][..],
        &["route", "--spec", "bf:3/bitrev/nosuch/1"],
    ] {
        let (out, err, code) = hotpotato(args);
        assert_eq!(code, 2, "args {args:?}: {err}");
        assert!(
            err.contains("error: unknown algorithm 'nosuch' (known: busch|"),
            "args {args:?}: {err}"
        );
        assert!(
            out.is_empty(),
            "args {args:?} did work before failing: {out}"
        );
    }
}

/// `hotpotato route` and the fleet route one spec through the same run
/// plan, so they agree on the run, batch and streaming alike.
#[test]
fn route_and_the_fleet_route_the_same_run() {
    for spec in [
        "bf:7/bitrev/busch/3",
        "bf:8/pairs:64/greedy/3",
        "bf:8/pairs:64/ftg/3/poisson:4",
        "mesh:8x8/hotspot:12:1/sf/3",
    ] {
        let (out, err, code) = hotpotato(&["route", "--spec", spec, "--json"]);
        assert_eq!(code, 0, "{spec}: {err}");
        let doc: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
        let stats = &doc["stats"];
        let delivered = stats["delivered_at"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|t| !t.is_null())
            .count() as u64;
        let deflections: u64 = stats["deflections"]
            .as_array()
            .unwrap()
            .iter()
            .map(|d| d.as_u64().unwrap())
            .sum();
        let run = routing_core::spec::parse_run_spec(spec).unwrap();
        let sample = serve::run_fleet_spec(&run, false).unwrap();
        assert_eq!(stats["steps_run"].as_u64(), Some(sample.steps), "{spec}");
        assert_eq!(delivered, sample.delivered, "{spec}");
        assert_eq!(deflections, sample.deflections, "{spec}");
        assert!(delivered > 0, "{spec}");
    }
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
            "unknown flag '--engine'",
        ),
        (
            &["route", "--spec", "bf:4/bitrev", "--bogus"],
            "unknown flag '--bogus'",
        ),
        (
            &["serve", "--run", "bf:4/bitrev", "--bogus"],
            "unknown flag '--bogus'",
        ),
        (
            &[
                "serve",
                "--fleet",
                "--sweep",
                "bf:4/bitrev/busch/1..2",
                "--bogus",
            ],
            "unknown flag '--bogus'",
        ),
        // The positional commands: stray arguments and malformed numbers
        // fail by name instead of being skipped.
        (&["topo", "bf:3", "--bogus"], "unknown flag '--bogus'"),
        (&["topo", "bf:3", "extra"], "unexpected argument 'extra'"),
        (&["frames", "8", "x", "4", "2"], "unexpected argument '2'"),
        (&["frames", "8", "x", "4"], "<m> wants a number (got 'x')"),
        (
            &["params", "64", "x", "32", "1024"],
            "unexpected argument '1024'",
        ),
        (&["params", "64", "x", "32"], "<L> wants a number (got 'x')"),
        (
            &["trace", "analyze", "run.jsonl", "--bogus"],
            "unknown flag '--bogus'",
        ),
        (
            &["trace", "verify", "run.jsonl", "--bogus"],
            "unknown flag '--bogus'",
        ),
        (
            &["trace", "convert", "a.jsonl", "b.hpt", "c"],
            "unexpected argument 'c'",
        ),
        (
            &["trace", "diff", "a.jsonl", "b.jsonl", "--bogus"],
            "unknown flag '--bogus'",
        ),
    ];
    for &(args, want) in cases {
        let (out, err, code) = hotpotato(args);
        assert_eq!(code, 2, "args {args:?}: {err}");
        assert!(err.contains(want), "args {args:?}: {err}");
        assert!(
            out.is_empty(),
            "args {args:?} did work before failing: {out}"
        );
    }
}

/// A flag given twice, or a `--spec` beside a flag naming part of the
/// run it already names, fails by name instead of one value silently
/// winning.
#[test]
fn repeated_and_conflicting_flags_are_rejected() {
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "route",
                "--topo",
                "bf:5",
                "--workload",
                "pairs:12",
                "--seed",
                "1",
                "--seed",
                "2",
            ],
            "flag '--seed' given twice",
        ),
        (
            &[
                "route",
                "--spec",
                "bf:5/pairs:12/busch/1",
                "--json",
                "--json",
            ],
            "flag '--json' given twice",
        ),
        (
            &["topo", "bf:3", "--dot", "--dot"],
            "flag '--dot' given twice",
        ),
        (
            &[
                "serve",
                "--run",
                "bf:4/bitrev",
                "--addr",
                "127.0.0.1:1",
                "--addr",
                "127.0.0.1:2",
            ],
            "flag '--addr' given twice",
        ),
        (
            &["trace", "analyze", "a.jsonl", "--out", "x", "--out", "y"],
            "flag '--out' given twice",
        ),
        (
            &[
                "route",
                "--spec",
                "bf:5/pairs:12/busch/1",
                "--algo",
                "greedy",
            ],
            "--spec names the whole run; it cannot be combined with --algo",
        ),
        (
            &["route", "--spec", "bf:5/pairs:12/busch/1", "--seed", "2"],
            "--spec names the whole run; it cannot be combined with --seed",
        ),
        (
            &["route", "--spec", "bf:5/pairs:12", "--topo", "bf:6"],
            "--spec names the whole run; it cannot be combined with --topo",
        ),
        (
            &["route", "--spec", "bf:5/pairs:12", "--workload", "bitrev"],
            "--spec names the whole run; it cannot be combined with --workload",
        ),
    ];
    for &(args, want) in cases {
        let (out, err, code) = hotpotato(args);
        assert_eq!(code, 2, "args {args:?}: {err}");
        assert!(err.contains(want), "args {args:?}: {err}");
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
    // so did a meta line claiming more packets than its instance has, and
    // one naming a workload that states more packets than the meta claims
    // (a 128 GB reservation while rebuilding the instance), and one
    // naming a topology too large to build.
    let meta = r#"{"ev":"meta","schema":5,"topo":"bf:3","workload":"bitrev","algo":"busch","seed":7,"arrival":"","packets":8,"levels":4,"congestion":2,"dilation":3}"#;
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
            "workload",
            format!(
                "{}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":3}}\n",
                meta.replace("\"bitrev\"", "\"m2m:4000000000\"")
            ),
            2,
            "meta says 8 packets but workload 'm2m:4000000000' states 4000000000",
        ),
        (
            "inside",
            format!("{meta}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":7}}\n"),
            0,
            "",
        ),
        // A meta naming a topology too large to build analyzes without an
        // instance, as one naming no topology does; building it aborted.
        (
            "topology",
            format!(
                "{}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":1}}\n",
                meta.replace("\"bf:3\"", "\"bf:27\"")
            ),
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
        let (_, err, code) = hotpotato_capped(&["trace", "analyze", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert_eq!(code, want, "{name}: {err}");
        assert!(err.contains(msg), "{name}: {err}");
    }
}

#[test]
fn route_rejects_step_caps_on_batch_runs() {
    // The admission bounds and the step cap belong to the streaming loop;
    // a batch run used to accept and ignore them (12 steps, exit 0).
    for flag in ["--max-steps", "--max-in-flight", "--max-deferred"] {
        let (out, err, code) = hotpotato(&["route", "--spec", "bf:6/bitrev/greedy/1", flag, "1"]);
        assert_eq!(code, 2, "{flag}: {err}");
        assert!(
            err.contains(flag),
            "{flag}: the error must name the flag: {err}"
        );
        assert!(out.is_empty(), "{flag}: did work before failing: {out}");
    }
    // A streaming run keeps them: one step cannot drain it.
    let (out, err, code) = hotpotato(&[
        "route",
        "--spec",
        "bf:6/bitrev/greedy/1/poisson:0.5",
        "--max-steps",
        "1",
    ]);
    assert_eq!(code, 1, "{err}");
    assert!(out.contains("in 1 steps"), "{out}");
}

#[test]
fn route_ends_quietly_when_its_reader_closes() {
    // `route … --json | head` used to panic on the broken pipe (exit 101,
    // "failed printing to stdout" on stderr).
    let mut child = Command::new(env!("CARGO_BIN_EXE_hotpotato"))
        .args(["route", "--spec", "bf:8/bitrev/busch/7", "--json"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.is_empty(), "{err}");
}

#[test]
fn build_work_over_the_budget_is_rejected() {
    // Inside the packet budget, but 16,000,000 packets on bf(12) is far
    // more build work than the budget admits. Each entry point must
    // refuse it before drawing a path; `timeout` ends a build that
    // slipped past the budget.
    let meta = r#"{"ev":"meta","schema":5,"topo":"bf:12","workload":"m2m:16000000","algo":"greedy","seed":1,"arrival":"","packets":16000000,"levels":13,"congestion":0,"dilation":0}"#;
    let path = std::env::temp_dir().join(format!(
        "hotpotato-cli-build-work-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(
        &path,
        format!("{meta}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":0}}\n"),
    )
    .expect("temp file");
    let trace = path.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &["route", "--spec", "bf:12/m2m:16000000/greedy/1"],
        &["route", "--topo", "bf:12", "--workload", "m2m:16000000"],
        &[
            "serve",
            "--run",
            "bf:12/m2m:16000000/greedy/1",
            "--addr",
            "127.0.0.1:0",
        ],
        &["trace", "analyze", trace],
        &["trace", "verify", trace],
    ];
    // A fleet counts the run as failed and keeps serving, with this
    // error (`serve::fleet`'s tests).
    for args in cases {
        let (out, err, code) = run(Command::new("timeout")
            .arg("60")
            .arg(env!("CARGO_BIN_EXE_hotpotato"))
            .args(*args));
        assert_eq!(code, 2, "args {args:?}: {err}");
        assert!(
            err.contains(
                "workload 'm2m:16000000' on butterfly(12) states 16000000 packets on 151552 \
                 nodes plus edges: 2424832000000 units of build work, over the budget of 4294967296"
            ),
            "args {args:?}: {err}"
        );
        assert!(
            out.is_empty(),
            "args {args:?}: did work before failing: {out}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stated_packet_counts_over_the_budget_are_rejected() {
    // Each names a workload stating four billion packets. `linear:1` has
    // no source node, so a build that slipped past the budget would fail
    // at once rather than exhaust memory.
    let meta = r#"{"ev":"meta","schema":5,"topo":"linear:1","workload":"m2m:4000000000","algo":"greedy","seed":1,"arrival":"","packets":4000000000,"levels":1,"congestion":0,"dilation":0}"#;
    let path =
        std::env::temp_dir().join(format!("hotpotato-cli-budget-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        format!("{meta}\n{{\"ev\":\"deliver\",\"t\":1,\"pkt\":0}}\n"),
    )
    .expect("temp file");
    let trace = path.to_str().unwrap();
    let cases: &[&[&str]] = &[
        &["route", "--spec", "linear:1/m2m:4000000000"],
        &[
            "route",
            "--topo",
            "linear:1",
            "--workload",
            "hotspot:4000000000:1",
        ],
        &[
            "serve",
            "--run",
            "linear:1/funnel:4000000000",
            "--addr",
            "127.0.0.1:99999",
        ],
        &[
            "serve",
            "--fleet",
            "--sweep",
            "linear:1/pairs:4000000000/greedy/1..2",
            "--addr",
            "127.0.0.1:99999",
        ],
        &["trace", "analyze", trace],
        &["trace", "verify", trace],
    ];
    for args in cases {
        let (out, err, code) = hotpotato_capped(args);
        assert_eq!(code, 2, "args {args:?}: {err}");
        assert!(
            err.contains("states 4000000000 packets, over the budget of 16777216"),
            "args {args:?}: {err}"
        );
        assert!(
            out.is_empty(),
            "args {args:?}: did work before failing: {out}"
        );
    }
    let _ = std::fs::remove_file(&path);
}
