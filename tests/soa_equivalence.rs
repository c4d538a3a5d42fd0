//! Golden equivalence of the data-oriented driver against the
//! reference driver.
//!
//! [`BuschRouter::route_reference`] runs the algorithm on the scalar
//! engine ([`hotpotato_sim::Simulation`]) and is the oracle;
//! [`BuschRouter::route_observed`], which every caller uses, runs it on
//! the SoA engine and must reproduce the oracle **bit for bit** —
//! identical `RouteStats` (every array, every counter), identical
//! movement records, and byte-identical JSONL trace streams — on
//! instances that exercise injections, conflicts, both deflection kinds,
//! and wait oscillation.

use busch_router::{BuschConfig, BuschOutcome, BuschRouter, Params};
use hotpotato_sim::{JsonlTraceObserver, RouteStats};
use hotpotato_trace::schema::{self, Trace};
use hotpotato_trace::verify::verify_trace;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec;
use routing_core::RoutingProblem;
use std::sync::Arc;

/// Which Busch driver a run goes through.
#[derive(Clone, Copy)]
enum Driver {
    /// [`BuschRouter::route_observed`] (the SoA engine).
    Soa,
    /// [`BuschRouter::route_reference`] (the scalar oracle).
    Reference,
}

/// Runs the busch router on `problem` through `driver`, capturing the
/// JSONL event stream.
fn run(
    problem: &Arc<RoutingProblem>,
    params: Params,
    driver: Driver,
    seed: u64,
) -> (BuschOutcome, Vec<u8>) {
    let router = BuschRouter::with_config(BuschConfig {
        record: true,
        trace: true,
        ..BuschConfig::new(params)
    });
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = JsonlTraceObserver::new(Vec::new());
    let out = match driver {
        Driver::Soa => router.route_observed(problem, &mut rng, &mut trace),
        Driver::Reference => router.route_reference(problem, &mut rng, &mut trace),
    };
    (out, trace.finish().expect("no io errors"))
}

/// Asserts every field of two `RouteStats` equal, naming the first
/// divergent one.
fn assert_stats_identical(a: &RouteStats, b: &RouteStats) {
    assert_eq!(a.injected_at, b.injected_at, "injected_at");
    assert_eq!(a.delivered_at, b.delivered_at, "delivered_at");
    assert_eq!(a.deflections, b.deflections, "deflections");
    assert_eq!(a.max_deviation, b.max_deviation, "max_deviation");
    assert_eq!(a.steps_run, b.steps_run, "steps_run");
    assert_eq!(a.counters, b.counters, "counters");
    assert_eq!(a.active_trace, b.active_trace, "active_trace");
}

fn assert_outcomes_identical(a: &BuschOutcome, b: &BuschOutcome) {
    assert_stats_identical(&a.stats, &b.stats);
    assert_eq!(a.invariants, b.invariants, "invariant reports");
    assert_eq!(a.set_assignment, b.set_assignment, "set assignment");
    assert_eq!(a.phases_elapsed, b.phases_elapsed, "phases elapsed");
    let (ra, rb) = (
        a.record.as_ref().expect("recording on"),
        b.record.as_ref().expect("recording on"),
    );
    assert_eq!(ra.moves, rb.moves, "movement records");
    assert_eq!(ra.trivial, rb.trivial, "trivial deliveries");
}

/// Both drivers on butterfly(10) bit-reversal — ~1k packets, heavy
/// conflicts — must agree on everything, to the byte.
#[test]
fn soa_matches_scalar_on_butterfly_bitrev() {
    let (_, problem) = spec::reconstruct_problem("butterfly:10", "bitrev", 42).unwrap();
    let params = Params::auto(&problem);
    let (scalar, scalar_trace) = run(&problem, params, Driver::Reference, 7);
    let (soa, soa_trace) = run(&problem, params, Driver::Soa, 7);
    assert!(scalar.stats.all_delivered(), "oracle run must deliver");
    assert_outcomes_identical(&scalar, &soa);
    assert_eq!(
        scalar_trace, soa_trace,
        "JSONL trace streams must be byte-identical"
    );
}

/// Same contract on the §5 mesh application: 8×8 transpose.
#[test]
fn soa_matches_scalar_on_mesh_transpose() {
    let (_, problem) = spec::reconstruct_problem("mesh:8x8", "transpose", 0).unwrap();
    let params = Params::auto(&problem);
    let (scalar, scalar_trace) = run(&problem, params, Driver::Reference, 11);
    let (soa, soa_trace) = run(&problem, params, Driver::Soa, 11);
    assert!(scalar.stats.all_delivered(), "oracle run must deliver");
    assert_outcomes_identical(&scalar, &soa);
    assert_eq!(scalar_trace, soa_trace, "JSONL trace streams");
}

/// The SoA engine's trace stream passes the offline verifier: wrap the
/// events in the meta/stats envelope the CLI writes and re-run the
/// whole stream against the model from scratch.
#[test]
fn soa_trace_verifies_offline() {
    let (topo, problem) = spec::reconstruct_problem("butterfly:10", "bitrev", 42).unwrap();
    let params = Params::auto(&problem);
    let (out, events) = run(&problem, params, Driver::Soa, 7);
    let meta = schema::Meta {
        schema: schema::SCHEMA_VERSION,
        topo: "butterfly:10".into(),
        workload: "bitrev".into(),
        algo: "busch".into(),
        seed: 42,
        arrival: String::new(),
        packets: problem.num_packets() as u64,
        levels: topo.net.num_levels() as u64,
        congestion: u64::from(problem.congestion()),
        dilation: u64::from(problem.dilation()),
    };
    let mut text = schema::meta_line(&meta);
    text.push('\n');
    text.push_str(std::str::from_utf8(&events).unwrap());
    text.push_str(&schema::stats_line(&out.stats));
    text.push('\n');
    let trace = Trace::parse(&text).expect("trace parses");
    let report = verify_trace(&trace).expect("SoA trace verifies clean");
    assert_eq!(report.delivered, problem.num_packets());
    assert!(report.replay_cross_checked);
}
