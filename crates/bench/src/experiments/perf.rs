//! PERF — simulator throughput (not a paper artifact).
//!
//! Wall-clock throughput of the substrates on fixed large instances:
//! engine steps per second, packet-moves per second, and replay-audit
//! throughput. Complements the Criterion micro-benchmarks with
//! human-readable end-to-end numbers for capacity planning of experiment
//! sweeps.
//!
//! Each component is re-run until its cumulative wall time reaches
//! [`MIN_COMPONENT_WALL_S`] (non-quick mode) and reports its **fastest**
//! run — sub-millisecond components (the greedy router finishes bf(12)
//! in ~1 ms) would otherwise report timer-granularity noise as
//! throughput. The large-instance suite ([`measure_large`]) exercises
//! the data-oriented engine at bf(14) (quick) / bf(16) with a packet on
//! every non-final node — the million-packet saturation target — with
//! invariant audits on. The
//! steady-state suite ([`measure_streaming`]) drives a continuous
//! Poisson injection stream through the admission-controlled streaming
//! loop and reports the sustained delivery rate. The trace-pipeline
//! suite ([`measure_verify`]) records a snapshot-bearing trace in
//! memory and reports sharded replay-verification throughput in trace
//! events per second.
//!
//! [`measure`] returns the raw numbers; [`run`] renders them as a table.
//! The `tables` binary's `perfjson` mode serializes [`measure`]'s output
//! to the committed baseline document (`BENCH_PR6.json`) so perf
//! regressions are machine-checkable.

use crate::table::{f, Table};
use baselines::{GreedyRouter, StoreForwardRouter};
use busch_router::{BuschRouter, Params};
use hotpotato_sim::{JsonlTraceObserver, NoopObserver, RunRecord, StreamingConfig};
use hotpotato_trace::{schema, ShardOptions, Trace};
use leveled_net::builders::{self, ButterflyCoords};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec::{parse_run_spec, RunSpec};
use routing_core::workloads;
use serve::service::{RunOutcome, RunPlan};
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Minimum cumulative wall time per component in non-quick mode: repeat
/// until the total measured time reaches this, then report the fastest
/// single run.
pub const MIN_COMPONENT_WALL_S: f64 = 0.05;

/// One timed component of the PERF suite.
#[derive(Clone, Debug)]
pub struct PerfMeasurement {
    /// Component label ("busch (audited)", "replay audit", ...).
    pub component: &'static str,
    /// Butterfly order of this row's instance.
    pub k: u32,
    /// Packets in this row's instance.
    pub packets: u64,
    /// Wall time of the fastest run, in seconds.
    pub wall_s: f64,
    /// How many runs the component was timed over.
    pub repeats: u32,
    /// Engine steps executed (`None` for non-stepped components).
    pub steps: Option<u64>,
    /// Packet moves performed (real counts, not estimates).
    pub moves: u64,
    /// Process peak resident set (`VmHWM`) after this component ran, if
    /// the platform exposes it. Monotone across the process lifetime, so
    /// attribute it to the largest instance measured up to this row.
    pub peak_rss_bytes: Option<u64>,
    /// Invariant violations observed (`Some(0)` required of audited
    /// large-instance rows; `None` where no audit runs).
    pub violations: Option<u64>,
    /// Sweep runs executed (`Some` only for the fleet-throughput row).
    pub runs: Option<u64>,
}

impl PerfMeasurement {
    /// Steps per wall-clock second (`None` for non-stepped components).
    pub fn steps_per_s(&self) -> Option<f64> {
        self.steps.map(|s| s as f64 / self.wall_s)
    }

    /// Moves per wall-clock second.
    pub fn moves_per_s(&self) -> f64 {
        self.moves as f64 / self.wall_s
    }

    /// Packets routed per wall-clock second.
    pub fn packets_per_s(&self) -> f64 {
        self.packets as f64 / self.wall_s
    }

    /// Peak resident bytes per packet of this row's instance.
    pub fn rss_bytes_per_packet(&self) -> Option<f64> {
        self.peak_rss_bytes
            .map(|b| b as f64 / self.packets.max(1) as f64)
    }

    /// Sweep runs per wall-clock second (fleet-throughput row only).
    pub fn runs_per_s(&self) -> Option<f64> {
        self.runs.map(|r| r as f64 / self.wall_s)
    }
}

/// The full PERF report: the fixed instance plus one row per component.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Butterfly order of the classic-suite instance.
    pub k: u32,
    /// Number of packets on the classic-suite instance.
    pub n: u64,
    /// Nodes in the classic-suite network.
    pub nodes: usize,
    /// Edges in the classic-suite network.
    pub edges: usize,
    /// Timed components.
    pub rows: Vec<PerfMeasurement>,
}

/// The process peak resident set (`VmHWM`) in bytes, from Linux procfs.
/// `None` where the platform does not expose it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Times `run` repeatedly until the cumulative wall time reaches
/// [`MIN_COMPONENT_WALL_S`] (always exactly once in quick mode) and
/// returns `(best_wall_s, repeats, last_output)`. The fastest run is the
/// throughput estimate — minimum wall time is the standard low-noise
/// statistic for a deterministic workload.
fn timed_best<T>(quick: bool, mut run: impl FnMut() -> T) -> (f64, u32, T) {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut repeats = 0u32;
    let mut out;
    loop {
        let t0 = Instant::now();
        out = run();
        let dt = t0.elapsed().as_secs_f64();
        repeats += 1;
        total += dt;
        best = best.min(dt);
        if quick || total >= MIN_COMPONENT_WALL_S || repeats >= 10_000 {
            return (best, repeats, out);
        }
    }
}

/// Times every component of the classic suite on the fixed bf(k)
/// bit-reversal instance (k = 10 quick, 12 full) and returns the raw
/// numbers.
pub fn measure(quick: bool) -> PerfReport {
    let k = if quick { 10 } else { 12 };
    let net = Arc::new(builders::butterfly(k));
    let coords = ButterflyCoords { k };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let n = prob.num_packets() as u64;
    let mut rows = Vec::new();

    // Busch router (invariant audits on, as in the experiments).
    {
        let params = Params::auto(&prob);
        let (wall_s, repeats, out) = timed_best(quick, || {
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            BuschRouter::new(params).route(&prob, &mut rng)
        });
        assert!(out.stats.all_delivered());
        rows.push(PerfMeasurement {
            component: "busch (audited)",
            k,
            packets: n,
            wall_s,
            repeats,
            steps: Some(out.stats.steps_run),
            moves: out.stats.counter("moves"),
            peak_rss_bytes: peak_rss_bytes(),
            violations: Some(out.invariants.total_violations()),
            runs: None,
        });
    }

    // Greedy with recording, then the replay audit itself.
    {
        let (wall_s, repeats, (out, record)) = timed_best(quick, || {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let mut record = RunRecord::default();
            let out = GreedyRouter::new().route_observed(&prob, &mut rng, &mut record);
            (out, record)
        });
        assert!(out.stats.all_delivered());
        rows.push(PerfMeasurement {
            component: "greedy (recorded)",
            k,
            packets: n,
            wall_s,
            repeats,
            steps: Some(out.stats.steps_run),
            moves: record.len() as u64,
            peak_rss_bytes: peak_rss_bytes(),
            violations: None,
            runs: None,
        });

        let (wall_s, repeats, rep) = timed_best(quick, || {
            hotpotato_sim::replay::verify(&prob, &record, &out.stats).expect("clean")
        });
        rows.push(PerfMeasurement {
            component: "replay audit",
            k,
            packets: n,
            wall_s,
            repeats,
            steps: None,
            moves: rep.moves,
            peak_rss_bytes: peak_rss_bytes(),
            violations: None,
            runs: None,
        });
    }

    // Store-and-forward (moves = sum of path lengths: every packet
    // traverses exactly its path, no deflections).
    {
        let (wall_s, repeats, out) = timed_best(quick, || {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            StoreForwardRouter::fifo().route(&prob, &mut rng)
        });
        assert!(out.stats.all_delivered());
        let moves: u64 = prob.packets().iter().map(|p| p.path.len() as u64).sum();
        rows.push(PerfMeasurement {
            component: "store-and-forward",
            k,
            packets: n,
            wall_s,
            repeats,
            steps: Some(out.stats.steps_run),
            moves,
            peak_rss_bytes: peak_rss_bytes(),
            violations: None,
            runs: None,
        });
    }

    PerfReport {
        k,
        n,
        nodes: net.num_nodes(),
        edges: net.num_edges(),
        rows,
    }
}

/// The large-instance suite: saturation random walks (one packet on
/// every non-final node) on bf(14) quick / bf(16) full — ≥1M packets —
/// routed by the audited Busch router. Panics if any packet is undelivered or any invariant
/// is violated: the row's existence in the baseline *is* the claim that
/// the large instance completes cleanly.
pub fn measure_large(quick: bool) -> PerfMeasurement {
    let k = if quick { 14 } else { 16 };
    let net = Arc::new(builders::butterfly(k));
    let n = net
        .nodes()
        .filter(|&v| !net.fwd_edges(v).is_empty())
        .count();
    let mut wl_rng = ChaCha8Rng::seed_from_u64(6);
    let prob = workloads::random_walks(&net, n, &mut wl_rng).expect("every non-final node admits");
    let params = Params::auto(&prob);
    // Large instances always run once: a single route is far past the
    // minimum-wall threshold.
    let (wall_s, repeats, out) = timed_best(true, || {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        BuschRouter::new(params).route(&prob, &mut rng)
    });
    assert!(out.stats.all_delivered(), "large instance must complete");
    assert!(
        out.invariants.is_clean(),
        "large instance violated invariants: {:?}",
        out.invariants
    );
    PerfMeasurement {
        component: "busch (large random-walks)",
        k,
        packets: n as u64,
        wall_s,
        repeats,
        steps: Some(out.stats.steps_run),
        moves: out.stats.counter("moves"),
        peak_rss_bytes: peak_rss_bytes(),
        violations: Some(out.invariants.total_violations()),
        runs: None,
    }
}

/// The steady-state streaming row: a continuous Poisson injection
/// stream on a bf(10) (quick) / bf(12) random-pairs instance at the
/// default admission cap, defined through the same
/// `TOPO/WL/ALGO/SEED/ARRIVAL` run-spec grammar and run plan the CLI and
/// the service consume (each timed run draws its arrival schedule, then
/// routes). The reported packets/s is the sustained rate — arrivals
/// keep the network loaded for the whole run, so the figure reflects
/// throughput under continuous load rather than a drain from a full
/// initial population. Panics if the stream fails to drain before the
/// step cap: the row's presence is the claim that the instance reaches
/// steady state and completes.
pub fn measure_streaming(quick: bool) -> PerfMeasurement {
    let k: u32 = if quick { 10 } else { 12 };
    let pairs = if quick { 2048 } else { 8192 };
    let spec = format!("bf:{k}/pairs:{pairs}/greedy/7/poisson:2");
    let run = parse_run_spec(&spec).expect("canonical streaming spec");
    let (_topo, problem, rng) = run.instantiate().expect("spec instantiates");
    let cfg = StreamingConfig::default();
    let plan = RunPlan::new(&run, &problem, cfg.admission, cfg.max_steps).expect("greedy streams");
    let (wall_s, repeats, out) = timed_best(quick, || {
        match plan.route(&problem, &mut rng.clone(), &mut NoopObserver) {
            RunOutcome::Stream(out) => out,
            RunOutcome::Batch(_) => unreachable!("the spec has an arrival segment"),
        }
    });
    assert!(
        out.drained,
        "streaming instance must reach steady state and drain"
    );
    PerfMeasurement {
        component: "greedy (streaming poisson)",
        k,
        packets: problem.num_packets() as u64,
        wall_s,
        repeats,
        steps: Some(out.stats.steps_run),
        moves: out.stats.counter("moves"),
        peak_rss_bytes: peak_rss_bytes(),
        violations: Some(u64::from(!out.drained)),
        runs: None,
    }
}

/// The trace-pipeline row: record a snapshot-bearing JSONL trace of the
/// classic bf(10) quick / bf(12) bit-reversal Busch run in memory —
/// meta/stats envelope and all, exactly as `route --trace-out` writes
/// it — then time sharded replay verification over worker threads.
/// `moves` carries the trace event count, so this row's moves/s in the
/// committed baseline is verify throughput in events/s. Panics if the
/// clean trace fails to verify: the row's presence is the claim that
/// the recorded stream replays.
pub fn measure_verify(quick: bool) -> PerfMeasurement {
    let k = if quick { 10 } else { 12 };
    let net = Arc::new(builders::butterfly(k));
    let coords = ButterflyCoords { k };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let n = prob.num_packets() as u64;
    let params = Params::auto(&prob);
    let meta = schema::Meta::new(
        &RunSpec::batch(&format!("bf:{k}"), "bitrev", "busch", 1),
        &prob,
    );
    let mut buf: Vec<u8> = Vec::new();
    writeln!(buf, "{}", schema::meta_line(&meta)).expect("vec sink");
    let mut obs = JsonlTraceObserver::with_snapshots(buf, &prob);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let out = BuschRouter::new(params).route_observed(&prob, &mut rng, &mut obs);
    assert!(out.stats.all_delivered());
    let mut buf = obs.finish().expect("vec sink");
    writeln!(buf, "{}", schema::stats_line(&out.stats)).expect("vec sink");
    let text = String::from_utf8(buf).expect("recorder emits UTF-8");
    let trace = Arc::new(Trace::parse(&text).expect("recorder emits valid traces"));
    let events = trace.events.len() as u64;

    let opts = ShardOptions::default(); // jobs auto-detected
    let (wall_s, repeats, run) = timed_best(quick, || {
        hotpotato_trace::verify_trace_sharded(&trace, &opts).expect("clean trace verifies")
    });
    PerfMeasurement {
        component: "sharded verify (trace)",
        k,
        packets: n,
        wall_s,
        repeats,
        steps: Some(run.report.steps),
        moves: events,
        peak_rss_bytes: peak_rss_bytes(),
        violations: Some(0),
        runs: None,
    }
}

/// The fleet-throughput row: a fixed ladder of Busch sweep specs (a
/// seed range across butterfly sizes) collected on
/// [`crate::parallel_map`] workers through `serve::run_fleet_spec`,
/// the envelope `serve --fleet` and the `t1`/`t8` tables use: each
/// run's events are recorded in memory, replay-verified, analyzed and
/// folded into a [`FleetAggregator`]. `moves` sums every run's packet
/// moves (the adaptive gate's yardstick); `runs`/`runs_per_s` ride
/// into the baseline document as the sweep-throughput figure. Panics
/// on any failed run or invariant violation: the row's presence in the
/// baseline is the claim that the ladder completes cleanly.
///
/// [`FleetAggregator`]: hotpotato_trace::FleetAggregator
pub fn measure_fleet(quick: bool) -> PerfMeasurement {
    let (sweep, k) = if quick {
        ("bf:5..6/bitrev/busch/5..10", 6)
    } else {
        ("bf:6..8/bitrev/busch/5..12", 8)
    };
    let specs = routing_core::spec::expand_sweep(sweep).expect("fixed ladder parses");
    let runs = specs.len() as u64;
    // One timed pass: the whole ladder is far past the minimum-wall
    // threshold, like the large row.
    let (wall_s, repeats, agg) =
        timed_best(true, || crate::fleet::collect_specs(specs.clone(), true));
    assert_eq!(agg.failed(), 0, "fleet ladder must complete");
    assert_eq!(agg.violations(), 0, "fleet ladder must be violation-free");
    PerfMeasurement {
        component: "fleet (sweep collect)",
        k,
        packets: agg.samples().map(|s| s.packets).sum(),
        wall_s,
        repeats,
        steps: Some(agg.samples().map(|s| s.steps).sum()),
        moves: agg.samples().map(|s| s.moves).sum(),
        peak_rss_bytes: peak_rss_bytes(),
        violations: Some(agg.violations()),
        runs: Some(runs),
    }
}

/// Runs PERF.
pub fn run(quick: bool) {
    let mut report = measure(quick);
    report.rows.push(measure_large(quick));
    report.rows.push(measure_streaming(quick));
    report.rows.push(measure_verify(quick));
    report.rows.push(measure_fleet(quick));
    let mut t = Table::new(
        format!(
            "PERF: end-to-end throughput; classic rows on bf({}) bit-reversal \
             (N={}, {} nodes, {} edges), large row on saturation random walks",
            report.k, report.n, report.nodes, report.edges
        ),
        &[
            "component",
            "k",
            "packets",
            "best wall (s)",
            "runs",
            "steps/s",
            "moves/s",
            "packets/s",
            "runs/s",
            "peak RSS B/pkt",
        ],
    );
    for row in &report.rows {
        t.row(vec![
            row.component.into(),
            row.k.to_string(),
            row.packets.to_string(),
            f(row.wall_s),
            row.repeats.to_string(),
            row.steps_per_s().map_or_else(|| "-".into(), f),
            f(row.moves_per_s()),
            f(row.packets_per_s()),
            row.runs_per_s().map_or_else(|| "-".into(), f),
            row.rss_bytes_per_packet().map_or_else(|| "-".into(), f),
        ]);
    }
    t.note(
        "best-of-repeats per component; large row audited; streaming row is sustained Poisson load",
    );
    t.note("fleet row: verified sweep ladder through the fleet envelope + aggregation");
    t.print();
}
