//! Streaming-mode aggregation under open-ended, non-quiescing runs.
//!
//! A continuous arrival stream keeps packets entering the network long
//! after routing has begun, so — unlike the batch suites — there is no
//! quiesce point where "the run so far" and "the whole run" coincide.
//! These tests pin the two guarantees the live service relies on:
//!
//! 1. A **mid-stream snapshot** of the bounded aggregator equals a
//!    fresh full-trace analysis truncated at the same step — scraping
//!    a live run never shows numbers a post-hoc audit would disagree
//!    with.
//! 2. The **bucket cap holds** under sustained injection: however long
//!    the stream runs, memory stays `O(cap)` while the totals remain
//!    exact.

use hotpotato_sim::{AdmissionControl, RouteObserver, StepReport, StreamingConfig, Time};
use hotpotato_trace::stream::Bucket;
use hotpotato_trace::{Analyzer, StreamingAggregator, Trace, TraceEvent};
use routing_core::spec::parse_run_spec;
use serve::service::{RunOutcome, RunPlan};

/// Wraps a [`StreamingAggregator`] and captures a copy of its exact
/// totals the moment step `at` completes — the "mid-stream scrape".
struct SnapshotAt {
    inner: StreamingAggregator,
    at: Time,
    snap: Option<Bucket>,
}

impl RouteObserver for SnapshotAt {
    fn on_step_end(&mut self, t: Time, report: &StepReport, active: usize) {
        self.inner.on_step_end(t, report, active);
        if t == self.at {
            self.snap = Some(*self.inner.totals());
        }
    }

    fn on_phase_start(&mut self, phase: u64, t: Time) {
        self.inner.on_phase_start(phase, t);
    }

    fn on_phase_end(&mut self, phase: u64, t: Time) {
        self.inner.on_phase_end(phase, t);
    }
}

/// Runs a spec-described streaming instance with the given config,
/// tracing into memory, and returns the outcome plus the observer.
fn stream<O: RouteObserver>(
    spec: &str,
    cfg: &StreamingConfig,
    observer: &mut O,
) -> hotpotato_sim::StreamingOutcome {
    let run = parse_run_spec(spec).expect("spec parses");
    let (_topo, problem, mut rng) = run.instantiate().expect("spec instantiates");
    let plan = RunPlan::new(&run, &problem, cfg.admission, cfg.max_steps).expect("streaming algo");
    match plan.route(&problem, &mut rng, observer) {
        RunOutcome::Stream(out) => out,
        RunOutcome::Batch(_) => panic!("spec has no arrival segment"),
    }
}

/// Median arrival step of the spec's schedule — a step where the run is
/// provably still mid-stream (half the arrivals are yet to come).
fn median_arrival(spec: &str) -> Time {
    let run = parse_run_spec(spec).expect("spec parses");
    let (_topo, problem, mut rng) = run.instantiate().expect("spec instantiates");
    let process = run.arrival_process().unwrap().unwrap();
    let schedule = process.schedule(problem.num_packets(), &mut rng);
    schedule[schedule.len() / 2]
}

#[test]
fn mid_stream_snapshot_matches_full_trace_prefix() {
    const SPEC: &str = "bf:8/pairs:256/greedy/7/poisson:0.5";
    let at = median_arrival(SPEC);
    let mut observer = (
        SnapshotAt {
            inner: StreamingAggregator::new(1 << 20),
            at,
            snap: None,
        },
        hotpotato_sim::JsonlTraceObserver::new(Vec::new()),
    );
    let out = stream(SPEC, &StreamingConfig::default(), &mut observer);
    let (snapper, jsonl) = observer;
    assert!(out.drained, "stream must drain");
    let snap = snapper.snap.expect("median arrival precedes the last step");
    // The run was genuinely non-quiescent at the snapshot: more steps —
    // and more injections — happened after it.
    assert!(snap.steps < out.stats.steps_run, "snapshot was mid-stream");
    assert!(
        snap.injected < snapper.inner.totals().injected,
        "injections continued past the snapshot"
    );

    // Fresh full-trace analysis, truncated at the same step: sum the
    // per-step report lines with t <= at straight off the JSONL stream.
    let text = String::from_utf8(jsonl.finish().expect("in-memory sink")).unwrap();
    let trace = Trace::parse(&text).expect("trace parses");
    let mut prefix = Bucket::default();
    let mut all = Bucket::default();
    for ev in &trace.events {
        if let TraceEvent::Step {
            t,
            moved,
            absorbed,
            injected,
            deflections,
            fallback,
            oscillations,
            active,
        } = ev
        {
            let mut sinks = vec![&mut all];
            if *t <= at {
                sinks.push(&mut prefix);
            }
            for b in sinks {
                b.steps += 1;
                b.moved += u64::from(*moved);
                b.absorbed += u64::from(*absorbed);
                b.injected += u64::from(*injected);
                b.deflections += u64::from(*deflections);
                b.fallback += u64::from(*fallback);
                b.oscillations += u64::from(*oscillations);
                b.max_active = b.max_active.max(u64::from(*active));
            }
        }
    }
    let cmp = |got: &Bucket, want: &Bucket, what: &str| {
        assert_eq!(got.steps, want.steps, "{what}: steps");
        assert_eq!(got.moved, want.moved, "{what}: moved");
        assert_eq!(got.absorbed, want.absorbed, "{what}: absorbed");
        assert_eq!(got.injected, want.injected, "{what}: injected");
        assert_eq!(got.deflections, want.deflections, "{what}: deflections");
        assert_eq!(got.fallback, want.fallback, "{what}: fallback");
        assert_eq!(got.oscillations, want.oscillations, "{what}: oscillations");
        assert_eq!(got.max_active, want.max_active, "{what}: max_active");
    };
    cmp(&snap, &prefix, "mid-stream snapshot vs trace prefix");
    cmp(snapper.inner.totals(), &all, "final totals vs whole trace");
    // Arrival events in the trace prefix match the streaming schedule's
    // pace: exactly the arrivals at or before the snapshot step.
    let prefix_arrivals = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Arrival { t, .. } if *t <= at))
        .count() as u64;
    assert!(prefix_arrivals >= out.arrivals / 2);
    assert!(prefix_arrivals < out.arrivals, "arrivals continued past");
}

#[test]
fn bucket_cap_holds_under_sustained_injection() {
    // A slow Poisson stream: arrivals trickle in for hundreds of steps,
    // so the step-keyed aggregator sees far more keys than its cap.
    const SPEC: &str = "bf:8/pairs:256/greedy/11/poisson:0.25";
    let mut agg = StreamingAggregator::new(4);
    let out = stream(SPEC, &StreamingConfig::default(), &mut agg);
    assert!(out.drained);
    assert!(
        out.stats.steps_run > 4 * 64,
        "run long enough to force merges ({} steps)",
        out.stats.steps_run
    );
    assert!(agg.buckets().len() <= 4, "cap violated");
    assert!(agg.merges() > 0, "sustained stream must trigger merges");
    assert_eq!(agg.keyed_by(), "step", "greedy streams are phase-less");
    // Bounded resolution, exact sums: buckets tile the step axis and
    // sum to the engine's own statistics.
    assert_eq!(agg.totals().steps, out.stats.steps_run);
    assert_eq!(agg.totals().injected, out.admitted);
    let sum = |f: fn(&Bucket) -> u64| -> u64 { agg.buckets().iter().map(f).sum() };
    assert_eq!(sum(|b| b.steps), agg.totals().steps);
    assert_eq!(sum(|b| b.moved), agg.totals().moved);
    assert_eq!(sum(|b| b.injected), agg.totals().injected);
    assert_eq!(sum(|b| b.deflections), agg.totals().deflections);
    let mut next = 0;
    for b in agg.buckets() {
        assert_eq!(b.key_lo, next, "gap before step {}", b.key_lo);
        next = b.key_hi + 1;
    }
    assert_eq!(next, out.stats.steps_run);
}

#[test]
fn streaming_diff_reports_arrival_latency_and_drop_rate_deltas() {
    // Two recordings of the same bursty instance: a tight admission box
    // that sheds load vs the default. `trace diff` must surface the
    // schema-v3 streaming deltas — arrivals, drops, drop rate, and
    // admission-to-delivery latency.
    const SPEC: &str = "bf:6/pairs:192/greedy/3/burst:64:4";
    let record = |cfg: &StreamingConfig| -> Trace {
        let mut obs = hotpotato_sim::JsonlTraceObserver::new(Vec::new());
        let out = stream(SPEC, cfg, &mut obs);
        assert!(out.drained, "stream must drain");
        let text = String::from_utf8(obs.finish().expect("in-memory sink")).unwrap();
        Trace::parse(&text).expect("trace parses")
    };
    let tight = record(&StreamingConfig {
        admission: AdmissionControl {
            max_in_flight: 8,
            max_deferred: 16,
        },
        ..StreamingConfig::default()
    });
    let roomy = record(&StreamingConfig::default());

    let a = hotpotato_trace::analyze(&tight);
    let b = hotpotato_trace::analyze(&roomy);
    assert_eq!(a.arrivals, 192, "every scheduled packet arrives");
    assert_eq!(b.arrivals, 192);
    assert!(a.drops > 0, "tight admission must shed load");
    assert!(b.drops < a.drops, "roomy admission sheds less");
    assert!(a.drop_rate() > 0.0 && a.drop_rate() <= 1.0);
    assert!(
        !a.arrival_latencies.is_empty() && a.arrival_latency_mean() > 0.0,
        "admitted streaming packets take time to deliver"
    );

    let doc = hotpotato_trace::diff(&a, &b);
    let rows = doc["rows"].as_array().expect("diff rows");
    let row = |name: &str| {
        rows.iter()
            .find(|r| r["metric"] == name)
            .unwrap_or_else(|| panic!("diff has no '{name}' row"))
    };
    assert_eq!(row("arrivals")["delta"].as_i64(), Some(0));
    assert_eq!(row("drops")["a"].as_u64(), Some(a.drops));
    assert!(row("drops")["delta"].as_i64().unwrap() < 0);
    assert!(row("drop_rate")["delta"].as_f64().unwrap() < 0.0);
    let lat = row("arrival_latency_mean");
    assert!((lat["a"].as_f64().unwrap() - a.arrival_latency_mean()).abs() < 1e-9);
    assert!((lat["b"].as_f64().unwrap() - b.arrival_latency_mean()).abs() < 1e-9);
    let p50 = row("arrival_latency_p50");
    assert!(p50["a"].as_u64().is_some() && p50["b"].as_u64().is_some());
}

#[test]
fn live_analyzer_accounts_arrivals_and_drops_exactly() {
    // A tight admission box under bursty arrivals forces drops; the
    // live analysis's counters must match the engine's accounting
    // exactly.
    const SPEC: &str = "bf:6/pairs:192/greedy/3/burst:64:4";
    let run = parse_run_spec(SPEC).unwrap();
    let (_topo, problem, _rng) = run.instantiate().unwrap();
    let mut analyzer = Analyzer::new(None);
    let cfg = StreamingConfig {
        admission: AdmissionControl {
            max_in_flight: 8,
            max_deferred: 16,
        },
        ..StreamingConfig::default()
    };
    let out = stream(SPEC, &cfg, &mut analyzer);
    let a = analyzer.finish();
    assert!(out.drained, "drops resolve the backlog; the run drains");
    assert!(out.dropped > 0, "tight admission must shed load");
    assert_eq!(a.arrivals, out.arrivals);
    assert_eq!(a.drops, out.dropped);
    assert_eq!(out.arrivals, problem.num_packets() as u64);
    assert_eq!(
        out.admitted + out.dropped,
        out.arrivals,
        "every arrival is admitted or dropped"
    );
    assert_eq!(
        out.stats.delivered_count() as u64 + out.dropped,
        out.arrivals,
        "drained run: delivered + dropped == arrivals"
    );
    assert!(out.peak_in_flight <= 8, "in-flight cap respected");
    assert!(out.peak_deferred <= 16, "deferred cap respected");
}

#[test]
fn adversarial_arrivals_keep_streaming_accounting_exact() {
    // The adversarial process coalesces whole bursts onto single steps
    // (a seeded on-off train), so the instantaneous load ramps in
    // multiples of the burst size — the worst case the admission box is
    // specified against. The accounting laws must hold anyway: every
    // arrival is admitted or dropped, and a drained run delivers
    // exactly the admitted set.
    const SPEC: &str = "bf:6/pairs:192/greedy/5/adversarial:32:6";
    let run = parse_run_spec(SPEC).unwrap();
    let (_topo, problem, _rng) = run.instantiate().unwrap();
    let mut analyzer = Analyzer::new(None);
    let cfg = StreamingConfig {
        admission: AdmissionControl {
            max_in_flight: 8,
            max_deferred: 16,
        },
        ..StreamingConfig::default()
    };
    let out = stream(SPEC, &cfg, &mut analyzer);
    let a = analyzer.finish();
    assert!(out.drained, "drops resolve the backlog; the run drains");
    assert!(
        out.dropped > 0,
        "coalesced bursts against a 16-slot queue must shed load"
    );
    assert_eq!(a.arrivals, out.arrivals);
    assert_eq!(a.drops, out.dropped);
    assert_eq!(out.arrivals, problem.num_packets() as u64);
    assert_eq!(
        out.admitted + out.dropped,
        out.arrivals,
        "every arrival is admitted or dropped"
    );
    assert_eq!(
        out.stats.delivered_count() as u64 + out.dropped,
        out.arrivals,
        "drained run: delivered + dropped == arrivals"
    );
    assert!(out.peak_in_flight <= 8, "in-flight cap respected");
    assert!(out.peak_deferred <= 16, "deferred cap respected");
    // The whole pipeline is seeded: the worst-case train reproduces.
    let mut again = Analyzer::new(None);
    let out2 = stream(SPEC, &cfg, &mut again);
    assert_eq!(out2.dropped, out.dropped);
    assert_eq!(out2.stats.steps_run, out.stats.steps_run);
}
