//! Fleet mode: a sweep of run specs executed on scoped worker threads,
//! with cross-run aggregation served live.
//!
//! `hotpotato serve --fleet` takes every spec a `--sweep` expression
//! expands to and fans them out over `--workers` scoped threads, each
//! pulling the next spec index from a shared counter. Each run executes
//! fully in memory: its events are recorded straight into a [`Trace`]
//! between the same meta and stats envelope events the CLI writes with
//! `--trace-out`, then analyzed and replay-verified with no text in
//! between. The coordinator folds each completed run into the
//! [`FleetAggregator`] of the shared snapshot, in place under the
//! exchange lock, after every event, so HTTP threads serve untorn views
//! mid-sweep:
//!
//! * `GET /fleet` — the schema-versioned cross-run rollup: per-(topo,
//!   algo, size) `steps/(C+L)` distributions with bootstrap 95% CIs and
//!   the log-log scaling fit (the empirical Theorem 2.6 verdict);
//! * `GET /fleet/progress` — queued/running/done counts, ETA, and
//!   per-worker utilization;
//! * `GET /metrics` — the standard exposition families aggregated under
//!   `run="fleet"` plus fleet-specific families (run counters, the
//!   cross-run ratio histogram, the fit-exponent gauge);
//! * `GET /healthz` — liveness.
//!
//! [`FleetAggregator`]: hotpotato_trace::FleetAggregator

use crate::http::{Request, Response, EXPOSITION_CONTENT_TYPE};
use crate::live::DEFL_BUCKET_BOUNDS;
use crate::prom::{Kind, PromWriter};
use crate::service::RunPlan;
use hotpotato_sim::{
    configured_threads, snapshot_exchange, AdmissionControl, RouteStats, Router, SnapshotPublisher,
    SnapshotReader, StreamingConfig,
};
use hotpotato_trace::fleet::{FleetAggregator, FleetSample, RATIO_BUCKET_BOUNDS};
use hotpotato_trace::{verify_trace, Analyzer, Meta, Trace, TraceEvent};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::spec::RunSpec;
use routing_core::RoutingProblem;
use serde_json::json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// A fleet sweep to execute and serve.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The expanded sweep, in submission order.
    pub specs: Vec<RunSpec>,
    /// Worker threads (0 = `HOTPOTATO_THREADS` / available parallelism).
    pub workers: usize,
    /// Replay-verify every run's trace (the zero-violations evidence).
    /// Off, runs are still recorded and analyzed; only the replay is
    /// skipped.
    pub verify: bool,
    /// Artificial delay in milliseconds before each run starts. Lets CI
    /// stretch a small sweep far enough to scrape it mid-flight.
    pub throttle_ms: u64,
}

impl FleetConfig {
    /// Verify on, auto workers, no throttle.
    pub fn new(specs: Vec<RunSpec>) -> Self {
        FleetConfig {
            specs,
            workers: 0,
            verify: true,
            throttle_ms: 0,
        }
    }
}

/// The sweep state the coordinator shares with the HTTP threads: the
/// aggregation plus progress counters. It lives only in the exchange:
/// the coordinator updates it in place after every sweep event (a
/// blocking fill; fleet cadence is per *run*, not per step), and readers
/// render under the same lock, so nothing copies the aggregation.
pub struct FleetSnapshot {
    /// The cross-run aggregation so far.
    pub agg: FleetAggregator,
    /// Sweep size.
    pub total: u64,
    /// Runs currently executing on a worker.
    pub running: u64,
    /// Completed runs per worker (index = worker).
    pub per_worker: Vec<u64>,
    /// Whether each worker is mid-run right now.
    pub busy: Vec<bool>,
    /// First few run failure messages, in completion order.
    pub errors: Vec<String>,
    /// Coordinator wall-clock milliseconds since launch, stamped at
    /// publish time (telemetry only — never feeds results).
    pub elapsed_ms: u64,
    /// True once every run completed and every worker joined.
    pub finished: bool,
}

impl FleetSnapshot {
    fn empty(total: u64, workers: usize) -> FleetSnapshot {
        FleetSnapshot {
            agg: FleetAggregator::new(),
            total,
            running: 0,
            per_worker: vec![0; workers],
            busy: vec![false; workers],
            errors: Vec::new(),
            elapsed_ms: 0,
            finished: false,
        }
    }

    /// Runs finished (delivered a sample or failed).
    pub fn done(&self) -> u64 {
        self.agg.runs() + self.agg.failed()
    }
}

/// Executes one sweep run fully in memory and distills it into a
/// [`FleetSample`]: the spec's [`RunPlan`], the dispatch `hotpotato
/// route` and the service also run, records the run's events straight
/// into a [`Trace`] between its meta and stats envelope events; the
/// trace is then analyzed and (when `verify`) replay-verified. Fleet
/// analytics are therefore genuinely trace-derived: the recorder yields
/// the events `hotpotato trace verify` would parse from a `--trace-out`
/// file of the same run, minus its `snapshot` checkpoints. The bench
/// harness reuses this to build `t1`/`t8` from fleet artifacts.
pub fn run_fleet_spec(spec: &RunSpec, verify: bool) -> Result<FleetSample, String> {
    let (_, problem, mut rng) = spec.instantiate()?;
    let plan = RunPlan::new(
        spec,
        &problem,
        AdmissionControl::default(),
        StreamingConfig::default().max_steps,
    )?;
    let mut trace = Trace {
        events: vec![TraceEvent::Meta(Box::new(Meta::new(spec, &problem)))],
    };
    let stats = plan.route(&problem, &mut rng, &mut trace).into_stats();
    seal_envelope(trace, &stats, verify)
}

/// Executes one run of an explicit router on a fixed instance through
/// the same in-memory trace envelope as [`run_fleet_spec`], labelled
/// with `topo`/`workload` for the sample's cell key. The bench harness
/// uses this for parameter points the spec grammar cannot express
/// (`t8`'s custom frame heights and round lengths); the routing rng is
/// seeded fresh from `seed`.
pub fn run_fleet_router(
    router: &dyn Router,
    problem: &Arc<RoutingProblem>,
    topo: &str,
    workload: &str,
    seed: u64,
    verify: bool,
) -> Result<FleetSample, String> {
    let spec = RunSpec::batch(topo, workload, router.name(), seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut trace = Trace {
        events: vec![TraceEvent::Meta(Box::new(Meta::new(&spec, problem)))],
    };
    let stats = router.route(problem, &mut rng, &mut trace).stats;
    seal_envelope(trace, &stats, verify)
}

/// The shared envelope tail: appends the stats envelope event, folds the
/// recorded events through an [`Analyzer`] with no instance (only
/// `verify_trace` rebuilds one), and (when `verify`) replay-verifies
/// them. Two independent violation sources fold into one count: the
/// router's own phase-end invariant audit (the `invariant_violations`
/// counter; absent = zero for routers that do not audit) and the replay
/// of the whole trace against the bufferless laws.
fn seal_envelope(
    mut trace: Trace,
    stats: &RouteStats,
    verify: bool,
) -> Result<FleetSample, String> {
    trace.events.push(TraceEvent::Stats(Box::new(stats.into())));
    let audited = stats
        .counters
        .get("invariant_violations")
        .copied()
        .unwrap_or(0);
    let violations = audited + u64::from(verify && verify_trace(&trace).is_err());
    let mut analyzer = Analyzer::new(None);
    for ev in &trace.events {
        analyzer.push(ev);
    }
    FleetSample::from_trace(&trace, &analyzer.finish(), violations)
}

/// What a worker reports back to the coordinator.
enum FleetMsg {
    Started {
        worker: usize,
    },
    Done {
        worker: usize,
        result: Result<FleetSample, String>,
    },
}

/// The running fleet service: the coordinator's reader half plus enough
/// identity to render endpoints.
pub struct FleetService {
    reader: SnapshotReader<FleetSnapshot>,
    total: u64,
    workers: usize,
    join: Option<JoinHandle<()>>,
}

impl FleetService {
    /// Spawns the coordinator (which owns the worker threads) and returns
    /// immediately; endpoints serve the live aggregation from the first
    /// request on.
    pub fn launch(config: FleetConfig) -> Result<FleetService, String> {
        if config.specs.is_empty() {
            return Err("fleet sweep is empty".into());
        }
        let workers = if config.workers == 0 {
            configured_threads()
        } else {
            config.workers
        };
        let total = config.specs.len() as u64;
        let (publisher, reader) = snapshot_exchange(FleetSnapshot::empty(total, workers));
        let join = std::thread::Builder::new()
            .name("hotpotato-fleet".into())
            .spawn(move || coordinate(config, workers, publisher))
            .map_err(|e| format!("spawn fleet coordinator: {e}"))?;
        Ok(FleetService {
            reader,
            total,
            workers,
            join: Some(join),
        })
    }

    /// Sweep size.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Worker threads executing the sweep.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The reader half, for tests that want raw snapshots.
    pub fn reader(&self) -> &SnapshotReader<FleetSnapshot> {
        &self.reader
    }

    /// Blocks until the sweep completed and the final snapshot flushed.
    pub fn wait(&mut self) {
        if let Some(join) = self.join.take() {
            // A panicked coordinator leaves the last published snapshot
            // serving; a half-dead observatory beats a crashed one.
            let _ = join.join();
        }
    }

    /// Routes one request. Pure read; callable from any thread.
    // lint: no-panic
    pub fn handle(&self, req: &Request) -> Response {
        let path = req.path.split('?').next().unwrap_or("");
        match path {
            "/healthz" => Response::ok("text/plain; charset=utf-8", "ok\n".into()),
            "/fleet" => Response::json(self.render_fleet()),
            "/fleet/progress" => Response::json(self.render_progress()),
            "/metrics" => Response::ok(EXPOSITION_CONTENT_TYPE, self.render_metrics()),
            _ => Response::not_found(path),
        }
    }

    /// `/fleet`: the cross-run rollup document.
    fn render_fleet(&self) -> String {
        let doc = self.reader.acquire(|_, s| s.agg.to_json());
        let mut body = doc.to_compact_string();
        body.push('\n');
        body
    }

    /// `/fleet/progress`: queue state, ETA, per-worker utilization. The
    /// ETA extrapolates the published elapsed time over the remaining
    /// runs — pure arithmetic on snapshot fields, so rendering stays
    /// deterministic given a snapshot.
    fn render_progress(&self) -> String {
        let doc = self.reader.acquire(|seq, s| {
            let done = s.done();
            let queued = s.total.saturating_sub(done + s.running);
            let eta_ms = if done > 0 && !s.finished {
                json!(s.elapsed_ms.saturating_mul(s.total - done) / done)
            } else {
                json!(null)
            };
            let workers: Vec<serde::Value> = s
                .per_worker
                .iter()
                .zip(&s.busy)
                .enumerate()
                .map(
                    |(i, (&runs, &busy))| json!({ "worker": i as u64, "runs": runs, "busy": busy }),
                )
                .collect();
            json!({
                "schema": hotpotato_trace::FLEET_SCHEMA_VERSION,
                "kind": "fleet-progress",
                "seq": seq,
                "total": s.total,
                "queued": queued,
                "running": s.running,
                "done": done,
                "failed": s.agg.failed(),
                "violations": s.agg.violations(),
                "elapsed_ms": s.elapsed_ms,
                "eta_ms": eta_ms,
                "workers": serde::Value::Array(workers),
                "errors": serde::Value::Array(
                    s.errors.iter().map(|e| json!(e.clone())).collect()
                ),
                "finished": s.finished,
            })
        });
        let mut body = doc.to_compact_string();
        body.push('\n');
        body
    }

    /// `/metrics`: the standard families the scrape gate requires, every
    /// sample aggregated under `run="fleet"`, plus the fleet-specific
    /// families.
    fn render_metrics(&self) -> String {
        self.reader.acquire(Self::metrics_text)
    }

    /// The `/metrics` text of snapshot `s`, published as number `seq`.
    fn metrics_text(seq: u64, s: &FleetSnapshot) -> String {
        let sums = {
            let mut sums = (0u64, 0u64, 0u64, 0u64);
            for sample in s.agg.samples() {
                sums.0 += sample.steps;
                sums.1 += sample.moves;
                sums.2 += sample.delivered;
                sums.3 += sample.deflections;
            }
            sums
        };
        let mut w = PromWriter::new();
        let fleet = [("run", "fleet")];
        let counter = |w: &mut PromWriter, name, help, v: u64| {
            w.family(name, help, Kind::Counter);
            w.sample(name, &fleet, v as f64);
        };
        counter(
            &mut w,
            "hotpotato_steps_total",
            "Simulation steps completed (summed over fleet runs).",
            sums.0,
        );
        counter(
            &mut w,
            "hotpotato_moves_total",
            "Packet moves recorded (summed over fleet runs).",
            sums.1,
        );
        counter(
            &mut w,
            "hotpotato_deliveries_total",
            "Packets delivered (summed over fleet runs).",
            sums.2,
        );
        counter(
            &mut w,
            "hotpotato_deflections_total",
            "Deflections (summed over fleet runs).",
            sums.3,
        );

        // Distribution of per-run mean deflections per packet, on the
        // same bounds the live service uses.
        w.family(
            "hotpotato_deflections_per_packet",
            "Distribution of per-run mean deflections per packet.",
            Kind::Histogram,
        );
        let bounds: Vec<f64> = DEFL_BUCKET_BOUNDS.iter().map(|&b| f64::from(b)).collect();
        let mut defl_counts = vec![0u64; bounds.len() + 1];
        let mut defl_sum = 0.0f64;
        for sample in s.agg.samples() {
            let mean = sample.deflections as f64 / sample.packets.max(1) as f64;
            let slot = bounds
                .iter()
                .position(|&b| mean <= b)
                .unwrap_or(bounds.len());
            // lint: allow-panic(slot <= bounds.len() and counts has bounds.len()+1 slots)
            defl_counts[slot] += 1;
            defl_sum += mean;
        }
        w.histogram(
            "hotpotato_deflections_per_packet",
            &fleet,
            &bounds,
            &defl_counts,
            defl_sum,
        );

        w.family(
            "hotpotato_snapshot_seq",
            "Sequence number of the served snapshot.",
            Kind::Gauge,
        );
        w.sample("hotpotato_snapshot_seq", &fleet, seq as f64);
        w.family(
            "hotpotato_run_finished",
            "1 once the whole sweep quiesced.",
            Kind::Gauge,
        );
        w.sample(
            "hotpotato_run_finished",
            &fleet,
            if s.finished { 1.0 } else { 0.0 },
        );

        // Fleet-specific families.
        w.family(
            "hotpotato_fleet_runs_total",
            "Sweep runs by state.",
            Kind::Counter,
        );
        for (state, v) in [
            ("done", s.agg.runs()),
            ("failed", s.agg.failed()),
            ("running", s.running),
            ("queued", s.total.saturating_sub(s.done() + s.running)),
        ] {
            w.sample(
                "hotpotato_fleet_runs_total",
                &[("run", "fleet"), ("state", state)],
                v as f64,
            );
        }
        w.family(
            "hotpotato_fleet_violations_total",
            "Invariant violations across every fleet run (0 required).",
            Kind::Counter,
        );
        w.sample(
            "hotpotato_fleet_violations_total",
            &fleet,
            s.agg.violations() as f64,
        );

        w.family(
            "hotpotato_fleet_ratio",
            "Cross-run distribution of steps/(C+L), the Theorem 2.6 ratio.",
            Kind::Histogram,
        );
        w.histogram(
            "hotpotato_fleet_ratio",
            &fleet,
            RATIO_BUCKET_BOUNDS,
            s.agg.ratio_counts(),
            s.agg.ratio_sum(),
        );

        if let Some(fit) = s.agg.fit() {
            w.family(
                "hotpotato_fleet_fit_exponent",
                "Log-log scaling exponent of steps vs (C+L), with its 95% CI.",
                Kind::Gauge,
            );
            for (bound, v) in [
                ("point", fit.exponent),
                ("lo", fit.ci95.0),
                ("hi", fit.ci95.1),
            ] {
                w.sample(
                    "hotpotato_fleet_fit_exponent",
                    &[("run", "fleet"), ("bound", bound)],
                    v,
                );
            }
        }

        w.family(
            "hotpotato_fleet_worker_runs_total",
            "Completed runs per fleet worker.",
            Kind::Counter,
        );
        for (i, &runs) in s.per_worker.iter().enumerate() {
            let worker = i.to_string();
            w.sample(
                "hotpotato_fleet_worker_runs_total",
                &[("run", "fleet"), ("worker", &worker)],
                runs as f64,
            );
        }
        w.finish()
    }
}

/// The coordinator body: runs the sweep on `workers` scoped threads,
/// folds each event into the shared snapshot in place, and marks it
/// finished once every worker has joined. Reads the wall clock only to
/// stamp telemetry (elapsed/ETA) — results never depend on it.
// lint: telemetry
fn coordinate(
    config: FleetConfig,
    workers: usize,
    mut publisher: SnapshotPublisher<FleetSnapshot>,
) {
    let started = Instant::now();
    let FleetConfig {
        specs,
        verify,
        throttle_ms,
        ..
    } = config;
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<FleetMsg>();
        for worker in 0..workers {
            let tx = tx.clone();
            let (specs, next) = (&specs, &next);
            scope.spawn(move || {
                while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let _ = tx.send(FleetMsg::Started { worker });
                    if throttle_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(throttle_ms));
                    }
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_fleet_spec(spec, verify)
                    }))
                    .unwrap_or_else(|_| Err(format!("run '{}' panicked", spec.name())));
                    let _ = tx.send(FleetMsg::Done { worker, result });
                }
            });
        }
        drop(tx);

        for msg in rx {
            let elapsed_ms = started.elapsed().as_millis() as u64;
            publisher.flush_with(|s| {
                match msg {
                    FleetMsg::Started { worker } => {
                        s.running += 1;
                        s.busy[worker] = true;
                    }
                    FleetMsg::Done { worker, result } => {
                        s.running = s.running.saturating_sub(1);
                        s.busy[worker] = false;
                        s.per_worker[worker] += 1;
                        match result {
                            Ok(sample) => s.agg.record(sample),
                            Err(e) => {
                                s.agg.record_failure();
                                if s.errors.len() < 8 {
                                    s.errors.push(e);
                                }
                            }
                        }
                    }
                }
                s.elapsed_ms = elapsed_ms;
            });
        }
    });
    let elapsed_ms = started.elapsed().as_millis() as u64;
    publisher.flush_with(|s| {
        s.running = 0;
        s.busy.fill(false);
        s.elapsed_ms = elapsed_ms;
        s.finished = true;
    });
}

/// The `Arc`-wrapped handler the HTTP server wants.
pub fn into_fleet_handler(
    service: FleetService,
) -> Arc<dyn Fn(&Request) -> Response + Send + Sync> {
    let service = Arc::new(service);
    Arc::new(move |req: &Request| service.handle(req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_core::spec::expand_sweep;

    fn get(service: &FleetService, path: &str) -> Response {
        service.handle(&Request {
            method: "GET".into(),
            path: path.into(),
        })
    }

    #[test]
    fn one_run_produces_a_trace_derived_sample() {
        let spec = routing_core::spec::parse_run_spec("bf:5/bitrev/busch/3").unwrap();
        let sample = run_fleet_spec(&spec, true).expect("clean run");
        assert_eq!(sample.topo, "bf:5");
        assert_eq!(sample.algo, "busch");
        assert_eq!(sample.seed, 3);
        assert_eq!(sample.violations, 0);
        assert!(sample.steps > 0 && sample.moves > 0);
        assert!(sample.delivered == sample.packets);
        assert!(sample.ratio_cl() > 0.0);
        // Deterministic: the same spec yields the identical sample.
        assert_eq!(run_fleet_spec(&spec, false).unwrap(), sample);
    }

    #[test]
    fn a_run_over_the_build_work_budget_fails_before_any_path() {
        let spec = routing_core::spec::parse_run_spec("bf:12/m2m:16000000/greedy/1").unwrap();
        let e = run_fleet_spec(&spec, true).unwrap_err();
        assert!(e.ends_with("over the budget of 4294967296"), "{e}");
    }

    #[test]
    fn fleet_service_completes_a_sweep_and_serves_it() {
        let specs = expand_sweep("bf:5/bitrev/busch/1..6").unwrap();
        let mut service = FleetService::launch(FleetConfig {
            specs,
            workers: 3,
            verify: true,
            throttle_ms: 0,
        })
        .unwrap();
        service.wait();

        let fleet = get(&service, "/fleet");
        assert_eq!(fleet.status, 200);
        let doc = hotpotato_trace::parse_fleet(&fleet.body).expect("valid fleet doc");
        assert_eq!(doc["runs"].as_u64(), Some(6));
        assert_eq!(doc["failed"].as_u64(), Some(0));
        assert_eq!(doc["violations"].as_u64(), Some(0));
        assert_eq!(doc["cells"].as_array().unwrap().len(), 1);

        let progress = get(&service, "/fleet/progress");
        let pdoc = serde_json::from_str(&progress.body).unwrap();
        assert_eq!(pdoc["done"].as_u64(), Some(6));
        assert_eq!(pdoc["queued"].as_u64(), Some(0));
        assert_eq!(pdoc["finished"].as_bool(), Some(true));
        let workers = pdoc["workers"].as_array().unwrap();
        assert_eq!(workers.len(), 3);
        let runs: u64 = workers.iter().map(|w| w["runs"].as_u64().unwrap()).sum();
        assert_eq!(runs, 6, "per-worker runs must sum to total");
        assert!(workers.iter().all(|w| w["busy"].as_bool() == Some(false)));

        let metrics = get(&service, "/metrics").body;
        for family in [
            "hotpotato_steps_total",
            "hotpotato_moves_total",
            "hotpotato_deliveries_total",
            "hotpotato_deflections_total",
            "hotpotato_deflections_per_packet",
            "hotpotato_snapshot_seq",
            "hotpotato_run_finished",
            "hotpotato_fleet_runs_total",
            "hotpotato_fleet_violations_total",
            "hotpotato_fleet_ratio",
            "hotpotato_fleet_worker_runs_total",
        ] {
            assert!(
                metrics.contains(&format!("# TYPE {family} ")),
                "missing family {family}"
            );
        }
        assert!(metrics.contains("hotpotato_run_finished{run=\"fleet\"} 1"));
        let worker_runs: Vec<f64> = metrics
            .lines()
            .filter(|l| l.starts_with("hotpotato_fleet_worker_runs_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(worker_runs.len(), 3, "one sample per worker");
        assert_eq!(worker_runs.iter().sum::<f64>(), 6.0);

        assert_eq!(get(&service, "/healthz").body, "ok\n");
        assert_eq!(get(&service, "/nope").status, 404);
    }

    #[test]
    fn failed_runs_are_counted_not_fatal() {
        // `rank` parses as an algorithm but has no streaming rule, so the
        // run fails at execution and the sweep keeps going.
        let mut specs = expand_sweep("bf:5/bitrev/busch/1..2").unwrap();
        specs.extend(expand_sweep("bf:5/bitrev/rank/1/poisson:0.5").unwrap());
        let mut service = FleetService::launch(FleetConfig {
            specs,
            workers: 2,
            verify: false,
            throttle_ms: 0,
        })
        .unwrap();
        service.wait();
        let (runs, failed, errors) = service
            .reader()
            .acquire(|_, s| (s.agg.runs(), s.agg.failed(), s.errors.clone()));
        assert_eq!(runs, 2);
        assert_eq!(failed, 1);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("rank"), "{errors:?}");
    }

    #[test]
    fn empty_sweeps_are_rejected() {
        assert!(FleetService::launch(FleetConfig::new(Vec::new())).is_err());
    }

    #[test]
    fn explicit_router_runs_share_the_envelope() {
        use busch_router::{BuschRouter, Params};
        let spec = routing_core::spec::parse_run_spec("bf:5/bitrev/busch/9").unwrap();
        let (_, problem, _) = spec.instantiate().unwrap();
        let router = BuschRouter::new(Params::auto(&problem));
        let sample =
            run_fleet_router(&router, &problem, "bf:5", "bitrev", 9, true).expect("clean run");
        assert_eq!(sample.topo, "bf:5");
        assert_eq!(sample.algo, "busch");
        assert_eq!(sample.seed, 9);
        assert_eq!(sample.packets, problem.num_packets() as u64);
        assert_eq!(sample.violations, 0);
        assert!(sample.steps > 0);
        // Seeded fresh: repeatable.
        assert_eq!(
            run_fleet_router(&router, &problem, "bf:5", "bitrev", 9, false).unwrap(),
            sample
        );
    }

    #[test]
    fn streaming_specs_ride_the_fleet() {
        // An adversarial-arrival streaming run folds in like any other.
        let spec =
            routing_core::spec::parse_run_spec("bf:5/bitrev/greedy/2/adversarial:4:8").unwrap();
        let sample = run_fleet_spec(&spec, true).expect("streaming run");
        assert_eq!(sample.topo, "bf:5");
        assert!(sample.steps > 0);
        assert_eq!(sample.violations, 0);
    }
}
