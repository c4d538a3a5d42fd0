//! The monitoring service: hosts simulation runs and renders endpoints.
//!
//! [`Service::launch`] validates every [`RunConfig`] up front (topology,
//! workload, and algorithm all parse before any thread starts), then
//! spawns one simulation thread per run. Each thread drives its router
//! with a [`LiveObserver`] and finishes with a blocking flush, so after
//! [`Service::wait`] the served state is the exact final [`RouteStats`](hotpotato_sim::RouteStats).
//!
//! Endpoint rendering is pure: `handle` only reads snapshots through the
//! exchange, so it can be called from any number of HTTP threads.

use crate::http::{Request, Response, EXPOSITION_CONTENT_TYPE};
use crate::live::{LiveObserver, LiveSnapshot, DEFL_BUCKET_BOUNDS, LAT_BUCKET_BOUNDS};
use crate::prom::{Kind, PromWriter};
use baselines::{GreedyConfig, GreedyRouter, RandomPriorityRouter, StoreForwardRouter};
use busch_router::{BuschRouter, Params};
use hotpotato_sim::{
    nearest_rank, route_streaming_observed, AdmissionControl, Router, SnapshotReader,
    StreamPriority, StreamingConfig,
};
use hotpotato_trace::{report_json, rollup_doc, Rollup};
use rand_chacha::ChaCha8Rng;
use routing_core::spec::RunSpec;
use routing_core::RoutingProblem;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One run to host.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// What to simulate.
    pub spec: RunSpec,
    /// Publish a snapshot every this many steps (min 1).
    pub publish_every: u64,
    /// Bucket cap of the run's rollup aggregator.
    pub rollup_cap: usize,
    /// Per-step sleep in microseconds (0 = full speed). Lets CI stretch
    /// a short run far enough to scrape it mid-flight.
    pub throttle_us: u64,
    /// Streaming admission control: in-flight cap and injection-queue
    /// bound (ignored by batch runs).
    pub admission: AdmissionControl,
}

impl RunConfig {
    /// Default cadences for `spec`: publish every 64 steps, 64 rollup
    /// buckets, no throttle, default admission bounds.
    pub fn new(spec: RunSpec) -> Self {
        RunConfig {
            spec,
            publish_every: 64,
            rollup_cap: 64,
            throttle_us: 0,
            admission: AdmissionControl::default(),
        }
    }
}

/// Builds the batch router `algo` names, with default configurations:
/// the one table from algorithm names to batch routers (the CLI builds
/// only Busch with explicit `--params` itself).
pub fn build_router(algo: &str, problem: &RoutingProblem) -> Result<Box<dyn Router>, String> {
    Ok(match algo {
        "busch" => Box::new(BuschRouter::new(Params::auto(problem))),
        "greedy" | "ftg" | "aging" => Box::new(GreedyRouter::with_config(GreedyConfig {
            priority: StreamPriority::for_algo(algo)?,
            ..Default::default()
        })),
        "rank" => Box::new(RandomPriorityRouter::new()),
        "sf" => Box::new(StoreForwardRouter::fifo()),
        "sfrank" => Box::new(StoreForwardRouter::random_rank(problem.congestion() as u64)),
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

/// A hosted run: its identity plus the reader half of its exchange.
struct RunHandle {
    name: String,
    spec: RunSpec,
    reader: SnapshotReader<LiveSnapshot>,
    join: Option<JoinHandle<()>>,
}

/// The run registry behind the HTTP handler.
pub struct Service {
    /// Sorted by name at launch, so every endpoint renders runs in a
    /// deterministic order.
    runs: Vec<RunHandle>,
}

impl Service {
    /// Validates all configs, then spawns one simulation thread per run.
    /// Fails (without spawning anything) on the first bad spec or a
    /// duplicate run name.
    pub fn launch(configs: Vec<RunConfig>) -> Result<Service, String> {
        if configs.is_empty() {
            return Err("no runs configured".into());
        }
        // Parse everything first: a service with half its runs dead on
        // arrival helps nobody.
        let mut prepared: Vec<(String, RunConfig, Arc<RoutingProblem>, ChaCha8Rng)> =
            Vec::with_capacity(configs.len());
        for config in configs {
            let spec = &config.spec;
            // The single instantiation path shared with the CLI: one rng
            // seeds the workload and then keeps driving the run, so a
            // served run is trajectory-identical to `hotpotato route`
            // with the same spec.
            let (_topo, problem, rng) = spec.instantiate()?;
            // Validate the algorithm/arrival combination now; the thread
            // rebuilds the router (it is cheap and `Box<dyn Router>` is
            // not `Send`).
            match spec.arrival_process()? {
                Some(_) => {
                    StreamPriority::for_algo(&spec.algo)?;
                }
                None => {
                    build_router(&spec.algo, &problem)?;
                }
            }
            let name = spec.name();
            if prepared.iter().any(|(n, ..)| *n == name) {
                return Err(format!("duplicate run '{name}'"));
            }
            prepared.push((name, config, problem, rng));
        }
        prepared.sort_by(|a, b| a.0.cmp(&b.0));

        let mut runs = Vec::with_capacity(prepared.len());
        for (name, config, problem, mut rng) in prepared {
            let (observer, reader) =
                LiveObserver::new(&problem, config.publish_every, config.rollup_cap);
            let mut observer = observer.with_throttle_us(config.throttle_us);
            let spec = config.spec.clone();
            let admission = config.admission;
            let join = std::thread::spawn(move || {
                match spec.arrival_process().expect("arrival validated at launch") {
                    Some(process) => {
                        // Streaming: draw the arrival schedule from the
                        // post-workload rng, then drive the open-ended
                        // injection loop from the same stream.
                        let schedule = process.schedule(problem.num_packets(), &mut rng);
                        let cfg = StreamingConfig {
                            admission,
                            priority: StreamPriority::for_algo(&spec.algo)
                                .expect("algo validated at launch"),
                            ..StreamingConfig::default()
                        };
                        let outcome = route_streaming_observed(
                            &problem,
                            &schedule,
                            &cfg,
                            &mut rng,
                            &mut observer,
                        );
                        observer.finish(&outcome.stats);
                    }
                    None => {
                        let router =
                            build_router(&spec.algo, &problem).expect("algo validated at launch");
                        let outcome = router.route(&problem, &mut rng, &mut observer);
                        observer.finish(&outcome.stats);
                    }
                }
            });
            runs.push(RunHandle {
                name,
                spec: config.spec,
                reader,
                join: Some(join),
            });
        }
        Ok(Service { runs })
    }

    /// The hosted run names, in serving order.
    pub fn run_names(&self) -> Vec<&str> {
        self.runs.iter().map(|r| r.name.as_str()).collect()
    }

    /// The snapshot reader of a run, if hosted.
    pub fn reader(&self, name: &str) -> Option<&SnapshotReader<LiveSnapshot>> {
        self.runs.iter().find(|r| r.name == name).map(|r| &r.reader)
    }

    /// Blocks until every simulation thread has quiesced (final snapshots
    /// flushed). Endpoints keep serving the final state afterwards.
    pub fn wait(&mut self) {
        for run in &mut self.runs {
            if let Some(join) = run.join.take() {
                // A panicked run thread still leaves a coherent (if
                // unfinished) snapshot; serving beats crashing the server.
                let _ = join.join();
            }
        }
    }

    /// Routes one request. Pure read; callable from any thread.
    // lint: no-panic
    pub fn handle(&self, req: &Request) -> Response {
        let path = req.path.split('?').next().unwrap_or("");
        match path {
            "/healthz" => Response::ok("text/plain; charset=utf-8", "ok\n".into()),
            "/runs" => Response::json(self.render_runs()),
            "/metrics" => Response::ok(EXPOSITION_CONTENT_TYPE, self.render_metrics()),
            _ => match path.strip_prefix("/rollup/") {
                Some(name) => match self.reader(name) {
                    Some(reader) => Response::json(render_rollup(name, reader)),
                    None => Response::not_found(&format!("run '{name}'")),
                },
                None => Response::not_found(path),
            },
        }
    }

    /// `/runs`: identity and progress of every hosted run.
    fn render_runs(&self) -> String {
        let runs: Vec<serde::Value> = self
            .runs
            .iter()
            .map(|run| {
                let (seq, steps, finished) =
                    run.reader.acquire(|seq, s| (seq, s.steps, s.finished));
                serde_json::json!({
                    "run": run.name.clone(),
                    "topo": run.spec.topo.clone(),
                    "workload": run.spec.workload.clone(),
                    "algo": run.spec.algo.clone(),
                    "seed": run.spec.seed,
                    "arrival": run.spec.arrival.clone().unwrap_or_default(),
                    "seq": seq,
                    "steps": steps,
                    "finished": finished,
                })
            })
            .collect();
        let mut body = serde::Value::Array(runs).to_compact_string();
        body.push('\n');
        body
    }

    /// `/metrics`: the full exposition across runs, one family at a
    /// time so every metric name appears exactly once.
    fn render_metrics(&self) -> String {
        // Clone each run's snapshot once, outside the per-family loops:
        // n_runs slot locks total, and every family renders from the
        // same coherent view.
        let snaps: Vec<(&str, u64, LiveSnapshot)> = self
            .runs
            .iter()
            .map(|run| {
                let (seq, snap) = run.reader.acquire(|seq, s| (seq, s.clone()));
                (run.name.as_str(), seq, snap)
            })
            .collect();

        let mut w = PromWriter::new();
        let counter = |w: &mut PromWriter, name, help, field: &dyn Fn(&LiveSnapshot) -> u64| {
            w.family(name, help, Kind::Counter);
            for (run, _, s) in &snaps {
                w.sample(name, &[("run", run)], field(s) as f64);
            }
        };
        counter(
            &mut w,
            "hotpotato_steps_total",
            "Simulation steps completed.",
            &|s| s.steps,
        );
        counter(
            &mut w,
            "hotpotato_moves_total",
            "Packet moves staged (injections included).",
            &|s| s.moves,
        );
        counter(
            &mut w,
            "hotpotato_deliveries_total",
            "Packets delivered (trivial deliveries included).",
            &|s| s.delivered,
        );
        counter(
            &mut w,
            "hotpotato_trivial_deliveries_total",
            "Source==destination deliveries.",
            &|s| s.trivial,
        );
        counter(
            &mut w,
            "hotpotato_injected_total",
            "Packets injected into the network.",
            &|s| s.injected,
        );
        counter(
            &mut w,
            "hotpotato_oscillations_total",
            "Wait-state oscillation moves.",
            &|s| s.oscillations,
        );
        counter(
            &mut w,
            "hotpotato_arrivals_total",
            "Streaming packets surfaced by the arrival process (0 in batch mode).",
            &|s| s.arrivals,
        );
        counter(
            &mut w,
            "hotpotato_dropped_total",
            "Streaming packets dropped by admission control (queue full).",
            &|s| s.drops,
        );

        w.family(
            "hotpotato_deflections_total",
            "Deflections by kind (safe = backward edge recycling, Lemma 2.1).",
            Kind::Counter,
        );
        for (run, _, s) in &snaps {
            w.sample(
                "hotpotato_deflections_total",
                &[("run", run), ("kind", "safe")],
                s.safe_deflections as f64,
            );
            w.sample(
                "hotpotato_deflections_total",
                &[("run", run), ("kind", "unsafe")],
                s.unsafe_deflections as f64,
            );
        }

        w.family(
            "hotpotato_deflections_per_packet",
            "Distribution of per-packet deflection counts.",
            Kind::Histogram,
        );
        let bounds: Vec<f64> = DEFL_BUCKET_BOUNDS.iter().map(|&b| f64::from(b)).collect();
        for (run, _, s) in &snaps {
            w.histogram(
                "hotpotato_deflections_per_packet",
                &[("run", run)],
                &bounds,
                &s.defl_hist,
                s.total_deflections() as f64,
            );
        }

        w.family(
            "hotpotato_delivery_latency_steps",
            "Distribution of delivery latencies (steps from injection to absorption).",
            Kind::Histogram,
        );
        let lat_bounds: Vec<f64> = LAT_BUCKET_BOUNDS.iter().map(|&b| b as f64).collect();
        for (run, _, s) in &snaps {
            w.histogram(
                "hotpotato_delivery_latency_steps",
                &[("run", run)],
                &lat_bounds,
                &s.lat_hist,
                s.lat_sum as f64,
            );
        }

        w.family(
            "hotpotato_delivery_latency_window_steps",
            "Sliding-window latency percentiles over the most recent deliveries.",
            Kind::Gauge,
        );
        for (run, _, s) in &snaps {
            let mut window = s.lat_window.clone();
            window.sort_unstable();
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                w.sample(
                    "hotpotato_delivery_latency_window_steps",
                    &[("run", run), ("quantile", label)],
                    nearest_rank(&window, q).map_or(f64::NAN, |v| v as f64),
                );
            }
        }

        let gauge = |w: &mut PromWriter, name, help, field: &dyn Fn(&LiveSnapshot) -> f64| {
            w.family(name, help, Kind::Gauge);
            for (run, _, s) in &snaps {
                w.sample(name, &[("run", run)], field(s));
            }
        };
        gauge(
            &mut w,
            "hotpotato_packets",
            "Packets in the instance.",
            &|s| s.packets as f64,
        );
        gauge(
            &mut w,
            "hotpotato_active_packets",
            "In-flight packets after the last step.",
            &|s| s.active as f64,
        );
        gauge(
            &mut w,
            "hotpotato_phases",
            "Phases started (0 for phase-less routers).",
            &|s| s.phases as f64,
        );
        gauge(
            &mut w,
            "hotpotato_injection_queue_depth",
            "Streaming packets arrived but not yet admitted or dropped.",
            &|s| s.queue_depth() as f64,
        );
        gauge(
            &mut w,
            "hotpotato_congestion_bound_ln",
            "Lemma 2.2 ln(L*N) per-set congestion bound.",
            &|s| s.ln_ln_bound,
        );
        gauge(
            &mut w,
            "hotpotato_run_finished",
            "1 once the run quiesced.",
            &|s| {
                if s.finished {
                    1.0
                } else {
                    0.0
                }
            },
        );

        w.family(
            "hotpotato_level_occupancy",
            "Live per-level packet count.",
            Kind::Gauge,
        );
        per_level(&mut w, "hotpotato_level_occupancy", &snaps, |s| {
            &s.occupancy
        });
        w.family(
            "hotpotato_level_occupancy_watermark",
            "Max per-level occupancy observed at any step end.",
            Kind::Gauge,
        );
        per_level(&mut w, "hotpotato_level_occupancy_watermark", &snaps, |s| {
            &s.level_watermark
        });

        w.family(
            "hotpotato_set_congestion_initial",
            "Initial per-frontier-set congestion.",
            Kind::Gauge,
        );
        per_set(&mut w, "hotpotato_set_congestion_initial", &snaps, |s| {
            &s.congestion_initial
        });
        w.family(
            "hotpotato_set_congestion_watermark",
            "Max audited per-frontier-set congestion across phase ends.",
            Kind::Gauge,
        );
        per_set(&mut w, "hotpotato_set_congestion_watermark", &snaps, |s| {
            &s.congestion_watermark
        });

        w.family(
            "hotpotato_snapshot_seq",
            "Sequence number of the served snapshot.",
            Kind::Gauge,
        );
        for (run, seq, _) in &snaps {
            w.sample("hotpotato_snapshot_seq", &[("run", run)], *seq as f64);
        }
        w.finish()
    }
}

/// Indexed gauge samples with a `level` label.
fn per_level(
    w: &mut PromWriter,
    name: &str,
    snaps: &[(&str, u64, LiveSnapshot)],
    field: impl Fn(&LiveSnapshot) -> &[u32],
) {
    for (run, _, s) in snaps {
        for (level, &v) in field(s).iter().enumerate() {
            let level = level.to_string();
            w.sample(name, &[("run", run), ("level", &level)], f64::from(v));
        }
    }
}

/// Indexed gauge samples with a `set` label.
fn per_set(
    w: &mut PromWriter,
    name: &str,
    snaps: &[(&str, u64, LiveSnapshot)],
    field: impl Fn(&LiveSnapshot) -> &[u32],
) {
    for (run, _, s) in snaps {
        for (set, &v) in field(s).iter().enumerate() {
            let set = set.to_string();
            w.sample(name, &[("run", run), ("set", &set)], f64::from(v));
        }
    }
}

/// `/rollup/<run>`: the schema-versioned [`Rollup`] envelope around the
/// snapshot's aggregator state, rendered through the *same*
/// [`report_json`] the in-process [`StreamingAggregator::to_json`] uses —
/// which is what makes the quiesce-consistency guarantee structural.
///
/// [`StreamingAggregator::to_json`]: hotpotato_trace::StreamingAggregator::to_json
fn render_rollup(name: &str, reader: &SnapshotReader<LiveSnapshot>) -> String {
    let envelope = reader.acquire(|seq, s| {
        let rollup = report_json(
            s.rollup_keyed_by,
            s.rollup_cap,
            s.rollup_scale,
            s.rollup_merges,
            &s.rollup_totals,
            &s.rollup_buckets,
        );
        rollup_doc(&Rollup {
            schema: hotpotato_trace::SCHEMA_VERSION,
            run: name.to_owned(),
            seq,
            finished: s.finished,
            rollup,
        })
    });
    let mut body = envelope.to_compact_string();
    body.push('\n');
    body
}

/// The `Arc`-wrapped handler the HTTP server wants.
pub fn into_handler(service: Service) -> Arc<dyn Fn(&Request) -> Response + Send + Sync> {
    let service = Arc::new(service);
    Arc::new(move |req: &Request| service.handle(req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use routing_core::spec::{parse_run_spec, KNOWN_ALGOS};

    #[test]
    fn every_known_algo_builds_a_batch_router() {
        let (_, problem, _) = parse_run_spec("bf:4/bitrev")
            .unwrap()
            .instantiate()
            .unwrap();
        for &algo in KNOWN_ALGOS {
            let router = build_router(algo, &problem)
                .unwrap_or_else(|e| panic!("'{algo}' does not build: {e}"));
            // Variants of one router share its name.
            let want = match algo {
                "ftg" | "aging" => "greedy",
                "sfrank" => "sf",
                other => other,
            };
            assert_eq!(router.name(), want);
        }
        assert!(build_router("nosuch", &problem).is_err());
    }
}
