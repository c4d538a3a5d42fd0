//! PERF — simulator throughput (not a paper artifact).
//!
//! Wall-clock throughput of four classic components on the fixed bf(k)
//! bit-reversal instance (k = 10 quick, 12 full): the audited Busch
//! router, the greedy router with a move record, the replay audit of
//! that record, and store-and-forward. Each component is re-run until
//! its cumulative wall time reaches [`MIN_COMPONENT_WALL_S`] (non-quick
//! mode) and reports its **fastest** run — sub-millisecond components
//! (the greedy router finishes bf(12) in ~1 ms) would otherwise report
//! timer-granularity noise as throughput.
//!
//! [`measure`] returns the raw numbers; [`run`] renders them as a table.
//! The `tables` binary's `perfjson` mode serializes [`measure`]'s output
//! as a perf baseline document, and `tables gate` holds each of
//! [`COMPONENTS`] to a floor derived from the committed ones
//! (`BENCH_PR1/3/6/10.json`; see [`crate::gate::adaptive_perf_gate`]).
//!
//! Large instances, streaming, trace verification and fleet throughput
//! are measured by `examples/hpbench` (medians over repetitions, each
//! workload's peak RSS in a process of its own); its committed ledger is
//! the highest-numbered `BENCH_PR<N>.json`.

use crate::table::{f, Table};
use baselines::{GreedyRouter, StoreForwardRouter};
use busch_router::{BuschRouter, Params};
use hotpotato_sim::RunRecord;
use leveled_net::builders::{self, ButterflyCoords};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::workloads;
use std::sync::Arc;
use std::time::Instant;

/// The components [`measure`] times, in row order: the set the perf gate
/// checks against the committed baselines.
pub const COMPONENTS: &[&str] = &[
    "busch (audited)",
    "greedy (recorded)",
    "replay audit",
    "store-and-forward",
];

/// Minimum cumulative wall time per component in non-quick mode: repeat
/// until the total measured time reaches this, then report the fastest
/// single run.
pub const MIN_COMPONENT_WALL_S: f64 = 0.05;

/// One timed component of the PERF suite.
#[derive(Clone, Debug)]
pub struct PerfMeasurement {
    /// Component label ("busch (audited)", "replay audit", ...).
    pub component: &'static str,
    /// Packets in the instance.
    pub packets: u64,
    /// Wall time of the fastest run, in seconds.
    pub wall_s: f64,
    /// How many runs the component was timed over.
    pub repeats: u32,
    /// Engine steps executed (`None` for non-stepped components).
    pub steps: Option<u64>,
    /// Packet moves performed (real counts, not estimates).
    pub moves: u64,
    /// Invariant violations observed (`None` where no audit runs).
    pub violations: Option<u64>,
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
}

/// The full PERF report: the fixed instance plus one row per component.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Butterfly order of the instance.
    pub k: u32,
    /// Number of packets on the instance.
    pub n: u64,
    /// Nodes in the network.
    pub nodes: usize,
    /// Edges in the network.
    pub edges: usize,
    /// Timed components.
    pub rows: Vec<PerfMeasurement>,
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
            packets: n,
            wall_s,
            repeats,
            steps: Some(out.stats.steps_run),
            moves: out.stats.counter("moves"),
            violations: Some(out.invariants.total_violations()),
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
            packets: n,
            wall_s,
            repeats,
            steps: Some(out.stats.steps_run),
            moves: record.len() as u64,
            violations: None,
        });

        let (wall_s, repeats, rep) = timed_best(quick, || {
            hotpotato_sim::replay::verify(&prob, &record, &out.stats).expect("clean")
        });
        rows.push(PerfMeasurement {
            component: "replay audit",
            packets: n,
            wall_s,
            repeats,
            steps: None,
            moves: rep.moves,
            violations: None,
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
        let moves: u64 = prob.paths().map(|p| p.len() as u64).sum();
        rows.push(PerfMeasurement {
            component: "store-and-forward",
            packets: n,
            wall_s,
            repeats,
            steps: Some(out.stats.steps_run),
            moves,
            violations: None,
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

/// Runs PERF.
pub fn run(quick: bool) {
    let report = measure(quick);
    let mut t = Table::new(
        format!(
            "PERF: end-to-end throughput on bf({}) bit-reversal (N={}, {} nodes, {} edges)",
            report.k, report.n, report.nodes, report.edges
        ),
        &[
            "component",
            "best wall (s)",
            "runs",
            "steps/s",
            "moves/s",
            "packets/s",
        ],
    );
    for row in &report.rows {
        t.row(vec![
            row.component.into(),
            f(row.wall_s),
            row.repeats.to_string(),
            row.steps_per_s().map_or_else(|| "-".into(), f),
            f(row.moves_per_s()),
            f(row.packets_per_s()),
        ]);
    }
    t.note("best-of-repeats per component; the busch row runs with invariant audits on");
    t.note("larger instances, streaming, trace verification and fleet: examples/hpbench");
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_times_exactly_the_gated_components() {
        let names: Vec<&str> = measure(true).rows.iter().map(|r| r.component).collect();
        assert_eq!(names, COMPONENTS);
    }
}
