//! T4 — algorithm comparison: "the benefit from buffers is no more than
//! polylogarithmic" (§1.2).
//!
//! Head-to-head on the evaluation workloads: the paper's router, the two
//! greedy hot-potato baselines, and buffered store-and-forward (FIFO and
//! random-rank), against the `max(C, D)` lower bound. The expected shape:
//!
//! * buffered routing sits near the lower bound;
//! * greedy hot-potato is close behind on these instances (but carries no
//!   guarantee — it can be forced into livelock-like behaviour);
//! * the paper's router pays a polylog *schedule* factor (`m²·w`-ish) over
//!   `C + L` — bounded, predictable, and the whole point of Theorem 2.6.

use crate::runner::{self, average, parallel_map, RunSummary};
use crate::table::{f, Table};
use leveled_net::builders::{self, ButterflyCoords, MeshCorner};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::{workloads, RoutingProblem};
use std::sync::Arc;

type Algo = (&'static str, fn(&Arc<RoutingProblem>, u64) -> RunSummary);

const ALGOS: &[Algo] = &[
    ("busch (paper)", |p, s| runner::run_algo("busch", p, s)),
    ("greedy", |p, s| runner::run_algo("greedy", p, s)),
    ("random-priority", |p, s| runner::run_algo("rank", p, s)),
    ("store-fwd FIFO", |p, s| runner::run_algo("sf", p, s)),
    ("store-fwd ranked", |p, s| runner::run_algo("sfrank", p, s)),
    ("store-fwd buf=2", runner::run_store_forward_bounded),
];

/// Runs T4.
pub fn run(quick: bool) {
    let seeds: u64 = if quick { 2 } else { 5 };

    let mut instances: Vec<(String, Arc<RoutingProblem>)> = Vec::new();
    {
        let k = 6;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        instances.push((
            format!("bf({k}) permutation"),
            workloads::butterfly_permutation(&net, &coords, &mut rng),
        ));
    }
    if !quick {
        let k = 8;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        instances.push((
            format!("bf({k}) bit-reversal"),
            workloads::butterfly_bit_reversal(&net, &coords),
        ));
    }
    {
        let n = if quick { 8 } else { 16 };
        let (raw, coords) = builders::mesh(n, n, MeshCorner::TopLeft);
        let net = Arc::new(raw);
        instances.push((
            format!("mesh({n}) transpose"),
            workloads::mesh_transpose(&net, &coords).unwrap(),
        ));
    }
    {
        let net = Arc::new(builders::complete_leveled(12, 6));
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        instances.push((
            "hotspot 32->3".into(),
            workloads::hotspot(&net, 32, 3, &mut rng).unwrap(),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        instances.push((
            "funnel C≈32".into(),
            workloads::funnel(&net, 32, &mut rng).unwrap(),
        ));
    }

    for (name, prob) in &instances {
        let c = prob.congestion();
        let d = prob.dilation();
        let l = prob.network().depth();
        let lower = c.max(d) as u64;
        let mut t = Table::new(
            format!(
                "T4: {name} — N={n} C={c} D={d} L={l}, lower bound max(C,D)={lower}",
                n = prob.num_packets()
            ),
            &[
                "algorithm",
                "makespan",
                "T/lower",
                "mean latency",
                "deflections",
                "max dev",
                "delivered",
            ],
        );
        for (aname, algo) in ALGOS {
            let runs = parallel_map((0..seeds).collect::<Vec<u64>>(), |s| algo(prob, 3000 + s));
            let avg = average(&runs);
            t.row(vec![
                aname.to_string(),
                avg.makespan.to_string(),
                f(avg.makespan as f64 / lower as f64),
                f(avg.mean_latency),
                avg.deflections.to_string(),
                avg.max_deviation.to_string(),
                format!("{}/{}", avg.delivered, avg.n),
            ]);
        }
        t.note("buffered baselines sit near the lower bound; busch pays its");
        t.note("predictable polylog schedule factor — the buffer benefit is polylog");
        t.print();
    }
}
