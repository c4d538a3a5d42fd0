//! T6 — §1.2: "packets stay very close to their preselected paths".
//!
//! A deflected packet prepends the deflection edge to its path list and
//! must undo it; the deviation-stack depth is exactly the distance from
//! the preselected path. The paper argues packets inside their frames stay
//! within polylog distance; structurally the deviation can never exceed
//! the frame height `m`. We sweep instance size and report the deviation
//! distribution for the paper's router against the (unframed) greedy
//! baseline.

use crate::runner::{self, average, parallel_map};
use crate::table::{f, Table};
use busch_router::Params;
use leveled_net::builders::{self, ButterflyCoords};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::workloads;
use std::sync::Arc;

/// Runs T6.
pub fn run(quick: bool) {
    let seeds: u64 = if quick { 2 } else { 5 };
    let ks: &[u32] = if quick { &[4, 6] } else { &[4, 6, 8] };

    let mut t = Table::new(
        "T6: deviation from preselected paths (paper §1.2: polylog distance)",
        &[
            "instance",
            "N",
            "L",
            "m (frame)",
            "busch max dev",
            "busch defl/pkt",
            "greedy max dev",
            "greedy defl/pkt",
            "dev ≤ m?",
        ],
    );
    for &k in ks {
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let prob = workloads::butterfly_permutation(&net, &coords, &mut rng);
        let params = Params::auto(&prob);

        let busch = average(&parallel_map((0..seeds).collect::<Vec<u64>>(), |s| {
            runner::run_busch(&prob, params, 5000 + s)
        }));
        let greedy = average(&parallel_map((0..seeds).collect::<Vec<u64>>(), |s| {
            runner::run_algo("greedy", &prob, 5100 + s)
        }));
        let n = prob.num_packets();
        t.row(vec![
            format!("bf({k}) permutation"),
            n.to_string(),
            net.depth().to_string(),
            params.m.to_string(),
            busch.max_deviation.to_string(),
            f(busch.deflections as f64 / n as f64),
            greedy.max_deviation.to_string(),
            f(greedy.deflections as f64 / n as f64),
            (busch.max_deviation <= params.m).to_string(),
        ]);
    }
    // A high-pressure instance.
    {
        let k = if quick { 6 } else { 8 };
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = workloads::butterfly_bit_reversal(&net, &coords);
        let params = Params::auto(&prob);
        let busch = average(&parallel_map((0..seeds).collect::<Vec<u64>>(), |s| {
            runner::run_busch(&prob, params, 5200 + s)
        }));
        let greedy = average(&parallel_map((0..seeds).collect::<Vec<u64>>(), |s| {
            runner::run_algo("greedy", &prob, 5300 + s)
        }));
        let n = prob.num_packets();
        t.row(vec![
            format!("bf({k}) bit-reversal"),
            n.to_string(),
            net.depth().to_string(),
            params.m.to_string(),
            busch.max_deviation.to_string(),
            f(busch.deflections as f64 / n as f64),
            greedy.max_deviation.to_string(),
            f(greedy.deflections as f64 / n as f64),
            (busch.max_deviation <= params.m).to_string(),
        ]);
    }
    t.note("the frame structurally caps busch's deviation at m = O(polylog)");
    t.note("independent of N and C — the paper's 'stay close to paths' claim");
    t.print();
}
