//! Time-space diagram of a routing run: reconstructs every packet's level
//! per step from the movement record and renders the occupancy as an
//! ASCII heat map (rows = time, columns = levels). Busch's frontier-frame
//! pipeline appears as clean diagonal stripes sweeping toward level `L`;
//! greedy routing, by contrast, is a short burst.
//!
//! ```text
//! cargo run --release --example time_space [seed]
//! ```

use baselines::GreedyRouter;
use busch_router::{BuschRouter, Params};
use hotpotato_routing::prelude::*;
use hotpotato_sim::RunRecord;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // A deep synthetic network with a hot-spot workload: packets spend
    // many phases riding their frames, which makes the diagram vivid.
    let net = Arc::new(builders::complete_leveled(14, 8));
    let problem = workloads::hotspot(&net, 48, 3, &mut rng).expect("fits");
    println!("problem: {}\n", problem.describe());

    let params = Params::scaled(5, 15, 0.1, 3);
    let mut record = RunRecord::default();
    let out = BuschRouter::new(params).route_observed(&problem, &mut rng, &mut record);
    assert!(out.stats.all_delivered());
    println!(
        "== busch (m={} w={} sets={}): {} steps ==",
        params.m,
        params.w,
        params.num_sets,
        out.stats.makespan().unwrap()
    );
    render(&problem, &record, out.stats.makespan().unwrap(), 60);

    let mut record = RunRecord::default();
    let gout = GreedyRouter::new().route_observed(&problem, &mut rng, &mut record);
    println!("\n== greedy: {} steps ==", gout.stats.makespan().unwrap());
    render(&problem, &record, gout.stats.makespan().unwrap(), 60);

    println!(
        "\nEach row is a (sampled) step; each column a level. Digits count\n\
         in-flight packets at that level (x = 10+). Busch's packets ride the\n\
         frontier-frame diagonals; greedy rushes everything at once."
    );
}

/// Renders occupancy-by-level over time, sampling at most `max_rows` rows.
fn render(problem: &routing_core::RoutingProblem, record: &RunRecord, span: u64, max_rows: u64) {
    let rows = hotpotato_sim::record::level_occupancy(problem, record);
    let levels = problem.network().num_levels();
    let stride = (span / max_rows).max(1);

    print!("{:>7} ", "step");
    for l in 0..levels {
        print!("{}", l % 10);
    }
    println!("  in-flight");

    for (t, hist) in rows.iter().enumerate() {
        if !(t as u64).is_multiple_of(stride) {
            continue;
        }
        print!("{:>7} ", t + 1);
        for &h in hist {
            let c = match h {
                0 => '.',
                1..=9 => char::from_digit(h, 10).unwrap(),
                _ => 'x',
            };
            print!("{c}");
        }
        println!("  {}", hist.iter().sum::<u32>());
    }
}
