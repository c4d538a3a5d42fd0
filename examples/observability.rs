//! Observability: attach event sinks to a run without changing it.
//!
//! Routes one butterfly bit-reversal instance three ways to show the
//! [`RouteObserver`] surface:
//!
//! 1. unobserved (the zero-cost default),
//! 2. with a [`MetricsObserver`], a live [`Analyzer`] and a
//!    [`SectionProfiler`] composed as tuples, and
//! 3. through the object-safe [`Router`] trait with a JSONL trace.
//!
//! All three draw the same random sequence, so the routing itself is
//! byte-identical — observers only *watch*.
//!
//! ```text
//! cargo run --release --example observability [k]
//! ```

use hotpotato_routing::prelude::*;
use hotpotato_trace::verify::VerifiedInstance;
use hotpotato_trace::Analyzer;
use leveled_net::builders::ButterflyCoords;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn main() {
    let k: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);

    // The paper's reference instance: bit-reversal on the bf(k) butterfly.
    let net = Arc::new(builders::butterfly(k));
    let coords = ButterflyCoords { k };
    let problem = workloads::butterfly_bit_reversal(&net, &coords);
    let params = Params::auto(&problem);
    println!("instance: {}", problem.describe());

    // 1. The unobserved run. `route` is `route_observed` with a
    //    `NoopObserver`, whose inlined empty hooks compile away.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let plain = BuschRouter::new(params).route(&problem, &mut rng);
    println!("unobserved: {}", plain.stats.summary());

    // 2. The same run with metrics, a live analysis and section timing
    //    attached. Observers compose as tuples; each event fans out to
    //    every sink. The metrics sink keeps what only live positions
    //    show (occupancy, frame progress, per-set congestion); the
    //    analyzer counts the deflections.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut observer = (
        (
            MetricsObserver::new(&problem).with_occupancy_sampling(64),
            Analyzer::new(Some(VerifiedInstance::of(&problem))),
        ),
        SectionProfiler::new(),
    );
    let observed = BuschRouter::new(params).route_observed(&problem, &mut rng, &mut observer);
    let ((metrics, analyzer), profile) = observer;
    let analysis = analyzer.finish();
    assert_eq!(
        plain.stats.makespan(),
        observed.stats.makespan(),
        "observers must not perturb the run"
    );

    println!(
        "deflections: {} safe, {} unsafe",
        analysis.safe_deflections,
        analysis.deflections - analysis.safe_deflections
    );
    println!("deflection histogram (per-packet count, packets):");
    for (d, c) in analysis.deflection_histogram() {
        println!("  {d:>3} deflections: {c} packets");
    }
    println!(
        "Lemma 2.2 check: per-set congestion watermarks {:?} vs ln(L*N) = {:.2}",
        metrics.congestion_watermarks(),
        metrics.ln_ln_bound()
    );
    if let Some(row) = metrics.frame_progress().last() {
        println!(
            "last frame-progress row: phase {} set {} frontier {} max level {}",
            row.phase, row.set, row.frontier, row.max_level
        );
    }
    println!("sections: {}", profile.summary());

    // 3. Dispatch through the object-safe trait — what the CLI and the
    //    bench runner do — streaming a JSONL event trace to memory.
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(BuschRouter::new(params)),
        Box::new(GreedyRouter::with_config(GreedyConfig::default())),
    ];
    for router in &routers {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut trace = JsonlTraceObserver::new(Vec::new());
        let out = router.route(&problem, &mut rng, &mut trace);
        let buf = trace.finish().expect("in-memory writer cannot fail");
        println!(
            "{:<8} {} ({} trace lines)",
            out.algorithm,
            out.stats.summary(),
            buf.iter().filter(|&&b| b == b'\n').count()
        );
    }
}
