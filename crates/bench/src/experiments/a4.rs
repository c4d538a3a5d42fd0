//! A4 — ablation: safe backward deflections (Lemma 2.1).
//!
//! Safe deflections *recycle* edges between path lists: the loser takes
//! over exactly the edge the winner consumed, so current paths stay valid
//! and per-set congestion never increases (Lemma 4.10). We compare the
//! paper's rule against an arbitrary-deflection variant (losers take any
//! free link) and measure exactly what breaks: path validity (`I_b`),
//! congestion non-increase (`I_e`), and deviation depths.

use crate::runner::parallel_map;
use crate::table::Table;
use busch_router::{BuschConfig, BuschRouter, Params};
use hotpotato_trace::verify::VerifiedInstance;
use hotpotato_trace::Analyzer;
use leveled_net::builders::{self, ButterflyCoords};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use routing_core::workloads;
use std::sync::Arc;

/// Runs A4.
pub fn run(quick: bool) {
    let seeds: u64 = if quick { 3 } else { 8 };
    let k = 6;
    let net = Arc::new(builders::butterfly(k));
    let coords = ButterflyCoords { k };
    let prob = workloads::butterfly_bit_reversal(&net, &coords);
    let sets = (prob.congestion() / 4).max(1);
    let params = Params::scaled(6, 36, 0.1, sets);

    let mut t = Table::new(
        format!("A4: safe backward vs arbitrary deflection (bf({k}) bit-reversal, {seeds} seeds)"),
        &[
            "deflection rule",
            "delivered",
            "makespan",
            "max dev",
            "unsafe defl",
            "Ib paths",
            "Ie viol",
            "Ic viol",
        ],
    );
    for (label, arbitrary) in [
        ("safe backward (paper)", false),
        ("arbitrary free link", true),
    ] {
        let cfg = BuschConfig {
            arbitrary_deflections: arbitrary,
            ..BuschConfig::new(params)
        };
        let runs = parallel_map((0..seeds).collect::<Vec<u64>>(), |s| {
            let mut rng = ChaCha8Rng::seed_from_u64(9000 + s);
            let out = BuschRouter::with_config(cfg).route(&prob, &mut rng);
            (
                out.stats.delivered_count(),
                out.stats.makespan().unwrap_or(0),
                out.stats.max_deviation_overall(),
                out.invariants.invalid_current_paths,
                out.invariants.congestion_exceeded,
                out.invariants.frame_escapes,
                out.stats.counter("fallback_deflections"),
            )
        });
        let delivered: usize = runs.iter().map(|r| r.0).sum::<usize>() / runs.len();
        let makespan = runs.iter().map(|r| r.1).sum::<u64>() / seeds;
        let max_dev = runs.iter().map(|r| r.2).max().unwrap();
        let ib: u64 = runs.iter().map(|r| r.3).sum();
        let ie: u64 = runs.iter().map(|r| r.4).sum();
        let ic: u64 = runs.iter().map(|r| r.5).sum();
        let unsafe_defl: u64 = runs.iter().map(|r| r.6).sum();
        t.row(vec![
            label.to_string(),
            format!("{}/{}", delivered, prob.num_packets()),
            makespan.to_string(),
            max_dev.to_string(),
            unsafe_defl.to_string(),
            ib.to_string(),
            ie.to_string(),
            ic.to_string(),
        ]);
    }
    t.note("the safe rule produces *zero* unsafe deflections: Lemma 2.1's");
    t.note("guarantee (valid paths, non-increasing per-set congestion) holds");
    t.note("unconditionally. The arbitrary rule emits thousands of unsafe moves;");
    t.note("packets recover by phase end at this scale (Ib/Ie columns measure");
    t.note("phase-end state), but every guarantee of the analysis is forfeit —");
    t.note("the induction of §4 has nothing to stand on without safe deflections");
    t.print();

    // Observer-fed deflection anatomy of one run per rule: where the
    // deflections land (by level) and how unevenly they hit packets.
    let mut t = Table::new(
        "A4b: deflection anatomy (seed 9000, one run per rule)".to_string(),
        &[
            "deflection rule",
            "safe",
            "unsafe",
            "by level (0..L)",
            "per-packet histogram (defl:pkts)",
        ],
    );
    for (label, arbitrary) in [
        ("safe backward (paper)", false),
        ("arbitrary free link", true),
    ] {
        let cfg = BuschConfig {
            arbitrary_deflections: arbitrary,
            ..BuschConfig::new(params)
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9000);
        let mut analyzer = Analyzer::new(Some(VerifiedInstance::of(&prob)));
        BuschRouter::with_config(cfg).route_observed(&prob, &mut rng, &mut analyzer);
        let a = analyzer.finish();
        let by_level: Vec<String> = a
            .deflections_by_level()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        let hist: Vec<String> = a
            .deflection_histogram()
            .iter()
            .take(6)
            .map(|(d, c)| format!("{d}:{c}"))
            .collect();
        t.row(vec![
            label.to_string(),
            a.safe_deflections.to_string(),
            (a.deflections - a.safe_deflections).to_string(),
            by_level.join(" "),
            hist.join(" "),
        ]);
    }
    t.note("safe deflections push packets *backward*, so they concentrate on");
    t.note("low levels; the arbitrary rule scatters them across the network");
    t.print();
}
