//! Pins the preselected paths and their statistics bit for bit.
//!
//! `random_walks` is checked packet by packet against the per-path loop
//! below, which draws from the rng in the order the generator must keep:
//! one `gen_range` over the forward edges per step, walk after walk in
//! ascending source order. The statistics of four problems (random
//! walks, bit reversal, a relaxed many-to-many and a funnel) are pinned
//! as numbers, so a change in how paths are stored or generated that
//! moves a single edge fails here.

use leveled_net::{builders, EdgeId, LeveledNetwork, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing_core::spec::reconstruct_problem;
use routing_core::{workloads, RoutingProblem};
use std::sync::Arc;

/// The first `n` nodes with a forward edge, each walking forward along
/// a uniformly random edge until it reaches a node with none.
fn reference_walks(
    net: &LeveledNetwork,
    n: usize,
    rng: &mut ChaCha8Rng,
) -> Vec<(NodeId, Vec<EdgeId>)> {
    let sources: Vec<NodeId> = net
        .nodes()
        .filter(|&v| !net.fwd_edges(v).is_empty())
        .take(n)
        .collect();
    let mut out = Vec::with_capacity(n);
    for src in sources {
        let mut edges = Vec::new();
        let mut at = src;
        loop {
            let fwd = net.fwd_edges(at);
            if fwd.is_empty() {
                break;
            }
            let e = fwd[rng.gen_range(0..fwd.len())];
            edges.push(e);
            at = net.edge(e).head;
        }
        out.push((src, edges));
    }
    out
}

fn admissible(net: &LeveledNetwork) -> usize {
    net.nodes()
        .filter(|&v| !net.fwd_edges(v).is_empty())
        .count()
}

fn walks(k: u32, seed: u64) -> Arc<RoutingProblem> {
    let net = Arc::new(builders::butterfly(k));
    let n = admissible(&net);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    workloads::random_walks(&net, n, &mut rng).unwrap()
}

#[test]
fn random_walks_match_the_reference_loop() {
    for k in 6..=10 {
        for seed in 1..=3 {
            let net = Arc::new(builders::butterfly(k));
            for n in [admissible(&net), 37] {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let prob = workloads::random_walks(&net, n, &mut rng).unwrap();
                let after: u64 = rng.gen();
                let mut ref_rng = ChaCha8Rng::seed_from_u64(seed);
                let want = reference_walks(&net, n, &mut ref_rng);
                assert_eq!(after, ref_rng.gen::<u64>(), "bf:{k} seed {seed}: rng state");
                assert_eq!(prob.num_packets(), want.len(), "bf:{k} seed {seed}");
                for (i, (src, edges)) in want.iter().enumerate() {
                    let got = prob.path(i);
                    assert_eq!(got.source(), *src, "bf:{k} seed {seed} packet {i}");
                    assert_eq!(got.edges(), &edges[..], "bf:{k} seed {seed} packet {i}");
                }
                for (got, (src, edges)) in prob.paths().zip(&want) {
                    assert_eq!((got.source(), got.edges()), (*src, &edges[..]));
                }
            }
        }
    }
}

/// FNV-1a over a `u32` sequence: a stable fingerprint of a long vector.
fn fnv(values: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything the problem reports about its paths, in one comparable
/// value.
#[derive(Debug, PartialEq, Eq)]
struct Stats {
    packets: usize,
    relaxed: bool,
    /// Fingerprint of every `(source, length, edges...)` in packet order.
    paths: u64,
    congestion: u32,
    dilation: u32,
    /// `(entries, sum, fingerprint)` of the per-edge congestion.
    edge_congestion: (usize, u64, u64),
    /// Per-set congestion with packet `i` in set `i % 4`.
    per_set: Vec<u32>,
    length_histogram: Vec<usize>,
}

fn stats(prob: &RoutingProblem) -> Stats {
    let cong = prob.edge_congestion();
    let assignment: Vec<u32> = (0..prob.num_packets() as u32).map(|i| i % 4).collect();
    let mut flat = Vec::new();
    for p in prob.paths() {
        flat.push(p.source().0);
        flat.push(p.len() as u32);
        flat.extend(p.edges().iter().map(|e| e.0));
    }
    Stats {
        packets: prob.num_packets(),
        relaxed: prob.is_relaxed(),
        paths: fnv(&flat),
        congestion: prob.congestion(),
        dilation: prob.dilation(),
        edge_congestion: (
            cong.len(),
            cong.iter().map(|&c| u64::from(c)).sum(),
            fnv(&cong),
        ),
        per_set: prob.per_set_congestion(&assignment, 4),
        length_histogram: prob.path_length_histogram(),
    }
}

fn spec(topo: &str, workload: &str, seed: u64) -> Arc<RoutingProblem> {
    reconstruct_problem(topo, workload, seed).unwrap().1
}

#[test]
fn bf8_random_walk_statistics() {
    assert_eq!(
        stats(&walks(8, 1)),
        Stats {
            packets: 2048,
            relaxed: false,
            paths: 16597003309956343347,
            congestion: 11,
            dilation: 8,
            edge_congestion: (4096, 9216, 16366728290832240579),
            per_set: vec![8, 7, 8, 10],
            length_histogram: vec![0, 256, 256, 256, 256, 256, 256, 256, 256],
        }
    );
}

#[test]
fn bf8_bit_reversal_statistics() {
    assert_eq!(
        stats(&spec("bf:8", "bitrev", 1)),
        Stats {
            packets: 256,
            relaxed: false,
            paths: 11279776734149120293,
            congestion: 8,
            dilation: 8,
            edge_congestion: (4096, 2048, 15710582233247118117),
            per_set: vec![2, 2, 2, 2],
            length_histogram: vec![0, 0, 0, 0, 0, 0, 0, 0, 256],
        }
    );
}

#[test]
fn relaxed_many_to_many_statistics() {
    assert_eq!(
        stats(&spec("bf:6", "m2m:200", 2)),
        Stats {
            packets: 200,
            relaxed: true,
            paths: 12866679628208570747,
            congestion: 5,
            dilation: 6,
            edge_congestion: (768, 604, 14539621075462290949),
            per_set: vec![2, 2, 2, 3],
            length_histogram: vec![0, 52, 40, 32, 25, 30, 21],
        }
    );
}

#[test]
fn funnel_statistics() {
    assert_eq!(
        stats(&spec("bf:8", "funnel:12", 3)),
        Stats {
            packets: 12,
            relaxed: false,
            paths: 7080629013803895097,
            congestion: 12,
            dilation: 8,
            edge_congestion: (4096, 76, 15326639340150627761),
            per_set: vec![3, 3, 3, 3],
            length_histogram: vec![0, 0, 0, 0, 1, 3, 2, 3, 3],
        }
    );
}
