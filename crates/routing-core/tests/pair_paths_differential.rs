//! Differential test of the pair-path workloads against the previous
//! per-packet routine.
//!
//! `oracle` below is the previous code, kept here as test-only reference:
//! for every packet it fills a reachability mask of the whole network,
//! scans every node for destinations, and sweeps path counts over every
//! level below the destination. The library walks the source's forward
//! cone for the destination and counts paths over the destination's
//! backward cone alone, reusing its buffers from packet to packet. On
//! every instance below both must draw the same paths and leave the rng
//! in the same state, and after every draw the library's weights must
//! equal the oracle's counts bit for bit from the source's level up.

use leveled_net::{LeveledNetwork, NodeId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing_core::paths::{random_minimal, PairSampler};
use routing_core::spec::parse_topo;
use routing_core::workloads;

/// The previous O(V + E) routine, unchanged apart from returning its
/// counts and whether a level rescaled.
mod oracle {
    use leveled_net::{LeveledNetwork, NodeId};
    use rand::seq::SliceRandom;
    use rand::Rng;
    use routing_core::Path;

    /// Path counts toward one destination over the whole network.
    pub struct Counts {
        pub dest: NodeId,
        pub count: Vec<f64>,
        /// Whether some level's counts were divided by the cap.
        pub rescaled: bool,
    }

    pub fn counts(net: &LeveledNetwork, dest: NodeId) -> Counts {
        let mut count = vec![0.0f64; net.num_nodes()];
        count[dest.index()] = 1.0;
        let dl = net.level(dest);
        let mut rescaled = false;
        const CAP: f64 = 1e100;
        for l in (0..dl).rev() {
            let mut level_max = 0.0f64;
            for &v in net.nodes_at_level(l) {
                let mut c = 0.0;
                for &e in net.fwd_edges(v) {
                    c += count[net.edge(e).head.index()];
                }
                count[v.index()] = c;
                level_max = level_max.max(c);
            }
            if level_max > CAP {
                rescaled = true;
                for &v in net.nodes_at_level(l) {
                    count[v.index()] /= CAP;
                }
            }
        }
        Counts {
            dest,
            count,
            rescaled,
        }
    }

    pub fn sample<R: Rng + ?Sized>(
        net: &LeveledNetwork,
        counts: &Counts,
        src: NodeId,
        rng: &mut R,
    ) -> Option<Path> {
        let (dest, count) = (counts.dest, &counts.count);
        if src == dest {
            return Some(Path::trivial(src));
        }
        if count[src.index()] == 0.0 {
            return None;
        }
        let mut edges = Vec::with_capacity((net.level(dest) - net.level(src)) as usize);
        let mut at = src;
        while at != dest {
            let fwd = net.fwd_edges(at);
            let total: f64 = fwd.iter().map(|&e| count[net.edge(e).head.index()]).sum();
            let mut pick = rng.gen::<f64>() * total;
            let mut chosen = None;
            for &e in fwd {
                let w = count[net.edge(e).head.index()];
                if w <= 0.0 {
                    continue;
                }
                pick -= w;
                chosen = Some(e);
                if pick <= 0.0 {
                    break;
                }
            }
            let e = chosen.expect("positive total weight");
            edges.push(e);
            at = net.edge(e).head;
        }
        Some(Path::new(net, src, edges).expect("constructed path is valid"))
    }

    pub fn random_pair_path<R: Rng + ?Sized>(
        net: &LeveledNetwork,
        src: NodeId,
        rng: &mut R,
    ) -> (Path, Counts) {
        let mask = net.reachable_mask(src);
        let lvl = net.level(src);
        let dests: Vec<NodeId> = net
            .nodes()
            .filter(|&v| mask[v.index()] && net.level(v) > lvl)
            .collect();
        let dst = *dests.choose(rng).expect("source has a forward edge");
        let counts = counts(net, dst);
        let path = sample(net, &counts, src, rng).expect("dest is reachable");
        (path, counts)
    }
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// `random_pairs`: distinct shuffled sources.
    Pairs,
    /// `many_to_many`: sources drawn with replacement.
    M2m,
}

fn admissible(net: &LeveledNetwork) -> Vec<NodeId> {
    net.nodes()
        .filter(|&v| !net.fwd_edges(v).is_empty())
        .collect()
}

/// Draws `n` packets of `kind` on `topo` at `seed` through the oracle
/// and through one reused [`PairSampler`] in lockstep, checking every
/// path and the weights behind it; then checks the library generator
/// itself against the oracle's paths and rng. Returns whether any of
/// the oracle's counts rescaled.
fn check(topo: &str, kind: Kind, n: usize, seed: u64) -> bool {
    let net = parse_topo(topo).unwrap().net;
    let candidates = admissible(&net);
    let mut ora = ChaCha8Rng::seed_from_u64(seed);
    let mut lib = ChaCha8Rng::seed_from_u64(seed);
    let mut shuffled = (candidates.clone(), candidates.clone());
    if let Kind::Pairs = kind {
        shuffled.0.shuffle(&mut ora);
        shuffled.1.shuffle(&mut lib);
    }
    let mut pairs = PairSampler::new(&net);
    let mut want = Vec::with_capacity(n);
    let mut rescaled = false;
    for i in 0..n {
        let src = match kind {
            Kind::Pairs => shuffled.0[i],
            Kind::M2m => *candidates.choose(&mut ora).unwrap(),
        };
        let lib_src = match kind {
            Kind::Pairs => shuffled.1[i],
            Kind::M2m => *candidates.choose(&mut lib).unwrap(),
        };
        assert_eq!(src, lib_src, "{topo} {kind:?} seed {seed} packet {i}");
        let (path, counts) = oracle::random_pair_path(&net, src, &mut ora);
        let got = pairs.draw(&net, src, &mut lib);
        assert_eq!(got, path, "{topo} {kind:?} seed {seed} packet {i}");
        let sampler = pairs.sampler();
        assert_eq!(sampler.dest(), counts.dest);
        let floor = net.level(src);
        for v in net.nodes() {
            let w = sampler.weight(v);
            if net.level(v) >= floor {
                assert_eq!(
                    w.to_bits(),
                    counts.count[v.index()].to_bits(),
                    "{topo} {kind:?} seed {seed} packet {i}: weight of {v}"
                );
            } else {
                assert_eq!(
                    w, 0.0,
                    "{topo} {kind:?} seed {seed} packet {i}: {v} below the floor"
                );
            }
        }
        rescaled |= counts.rescaled;
        want.push(path);
    }
    let next = ora.gen::<u64>();
    assert_eq!(
        lib.gen::<u64>(),
        next,
        "{topo} {kind:?} seed {seed}: rng state"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let built = match kind {
        Kind::Pairs => workloads::random_pairs(&net, n, &mut rng),
        Kind::M2m => workloads::many_to_many(&net, n, &mut rng),
    }
    .unwrap();
    assert_eq!(built.num_packets(), n);
    for (i, (got, path)) in built.paths().zip(&want).enumerate() {
        assert_eq!(
            (got.source(), got.edges()),
            (path.source(), path.edges()),
            "{topo} {kind:?} seed {seed}: built packet {i}"
        );
    }
    assert_eq!(
        rng.gen::<u64>(),
        next,
        "{topo} {kind:?} seed {seed}: built rng state"
    );
    rescaled
}

const TOPOLOGIES: [(&str, Kind, usize); 14] = [
    ("bf:6", Kind::Pairs, 60),
    ("bf:5", Kind::M2m, 80),
    ("mesh:9x7:tl", Kind::Pairs, 40),
    ("mesh:6x11:br", Kind::M2m, 60),
    ("linear:20", Kind::Pairs, 12),
    ("complete:6x5", Kind::M2m, 50),
    ("hypercube:5", Kind::Pairs, 25),
    ("tree:6", Kind::M2m, 70),
    ("fattree:5:3", Kind::Pairs, 30),
    ("shuffle:5", Kind::M2m, 60),
    ("benes:4", Kind::Pairs, 50),
    ("random:25:8:0.3:3", Kind::M2m, 60),
    ("random:40:6:0.5:9", Kind::Pairs, 40),
    ("random:300:12:0.4:5", Kind::M2m, 40),
];

#[test]
fn pair_paths_match_the_full_sweep() {
    for (topo, kind, n) in TOPOLOGIES {
        for seed in 1..=3 {
            check(topo, kind, n, seed);
        }
    }
}

#[test]
fn rescaled_pair_paths_match_the_full_sweep() {
    // 8^120 ≈ 10^108 paths cross complete:120x8, so a level rescales
    // whenever a destination sits more than about 110 levels above the
    // bottom.
    for (kind, seed) in [(Kind::Pairs, 1), (Kind::M2m, 2), (Kind::Pairs, 3)] {
        assert!(
            check("complete:120x8", kind, 40, seed),
            "complete:120x8 {kind:?} seed {seed}: no level rescaled"
        );
    }
    assert!(
        check("random:300:12:0.4:5", Kind::Pairs, 40, 4),
        "random:300:12:0.4:5: no level rescaled"
    );
}

#[test]
fn random_minimal_matches_the_full_sweep() {
    for topo in ["bf:6", "mesh:8x8:tr", "complete:120x8", "random:40:6:0.5:9"] {
        let net = parse_topo(topo).unwrap().net;
        let mut pick = ChaCha8Rng::seed_from_u64(7);
        let mut ora = ChaCha8Rng::seed_from_u64(11);
        let mut lib = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..60 {
            let src = NodeId(pick.gen_range(0..net.num_nodes() as u32));
            let dst = NodeId(pick.gen_range(0..net.num_nodes() as u32));
            let want = oracle::sample(&net, &oracle::counts(&net, dst), src, &mut ora);
            let got = random_minimal(&net, src, dst, &mut lib);
            assert_eq!(got, want, "{topo}: {src} -> {dst}");
        }
        assert_eq!(lib.gen::<u64>(), ora.gen::<u64>(), "{topo}: rng state");
    }
}
