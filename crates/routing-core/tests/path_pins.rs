//! Pins the preselected paths and their statistics bit for bit.
//!
//! `random_walks` is checked packet by packet against the per-path loop
//! below, which draws from the rng in the order the generator must keep:
//! one `gen_range` over the forward edges per step, walk after walk in
//! ascending source order. The statistics of four problems (random
//! walks, bit reversal, a relaxed many-to-many and a funnel) are pinned
//! as numbers, so a change in how paths are stored or generated that
//! moves a single edge fails here.
//!
//! The `pairs` and `m2m` workloads, which draw a random destination and
//! a uniformly random path per packet, are pinned the same way on nine
//! topologies, together with the rng's next word after the build: a
//! generator that draws one word more or less, or in another order,
//! fails here even if its paths happen to agree. The twenty `bf:10`
//! `pairs:1000` seeds are the fleet ladder's.

use leveled_net::{builders, EdgeId, LeveledNetwork, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use routing_core::spec::{parse_topo, parse_workload, reconstruct_problem};
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

/// The statistics of `workload` on `topo` at `seed` and the rng's next
/// word after the build. The problem is built twice, through
/// `reconstruct_problem` and through the two calls it makes, so the rng
/// word belongs to the same instance the statistics describe.
fn pinned(topo: &str, workload: &str, seed: u64) -> (Stats, u64) {
    let parsed = parse_topo(topo).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let prob = parse_workload(workload, &parsed, &mut rng).unwrap();
    let got = stats(&prob);
    assert_eq!(
        got,
        stats(&spec(topo, workload, seed)),
        "{topo}/{workload}/{seed}"
    );
    (got, rng.gen())
}

/// `(seed, path fingerprint, congestion, dilation, summed edge
/// congestion, next rng word)` of `topo`/`workload` at `seed`.
fn digest(topo: &str, workload: &str, seed: u64) -> (u64, u64, u32, u32, u64, u64) {
    let (s, next) = pinned(topo, workload, seed);
    (
        seed,
        s.paths,
        s.congestion,
        s.dilation,
        s.edge_congestion.1,
        next,
    )
}

#[test]
fn fleet_ladder_pairs_are_pinned() {
    let want = [
        (1, 3397949980303728873, 4, 10, 4792, 11875208714245246412),
        (2, 3539825886006206984, 4, 10, 4937, 8916557666410868879),
        (3, 13282871782674074613, 4, 10, 4841, 8237145150824860469),
        (4, 466666615396563514, 4, 10, 4872, 11986006573569356910),
        (5, 1302299339205208843, 4, 10, 4816, 13403661957873156441),
        (6, 17519978295974680796, 4, 10, 4537, 3645357539001385604),
        (7, 11045856088837427609, 4, 10, 4598, 5422164381836140766),
        (8, 8706324181227975058, 4, 10, 4932, 2738925783610785065),
        (9, 7522293125803820072, 4, 10, 4851, 7376696708876460159),
        (10, 4878553861372587620, 4, 10, 4726, 17268219501480914020),
        (11, 11040738820388210943, 4, 10, 4699, 1779458447973267518),
        (12, 15843748484896015573, 4, 10, 4637, 8005947799455805811),
        (13, 11445147280603327925, 4, 10, 4857, 7137829779589033818),
        (14, 3001280716570592808, 3, 10, 4743, 11004198533045438970),
        (15, 9014410298054654765, 4, 10, 4778, 1877175947583541556),
        (16, 11757818966020442143, 4, 10, 4756, 17777632669218164229),
        (17, 11771786629629918551, 4, 10, 4925, 12921116213429293110),
        (18, 269236787270447293, 4, 10, 4771, 9622249164461276627),
        (19, 7782435011787837492, 4, 10, 4793, 9084944946784466779),
        (20, 10261213162476867765, 3, 10, 4809, 8273729259018608733),
    ];
    for row in want {
        assert_eq!(digest("bf:10", "pairs:1000", row.0), row);
    }
}

#[test]
fn rescaled_complete_pairs_are_pinned() {
    // 8^120 paths cross complete:120x8, so the path counts rescale.
    assert_eq!(
        digest("complete:120x8", "pairs:50", 8),
        (8, 17103132823242738132, 3, 96, 1512, 15708134718711028398)
    );
}

#[test]
fn pair_workloads_are_pinned() {
    let cases = [
        (
            ("bf:8", "pairs:64", 7),
            Stats {
                packets: 64,
                relaxed: false,
                paths: 7312495177392605007,
                congestion: 2,
                dilation: 8,
                edge_congestion: (4096, 254, 5984848190071712453),
                per_set: vec![1, 2, 2, 1],
                length_histogram: vec![0, 13, 6, 8, 10, 7, 14, 2, 4],
            },
            15075741393496666254,
        ),
        (
            ("mesh:13x7:br", "pairs:40", 3),
            Stats {
                packets: 40,
                relaxed: false,
                paths: 7782393590644176551,
                congestion: 9,
                dilation: 15,
                edge_congestion: (162, 199, 7304031827406629224),
                per_set: vec![3, 2, 3, 3],
                length_histogram: vec![0, 4, 6, 5, 10, 3, 1, 2, 1, 3, 3, 0, 0, 1, 0, 1],
            },
            13075021676387089284,
        ),
        (
            ("tree:7", "m2m:300", 1),
            Stats {
                packets: 300,
                relaxed: true,
                paths: 13302406145104487376,
                congestion: 5,
                dilation: 7,
                edge_congestion: (254, 509, 8355758730761775926),
                per_set: vec![3, 3, 2, 3],
                length_histogram: vec![0, 182, 70, 23, 13, 8, 2, 2],
            },
            15858279292980567281,
        ),
        (
            ("shuffle:6", "pairs:100", 2),
            Stats {
                packets: 100,
                relaxed: false,
                paths: 7691199827993160727,
                congestion: 4,
                dilation: 6,
                edge_congestion: (768, 306, 18235809299251469507),
                per_set: vec![2, 2, 2, 2],
                length_histogram: vec![0, 23, 16, 18, 25, 11, 7],
            },
            8187360873620963592,
        ),
        (
            ("benes:5", "m2m:200", 4),
            Stats {
                packets: 200,
                relaxed: true,
                paths: 11166702900854972064,
                congestion: 7,
                dilation: 10,
                edge_congestion: (640, 799, 2829406059970946132),
                per_set: vec![3, 3, 4, 4],
                length_histogram: vec![0, 40, 37, 19, 19, 22, 26, 19, 10, 7, 1],
            },
            12824694499787700225,
        ),
        (
            ("hypercube:6", "pairs:30", 5),
            Stats {
                packets: 30,
                relaxed: false,
                paths: 16274137467140666319,
                congestion: 3,
                dilation: 4,
                edge_congestion: (192, 51, 2260996041068137860),
                per_set: vec![1, 1, 1, 1],
                length_histogram: vec![0, 14, 13, 1, 2],
            },
            7737123395162387275,
        ),
        (
            ("random:30:9:0.3:7", "m2m:200", 6),
            Stats {
                packets: 200,
                relaxed: true,
                paths: 4035553541050246295,
                congestion: 44,
                dilation: 29,
                edge_congestion: (245, 1847, 4973603144875198012),
                per_set: vec![12, 13, 15, 12],
                length_histogram: vec![
                    0, 18, 14, 11, 19, 13, 12, 7, 9, 13, 9, 9, 14, 7, 2, 5, 6, 4, 4, 5, 4, 2, 5, 3,
                    1, 0, 1, 1, 1, 1,
                ],
            },
            1016763913593708708,
        ),
        (
            ("complete:10x4", "funnel:12", 1),
            Stats {
                packets: 12,
                relaxed: false,
                paths: 13954381841689795695,
                congestion: 12,
                dilation: 10,
                edge_congestion: (160, 65, 3289325167328091642),
                per_set: vec![3, 3, 3, 3],
                length_histogram: vec![0, 0, 1, 2, 3, 0, 1, 3, 1, 0, 1],
            },
            16238972268186810322,
        ),
    ];
    for ((topo, workload, seed), want, next) in cases {
        assert_eq!(
            pinned(topo, workload, seed),
            (want, next),
            "{topo}/{workload}/{seed}"
        );
    }
}
