//! Routing-problem generators.
//!
//! Each generator produces a many-to-one [`RoutingProblem`] (at most one
//! packet per source node) with preselected valid paths. The experiments
//! use them to sweep the paper's two governing parameters independently:
//! `C` via [`funnel`] (which concentrates a chosen number of paths on one
//! edge), `L`/`D` via topology size, and `N` via packet count.

use crate::paths::{self, MeshAxis, MinimalPathSampler, PairSampler};
use crate::problem::{PathArena, RoutingProblem};
use leveled_net::builders::{ButterflyCoords, MeshCoords};
use leveled_net::{Level, LeveledNetwork, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Errors raised by workload generators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadError {
    /// The network cannot host the requested number of packets.
    NotEnoughSources {
        /// How many sources were requested.
        requested: usize,
        /// How many admissible sources exist.
        available: usize,
    },
    /// A generator-specific precondition failed (e.g. mesh too small).
    Unsupported(&'static str),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NotEnoughSources {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} packets but only {available} admissible sources exist"
            ),
            WorkloadError::Unsupported(msg) => write!(f, "unsupported workload: {msg}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// `n` packets from distinct random sources, each to a uniformly random
/// strictly-higher reachable destination, along a uniformly random valid
/// path.
pub fn random_pairs<R: Rng + ?Sized>(
    net: &Arc<LeveledNetwork>,
    n: usize,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    // Admissible sources: nodes with at least one forward edge.
    let mut candidates: Vec<NodeId> = net
        .nodes()
        .filter(|&v| !net.fwd_edges(v).is_empty())
        .collect();
    if candidates.len() < n {
        return Err(WorkloadError::NotEnoughSources {
            requested: n,
            available: candidates.len(),
        });
    }
    candidates.shuffle(rng);
    let mut pairs = PairSampler::new(net);
    let paths_out = candidates[..n]
        .iter()
        .map(|&src| pairs.draw(net, src, rng))
        .collect();
    RoutingProblem::new(Arc::clone(net), paths_out)
        .map(Arc::new)
        .map_err(|_| unreachable!("distinct sources"))
}

/// A random full permutation on a butterfly: every level-0 node sends to a
/// distinct level-`k` node along its unique bit-fixing path.
pub fn butterfly_permutation<R: Rng + ?Sized>(
    net: &Arc<LeveledNetwork>,
    coords: &ButterflyCoords,
    rng: &mut R,
) -> Arc<RoutingProblem> {
    let rows = coords.rows();
    let mut perm: Vec<usize> = (0..rows).collect();
    perm.shuffle(rng);
    let paths_out = (0..rows)
        .map(|r| paths::bit_fixing(net, coords, r, perm[r]))
        .collect();
    Arc::new(RoutingProblem::new(Arc::clone(net), paths_out).expect("level-0 sources are distinct"))
}

/// The bit-reversal permutation on a butterfly: row `r` sends to row
/// `reverse(r)`. With bit-fixing paths this is the classic adversarial
/// permutation with congestion `Θ(√N)` — a `C ≫ L` stress workload.
pub fn butterfly_bit_reversal(
    net: &Arc<LeveledNetwork>,
    coords: &ButterflyCoords,
) -> Arc<RoutingProblem> {
    let k = coords.k;
    let rows = coords.rows();
    let rev = |r: usize| -> usize {
        let mut out = 0usize;
        for b in 0..k {
            if r & (1 << b) != 0 {
                out |= 1 << (k - 1 - b);
            }
        }
        out
    };
    let paths_out = (0..rows)
        .map(|r| paths::bit_fixing(net, coords, r, rev(r)))
        .collect();
    Arc::new(RoutingProblem::new(Arc::clone(net), paths_out).expect("level-0 sources are distinct"))
}

/// `n` packets on distinct sources, each following a uniformly random
/// forward walk from its source to the network's last level.
///
/// Sources are the first `n` admissible nodes (nodes with at least one
/// forward edge) in ascending id order, so `n` equal to the admissible
/// count puts exactly one packet on every non-final node — the
/// million-packet saturation workload for large instances. Unlike
/// [`random_pairs`] this never materializes per-source reachability
/// masks, so it stays linear in `n · depth` and is usable at bf(16)
/// scale.
pub fn random_walks<R: Rng + ?Sized>(
    net: &Arc<LeveledNetwork>,
    n: usize,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    let sources: Vec<NodeId> = net
        .nodes()
        .filter(|&v| !net.fwd_edges(v).is_empty())
        .take(n)
        .collect();
    if sources.len() < n {
        return Err(WorkloadError::NotEnoughSources {
            requested: n,
            available: net
                .nodes()
                .filter(|&v| !net.fwd_edges(v).is_empty())
                .count(),
        });
    }
    // Every forward edge climbs one level, so no walk is longer than
    // the levels above its source: the arena never reallocates.
    let room = sources
        .iter()
        .map(|&s| (net.depth() - net.level(s)) as usize)
        .sum();
    let mut arena = PathArena::with_capacity(n, room);
    for &src in &sources {
        let mut at = src;
        let walk = std::iter::from_fn(|| {
            let fwd = net.fwd_edges(at);
            if fwd.is_empty() {
                return None;
            }
            let e = fwd[rng.gen_range(0..fwd.len())];
            at = net.edge(e).head;
            Some(e)
        });
        arena.push(src, walk);
    }
    RoutingProblem::from_arena(Arc::clone(net), arena)
        .map(Arc::new)
        .map_err(|_| unreachable!("sources are distinct by construction"))
}

/// A hot-spot workload: `num_sources` packets from distinct random sources,
/// each aimed at one of `num_dests` randomly chosen destination nodes
/// (many-to-one concentration).
pub fn hotspot<R: Rng + ?Sized>(
    net: &Arc<LeveledNetwork>,
    num_sources: usize,
    num_dests: usize,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    if num_dests == 0 {
        return Err(WorkloadError::Unsupported(
            "hotspot needs at least one destination",
        ));
    }
    // Destinations: prefer nodes in the upper half of the network so they
    // have many potential sources.
    let mid = net.depth() / 2;
    let mut dest_candidates: Vec<NodeId> = net
        .nodes()
        .filter(|&v| net.level(v) >= mid && net.level(v) >= 1)
        .collect();
    dest_candidates.shuffle(rng);
    let dests: Vec<NodeId> = dest_candidates.into_iter().take(num_dests).collect();
    if dests.is_empty() {
        return Err(WorkloadError::Unsupported(
            "network too shallow for hotspot",
        ));
    }
    let samplers: Vec<MinimalPathSampler> = dests
        .iter()
        .map(|&d| MinimalPathSampler::new(net, d))
        .collect();
    // Sources: nodes that strictly reach at least one destination.
    let mut sources: Vec<NodeId> = net
        .nodes()
        .filter(|&v| {
            samplers
                .iter()
                .any(|s| v != s.dest() && s.reaches(v) && net.level(v) < net.level(s.dest()))
        })
        .collect();
    if sources.len() < num_sources {
        return Err(WorkloadError::NotEnoughSources {
            requested: num_sources,
            available: sources.len(),
        });
    }
    sources.shuffle(rng);
    let mut paths_out = Vec::with_capacity(num_sources);
    for &src in sources.iter().take(num_sources) {
        let viable: Vec<&MinimalPathSampler> = samplers
            .iter()
            .filter(|s| src != s.dest() && s.reaches(src) && net.level(src) < net.level(s.dest()))
            .collect();
        let s = viable.choose(rng).expect("source reaches a destination");
        paths_out.push(s.sample(net, src, rng).expect("reachable"));
    }
    RoutingProblem::new(Arc::clone(net), paths_out)
        .map(Arc::new)
        .map_err(|_| unreachable!("distinct sources"))
}

/// The §5 mesh workload with `C = D = Θ(n)`: on an `n x n` top-left mesh,
/// packet `i` travels from `(i, 0)` to `(n-1, i)` along the row-first
/// dimension-order path (down column 0, then right along the bottom row).
/// All packets share the lowest edge of column 0, so `C = n - 1`, and every
/// path has length exactly `n - 1`, so `D = n - 1`, while `L = 2n - 2`.
pub fn mesh_transpose(
    net: &Arc<LeveledNetwork>,
    coords: &MeshCoords,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    let n = coords.rows;
    if coords.cols != n {
        return Err(WorkloadError::Unsupported(
            "mesh_transpose needs a square mesh",
        ));
    }
    if n < 2 {
        return Err(WorkloadError::Unsupported("mesh too small"));
    }
    let mut paths_out = Vec::with_capacity(n);
    for i in 0..n {
        let p = paths::dimension_order_mesh(net, coords, (i, 0), (n - 1, i), MeshAxis::RowFirst)
            .expect("monotone in the top-left orientation");
        paths_out.push(p);
    }
    RoutingProblem::new(Arc::clone(net), paths_out)
        .map(Arc::new)
        .map_err(|_| unreachable!("distinct sources"))
}

/// Every node of `from_level` sends to a uniformly random reachable node of
/// `to_level`, along a uniformly random valid path. Skips sources that
/// reach no `to_level` node.
pub fn level_to_level<R: Rng + ?Sized>(
    net: &Arc<LeveledNetwork>,
    from_level: Level,
    to_level: Level,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    if from_level >= to_level || to_level > net.depth() {
        return Err(WorkloadError::Unsupported(
            "need from_level < to_level <= L",
        ));
    }
    let dests: Vec<NodeId> = net.nodes_at_level(to_level).to_vec();
    let samplers: Vec<MinimalPathSampler> = dests
        .iter()
        .map(|&d| MinimalPathSampler::new(net, d))
        .collect();
    let mut paths_out = Vec::new();
    for &src in net.nodes_at_level(from_level) {
        let viable: Vec<&MinimalPathSampler> = samplers.iter().filter(|s| s.reaches(src)).collect();
        if let Some(s) = viable.choose(rng) {
            paths_out.push(s.sample(net, src, rng).expect("reachable"));
        }
    }
    if paths_out.is_empty() {
        return Err(WorkloadError::NotEnoughSources {
            requested: net.nodes_at_level(from_level).len(),
            available: 0,
        });
    }
    RoutingProblem::new(Arc::clone(net), paths_out)
        .map(Arc::new)
        .map_err(|_| unreachable!("distinct sources"))
}

/// A congestion-dial workload: funnels up to `count` packets through a
/// single pivot edge near the middle of the network, so the resulting
/// problem has congestion `C ≈ count` independent of `L` and a dilation of
/// `Θ(L)`. This is the workload the `T1` scaling experiment uses to sweep
/// `C` while holding the topology fixed.
///
/// ```
/// use leveled_net::builders;
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let net = Arc::new(builders::complete_leveled(10, 4));
/// let prob = routing_core::workloads::funnel(&net, 12, &mut rng).unwrap();
/// assert!(prob.congestion() >= 12); // all paths share the pivot edge
/// ```
///
/// Each packet starts at a distinct node that reaches the pivot's tail,
/// runs to the pivot along a random valid path, crosses the pivot, and
/// continues to a random destination reachable from the pivot's head.
pub fn funnel<R: Rng + ?Sized>(
    net: &Arc<LeveledNetwork>,
    count: usize,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    // Pick a pivot edge whose tail level is as close to L/2 as possible,
    // maximizing the number of upstream sources.
    let mid = net.depth() / 2;
    let pivot = net
        .edge_ids()
        .min_by_key(|&e| {
            let lt = net.level(net.edge(e).tail);
            (lt as i64 - mid as i64).abs()
        })
        .ok_or(WorkloadError::Unsupported("network has no edges"))?;
    let pt = net.edge(pivot).tail;
    let ph = net.edge(pivot).head;

    let upstream_sampler = MinimalPathSampler::new(net, pt);
    let mut sources: Vec<NodeId> = net
        .nodes()
        .filter(|&v| upstream_sampler.reaches(v))
        .collect();
    if sources.len() < count {
        return Err(WorkloadError::NotEnoughSources {
            requested: count,
            available: sources.len(),
        });
    }
    sources.shuffle(rng);

    let down_mask = net.reachable_mask(ph);
    let dests: Vec<NodeId> = net.nodes().filter(|&v| down_mask[v.index()]).collect();
    debug_assert!(!dests.is_empty());

    let mut downstream = MinimalPathSampler::above(net, ph, net.level(ph));
    let mut arena = PathArena::with_capacity(count, 0);
    for &src in sources.iter().take(count) {
        let up = upstream_sampler
            .sample(net, src, rng)
            .expect("source reaches pivot tail");
        let dst = *dests.choose(rng).expect("non-empty");
        downstream.retarget(net, dst, net.level(ph));
        let down = downstream
            .sample(net, ph, rng)
            .expect("reachable from pivot head");
        let edges = up.edges().iter().chain([&pivot]).chain(down.edges());
        arena.push(src, edges.copied());
    }
    RoutingProblem::from_arena(Arc::clone(net), arena)
        .map(Arc::new)
        .map_err(|_| unreachable!("distinct sources"))
}

/// An adversarial concentration workload: every node of `from_level`
/// routes to a node of `to_level` along its deterministic
/// *lexicographically-first* path ([`paths::first_minimal`]), so traffic
/// piles onto the lexicographically smallest edges — congestion close to
/// the theoretical maximum for the pair of levels. Destinations are
/// assigned round-robin among the `to_level` nodes each source reaches.
pub fn first_fit_blast(
    net: &Arc<LeveledNetwork>,
    from_level: Level,
    to_level: Level,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    if from_level >= to_level || to_level > net.depth() {
        return Err(WorkloadError::Unsupported(
            "need from_level < to_level <= L",
        ));
    }
    let dests = net.nodes_at_level(to_level);
    let mut paths_out = Vec::new();
    for (i, &src) in net.nodes_at_level(from_level).iter().enumerate() {
        // Round-robin over destinations, skipping unreachable ones.
        let mut chosen = None;
        for off in 0..dests.len() {
            let dst = dests[(i + off) % dests.len()];
            if let Some(p) = paths::first_minimal(net, src, dst) {
                chosen = Some(p);
                break;
            }
        }
        if let Some(p) = chosen {
            paths_out.push(p);
        }
    }
    if paths_out.is_empty() {
        return Err(WorkloadError::NotEnoughSources {
            requested: net.nodes_at_level(from_level).len(),
            available: 0,
        });
    }
    RoutingProblem::new(Arc::clone(net), paths_out)
        .map(Arc::new)
        .map_err(|_| unreachable!("distinct sources"))
}

/// A many-to-many workload (relaxed model, reference 7 in the paper): `total`
/// packets whose sources are drawn **with replacement** from the nodes
/// with forward edges, each to a uniformly random reachable higher-level
/// destination along a random path. The same node may emit several
/// packets; the returned problem reports `is_relaxed() == true`.
pub fn many_to_many<R: Rng + ?Sized>(
    net: &Arc<LeveledNetwork>,
    total: usize,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    let candidates: Vec<NodeId> = net
        .nodes()
        .filter(|&v| !net.fwd_edges(v).is_empty())
        .collect();
    if candidates.is_empty() {
        return Err(WorkloadError::NotEnoughSources {
            requested: total,
            available: 0,
        });
    }
    // `total` is caller-supplied and may exceed anything the network
    // could route, so the paths grow as they are built.
    let mut pairs = PairSampler::new(net);
    let mut paths_out = Vec::new();
    for _ in 0..total {
        let src = *candidates.choose(rng).expect("non-empty");
        paths_out.push(pairs.draw(net, src, rng));
    }
    Ok(Arc::new(RoutingProblem::new_relaxed(
        Arc::clone(net),
        paths_out,
    )))
}

/// An arrival process for streaming (continuous-injection) runs: how the
/// packets of a [`RoutingProblem`] become *available for injection* over
/// time, instead of all being ready at step 0 as in batch mode.
///
/// The process assigns each packet an **arrival step**; the streaming
/// driver only starts injecting a packet once the simulation clock
/// reaches that step (and admission control may defer or drop it after
/// that). Spec grammar (the optional fifth `/`-segment of a run spec):
///
/// ```text
/// poisson:RATE          exponential inter-arrival gaps, RATE pkts/step
/// burst:SIZE:PERIOD     periodic bursts: SIZE packets every PERIOD steps
/// replay:T0,T1,..       explicit arrival trace, one step per packet
/// adversarial:SIZE:GAP  worst-case burst train: SIZE-packet bursts with
///                       GAP-step quiet gaps, where a seeded coin per
///                       boundary coalesces adjacent bursts onto one step
/// ```
///
/// Schedules are deterministic given the caller's rng (Poisson and
/// adversarial draw from it; bursts and replays are rng-free).
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` packets per step (exponential gaps).
    Poisson {
        /// Mean arrivals per step; must be finite and positive.
        rate: f64,
    },
    /// Periodic bursts: `size` packets arrive together every `period`
    /// steps.
    Bursts {
        /// Packets per burst.
        size: u32,
        /// Steps between consecutive bursts.
        period: u64,
    },
    /// A replayed arrival trace: packet `i` arrives at `times[i]`
    /// (packets beyond the list arrive at the last listed step).
    Replay {
        /// Non-decreasing arrival steps.
        times: Vec<u64>,
    },
    /// The worst-case burst train: an on-off schedule of `burst`-packet
    /// bursts separated by `gap` quiet steps, made lumpier by a seeded
    /// coin at every burst boundary that *coalesces* the next burst onto
    /// the current step — so instantaneous load ramps in powers of the
    /// burst size while the long-run rate stays fixed. This is the
    /// schedule that stresses admission control hardest: deterministic
    /// given the run seed, maximally bunched for its average rate.
    Adversarial {
        /// Packets per base burst.
        burst: u32,
        /// Quiet steps between non-coalesced bursts.
        gap: u64,
    },
}

impl ArrivalProcess {
    /// Parses an arrival-process spec segment (see the type docs for the
    /// grammar).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
        match kind {
            "poisson" => {
                let rate: f64 = rest
                    .parse()
                    .map_err(|_| format!("bad poisson rate '{rest}'"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(format!("poisson rate {rate} must be positive and finite"));
                }
                Ok(ArrivalProcess::Poisson { rate })
            }
            "burst" => {
                let (size_s, period_s) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("burst needs SIZE:PERIOD, got '{rest}'"))?;
                let size: u32 = size_s
                    .parse()
                    .map_err(|_| format!("bad burst size '{size_s}'"))?;
                let period: u64 = period_s
                    .parse()
                    .map_err(|_| format!("bad burst period '{period_s}'"))?;
                if size == 0 || period == 0 {
                    return Err("burst size and period must be positive".into());
                }
                Ok(ArrivalProcess::Bursts { size, period })
            }
            "replay" => {
                if rest.is_empty() {
                    return Err("replay needs at least one arrival step".into());
                }
                let times: Vec<u64> = rest
                    .split(',')
                    .map(|s| {
                        s.parse::<u64>()
                            .map_err(|_| format!("bad replay step '{s}'"))
                    })
                    .collect::<Result<_, _>>()?;
                if times.windows(2).any(|w| w[0] > w[1]) {
                    return Err("replay arrival steps must be non-decreasing".into());
                }
                Ok(ArrivalProcess::Replay { times })
            }
            "adversarial" => {
                let (burst_s, gap_s) = rest
                    .split_once(':')
                    .ok_or_else(|| format!("adversarial needs SIZE:GAP, got '{rest}'"))?;
                let burst: u32 = burst_s
                    .parse()
                    .map_err(|_| format!("bad adversarial burst size '{burst_s}'"))?;
                let gap: u64 = gap_s
                    .parse()
                    .map_err(|_| format!("bad adversarial gap '{gap_s}'"))?;
                if burst == 0 || gap == 0 {
                    return Err("adversarial burst size and gap must be positive".into());
                }
                Ok(ArrivalProcess::Adversarial { burst, gap })
            }
            other => Err(format!(
                "unknown arrival process '{other}' (poisson|burst|replay|adversarial)"
            )),
        }
    }

    /// The canonical spec segment this process round-trips through
    /// [`ArrivalProcess::parse`].
    pub fn spec_string(&self) -> String {
        match self {
            ArrivalProcess::Poisson { rate } => format!("poisson:{rate}"),
            ArrivalProcess::Bursts { size, period } => format!("burst:{size}:{period}"),
            ArrivalProcess::Replay { times } => {
                let list: Vec<String> = times.iter().map(u64::to_string).collect();
                format!("replay:{}", list.join(","))
            }
            ArrivalProcess::Adversarial { burst, gap } => format!("adversarial:{burst}:{gap}"),
        }
    }

    /// The arrival step of each of `n` packets, in packet-id order. The
    /// returned schedule is non-decreasing: workloads assign packet ids
    /// in generation order, and the stream admits them in that order.
    pub fn schedule<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u64> {
        match self {
            ArrivalProcess::Poisson { rate } => {
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        // Exponential gap via inverse CDF; 1-U avoids ln(0).
                        let u: f64 = rng.gen();
                        t += -(1.0 - u).ln() / rate;
                        t as u64
                    })
                    .collect()
            }
            ArrivalProcess::Bursts { size, period } => (0..n)
                .map(|i| (i as u64 / u64::from(*size)) * period)
                .collect(),
            ArrivalProcess::Replay { times } => {
                let last = *times.last().expect("parse requires non-empty");
                (0..n)
                    .map(|i| times.get(i).copied().unwrap_or(last))
                    .collect()
            }
            ArrivalProcess::Adversarial { burst, gap } => {
                // The fixed on-off train, lumpified: after each burst a
                // seeded coin either opens the quiet gap or coalesces the
                // next burst onto the same step. Times only ever advance,
                // so the schedule is non-decreasing by construction.
                let mut times = Vec::with_capacity(n);
                let mut t = 0u64;
                let mut i = 0usize;
                while i < n {
                    for _ in 0..*burst {
                        if i >= n {
                            break;
                        }
                        times.push(t);
                        i += 1;
                    }
                    if rng.gen::<u64>() & 1 == 0 {
                        t += gap;
                    }
                }
                times
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders::{self, MeshCorner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn arrival_processes_parse_and_round_trip() {
        for spec in [
            "poisson:0.5",
            "burst:8:4",
            "replay:0,0,3,9",
            "adversarial:8:4",
        ] {
            let p = ArrivalProcess::parse(spec).unwrap();
            assert_eq!(p.spec_string(), spec);
            assert_eq!(ArrivalProcess::parse(&p.spec_string()).unwrap(), p);
        }
        for bad in [
            "poisson:0",
            "poisson:-1",
            "poisson:x",
            "burst:0:4",
            "burst:4",
            "replay:",
            "replay:3,1",
            "adversarial:0:4",
            "adversarial:4",
            "uniform:1",
        ] {
            assert!(ArrivalProcess::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn adversarial_schedules_are_seeded_bursty_and_monotone() {
        let p = ArrivalProcess::parse("adversarial:4:10").unwrap();
        let mut a_rng = ChaCha8Rng::seed_from_u64(9);
        let mut b_rng = ChaCha8Rng::seed_from_u64(9);
        let a = p.schedule(64, &mut a_rng);
        assert_eq!(a, p.schedule(64, &mut b_rng), "same seed, same train");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(a.len(), 64);
        // Every arrival step is a multiple of the gap, and coalescing
        // produces at least one step carrying more than one base burst.
        assert!(a.iter().all(|t| t % 10 == 0));
        let peak = a
            .iter()
            .map(|t| a.iter().filter(|&u| u == t).count())
            .max()
            .unwrap();
        assert!(peak > 4, "coalescing must exceed the base burst: {peak}");
        // A different seed draws a different train.
        let mut c_rng = ChaCha8Rng::seed_from_u64(10);
        assert_ne!(a, p.schedule(64, &mut c_rng));
    }

    #[test]
    fn arrival_schedules_are_deterministic_and_monotone() {
        let p = ArrivalProcess::parse("poisson:0.25").unwrap();
        let mut a_rng = ChaCha8Rng::seed_from_u64(9);
        let mut b_rng = ChaCha8Rng::seed_from_u64(9);
        let a = p.schedule(100, &mut a_rng);
        let b = p.schedule(100, &mut b_rng);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));

        let bursts = ArrivalProcess::parse("burst:3:10").unwrap();
        let sched = bursts.schedule(7, &mut a_rng);
        assert_eq!(sched, vec![0, 0, 0, 10, 10, 10, 20]);

        let replay = ArrivalProcess::parse("replay:1,4,4").unwrap();
        assert_eq!(replay.schedule(5, &mut a_rng), vec![1, 4, 4, 4, 4]);
    }

    #[test]
    fn random_pairs_respects_count_and_validity() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Arc::new(builders::butterfly(4));
        let prob = random_pairs(&net, 10, &mut rng).unwrap();
        assert_eq!(prob.num_packets(), 10);
        for p in prob.paths() {
            p.validate(prob.network()).unwrap();
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn random_pairs_rejects_oversubscription() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Arc::new(builders::linear_array(3));
        // Only nodes 0 and 1 have forward edges.
        let err = random_pairs(&net, 5, &mut rng).unwrap_err();
        assert_eq!(
            err,
            WorkloadError::NotEnoughSources {
                requested: 5,
                available: 2
            }
        );
    }

    #[test]
    fn butterfly_permutation_is_a_permutation() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let net = Arc::new(builders::butterfly(4));
        let coords = ButterflyCoords { k: 4 };
        let prob = butterfly_permutation(&net, &coords, &mut rng);
        assert_eq!(prob.num_packets(), 16);
        let mut dest_rows: Vec<usize> = prob
            .paths()
            .map(|p| coords.coords(p.dest(prob.network())).1)
            .collect();
        dest_rows.sort_unstable();
        assert_eq!(dest_rows, (0..16).collect::<Vec<_>>());
        assert_eq!(prob.dilation(), 4);
    }

    #[test]
    fn bit_reversal_has_high_congestion() {
        let k = 8;
        let net = Arc::new(builders::butterfly(k));
        let coords = ButterflyCoords { k };
        let prob = butterfly_bit_reversal(&net, &coords);
        // Bit reversal concentrates Θ(√N) = 2^(k/2 - 1) paths on middle edges.
        assert!(
            prob.congestion() >= 1 << (k / 2 - 1),
            "C = {} too small",
            prob.congestion()
        );
        assert_eq!(prob.dilation(), k);
    }

    #[test]
    fn hotspot_concentrates_destinations() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = Arc::new(builders::complete_leveled(6, 6));
        let prob = hotspot(&net, 12, 2, &mut rng).unwrap();
        assert_eq!(prob.num_packets(), 12);
        let mut dests: Vec<NodeId> = prob.paths().map(|p| p.dest(prob.network())).collect();
        dests.sort_unstable();
        dests.dedup();
        assert!(dests.len() <= 2, "at most two destinations");
    }

    #[test]
    fn mesh_transpose_parameters() {
        for n in [4usize, 8, 12] {
            let (raw, coords) = builders::mesh(n, n, MeshCorner::TopLeft);
            let net = Arc::new(raw);
            let prob = mesh_transpose(&net, &coords).unwrap();
            assert_eq!(prob.num_packets(), n);
            assert_eq!(prob.congestion() as usize, n - 1, "C = n - 1");
            assert_eq!(prob.dilation() as usize, n - 1, "D = n - 1");
            assert_eq!(prob.network().depth() as usize, 2 * n - 2);
        }
    }

    #[test]
    fn mesh_transpose_needs_square() {
        let (raw, coords) = builders::mesh(3, 5, MeshCorner::TopLeft);
        let net = Arc::new(raw);
        assert!(mesh_transpose(&net, &coords).is_err());
    }

    #[test]
    fn level_to_level_covers_sources() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = Arc::new(builders::butterfly(3));
        let prob = level_to_level(&net, 0, 3, &mut rng).unwrap();
        assert_eq!(prob.num_packets(), 8);
        for p in prob.paths() {
            assert_eq!(prob.network().level(p.source()), 0);
            assert_eq!(prob.network().level(p.dest(prob.network())), 3);
        }
    }

    #[test]
    fn level_to_level_rejects_bad_levels() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = Arc::new(builders::butterfly(3));
        assert!(level_to_level(&net, 2, 2, &mut rng).is_err());
        assert!(level_to_level(&net, 0, 9, &mut rng).is_err());
    }

    #[test]
    fn funnel_dials_congestion() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let net = Arc::new(builders::complete_leveled(10, 5));
        for count in [4usize, 10, 20] {
            let prob = funnel(&net, count, &mut rng).unwrap();
            assert_eq!(prob.num_packets(), count);
            // All paths cross the pivot, so C >= count; and C can't exceed N.
            assert!(prob.congestion() as usize >= count);
            for p in prob.paths() {
                p.validate(prob.network()).unwrap();
            }
        }
    }

    #[test]
    fn first_fit_blast_concentrates_congestion() {
        let net = Arc::new(builders::complete_leveled(6, 4));
        let blast = first_fit_blast(&net, 0, 6).unwrap();
        assert_eq!(blast.num_packets(), 4);
        // Deterministic: same workload twice.
        let again = first_fit_blast(&net, 0, 6).unwrap();
        assert_eq!(blast.congestion(), again.congestion());
        // First-fit concentrates: congestion beats a random assignment's
        // typical spread (here: all four paths share the first edges).
        assert!(
            blast.congestion() >= 3,
            "C = {} not concentrated",
            blast.congestion()
        );
        for p in blast.paths() {
            p.validate(blast.network()).unwrap();
        }
    }

    #[test]
    fn first_fit_blast_rejects_bad_levels() {
        let net = Arc::new(builders::complete_leveled(4, 2));
        assert!(first_fit_blast(&net, 2, 2).is_err());
        assert!(first_fit_blast(&net, 0, 9).is_err());
    }

    #[test]
    fn many_to_many_allows_shared_sources() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let net = Arc::new(builders::butterfly(3));
        // Far more packets than nodes: sources must repeat.
        let prob = many_to_many(&net, 100, &mut rng).unwrap();
        assert!(prob.is_relaxed());
        assert_eq!(prob.num_packets(), 100);
        let mut sources: Vec<NodeId> = prob.paths().map(crate::PathRef::source).collect();
        sources.sort_unstable();
        sources.dedup();
        assert!(sources.len() < 100, "sources repeat in a relaxed problem");
        for p in prob.paths() {
            p.validate(prob.network()).unwrap();
        }
    }

    #[test]
    fn strict_problems_are_not_relaxed() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let net = Arc::new(builders::butterfly(3));
        let prob = random_pairs(&net, 5, &mut rng).unwrap();
        assert!(!prob.is_relaxed());
    }

    #[test]
    fn funnel_reports_capacity() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let net = Arc::new(builders::linear_array(6));
        let err = funnel(&net, 100, &mut rng).unwrap_err();
        assert!(matches!(err, WorkloadError::NotEnoughSources { .. }));
    }
}
