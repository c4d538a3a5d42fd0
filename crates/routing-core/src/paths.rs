//! Preselected-path strategies.
//!
//! The paper takes preselected paths as given ("we do not consider how
//! these paths are selected, but how to design fast routing algorithms
//! given the paths", §1.1). This module provides the standard selections
//! used by the experiments:
//!
//! * [`MinimalPathSampler`] / [`random_minimal`] — uniformly random valid
//!   path among all valid paths between two nodes (on leveled networks
//!   every valid path is minimal, so this is uniform minimal-path
//!   selection);
//! * [`PairSampler`] — a uniformly random destination the source reaches,
//!   then a uniformly random valid path to it;
//! * [`first_minimal`] — the deterministic lexicographically-first valid
//!   path (an adversarially *congesting* choice, useful in stress tests);
//! * [`bit_fixing`] — the unique butterfly path fixing row bits one level
//!   at a time;
//! * [`dimension_order_mesh`] — row-first or column-first monotone mesh
//!   paths, the classic mesh selection with `C = O(n)` for permutations.

use crate::path::Path;
use leveled_net::builders::{ButterflyCoords, MeshCoords};
use leveled_net::{Level, LeveledNetwork, NodeId};
use rand::Rng;

/// Precomputed path counts toward a fixed destination, supporting `O(D)`
/// uniformly-random path sampling from any source.
///
/// Counts are kept per level with automatic rescaling, so sampling stays
/// correct even when the number of paths overflows any integer type (e.g.
/// `width^L` paths in a complete leveled network): choices at a node only
/// ever compare counts of nodes in a single level, which share a scale.
///
/// Only the destination's backward cone can count more than 0, so the
/// counts are computed over that cone alone, and [`retarget`] aims the
/// same buffers at another destination in time proportional to the two
/// cones, not to the network.
///
/// [`retarget`]: MinimalPathSampler::retarget
#[derive(Clone, Debug)]
pub struct MinimalPathSampler {
    dest: NodeId,
    /// Scaled count of valid paths from each node to `dest` (0 if none,
    /// and 0 below the floor the counts were computed down to).
    count: Vec<f64>,
    /// The nodes the counts were computed for, level by level downward
    /// from `dest`: the only nodes whose count may be non-zero.
    cone: Vec<NodeId>,
    /// Marks the nodes of `cone`.
    in_cone: Vec<bool>,
}

impl MinimalPathSampler {
    /// Builds the sampler for destination `dest`. Costs `O(V)` to zero
    /// the buffers plus the size of `dest`'s backward cone, its nodes and
    /// their edges.
    pub fn new(net: &LeveledNetwork, dest: NodeId) -> Self {
        Self::above(net, dest, 0)
    }

    /// Builds the sampler for destination `dest`, counting paths only
    /// from nodes at level `floor` and above (see [`retarget`]).
    ///
    /// [`retarget`]: MinimalPathSampler::retarget
    pub fn above(net: &LeveledNetwork, dest: NodeId, floor: Level) -> Self {
        let mut sampler = MinimalPathSampler {
            dest,
            count: vec![0.0; net.num_nodes()],
            cone: Vec::new(),
            in_cone: vec![false; net.num_nodes()],
        };
        sampler.retarget(net, dest, floor);
        sampler
    }

    /// Aims the sampler at `dest`, counting paths from the nodes of
    /// `dest`'s backward cone at level `floor` and above. Below `floor`
    /// every node reads as unreachable; at and above it the counts are
    /// bit for bit those of [`new`], so [`sample`] draws the same paths
    /// from the same rng. Costs the previous and the new cone, their
    /// nodes and their edges.
    ///
    /// A node outside the cone counts 0 in a sweep of the whole network,
    /// so each level's maximum, and with it every rescale decision, is
    /// the cone's own.
    ///
    /// [`new`]: MinimalPathSampler::new
    /// [`sample`]: MinimalPathSampler::sample
    pub fn retarget(&mut self, net: &LeveledNetwork, dest: NodeId, floor: Level) {
        for &v in &self.cone {
            self.count[v.index()] = 0.0;
            self.in_cone[v.index()] = false;
        }
        self.cone.clear();
        self.dest = dest;
        self.count[dest.index()] = 1.0;
        self.in_cone[dest.index()] = true;
        self.cone.push(dest);
        // Sweep levels downward; rescale a finished level if it grew huge.
        const CAP: f64 = 1e100;
        let mut above = 0..1;
        for _ in (floor..net.level(dest)).rev() {
            let start = self.cone.len();
            for i in above {
                for &e in net.bwd_edges(self.cone[i]) {
                    let u = net.edge(e).tail;
                    if !self.in_cone[u.index()] {
                        self.in_cone[u.index()] = true;
                        self.cone.push(u);
                    }
                }
            }
            let level = start..self.cone.len();
            let mut level_max = 0.0f64;
            for &v in &self.cone[level.clone()] {
                let mut c = 0.0;
                for &e in net.fwd_edges(v) {
                    c += self.count[net.edge(e).head.index()];
                }
                self.count[v.index()] = c;
                level_max = level_max.max(c);
            }
            if level_max > CAP {
                for &v in &self.cone[level.clone()] {
                    self.count[v.index()] /= CAP;
                }
            }
            above = level;
        }
    }

    /// The destination this sampler targets.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// The weight [`sample`] gives `v`: the number of valid paths from
    /// `v` to the destination, divided by a power of `1e100` that every
    /// node of `v`'s level shares. 0 if `v` reaches no path or lies below
    /// the floor.
    ///
    /// [`sample`]: MinimalPathSampler::sample
    pub fn weight(&self, v: NodeId) -> f64 {
        self.count[v.index()]
    }

    /// Whether any valid path exists from `src` to the destination.
    pub fn reaches(&self, src: NodeId) -> bool {
        self.count[src.index()] > 0.0 || src == self.dest
    }

    /// Samples a uniformly-random valid path from `src` to the destination,
    /// or `None` if unreachable.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        net: &LeveledNetwork,
        src: NodeId,
        rng: &mut R,
    ) -> Option<Path> {
        if src == self.dest {
            return Some(Path::trivial(src));
        }
        if self.count[src.index()] == 0.0 {
            return None;
        }
        let mut edges = Vec::with_capacity((net.level(self.dest) - net.level(src)) as usize);
        let mut at = src;
        while at != self.dest {
            let fwd = net.fwd_edges(at);
            let total: f64 = fwd
                .iter()
                .map(|&e| self.count[net.edge(e).head.index()])
                .sum();
            debug_assert!(total > 0.0);
            let mut pick = rng.gen::<f64>() * total;
            let mut chosen = None;
            for &e in fwd {
                let w = self.count[net.edge(e).head.index()];
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
}

/// Samples a uniformly-random valid path from `src` to `dst`
/// (convenience wrapper around [`MinimalPathSampler`], counting only from
/// `src`'s level up). Costs `O(V)` to zero the sampler's buffers plus
/// `dst`'s backward cone down to `src`'s level; a caller drawing many
/// paths should hold one sampler and [`retarget`] it instead.
///
/// [`retarget`]: MinimalPathSampler::retarget
pub fn random_minimal<R: Rng + ?Sized>(
    net: &LeveledNetwork,
    src: NodeId,
    dst: NodeId,
    rng: &mut R,
) -> Option<Path> {
    MinimalPathSampler::above(net, dst, net.level(src)).sample(net, src, rng)
}

/// Uniformly random source–destination paths, one source at a time: a
/// uniformly random strictly-higher node the source reaches, then a
/// uniformly random valid path to it. The buffers are reused from draw
/// to draw, so a draw costs the source's forward cone plus the
/// destination's backward cone down to the source's level, not the
/// network.
#[derive(Clone, Debug)]
pub struct PairSampler {
    paths: MinimalPathSampler,
    /// The current source's forward cone, the source first.
    cone: Vec<NodeId>,
    /// Marks the nodes of `cone` while it is walked.
    seen: Vec<bool>,
}

impl PairSampler {
    /// Zeroed buffers for drawing pairs on `net`; `O(V)`.
    pub fn new(net: &LeveledNetwork) -> Self {
        PairSampler {
            paths: MinimalPathSampler::above(net, NodeId(0), net.depth()),
            cone: Vec::new(),
            seen: vec![false; net.num_nodes()],
        }
    }

    /// Draws a destination and a path for `src`. The destination is
    /// drawn as a choice from the reached nodes listed in node order
    /// would draw it: one `gen_range` over their number picks the `k`-th
    /// in node order, so the rng moves the same way.
    ///
    /// # Panics
    ///
    /// Panics if `src` has no forward edge.
    pub fn draw<R: Rng + ?Sized>(
        &mut self,
        net: &LeveledNetwork,
        src: NodeId,
        rng: &mut R,
    ) -> Path {
        self.cone.clear();
        self.cone.push(src);
        self.seen[src.index()] = true;
        let mut i = 0;
        while let Some(&v) = self.cone.get(i) {
            for &e in net.fwd_edges(v) {
                let w = net.edge(e).head;
                if !self.seen[w.index()] {
                    self.seen[w.index()] = true;
                    self.cone.push(w);
                }
            }
            i += 1;
        }
        for &v in &self.cone {
            self.seen[v.index()] = false;
        }
        // Every reached node but the source itself is strictly higher.
        let dests = &mut self.cone[1..];
        assert!(!dests.is_empty(), "source {src} has no forward edge");
        let k = rng.gen_range(0..dests.len());
        let dst = *dests.select_nth_unstable(k).1;
        self.paths.retarget(net, dst, net.level(src));
        self.paths
            .sample(net, src, rng)
            .expect("the destination is reachable")
    }

    /// The path counts the last draw sampled from.
    pub fn sampler(&self) -> &MinimalPathSampler {
        &self.paths
    }
}

/// The deterministic lexicographically-first valid path from `src` to
/// `dst` (at each node, the first forward edge that still reaches `dst`).
///
/// Used adversarially: funneling many packets through first-fit paths
/// concentrates congestion.
pub fn first_minimal(net: &LeveledNetwork, src: NodeId, dst: NodeId) -> Option<Path> {
    if src == dst {
        return Some(Path::trivial(src));
    }
    let mask = net.reaches_mask(dst);
    if !mask[src.index()] {
        return None;
    }
    let mut edges = Vec::new();
    let mut at = src;
    while at != dst {
        let e = net
            .fwd_edges(at)
            .iter()
            .copied()
            .find(|&e| mask[net.edge(e).head.index()])
            .expect("mask guarantees a continuing edge");
        edges.push(e);
        at = net.edge(e).head;
    }
    Some(Path::new(net, src, edges).expect("constructed path is valid"))
}

/// The unique butterfly path from `(level 0, src_row)` to
/// `(level k, dst_row)`, fixing row bit `l` at level `l`.
pub fn bit_fixing(
    net: &LeveledNetwork,
    coords: &ButterflyCoords,
    src_row: usize,
    dst_row: usize,
) -> Path {
    let k = coords.k;
    let mut nodes = Vec::with_capacity(k as usize + 1);
    let mut row = src_row;
    nodes.push(coords.node(0, row));
    for l in 0..k {
        let bit = 1usize << l;
        row = (row & !bit) | (dst_row & bit);
        nodes.push(coords.node(l + 1, row));
    }
    debug_assert_eq!(row, dst_row);
    Path::from_nodes(net, &nodes).expect("butterfly bit-fixing path is valid")
}

/// Which axis a dimension-order mesh path traverses first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MeshAxis {
    /// Move along rows (vertically) first, then along columns.
    RowFirst,
    /// Move along columns (horizontally) first, then along rows.
    ColFirst,
}

/// The dimension-order path between two mesh cells, or `None` if the
/// destination is not forward-reachable in this orientation.
pub fn dimension_order_mesh(
    net: &LeveledNetwork,
    coords: &MeshCoords,
    src: (usize, usize),
    dst: (usize, usize),
    axis: MeshAxis,
) -> Option<Path> {
    if !coords.reachable(src, dst) {
        return None;
    }
    let (r1, c1) = src;
    let (r2, c2) = dst;
    let mut nodes = Vec::new();
    let push_row_leg = |nodes: &mut Vec<NodeId>, c: usize| {
        let mut r = r1;
        nodes.push(coords.node(r, c));
        while r != r2 {
            r = if r2 > r { r + 1 } else { r - 1 };
            nodes.push(coords.node(r, c));
        }
    };
    let push_col_leg = |nodes: &mut Vec<NodeId>, r: usize| {
        let mut c = c1;
        nodes.push(coords.node(r, c));
        while c != c2 {
            c = if c2 > c { c + 1 } else { c - 1 };
            nodes.push(coords.node(r, c));
        }
    };
    match axis {
        MeshAxis::RowFirst => {
            push_row_leg(&mut nodes, c1);
            let mut c = c1;
            while c != c2 {
                c = if c2 > c { c + 1 } else { c - 1 };
                nodes.push(coords.node(r2, c));
            }
        }
        MeshAxis::ColFirst => {
            push_col_leg(&mut nodes, r1);
            let mut r = r1;
            while r != r2 {
                r = if r2 > r { r + 1 } else { r - 1 };
                nodes.push(coords.node(r, c2));
            }
        }
    }
    Some(Path::from_nodes(net, &nodes).expect("dimension-order path is valid"))
}

/// Number of distinct valid paths from `src` to `dst`, as an `f64`
/// (exact for counts below 2^53; order-of-magnitude beyond).
pub fn count_paths(net: &LeveledNetwork, src: NodeId, dst: NodeId) -> f64 {
    if src == dst {
        return 1.0;
    }
    if net.level(src) >= net.level(dst) {
        return 0.0;
    }
    let mut count = vec![0.0f64; net.num_nodes()];
    count[dst.index()] = 1.0;
    let dl = net.level(dst);
    let sl = net.level(src);
    for l in (sl..dl).rev() {
        for &v in net.nodes_at_level(l) {
            let mut c = 0.0;
            for &e in net.fwd_edges(v) {
                c += count[net.edge(e).head.index()];
            }
            count[v.index()] = c;
        }
    }
    count[src.index()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders::{self, MeshCorner};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn sampler_reaches_matches_mask() {
        let net = builders::butterfly(3);
        let dst = NodeId(net.num_nodes() as u32 - 1);
        let sampler = MinimalPathSampler::new(&net, dst);
        let mask = net.reaches_mask(dst);
        for v in net.nodes() {
            assert_eq!(sampler.reaches(v), mask[v.index()], "node {v}");
        }
    }

    #[test]
    fn sampled_paths_are_valid_and_end_at_dest() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = builders::complete_leveled(6, 4);
        let dst = net.nodes_at_level(6)[2];
        let sampler = MinimalPathSampler::new(&net, dst);
        for &src in net.nodes_at_level(0) {
            for _ in 0..5 {
                let p = sampler.sample(&net, src, &mut rng).unwrap();
                p.validate(&net).unwrap();
                assert_eq!(p.source(), src);
                assert_eq!(p.dest(&net), dst);
                assert_eq!(p.len() as u32, 6);
            }
        }
    }

    #[test]
    fn sampling_is_uniform_on_the_diamond() {
        // Two paths of equal weight: frequencies should be ~50/50.
        let mut b = leveled_net::NetworkBuilder::new("diamond");
        let n0 = b.add_node(0);
        let n1 = b.add_node(1);
        let n2 = b.add_node(1);
        let n3 = b.add_node(2);
        b.add_edge(n0, n1).unwrap();
        b.add_edge(n0, n2).unwrap();
        b.add_edge(n1, n3).unwrap();
        b.add_edge(n2, n3).unwrap();
        let net = b.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let sampler = MinimalPathSampler::new(&net, n3);
        let mut via_n1 = 0usize;
        let trials = 4000;
        for _ in 0..trials {
            let p = sampler.sample(&net, n0, &mut rng).unwrap();
            if p.nodes(&net)[1] == n1 {
                via_n1 += 1;
            }
        }
        let frac = via_n1 as f64 / trials as f64;
        assert!((0.45..0.55).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn random_minimal_unreachable_is_none() {
        let net = builders::linear_array(4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // Backwards pair: no valid path.
        assert!(random_minimal(&net, NodeId(3), NodeId(0), &mut rng).is_none());
    }

    #[test]
    fn trivial_sample_for_equal_endpoints() {
        let net = builders::linear_array(4);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let p = random_minimal(&net, NodeId(2), NodeId(2), &mut rng).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn first_minimal_is_deterministic_and_valid() {
        let net = builders::complete_leveled(4, 3);
        let src = net.nodes_at_level(0)[1];
        let dst = net.nodes_at_level(4)[2];
        let a = first_minimal(&net, src, dst).unwrap();
        let b = first_minimal(&net, src, dst).unwrap();
        assert_eq!(a, b);
        a.validate(&net).unwrap();
        assert_eq!(a.dest(&net), dst);
    }

    #[test]
    fn bit_fixing_path_hits_destination_row() {
        let k = 5;
        let net = builders::butterfly(k);
        let coords = ButterflyCoords { k };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..50 {
            let sr = rng.gen_range(0..coords.rows());
            let dr = rng.gen_range(0..coords.rows());
            let p = bit_fixing(&net, &coords, sr, dr);
            p.validate(&net).unwrap();
            assert_eq!(p.source(), coords.node(0, sr));
            assert_eq!(p.dest(&net), coords.node(k, dr));
            assert_eq!(p.len() as u32, k);
        }
    }

    #[test]
    fn bit_fixing_matches_unique_path_count() {
        let k = 3;
        let net = builders::butterfly(k);
        let coords = ButterflyCoords { k };
        // There is exactly one valid path per (src row, dst row) pair.
        for sr in 0..coords.rows() {
            for dr in 0..coords.rows() {
                let n = count_paths(&net, coords.node(0, sr), coords.node(k, dr));
                assert_eq!(n, 1.0, "sr={sr} dr={dr}");
            }
        }
    }

    #[test]
    fn dimension_order_paths_for_all_corners() {
        for corner in MeshCorner::ALL {
            let (net, coords) = builders::mesh(5, 5, corner);
            // Pick the level-0 corner cell as source, level-L corner as dest.
            let src = {
                let n = net.nodes_at_level(0)[0];
                coords.coords(n)
            };
            let dst = {
                let n = net.nodes_at_level(net.depth())[0];
                coords.coords(n)
            };
            for axis in [MeshAxis::RowFirst, MeshAxis::ColFirst] {
                let p = dimension_order_mesh(&net, &coords, src, dst, axis).unwrap();
                p.validate(&net).unwrap();
                assert_eq!(p.len() as u32, net.depth());
            }
        }
    }

    #[test]
    fn dimension_order_rejects_unreachable() {
        let (net, coords) = builders::mesh(4, 4, MeshCorner::TopLeft);
        assert!(dimension_order_mesh(&net, &coords, (2, 2), (1, 3), MeshAxis::RowFirst).is_none());
    }

    #[test]
    fn dimension_order_axes_differ() {
        let (net, coords) = builders::mesh(4, 4, MeshCorner::TopLeft);
        let a = dimension_order_mesh(&net, &coords, (0, 0), (2, 2), MeshAxis::RowFirst).unwrap();
        let b = dimension_order_mesh(&net, &coords, (0, 0), (2, 2), MeshAxis::ColFirst).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
        // Row-first visits (1,0); col-first visits (0,1).
        assert_eq!(a.nodes(&net)[1], coords.node(1, 0));
        assert_eq!(b.nodes(&net)[1], coords.node(0, 1));
    }

    #[test]
    fn count_paths_on_complete_leveled() {
        let net = builders::complete_leveled(3, 2);
        let src = net.nodes_at_level(0)[0];
        let dst = net.nodes_at_level(3)[0];
        // width^(L-1) intermediate choices per inner level: 2 * 2 = 4.
        assert_eq!(count_paths(&net, src, dst), 4.0);
    }

    #[test]
    fn count_paths_zero_backward() {
        let net = builders::linear_array(3);
        assert_eq!(count_paths(&net, NodeId(2), NodeId(0)), 0.0);
        assert_eq!(count_paths(&net, NodeId(1), NodeId(1)), 1.0);
    }

    #[test]
    fn huge_path_counts_still_sample() {
        // width^L far beyond u64: 8^80. The sampler must not overflow.
        let net = builders::complete_leveled(80, 8);
        let dst = net.nodes_at_level(80)[0];
        let sampler = MinimalPathSampler::new(&net, dst);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let src = net.nodes_at_level(0)[0];
        let p = sampler.sample(&net, src, &mut rng).unwrap();
        assert_eq!(p.len(), 80);
        p.validate(&net).unwrap();
    }
}
