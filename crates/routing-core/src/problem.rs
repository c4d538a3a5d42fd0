//! Routing problems: packets with preselected paths, congestion, dilation.

use crate::path::{Path, PathRef};
use leveled_net::{EdgeId, LeveledNetwork, NodeId};
use std::sync::Arc;

/// Dense identifier of a packet within a [`RoutingProblem`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u32);

impl PacketId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors detected while assembling a [`RoutingProblem`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProblemError {
    /// Two packets share a source node, violating the many-to-one setting
    /// of the paper (each node is the source of at most one packet).
    DuplicateSource(NodeId),
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::DuplicateSource(n) => {
                write!(f, "node {n} is the source of more than one packet")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// Every preselected path of a problem, stored once as CSR: one source
/// per packet, `u32` offsets, and one flat edge array. Path `p` is
/// `edges[offsets[p]..offsets[p + 1]]` from `sources[p]`.
///
/// Only this crate appends to an arena: [`RoutingProblem::new`] copies
/// validated [`Path`]s in, and the workload generators push the edges
/// they draw straight in, with no per-path allocation.
#[derive(Clone, Debug)]
pub struct PathArena {
    sources: Vec<NodeId>,
    offsets: Vec<u32>,
    edges: Vec<EdgeId>,
}

impl PathArena {
    /// An empty arena with room for `paths` paths of `edges` edges in
    /// all.
    pub(crate) fn with_capacity(paths: usize, edges: usize) -> Self {
        let mut offsets = Vec::with_capacity(paths + 1);
        offsets.push(0);
        PathArena {
            sources: Vec::with_capacity(paths),
            offsets,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Appends the path from `source` along `edges`. The caller
    /// guarantees the edges chain forward from `source`.
    pub(crate) fn push(&mut self, source: NodeId, edges: impl IntoIterator<Item = EdgeId>) {
        self.edges.extend(edges);
        let end = u32::try_from(self.edges.len()).expect("a path arena holds under 2^32 edges");
        self.sources.push(source);
        self.offsets.push(end);
    }

    /// An arena holding `paths`, in order.
    fn collect(paths: &[Path]) -> Self {
        let mut arena = Self::with_capacity(paths.len(), paths.iter().map(Path::len).sum());
        for p in paths {
            arena.push(p.source(), p.edges().iter().copied());
        }
        arena
    }

    /// One offset per path plus one: path `p` owns
    /// `edges()[offsets[p]..offsets[p + 1]]`.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every path's edges, concatenated in path order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The length of every path, in order.
    fn lengths(&self) -> impl Iterator<Item = u32> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }
}

/// A many-to-one packet routing problem on a leveled network: `N` packets,
/// each with a preselected valid path, at most one packet per source node.
/// Packet `p`'s source and destination are its path's endpoints.
#[derive(Clone, Debug)]
pub struct RoutingProblem {
    net: Arc<LeveledNetwork>,
    paths: PathArena,
    relaxed: bool,
}

impl RoutingProblem {
    /// Assembles a problem from preselected paths, validating the
    /// one-packet-per-source constraint (paths themselves are valid by
    /// construction of [`Path`]).
    pub fn new(net: Arc<LeveledNetwork>, paths: Vec<Path>) -> Result<Self, ProblemError> {
        Self::from_arena(net, PathArena::collect(&paths))
    }

    /// Assembles a problem from an arena of valid paths, validating the
    /// one-packet-per-source constraint.
    pub(crate) fn from_arena(
        net: Arc<LeveledNetwork>,
        paths: PathArena,
    ) -> Result<Self, ProblemError> {
        let mut seen = vec![false; net.num_nodes()];
        for &s in &paths.sources {
            if seen[s.index()] {
                return Err(ProblemError::DuplicateSource(s));
            }
            seen[s.index()] = true;
        }
        Ok(Self::assemble(net, paths, false))
    }

    /// Assembles a *relaxed* (many-to-many) problem in which a node may be
    /// the source of several packets — the setting of Borodin, Rabani and
    /// Schieber (reference 7 in the paper). The paper's injection-isolation
    /// analysis does not cover this case; the router handles it by
    /// retrying injections and counting the isolation violations.
    pub fn new_relaxed(net: Arc<LeveledNetwork>, paths: Vec<Path>) -> Self {
        Self::assemble(net, PathArena::collect(&paths), true)
    }

    fn assemble(net: Arc<LeveledNetwork>, paths: PathArena, relaxed: bool) -> Self {
        let prob = RoutingProblem {
            net,
            paths,
            relaxed,
        };
        debug_assert!(prob.paths().all(|p| p.validate(&prob.net).is_ok()));
        prob
    }

    /// Whether the problem permits several packets per source node.
    pub fn is_relaxed(&self) -> bool {
        self.relaxed
    }

    /// The underlying network.
    #[inline]
    pub fn network(&self) -> &LeveledNetwork {
        &self.net
    }

    /// A shared handle to the underlying network.
    pub fn network_arc(&self) -> Arc<LeveledNetwork> {
        Arc::clone(&self.net)
    }

    /// Number of packets `N`.
    #[inline]
    pub fn num_packets(&self) -> usize {
        self.paths.sources.len()
    }

    /// The preselected path of packet `p` (a [`PacketId`] index).
    #[inline]
    pub fn path(&self, p: usize) -> PathRef<'_> {
        let a = &self.paths;
        PathRef::new(
            a.sources[p],
            &a.edges[a.offsets[p] as usize..a.offsets[p + 1] as usize],
        )
    }

    /// The preselected paths, in packet order.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = PathRef<'_>> + '_ {
        let a = &self.paths;
        a.sources
            .iter()
            .zip(a.offsets.windows(2))
            .map(|(&s, w)| PathRef::new(s, &a.edges[w[0] as usize..w[1] as usize]))
    }

    /// The arena the paths are stored in.
    #[inline]
    pub fn arena(&self) -> &PathArena {
        &self.paths
    }

    /// Per-edge congestion of the preselected paths: entry `e` counts the
    /// packets whose path uses edge `e`.
    pub fn edge_congestion(&self) -> Vec<u32> {
        let mut cong = vec![0u32; self.net.num_edges()];
        for &e in &self.paths.edges {
            cong[e.index()] += 1;
        }
        cong
    }

    /// The congestion `C`: the maximum number of preselected paths crossing
    /// any single edge. Returns 0 for a problem with only trivial paths.
    pub fn congestion(&self) -> u32 {
        self.edge_congestion().into_iter().max().unwrap_or(0)
    }

    /// The dilation `D`: the maximum preselected path length.
    pub fn dilation(&self) -> u32 {
        self.paths.lengths().max().unwrap_or(0)
    }

    /// Per-set congestion under a packet-to-set `assignment` (one entry per
    /// packet, values `< num_sets`): for each set, the maximum number of
    /// its packets crossing any single edge — the paper's frontier-set
    /// congestion `C_i` (§2.4).
    pub fn per_set_congestion(&self, assignment: &[u32], num_sets: usize) -> Vec<u32> {
        assert_eq!(assignment.len(), self.num_packets());
        let ne = self.net.num_edges();
        // A dense (num_sets x num_edges) matrix would be large, so
        // collect the sparse (set, edge) incidences and count equal runs
        // after a sort — order-deterministic, and cache-friendlier than
        // per-set hash maps.
        let mut incidences: Vec<(u32, u32)> = Vec::with_capacity(self.paths.edges.len());
        for (w, &set) in self.paths.offsets.windows(2).zip(assignment) {
            assert!((set as usize) < num_sets, "set id out of range");
            for &e in &self.paths.edges[w[0] as usize..w[1] as usize] {
                debug_assert!(e.index() < ne);
                incidences.push((set, e.0));
            }
        }
        incidences.sort_unstable();
        let mut out = vec![0u32; num_sets];
        let mut run = 0u32;
        for (i, &(set, edge)) in incidences.iter().enumerate() {
            run = if i > 0 && incidences[i - 1] == (set, edge) {
                run + 1
            } else {
                1
            };
            let max = &mut out[set as usize];
            *max = (*max).max(run);
        }
        out
    }

    /// Histogram of path lengths (index = length).
    pub fn path_length_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.dilation() as usize + 1];
        for len in self.paths.lengths() {
            h[len as usize] += 1;
        }
        h
    }

    /// A compact one-line description: `N`, `C`, `D`, `L`.
    pub fn describe(&self) -> String {
        format!(
            "{}: N={} C={} D={} L={}",
            self.net.name(),
            self.num_packets(),
            self.congestion(),
            self.dilation(),
            self.net.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{Path, PathError};
    use leveled_net::builders;

    fn line_problem() -> RoutingProblem {
        let net = Arc::new(builders::linear_array(5));
        let p0 = Path::from_nodes(&net, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let p1 = Path::from_nodes(&net, &[NodeId(1), NodeId(2), NodeId(3), NodeId(4)]).unwrap();
        let p2 = Path::from_nodes(&net, &[NodeId(2), NodeId(3)]).unwrap();
        RoutingProblem::new(net, vec![p0, p1, p2]).unwrap()
    }

    #[test]
    fn congestion_and_dilation() {
        let prob = line_problem();
        assert_eq!(prob.num_packets(), 3);
        // Edge 2->3 is used by all three packets.
        assert_eq!(prob.congestion(), 3);
        assert_eq!(prob.dilation(), 3);
    }

    #[test]
    fn edge_congestion_detail() {
        let prob = line_problem();
        let cong = prob.edge_congestion();
        // Edges of linear(5) are 0:0-1, 1:1-2, 2:2-3, 3:3-4.
        assert_eq!(cong, vec![1, 2, 3, 1]);
    }

    #[test]
    fn duplicate_sources_rejected() {
        let net = Arc::new(builders::linear_array(3));
        let a = Path::from_nodes(&net, &[NodeId(0), NodeId(1)]).unwrap();
        let b = Path::from_nodes(&net, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let err = RoutingProblem::new(net, vec![a, b]).unwrap_err();
        assert_eq!(err, ProblemError::DuplicateSource(NodeId(0)));
    }

    #[test]
    fn per_set_congestion_splits_counts() {
        let prob = line_problem();
        // All in one set: same as total congestion.
        let one = prob.per_set_congestion(&[0, 0, 0], 1);
        assert_eq!(one, vec![3]);
        // Split the two long packets apart.
        let split = prob.per_set_congestion(&[0, 1, 0], 2);
        assert_eq!(split, vec![2, 1]);
        // Sets may be empty.
        let sparse = prob.per_set_congestion(&[2, 2, 2], 4);
        assert_eq!(sparse, vec![0, 0, 3, 0]);
    }

    #[test]
    fn trivial_paths_have_zero_congestion() {
        let net = Arc::new(builders::linear_array(2));
        let prob = RoutingProblem::new(net, vec![Path::trivial(NodeId(0))]).unwrap();
        assert_eq!(prob.congestion(), 0);
        assert_eq!(prob.dilation(), 0);
    }

    #[test]
    fn path_length_histogram_counts_all() {
        let prob = line_problem();
        let h = prob.path_length_histogram();
        assert_eq!(h.iter().sum::<usize>(), prob.num_packets());
        assert_eq!(h[3], 2);
        assert_eq!(h[1], 1);
    }

    #[test]
    fn describe_contains_parameters() {
        let prob = line_problem();
        let d = prob.describe();
        assert!(d.contains("N=3"));
        assert!(d.contains("C=3"));
        assert!(d.contains("D=3"));
        assert!(d.contains("L=4"));
    }

    #[test]
    fn trivial_path_view_ends_at_its_source() {
        let net = Arc::new(builders::linear_array(3));
        let long = Path::from_nodes(&net, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let prob =
            RoutingProblem::new(Arc::clone(&net), vec![long, Path::trivial(NodeId(1))]).unwrap();
        let p = prob.path(1);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.source(), NodeId(1));
        assert_eq!(p.dest(&net), NodeId(1));
        assert_eq!(p.nodes(&net), vec![NodeId(1)]);
        assert!(p.edges().is_empty());
        p.validate(&net).unwrap();
        assert_eq!(prob.arena().offsets(), &[0, 2, 2]);
    }

    #[test]
    fn view_nodes_round_trip_through_from_nodes() {
        let prob = line_problem();
        let net = prob.network();
        for p in prob.paths() {
            let rebuilt = Path::from_nodes(net, &p.nodes(net)).unwrap();
            assert_eq!(rebuilt.view(), p);
            assert_eq!(rebuilt.dest(net), p.dest(net));
        }
        assert_eq!(prob.paths().len(), prob.num_packets());
    }

    #[test]
    fn arena_views_validate_and_report_breaks() {
        let prob = line_problem();
        let net = prob.network();
        for p in prob.paths() {
            p.validate(net).unwrap();
        }
        // Edges of linear(5) are 0:0-1, 1:1-2, 2:2-3, 3:3-4.
        let edges = [EdgeId(0), EdgeId(2)];
        assert_eq!(
            PathRef::new(NodeId(0), &edges).validate(net),
            Err(PathError::Broken { at: 1 })
        );
        assert_eq!(
            PathRef::new(NodeId(1), &edges).validate(net),
            Err(PathError::SourceMismatch)
        );
    }

    #[test]
    fn relaxed_problem_keeps_paths_that_share_a_source() {
        let net = Arc::new(builders::linear_array(4));
        let a = Path::from_nodes(&net, &[NodeId(0), NodeId(1)]).unwrap();
        let b = Path::from_nodes(&net, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).unwrap();
        let c = Path::from_nodes(&net, &[NodeId(1), NodeId(2)]).unwrap();
        let paths = vec![a.clone(), b.clone(), c.clone()];
        let prob = RoutingProblem::new_relaxed(Arc::clone(&net), paths);
        assert!(prob.is_relaxed());
        assert_eq!(prob.num_packets(), 3);
        for (got, want) in prob.paths().zip([&a, &b, &c]) {
            assert_eq!(got, want.view());
        }
        assert_eq!(prob.path(0).source(), prob.path(1).source());
        assert_eq!(prob.path(1).dest(&net), NodeId(3));
        assert_eq!(prob.edge_congestion(), vec![2, 2, 1]);
        assert_eq!(prob.path_length_histogram(), vec![0, 2, 0, 1]);
    }
}
