//! Valid paths in a leveled network.
//!
//! A *valid path* (paper §2.2) is a sequence of edges `e1, e2, ..., en` in
//! which the head of each edge is the tail of the next, so the path visits
//! nodes in consecutive, increasing levels. Every subpath of a valid path
//! is valid, and the length of a valid path from level `l1` to level `l2`
//! is exactly `l2 - l1`.

use leveled_net::{EdgeId, LeveledNetwork, NodeId};

/// Errors raised when constructing a [`Path`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathError {
    /// Two consecutive edges do not share the required endpoint.
    Broken {
        /// Index (into the edge list) of the second edge of the bad pair.
        at: usize,
    },
    /// The stated source is not the tail of the first edge.
    SourceMismatch,
    /// A node sequence contained a pair of non-adjacent nodes.
    NotAdjacent {
        /// Index (into the node list) of the second node of the bad pair.
        at: usize,
    },
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Broken { at } => {
                write!(f, "edge #{at} does not continue from the previous edge")
            }
            PathError::SourceMismatch => write!(f, "source is not the tail of the first edge"),
            PathError::NotAdjacent { at } => {
                write!(
                    f,
                    "node #{at} is not a forward neighbour of its predecessor"
                )
            }
        }
    }
}

impl std::error::Error for PathError {}

/// A valid (forward) path: a source node plus a chain of edges, each
/// traversed tail → head. The empty chain represents the trivial path of a
/// packet whose destination equals its source.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Path {
    source: NodeId,
    edges: Vec<EdgeId>,
}

impl Path {
    /// The trivial (length-0) path at `node`.
    pub fn trivial(node: NodeId) -> Self {
        Path {
            source: node,
            edges: Vec::new(),
        }
    }

    /// Builds a path from `source` along `edges`, validating the forward
    /// chaining against `net`.
    pub fn new(
        net: &LeveledNetwork,
        source: NodeId,
        edges: Vec<EdgeId>,
    ) -> Result<Self, PathError> {
        PathRef::new(source, &edges).validate(net)?;
        Ok(Path { source, edges })
    }

    /// Builds a path visiting exactly the given node sequence, resolving
    /// each consecutive pair to a connecting forward edge (the first one if
    /// there are parallel edges).
    pub fn from_nodes(net: &LeveledNetwork, nodes: &[NodeId]) -> Result<Self, PathError> {
        assert!(!nodes.is_empty(), "a path needs at least one node");
        let mut edges = Vec::with_capacity(nodes.len() - 1);
        for (i, w) in nodes.windows(2).enumerate() {
            let e = edge_between(net, w[0], w[1]).ok_or(PathError::NotAdjacent { at: i + 1 })?;
            edges.push(e);
        }
        Ok(Path {
            source: nodes[0],
            edges,
        })
    }

    /// The borrowed view of this path.
    #[inline]
    pub fn view(&self) -> PathRef<'_> {
        PathRef {
            source: self.source,
            edges: &self.edges,
        }
    }

    /// The source node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The destination node (requires the network to resolve edge heads).
    pub fn dest(&self, net: &LeveledNetwork) -> NodeId {
        self.view().dest(net)
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the path is trivial (no edges).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The full node sequence (source first, destination last).
    pub fn nodes(&self, net: &LeveledNetwork) -> Vec<NodeId> {
        self.view().nodes(net)
    }

    /// Checks validity against `net` (used by tests and auditors; paths
    /// built through the constructors are always valid).
    pub fn validate(&self, net: &LeveledNetwork) -> Result<(), PathError> {
        self.view().validate(net)
    }
}

/// A borrowed path: a source node plus a slice of edges. This is how a
/// [`RoutingProblem`](crate::RoutingProblem) hands out the paths it
/// stores, and what [`Path::view`] returns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathRef<'a> {
    source: NodeId,
    edges: &'a [EdgeId],
}

impl<'a> PathRef<'a> {
    /// A view of `edges` from `source`; the caller guarantees they chain.
    #[inline]
    pub(crate) fn new(source: NodeId, edges: &'a [EdgeId]) -> Self {
        PathRef { source, edges }
    }

    /// The source node.
    #[inline]
    pub fn source(self) -> NodeId {
        self.source
    }

    /// The destination node (requires the network to resolve edge heads).
    pub fn dest(self, net: &LeveledNetwork) -> NodeId {
        match self.edges.last() {
            Some(&e) => net.edge(e).head,
            None => self.source,
        }
    }

    /// Number of edges.
    #[inline]
    pub fn len(self) -> usize {
        self.edges.len()
    }

    /// Whether the path is trivial (no edges).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.edges.is_empty()
    }

    /// The edge sequence.
    #[inline]
    pub fn edges(self) -> &'a [EdgeId] {
        self.edges
    }

    /// The full node sequence (source first, destination last).
    pub fn nodes(self, net: &LeveledNetwork) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.edges.len() + 1);
        out.push(self.source);
        for &e in self.edges {
            out.push(net.edge(e).head);
        }
        out
    }

    /// Checks that the edges chain forward from the source in `net`:
    /// each edge's tail is the previous edge's head.
    pub fn validate(self, net: &LeveledNetwork) -> Result<(), PathError> {
        let mut at = self.source;
        for (i, &e) in self.edges.iter().enumerate() {
            let edge = net.edge(e);
            if edge.tail != at {
                return Err(if i == 0 {
                    PathError::SourceMismatch
                } else {
                    PathError::Broken { at: i }
                });
            }
            at = edge.head;
        }
        Ok(())
    }
}

/// The first forward edge from `tail` to `head`, if the nodes are adjacent
/// consecutive-level nodes.
pub fn edge_between(net: &LeveledNetwork, tail: NodeId, head: NodeId) -> Option<EdgeId> {
    net.fwd_edges(tail)
        .iter()
        .copied()
        .find(|&e| net.edge(e).head == head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leveled_net::builders;

    #[test]
    fn trivial_path() {
        let net = builders::linear_array(3);
        let p = Path::trivial(NodeId(1));
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.source(), NodeId(1));
        assert_eq!(p.dest(&net), NodeId(1));
        p.validate(&net).unwrap();
    }

    #[test]
    fn linear_path_roundtrip() {
        let net = builders::linear_array(5);
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let p = Path::from_nodes(&net, &nodes).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.dest(&net), NodeId(4));
        assert_eq!(p.nodes(&net), nodes);
        p.validate(&net).unwrap();
    }

    #[test]
    fn rejects_broken_chain() {
        let net = builders::butterfly(2);
        // Two arbitrary edges that don't chain.
        let e0 = EdgeId(0);
        let tail = net.edge(e0).tail;
        let bad = net
            .edge_ids()
            .find(|&e| net.edge(e).tail != net.edge(e0).head && e != e0)
            .unwrap();
        let err = Path::new(&net, tail, vec![e0, bad]).unwrap_err();
        assert_eq!(err, PathError::Broken { at: 1 });
    }

    #[test]
    fn rejects_source_mismatch() {
        let net = builders::linear_array(3);
        let e1 = net.fwd_edges(NodeId(1))[0];
        let err = Path::new(&net, NodeId(0), vec![e1]).unwrap_err();
        assert_eq!(err, PathError::SourceMismatch);
    }

    #[test]
    fn rejects_non_adjacent_nodes() {
        let net = builders::linear_array(4);
        let err = Path::from_nodes(&net, &[NodeId(0), NodeId(2)]).unwrap_err();
        assert_eq!(err, PathError::NotAdjacent { at: 1 });
    }

    #[test]
    fn path_length_equals_level_difference() {
        let net = builders::butterfly(4);
        // Any valid path spans exactly level(dest) - level(src) edges.
        let p = Path::new(&net, net.edge(EdgeId(0)).tail, vec![EdgeId(0)]).unwrap();
        let diff = net.level(p.dest(&net)) - net.level(p.source());
        assert_eq!(p.len() as u32, diff);
    }

    #[test]
    fn edge_between_finds_forward_edges_only() {
        let net = builders::linear_array(3);
        assert!(edge_between(&net, NodeId(0), NodeId(1)).is_some());
        assert!(edge_between(&net, NodeId(1), NodeId(0)).is_none());
        assert!(edge_between(&net, NodeId(0), NodeId(2)).is_none());
    }
}
