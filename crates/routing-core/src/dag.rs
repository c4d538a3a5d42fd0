//! Routing problems on arbitrary DAGs via levelization.
//!
//! `leveled_net::levelize` turns any DAG into a leveled network (paper §5
//! future-work direction); this module builds routing problems on the
//! result. Because subdivision dummies have in- and out-degree 1, every
//! valid path between images of original nodes corresponds uniquely to a
//! DAG path, so the standard path-selection machinery applies unchanged —
//! the paper's router then routes the original DAG problem verbatim.

use crate::path::Path;
use crate::paths::MinimalPathSampler;
use crate::problem::RoutingProblem;
use crate::workloads::WorkloadError;
use leveled_net::levelize::{Dag, Levelized};
use leveled_net::{LeveledNetwork, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// A levelized DAG packaged for routing: the shared leveled network plus
/// the levelization mapping.
#[derive(Clone, Debug)]
pub struct DagNetwork {
    net: Arc<LeveledNetwork>,
    lz: Levelized,
}

impl DagNetwork {
    /// Levelizes `dag` and wraps the result for routing.
    pub fn new(dag: &Dag) -> Result<Self, leveled_net::LevelizeError> {
        let lz = leveled_net::levelize(dag)?;
        let net = Arc::new(lz.net.clone());
        Ok(DagNetwork { net, lz })
    }

    /// The leveled network (original nodes first, dummies after).
    pub fn network(&self) -> &Arc<LeveledNetwork> {
        &self.net
    }

    /// The levelization mapping.
    pub fn levelized(&self) -> &Levelized {
        &self.lz
    }

    /// The leveled image of original node `v`.
    pub fn node(&self, v: u32) -> NodeId {
        self.lz.node(v)
    }

    /// Original (non-dummy) nodes in the leveled network.
    pub fn original_nodes(&self) -> Vec<NodeId> {
        self.net.nodes().filter(|&n| !self.lz.is_dummy(n)).collect()
    }

    /// Builds the path for an original-edge-index sequence.
    pub fn path_from_dag_edges(&self, source: u32, dag_edges: &[usize]) -> Path {
        let edges = self.lz.translate_edges(dag_edges);
        Path::new(&self.net, self.node(source), edges)
            .expect("translated chains form a valid leveled path")
    }
}

/// `n` packets between distinct random *original* nodes of the DAG, each
/// to a random reachable original node, along uniformly random paths.
pub fn random_dag_pairs<R: Rng + ?Sized>(
    dagnet: &DagNetwork,
    n: usize,
    rng: &mut R,
) -> Result<Arc<RoutingProblem>, WorkloadError> {
    let originals = dagnet.original_nodes();
    let mut candidates: Vec<NodeId> = originals
        .iter()
        .copied()
        .filter(|&v| !dagnet.network().fwd_edges(v).is_empty())
        .collect();
    if candidates.len() < n {
        return Err(WorkloadError::NotEnoughSources {
            requested: n,
            available: candidates.len(),
        });
    }
    candidates.shuffle(rng);
    let net = dagnet.network();
    let mut paths_out = Vec::with_capacity(n);
    for &src in candidates.iter().take(n) {
        let mask = net.reachable_mask(src);
        let dests: Vec<NodeId> = originals
            .iter()
            .copied()
            .filter(|&v| v != src && mask[v.index()])
            .collect();
        if dests.is_empty() {
            // A source whose only forward reach is dummies cannot exist:
            // dummies always lead to an original node. Defensive skip.
            continue;
        }
        let dst = *dests.choose(rng).expect("non-empty");
        let sampler = MinimalPathSampler::new(net, dst);
        paths_out.push(sampler.sample(net, src, rng).expect("reachable"));
    }
    if paths_out.len() < n {
        return Err(WorkloadError::NotEnoughSources {
            requested: n,
            available: paths_out.len(),
        });
    }
    RoutingProblem::new(Arc::clone(net), paths_out)
        .map(Arc::new)
        .map_err(|_| unreachable!("distinct sources"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_dag(n: usize, p: f64, seed: u64) -> Dag {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut d = Dag::new(n);
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    d.add_edge(u, v);
                }
            }
        }
        d
    }

    #[test]
    fn dag_network_wraps_levelization() {
        let dag = random_dag(20, 0.2, 1);
        let dn = DagNetwork::new(&dag).unwrap();
        dn.network().validate().unwrap();
        assert_eq!(dn.original_nodes().len(), 20);
        for v in 0..20u32 {
            assert!(!dn.levelized().is_dummy(dn.node(v)));
        }
    }

    #[test]
    fn path_from_dag_edges_translates() {
        let mut dag = Dag::new(4);
        dag.add_edge(0, 1); // edge 0
        dag.add_edge(1, 3); // edge 1
        dag.add_edge(1, 2); // edge 2 (forces node 3 to level 3? no: 2)
        dag.add_edge(2, 3); // edge 3
        let dn = DagNetwork::new(&dag).unwrap();
        // DAG path 0 -(e0)-> 1 -(e1)-> 3: edge 1 spans levels 1 -> 3.
        let p = dn.path_from_dag_edges(0, &[0, 1]);
        p.validate(dn.network()).unwrap();
        assert_eq!(p.source(), dn.node(0));
        assert_eq!(p.dest(dn.network()), dn.node(3));
        assert_eq!(p.len(), 3, "subdivided shortcut spans an extra hop");
    }

    #[test]
    fn random_dag_pairs_builds_valid_problems() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dag = random_dag(30, 0.25, 2);
        let dn = DagNetwork::new(&dag).unwrap();
        let prob = random_dag_pairs(&dn, 10, &mut rng).unwrap();
        assert_eq!(prob.num_packets(), 10);
        for p in prob.paths() {
            p.validate(prob.network()).unwrap();
            // Endpoints are original nodes.
            assert!(!dn.levelized().is_dummy(p.source()));
            assert!(!dn.levelized().is_dummy(p.dest(prob.network())));
        }
    }

    #[test]
    fn oversubscription_reported() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut dag = Dag::new(3);
        dag.add_edge(0, 1);
        dag.add_edge(1, 2);
        let dn = DagNetwork::new(&dag).unwrap();
        // Only nodes 0 and 1 have forward edges.
        assert!(random_dag_pairs(&dn, 3, &mut rng).is_err());
    }
}
