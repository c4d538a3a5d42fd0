//! Routing-problem model for leveled networks.
//!
//! This crate defines the *static* side of a packet-routing problem in the
//! sense of Busch (SPAA 2002, §2):
//!
//! * [`Path`] — a *valid path*: a chain of edges traversed forward, i.e.
//!   visiting consecutive levels from a lower level to a higher one;
//! * [`RoutingProblem`] — a set of packets with preselected valid paths,
//!   at most one packet per source node (the paper's many-to-one setting),
//!   with the two governing parameters **congestion `C`** (max packets per
//!   edge) and **dilation `D`** (max path length);
//! * [`paths`] — preselected-path strategies: uniformly random minimal
//!   paths, deterministic first-fit minimal paths, bit-fixing paths on the
//!   butterfly, dimension-order paths on the mesh;
//! * [`workloads`] — problem generators: random pairs, level-to-level
//!   permutations, hot spots, and the §5 mesh workload with
//!   `C = D = Θ(n)` — plus [`ArrivalProcess`], which times a problem's
//!   packets for streaming (continuous-injection) runs;
//! * [`spec`] — the text grammar naming topologies, workloads, arrival
//!   processes, and algorithms (`bf:10/bitrev/busch/7[/poisson:0.5]`),
//!   shared by the CLI, `hotpotato serve`, the bench harness, and the
//!   trace analyzer so an instance can be reconstructed from a trace's
//!   `meta` line.

pub mod dag;
pub mod path;
pub mod paths;
pub mod problem;
pub mod spec;
pub mod workloads;

pub use dag::DagNetwork;
pub use path::{Path, PathError};
pub use problem::{PacketId, PacketSpec, ProblemError, RoutingProblem};
pub use spec::RunSpec;
pub use workloads::ArrivalProcess;
