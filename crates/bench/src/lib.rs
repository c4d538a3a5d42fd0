//! Experiment harness regenerating every figure and evaluation claim of
//! the paper (see `DESIGN.md` §5 for the experiment index).
//!
//! The `tables` binary dispatches to one module per experiment:
//!
//! | id | paper artifact | module |
//! |----|----------------|--------|
//! | f1 | Figure 1 (leveled networks) | [`experiments::f1`] |
//! | f2 | Figure 2 (frontier-frames) | [`experiments::f2`] |
//! | t1 | Theorem 2.6 `Õ(C+L)` scaling | [`experiments::t1`] |
//! | t2 | Lemma 2.2 per-set congestion | [`experiments::t2`] |
//! | t3 | invariants `I_a..I_f` | [`experiments::t3`] |
//! | t4 | algorithm comparison / buffer benefit | [`experiments::t4`] |
//! | t5 | §5 mesh application | [`experiments::t5`] |
//! | t6 | §1.2 path-deviation claim | [`experiments::t6`] |
//! | t7 | §2.1 parameter formulas | [`experiments::t7`] |
//! | t8 | Theorem 2.6's probability, measured | [`experiments::t8`] |
//! | a1 | ablation: excitation probability `q` | [`experiments::a1`] |
//! | a2 | ablation: round length `w` and frame height `m` | [`experiments::a2`] |
//! | a3 | ablation: number of frontier sets | [`experiments::a3`] |
//! | a4 | ablation: safe backward deflections | [`experiments::a4`] |
//! | a5 | ablation: injection discipline | [`experiments::a5`] |
//! | metrics | Lemma 2.2 watermarks, frame progress, section profile | [`experiments::metrics`] |

pub mod experiments;
pub mod fleet;
pub mod gate;
pub mod runner;
pub mod table;

pub use runner::{average, parallel_map, RunSummary};
pub use table::Table;
