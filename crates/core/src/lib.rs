//! Busch's SPAA 2002 Õ(congestion + dilation) hot-potato routing algorithm
//! for leveled networks.
//!
//! This crate is the paper's primary contribution, implemented faithfully:
//!
//! * [`params`] — the paper's §2.1 parameter formulas (`a`, `m`, `q`, `w`,
//!   `p₀`, `p₁`, `p(k)`), both in their literal (impractically large) form
//!   [`PaperParams`] and as simulation-scale [`Params`];
//! * [`schedule`] — frontier sets and the frontier-frame pipeline (§2.4,
//!   §2.5, Figure 2): frame positions per phase, inner levels, receding
//!   target levels, and injection phases;
//! * [`router`] — the algorithm itself (§3): normal/excited/wait packet
//!   states, priority conflict resolution, safe backward deflections,
//!   wait-state oscillation, and isolation injection, driven on the
//!   bufferless engine of `hotpotato-sim`;
//! * [`invariants`] — runtime checkers for the six correctness invariants
//!   `I_a..I_f` of §4, reported as violation counters (all zero in the
//!   regimes the analysis covers).
//!
//! # Example
//!
//! ```
//! use busch_router::{BuschRouter, Params};
//! use leveled_net::builders;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let net = Arc::new(builders::butterfly(4));
//! let problem = routing_core::workloads::random_pairs(&net, 12, &mut rng).unwrap();
//! let router = BuschRouter::new(Params::auto(&problem));
//! let outcome = router.route(&problem, &mut rng);
//! assert!(outcome.stats.all_delivered());
//! ```

pub mod invariants;
pub mod params;
pub mod router;
pub mod schedule;
mod soa;

pub use invariants::InvariantReport;
pub use params::{PaperParams, Params};
pub use router::{BuschConfig, BuschOutcome, BuschRouter};
pub use schedule::FrameSchedule;
