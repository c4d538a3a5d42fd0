//! Run recording and independent replay verification.
//!
//! A [`RunRecord`] is an observer: attach it to a run (alone, or beside
//! other sinks as a tuple) and it logs every movement event the engine
//! emits. [`replay::verify`] then re-checks the *entire run* against the
//! hot-potato model from scratch — independently of the engine that
//! produced it:
//!
//! * each (edge, direction) slot is used at most once per step;
//! * packets are injected exactly once, at their path's source, departing
//!   along its first edge;
//! * every move starts where the packet actually is (no teleports);
//! * **no packet ever rests**: while active, a packet moves every step,
//!   and never twice in one step;
//! * packets are absorbed exactly on arrival at their destination, and
//!   never move afterwards;
//! * the final delivery set matches the run statistics.
//!
//! This gives end-to-end audit coverage: a bug in the engine's staging or
//! bookkeeping cannot hide, because the auditor shares no state with it.

use crate::observe::RouteObserver;
use crate::soa::ExitKind;
use crate::stats::{RouteStats, Time};
use leveled_net::ids::DirectedEdge;
use leveled_net::NodeId;
use routing_core::{PacketId, RoutingProblem};

/// One movement event of a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MoveEvent {
    /// Step at which the move departed.
    pub time: Time,
    /// The packet that moved.
    pub pkt: PacketId,
    /// The traversal performed.
    pub mv: DirectedEdge,
    /// The caller-declared kind (inject / advance / deflect / oscillate).
    pub kind: ExitKind,
}

/// A packet delivered without entering the network (trivial path).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrivialDelivery {
    /// Step of delivery.
    pub time: Time,
    /// The packet.
    pub pkt: PacketId,
}

/// The complete movement log of a run.
#[derive(Clone, Debug, Default)]
pub struct RunRecord {
    /// All moves, in commit order (non-decreasing time).
    pub moves: Vec<MoveEvent>,
    /// Packets delivered trivially at injection.
    pub trivial: Vec<TrivialDelivery>,
}

impl RunRecord {
    /// Number of recorded moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the record contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Logs the engine's move and trivial-delivery events in emission order,
/// which is commit order.
impl RouteObserver for RunRecord {
    #[inline]
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        self.moves.push(MoveEvent {
            time: t,
            pkt: PacketId(pkt),
            mv,
            kind,
        });
    }

    #[inline]
    fn on_trivial(&mut self, t: Time, pkt: u32) {
        self.trivial.push(TrivialDelivery {
            time: t,
            pkt: PacketId(pkt),
        });
    }
}

/// Reconstructs per-step level occupancy from a record:
/// `result[t][level]` counts the packets in flight at that level *after*
/// the moves departing at step `t` have landed. Rows cover steps
/// `0..=last`, where `last` is the final recorded step. This is the data
/// behind time-space diagrams (see the `time_space` example).
pub fn level_occupancy(problem: &RoutingProblem, record: &RunRecord) -> Vec<Vec<u32>> {
    let net = problem.network();
    let levels = net.num_levels();
    let last = record.moves.last().map_or(0, |e| e.time);
    let mut rows = Vec::with_capacity(last as usize + 1);
    let mut pos: Vec<Option<NodeId>> = vec![None; problem.num_packets()];
    let mut idx = 0usize;
    for t in 0..=last {
        while idx < record.moves.len() && record.moves[idx].time == t {
            let ev = &record.moves[idx];
            let i = ev.pkt.index();
            let target = net.move_target(ev.mv);
            let dest = problem.path(i).dest(net);
            pos[i] = if target == dest { None } else { Some(target) };
            idx += 1;
        }
        let mut hist = vec![0u32; levels];
        for p in pos.iter().flatten() {
            hist[net.level(*p) as usize] += 1;
        }
        rows.push(hist);
    }
    rows
}

/// Replay verification: see the module docs.
pub mod replay {
    use super::*;
    use std::collections::HashMap;

    /// Failure found by the auditor.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum ReplayError {
        /// Events are not in non-decreasing time order.
        OutOfOrder {
            /// Index of the offending event.
            at: usize,
        },
        /// A packet moved more than once in one step.
        MovedTwice {
            /// The step.
            time: Time,
            /// The offending packet.
            pkt: PacketId,
        },
        /// Two packets used the same (edge, direction) in one step.
        CapacityViolation {
            /// The step.
            time: Time,
            /// The offending packet.
            pkt: PacketId,
        },
        /// A packet moved from a node it was not at.
        Teleport {
            /// The step.
            time: Time,
            /// The offending packet.
            pkt: PacketId,
            /// Where the auditor believes it was.
            expected: Option<NodeId>,
        },
        /// A packet was injected twice, or moved before injection.
        NotInFlight {
            /// The step.
            time: Time,
            /// The offending packet.
            pkt: PacketId,
        },
        /// An injection did not depart from the packet's path source along
        /// its first edge.
        BadInjection {
            /// The step.
            time: Time,
            /// The offending packet.
            pkt: PacketId,
        },
        /// An active packet skipped a step (buffered illegally).
        Rested {
            /// The step it failed to move at.
            time: Time,
            /// The offending packet.
            pkt: PacketId,
        },
        /// A packet moved again after reaching its destination.
        MovedAfterDelivery {
            /// The step.
            time: Time,
            /// The offending packet.
            pkt: PacketId,
        },
        /// The record's delivery set disagrees with the run statistics.
        DeliveryMismatch {
            /// The packet in disagreement.
            pkt: PacketId,
        },
    }

    impl std::fmt::Display for ReplayError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                ReplayError::OutOfOrder { at } => write!(f, "event #{at} out of time order"),
                ReplayError::MovedTwice { time, pkt } => {
                    write!(f, "t={time}: {pkt} moved twice in one step")
                }
                ReplayError::CapacityViolation { time, pkt } => {
                    write!(f, "t={time}: {pkt} reused an occupied edge-direction slot")
                }
                ReplayError::Teleport {
                    time,
                    pkt,
                    expected,
                } => {
                    write!(
                        f,
                        "t={time}: {pkt} moved from a node it was not at (expected {expected:?})"
                    )
                }
                ReplayError::NotInFlight { time, pkt } => {
                    write!(f, "t={time}: {pkt} moved while not in flight")
                }
                ReplayError::BadInjection { time, pkt } => {
                    write!(
                        f,
                        "t={time}: {pkt} injected away from its source/first edge"
                    )
                }
                ReplayError::Rested { time, pkt } => {
                    write!(f, "t={time}: {pkt} rested (hot-potato violation)")
                }
                ReplayError::MovedAfterDelivery { time, pkt } => {
                    write!(f, "t={time}: {pkt} moved after delivery")
                }
                ReplayError::DeliveryMismatch { pkt } => {
                    write!(f, "{pkt}: record and statistics disagree on delivery")
                }
            }
        }
    }

    impl std::error::Error for ReplayError {}

    /// Aggregate results of a successful replay.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct ReplayReport {
        /// Total moves verified.
        pub moves: u64,
        /// Forward moves.
        pub forward: u64,
        /// Backward moves.
        pub backward: u64,
        /// Packets delivered (including trivial).
        pub delivered: usize,
        /// The last step at which anything moved.
        pub last_move_time: Time,
    }

    /// Verifies `record` against `problem` and the run's `stats`.
    pub fn verify(
        problem: &RoutingProblem,
        record: &RunRecord,
        stats: &RouteStats,
    ) -> Result<ReplayReport, ReplayError> {
        let net = problem.network();
        let n = problem.num_packets();
        let mut pos: Vec<Option<NodeId>> = vec![None; n];
        let mut injected = vec![false; n];
        let mut delivered = vec![false; n];
        let mut report = ReplayReport {
            moves: 0,
            forward: 0,
            backward: 0,
            delivered: 0,
            last_move_time: 0,
        };

        for tr in &record.trivial {
            let i = tr.pkt.index();
            if injected[i] || delivered[i] {
                return Err(ReplayError::NotInFlight {
                    time: tr.time,
                    pkt: tr.pkt,
                });
            }
            if !problem.path(i).is_empty() {
                return Err(ReplayError::BadInjection {
                    time: tr.time,
                    pkt: tr.pkt,
                });
            }
            injected[i] = true;
            delivered[i] = true;
        }

        // Events must be in non-decreasing time order (checked up front so
        // later diagnostics are trustworthy).
        for (i, w) in record.moves.windows(2).enumerate() {
            if w[1].time < w[0].time {
                return Err(ReplayError::OutOfOrder { at: i + 1 });
            }
        }

        // Group events by step.
        let mut idx = 0usize;
        let mut slot_user: HashMap<usize, PacketId> = HashMap::new();
        while idx < record.moves.len() {
            let t = record.moves[idx].time;
            let start = idx;
            while idx < record.moves.len() && record.moves[idx].time == t {
                idx += 1;
            }
            let step = &record.moves[start..idx];

            // Hot-potato: every active packet must appear exactly once.
            let mut movers = vec![false; n];
            slot_user.clear();
            for ev in step {
                let i = ev.pkt.index();
                if movers[i] {
                    return Err(ReplayError::MovedTwice {
                        time: t,
                        pkt: ev.pkt,
                    });
                }
                movers[i] = true;
                if slot_user.insert(ev.mv.slot_index(), ev.pkt).is_some() {
                    return Err(ReplayError::CapacityViolation {
                        time: t,
                        pkt: ev.pkt,
                    });
                }
            }
            for (i, p) in pos.iter().enumerate() {
                if p.is_some() && !movers[i] {
                    return Err(ReplayError::Rested {
                        time: t,
                        pkt: PacketId(i as u32),
                    });
                }
            }

            for ev in step {
                let i = ev.pkt.index();
                if delivered[i] {
                    return Err(ReplayError::MovedAfterDelivery {
                        time: t,
                        pkt: ev.pkt,
                    });
                }
                let origin = net.move_origin(ev.mv);
                match (ev.kind, pos[i]) {
                    (ExitKind::Inject, None) => {
                        if injected[i] {
                            return Err(ReplayError::NotInFlight {
                                time: t,
                                pkt: ev.pkt,
                            });
                        }
                        let path = problem.path(i);
                        let ok = !path.is_empty()
                            && origin == path.source()
                            && ev.mv == DirectedEdge::forward(path.edges()[0]);
                        if !ok {
                            return Err(ReplayError::BadInjection {
                                time: t,
                                pkt: ev.pkt,
                            });
                        }
                        injected[i] = true;
                    }
                    (ExitKind::Inject, Some(_)) => {
                        return Err(ReplayError::NotInFlight {
                            time: t,
                            pkt: ev.pkt,
                        });
                    }
                    (_, None) => {
                        return Err(ReplayError::NotInFlight {
                            time: t,
                            pkt: ev.pkt,
                        });
                    }
                    (_, Some(at)) => {
                        if at != origin {
                            return Err(ReplayError::Teleport {
                                time: t,
                                pkt: ev.pkt,
                                expected: pos[i],
                            });
                        }
                    }
                }
                let target = net.move_target(ev.mv);
                let dest = problem.path(i).dest(net);
                if target == dest {
                    delivered[i] = true;
                    pos[i] = None;
                } else {
                    pos[i] = Some(target);
                }
                report.moves += 1;
                match ev.mv.dir {
                    leveled_net::Direction::Forward => report.forward += 1,
                    leveled_net::Direction::Backward => report.backward += 1,
                }
                report.last_move_time = t;
            }

            // Hot-potato across step boundaries: if anything is still in
            // flight, the very next step must contain its move — a time
            // gap in the record means a packet rested.
            if idx < record.moves.len() && record.moves[idx].time > t + 1 {
                if let Some(i) = pos.iter().position(std::option::Option::is_some) {
                    return Err(ReplayError::Rested {
                        time: t + 1,
                        pkt: PacketId(i as u32),
                    });
                }
            }
        }

        // Packets still in flight at the end of the record must be exactly
        // the undelivered ones in the statistics.
        for (i, &was_delivered) in delivered.iter().enumerate() {
            let stats_delivered = stats.delivered_at[i].is_some();
            if was_delivered != stats_delivered {
                return Err(ReplayError::DeliveryMismatch {
                    pkt: PacketId(i as u32),
                });
            }
        }
        report.delivered = delivered.iter().filter(|&&d| d).count();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::replay::{verify, ReplayError};
    use super::*;
    use leveled_net::builders;
    use routing_core::Path;
    use std::sync::Arc;

    fn tiny_problem() -> RoutingProblem {
        let net = Arc::new(builders::linear_array(4));
        let p = Path::from_nodes(&net, &[NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        RoutingProblem::new(net, vec![p]).unwrap()
    }

    fn good_record() -> RunRecord {
        RunRecord {
            moves: vec![
                MoveEvent {
                    time: 0,
                    pkt: PacketId(0),
                    mv: DirectedEdge::forward(leveled_net::EdgeId(0)),
                    kind: ExitKind::Inject,
                },
                MoveEvent {
                    time: 1,
                    pkt: PacketId(0),
                    mv: DirectedEdge::forward(leveled_net::EdgeId(1)),
                    kind: ExitKind::Advance,
                },
            ],
            trivial: vec![],
        }
    }

    fn stats_delivered() -> RouteStats {
        let mut s = RouteStats::new(1);
        s.injected_at[0] = Some(0);
        s.delivered_at[0] = Some(2);
        s
    }

    #[test]
    fn valid_record_verifies() {
        let prob = tiny_problem();
        let rep = verify(&prob, &good_record(), &stats_delivered()).unwrap();
        assert_eq!(rep.moves, 2);
        assert_eq!(rep.forward, 2);
        assert_eq!(rep.backward, 0);
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.last_move_time, 1);
    }

    #[test]
    fn resting_packet_detected() {
        let prob = tiny_problem();
        let mut rec = good_record();
        rec.moves[1].time = 2; // skipped a step at node 1
        let err = verify(&prob, &rec, &stats_delivered()).unwrap_err();
        assert_eq!(
            err,
            ReplayError::Rested {
                time: 1, // the step it failed to move at
                pkt: PacketId(0)
            }
        );
    }

    #[test]
    fn teleport_detected() {
        let prob = tiny_problem();
        let mut rec = good_record();
        // Second move departs from node 2 instead of node 1.
        rec.moves[1].mv = DirectedEdge::forward(leveled_net::EdgeId(2));
        let err = verify(&prob, &rec, &stats_delivered()).unwrap_err();
        assert!(matches!(err, ReplayError::Teleport { .. }));
    }

    #[test]
    fn bad_injection_detected() {
        let prob = tiny_problem();
        let mut rec = good_record();
        rec.moves[0].mv = DirectedEdge::forward(leveled_net::EdgeId(1));
        let err = verify(&prob, &rec, &stats_delivered()).unwrap_err();
        assert!(matches!(err, ReplayError::BadInjection { .. }));
    }

    #[test]
    fn delivery_mismatch_detected() {
        let prob = tiny_problem();
        let mut stats = stats_delivered();
        stats.delivered_at[0] = None; // stats claim undelivered
        let err = verify(&prob, &good_record(), &stats).unwrap_err();
        assert!(matches!(err, ReplayError::DeliveryMismatch { .. }));
    }

    #[test]
    fn capacity_violation_detected() {
        // Two packets over the same slot at the same step.
        let net = Arc::new(builders::linear_array(4));
        let p0 = Path::from_nodes(&net, &[NodeId(0), NodeId(1)]).unwrap();
        let p1 = Path::from_nodes(&net, &[NodeId(1), NodeId(2)]).unwrap();
        let prob = RoutingProblem::new(net, vec![p0, p1]).unwrap();
        let rec = RunRecord {
            moves: vec![
                MoveEvent {
                    time: 0,
                    pkt: PacketId(0),
                    mv: DirectedEdge::forward(leveled_net::EdgeId(0)),
                    kind: ExitKind::Inject,
                },
                MoveEvent {
                    time: 0,
                    pkt: PacketId(1),
                    mv: DirectedEdge::forward(leveled_net::EdgeId(0)),
                    kind: ExitKind::Inject,
                },
            ],
            trivial: vec![],
        };
        let mut stats = RouteStats::new(2);
        stats.delivered_at = vec![Some(1), Some(1)];
        let err = verify(&prob, &rec, &stats).unwrap_err();
        assert!(matches!(err, ReplayError::CapacityViolation { .. }));
        // ... even though packet 1's injection itself is invalid too; the
        // slot check fires first by construction.
    }

    #[test]
    fn moving_twice_in_one_step_detected() {
        // One packet on two different slots in the same step: no slot is
        // reused, so this is a double move, not a capacity clash.
        let prob = tiny_problem();
        let mut rec = good_record();
        rec.moves[1].time = 0;
        let err = verify(&prob, &rec, &stats_delivered()).unwrap_err();
        assert_eq!(
            err,
            ReplayError::MovedTwice {
                time: 0,
                pkt: PacketId(0)
            }
        );
        assert_eq!(err.to_string(), "t=0: p0 moved twice in one step");
    }

    /// Routes every packet of `prob` from step 0 with a record riding
    /// beside another observer; returns the record and the run's stats.
    fn observed_run(prob: RoutingProblem) -> (Arc<RoutingProblem>, RunRecord, RouteStats) {
        use rand::SeedableRng;
        let prob = Arc::new(prob);
        let schedule = vec![0; prob.num_packets()];
        let cfg = crate::StreamingConfig::default();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut observer = (RunRecord::default(), crate::NoopObserver);
        let out = crate::route_streaming_observed(&prob, &schedule, &cfg, &mut rng, &mut observer);
        (prob, observer.0, out.stats)
    }

    #[test]
    fn record_observer_logs_moves_and_trivial_deliveries() {
        let (prob, rec, stats) = observed_run(tiny_problem());
        assert_eq!(rec.moves, good_record().moves);
        assert!(rec.trivial.is_empty());
        assert_eq!(verify(&prob, &rec, &stats).unwrap().moves, 2);

        let net = Arc::new(builders::linear_array(2));
        let trivial = RoutingProblem::new(net, vec![Path::trivial(NodeId(1))]).unwrap();
        let (prob, rec, stats) = observed_run(trivial);
        assert!(rec.moves.is_empty());
        assert_eq!(
            rec.trivial,
            vec![TrivialDelivery {
                time: 0,
                pkt: PacketId(0)
            }]
        );
        assert_eq!(verify(&prob, &rec, &stats).unwrap().delivered, 1);
    }

    #[test]
    fn out_of_order_detected() {
        let prob = tiny_problem();
        let mut rec = good_record();
        rec.moves.swap(0, 1);
        let err = verify(&prob, &rec, &stats_delivered()).unwrap_err();
        assert!(matches!(err, ReplayError::OutOfOrder { .. }));
    }

    #[test]
    fn level_occupancy_tracks_the_walk() {
        let prob = tiny_problem();
        let rows = super::level_occupancy(&prob, &good_record());
        // Steps 0 and 1; after step 0 the packet sits at level 1, after
        // step 1 it is absorbed at its destination (level 2).
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![0, 1, 0, 0]);
        assert_eq!(rows[1], vec![0, 0, 0, 0]);
    }

    #[test]
    fn trivial_deliveries_counted() {
        let net = Arc::new(builders::linear_array(2));
        let prob = RoutingProblem::new(Arc::clone(&net), vec![Path::trivial(NodeId(1))]).unwrap();
        let rec = RunRecord {
            moves: vec![],
            trivial: vec![TrivialDelivery {
                time: 0,
                pkt: PacketId(0),
            }],
        };
        let mut stats = RouteStats::new(1);
        stats.delivered_at[0] = Some(0);
        let rep = verify(&prob, &rec, &stats).unwrap();
        assert_eq!(rep.delivered, 1);
        assert_eq!(rep.moves, 0);
    }
}
