//! Run recording and independent replay verification.
//!
//! [`replay::Auditor`] re-checks a run against the hot-potato model from
//! scratch, as a fold over the moves the engine emits: attach it as an
//! observer (alone, or beside other sinks as a tuple). It checks that
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
//! A bug in the engine's staging or bookkeeping cannot hide, because the
//! auditor shares no state with it. A [`RunRecord`] keeps every move
//! instead (goldens, [`level_occupancy`]); [`replay::verify`] audits one.

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
        /// An event named a packet or an edge the instance does not have.
        UnknownId {
            /// The step.
            time: Time,
            /// `"packet"` or `"edge"`.
            what: &'static str,
            /// The id named.
            id: usize,
        },
    }

    impl std::fmt::Display for ReplayError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            use ReplayError as E;
            let (time, pkt, what) = match self {
                E::OutOfOrder { at } => return write!(f, "event #{at} out of time order"),
                E::DeliveryMismatch { pkt } => {
                    return write!(f, "{pkt}: record and statistics disagree on delivery")
                }
                E::UnknownId { time, what, id } => {
                    return write!(f, "t={time}: {what} {id} is not in the instance")
                }
                E::Teleport {
                    time,
                    pkt,
                    expected,
                } => {
                    let what = format!("moved from a node it was not at (expected {expected:?})");
                    return write!(f, "t={time}: {pkt} {what}");
                }
                E::MovedTwice { time, pkt } => (time, pkt, "moved twice in one step"),
                E::CapacityViolation { time, pkt } => {
                    (time, pkt, "reused an occupied edge-direction slot")
                }
                E::NotInFlight { time, pkt } => (time, pkt, "moved while not in flight"),
                E::BadInjection { time, pkt } => {
                    (time, pkt, "injected away from its source/first edge")
                }
                E::Rested { time, pkt } => (time, pkt, "rested (hot-potato violation)"),
                E::MovedAfterDelivery { time, pkt } => (time, pkt, "moved after delivery"),
            };
            write!(f, "t={time}: {pkt} {what}")
        }
    }

    impl std::error::Error for ReplayError {}

    /// Aggregate results of a successful replay.
    #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
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

    /// The replay auditor (see the module docs). Feed it a run's moves
    /// and trivial deliveries in emission order, then call
    /// [`Auditor::finish`]. It holds O(packets) state plus the open step,
    /// which a later move closes and checks: ids in range, no double move
    /// or slot reuse, no rested packet, then each move's origin. The first
    /// fault fed is reported, but an out-of-order move voids the step
    /// grouping, so [`ReplayError::OutOfOrder`] outranks faults in moves.
    pub struct Auditor<'p> {
        problem: &'p RoutingProblem,
        pos: Vec<Option<NodeId>>,
        delivered: Vec<bool>,
        /// The step each packet last moved in (`Time::MAX`: never).
        moved_at: Vec<Time>,
        /// Packets with a position.
        in_flight: usize,
        /// The step of the last move fed, and its moves.
        now: Time,
        step: Vec<(PacketId, DirectedEdge, ExitKind)>,
        /// Per (edge, direction) slot, the stamp of the last step that
        /// used it: a slot is taken in the open step iff it holds `stamp`.
        slot_stamp: Vec<u32>,
        /// The stamp of the step being closed; never 0, the fresh value.
        stamp: u32,
        /// Per-packet destination node.
        dest: Vec<NodeId>,
        moves_fed: usize,
        report: ReplayReport,
        /// The first fault, and whether an out-of-order move outranks it.
        fault: Option<(ReplayError, bool)>,
    }

    impl<'p> Auditor<'p> {
        /// An auditor for a run of `problem`, before any event.
        pub fn new(problem: &'p RoutingProblem) -> Self {
            let n = problem.num_packets();
            let net = problem.network();
            Auditor {
                problem,
                pos: vec![None; n],
                delivered: vec![false; n],
                moved_at: vec![Time::MAX; n],
                in_flight: 0,
                now: 0,
                step: Vec::new(),
                slot_stamp: vec![0; 2 * net.num_edges()],
                stamp: 0,
                dest: problem.paths().map(|path| path.dest(net)).collect(),
                moves_fed: 0,
                report: ReplayReport::default(),
                fault: None,
            }
        }

        /// Checks the open step, then that the packets delivered are
        /// exactly those the run statistics' `delivered_at` marks.
        pub fn finish(
            mut self,
            delivered_at: &[Option<Time>],
        ) -> Result<ReplayReport, ReplayError> {
            if let Some((e, _)) = self.fault {
                return Err(e);
            }
            self.close_step(None)?;
            for (i, &was_delivered) in self.delivered.iter().enumerate() {
                if was_delivered != delivered_at.get(i).is_some_and(Option::is_some) {
                    let pkt = PacketId(i as u32);
                    return Err(ReplayError::DeliveryMismatch { pkt });
                }
            }
            self.report.delivered = self.delivered.iter().filter(|&&d| d).count();
            Ok(self.report)
        }

        /// The lowest in-flight packet that has not moved at step `time`.
        fn rested(&self, time: Time) -> ReplayError {
            let i =
                (0..self.pos.len()).find(|&i| self.pos[i].is_some() && self.moved_at[i] != time);
            let pkt = PacketId(i.unwrap_or_default() as u32);
            ReplayError::Rested { time, pkt }
        }

        /// Checks and applies the open step's moves. `next`, the step of
        /// the move closing it, must follow at once while any packet is
        /// in flight: a gap means the packet rested.
        fn close_step(&mut self, next: Option<Time>) -> Result<(), ReplayError> {
            let net = self.problem.network();
            let time = self.now;
            let mut moved_in_flight = 0;
            self.stamp = self.stamp.wrapping_add(1);
            if self.stamp == 0 {
                self.slot_stamp.fill(0);
                self.stamp = 1;
            }
            for &(pkt, mv, _) in &self.step {
                let (i, edge) = (pkt.index(), mv.edge.index());
                if i >= self.pos.len() || edge >= net.num_edges() {
                    let (what, id) = if i >= self.pos.len() {
                        ("packet", i)
                    } else {
                        ("edge", edge)
                    };
                    return Err(ReplayError::UnknownId { time, what, id });
                }
                if self.moved_at[i] == time {
                    return Err(ReplayError::MovedTwice { time, pkt });
                }
                self.moved_at[i] = time;
                let slot = &mut self.slot_stamp[mv.slot_index()];
                if *slot == self.stamp {
                    return Err(ReplayError::CapacityViolation { time, pkt });
                }
                *slot = self.stamp;
                moved_in_flight += usize::from(self.pos[i].is_some());
            }
            // Hot-potato: every packet in flight moves.
            if moved_in_flight < self.in_flight {
                return Err(self.rested(time));
            }

            for &(pkt, mv, kind) in &self.step {
                let i = pkt.index();
                if self.delivered[i] {
                    return Err(ReplayError::MovedAfterDelivery { time, pkt });
                }
                let origin = net.move_origin(mv);
                match (kind, self.pos[i]) {
                    (ExitKind::Inject, None) => {
                        let path = self.problem.path(i);
                        let first = path.edges().first().map(|&e| DirectedEdge::forward(e));
                        if first != Some(mv) || origin != path.source() {
                            return Err(ReplayError::BadInjection { time, pkt });
                        }
                        self.in_flight += 1;
                    }
                    (ExitKind::Inject, _) | (_, None) => {
                        return Err(ReplayError::NotInFlight { time, pkt });
                    }
                    (_, Some(at)) if at != origin => {
                        let expected = Some(at);
                        return Err(ReplayError::Teleport {
                            time,
                            pkt,
                            expected,
                        });
                    }
                    (_, Some(_)) => {}
                }
                let target = net.move_target(mv);
                if target == self.dest[i] {
                    self.delivered[i] = true;
                    self.pos[i] = None;
                    self.in_flight -= 1;
                } else {
                    self.pos[i] = Some(target);
                }
                self.report.moves += 1;
                match mv.dir {
                    leveled_net::Direction::Forward => self.report.forward += 1,
                    leveled_net::Direction::Backward => self.report.backward += 1,
                }
                self.report.last_move_time = time;
            }
            self.step.clear();
            if next.is_some_and(|next| next > time + 1) && self.in_flight > 0 {
                return Err(self.rested(time + 1));
            }
            Ok(())
        }
    }

    impl RouteObserver for Auditor<'_> {
        fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
            if t < self.now && !matches!(self.fault, Some((_, false))) {
                self.fault = Some((ReplayError::OutOfOrder { at: self.moves_fed }, false));
            } else if t > self.now && self.fault.is_none() {
                self.fault = self.close_step(Some(t)).err().map(|e| (e, true));
            }
            self.moves_fed += 1;
            self.now = t;
            if self.fault.is_none() {
                self.step.push((PacketId(pkt), mv, kind));
            }
        }

        fn on_trivial(&mut self, time: Time, pkt: u32) {
            let (id, what, pkt) = (pkt as usize, "packet", PacketId(pkt));
            let fault = if self.fault.is_some() {
                return;
            } else if id >= self.pos.len() {
                ReplayError::UnknownId { time, what, id }
            } else if self.pos[id].is_some() || self.delivered[id] {
                ReplayError::NotInFlight { time, pkt }
            } else if !self.problem.path(id).is_empty() {
                ReplayError::BadInjection { time, pkt }
            } else {
                self.delivered[id] = true;
                return;
            };
            self.fault = Some((fault, false));
        }
    }

    /// Verifies `record` against `problem` and the run's `stats`: feeds
    /// its trivial deliveries, then its moves, to an [`Auditor`].
    pub fn verify(
        problem: &RoutingProblem,
        record: &RunRecord,
        stats: &RouteStats,
    ) -> Result<ReplayReport, ReplayError> {
        let mut auditor = Auditor::new(problem);
        for tr in &record.trivial {
            auditor.on_trivial(tr.time, tr.pkt.0);
        }
        for ev in &record.moves {
            auditor.on_move(ev.time, ev.pkt.0, ev.mv, ev.kind);
        }
        auditor.finish(&stats.delivered_at)
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
    fn ids_outside_the_instance_are_faults() {
        let prob = tiny_problem();
        let unknown = |what, id| ReplayError::UnknownId { time: 0, what, id };
        let mut rec = good_record();
        rec.moves[0].pkt = PacketId(1);
        assert_eq!(
            verify(&prob, &rec, &stats_delivered()),
            Err(unknown("packet", 1))
        );
        let mut rec = good_record();
        rec.moves[0].mv.edge = leveled_net::EdgeId(3);
        assert_eq!(
            verify(&prob, &rec, &stats_delivered()),
            Err(unknown("edge", 3))
        );
        let mut rec = good_record();
        rec.trivial.push(TrivialDelivery {
            time: 0,
            pkt: PacketId(1),
        });
        let err = verify(&prob, &rec, &stats_delivered()).unwrap_err();
        assert_eq!(err, unknown("packet", 1));
        assert_eq!(err.to_string(), "t=0: packet 1 is not in the instance");
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
