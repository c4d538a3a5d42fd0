//! The premise behind Busch's cheap oscillations: a wait-state
//! oscillation is always the reverse of the same packet's previous move.
//! The dispatch stages `last_move ^ 1` for a wait packet and the engine
//! takes an oscillation's target from the node the last move left, so
//! both are exact only while this holds. The oscillation counts pin how
//! much of a reference run is wait-state work.

use hotpotato_sim::{
    AdmissionControl, DirectedEdge, ExitKind, RouteObserver, StreamingConfig, Time,
};
use routing_core::spec::parse_run_spec;
use serve::service::RunPlan;

/// Checks every oscillation against the packet's previous move.
struct ReversalCheck {
    last: Vec<Option<DirectedEdge>>,
    moves: u64,
    oscillations: u64,
}

impl RouteObserver for ReversalCheck {
    fn on_move(&mut self, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
        let last = &mut self.last[pkt as usize];
        if kind == ExitKind::Oscillate {
            assert_eq!(
                Some(mv),
                last.map(DirectedEdge::reversed),
                "t={t}: packet {pkt} oscillated without reversing its last move"
            );
            self.oscillations += 1;
        }
        *last = Some(mv);
        self.moves += 1;
    }
}

#[test]
fn every_oscillation_reverses_the_packets_last_move() {
    for (spec, moves, oscillations) in [
        ("bf:8/bitrev/busch/7", 131_646, 123_364),
        ("mesh:16x16/transpose/busch/1", 55_402, 54_936),
    ] {
        let run = parse_run_spec(spec).unwrap();
        let (_, problem, mut rng) = run.instantiate().unwrap();
        let max_steps = StreamingConfig::default().max_steps;
        let plan = RunPlan::new(&run, &problem, AdmissionControl::default(), max_steps).unwrap();
        let mut check = ReversalCheck {
            last: vec![None; problem.num_packets()],
            moves: 0,
            oscillations: 0,
        };
        let stats = plan.route(&problem, &mut rng, &mut check).into_stats();
        assert!(stats.all_delivered(), "{spec}");
        assert_eq!(
            (check.moves, check.oscillations),
            (moves, oscillations),
            "{spec}"
        );
    }
}
