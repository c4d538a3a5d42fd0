//! Pins what Busch's router leaves behind across its quiet windows:
//! stretches where every packet in flight is a waiter oscillating on its
//! arrival edge. The driver may advance such a window without grinding
//! it step by step, but only if every decision, every rng word and every
//! counter comes out as the grinding loop's. So each run below pins its
//! step count, counters, invariant report, a digest of the per-packet
//! statistics, and the rng's next word after the route.
//!
//! Each run is routed twice: once into an observer that sees every move
//! (it counts the quiet steps, which pins that the run has windows to
//! jump), once into [`NoopObserver`]. Both must land on the same pins.

use hotpotato_sim::{
    AdmissionControl, DirectedEdge, ExitKind, NoopObserver, RouteObserver, RouteStats, StepReport,
    StreamingConfig, Time,
};
use rand::RngCore;
use routing_core::spec::parse_run_spec;
use serve::service::RunPlan;

/// Counts the steps whose every move is a wait-state oscillation.
#[derive(Default)]
struct QuietSteps {
    moves: u64,
    oscillations: u64,
    step_has_other: bool,
    step_moves: u64,
    quiet: u64,
}

impl RouteObserver for QuietSteps {
    fn on_move(&mut self, _t: Time, _pkt: u32, _mv: DirectedEdge, kind: ExitKind) {
        self.moves += 1;
        self.step_moves += 1;
        if kind == ExitKind::Oscillate {
            self.oscillations += 1;
        } else {
            self.step_has_other = true;
        }
    }

    fn on_step_end(&mut self, _t: Time, _report: &StepReport, _active: usize) {
        if self.step_moves > 0 && !self.step_has_other {
            self.quiet += 1;
        }
        self.step_moves = 0;
        self.step_has_other = false;
    }
}

/// FNV-1a over the per-packet statistics (`None` hashes as `u64::MAX`).
fn digest(stats: &RouteStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..stats.injected_at.len() {
        eat(stats.injected_at[i].unwrap_or(u64::MAX));
        eat(stats.delivered_at[i].unwrap_or(u64::MAX));
        eat(u64::from(stats.deflections[i]));
        eat(u64::from(stats.max_deviation[i]));
    }
    h
}

/// What one run pins.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    steps_run: u64,
    /// `moves`, `excitations`, `injection_retries`, `phases`.
    counters: [u64; 4],
    /// `InvariantReport`, field by field: isolation, unsafe deflections,
    /// invalid current paths, frame escapes, cross-set meetings,
    /// congestion exceeded, rear levels occupied, phase checks.
    invariants: [u64; 8],
    digest: u64,
    next_word: u64,
}

fn route<O: RouteObserver>(spec: &str, observer: &mut O) -> Pins {
    let run = parse_run_spec(spec).unwrap();
    let (_, problem, mut rng) = run.instantiate().unwrap();
    let max_steps = StreamingConfig::default().max_steps;
    let plan = RunPlan::new(&run, &problem, AdmissionControl::default(), max_steps).unwrap();
    let stats = plan.route(&problem, &mut rng, observer).into_stats();
    assert!(stats.all_delivered(), "{spec}");
    let c = |k: &str| stats.counter(k);
    Pins {
        steps_run: stats.steps_run,
        counters: [
            c("moves"),
            c("excitations"),
            c("injection_retries"),
            c("phases"),
        ],
        invariants: [
            c("inv_isolation_violations"),
            c("inv_unsafe_deflections"),
            c("inv_invalid_current_paths"),
            c("inv_frame_escapes"),
            c("inv_cross_set_meetings"),
            c("inv_congestion_exceeded"),
            c("inv_rear_levels_occupied"),
            c("inv_phase_checks"),
        ],
        digest: digest(&stats),
        next_word: rng.next_u64(),
    }
}

/// `(steps_run, counters, invariants, digest, next_word)` as [`Pins`].
fn pins(
    steps_run: u64,
    counters: [u64; 4],
    invariants: [u64; 8],
    digest: u64,
    next_word: u64,
) -> Pins {
    Pins {
        steps_run,
        counters,
        invariants,
        digest,
        next_word,
    }
}

#[test]
fn quiet_windows_leave_the_grinding_loops_state() {
    // (spec, quiet steps, pins); the shuffle-exchange and tree specs put
    // waiters on nodes of other degrees than the butterfly's and mesh's.
    let cases = [
        (
            "bf:8/bitrev/busch/7",
            1536,
            pins(
                16388,
                [131646, 893, 0, 32],
                [0, 0, 0, 0, 0, 0, 0, 32],
                15429665689711450125,
                6405457137913711830,
            ),
        ),
        (
            "bf:10/bitrev/busch/1",
            5036,
            pins(
                64004,
                [820234, 2040, 0, 80],
                [0, 0, 0, 0, 0, 0, 0, 80],
                16009718306226622820,
                14143718021941835790,
            ),
        ),
        (
            "bf:10/bitrev/busch/2",
            5036,
            pins(
                64004,
                [820260, 2279, 0, 80],
                [0, 0, 0, 0, 0, 0, 0, 80],
                1498802014407827653,
                17062859992918847106,
            ),
        ),
        (
            "bf:6/bitrev/busch/4",
            236,
            pins(
                3462,
                [17450, 466, 0, 12],
                [0, 0, 0, 0, 0, 0, 1, 12],
                14214835443405875538,
                9713019505479700522,
            ),
        ),
        (
            "mesh:16x16/transpose/busch/1",
            23242,
            pins(
                28225,
                [55402, 76, 0, 72],
                [0, 0, 0, 0, 0, 0, 0, 72],
                5580778724682167442,
                3277361315778500927,
            ),
        ),
        (
            "shuffle:6/blast:0:6/busch/1",
            283,
            pins(
                1730,
                [18560, 61, 0, 6],
                [0, 0, 0, 0, 0, 0, 0, 6],
                7437437252379709861,
                2800577090091588750,
            ),
        ),
        (
            "tree:6/hotspot:8:2/busch/1",
            628,
            pins(
                1537,
                [782, 7, 0, 12],
                [0, 0, 0, 0, 0, 0, 0, 12],
                15494879054402634768,
                2162552332397038539,
            ),
        ),
    ];
    for (spec, quiet, want) in cases {
        let mut seen = QuietSteps::default();
        let got = route(spec, &mut seen);
        assert_eq!(seen.moves, got.counters[0], "{spec}: moves seen");
        assert_eq!(seen.quiet, quiet, "{spec}: quiet steps");
        assert_eq!(got, want, "{spec}");
        assert_eq!(route(spec, &mut NoopObserver), want, "{spec}: unobserved");
    }
}
