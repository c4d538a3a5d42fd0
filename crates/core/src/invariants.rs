//! Runtime checkers for the six correctness invariants of §4.
//!
//! The analysis proves that, under the literal parameters, the following
//! hold at the end of every phase w.h.p.:
//!
//! * `I_a` — packets are injected in isolation;
//! * `I_b` — deflections are backward and safe, current paths are valid;
//! * `I_c` — active packets stay inside their frontier-frame;
//! * `I_d` — packets of different frontier-sets never meet;
//! * `I_e` — frontier-set congestion never exceeds its initial value
//!   (Lemma 4.10: safe deflections recycle edges within a set);
//! * `I_f` — at each phase end, the last three inner levels of every frame
//!   are empty (active packets sit at inner level ≤ m − 4).
//!
//! Under scaled parameters these are *measured*, not assumed: the router
//! increments a counter per violation, and the `T3` experiment reports
//! them across seeds. A clean report means the run behaved exactly as the
//! analysis describes.

use crate::schedule::FrameSchedule;
use hotpotato_sim::{RouteObserver, SoaEngine};
use std::collections::BTreeMap;

/// Machine-checked registry of the bufferless *model* invariants: the
/// per-move / per-step laws every hot-potato trace must obey. These are
/// distinct from the statistical phase invariants `I_a..I_f` above, which
/// hold w.h.p. and are *measured*; the model invariants hold always, by
/// construction of the engine, and the offline trace verifier re-derives
/// each one independently.
///
/// `cargo xtask lint` cross-checks this registry against
/// `crates/trace/src/verify.rs`: every id listed here must appear there as
/// a `// check: <id>` tag on the code that enforces it, so an invariant
/// can never silently drop out of offline verification. Adding an entry
/// here without a matching tagged check fails the lint.
pub const BUFFERLESS_INVARIANTS: &[(&str, &str)] = &[
    (
        "slot-capacity",
        "at most one packet traverses each (edge, direction) slot per step",
    ),
    (
        "no-rest",
        "every in-flight packet moves every step (the hot-potato law)",
    ),
    (
        "locality",
        "every move departs the node the packet actually occupies (no teleports)",
    ),
    (
        "injection-port",
        "each packet injects exactly once, along the first edge of its preselected path",
    ),
    (
        "safe-deflection-recycling",
        "safe deflections go backward over an edge some packet crossed forward the previous step",
    ),
    (
        "absorb-on-arrival",
        "a packet landing on its destination is absorbed before the step closes",
    ),
    (
        "step-counter-consistency",
        "every step line's counters equal the event batch it closes",
    ),
    (
        "admission",
        "streaming injections are admitted arrivals: never before the packet arrived, never after it was dropped",
    ),
    (
        "arrival-before-injection",
        "streaming arrival events are unique, correctly timed, and precede the packet's injection",
    ),
    (
        "drop-discipline",
        "only an arrived, never-injected packet may be dropped, exactly once, in a streaming trace",
    ),
    (
        "snapshot-consistency",
        "every phase-entry snapshot checkpoint equals the state replayed from the event stream at its position",
    ),
];

/// Violation counters for `I_a..I_f` (see module docs). All-zero means the
/// run satisfied every invariant the paper proves w.h.p.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// `I_a`: injections that happened while other packets were present at
    /// the source node.
    pub isolation_violations: u64,
    /// `I_b`: deflections that could not be made backward-and-safe
    /// (resolved by the fallback rule instead).
    pub unsafe_deflections: u64,
    /// `I_b`: packets whose current path failed validation at a phase end.
    pub invalid_current_paths: u64,
    /// `I_c`: (packet, phase-end) pairs found outside their frame.
    pub frame_escapes: u64,
    /// `I_d`: (node, step) occurrences where packets of different
    /// frontier-sets met.
    pub cross_set_meetings: u64,
    /// `I_e`: (set, phase-end) pairs whose current-path congestion
    /// exceeded the set's initial congestion.
    pub congestion_exceeded: u64,
    /// `I_f`: (packet, phase-end) pairs at inner level ≥ m − 3 (the rear
    /// three levels, which must be empty when the frame shifts).
    pub rear_levels_occupied: u64,
    /// Number of phase-end audits performed.
    pub phase_checks: u64,
}

impl serde::Serialize for InvariantReport {
    fn to_json(&self) -> serde::Value {
        serde::Value::object([
            ("isolation_violations", self.isolation_violations.to_json()),
            ("unsafe_deflections", self.unsafe_deflections.to_json()),
            (
                "invalid_current_paths",
                self.invalid_current_paths.to_json(),
            ),
            ("frame_escapes", self.frame_escapes.to_json()),
            ("cross_set_meetings", self.cross_set_meetings.to_json()),
            ("congestion_exceeded", self.congestion_exceeded.to_json()),
            ("rear_levels_occupied", self.rear_levels_occupied.to_json()),
            ("phase_checks", self.phase_checks.to_json()),
        ])
    }
}

impl InvariantReport {
    /// Total violations across all invariants.
    pub fn total_violations(&self) -> u64 {
        self.isolation_violations
            + self.unsafe_deflections
            + self.invalid_current_paths
            + self.frame_escapes
            + self.cross_set_meetings
            + self.congestion_exceeded
            + self.rear_levels_occupied
    }

    /// Whether the run satisfied every invariant.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Folds every field into `counters` under stable `inv_*` names, so
    /// the report can travel inside `RouteStats` through the
    /// algorithm-agnostic [`hotpotato_sim::Router`] interface.
    pub fn fold_into(&self, counters: &mut BTreeMap<&'static str, u64>) {
        counters.insert("inv_isolation_violations", self.isolation_violations);
        counters.insert("inv_unsafe_deflections", self.unsafe_deflections);
        counters.insert("inv_invalid_current_paths", self.invalid_current_paths);
        counters.insert("inv_frame_escapes", self.frame_escapes);
        counters.insert("inv_cross_set_meetings", self.cross_set_meetings);
        counters.insert("inv_congestion_exceeded", self.congestion_exceeded);
        counters.insert("inv_rear_levels_occupied", self.rear_levels_occupied);
        counters.insert("inv_phase_checks", self.phase_checks);
    }

    /// Rebuilds a report from counters written by
    /// [`InvariantReport::fold_into`] (absent keys read as zero).
    pub fn from_counters(counters: &BTreeMap<&'static str, u64>) -> Self {
        let get = |k: &str| counters.get(k).copied().unwrap_or(0);
        InvariantReport {
            isolation_violations: get("inv_isolation_violations"),
            unsafe_deflections: get("inv_unsafe_deflections"),
            invalid_current_paths: get("inv_invalid_current_paths"),
            frame_escapes: get("inv_frame_escapes"),
            cross_set_meetings: get("inv_cross_set_meetings"),
            congestion_exceeded: get("inv_congestion_exceeded"),
            rear_levels_occupied: get("inv_rear_levels_occupied"),
            phase_checks: get("inv_phase_checks"),
        }
    }

    /// One-line summary listing each invariant's violation count.
    pub fn summary(&self) -> String {
        format!(
            "Ia={} Ib(unsafe)={} Ib(paths)={} Ic={} Id={} Ie={} If={} ({} phase checks)",
            self.isolation_violations,
            self.unsafe_deflections,
            self.invalid_current_paths,
            self.frame_escapes,
            self.cross_set_meetings,
            self.congestion_exceeded,
            self.rear_levels_occupied,
            self.phase_checks,
        )
    }
}

/// Reusable buffers for [`check_phase_end`]: a flat per-(set, edge)
/// congestion counter array plus the list of indices touched this check.
/// The counters are zeroed via the touched list, so a check costs O(paths),
/// not O(sets × edges) — and nothing allocates after the first check.
///
/// The auditor also keeps the *pending* packets' congestion
/// incrementally: a packet's preselected path is immutable and the
/// pending population only ever shrinks, so the per-(set, edge) pending
/// counts are maintained by subtracting the paths of packets that left
/// pending since the previous check, instead of re-walking every
/// still-pending path each phase. Per-set pending maxima survive the
/// decrements via a count histogram (`SetMax`).
#[derive(Default)]
pub struct PhaseAuditScratch {
    /// Counter for (set, edge) at index `set * num_edges + edge`.
    counts: Vec<u32>,
    /// Indices of `counts` with a non-zero value.
    touched: Vec<u32>,
    /// Pending-path congestion per (set, edge), same indexing as
    /// `counts`; exact for the packets in `pending_members`.
    pending_counts: Vec<u32>,
    /// Packets whose preselected paths are summed into `pending_counts`.
    pending_members: Vec<u32>,
    /// Per-packet membership scratch for diffing the pending population.
    pending_flag: Vec<bool>,
    /// Per-set decrement-friendly maximum over `pending_counts`.
    set_max: Vec<SetMax>,
    /// Whether the incremental pending state has been seeded.
    pending_seeded: bool,
}

/// Maximum of a multiset of counters under increments and decrements:
/// a histogram over values ≥ 1 plus a lazily-walked current max.
#[derive(Default)]
struct SetMax {
    /// `hist[c]` = number of counters currently equal to `c` (c ≥ 1;
    /// zero-valued counters are untracked).
    hist: Vec<u32>,
    /// Largest value with a non-zero histogram entry (0 if none).
    max: u32,
}

impl SetMax {
    /// Records a counter moving from `c - 1` to `c`.
    fn inc(&mut self, c: u32) {
        if self.hist.len() <= c as usize {
            self.hist.resize(c as usize + 1, 0);
        }
        if c > 1 {
            self.hist[c as usize - 1] -= 1;
        }
        self.hist[c as usize] += 1;
        self.max = self.max.max(c);
    }

    /// Records a counter moving from `c` to `c - 1`.
    fn dec(&mut self, c: u32) {
        self.hist[c as usize] -= 1;
        if c > 1 {
            self.hist[c as usize - 1] += 1;
        }
        while self.max > 0 && self.hist[self.max as usize] == 0 {
            self.max -= 1;
        }
    }
}

impl PhaseAuditScratch {
    fn reserve(&mut self, num_sets: usize, num_edges: usize) {
        let want = num_sets * num_edges;
        if self.counts.len() < want {
            self.counts.resize(want, 0);
        }
        debug_assert!(self.touched.is_empty());
    }

    #[inline]
    fn bump(&mut self, set: u32, num_edges: usize, edge: u32) {
        let i = set as usize * num_edges + edge as usize;
        if self.counts[i] == 0 {
            self.touched.push(i as u32);
        }
        self.counts[i] += 1;
    }
}

/// Runs the phase-end audits (`I_b` path validity, `I_c`, `I_e`, `I_f`)
/// for the phase that just ended, updating `report`; returns the measured
/// per-set congestion (the `I_e` subject, which observers consume as the
/// Lemma 2.2 watermark source). `O(N·L)`, reading the engine's layout
/// directly (the problem's path arena, the engine's deviation stacks).
///
/// Congestion counts active packets by their current paths and pending
/// packets by their preselected paths, as in the paper's definition
/// (§2.4); the initial per-set values are
/// [`routing_core::RoutingProblem::per_set_congestion`].
///
/// `effective_level` maps a packet index and its actual level to the level
/// used for the `I_f` rear-emptiness check: the router passes the *target*
/// endpoint of a wait packet's oscillation edge, since the paper treats an
/// oscillating packet as sitting at its target node (the oscillation
/// parity at the exact phase boundary is immaterial to the analysis).
/// The outcome goldens pin the reports on fixed runs.
#[allow(clippy::too_many_arguments)]
pub fn check_phase_end<O: RouteObserver>(
    sim: &SoaEngine<O>,
    schedule: &FrameSchedule,
    sets: &[u32],
    phase: u64,
    initial_per_set: &[u32],
    effective_level: impl Fn(u32, leveled_net::Level) -> leveled_net::Level,
    scratch: &mut PhaseAuditScratch,
    report: &mut InvariantReport,
) -> Vec<u32> {
    report.phase_checks += 1;
    let net = sim.net();
    let num_edges = net.num_edges();
    let sh = sim.shared();
    let arena_edges = sh.problem.arena().edges();
    scratch.reserve(initial_per_set.len().max(1), num_edges);

    for &idx in sim.active_slice() {
        let set = sets[idx as usize];

        // I_b + I_e, one walk: validate the current path as a forward
        // path while bumping each of its edges into the congestion
        // counts (the same checks `validate_current_path` performs,
        // fused with the `current_path_edges` traversal).
        let f = &sh.flight[idx as usize];
        let mut at = f.node;
        let mut valid = true;
        let mut cur = f.dev_head;
        while cur != hotpotato_sim::NO_MOVE {
            let mv = sh.dev_mv[cur as usize];
            // Backward moves cannot appear in a current path.
            valid &= mv & 1 == 0;
            let e = net.edge(leveled_net::EdgeId(mv >> 1));
            valid &= e.tail.0 == at;
            at = e.head.0;
            scratch.bump(set, num_edges, mv >> 1);
            cur = sh.dev_next[cur as usize];
        }
        for &e in &arena_edges[f.path_next as usize..f.path_end as usize] {
            let edge = net.edge(e);
            valid &= edge.tail.0 == at;
            at = edge.head.0;
            scratch.bump(set, num_edges, e.0);
        }
        debug_assert_eq!(valid, sh.validate_current_path(net, idx));
        if !valid {
            report.invalid_current_paths += 1;
        }

        // I_c: inside the frame.
        let level = net.level(leveled_net::NodeId(f.node));
        if !schedule.contains(set, phase, level) {
            report.frame_escapes += 1;
        } else if let Some(inner) = schedule.inner_level(set, phase, effective_level(idx, level)) {
            // I_f: rear three inner levels empty at phase end.
            if inner + 3 >= schedule.m {
                report.rear_levels_occupied += 1;
            }
        }
    }
    // Pending packets count by their preselected paths. Maintained
    // incrementally: paths are immutable and the pending population only
    // shrinks, so subtract the paths of packets that left pending since
    // the last check rather than re-walking every still-pending path.
    let path_edges = |p: u32| sh.problem.path(p as usize).edges().iter().map(|e| e.0);
    if !scratch.pending_seeded {
        scratch.pending_seeded = true;
        scratch.pending_counts.resize(scratch.counts.len(), 0);
        scratch.pending_flag.resize(sets.len(), false);
        scratch
            .set_max
            .resize_with(initial_per_set.len(), SetMax::default);
        for &p in sim.pending_slice() {
            scratch.pending_members.push(p);
            for e in path_edges(p) {
                let i = sets[p as usize] as usize * num_edges + e as usize;
                scratch.pending_counts[i] += 1;
                let c = scratch.pending_counts[i];
                scratch.set_max[sets[p as usize] as usize].inc(c);
            }
        }
    } else {
        for &p in sim.pending_slice() {
            scratch.pending_flag[p as usize] = true;
        }
        let mut kept = 0;
        for m in 0..scratch.pending_members.len() {
            let p = scratch.pending_members[m];
            if scratch.pending_flag[p as usize] {
                scratch.pending_members[kept] = p;
                kept += 1;
                continue;
            }
            for e in path_edges(p) {
                let i = sets[p as usize] as usize * num_edges + e as usize;
                let c = scratch.pending_counts[i];
                scratch.pending_counts[i] = c - 1;
                scratch.set_max[sets[p as usize] as usize].dec(c);
            }
        }
        scratch.pending_members.truncate(kept);
        for &p in sim.pending_slice() {
            scratch.pending_flag[p as usize] = false;
        }
    }

    // I_e: per-set congestion must not exceed its initial value. The
    // combined (pending + active) max per set is the larger of the
    // pending-only max and the combined value on the edges active
    // packets touched: on the pending argmax edge the combined count is
    // at least the pending max, and every other edge either has no
    // active contribution (≤ pending max) or is in the touched list.
    let mut per_set_max: Vec<u32> = scratch.set_max.iter().map(|m| m.max).collect();
    for &i in &scratch.touched {
        let s = i as usize / num_edges;
        let combined = scratch.counts[i as usize] + scratch.pending_counts[i as usize];
        per_set_max[s] = per_set_max[s].max(combined);
        scratch.counts[i as usize] = 0;
    }
    scratch.touched.clear();
    for (&now_max, &init) in per_set_max.iter().zip(initial_per_set) {
        if now_max > init {
            report.congestion_exceeded += 1;
        }
    }
    per_set_max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bufferless_registry_ids_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (id, desc) in BUFFERLESS_INVARIANTS {
            assert!(
                !id.is_empty() && id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "invariant id '{id}' must be non-empty kebab-case"
            );
            assert!(!desc.is_empty(), "invariant '{id}' needs a description");
            assert!(seen.insert(id), "duplicate invariant id '{id}'");
        }
        assert_eq!(BUFFERLESS_INVARIANTS.len(), 11);
    }

    #[test]
    fn empty_report_is_clean() {
        let r = InvariantReport::default();
        assert!(r.is_clean());
        assert_eq!(r.total_violations(), 0);
        assert!(r.summary().contains("Ia=0"));
    }

    #[test]
    fn counters_round_trip() {
        let r = InvariantReport {
            isolation_violations: 1,
            unsafe_deflections: 2,
            invalid_current_paths: 3,
            frame_escapes: 4,
            cross_set_meetings: 5,
            congestion_exceeded: 6,
            rear_levels_occupied: 7,
            phase_checks: 100,
        };
        let mut counters = BTreeMap::new();
        r.fold_into(&mut counters);
        assert_eq!(InvariantReport::from_counters(&counters), r);
        assert_eq!(
            InvariantReport::from_counters(&BTreeMap::new()),
            InvariantReport::default()
        );
    }

    #[test]
    fn totals_add_up() {
        let r = InvariantReport {
            isolation_violations: 1,
            unsafe_deflections: 2,
            invalid_current_paths: 3,
            frame_escapes: 4,
            cross_set_meetings: 5,
            congestion_exceeded: 6,
            rear_levels_occupied: 7,
            phase_checks: 100,
        };
        assert_eq!(r.total_violations(), 28);
        assert!(!r.is_clean());
    }
}
