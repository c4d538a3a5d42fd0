//! Per-packet timelines and causal deflection-chain attribution.
//!
//! The hot-potato model makes per-packet latency *exactly decomposable*:
//! an in-flight packet moves every step, so
//!
//! ```text
//! delivered_at − injected_at  =  advances + deflections + oscillations
//! ```
//!
//! [`build_timelines`] reconstructs that anatomy for every packet from
//! the move stream alone. [`attribute_chains`] goes one step further:
//! a *safe* deflection (Lemma 2.1) sends the loser backward over an edge
//! recycled from an **arrival** — an edge some packet crossed forward in
//! the previous step to reach the contested node. When that packet is a
//! different one, it is the deflection's attributable proximate cause,
//! and if it was itself recently deflected, causes chain. (Losers that
//! bounce back over their *own* arrival edge are attribution roots: the
//! trace does not record which winner beat them.) The chain report
//! surfaces how deep those causal chains run — the empirical face of
//! delay-sequence arguments.
//!
//! Both read the events once, and [`crate::analyze::Analyzer`] applies
//! the same two per-event rules inside its own single pass.

use crate::schema::{Trace, TraceEvent};
use hotpotato_sim::{ExitKind, Time};
use leveled_net::Direction;
use std::collections::HashMap;

/// Latency anatomy of one packet, reconstructed from the move stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketTimeline {
    /// Step of the injection move (`None` = never injected).
    pub injected_at: Option<Time>,
    /// Arrival time (staging step of the final move + 1).
    pub delivered_at: Option<Time>,
    /// Delivered trivially (source == destination, no moves).
    pub trivial: bool,
    /// Total moves (injection included).
    pub moves: u32,
    /// Forward path progress: injection + advance moves.
    pub advances: u32,
    /// Deflections suffered (safe + fallback).
    pub deflections: u32,
    /// Safe (backward edge-recycling) deflections.
    pub safe_deflections: u32,
    /// Wait-state oscillation moves.
    pub oscillations: u32,
    /// Length of the final run of uninterrupted forward progress ending
    /// in delivery (the "home-run segment"), 0 if undelivered.
    pub home_run: u32,
}

impl PacketTimeline {
    /// Delivery minus injection step, when the packet has both. A trivial
    /// delivery reads `Some(0)`: in-flight latency statistics skip
    /// packets with `trivial` set.
    pub fn latency(&self) -> Option<Time> {
        match (self.injected_at, self.delivered_at) {
            (Some(i), Some(d)) => Some(d - i),
            _ => None,
        }
    }
}

/// The per-event timeline rule: folds events into one [`PacketTimeline`]
/// per packet in `0..timelines.len()`. Events naming a packet outside
/// that range are ignored; [`TimelineFold::grow`] widens it.
#[derive(Clone, Debug, Default)]
pub(crate) struct TimelineFold {
    pub(crate) timelines: Vec<PacketTimeline>,
    /// Trailing forward-run length per packet, reset by any disruption.
    run: Vec<u32>,
}

impl TimelineFold {
    /// Widens the fold to packets `0..n` (never narrows it).
    pub(crate) fn grow(&mut self, n: usize) {
        if n > self.timelines.len() {
            self.timelines.resize(n, PacketTimeline::default());
            self.run.resize(n, 0);
        }
    }

    /// Applies one event.
    pub(crate) fn push(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Move { t, pkt, kind, .. } => {
                let i = pkt as usize;
                let (Some(p), Some(run)) = (self.timelines.get_mut(i), self.run.get_mut(i)) else {
                    return;
                };
                p.moves += 1;
                match kind {
                    ExitKind::Inject => {
                        p.injected_at = Some(t);
                        p.advances += 1;
                        *run += 1;
                    }
                    ExitKind::Advance => {
                        p.advances += 1;
                        *run += 1;
                    }
                    ExitKind::Deflect { safe } => {
                        p.deflections += 1;
                        if safe {
                            p.safe_deflections += 1;
                        }
                        *run = 0;
                    }
                    ExitKind::Oscillate => {
                        p.oscillations += 1;
                        *run = 0;
                    }
                }
            }
            TraceEvent::Trivial { t, pkt } => {
                if let Some(p) = self.timelines.get_mut(pkt as usize) {
                    p.trivial = true;
                    p.injected_at = Some(t);
                    p.delivered_at = Some(t);
                }
            }
            TraceEvent::Deliver { t, pkt } => {
                let i = pkt as usize;
                if let (Some(p), Some(&run)) = (self.timelines.get_mut(i), self.run.get(i)) {
                    p.delivered_at = Some(t);
                    p.home_run = run;
                }
            }
            _ => {}
        }
    }
}

/// Builds one [`PacketTimeline`] per packet (`n` from the caller, so the
/// result covers packets the trace never mentions), in one pass.
pub fn build_timelines(trace: &Trace, n: usize) -> Vec<PacketTimeline> {
    let mut fold = TimelineFold::default();
    fold.grow(n);
    for ev in &trace.events {
        fold.push(ev);
    }
    fold.timelines
}

/// One attributed deflection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainLink {
    /// The deflected packet.
    pub pkt: u32,
    /// The step of the deflection.
    pub t: Time,
    /// The packet whose forward crossing recycled the edge (safe
    /// deflections only).
    pub caused_by: Option<u32>,
    /// Causal chain depth: 1 for a root (no attributable earlier cause),
    /// `1 + depth(parent)` when the causer was itself deflected earlier.
    pub depth: u32,
}

/// Aggregate deflection-chain report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainReport {
    /// All deflections, in trace order, with attribution.
    pub links: Vec<ChainLink>,
    /// Deflections with no attributable cause (fallback deflections, or
    /// safe deflections whose causer was never deflected before).
    pub roots: u64,
    /// Deepest causal chain observed.
    pub max_depth: u32,
    /// `(depth, count)` histogram, ascending by depth.
    pub depth_histogram: Vec<(u32, u64)>,
    /// One witness of a deepest chain, oldest cause first: `(pkt, t)`.
    pub longest_chain: Vec<(u32, Time)>,
}

/// The chain attribution rule, one event at a time. It relies on the
/// chronological order the engine writes (every move of step `t − 1`
/// before any move of step `t`): a deflection at `t` then needs only the
/// forward crossings of step `t − 1` and its causer's latest deflection
/// before `t`. So the fold keeps the crossings of the current and the
/// previous step, and each packet's last two deflections (a causer may
/// already have been deflected at `t` itself).
#[derive(Clone, Debug, Default)]
pub(crate) struct ChainFold {
    /// Deflections in trace (= chronological) order.
    links: Vec<ChainLink>,
    /// Parent link index per link (for witness extraction).
    parent: Vec<Option<usize>>,
    /// Per packet: its two latest deflections, newest first, as indices
    /// into `links`.
    recent: Vec<[Option<usize>; 2]>,
    /// The step `crossed` holds.
    now: Time,
    /// Edge -> packet that crossed it forward at `now` (the last one, when
    /// two share a step and edge).
    crossed: HashMap<u32, u32>,
    /// The same for step `now − 1`.
    crossed_before: HashMap<u32, u32>,
}

impl ChainFold {
    /// The packet that crossed `edge` forward at step `t`, if the fold
    /// still holds that step.
    fn crosser(&self, t: Time, edge: u32) -> Option<u32> {
        if t == self.now {
            self.crossed.get(&edge).copied()
        } else if Some(t) == self.now.checked_sub(1) {
            self.crossed_before.get(&edge).copied()
        } else {
            None
        }
    }

    /// Applies one event.
    pub(crate) fn push(&mut self, ev: &TraceEvent) {
        let TraceEvent::Move {
            t,
            pkt,
            edge,
            dir,
            kind,
        } = *ev
        else {
            return;
        };
        if let ExitKind::Deflect { safe } = kind {
            // Safe deflections recycle an arrival edge: whoever crossed
            // it forward in the previous step (if not the loser itself,
            // going back where it came from) is the attributable cause.
            let caused_by = if safe && dir == Direction::Backward && t > 0 {
                self.crosser(t - 1, edge.0).filter(|&c| c != pkt)
            } else {
                None
            };
            // Latest deflection of the causer strictly before t.
            let par = caused_by
                .and_then(|c| self.recent.get(c as usize))
                .and_then(|own| {
                    own.iter()
                        .flatten()
                        .copied()
                        .find(|&i| self.links.get(i).is_some_and(|l| l.t < t))
                });
            let depth = par
                .and_then(|i| self.links.get(i))
                .map_or(1, |l| l.depth + 1);
            let idx = self.links.len();
            self.links.push(ChainLink {
                pkt,
                t,
                caused_by,
                depth,
            });
            self.parent.push(par);
            let i = pkt as usize;
            if i >= self.recent.len() {
                self.recent.resize(i + 1, [None; 2]);
            }
            if let Some([newest, older]) = self.recent.get_mut(i) {
                *older = newest.replace(idx);
            }
        }
        if dir == Direction::Forward {
            if t != self.now {
                // A new step: the current crossings become the previous
                // step's, unless a step without forward moves came between.
                if t.checked_sub(1) == Some(self.now) {
                    std::mem::swap(&mut self.crossed, &mut self.crossed_before);
                } else {
                    self.crossed_before.clear();
                }
                self.crossed.clear();
                self.now = t;
            }
            self.crossed.insert(edge.0, pkt);
        }
    }

    /// Depth histogram, roots and the longest-chain witness.
    pub(crate) fn finish(self) -> ChainReport {
        let mut report = ChainReport::default();
        let mut hist: HashMap<u32, u64> = HashMap::new();
        let mut deepest: Option<usize> = None;
        for (i, link) in self.links.iter().enumerate() {
            if link.depth == 1 {
                report.roots += 1;
            }
            *hist.entry(link.depth).or_insert(0) += 1;
            if link.depth > report.max_depth {
                report.max_depth = link.depth;
                deepest = Some(i);
            }
        }
        let mut depth_histogram: Vec<(u32, u64)> = hist.into_iter().collect();
        depth_histogram.sort_unstable();
        report.depth_histogram = depth_histogram;
        // Witness: walk parents from the deepest link back to its root.
        let mut chain = Vec::new();
        let mut cursor = deepest;
        while let Some(i) = cursor {
            chain.push((self.links[i].pkt, self.links[i].t));
            cursor = self.parent[i];
        }
        chain.reverse();
        report.longest_chain = chain;
        report.links = self.links;
        report
    }
}

/// Attributes every deflection in the trace to its proximate cause and
/// computes causal chain depths (see the module docs), in one pass.
pub fn attribute_chains(trace: &Trace) -> ChainReport {
    let mut fold = ChainFold::default();
    for ev in &trace.events {
        fold.push(ev);
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Trace;

    fn mv(t: Time, pkt: u32, edge: u32, dir: &str, kind: &str) -> String {
        format!(
            r#"{{"ev":"move","t":{t},"pkt":{pkt},"edge":{edge},"dir":"{dir}","kind":"{kind}"}}"#
        )
    }

    #[test]
    fn timeline_anatomy_and_home_run() {
        let lines = [
            mv(0, 0, 0, "F", "inj"),
            mv(1, 0, 1, "F", "adv"),
            mv(2, 0, 1, "B", "def-safe"),
            mv(3, 0, 1, "F", "adv"),
            mv(4, 0, 2, "F", "adv"),
            r#"{"ev":"deliver","t":5,"pkt":0}"#.to_string(),
        ];
        let trace = Trace::parse(&(lines.join("\n") + "\n")).unwrap();
        let tl = build_timelines(&trace, 1);
        let p = &tl[0];
        assert_eq!(p.injected_at, Some(0));
        assert_eq!(p.delivered_at, Some(5));
        assert_eq!(p.latency(), Some(5));
        assert_eq!(p.moves, 5);
        assert_eq!(p.advances, 4);
        assert_eq!(p.deflections, 1);
        assert_eq!(p.oscillations, 0);
        // Latency identity: 5 = 4 advances + 1 deflection.
        assert_eq!(p.moves, p.advances + p.deflections + p.oscillations);
        // Final uninterrupted forward run: the two advances after the
        // deflection.
        assert_eq!(p.home_run, 2);
    }

    #[test]
    fn chains_attribute_safe_deflections_to_forward_crossers() {
        // t=0: pkt 0 arrives forward over edge 4.
        // t=1: pkt 1 deflected backward over pkt 0's arrival edge
        //      (root, depth 1, caused by pkt 0).
        // t=3: pkt 1 arrives forward over edge 7.
        // t=4: pkt 2 deflected backward over it — pkt 1 was itself
        //      deflected at t=1, so this chains to depth 2.
        // t=5: pkt 3 fallback-deflected (no cause, depth 1).
        let lines = [
            mv(0, 0, 4, "F", "adv"),
            mv(1, 1, 4, "B", "def-safe"),
            mv(3, 1, 7, "F", "adv"),
            mv(4, 2, 7, "B", "def-safe"),
            mv(5, 3, 9, "B", "def-free"),
        ];
        let trace = Trace::parse(&(lines.join("\n") + "\n")).unwrap();
        let rep = attribute_chains(&trace);
        assert_eq!(rep.links.len(), 3);
        assert_eq!(
            rep.links[0],
            ChainLink {
                pkt: 1,
                t: 1,
                caused_by: Some(0),
                depth: 1
            }
        );
        assert_eq!(
            rep.links[1],
            ChainLink {
                pkt: 2,
                t: 4,
                caused_by: Some(1),
                depth: 2
            }
        );
        assert_eq!(
            rep.links[2],
            ChainLink {
                pkt: 3,
                t: 5,
                caused_by: None,
                depth: 1
            }
        );
        assert_eq!(rep.roots, 2);
        assert_eq!(rep.max_depth, 2);
        assert_eq!(rep.depth_histogram, vec![(1, 2), (2, 1)]);
        assert_eq!(rep.longest_chain, vec![(1, 1), (2, 4)]);
    }
}
