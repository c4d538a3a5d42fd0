//! The JSONL trace line renderers: the one place each line shape is
//! written.
//!
//! Every function appends exactly one JSON object (no trailing newline)
//! to a caller-owned `String`, so a writer that reuses its buffer
//! renders without allocating. [`crate::JsonlTraceObserver`] calls them
//! from its hooks and its `snapshot` checkpoint; the trace crate's
//! canonical `event_line` (what `hotpotato trace convert` writes) calls
//! them for every event it did not build itself, so a recorded trace and
//! a transcoded one cannot drift apart. Only the `meta` and `stats`
//! envelope lines are rendered elsewhere: their types live in the trace
//! crate.

use crate::soa::{ExitKind, StepReport};
use crate::stats::Time;
use leveled_net::ids::DirectedEdge;
use leveled_net::Direction;
use std::fmt::Write as _;

// Writing into a `String` cannot fail, so every `write!` result below is
// discarded.

/// Stable name of an [`ExitKind`] (the `kind` field of `move` lines).
pub fn kind_name(kind: ExitKind) -> &'static str {
    match kind {
        ExitKind::Advance => "adv",
        ExitKind::Deflect { safe: true } => "def-safe",
        ExitKind::Deflect { safe: false } => "def-free",
        ExitKind::Oscillate => "osc",
        ExitKind::Inject => "inj",
    }
}

/// Direction letter (the `dir` field of `move` lines).
fn dir_letter(dir: Direction) -> &'static str {
    match dir {
        Direction::Forward => "F",
        Direction::Backward => "B",
    }
}

/// Appends `[v0,v1,...]`.
fn push_u32s(out: &mut String, values: impl IntoIterator<Item = u32>) {
    out.push('[');
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// `move`: packet `pkt` crossed `mv` at step `t`.
pub fn push_move(out: &mut String, t: Time, pkt: u32, mv: DirectedEdge, kind: ExitKind) {
    let _ = write!(
        out,
        "{{\"ev\":\"move\",\"t\":{t},\"pkt\":{pkt},\"edge\":{},\"dir\":\"{}\",\"kind\":\"{}\"}}",
        mv.edge.0,
        dir_letter(mv.dir),
        kind_name(kind),
    );
}

/// `trivial`: a source == destination delivery.
pub fn push_trivial(out: &mut String, t: Time, pkt: u32) {
    let _ = write!(out, "{{\"ev\":\"trivial\",\"t\":{t},\"pkt\":{pkt}}}");
}

/// `deliver`: an absorption at the destination.
pub fn push_deliver(out: &mut String, t: Time, pkt: u32) {
    let _ = write!(out, "{{\"ev\":\"deliver\",\"t\":{t},\"pkt\":{pkt}}}");
}

/// `arrival`: a streaming packet became available for injection.
pub fn push_arrival(out: &mut String, t: Time, pkt: u32) {
    let _ = write!(out, "{{\"ev\":\"arrival\",\"t\":{t},\"pkt\":{pkt}}}");
}

/// `drop`: admission control dropped a streaming packet.
pub fn push_drop(out: &mut String, t: Time, pkt: u32) {
    let _ = write!(out, "{{\"ev\":\"drop\",\"t\":{t},\"pkt\":{pkt}}}");
}

/// `step`: step `t` completed with `active` packets still in flight.
pub fn push_step(out: &mut String, t: Time, report: &StepReport, active: u64) {
    let _ = write!(
        out,
        "{{\"ev\":\"step\",\"t\":{t},\"moved\":{},\"absorbed\":{},\"injected\":{},\"deflections\":{},\"fallback\":{},\"oscillations\":{},\"active\":{active}}}",
        report.moved,
        report.absorbed,
        report.injected,
        report.deflections,
        report.fallback_deflections,
        report.oscillations,
    );
}

/// `sets`: the frontier-set assignment of every packet.
pub fn push_sets(out: &mut String, num_sets: u32, sets: &[u32]) {
    let _ = write!(out, "{{\"ev\":\"sets\",\"num_sets\":{num_sets},\"sets\":");
    push_u32s(out, sets.iter().copied());
    out.push('}');
}

/// `phase_start`: phase `phase` begins at step `t`.
pub fn push_phase_start(out: &mut String, phase: u64, t: Time) {
    let _ = write!(
        out,
        "{{\"ev\":\"phase_start\",\"phase\":{phase},\"t\":{t}}}"
    );
}

/// `phase_end`: phase `phase` ended; `t` is the first step after it.
pub fn push_phase_end(out: &mut String, phase: u64, t: Time) {
    let _ = write!(out, "{{\"ev\":\"phase_end\",\"phase\":{phase},\"t\":{t}}}");
}

/// `frontier`: set `set`'s theoretical frontier in phase `phase`.
pub fn push_frontier(out: &mut String, phase: u64, set: u32, frontier: i64) {
    let _ = write!(
        out,
        "{{\"ev\":\"frontier\",\"phase\":{phase},\"set\":{set},\"frontier\":{frontier}}}"
    );
}

/// `congestion`: set `set`'s audited congestion at the end of `phase`.
pub fn push_congestion(out: &mut String, phase: u64, set: u32, congestion: u32, initial: u32) {
    let _ = write!(
        out,
        "{{\"ev\":\"congestion\",\"phase\":{phase},\"set\":{set},\"congestion\":{congestion},\"initial\":{initial}}}"
    );
}

/// `section`: `nanos` spent in the router section named `section`.
pub fn push_section(out: &mut String, section: &str, nanos: u64) {
    let _ = write!(
        out,
        "{{\"ev\":\"section\",\"section\":\"{section}\",\"nanos\":{nanos}}}"
    );
}

/// The cumulative counters a `snapshot` checkpoint carries.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotCounts {
    /// Moves so far.
    pub moves: u64,
    /// Forward crossings so far.
    pub forward: u64,
    /// Backward crossings so far.
    pub backward: u64,
    /// Deflections so far.
    pub deflections: u64,
    /// Oscillation moves so far.
    pub oscillations: u64,
    /// Trivial deliveries so far.
    pub trivial: u64,
    /// Frontier-set count from the `sets` line (0 = not assigned yet).
    pub num_sets: u32,
}

/// `snapshot`: the phase-entry checkpoint — per-packet lifecycle codes
/// `state`, the node of each in-flight packet in packet order, the
/// previous step's forward crossings, and the cumulative counters.
pub fn push_snapshot(
    out: &mut String,
    phase: u64,
    t: Time,
    state: impl IntoIterator<Item = u32>,
    nodes: impl IntoIterator<Item = u32>,
    prev_forward: &[u32],
    c: &SnapshotCounts,
) {
    let _ = write!(
        out,
        "{{\"ev\":\"snapshot\",\"phase\":{phase},\"t\":{t},\"state\":"
    );
    push_u32s(out, state);
    out.push_str(",\"nodes\":");
    push_u32s(out, nodes);
    out.push_str(",\"prev_forward\":");
    push_u32s(out, prev_forward.iter().copied());
    let _ = write!(
        out,
        ",\"moves\":{},\"forward\":{},\"backward\":{},\"deflections\":{},\"oscillations\":{},\"trivial\":{},\"num_sets\":{}}}",
        c.moves, c.forward, c.backward, c.deflections, c.oscillations, c.trivial, c.num_sets
    );
}
