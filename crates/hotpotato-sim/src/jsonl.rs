//! The JSONL trace renderer: the one place each line shape is written.
//!
//! [`push_event`] appends any [`TraceEvent`] as exactly one JSON object
//! (no trailing newline) to a caller-owned `String`, so a writer that
//! reuses its buffer renders the per-step lines without allocating. It
//! covers all fifteen line shapes, the `meta` and `stats` envelope lines
//! included: [`crate::JsonlTraceObserver`] writes the events its hooks
//! map to, and the trace crate's `event_line`, `meta_line` and
//! `stats_line` (what `hotpotato trace convert` and the CLI's trace
//! envelope write) wrap it, so a recorded trace and a transcoded one
//! cannot drift apart. [`push_snapshot`] is the `snapshot` arm, public so
//! the recorder can render a checkpoint straight from its own state.

use crate::event::{Meta, StatsLine, TraceEvent};
use crate::soa::ExitKind;
use crate::stats::Time;
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

/// Appends `[v0,null,...]`.
fn push_opt_u64s(out: &mut String, values: &[Option<Time>]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            Some(v) => {
                let _ = write!(out, "{v}");
            }
            None => out.push_str("null"),
        }
    }
    out.push(']');
}

/// Appends `ev` as its one JSONL line (no trailing newline). Always
/// inlined, so a caller whose event has a known variant keeps only that
/// variant's arm.
#[inline(always)]
pub fn push_event(out: &mut String, ev: &TraceEvent) {
    match ev {
        TraceEvent::Meta(m) => push_meta(out, m),
        &TraceEvent::Move {
            t,
            pkt,
            edge,
            dir,
            kind,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"move\",\"t\":{t},\"pkt\":{pkt},\"edge\":{},\"dir\":\"{}\",\"kind\":\"{}\"}}",
                edge.0,
                dir_letter(dir),
                kind_name(kind),
            );
        }
        &TraceEvent::Trivial { t, pkt } => {
            let _ = write!(out, "{{\"ev\":\"trivial\",\"t\":{t},\"pkt\":{pkt}}}");
        }
        &TraceEvent::Deliver { t, pkt } => {
            let _ = write!(out, "{{\"ev\":\"deliver\",\"t\":{t},\"pkt\":{pkt}}}");
        }
        &TraceEvent::Arrival { t, pkt } => {
            let _ = write!(out, "{{\"ev\":\"arrival\",\"t\":{t},\"pkt\":{pkt}}}");
        }
        &TraceEvent::Drop { t, pkt } => {
            let _ = write!(out, "{{\"ev\":\"drop\",\"t\":{t},\"pkt\":{pkt}}}");
        }
        &TraceEvent::Step {
            t,
            moved,
            absorbed,
            injected,
            deflections,
            fallback,
            oscillations,
            active,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"step\",\"t\":{t},\"moved\":{moved},\"absorbed\":{absorbed},\"injected\":{injected},\"deflections\":{deflections},\"fallback\":{fallback},\"oscillations\":{oscillations},\"active\":{active}}}",
            );
        }
        TraceEvent::Sets { num_sets, sets } => {
            let _ = write!(out, "{{\"ev\":\"sets\",\"num_sets\":{num_sets},\"sets\":");
            push_u32s(out, sets.iter().copied());
            out.push('}');
        }
        &TraceEvent::PhaseStart { phase, t } => {
            let _ = write!(
                out,
                "{{\"ev\":\"phase_start\",\"phase\":{phase},\"t\":{t}}}"
            );
        }
        &TraceEvent::PhaseEnd { phase, t } => {
            let _ = write!(out, "{{\"ev\":\"phase_end\",\"phase\":{phase},\"t\":{t}}}");
        }
        &TraceEvent::Frontier {
            phase,
            set,
            frontier,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"frontier\",\"phase\":{phase},\"set\":{set},\"frontier\":{frontier}}}"
            );
        }
        &TraceEvent::Congestion {
            phase,
            set,
            congestion,
            initial,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"congestion\",\"phase\":{phase},\"set\":{set},\"congestion\":{congestion},\"initial\":{initial}}}"
            );
        }
        TraceEvent::Section { section, nanos } => {
            out.push_str("{\"ev\":\"section\",\"section\":");
            push_str_lit(out, section);
            let _ = write!(out, ",\"nanos\":{nanos}}}");
        }
        TraceEvent::Snapshot(s) => push_snapshot(
            out,
            s.phase,
            s.t,
            s.state.iter().copied(),
            s.nodes.iter().copied(),
            &s.prev_forward,
            &SnapshotCounts {
                moves: s.moves,
                forward: s.forward,
                backward: s.backward,
                deflections: s.deflections,
                oscillations: s.oscillations,
                trivial: s.trivial,
                num_sets: s.num_sets,
            },
        ),
        TraceEvent::Stats(s) => push_stats(out, s),
    }
}

/// Appends `s` as a JSON string literal, escaped as `serde::Value`
/// renders it.
fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `meta`: the instance labels and shape.
fn push_meta(out: &mut String, m: &Meta) {
    let _ = write!(out, "{{\"ev\":\"meta\",\"schema\":{},\"topo\":", m.schema);
    push_str_lit(out, &m.topo);
    out.push_str(",\"workload\":");
    push_str_lit(out, &m.workload);
    out.push_str(",\"algo\":");
    push_str_lit(out, &m.algo);
    let _ = write!(out, ",\"seed\":{},\"arrival\":", m.seed);
    push_str_lit(out, &m.arrival);
    let _ = write!(
        out,
        ",\"packets\":{},\"levels\":{},\"congestion\":{},\"dilation\":{}}}",
        m.packets, m.levels, m.congestion, m.dilation
    );
}

/// `stats`: the per-packet arrays, `null` for a packet never injected or
/// delivered.
fn push_stats(out: &mut String, s: &StatsLine) {
    let _ = write!(
        out,
        "{{\"ev\":\"stats\",\"steps\":{},\"injected_at\":",
        s.steps
    );
    push_opt_u64s(out, &s.injected_at);
    out.push_str(",\"delivered_at\":");
    push_opt_u64s(out, &s.delivered_at);
    out.push_str(",\"deflections\":");
    push_u32s(out, s.deflections.iter().copied());
    out.push('}');
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SCHEMA_VERSION;

    #[test]
    fn meta_strings_are_escaped_as_serde_renders_them() {
        use serde::Serialize as _;
        let meta = Meta {
            schema: SCHEMA_VERSION,
            topo: "bf:3\"\\".into(),
            workload: "m2m:4\n\r\t".into(),
            algo: "busch\u{1}\u{1f}é".into(),
            seed: u64::MAX,
            arrival: String::new(),
            packets: 8,
            levels: 4,
            congestion: 2,
            dilation: 3,
        };
        let want = serde::Value::object([
            ("ev", serde::Value::String("meta".into())),
            ("schema", meta.schema.to_json()),
            ("topo", serde::Value::String(meta.topo.clone())),
            ("workload", serde::Value::String(meta.workload.clone())),
            ("algo", serde::Value::String(meta.algo.clone())),
            ("seed", meta.seed.to_json()),
            ("arrival", serde::Value::String(meta.arrival.clone())),
            ("packets", meta.packets.to_json()),
            ("levels", meta.levels.to_json()),
            ("congestion", meta.congestion.to_json()),
            ("dilation", meta.dilation.to_json()),
        ])
        .to_compact_string();
        let mut got = String::new();
        push_event(&mut got, &TraceEvent::Meta(Box::new(meta)));
        assert_eq!(got, want);
    }

    #[test]
    fn section_names_are_escaped() {
        // A parsed or decoded trace can carry any section name; the line
        // must stay valid JSON.
        let mut got = String::new();
        let section = "a\"b".to_string();
        push_event(&mut got, &TraceEvent::Section { section, nanos: 1 });
        assert_eq!(got, r#"{"ev":"section","section":"a\"b","nanos":1}"#);
    }

    #[test]
    fn stats_arrays_render_nulls() {
        let mut got = String::new();
        let stats = StatsLine {
            steps: 7,
            injected_at: vec![Some(0), None],
            delivered_at: vec![Some(5), None],
            deflections: vec![1, 0],
        };
        push_event(&mut got, &TraceEvent::Stats(Box::new(stats)));
        assert_eq!(
            got,
            r#"{"ev":"stats","steps":7,"injected_at":[0,null],"delivered_at":[5,null],"deflections":[1,0]}"#
        );
    }
}
