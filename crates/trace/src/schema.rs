//! The JSONL trace schema: strict, version-pinned parsing.
//!
//! A trace file is one JSON object per line. The movement lines are
//! written by [`hotpotato_sim::JsonlTraceObserver`]; the CLI wraps them
//! in an *envelope*: a `meta` line first (instance specs + seed, enough
//! to reconstruct the [`routing_core::RoutingProblem`] offline) and a
//! `stats` line last (the run's final [`hotpotato_sim::RouteStats`]).
//!
//! The wire types ([`TraceEvent`], [`Meta`], [`StatsLine`],
//! [`Snapshot`], [`Rollup`], [`SCHEMA_VERSION`]) live in
//! [`hotpotato_sim::event`], next to the observer hooks they record, and
//! are re-exported here; [`event_line`], [`meta_line`] and
//! [`stats_line`] wrap the one renderer, [`hotpotato_sim::jsonl::push_event`].
//! This module owns the reading side.
//!
//! A [`Trace`] is also a [`RouteObserver`](hotpotato_sim::RouteObserver):
//! routed straight into, it records the events [`Trace::parse`] would
//! read back from the observer's lines, without the text in between
//! (the fleet envelope records this way).
//!
//! Parsing is deliberately strict: an unknown `ev` discriminator, a
//! missing field, an extra field, or a wrong `schema` version is an
//! error, not a warning. The schema-stability test in
//! `tests/schema_roundtrip.rs` round-trips every event variant the
//! observer can emit, so renaming a field in the emitter without bumping
//! [`SCHEMA_VERSION`] fails CI.

use crate::scan::{Fields, ScanBuf};
use hotpotato_sim::event::EventSink;
pub use hotpotato_sim::event::{Meta, Rollup, Snapshot, StatsLine, TraceEvent, SCHEMA_VERSION};
use hotpotato_sim::{jsonl, ExitKind, RouteStats};
use leveled_net::{Direction, EdgeId};
use serde::Value;

/// A parse failure, with the offending line (1-based) once known.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 = not yet attributed).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.msg)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err(msg: impl Into<String>) -> ParseError {
    ParseError {
        line: 0,
        msg: msg.into(),
    }
}

pub use hotpotato_sim::jsonl::kind_name;

fn parse_kind(s: &str) -> Result<ExitKind, ParseError> {
    Ok(match s {
        "adv" => ExitKind::Advance,
        "def-safe" => ExitKind::Deflect { safe: true },
        "def-free" => ExitKind::Deflect { safe: false },
        "osc" => ExitKind::Oscillate,
        "inj" => ExitKind::Inject,
        other => return Err(err(format!("unknown move kind '{other}'"))),
    })
}

/// Parses one trace line, strictly (see the module docs).
// lint: no-panic
pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
    parse_line_with(line, &mut ScanBuf::default())
}

/// [`parse_line`] with the scan buffers a caller reuses across lines.
fn parse_line_with<'a>(line: &'a str, buf: &mut ScanBuf<'a>) -> Result<TraceEvent, ParseError> {
    let mut f = Fields::scan(line, buf)?;
    let ev = f.str("ev")?;
    let event = match &*ev {
        "meta" => {
            // Check the version before the field set: an old trace
            // should report its version, not a missing v3 field.
            let schema = f.u64("schema")?;
            if schema != SCHEMA_VERSION {
                return Err(err(format!(
                    "unsupported trace schema {schema} (this build reads {SCHEMA_VERSION})"
                )));
            }
            TraceEvent::Meta(Box::new(Meta {
                schema,
                topo: f.str("topo")?.into_owned(),
                workload: f.str("workload")?.into_owned(),
                algo: f.str("algo")?.into_owned(),
                seed: f.u64("seed")?,
                arrival: f.str("arrival")?.into_owned(),
                packets: f.u64("packets")?,
                levels: f.u64("levels")?,
                congestion: f.u64("congestion")?,
                dilation: f.u64("dilation")?,
            }))
        }
        "move" => TraceEvent::Move {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
            edge: EdgeId(f.u32("edge")?),
            dir: match &*f.str("dir")? {
                "F" => Direction::Forward,
                "B" => Direction::Backward,
                other => return Err(err(format!("unknown direction '{other}'"))),
            },
            kind: parse_kind(&f.str("kind")?)?,
        },
        "trivial" => TraceEvent::Trivial {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "deliver" => TraceEvent::Deliver {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "arrival" => TraceEvent::Arrival {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "drop" => TraceEvent::Drop {
            t: f.u64("t")?,
            pkt: f.u32("pkt")?,
        },
        "step" => TraceEvent::Step {
            t: f.u64("t")?,
            moved: f.u32("moved")?,
            absorbed: f.u32("absorbed")?,
            injected: f.u32("injected")?,
            deflections: f.u32("deflections")?,
            fallback: f.u32("fallback")?,
            oscillations: f.u32("oscillations")?,
            active: f.u32("active")?,
        },
        "sets" => TraceEvent::Sets {
            num_sets: f.u32("num_sets")?,
            sets: f.u32_array("sets")?,
        },
        "phase_start" => TraceEvent::PhaseStart {
            phase: f.u64("phase")?,
            t: f.u64("t")?,
        },
        "phase_end" => TraceEvent::PhaseEnd {
            phase: f.u64("phase")?,
            t: f.u64("t")?,
        },
        "frontier" => TraceEvent::Frontier {
            phase: f.u64("phase")?,
            set: f.u32("set")?,
            frontier: f.i64("frontier")?,
        },
        "congestion" => TraceEvent::Congestion {
            phase: f.u64("phase")?,
            set: f.u32("set")?,
            congestion: f.u32("congestion")?,
            initial: f.u32("initial")?,
        },
        "section" => TraceEvent::Section {
            section: f.str("section")?.into_owned(),
            nanos: f.u64("nanos")?,
        },
        "snapshot" => TraceEvent::Snapshot(Box::new(Snapshot {
            phase: f.u64("phase")?,
            t: f.u64("t")?,
            state: f.u32_array("state")?,
            nodes: f.u32_array("nodes")?,
            prev_forward: f.u32_array("prev_forward")?,
            moves: f.u64("moves")?,
            forward: f.u64("forward")?,
            backward: f.u64("backward")?,
            deflections: f.u64("deflections")?,
            oscillations: f.u64("oscillations")?,
            trivial: f.u64("trivial")?,
            num_sets: f.u32("num_sets")?,
        })),
        "stats" => TraceEvent::Stats(Box::new(StatsLine {
            steps: f.u64("steps")?,
            injected_at: f.opt_u64_array("injected_at")?,
            delivered_at: f.opt_u64_array("delivered_at")?,
            deflections: f.u32_array("deflections")?,
        })),
        other => return Err(err(format!("unknown event '{other}'"))),
    };
    f.end()?;
    Ok(event)
}

/// A trace as a list of events. A parsed trace holds one event per
/// line, in file order (so `events[i]` came from line `i + 1`); a
/// recorded one (see the [`EventSink`] impl) holds them in emission
/// order, with whatever envelope events the caller pushed around them.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The events, in line or emission order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Parses a whole trace text; blank lines are rejected (they would
    /// desynchronize line attribution in diagnostics).
    // lint: no-panic
    pub fn parse(text: &str) -> Result<Trace, ParseError> {
        let mut events = Vec::new();
        let mut buf = ScanBuf::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                return Err(ParseError {
                    line: i + 1,
                    msg: "blank line in trace".into(),
                });
            }
            let ev = parse_line_with(line, &mut buf).map_err(|mut e| {
                e.line = i + 1;
                e
            })?;
            events.push(ev);
        }
        Ok(Trace { events })
    }

    /// The `meta` envelope line, which must be the first line if present.
    pub fn meta(&self) -> Option<&Meta> {
        match self.events.first() {
            Some(TraceEvent::Meta(m)) => Some(m),
            _ => None,
        }
    }

    /// The `stats` envelope line, which must be the last line if present.
    pub fn stats(&self) -> Option<&StatsLine> {
        match self.events.last() {
            Some(TraceEvent::Stats(s)) => Some(s),
            _ => None,
        }
    }
}

/// Records each event in emission order: with [`observe_as_events!`],
/// every hook becomes the [`TraceEvent`] that [`parse_line`] builds from
/// the line `JsonlTraceObserver` writes for it, so routing into a `Trace`
/// equals recording JSONL and parsing it back. The observer's optional
/// `snapshot` checkpoints are not recorded: they exist to seed sharded
/// verification of a file. The meta and stats envelope events are the
/// caller's to push.
///
/// [`observe_as_events!`]: hotpotato_sim::observe_as_events
impl EventSink for Trace {
    #[inline]
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

hotpotato_sim::observe_as_events!(Trace);

/// Renders the `meta` envelope line (without trailing newline).
pub fn meta_line(meta: &Meta) -> String {
    event_line(&TraceEvent::Meta(Box::new(meta.clone())))
}
/// Renders a [`Rollup`] envelope as a JSON document (the `/rollup/<run>`
/// response body).
pub fn rollup_doc(r: &Rollup) -> Value {
    use serde::Serialize as _;
    Value::object([
        ("schema", r.schema.to_json()),
        ("run", Value::String(r.run.clone())),
        ("seq", r.seq.to_json()),
        ("finished", Value::Bool(r.finished)),
        ("rollup", r.rollup.clone()),
    ])
}

/// Parses a [`Rollup`] envelope, strictly: unknown or missing envelope
/// fields and a wrong `schema` version are errors. The inner `rollup`
/// report is carried opaquely (its shape is owned by
/// `StreamingAggregator::to_json`).
pub fn parse_rollup(text: &str) -> Result<Rollup, ParseError> {
    let mut buf = ScanBuf::default();
    let mut f = Fields::scan(text, &mut buf)?;
    let rollup = Rollup {
        schema: f.u64("schema")?,
        run: f.str("run")?.into_owned(),
        seq: f.u64("seq")?,
        finished: f.bool("finished")?,
        rollup: serde_json::from_str(f.raw("rollup")?).map_err(|e| err(e.to_string()))?,
    };
    if rollup.schema != SCHEMA_VERSION {
        return Err(err(format!(
            "unsupported rollup schema {} (this build reads {SCHEMA_VERSION})",
            rollup.schema
        )));
    }
    f.end()?;
    Ok(rollup)
}

/// Renders the `stats` envelope line (without trailing newline) from the
/// run's final statistics.
pub fn stats_line(stats: &RouteStats) -> String {
    event_line(&TraceEvent::Stats(Box::new(stats.into())))
}

/// Renders any [`TraceEvent`] exactly as the recording pipeline writes
/// it (no trailing newline), through the one renderer
/// `hotpotato_sim::JsonlTraceObserver` writes with. This canonical
/// rendering is what makes binary → JSONL transcoding lossless down to
/// the byte for any trace the pipeline recorded.
pub fn event_line(ev: &TraceEvent) -> String {
    let mut out = String::new();
    jsonl::push_event(&mut out, ev);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_fields_are_rejected() {
        assert!(parse_line(r#"{"ev":"deliver","t":1,"pkt":2}"#).is_ok());
        let e = parse_line(r#"{"ev":"deliver","t":1,"pkt":2,"extra":3}"#).unwrap_err();
        assert!(e.msg.contains("unknown field 'extra'"), "{e}");
        let e = parse_line(r#"{"ev":"deliver","t":1}"#).unwrap_err();
        assert!(e.msg.contains("missing field 'pkt'"), "{e}");
    }

    #[test]
    fn unknown_events_and_schemas_are_rejected() {
        assert!(parse_line(r#"{"ev":"warp","t":1}"#).is_err());
        let meta = r#"{"ev":"meta","schema":99,"topo":"bf:3","workload":"bitrev","algo":"busch","seed":1,"packets":8,"levels":4,"congestion":2,"dilation":3}"#;
        let e = parse_line(meta).unwrap_err();
        assert!(e.msg.contains("unsupported trace schema"), "{e}");
    }

    #[test]
    fn envelope_lines_round_trip() {
        let meta = Meta {
            schema: SCHEMA_VERSION,
            topo: "butterfly:3".into(),
            workload: "bitrev".into(),
            algo: "busch".into(),
            seed: 42,
            arrival: "poisson:0.5".into(),
            packets: 8,
            levels: 4,
            congestion: 2,
            dilation: 3,
        };
        match parse_line(&meta_line(&meta)).unwrap() {
            TraceEvent::Meta(m) => assert_eq!(*m, meta),
            other => panic!("wrong event: {other:?}"),
        }

        let mut stats = RouteStats::new(2);
        stats.steps_run = 7;
        stats.injected_at = vec![Some(0), None];
        stats.delivered_at = vec![Some(5), None];
        stats.deflections = vec![1, 0];
        match parse_line(&stats_line(&stats)).unwrap() {
            TraceEvent::Stats(s) => {
                assert_eq!(s.steps, 7);
                assert_eq!(s.injected_at, vec![Some(0), None]);
                assert_eq!(s.delivered_at, vec![Some(5), None]);
                assert_eq!(s.deflections, vec![1, 0]);
            }
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn rollup_envelope_round_trips_strictly() {
        let rollup = Rollup {
            schema: SCHEMA_VERSION,
            run: "bf10-bitrev".into(),
            seq: 17,
            finished: true,
            rollup: Value::object([("cap", Value::Number(serde::Number::U(64)))]),
        };
        let text = rollup_doc(&rollup).to_compact_string();
        assert_eq!(parse_rollup(&text).unwrap(), rollup);

        // Wrong version, unknown field, missing field: all hard errors.
        let stale = text.replacen(&format!("\"schema\":{SCHEMA_VERSION}"), "\"schema\":1", 1);
        let e = parse_rollup(&stale).unwrap_err();
        assert!(e.msg.contains("unsupported rollup schema"), "{e}");
        let extra = format!("{},\"zz\":0}}", &text[..text.len() - 1]);
        assert!(parse_rollup(&extra)
            .unwrap_err()
            .msg
            .contains("unknown field 'zz'"));
        assert!(
            parse_rollup(r#"{"schema":5,"run":"x","seq":0,"finished":false}"#)
                .unwrap_err()
                .msg
                .contains("missing field 'rollup'")
        );
    }

    #[test]
    fn snapshot_lines_round_trip() {
        let snap = Snapshot {
            phase: 3,
            t: 36,
            state: vec![0, 3, 4, 2],
            nodes: vec![17],
            prev_forward: vec![2, 5],
            moves: 9,
            forward: 8,
            backward: 1,
            deflections: 1,
            oscillations: 0,
            trivial: 1,
            num_sets: 2,
        };
        let line = event_line(&TraceEvent::Snapshot(Box::new(snap.clone())));
        match parse_line(&line).unwrap() {
            TraceEvent::Snapshot(s) => assert_eq!(*s, snap),
            other => panic!("wrong event: {other:?}"),
        }
    }

    #[test]
    fn streaming_injection_events_parse() {
        match parse_line(r#"{"ev":"arrival","t":3,"pkt":1}"#).unwrap() {
            TraceEvent::Arrival { t: 3, pkt: 1 } => {}
            other => panic!("wrong event: {other:?}"),
        }
        match parse_line(r#"{"ev":"drop","t":4,"pkt":2}"#).unwrap() {
            TraceEvent::Drop { t: 4, pkt: 2 } => {}
            other => panic!("wrong event: {other:?}"),
        }
        assert!(parse_line(r#"{"ev":"drop","t":4}"#).is_err());
    }

    #[test]
    fn trace_parse_attributes_line_numbers() {
        let text = "{\"ev\":\"deliver\",\"t\":1,\"pkt\":0}\n{\"ev\":\"bogus\"}\n";
        let e = Trace::parse(text).unwrap_err();
        assert_eq!(e.line, 2);
    }
}
