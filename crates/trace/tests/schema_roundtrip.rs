//! Schema-stability contract: every event variant the observers can emit
//! parses back exactly, the schema version is pinned, and any unknown,
//! renamed, or missing field is a hard error. If an emitter field is
//! renamed without bumping `SCHEMA_VERSION`, these tests fail.
//!
//! The same canonical lines also pin the binary `.hpt` framing: every
//! variant must survive a JSONL → binary → JSONL round trip down to the
//! byte, and truncated or corrupted binary input must fail with the
//! exact byte offset and event index.

mod common;

use common::record_busch_with;
use hotpotato_sim::{ExitKind, SectionProfiler};
use hotpotato_trace::{
    decode_trace, encode_trace, is_binary, parse_line, schema, Trace, TraceEvent, SCHEMA_VERSION,
};
use leveled_net::Direction;
use std::collections::BTreeSet;

#[test]
fn schema_version_is_pinned() {
    // Changing any event's field set requires bumping the version; this
    // assertion forces that edit to be deliberate. (5 = `step` counters
    // read as `u32`; the wire bytes are version 4's apart from the
    // version number.)
    assert_eq!(SCHEMA_VERSION, 5);
}

/// One canonical line per event variant (and per move kind), exactly as
/// the emitters write them.
fn canonical_lines() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "meta",
            r#"{"ev":"meta","schema":5,"topo":"bf:3","workload":"bitrev","algo":"busch","seed":7,"arrival":"","packets":8,"levels":4,"congestion":2,"dilation":3}"#,
        ),
        (
            "move",
            r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"F","kind":"adv"}"#,
        ),
        (
            "move",
            r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"B","kind":"def-safe"}"#,
        ),
        (
            "move",
            r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"B","kind":"def-free"}"#,
        ),
        (
            "move",
            r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"F","kind":"osc"}"#,
        ),
        (
            "move",
            r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"F","kind":"inj"}"#,
        ),
        ("trivial", r#"{"ev":"trivial","t":0,"pkt":5}"#),
        ("deliver", r#"{"ev":"deliver","t":6,"pkt":2}"#),
        ("arrival", r#"{"ev":"arrival","t":6,"pkt":2}"#),
        ("drop", r#"{"ev":"drop","t":6,"pkt":2}"#),
        (
            "step",
            r#"{"ev":"step","t":4,"moved":3,"absorbed":1,"injected":0,"deflections":1,"fallback":0,"oscillations":1,"active":2}"#,
        ),
        ("sets", r#"{"ev":"sets","num_sets":2,"sets":[0,1,0]}"#),
        ("phase_start", r#"{"ev":"phase_start","phase":3,"t":36}"#),
        ("phase_end", r#"{"ev":"phase_end","phase":3,"t":48}"#),
        (
            "frontier",
            r#"{"ev":"frontier","phase":3,"set":1,"frontier":-2}"#,
        ),
        (
            "congestion",
            r#"{"ev":"congestion","phase":3,"set":1,"congestion":4,"initial":5}"#,
        ),
        (
            "section",
            r#"{"ev":"section","section":"conflict","nanos":1234}"#,
        ),
        (
            "snapshot",
            r#"{"ev":"snapshot","phase":3,"t":36,"state":[0,1,3],"nodes":[7,2],"prev_forward":[4294967295,9],"moves":12,"forward":8,"backward":4,"deflections":1,"oscillations":2,"trivial":0,"num_sets":2}"#,
        ),
        (
            "stats",
            r#"{"ev":"stats","steps":7,"injected_at":[0,null],"delivered_at":[5,null],"deflections":[1,0]}"#,
        ),
    ]
}

#[test]
fn the_recorder_writes_the_canonical_lines() {
    // Every `JsonlTraceObserver` hook, driven once with the canonical
    // lines' values, writes exactly those lines: the recorder and
    // `schema::event_line` render through the same code.
    use hotpotato_sim::{JsonlTraceObserver, RouteObserver, Section, StepReport};
    use leveled_net::ids::DirectedEdge;
    use leveled_net::EdgeId;

    let mut obs = JsonlTraceObserver::new(Vec::new());
    for (dir, kind) in [
        (Direction::Forward, ExitKind::Advance),
        (Direction::Backward, ExitKind::Deflect { safe: true }),
        (Direction::Backward, ExitKind::Deflect { safe: false }),
        (Direction::Forward, ExitKind::Oscillate),
        (Direction::Forward, ExitKind::Inject),
    ] {
        let mv = DirectedEdge {
            edge: EdgeId(9),
            dir,
        };
        obs.on_move(4, 2, mv, kind);
    }
    obs.on_trivial(0, 5);
    obs.on_deliver(6, 2);
    obs.on_arrival(6, 2);
    obs.on_drop(6, 2);
    let report = StepReport {
        moved: 3,
        absorbed: 1,
        injected: 0,
        deflections: 1,
        fallback_deflections: 0,
        oscillations: 1,
    };
    obs.on_step_end(4, &report, 2);
    obs.on_sets_assigned(&[0, 1, 0], 2);
    obs.on_phase_start(3, 36);
    obs.on_phase_end(3, 48);
    obs.on_frontier(3, 1, -2);
    obs.on_set_congestion(3, 1, 4, 5);
    obs.on_section(Section::Conflict, 1234);
    let text = String::from_utf8(obs.finish().unwrap()).unwrap();

    let want: Vec<&str> = canonical_lines()
        .into_iter()
        .filter(|(ev, _)| !matches!(*ev, "meta" | "snapshot" | "stats"))
        .map(|(_, line)| line)
        .collect();
    assert_eq!(text.lines().collect::<Vec<_>>(), want);
}

#[test]
fn every_variant_round_trips() {
    for (ev, line) in canonical_lines() {
        let event = parse_line(line).unwrap_or_else(|e| panic!("{ev}: {e}"));
        assert_eq!(event.ev(), ev, "discriminator of {line}");
    }
    // Spot-check that values survive, not just discriminators.
    match parse_line(r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"B","kind":"def-safe"}"#).unwrap()
    {
        TraceEvent::Move {
            t,
            pkt,
            edge,
            dir,
            kind,
        } => {
            assert_eq!((t, pkt, edge.0), (4, 2, 9));
            assert_eq!(dir, Direction::Backward);
            assert_eq!(kind, ExitKind::Deflect { safe: true });
        }
        other => panic!("wrong event: {other:?}"),
    }
    match parse_line(r#"{"ev":"frontier","phase":3,"set":1,"frontier":-2}"#).unwrap() {
        TraceEvent::Frontier {
            phase,
            set,
            frontier,
        } => assert_eq!((phase, set, frontier), (3, 1, -2)),
        other => panic!("wrong event: {other:?}"),
    }
}

#[test]
fn unknown_fields_are_rejected_for_every_variant() {
    for (ev, line) in canonical_lines() {
        let with_extra = format!("{},\"zz\":0}}", &line[..line.len() - 1]);
        let err =
            parse_line(&with_extra).expect_err(&format!("{ev}: extra field must be rejected"));
        assert!(err.msg.contains("unknown field 'zz'"), "{ev}: {err}");
    }
}

#[test]
fn renamed_fields_are_rejected_for_every_variant() {
    for (ev, line) in canonical_lines() {
        // Rename the last field of each line: the parser must complain
        // about the missing original (or the unknown replacement).
        let open = line.rfind(",\"").expect("every variant has ≥ 2 fields") + 1;
        let close = line[open + 1..].find('"').unwrap() + open + 1;
        let field = &line[open + 1..close];
        let renamed = format!("{}\"renamed_{field}\"{}", &line[..open], &line[close + 1..]);
        assert!(
            parse_line(&renamed).is_err(),
            "{ev}: renamed field must be rejected: {renamed}"
        );
    }
}

#[test]
fn wrong_schema_version_is_rejected() {
    let line = r#"{"ev":"meta","schema":1,"topo":"bf:3","workload":"bitrev","algo":"busch","seed":7,"arrival":"","packets":8,"levels":4,"congestion":2,"dilation":3}"#;
    let err = parse_line(line).unwrap_err();
    assert!(err.msg.contains("unsupported trace schema"), "{err}");
}

#[test]
fn step_counters_past_u32_are_rejected() {
    // Each `step` counter is bounded by the packet count, so it is read
    // as `u32` like a packet id; a larger value is a field-level error in
    // JSONL and an attributed one in `.hpt`.
    let line = r#"{"ev":"step","t":4,"moved":4294967296,"absorbed":1,"injected":0,"deflections":1,"fallback":0,"oscillations":1,"active":2}"#;
    let err = parse_line(line).unwrap_err();
    assert_eq!(err.msg, "field 'moved' overflows u32");

    // magic (4) + version (1) + step tag (1) + t delta (1), then the
    // `moved` varint at byte 7, rewritten from 3 to 2^32.
    let step = r#"{"ev":"step","t":4,"moved":3,"absorbed":1,"injected":0,"deflections":1,"fallback":0,"oscillations":1,"active":2}"#;
    let mut bytes = encode_trace(&Trace {
        events: vec![parse_line(step).unwrap()],
    });
    assert_eq!(bytes[7], 3, "wire layout of the one-step trace");
    bytes.splice(7..8, [0x80, 0x80, 0x80, 0x80, 0x10]);
    let err = decode_trace(&bytes).expect_err("a u64 step counter must fail");
    assert_eq!((err.offset, err.event), (7, 0));
    assert!(err.msg.contains("overflows u32"), "{err}");
}

#[test]
fn a_real_run_emits_every_event_kind_and_parses_fully() {
    // SectionProfiler turns on wants_timing, so the driver also emits
    // section lines — with the envelope that exercises all 12 kinds.
    let (text, _, _) = record_busch_with("bf:6", "bitrev", 1, SectionProfiler::new());
    let trace = Trace::parse(&text).expect("every emitted line parses strictly");

    // No "trivial" here: a butterfly bit-reversal workload has no
    // source == destination packets (levels always differ); the trivial
    // emitter is pinned by the canonical-line test above and the
    // observer unit tests.
    let kinds: BTreeSet<&'static str> = trace.events.iter().map(TraceEvent::ev).collect();
    for want in [
        "meta",
        "move",
        "deliver",
        "step",
        "sets",
        "phase_start",
        "phase_end",
        "frontier",
        "congestion",
        "section",
        "stats",
    ] {
        assert!(kinds.contains(want), "run emitted no '{want}' event");
    }

    let move_kinds: BTreeSet<&'static str> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Move { kind, .. } => Some(hotpotato_trace::schema::kind_name(*kind)),
            _ => None,
        })
        .collect();
    for want in ["adv", "inj", "osc", "def-safe"] {
        assert!(move_kinds.contains(want), "run staged no '{want}' move");
    }
}

/// The canonical lines parsed into one trace — every event variant and
/// every move kind, in emission order.
fn canonical_trace() -> Trace {
    let events = canonical_lines()
        .iter()
        .map(|(ev, line)| parse_line(line).unwrap_or_else(|e| panic!("{ev}: {e}")))
        .collect();
    Trace { events }
}

#[test]
fn every_variant_survives_binary_round_trip() {
    let trace = canonical_trace();
    let bytes = encode_trace(&trace);
    assert!(is_binary(&bytes), "encoder must emit the .hpt magic");
    let back = decode_trace(&bytes).expect("binary decodes");
    assert_eq!(back.events, trace.events, "JSONL -> .hpt -> events");
    // Transcoding back out is byte-identical to the canonical JSONL:
    // the round trip is lossless, not merely value-preserving.
    for (ev, (name, line)) in back.events.iter().zip(canonical_lines()) {
        assert_eq!(schema::event_line(ev), line, "{name}: JSONL re-render");
    }
}

#[test]
fn truncated_binary_input_reports_exact_offset_and_event() {
    // A minimal single-event trace with a known wire layout: magic (4
    // bytes) + version varint (1) + trivial tag (1) + t delta (1) +
    // pkt (1) = 8 bytes. Dropping the final byte must fail at byte 7
    // while decoding event 0.
    let one = Trace {
        events: vec![parse_line(r#"{"ev":"trivial","t":0,"pkt":5}"#).unwrap()],
    };
    let bytes = encode_trace(&one);
    assert_eq!(bytes.len(), 8, "wire layout of the minimal trace");
    let err = decode_trace(&bytes[..7]).expect_err("truncation must fail");
    assert_eq!((err.offset, err.event), (7, 0));
    assert_eq!(
        err.to_string(),
        "binary trace error at byte 7 (event 0): unexpected end of input"
    );

    // General case: any cut strictly inside the *last* event of the
    // full canonical trace fails, attributed to that event's index and
    // an offset inside the surviving bytes. (A cut exactly on an event
    // boundary is a valid shorter trace, so start one past it.)
    let trace = canonical_trace();
    let all = encode_trace(&trace);
    let head = encode_trace(&Trace {
        events: trace.events[..trace.events.len() - 1].to_vec(),
    });
    assert!(all.starts_with(&head), "encoding is prefix-stable");
    decode_trace(&head).expect("cut on the event boundary still parses");
    let last = trace.events.len() - 1;
    for cut in head.len() + 1..all.len() {
        let err =
            decode_trace(&all[..cut]).expect_err("a cut strictly inside the last event must fail");
        assert_eq!(err.event, last, "cut at byte {cut}: event attribution");
        assert!(
            err.offset >= head.len() && err.offset <= cut,
            "cut at byte {cut}: offset {} outside the last event",
            err.offset
        );
    }
}

#[test]
fn corrupted_binary_input_reports_exact_offset_and_event() {
    let trace = canonical_trace();
    let mut bytes = encode_trace(&trace);

    // Corrupt the first event's tag byte (magic is 4 bytes, the
    // version varint is 1): unknown tag, event 0, byte 5.
    let tag_at = 4 + 1;
    bytes[tag_at] = 0xff;
    let err = decode_trace(&bytes).expect_err("bad tag must fail");
    assert_eq!((err.offset, err.event), (tag_at, 0));
    assert!(err.msg.contains("unknown event tag 255"), "{err}");

    // Corrupt the version varint: rejected before any event decodes.
    let mut bytes = encode_trace(&trace);
    bytes[4] = 99;
    let err = decode_trace(&bytes).expect_err("bad version must fail");
    assert_eq!(err.event, 0);
    assert!(err.msg.contains("unsupported trace schema 99"), "{err}");

    // Not a binary trace at all.
    let err = decode_trace(b"junk jsonl text").expect_err("bad magic");
    assert_eq!((err.offset, err.event), (0, 0));
    assert!(err.msg.contains("bad magic"), "{err}");
}
