//! Differential mutation test of the JSONL line parser.
//!
//! `oracle` below is the previous parser, kept here as test-only
//! reference code: it builds a whole `serde_json::Value` tree for a line
//! and then picks fields out of it with a `Value`-backed cursor. The
//! library's `parse_line` and `parse_rollup` scan the borrowed bytes
//! instead. Seeded mutations of every canonical line shape, and of every
//! line of a recorded trace with snapshots, must give the same result
//! from both: equal events on success, failure on the same inputs, and
//! equal messages for every field-level error. Only the wording of JSON
//! syntax errors may differ.

mod common;

use hotpotato_trace::{parse_line, parse_rollup, ParseError, Trace, TraceEvent};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::Value;

/// The previous `Value`-tree parser, unchanged apart from imports,
/// comments, the boxed envelope variants, and the `step` counters, which
/// it reads as `u32` like `parse_line` does since schema 5.
mod oracle {
    use hotpotato_sim::ExitKind;
    use hotpotato_trace::SCHEMA_VERSION;
    use hotpotato_trace::{Meta, ParseError, Rollup, Snapshot, StatsLine, TraceEvent};
    use leveled_net::{Direction, EdgeId};
    use serde_json::Value;

    fn err(msg: impl Into<String>) -> ParseError {
        ParseError {
            line: 0,
            msg: msg.into(),
        }
    }

    struct Fields<'a> {
        pairs: &'a [(String, Value)],
        used: Vec<bool>,
    }

    impl<'a> Fields<'a> {
        fn new(v: &'a Value) -> Result<Self, ParseError> {
            let pairs = v.as_object().ok_or_else(|| err("not a JSON object"))?;
            Ok(Fields {
                pairs,
                used: vec![false; pairs.len()],
            })
        }

        fn take(&mut self, key: &str) -> Result<&'a Value, ParseError> {
            for (i, (k, v)) in self.pairs.iter().enumerate() {
                if k == key {
                    if self.used[i] {
                        return Err(err(format!("duplicate field '{key}'")));
                    }
                    self.used[i] = true;
                    return Ok(v);
                }
            }
            Err(err(format!("missing field '{key}'")))
        }

        fn u64(&mut self, key: &str) -> Result<u64, ParseError> {
            self.take(key)?
                .as_u64()
                .ok_or_else(|| err(format!("field '{key}' is not an unsigned integer")))
        }

        fn u32(&mut self, key: &str) -> Result<u32, ParseError> {
            u32::try_from(self.u64(key)?).map_err(|_| err(format!("field '{key}' overflows u32")))
        }

        fn i64(&mut self, key: &str) -> Result<i64, ParseError> {
            self.take(key)?
                .as_i64()
                .ok_or_else(|| err(format!("field '{key}' is not an integer")))
        }

        fn str(&mut self, key: &str) -> Result<&'a str, ParseError> {
            self.take(key)?
                .as_str()
                .ok_or_else(|| err(format!("field '{key}' is not a string")))
        }

        fn bool(&mut self, key: &str) -> Result<bool, ParseError> {
            self.take(key)?
                .as_bool()
                .ok_or_else(|| err(format!("field '{key}' is not a boolean")))
        }

        fn u32_array(&mut self, key: &str) -> Result<Vec<u32>, ParseError> {
            let arr = self
                .take(key)?
                .as_array()
                .ok_or_else(|| err(format!("field '{key}' is not an array")))?;
            arr.iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| err(format!("field '{key}' has a non-u32 element")))
                })
                .collect()
        }

        fn opt_u64_array(&mut self, key: &str) -> Result<Vec<Option<u64>>, ParseError> {
            let arr = self
                .take(key)?
                .as_array()
                .ok_or_else(|| err(format!("field '{key}' is not an array")))?;
            arr.iter()
                .map(|v| {
                    if v.is_null() {
                        Ok(None)
                    } else {
                        v.as_u64()
                            .map(Some)
                            .ok_or_else(|| err(format!("field '{key}' has a non-u64 element")))
                    }
                })
                .collect()
        }

        fn finish(self) -> Result<(), ParseError> {
            for (i, (k, _)) in self.pairs.iter().enumerate() {
                if !self.used[i] {
                    return Err(err(format!("unknown field '{k}'")));
                }
            }
            Ok(())
        }
    }

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

    pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
        let value = serde_json::from_str(line).map_err(|e| err(e.to_string()))?;
        let mut f = Fields::new(&value)?;
        let ev = f.str("ev")?.to_string();
        let event = match ev.as_str() {
            "meta" => {
                let schema = f.u64("schema")?;
                if schema != SCHEMA_VERSION {
                    return Err(err(format!(
                        "unsupported trace schema {schema} (this build reads {SCHEMA_VERSION})"
                    )));
                }
                TraceEvent::Meta(Box::new(Meta {
                    schema,
                    topo: f.str("topo")?.to_string(),
                    workload: f.str("workload")?.to_string(),
                    algo: f.str("algo")?.to_string(),
                    seed: f.u64("seed")?,
                    arrival: f.str("arrival")?.to_string(),
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
                dir: match f.str("dir")? {
                    "F" => Direction::Forward,
                    "B" => Direction::Backward,
                    other => return Err(err(format!("unknown direction '{other}'"))),
                },
                kind: parse_kind(f.str("kind")?)?,
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
                section: f.str("section")?.to_string(),
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
        f.finish()?;
        Ok(event)
    }

    pub fn parse_rollup(text: &str) -> Result<Rollup, ParseError> {
        let value = serde_json::from_str(text).map_err(|e| err(e.to_string()))?;
        let mut f = Fields::new(&value)?;
        let rollup = Rollup {
            schema: f.u64("schema")?,
            run: f.str("run")?.to_string(),
            seq: f.u64("seq")?,
            finished: f.bool("finished")?,
            rollup: f.take("rollup")?.clone(),
        };
        if rollup.schema != SCHEMA_VERSION {
            return Err(err(format!(
                "unsupported rollup schema {} (this build reads {SCHEMA_VERSION})",
                rollup.schema
            )));
        }
        f.finish()?;
        Ok(rollup)
    }
}

/// One line per event variant and move kind, as the emitters write them.
const CANONICAL: &[&str] = &[
    r#"{"ev":"meta","schema":5,"topo":"bf:3","workload":"bitrev","algo":"busch","seed":7,"arrival":"","packets":8,"levels":4,"congestion":2,"dilation":3}"#,
    r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"F","kind":"adv"}"#,
    r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"B","kind":"def-safe"}"#,
    r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"B","kind":"def-free"}"#,
    r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"F","kind":"osc"}"#,
    r#"{"ev":"move","t":4,"pkt":2,"edge":9,"dir":"F","kind":"inj"}"#,
    r#"{"ev":"trivial","t":0,"pkt":5}"#,
    r#"{"ev":"deliver","t":6,"pkt":2}"#,
    r#"{"ev":"arrival","t":6,"pkt":2}"#,
    r#"{"ev":"drop","t":6,"pkt":2}"#,
    r#"{"ev":"step","t":4,"moved":3,"absorbed":1,"injected":0,"deflections":1,"fallback":0,"oscillations":1,"active":2}"#,
    r#"{"ev":"sets","num_sets":2,"sets":[0,1,0]}"#,
    r#"{"ev":"phase_start","phase":3,"t":36}"#,
    r#"{"ev":"phase_end","phase":3,"t":48}"#,
    r#"{"ev":"frontier","phase":3,"set":1,"frontier":-2}"#,
    r#"{"ev":"congestion","phase":3,"set":1,"congestion":4,"initial":5}"#,
    r#"{"ev":"section","section":"conflict","nanos":1234}"#,
    r#"{"ev":"snapshot","phase":3,"t":36,"state":[0,1,3],"nodes":[7,2],"prev_forward":[4294967295,9],"moves":12,"forward":8,"backward":4,"deflections":1,"oscillations":2,"trivial":0,"num_sets":2}"#,
    r#"{"ev":"stats","steps":7,"injected_at":[0,null],"delivered_at":[5,null],"deflections":[1,0]}"#,
];

/// The number forms the mutator writes over a number in the line.
const NUMBERS: &[&str] = &[
    "-0",
    "007",
    "1.0",
    "1e3",
    "4294967296",
    "18446744073709551616",
    "-1",
    "-00",
    "00",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "99999999999999999999999999",
    "1E+2",
    "1.",
    "-",
    "1e",
    "1-2",
    "1..2",
    "-1.5e-3",
];

/// Bytes the mutator flips to or inserts: JSON structure first, then
/// characters that are almost JSON.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '\t', '\r', '\n', '-', '+', '.', 'e', 'E', '0',
    '1', '9', 'n', 't', 'f', 'u', 'a', '/', '\u{b}', '\u{c}', '\u{a0}', '\0', 'é', '€', '😀',
];

/// Whitespace the grammar accepts, for the whitespace mutation.
const SPACES: &[&str] = &[" ", "\t", "\r", "\n", "  \t"];

/// A random JSON value for an unknown member (nested up to `depth`).
fn random_value(rng: &mut ChaCha8Rng, depth: u32, out: &mut String) {
    let pick = if depth == 0 {
        rng.gen_range(0..4)
    } else {
        rng.gen_range(0..6)
    };
    match pick {
        0 => out.push_str(["null", "true", "false"].choose(rng).unwrap()),
        1 => out.push_str(NUMBERS[..16].choose(rng).unwrap()),
        2 => out.push_str(r#""s\"é\n""#),
        3 => out.push_str(r#""plain""#),
        4 => {
            out.push('[');
            for i in 0..rng.gen_range(0..4) {
                if i > 0 {
                    out.push(',');
                }
                random_value(rng, depth - 1, out);
            }
            out.push(']');
        }
        _ => {
            out.push('{');
            for i in 0..rng.gen_range(0..4) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"k{i}\":"));
                random_value(rng, depth - 1, out);
            }
            out.push('}');
        }
    }
}

/// A JSON string literal for `s`, escaping some characters as `\u`
/// (in either hex case, or with the `+` form the grammar accepts).
fn escaped_key(rng: &mut ChaCha8Rng, s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if rng.gen_bool(0.4) {
            match rng.gen_range(0..4) {
                0 => out.push_str(&format!("\\u{:04x}", c as u32)),
                1 => out.push_str(&format!("\\u{:04X}", c as u32)),
                2 => out.push_str(&format!("\\u+{:03x}", c as u32)),
                _ => out.push_str(
                    ["\\uD83D", "\\u00e9", "\\/", "\\u12", "\\x41"]
                        .choose(rng)
                        .unwrap(),
                ),
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// Renders `v` with random whitespace around every token.
fn spaced(rng: &mut ChaCha8Rng, v: &Value, out: &mut String) {
    let ws = |rng: &mut ChaCha8Rng, out: &mut String| {
        if rng.gen_bool(0.3) {
            out.push_str(SPACES.choose(rng).unwrap());
        }
    };
    ws(rng, out);
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    ws(rng, out);
                    out.push(',');
                }
                spaced(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    ws(rng, out);
                    out.push(',');
                }
                ws(rng, out);
                out.push_str(&Value::String(k.clone()).to_compact_string());
                ws(rng, out);
                out.push(':');
                spaced(rng, item, out);
            }
            ws(rng, out);
            out.push('}');
        }
        other => out.push_str(&other.to_compact_string()),
    }
    ws(rng, out);
}

/// The members of `line` as `(key literal, value text)`, for the
/// structural mutations.
fn members(line: &str) -> Vec<(String, String)> {
    match serde_json::from_str(line) {
        Ok(Value::Object(m)) => m
            .into_iter()
            .map(|(k, v)| (Value::String(k).to_compact_string(), v.to_compact_string()))
            .collect(),
        _ => Vec::new(),
    }
}

fn join(members: &[(String, String)]) -> String {
    let body: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// One seeded mutation of `line`.
fn mutate(rng: &mut ChaCha8Rng, line: &str) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    match rng.gen_range(0..12) {
        // Byte flip, insert, delete.
        0 if !chars.is_empty() => {
            let i = rng.gen_range(0..chars.len());
            chars[i] = *ALPHABET.choose(rng).unwrap();
        }
        1 => {
            let i = rng.gen_range(0..=chars.len());
            chars.insert(i, *ALPHABET.choose(rng).unwrap());
        }
        2 if !chars.is_empty() => {
            let i = rng.gen_range(0..chars.len());
            let n = rng.gen_range(1..=3).min(chars.len() - i);
            chars.drain(i..i + n);
        }
        // Member reorder.
        3 => {
            let mut m = members(line);
            m.shuffle(rng);
            return join(&m);
        }
        // Whitespace around every token.
        4 => {
            if let Ok(v) = serde_json::from_str(line) {
                let mut out = String::new();
                spaced(rng, &v, &mut out);
                return out;
            }
        }
        // A duplicated key, with the same or another value.
        5 => {
            let mut m = members(line);
            if let Some(dup) = m.choose(rng).cloned() {
                let value = if rng.gen_bool(0.5) {
                    dup.1
                } else {
                    NUMBERS.choose(rng).unwrap().to_string()
                };
                let at = rng.gen_range(0..=m.len());
                m.insert(at, (dup.0, value));
            }
            return join(&m);
        }
        // Keys (and the `ev` value) written with `\u` escapes.
        6 => {
            let mut m = members(line);
            for (k, v) in &mut m {
                if rng.gen_bool(0.5) {
                    let plain: String = serde_json::from_str(k)
                        .ok()
                        .and_then(|k| k.as_str().map(str::to_string))
                        .unwrap_or_default();
                    *k = escaped_key(rng, &plain);
                }
                if let Some(s) = serde_json::from_str(v)
                    .ok()
                    .and_then(|v| v.as_str().map(str::to_string))
                {
                    if rng.gen_bool(0.3) {
                        *v = escaped_key(rng, &s);
                    }
                }
            }
            return join(&m);
        }
        // An unknown member holding a nested value.
        7 => {
            let mut m = members(line);
            let mut value = String::new();
            random_value(rng, 3, &mut value);
            let at = rng.gen_range(0..=m.len());
            m.insert(at, (format!("\"x{}\"", rng.gen_range(0..3)), value));
            return join(&m);
        }
        // The number forms, written over one number of the line.
        8 => {
            let runs: Vec<(usize, usize)> = number_runs(&chars);
            if let Some(&(a, b)) = runs.choose(rng) {
                let form: Vec<char> = NUMBERS.choose(rng).unwrap().chars().collect();
                chars.splice(a..b, form);
            }
        }
        // Trailing garbage.
        9 => {
            let tail = [
                " ", "x", ",", "}", "{}", " \t", "\u{a0}", "//", "\0", "null",
            ];
            chars.extend(tail.choose(rng).unwrap().chars());
        }
        // Truncation.
        10 if !chars.is_empty() => {
            let n = rng.gen_range(0..chars.len());
            chars.truncate(n);
        }
        // A value of another type.
        _ => {
            let mut m = members(line);
            if !m.is_empty() {
                let i = rng.gen_range(0..m.len());
                let mut value = String::new();
                random_value(rng, 1, &mut value);
                m[i].1 = value;
            }
            return join(&m);
        }
    }
    chars.into_iter().collect()
}

/// Maximal `-?[0-9]+` runs, as char index ranges.
fn number_runs(chars: &[char]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if chars[i].is_ascii_digit() {
            let start = if i > 0 && chars[i - 1] == '-' {
                i - 1
            } else {
                i
            };
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Tallies of what the mutated lines did, so the test can check that
/// every outcome was exercised.
#[derive(Default, Debug)]
struct Tally {
    ok: usize,
    syntax: usize,
    field: usize,
}

fn is_syntax(e: &ParseError) -> bool {
    e.msg.starts_with("JSON error")
}

/// Both parsers agree on `input`: equal values, or errors on the same
/// input with equal field-level messages.
fn agree<T: PartialEq + std::fmt::Debug>(
    input: &str,
    old: Result<T, ParseError>,
    new: Result<T, ParseError>,
    tally: &mut Tally,
) {
    match (old, new) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "different values for {input:?}");
            tally.ok += 1;
        }
        (Err(a), Err(b)) => {
            assert_eq!(is_syntax(&a), is_syntax(&b), "{input:?}: {a} vs {b}");
            if is_syntax(&a) {
                tally.syntax += 1;
            } else {
                assert_eq!(a.msg, b.msg, "different field errors for {input:?}");
                tally.field += 1;
            }
        }
        (a, b) => panic!("the parsers disagree on {input:?}: {a:?} vs {b:?}"),
    }
}

/// Mutates every base line `per_line` times (1 to 3 stacked mutations
/// each) and checks both parsers agree on every result.
fn run_lines(bases: &[String], per_line: usize, seed: u64) -> Tally {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for base in bases {
        agree(base, oracle::parse_line(base), parse_line(base), &mut tally);
        for _ in 0..per_line {
            let mut line = mutate(&mut rng, base);
            for _ in 0..rng.gen_range(0..3) {
                line = mutate(&mut rng, &line);
            }
            agree(
                &line,
                oracle::parse_line(&line),
                parse_line(&line),
                &mut tally,
            );
        }
    }
    tally
}

fn recorded_lines() -> Vec<String> {
    let (text, _) = common::record_busch_snapshots("bf:6", "bitrev", 3);
    text.lines().map(str::to_string).collect()
}

#[test]
fn canonical_line_mutations_parse_identically() {
    let bases: Vec<String> = CANONICAL.iter().map(ToString::to_string).collect();
    let tally = run_lines(&bases, 3_000, 1);
    assert!(tally.ok + tally.syntax + tally.field >= 57_000, "{tally:?}");
    for n in [tally.ok, tally.syntax, tally.field] {
        assert!(n >= 5_000, "every outcome must be exercised: {tally:?}");
    }
}

#[test]
fn recorded_trace_mutations_parse_identically() {
    let bases = recorded_lines();
    let kinds: std::collections::BTreeSet<&str> = bases
        .iter()
        .filter_map(|l| parse_line(l).ok())
        .map(|e| e.ev())
        .collect();
    for ev in [
        "meta", "move", "deliver", "step", "sets", "snapshot", "stats",
    ] {
        assert!(kinds.contains(ev), "the recorded trace has no {ev} line");
    }
    let tally = run_lines(&bases, 2, 2);
    assert!(tally.ok + tally.syntax + tally.field >= 45_000, "{tally:?}");
    for n in [tally.ok, tally.syntax, tally.field] {
        assert!(n >= 3_000, "every outcome must be exercised: {tally:?}");
    }
}

#[test]
fn field_errors_keep_their_messages() {
    let cases = [
        (
            r#"{"ev":"deliver","t":1,"pkt":2,"x":{"a":[1,{}]}}"#,
            "unknown field 'x'",
        ),
        (
            r#"{"ev":"deliver","t":1,"t":1,"pkt":2}"#,
            "unknown field 't'",
        ),
        (r#"{"ev":"deliver","t":1}"#, "missing field 'pkt'"),
        (
            r#"{"ev":"deliver","t":-1,"pkt":2}"#,
            "field 't' is not an unsigned integer",
        ),
        (
            r#"{"ev":"deliver","t":1.0,"pkt":2}"#,
            "field 't' is not an unsigned integer",
        ),
        (
            r#"{"ev":"deliver","t":1,"pkt":4294967296}"#,
            "field 'pkt' overflows u32",
        ),
        (
            r#"{"ev":"sets","num_sets":1,"sets":[0,-1]}"#,
            "field 'sets' has a non-u32 element",
        ),
        (r#"[1,2]"#, "not a JSON object"),
        (
            r#"{"ev":"meta","schema":3}"#,
            "unsupported trace schema 3 (this build reads 5)",
        ),
    ];
    for (line, msg) in cases {
        assert_eq!(parse_line(line).unwrap_err().msg, msg, "{line}");
        assert_eq!(oracle::parse_line(line).unwrap_err().msg, msg, "{line}");
    }
    // Escaped keys and values, `-0` and `007` parse as the old parser
    // read them.
    let line = r#"{"ev":"deliver","t":-0,"pkt":007}"#;
    assert_eq!(
        parse_line(line).unwrap(),
        TraceEvent::Deliver { t: 0, pkt: 7 }
    );
    assert_eq!(
        oracle::parse_line(line).unwrap(),
        TraceEvent::Deliver { t: 0, pkt: 7 }
    );
}

#[test]
fn rollup_mutations_parse_identically() {
    let bases = [
        r#"{"schema":5,"run":"bf10-bitrev","seq":17,"finished":true,"rollup":{"cap":64,"xs":[1,-2,2.5e3,null,"s\n"],"o":{}}}"#.to_string(),
        r#"{"schema":5,"run":"r","seq":0,"finished":false,"rollup":[]}"#.to_string(),
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut tally = Tally::default();
    for base in &bases {
        for _ in 0..5_000 {
            let mut doc = mutate(&mut rng, base);
            if rng.gen_bool(0.3) {
                doc = mutate(&mut rng, &doc);
            }
            agree(
                &doc,
                oracle::parse_rollup(&doc),
                parse_rollup(&doc),
                &mut tally,
            );
        }
    }
    for n in [tally.ok, tally.syntax, tally.field] {
        assert!(n >= 500, "every outcome must be exercised: {tally:?}");
    }
}

#[test]
fn whole_traces_fail_on_the_same_line() {
    let lines = recorded_lines();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for _ in 0..6 {
        let mut corrupt = lines.clone();
        let i = rng.gen_range(0..corrupt.len());
        corrupt[i] = mutate(&mut rng, &corrupt[i]);
        let text = corrupt.join("\n") + "\n";
        let old: Result<Vec<TraceEvent>, ParseError> = text
            .lines()
            .enumerate()
            .map(|(n, l)| {
                if l.trim().is_empty() {
                    return Err(ParseError {
                        line: n + 1,
                        msg: "blank line in trace".into(),
                    });
                }
                oracle::parse_line(l).map_err(|mut e| {
                    e.line = n + 1;
                    e
                })
            })
            .collect();
        match (old, Trace::parse(&text)) {
            (Ok(a), Ok(b)) => assert_eq!(a, b.events),
            (Err(a), Err(b)) => {
                assert_eq!(a.line, b.line);
                assert_eq!(is_syntax(&a), is_syntax(&b), "{a} vs {b}");
                if !is_syntax(&a) {
                    assert_eq!(a.msg, b.msg);
                }
            }
            (a, b) => panic!("line {i}: {:?} vs {:?}", a.err(), b.err()),
        }
    }
}
