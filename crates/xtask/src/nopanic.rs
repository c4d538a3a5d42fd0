//! Panic-freedom lint (`no-panic`).
//!
//! A fn marked `// lint: no-panic` is a region root: neither its body
//! nor any first-party fn in its transitive callee closure may contain a
//! panic source. The serve request loop, the snapshot exchange, and the
//! streaming admission path carry this marker — a malformed HTTP request
//! or a queue hiccup must surface as an error response or a drop, never
//! as a dead worker thread.
//!
//! Panic sources recognized (token shapes, comments/strings opaque):
//!
//! * the panicking macros — `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!`
//!   (`debug_assert*` is exempt: compiled out of release builds);
//! * `.unwrap(` / `.expect(` method calls (`unwrap_or`, `unwrap_or_else`,
//!   `expect_err` are distinct identifiers and do not match);
//! * `[…]`-indexing — a `[` whose preceding code token is an identifier,
//!   `)` or `]` (slice/array/map indexing can panic; type positions like
//!   `&mut [u8]` and attribute `#[…]` do not match the shape).
//!
//! # Escape hatch
//!
//! A site-level `// lint: allow-panic(reason)` comment suppresses panic
//! sources on its own line or the line directly below. The reason is
//! mandatory (an empty one is itself a diagnostic) and every suppressed
//! site is counted: `cargo xtask lint` reports the count in its summary
//! table, so the workspace's residual panic surface is a number in every
//! CI log, not a diff archaeology exercise.
//!
//! A second, fn-level valve exists for the engine substrate:
//! `// lint: panics-by-design(reason)` marks a fn whose panics *are*
//! invariant assertions (dense-array indexing in the step engine,
//! exercised by the golden suites). The no-panic closure
//! neither scans such a fn nor descends into it — but unlike
//! `// lint: trusted(reason)`, the marker is invisible to the other
//! closures, so the hot-path allocation sweep still covers the engine.
//!
//! Unresolved calls (std, vendored) are assumed panic-free at the
//! boundary — the caller's *reason to call them with panic-safe inputs*
//! is exactly what the reachable first-party code is checked for.

use crate::callgraph::CallGraph;
use crate::lexer::{Tok, TokKind};
use crate::{Config, Diagnostic};

/// Lint name used in diagnostics.
pub const LINT: &str = "no-panic";

/// The site-level escape-hatch marker prefix.
pub const ALLOW: &str = "lint: allow-panic";

/// Macros that unwind.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Identifiers that may legitimately precede a `[` without forming an
/// indexing expression (`&mut [u8]`, `let x: [u8; 4]`, `in [a, b]`, …).
const NONINDEX_BEFORE_BRACKET: &[&str] = &[
    "mut", "dyn", "ref", "in", "as", "return", "break", "else", "match", "if", "while", "let",
    "const", "static", "move", "where", "impl", "for", "box", "await", "yield",
];

/// Lints the transitive closure of every `// lint: no-panic` fn,
/// returning the diagnostics and the count of `allow-panic` suppressed
/// sites (surfaced in the lint summary table).
pub fn check_counted(cfg: &Config) -> (Vec<Diagnostic>, usize) {
    check_graph(&CallGraph::build(cfg))
}

/// Plain entry point for fixture dispatch.
pub fn check(cfg: &Config) -> Vec<Diagnostic> {
    check_counted(cfg).0
}

/// Graph-reusing entry point.
pub fn check_graph(g: &CallGraph) -> (Vec<Diagnostic>, usize) {
    let roots = g.marked("no-panic");
    let (reach, _cuts) = g.reachable_cut(&roots, &["trusted", "panics-by-design"]);
    let mut diags = Vec::new();
    let mut allowed = 0usize;
    for (&id, parent) in &reach {
        let f = &g.fns[id];
        if f.has_marker("trusted") || f.has_marker("panics-by-design") {
            continue;
        }
        let toks = &g.files[f.file].toks;
        let body = &toks[f.body.0.min(toks.len())..f.body.1.min(toks.len())];
        let allows = allow_lines(body, &f.rel, &mut diags);
        for (line, shape) in panic_sites(body) {
            if allows.contains(&line) || allows.contains(&line.saturating_sub(1)) {
                allowed += 1;
                continue;
            }
            let msg = match parent {
                None => format!("no-panic fn `{}` uses `{shape}` (can panic)", f.name),
                Some(_) => {
                    let chain = g.chain(&reach, id);
                    let root = chain.split(" → ").next().unwrap_or("?");
                    format!(
                        "fn `{}`, reached from no-panic fn `{root}` via {chain}, \
                         uses `{shape}` (can panic)",
                        f.name
                    )
                }
            };
            diags.push(Diagnostic {
                file: f.rel.clone(),
                line,
                lint: LINT,
                msg,
            });
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    (diags, allowed)
}

/// Collects the lines carrying a well-formed `allow-panic(reason)`
/// marker in `body`; malformed markers (no reason) become diagnostics.
fn allow_lines(body: &[Tok], rel: &str, diags: &mut Vec<Diagnostic>) -> Vec<usize> {
    let mut lines = Vec::new();
    for t in body {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let text = t.text.trim_start_matches('/').trim();
        let Some(rest) = text.strip_prefix(ALLOW) else {
            continue;
        };
        let reason = rest
            .trim()
            .strip_prefix('(')
            .and_then(|r| r.strip_suffix(')'))
            .map_or("", str::trim);
        if reason.is_empty() {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: t.line,
                lint: LINT,
                msg: "allow-panic marker must carry a reason: `// lint: allow-panic(why)`".into(),
            });
        } else {
            lines.push(t.line);
        }
    }
    lines
}

/// Every panic source in `body`, as `(line, shape)` pairs.
pub fn panic_sites(body: &[Tok]) -> Vec<(usize, String)> {
    let code: Vec<&Tok> = body.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let t = code[i];
        // Panicking macro: `name !` (not `name ! =`, which cannot occur).
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push((t.line, format!("{}!", t.text)));
            i += 2;
            continue;
        }
        // `.unwrap(` / `.expect(`.
        if t.is_punct('.') {
            if let Some(name) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                if (name.text == "unwrap" || name.text == "expect")
                    && code.get(i + 2).is_some_and(|n| n.is_punct('('))
                {
                    out.push((name.line, format!(".{}()", name.text)));
                    i += 3;
                    continue;
                }
            }
        }
        // Indexing: `expr [ … ]` — `[` preceded by an expression-ending
        // token. Keyword predecessors (`&mut [u8]`, `in [a]`) and
        // attribute `# [` are not indexing.
        if t.is_punct('[') && i > 0 {
            let prev = code[i - 1];
            let indexing = match prev.kind {
                TokKind::Ident => !NONINDEX_BEFORE_BRACKET.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if indexing {
                out.push((t.line, "[...] indexing".to_string()));
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn graph(src: &str) -> CallGraph {
        let mut g = CallGraph::empty();
        g.add_file("crates/demo/src/lib.rs".into(), "demo".into(), src);
        g.index();
        g
    }

    fn rendered(src: &str) -> (Vec<String>, usize) {
        let (diags, allowed) = check_graph(&graph(src));
        (diags.iter().map(ToString::to_string).collect(), allowed)
    }

    #[test]
    fn unwrap_in_marked_fn_fires() {
        let (diags, _) =
            rendered("// lint: no-panic\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
        assert_eq!(
            diags,
            ["crates/demo/src/lib.rs:3: [no-panic] no-panic fn `f` uses `.unwrap()` (can panic)"]
        );
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let (diags, _) = rendered(
            "// lint: no-panic\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap_or_else(|| 0)\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn transitive_panic_is_flagged_with_chain() {
        let (diags, _) = rendered(
            "// lint: no-panic\nfn f() { helper(); }\nfn helper() { panic!(\"boom\"); }\n",
        );
        assert_eq!(
            diags,
            [
                "crates/demo/src/lib.rs:3: [no-panic] fn `helper`, reached from no-panic \
              fn `f` via f → helper, uses `panic!` (can panic)"
            ]
        );
    }

    #[test]
    fn indexing_fires_but_type_positions_do_not() {
        let (diags, _) = rendered(
            "// lint: no-panic\nfn f(v: &[u32], s: &mut [u8]) -> u32 {\n    let _: [u8; 2] = [0; 2];\n    v[0]\n}\n",
        );
        assert_eq!(
            diags,
            ["crates/demo/src/lib.rs:4: [no-panic] no-panic fn `f` uses `[...] indexing` (can panic)"]
        );
    }

    #[test]
    fn allow_panic_with_reason_suppresses_and_counts() {
        let (diags, allowed) = rendered(
            "// lint: no-panic\nfn f(x: Option<u32>) -> u32 {\n    // lint: allow-panic(validated at launch)\n    x.expect(\"validated\")\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(allowed, 1);
    }

    #[test]
    fn allow_panic_without_reason_is_a_diagnostic() {
        let (diags, allowed) = rendered(
            "// lint: no-panic\nfn f(x: Option<u32>) -> u32 {\n    // lint: allow-panic\n    x.unwrap()\n}\n",
        );
        assert_eq!(allowed, 0);
        assert_eq!(
            diags.len(),
            2,
            "missing reason + unsuppressed unwrap: {diags:?}"
        );
        assert!(diags[0].contains("must carry a reason"), "{diags:?}");
    }

    #[test]
    fn unmarked_fn_may_panic() {
        let (diags, _) = rendered("fn f() { panic!(\"fine\"); }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn debug_assert_is_exempt() {
        let (diags, _) = rendered("// lint: no-panic\nfn f(x: u32) { debug_assert!(x > 0); }\n");
        assert!(diags.is_empty(), "{diags:?}");
    }
}
