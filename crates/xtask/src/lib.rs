//! Repo-specific static analysis (`cargo xtask lint`).
//!
//! Six custom lints that no off-the-shelf tool can express, each
//! enforcing an invariant this codebase's correctness story leans on.
//! Three are per-function token lints:
//!
//! * [`hotpath`] — functions annotated `// lint: hot-path` (the engine
//!   step, conflict-resolution, and kinematics paths) must stay free of
//!   per-call allocation: no `Vec::new`, `vec![]`, `Box::new`,
//!   `.clone()`, `.collect()`, `.to_vec()`, `format!`, or `String`
//!   construction inside the annotated body.
//! * [`schemafp`] — the normalized token streams of the `TraceEvent` /
//!   envelope types in `crates/hotpotato-sim/src/event.rs` and of the binary
//!   codec (`Tag`, `encode_event`, `decode_event` in
//!   `crates/trace/src/binary.rs`) are hashed against a committed
//!   fingerprint; any drift without a `SCHEMA_VERSION` bump in the same
//!   change fails the lint (`--bless` re-commits the pair).
//! * [`coverage`] — every bufferless invariant enumerated in
//!   `crates/core/src/invariants.rs` (`BUFFERLESS_INVARIANTS`) must have
//!   a matching `// check: <id>` tag in `crates/trace/src/verify.rs`, so
//!   no invariant silently drops out of offline verification.
//!
//! Three are *interprocedural*, built on a workspace-wide [`callgraph`]:
//!
//! * [`closure`] — `hot-path-alloc` extended to the transitive callee
//!   closure of every hot-path fn, so helpers can't smuggle allocations.
//! * [`nopanic`] — fns marked `// lint: no-panic` (serve request loop,
//!   snapshot exchange, streaming admission) and everything they reach
//!   must be free of `panic!`/`unwrap`/`expect`/`assert!`/indexing,
//!   modulo counted `// lint: allow-panic(reason)` sites.
//! * [`determinism`] — result-affecting crates may not iterate hash
//!   collections, read wall clocks outside `// lint: telemetry` fns, or
//!   use randomly seeded hashers.
//!
//! Each lint ships with a seeded-violation fixture under `fixtures/`;
//! `cargo xtask fixtures` (and `tests/lints.rs`) assert the exact
//! diagnostic, file and line the violation must produce.

pub mod callgraph;
pub mod closure;
pub mod coverage;
pub mod determinism;
pub mod hotpath;
pub mod lexer;
pub mod nopanic;
pub mod schemafp;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, attributed to a repo-relative file and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the lint root (forward slashes).
    pub file: String,
    /// 1-based line (0 = whole-file property).
    pub line: usize,
    /// Lint name (`hot-path-alloc`, `schema-drift`, `invariant-coverage`).
    pub lint: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.msg
        )
    }
}

/// Where the lints look. All paths are derived from `root`, so the
/// seeded-violation fixtures can run the very same lint code over a
/// miniature tree that mirrors the repo layout.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root (the directory containing `Cargo.toml`).
    pub root: PathBuf,
}

impl Config {
    /// A config rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Config { root: root.into() }
    }

    /// The version-pinned trace schema definition.
    pub fn schema_rs(&self) -> PathBuf {
        self.root.join("crates/hotpotato-sim/src/event.rs")
    }

    /// The binary trace codec, pinned alongside the schema (absent in
    /// fixture trees that predate the binary framing).
    pub fn binary_rs(&self) -> PathBuf {
        self.root.join("crates/trace/src/binary.rs")
    }

    /// The committed schema fingerprint.
    pub fn fingerprint_file(&self) -> PathBuf {
        self.root.join("crates/xtask/schema.fingerprint")
    }

    /// The bufferless-invariant registry.
    pub fn invariants_rs(&self) -> PathBuf {
        self.root.join("crates/core/src/invariants.rs")
    }

    /// The offline trace verifier carrying the `// check:` tags.
    pub fn verify_rs(&self) -> PathBuf {
        self.root.join("crates/trace/src/verify.rs")
    }

    /// Repo-relative display form of `path` (forward slashes).
    pub fn rel(&self, path: &Path) -> String {
        path.strip_prefix(&self.root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/")
    }
}

/// Recursively collects the first-party `.rs` files under `root`:
/// `crates/*/src`, `crates/*/tests`, `src/`, `tests/`, `examples/` —
/// skipping `target`, the vendored workalikes, and the xtask lint
/// fixtures (which contain violations on purpose).
pub fn workspace_rs_files(cfg: &Config) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs(&cfg.root.join(top), &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == "vendor" {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// FNV-1a 64-bit over a byte stream: stable, dependency-free, and good
/// enough to pin a token stream (this is a drift detector, not a
/// cryptographic commitment).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_formats_as_file_line_lint() {
        let d = Diagnostic {
            file: "crates/foo/src/lib.rs".into(),
            line: 42,
            lint: "hot-path-alloc",
            msg: "calls `.clone()`".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/foo/src/lib.rs:42: [hot-path-alloc] calls `.clone()`"
        );
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn workspace_walk_finds_this_file_but_not_fixtures() {
        let cfg = Config::new(env!("CARGO_MANIFEST_DIR").to_string() + "/../..");
        let files = workspace_rs_files(&cfg);
        assert!(files.iter().any(|p| p.ends_with("crates/xtask/src/lib.rs")));
        assert!(!files.iter().any(|p| p
            .components()
            .any(|c| { c.as_os_str() == "fixtures" || c.as_os_str() == "vendor" })));
    }
}
