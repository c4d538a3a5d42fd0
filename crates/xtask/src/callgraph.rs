//! Workspace-wide call graph over the hand-rolled lexer.
//!
//! The PR 4 lints check annotated function bodies *intraprocedurally*: a
//! `// lint: hot-path` fn may not allocate, but a helper it calls can,
//! unseen. This module upgrades the lint substrate to an
//! *interprocedural* one: a lightweight item parser walks every
//! first-party `.rs` file's token stream, records each `fn` item (name,
//! impl owner, body span, attached `// lint:` markers, test-ness), and
//! extracts its call sites; a resolution pass then links calls to
//! first-party definitions, and a deterministic BFS computes the
//! transitive callee closure of any marker-selected root set.
//!
//! # Resolution rules (and their conservatism policy)
//!
//! No type information exists at the token level, so resolution is by
//! path shape, documented here and in DESIGN.md §14:
//!
//! * **Plain calls** `name(...)` resolve to free fns named `name` in the
//!   caller's crate, else (a `use`-imported cross-crate call) to free fns
//!   with that name in any first-party crate.
//! * **Path calls** `q::name(...)` resolve via the qualifier: a leading
//!   `crate`/`self`/`super` restricts to the caller's crate; a leading
//!   first-party crate ident (`hotpotato_sim::...`) selects that crate;
//!   `Self::name` uses the caller's impl owner; otherwise `q` is matched
//!   as an impl/trait owner (`SoaEngine::new`) or a module file stem
//!   (`conflict::resolve_into`) — first in the caller's crate, then
//!   workspace-wide. A qualifier naming a first-party trait
//!   (`RouteObserver::on_move(o, …)`) also resolves to that method in
//!   every `impl Trait for T` across the workspace, the same
//!   over-approximation method calls get. A qualifier matching nothing
//!   first-party (e.g. `String::from`) stays **unresolved**: explicit
//!   foreign paths are never folded onto same-named local fns.
//! * **Method calls** `.name(...)` resolve to every impl/trait method
//!   named `name` in the caller's crate (receiver types are unknown, so
//!   this over-approximates across owners and never crosses crates).
//! * **Unresolved calls** (std / vendored externals) are skipped: each
//!   lint states what it assumes about them.
//! * `#[cfg(test)] mod` bodies, `tests/`, `examples/` and `benches/`
//!   files never contribute roots or resolution candidates.
//!
//! A fn marked `// lint: trusted(reason)` is a traversal cut: closures
//! do not scan its body or descend into its callees (the escape hatch
//! for code whose safety argument lives outside the token stream).
//! Trusted cuts are counted and surfaced in the lint summary table.

use crate::lexer::{lex, Tok, TokKind};
use crate::Config;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Crate ident (`hotpotato_sim`), from the owning `Cargo.toml`
    /// `name` (dashes mapped to underscores), else the directory name.
    pub crate_name: String,
    /// Repo-relative file path (forward slashes).
    pub rel: String,
    /// Index of the file in [`CallGraph::files`].
    pub file: usize,
    /// The fn name.
    pub name: String,
    /// Impl/trait owner type when the fn is a method or trait default.
    pub owner: Option<String>,
    /// The trait of the `impl Trait for T` block the fn sits in.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `// lint:` markers attached to this fn (`hot-path`, `no-panic`,
    /// `telemetry`, `trusted(...)`).
    pub markers: Vec<String>,
    /// Inside `#[cfg(test)]`/`mod tests`, or a tests/examples/benches
    /// file: excluded from roots and resolution candidates.
    pub in_test: bool,
    /// Body token range `[open+1, close)` in the file's token stream.
    pub body: (usize, usize),
}

impl FnInfo {
    /// Whether this fn carries the given fn-level marker (exact match,
    /// or `name(...)` for parameterized markers like `trusted`).
    pub fn has_marker(&self, name: &str) -> bool {
        self.markers
            .iter()
            .any(|m| m == name || (m.starts_with(name) && m[name.len()..].starts_with('(')))
    }
}

/// One call site extracted from a fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Path segments (`["conflict", "resolve_into"]`; method calls have
    /// exactly one).
    pub segs: Vec<String>,
    /// `.name(...)` receiver call.
    pub method: bool,
    /// 1-based source line.
    pub line: usize,
}

/// One lexed file.
pub struct FileToks {
    /// Repo-relative path.
    pub rel: String,
    /// Token stream.
    pub toks: Vec<Tok>,
}

/// The workspace call graph: every first-party fn, its call sites, and
/// the indices resolution needs.
pub struct CallGraph {
    /// Lexed files, sorted by path.
    pub files: Vec<FileToks>,
    /// Parsed fns, sorted by (file, line).
    pub fns: Vec<FnInfo>,
    /// Call sites per fn (parallel to `fns`).
    pub calls: Vec<Vec<CallSite>>,
    crates: BTreeSet<String>,
    free_by_crate: BTreeMap<(String, String), Vec<usize>>,
    free_by_module: BTreeMap<(String, String, String), Vec<usize>>,
    methods_by_crate: BTreeMap<(String, String), Vec<usize>>,
    methods_by_owner: BTreeMap<(String, String, String), Vec<usize>>,
    /// `(trait, method)` → the method in every `impl Trait for T`.
    methods_by_trait: BTreeMap<(String, String), Vec<usize>>,
}

/// Keywords that can never be a call-position identifier.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "mut", "ref", "move", "as",
    "use", "pub", "impl", "where", "unsafe", "dyn", "break", "continue", "else", "struct", "enum",
    "union", "trait", "type", "const", "static", "mod", "true", "false", "async", "await",
];

impl CallGraph {
    /// An empty graph, to be populated with [`CallGraph::add_file`] and
    /// finalized with [`CallGraph::index`] (unit tests build miniature
    /// graphs from source strings this way).
    pub fn empty() -> CallGraph {
        CallGraph {
            files: Vec::new(),
            fns: Vec::new(),
            calls: Vec::new(),
            crates: BTreeSet::new(),
            free_by_crate: BTreeMap::new(),
            free_by_module: BTreeMap::new(),
            methods_by_crate: BTreeMap::new(),
            methods_by_owner: BTreeMap::new(),
            methods_by_trait: BTreeMap::new(),
        }
    }

    /// Parses every first-party `.rs` file under `cfg.root` and builds
    /// the graph. Deterministic: files are walked sorted, fns recorded
    /// in source order.
    pub fn build(cfg: &Config) -> CallGraph {
        let mut g = CallGraph::empty();
        let mut crate_names: BTreeMap<String, String> = BTreeMap::new();
        for path in crate::workspace_rs_files(cfg) {
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            let rel = cfg.rel(&path);
            let crate_name = crate_name_for(cfg, &rel, &mut crate_names);
            g.add_file(rel, crate_name, &src);
        }
        g.index();
        g
    }

    /// Lexes and parses one file into the graph (split out so unit
    /// tests can build small graphs from source strings).
    pub fn add_file(&mut self, rel: String, crate_name: String, src: &str) {
        let toks = lex(src);
        let file_idx = self.files.len();
        let in_test_file = {
            let mut parts = rel.split('/');
            let top = parts.next().unwrap_or("");
            let nested = parts.nth(1).unwrap_or(""); // crates/<c>/<dir>
            matches!(top, "tests" | "examples" | "benches")
                || (top == "crates" && matches!(nested, "tests" | "examples" | "benches"))
        };
        self.crates.insert(crate_name.clone());
        parse_items(
            &toks,
            &rel,
            &crate_name,
            file_idx,
            in_test_file,
            &mut self.fns,
        );
        self.files.push(FileToks { rel, toks });
    }

    /// Builds the resolution indices and extracts call sites. Called
    /// once, after the last [`CallGraph::add_file`].
    pub fn index(&mut self) {
        for (id, f) in self.fns.iter().enumerate() {
            if f.in_test {
                continue; // test code is never a resolution target
            }
            let module = module_stem(&f.rel);
            match &f.owner {
                Some(owner) => {
                    self.methods_by_crate
                        .entry((f.crate_name.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    self.methods_by_owner
                        .entry((f.crate_name.clone(), owner.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    if let Some(tr) = &f.trait_name {
                        self.methods_by_trait
                            .entry((tr.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
                None => {
                    self.free_by_crate
                        .entry((f.crate_name.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                    self.free_by_module
                        .entry((f.crate_name.clone(), module.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        self.calls = self
            .fns
            .iter()
            .map(|f| extract_calls(&self.files[f.file].toks, f.body))
            .collect();
    }

    /// Resolves one call site from `caller` to candidate fn ids
    /// (sorted, deduped, test fns excluded — see the module docs for
    /// the rules).
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let me = &self.fns[caller];
        let mut out: Vec<usize> = if call.method {
            self.lookup(&self.methods_by_crate, &me.crate_name, &call.segs[0])
        } else if call.segs.len() == 1 {
            let name = &call.segs[0];
            let same = self.lookup(&self.free_by_crate, &me.crate_name, name);
            if same.is_empty() {
                self.free_by_crate
                    .iter()
                    .filter(|((_, n), _)| n == name)
                    .flat_map(|(_, ids)| ids.iter().copied())
                    .collect()
            } else {
                same
            }
        } else {
            self.resolve_path(me, &call.segs)
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    fn lookup(&self, map: &BTreeMap<(String, String), Vec<usize>>, a: &str, b: &str) -> Vec<usize> {
        map.get(&(a.to_string(), b.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    fn resolve_path(&self, me: &FnInfo, segs: &[String]) -> Vec<usize> {
        let name = segs.last().expect("path has segments").clone();
        // `Self::f` — the caller's own impl owner.
        if segs.len() == 2 && segs[0] == "Self" {
            if let Some(owner) = &me.owner {
                return self.owner_lookup(&me.crate_name, owner, &name);
            }
            return Vec::new();
        }
        // `crate::`/`self::`/`super::` restrict to the caller's crate.
        let (segs, crate_hint): (&[String], Option<&str>) =
            if matches!(segs[0].as_str(), "crate" | "self" | "super") {
                (&segs[1..], Some(me.crate_name.as_str()))
            } else if self.crates.contains(&segs[0]) {
                (&segs[1..], Some(segs[0].as_str()))
            } else {
                (segs, None)
            };
        if segs.len() == 1 {
            // The whole path was `crate::f` / `some_crate::f`.
            let c = crate_hint.unwrap_or(&me.crate_name);
            return self.lookup(&self.free_by_crate, c, &name);
        }
        if segs.is_empty() {
            return Vec::new();
        }
        let qual = &segs[segs.len() - 2];
        let impls = self
            .methods_by_trait
            .get(&(qual.clone(), name.clone()))
            .into_iter()
            .flatten()
            .copied();
        let mut ids = match crate_hint {
            Some(c) => {
                // Qualified inside a known crate: owner type or module.
                let mut ids = self.owner_lookup(c, qual, &name);
                if ids.is_empty() {
                    ids = self
                        .free_by_module
                        .get(&(c.to_string(), qual.clone(), name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
                ids
            }
            None => {
                // Bare `Qual::name`: try the caller's crate, then the
                // workspace; an unmatched qualifier is foreign — never
                // fall back to bare-name matching.
                let mut ids = self.owner_lookup(&me.crate_name, qual, &name);
                if ids.is_empty() {
                    ids = self
                        .free_by_module
                        .get(&(me.crate_name.clone(), qual.clone(), name.clone()))
                        .cloned()
                        .unwrap_or_default();
                }
                if ids.is_empty() {
                    ids = self
                        .methods_by_owner
                        .iter()
                        .filter(|((_, o, n), _)| o == qual && *n == name)
                        .flat_map(|(_, v)| v.iter().copied())
                        .collect();
                }
                if ids.is_empty() {
                    ids = self
                        .free_by_module
                        .iter()
                        .filter(|((_, m, n), _)| m == qual && *n == name)
                        .flat_map(|(_, v)| v.iter().copied())
                        .collect();
                }
                ids
            }
        };
        // A trait path also reaches every impl of the method.
        ids.extend(impls);
        ids
    }

    fn owner_lookup(&self, c: &str, owner: &str, name: &str) -> Vec<usize> {
        self.methods_by_owner
            .get(&(c.to_string(), owner.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// BFS over the graph from `roots`: every reachable fn id mapped to
    /// the fn it was first reached from (`None` for roots themselves).
    /// Fns marked `trusted` are not descended into (their ids are
    /// returned in the second value, for the summary table).
    pub fn reachable(&self, roots: &[usize]) -> (BTreeMap<usize, Option<usize>>, usize) {
        self.reachable_cut(roots, &["trusted"])
    }

    /// [`CallGraph::reachable`] with additional lint-specific traversal
    /// cut markers (e.g. the no-panic lint also cuts at
    /// `panics-by-design` fns, without hiding them from other closures).
    pub fn reachable_cut(
        &self,
        roots: &[usize],
        cut_markers: &[&str],
    ) -> (BTreeMap<usize, Option<usize>>, usize) {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut trusted_cuts = 0usize;
        let mut roots = roots.to_vec();
        roots.sort_unstable();
        for r in roots {
            if parent.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            if cut_markers.iter().any(|m| self.fns[id].has_marker(m)) {
                trusted_cuts += 1;
                continue;
            }
            for call in &self.calls[id] {
                for callee in self.resolve(id, call) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                        e.insert(Some(id));
                        queue.push_back(callee);
                    }
                }
            }
        }
        (parent, trusted_cuts)
    }

    /// The `root → … → fn` chain for a reached fn, as fn names joined
    /// with arrows (used in closure diagnostics).
    pub fn chain(&self, parent: &BTreeMap<usize, Option<usize>>, id: usize) -> String {
        let mut names = vec![self.fns[id].name.clone()];
        let mut cur = id;
        while let Some(Some(p)) = parent.get(&cur) {
            names.push(self.fns[*p].name.clone());
            cur = *p;
        }
        names.reverse();
        names.join(" → ")
    }

    /// Ids of non-test fns carrying `marker`, in (file, line) order.
    pub fn marked(&self, marker: &str) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| !self.fns[i].in_test && self.fns[i].has_marker(marker))
            .collect()
    }
}

/// Module stem of a file path: `crates/x/src/conflict.rs` → `conflict`,
/// `.../mod.rs` and `lib.rs`/`main.rs` keep their stem (never matched as
/// a qualifier in practice).
fn module_stem(rel: &str) -> String {
    Path::new(rel)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Crate ident for a repo-relative path, reading `crates/<dir>/Cargo.toml`
/// `name = "…"` when present (cached), else the directory name with
/// dashes mapped to underscores; root `src/` files belong to the root
/// package.
fn crate_name_for(cfg: &Config, rel: &str, cache: &mut BTreeMap<String, String>) -> String {
    let dir = match rel.strip_prefix("crates/") {
        Some(rest) => format!("crates/{}", rest.split('/').next().unwrap_or("")),
        None => String::new(), // root package
    };
    if let Some(name) = cache.get(&dir) {
        return name.clone();
    }
    let manifest = if dir.is_empty() {
        cfg.root.join("Cargo.toml")
    } else {
        cfg.root.join(&dir).join("Cargo.toml")
    };
    let fallback = if dir.is_empty() {
        "crate_root".to_string()
    } else {
        dir.rsplit('/').next().unwrap_or("").replace('-', "_")
    };
    let name = std::fs::read_to_string(&manifest)
        .ok()
        .and_then(|s| manifest_name(&s))
        .unwrap_or(fallback)
        .replace('-', "_");
    cache.insert(dir, name.clone());
    name
}

/// First `name = "…"` in a manifest (enough for the workspace's flat
/// `[package]`-first manifests).
fn manifest_name(toml: &str) -> Option<String> {
    toml.lines().find_map(|l| {
        let l = l.trim();
        l.strip_prefix("name")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(|r| r.trim().trim_matches('"').to_string())
    })
}

/// Walks a token stream and records every `fn` item with its context.
fn parse_items(
    toks: &[Tok],
    rel: &str,
    crate_name: &str,
    file_idx: usize,
    in_test_file: bool,
    out: &mut Vec<FnInfo>,
) {
    let mut depth = 0usize;
    // (owner, implemented trait, depth at which the impl/trait body opened)
    let mut impl_stack: Vec<(String, Option<String>, usize)> = Vec::new();
    // depth at which a #[cfg(test)] / `mod tests` body opened
    let mut test_stack: Vec<usize> = Vec::new();
    let mut pending_markers: Vec<String> = Vec::new();
    let mut cfg_test_attr = false;

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::LineComment => {
                let text = t.text.trim_start_matches('/').trim();
                if let Some(marker) = text.strip_prefix("lint: ") {
                    let marker = marker.trim();
                    // Site-level escapes attach to lines, not fns.
                    if !marker.starts_with("allow-panic") {
                        pending_markers.push(marker.to_string());
                    }
                }
                i += 1;
            }
            TokKind::Punct if t.is_punct('#') => {
                // Attribute: scan the balanced [...] and remember
                // whether it was #[cfg(test)].
                let mut j = i + 1;
                if j < toks.len() && toks[j].is_punct('[') {
                    let mut level = 1;
                    let mut has_cfg = false;
                    let mut has_test = false;
                    j += 1;
                    while j < toks.len() && level > 0 {
                        if toks[j].is_punct('[') {
                            level += 1;
                        } else if toks[j].is_punct(']') {
                            level -= 1;
                        } else if toks[j].is_ident("cfg") {
                            has_cfg = true;
                        } else if toks[j].is_ident("test") {
                            has_test = true;
                        }
                        j += 1;
                    }
                    cfg_test_attr = has_cfg && has_test;
                    i = j;
                } else {
                    i += 1;
                }
            }
            TokKind::Ident if t.is_ident("impl") || t.is_ident("trait") => {
                let (owner, implemented, open) = impl_header_owner(toks, i + 1);
                let implemented = implemented.filter(|_| t.is_ident("impl"));
                match open {
                    Some(open_idx) => {
                        depth += 1;
                        impl_stack.push((owner, implemented, depth));
                        i = open_idx + 1;
                    }
                    None => i += 1,
                }
                cfg_test_attr = false;
            }
            TokKind::Ident if t.is_ident("mod") => {
                let name = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident);
                let brace = toks.get(i + 2).is_some_and(|t| t.is_punct('{'));
                if brace {
                    depth += 1;
                    if cfg_test_attr || name.is_some_and(|t| t.text == "tests") {
                        test_stack.push(depth);
                    }
                    i += 3;
                } else {
                    i += 1; // `mod name;` — out-of-line
                }
                cfg_test_attr = false;
            }
            TokKind::Ident if t.is_ident("fn") => {
                cfg_test_attr = false;
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
                    i += 1; // `fn(` pointer type
                    continue;
                };
                // Find the body `{` (or `;` for a bodyless trait decl).
                let mut j = i + 2;
                let mut open = None;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        open = Some(j);
                        break;
                    }
                    if toks[j].is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                let Some(open) = open else {
                    pending_markers.clear();
                    i = j + 1;
                    continue;
                };
                let mut level = 1usize;
                let mut close = open + 1;
                while close < toks.len() && level > 0 {
                    if toks[close].is_punct('{') {
                        level += 1;
                    } else if toks[close].is_punct('}') {
                        level -= 1;
                    }
                    close += 1;
                }
                let body_end = close.saturating_sub(1);
                out.push(FnInfo {
                    crate_name: crate_name.to_string(),
                    rel: rel.to_string(),
                    file: file_idx,
                    name: name_tok.text.clone(),
                    owner: impl_stack.last().map(|(o, _, _)| o.clone()),
                    trait_name: impl_stack.last().and_then(|(_, tr, _)| tr.clone()),
                    line: t.line,
                    markers: std::mem::take(&mut pending_markers),
                    in_test: in_test_file || !test_stack.is_empty(),
                    body: (open + 1, body_end),
                });
                // Continue scanning *inside* the body too (nested fns),
                // so step only past the signature.
                depth += 1;
                i = open + 1;
            }
            TokKind::Punct if t.is_punct('{') => {
                depth += 1;
                i += 1;
                cfg_test_attr = false;
            }
            TokKind::Punct if t.is_punct('}') => {
                while impl_stack.last().is_some_and(|&(_, _, d)| d == depth) {
                    impl_stack.pop();
                }
                while test_stack.last().is_some_and(|&d| d == depth) {
                    test_stack.pop();
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            _ => {
                if !t.is_comment() {
                    cfg_test_attr = false;
                }
                i += 1;
            }
        }
    }
}

/// Parses an `impl`/`trait` header starting after the keyword: returns
/// the owner type name (last path segment of the implemented-on type;
/// for `impl Trait for Type` the `Type`), the trait's last path segment
/// for `impl Trait for Type`, and the index of the opening `{`, or
/// `None` when the header never opens a body (e.g. `trait X;` is not
/// valid Rust, but be tolerant).
fn impl_header_owner(toks: &[Tok], mut i: usize) -> (String, Option<String>, Option<usize>) {
    let mut owner = String::new();
    let mut implemented = None;
    let mut in_where = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            return (owner, implemented, Some(i));
        }
        if t.is_punct(';') {
            return (owner, implemented, None);
        }
        if t.is_punct('<') {
            // Skip balanced generics, tolerating `->` arrows inside.
            let mut level = 1;
            i += 1;
            while i < toks.len() && level > 0 {
                if toks[i].is_punct('<') {
                    level += 1;
                } else if toks[i].is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
                    level -= 1;
                }
                i += 1;
            }
            continue;
        }
        if t.is_ident("for") && !in_where {
            // `for` ends the trait path (a where clause's `for<'a>`
            // bounds are skipped with the rest of the clause).
            if implemented.is_none() && !owner.is_empty() {
                implemented = Some(owner.clone());
            }
            owner.clear();
            i += 1;
            continue;
        }
        if t.is_ident("where") {
            // Owner and trait are settled; scan on to the `{`.
            in_where = true;
        }
        if t.kind == TokKind::Ident && !in_where && !t.is_ident("dyn") {
            // Keep overwriting: the last path segment wins
            // (`leveled_net::NodeId` → `NodeId`).
            owner = t.text.clone();
        }
        i += 1;
    }
    (owner, implemented, None)
}

/// Extracts the call sites in a body token range.
fn extract_calls(toks: &[Tok], body: (usize, usize)) -> Vec<CallSite> {
    let code: Vec<&Tok> = toks[body.0.min(toks.len())..body.1.min(toks.len())]
        .iter()
        .filter(|t| !t.is_comment())
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // Method call: `. name (` or `. name :: < … > (`.
        if code[i].is_punct('.') {
            if let Some(name) = code.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                let mut j = i + 2;
                if turbofish(&code, &mut j) && code.get(j).is_some_and(|t| t.is_punct('(')) {
                    out.push(CallSite {
                        segs: vec![name.text.clone()],
                        method: true,
                        line: name.line,
                    });
                }
                i += 2;
                continue;
            }
            i += 1;
            continue;
        }
        if code[i].kind == TokKind::Ident {
            // Skip `fn name` definitions nested in the body.
            if code[i].is_ident("fn") {
                i += 2;
                continue;
            }
            if KEYWORDS.contains(&code[i].text.as_str()) {
                i += 1;
                continue;
            }
            // Collect a `::`-separated path.
            let start_line = code[i].line;
            let mut segs = vec![code[i].text.clone()];
            let mut j = i + 1;
            loop {
                if code.get(j).is_some_and(|t| t.is_punct(':'))
                    && code.get(j + 1).is_some_and(|t| t.is_punct(':'))
                {
                    let mut k = j + 2;
                    if code.get(k).is_some_and(|t| t.kind == TokKind::Ident) {
                        segs.push(code[k].text.clone());
                        j = k + 1;
                        continue;
                    }
                    if turbofish(&code, &mut k) {
                        j = k;
                        continue;
                    }
                }
                break;
            }
            let is_macro = code.get(j).is_some_and(|t| t.is_punct('!'));
            let is_call = code.get(j).is_some_and(|t| t.is_punct('('));
            if is_call && !is_macro {
                out.push(CallSite {
                    segs,
                    method: false,
                    line: start_line,
                });
            }
            i = j.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// If `code[*j]` opens a turbofish `< … >`, advances `*j` past it and
/// returns true; a non-`<` position is left unchanged (also true — the
/// caller treats "no turbofish" as fine).
fn turbofish(code: &[&Tok], j: &mut usize) -> bool {
    if !code.get(*j).is_some_and(|t| t.is_punct('<')) {
        return true;
    }
    let mut level = 1;
    let mut k = *j + 1;
    while k < code.len() && level > 0 {
        if code[k].is_punct('<') {
            level += 1;
        } else if code[k].is_punct('>') && !code[k - 1].is_punct('-') {
            level -= 1;
        }
        k += 1;
    }
    *j = k;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> CallGraph {
        let mut g = CallGraph::empty();
        g.add_file("crates/demo/src/lib.rs".into(), "demo".into(), src);
        g.index();
        g
    }

    fn fn_named<'g>(g: &'g CallGraph, name: &str) -> &'g FnInfo {
        g.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn items_methods_and_markers_are_parsed() {
        let g = graph(
            "// lint: hot-path\nfn root() { helper(); }\nfn helper() {}\n\
             struct S;\nimpl S {\n    // lint: telemetry\n    fn m(&self) { helper(); }\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { helper(); }\n}\n",
        );
        assert_eq!(g.fns.len(), 4);
        assert!(fn_named(&g, "root").has_marker("hot-path"));
        assert_eq!(fn_named(&g, "m").owner.as_deref(), Some("S"));
        assert!(fn_named(&g, "m").has_marker("telemetry"));
        assert!(fn_named(&g, "t").in_test);
    }

    #[test]
    fn plain_calls_resolve_same_crate_and_bfs_reaches() {
        let g = graph(
            "// lint: hot-path\nfn root() { helper(); }\nfn helper() { inner(); }\nfn inner() {}\n",
        );
        let roots = g.marked("hot-path");
        let (reach, cuts) = g.reachable(&roots);
        assert_eq!(cuts, 0);
        let names: Vec<&str> = reach.keys().map(|&id| g.fns[id].name.as_str()).collect();
        assert_eq!(names, ["root", "helper", "inner"]);
        let inner = g.fns.iter().position(|f| f.name == "inner").unwrap();
        assert_eq!(g.chain(&reach, inner), "root → helper → inner");
    }

    #[test]
    fn method_calls_resolve_within_crate_only() {
        let g = graph(
            "struct S;\nimpl S { fn work(&self) {} }\nfn driver(s: &S) { s.work(); s.push(1); }\n",
        );
        let driver = g.fns.iter().position(|f| f.name == "driver").unwrap();
        let resolved: Vec<&str> = g.calls[driver]
            .iter()
            .flat_map(|c| g.resolve(driver, c))
            .map(|id| g.fns[id].name.as_str())
            .collect();
        // `.work()` resolves to S::work; `.push()` matches nothing
        // first-party and stays unresolved.
        assert_eq!(resolved, ["work"]);
    }

    #[test]
    fn foreign_paths_stay_unresolved() {
        let g = graph("fn from() {}\nfn f() { let _ = String::from(\"x\"); }\n");
        let f = g.fns.iter().position(|x| x.name == "f").unwrap();
        let resolved: Vec<usize> = g.calls[f].iter().flat_map(|c| g.resolve(f, c)).collect();
        assert!(
            resolved.is_empty(),
            "String::from must not fold onto fn from"
        );
    }

    #[test]
    fn self_and_owner_paths_resolve() {
        let g = graph(
            "struct S;\nimpl S {\n    fn a(&self) { Self::b(); S::c(); }\n    fn b() {}\n    fn c() {}\n}\n",
        );
        let a = g.fns.iter().position(|x| x.name == "a").unwrap();
        let mut resolved: Vec<&str> = g.calls[a]
            .iter()
            .flat_map(|c| g.resolve(a, c))
            .map(|id| g.fns[id].name.as_str())
            .collect();
        resolved.sort_unstable();
        assert_eq!(resolved, ["b", "c"]);
    }

    #[test]
    fn trait_paths_resolve_to_every_impl() {
        let g = graph(
            "trait T { fn m(&self); fn d(&self) {} }\nstruct A;\nstruct B;\n\
             impl T for A { fn m(&self) {} }\nimpl<X> T for B where X: for<'a> Fn(&'a u8) { fn m(&self) {} }\n\
             impl A { fn m(&self) {} }\nfn f(a: &A) { T::m(a); T::d(a); }\n",
        );
        let f = g.fns.iter().position(|x| x.name == "f").unwrap();
        let mut resolved: Vec<(Option<&str>, &str)> = g.calls[f]
            .iter()
            .flat_map(|c| g.resolve(f, c))
            .map(|id| (g.fns[id].owner.as_deref(), g.fns[id].name.as_str()))
            .collect();
        resolved.sort_unstable();
        // Both impls of `m` and the trait's default `d`; A's inherent
        // `m` is not an impl of `T`.
        assert_eq!(
            resolved,
            [(Some("A"), "m"), (Some("B"), "m"), (Some("T"), "d")]
        );
        assert_eq!(
            g.fns
                .iter()
                .filter(|x| x.trait_name.as_deref() == Some("T"))
                .count(),
            2
        );
    }

    #[test]
    fn trusted_marker_cuts_traversal() {
        let g = graph(
            "// lint: hot-path\nfn root() { mid(); }\n// lint: trusted(audited externally)\nfn mid() { leaf(); }\nfn leaf() {}\n",
        );
        let (reach, cuts) = g.reachable(&g.marked("hot-path"));
        assert_eq!(cuts, 1);
        assert!(!reach.keys().any(|&id| g.fns[id].name == "leaf"));
    }

    #[test]
    fn turbofish_and_macros_are_handled() {
        let g = graph("fn f() { g::<u32>(); vec![1]; h(); }\nfn g() {}\nfn h() {}\n");
        let f = g.fns.iter().position(|x| x.name == "f").unwrap();
        let mut resolved: Vec<&str> = g.calls[f]
            .iter()
            .flat_map(|c| g.resolve(f, c))
            .map(|id| g.fns[id].name.as_str())
            .collect();
        resolved.sort_unstable();
        assert_eq!(resolved, ["g", "h"], "macro `vec!` is not a call edge");
    }
}
