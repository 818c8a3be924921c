//! Repo-specific static analysis for the vqc workspace.
//!
//! A deliberately lightweight, hand-rolled Rust source scanner (the build
//! container has no registry access, so no `syn`) enforcing seven lints the
//! concurrent runtime depends on:
//!
//! 1. **`unwrap`** — no `.unwrap()` / `.expect(` in non-test library code under
//!    `crates/*/src`. Panics in the service stack take a worker, a connection
//!    handler, or the whole process down with them; recoverable paths must
//!    return typed errors. Genuine invariants are suppressed per-site with
//!    `// audit:allow(unwrap): <reason>` — the reason is mandatory.
//! 2. **`env_drift`** — every `VQC_*` environment variable read anywhere in
//!    `crates/*/src` or `shims/*/src` must appear in `README.md`, and every
//!    `VQC_*` token in the README must correspond to a variable the code
//!    actually reads. Knob documentation cannot silently rot in either
//!    direction.
//! 3. **`wire`** — every `Request` variant of the wire protocol is handled in
//!    the server dispatch (`server.rs` mentions `Request::Variant`) and every
//!    `Response` variant in the client demux (`client.rs` mentions
//!    `Response::Variant`). Adding a wire message without teaching both ends
//!    fails the audit, not a code review.
//! 4. **`trace_stage`** — every `TraceStage` lifecycle variant is handled as
//!    `TraceStage::Variant` both in the telemetry layer (the Chrome-trace
//!    exporter's naming path) and in the `vqc-top` event tail's glyph match.
//!    Adding a lifecycle stage that renders blank in the dashboard or the
//!    trace export fails the audit.
//! 5. **`guard_blocking`** — heuristic: a lock guard bound by `let g = x.lock()`
//!    (or `.read()` / `.write()`) must not be live across a blocking call
//!    (`write_frame(`, a bare `send(`, `.join(`) in the same block. Sites where
//!    holding the lock across the call is the point carry
//!    `// audit:allow(guard_blocking): <reason>`.
//! 6. **`knob_budget`** — the number of distinct `VQC_*` variables the code
//!    reads must equal [`KNOB_BUDGET`]. A new knob, or a deleted one whose
//!    budget was not ratcheted down, fails in the diff that changes the count.
//! 7. **`dead_pub`** — a name a crate root re-exports (`pub use`) from one of
//!    the crate's own modules must occur in some file other than that module
//!    and the `lib.rs`: an export nothing uses is surface to delete. A name
//!    that is public only because another public item returns, holds or
//!    derefs to it gets its own `pub use` line under
//!    `// audit:allow(dead_pub): <reason>`.
//!
//! Doc comments, ordinary comments, and `#[cfg(test)] mod` bodies are ignored.
//! The scanner is lexical: it tracks string literals and comment state well
//! enough for this codebase's idiom, not for arbitrary Rust.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired (`unwrap`, `env_drift`, `wire`, `trace_stage`,
    /// `guard_blocking`, `knob_budget`, `dead_pub`, `pragma`).
    pub lint: &'static str,
    /// File the finding is in, relative to the workspace root when possible.
    pub file: String,
    /// 1-based line number (0 when the finding is file-level).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A source line split into its code and comment portions, with context flags.
struct Line {
    /// The original line text.
    raw: String,
    /// Code with string-literal contents blanked and comments removed.
    code: String,
    /// The `//` comment text of the line, if any.
    comment: Option<String>,
    /// Inside a `#[cfg(test)] mod` body (or a `tests/` file).
    in_test: bool,
    /// Brace depth at the *start* of the line.
    depth_before: i32,
}

impl Line {
    /// The original text with any trailing `//` comment removed (string
    /// contents intact, unlike `code`).
    fn raw_code(&self) -> &str {
        match &self.comment {
            Some(comment) => &self.raw[..self.raw.len() - comment.len() - 2],
            None => &self.raw,
        }
    }
}

/// Lexes a file into per-line code/comment portions, blanking string contents
/// and tracking `#[cfg(test)] mod` regions by brace depth.
fn lex(source: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut depth: i32 = 0;
    let mut in_block_comment = false;
    // (depth at which the test mod was opened) while inside one.
    let mut test_region: Option<i32> = None;
    let mut pending_cfg_test = false;

    for raw in source.lines() {
        let depth_before = depth;
        let mut code = String::with_capacity(raw.len());
        let mut comment = None;
        let mut chars = raw.char_indices().peekable();
        let mut in_string = false;
        let mut in_char = false;
        let mut raw_hashes: Option<usize> = None;
        while let Some((i, c)) = chars.next() {
            if in_block_comment {
                if c == '*' && matches!(chars.peek(), Some((_, '/'))) {
                    chars.next();
                    in_block_comment = false;
                }
                continue;
            }
            if in_string {
                if let Some(hashes) = raw_hashes {
                    // Raw string: ends at `"` followed by `hashes` hashes.
                    if c == '"' {
                        let mut seen = 0;
                        while seen < hashes {
                            match chars.peek() {
                                Some((_, '#')) => {
                                    chars.next();
                                    seen += 1;
                                }
                                _ => break,
                            }
                        }
                        if seen == hashes {
                            in_string = false;
                            raw_hashes = None;
                            code.push('"');
                        }
                    }
                } else if c == '\\' {
                    chars.next();
                } else if c == '"' {
                    in_string = false;
                    code.push('"');
                }
                continue;
            }
            if in_char {
                if c == '\\' {
                    chars.next();
                } else if c == '\'' {
                    in_char = false;
                }
                continue;
            }
            match c {
                '/' if matches!(chars.peek(), Some((_, '/'))) => {
                    comment = Some(raw[i + 2..].to_string());
                    break;
                }
                '/' if matches!(chars.peek(), Some((_, '*'))) => {
                    chars.next();
                    in_block_comment = true;
                }
                '"' => {
                    // Check for raw string prefix r / r#...
                    let mut hashes = 0;
                    let bytes = code.as_bytes();
                    let mut j = bytes.len();
                    while j > 0 && bytes[j - 1] == b'#' {
                        hashes += 1;
                        j -= 1;
                    }
                    if j > 0 && bytes[j - 1] == b'r' && hashes > 0 {
                        raw_hashes = Some(hashes);
                    } else if hashes == 0 && j > 0 && bytes[j - 1] == b'r' {
                        raw_hashes = Some(0);
                    }
                    in_string = true;
                    code.push('"');
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal: a char literal closes
                    // with another quote within a few chars; lifetimes are
                    // followed by an identifier and no closing quote. Peek:
                    // treat as char literal if a `'` appears within 3 chars.
                    let rest = &raw[i + 1..];
                    let is_char = rest
                        .char_indices()
                        .take(4)
                        .any(|(j, rc)| rc == '\'' && (j > 0 || rest.starts_with("\\'")));
                    if is_char {
                        in_char = true;
                    }
                    code.push('\'');
                }
                _ => code.push(c),
            }
        }

        let trimmed = code.trim();
        if trimmed.contains("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test
            && !trimmed.is_empty()
            && test_region.is_none()
            && trimmed.starts_with("mod ")
        {
            test_region = Some(depth_before);
            pending_cfg_test = false;
        } else if pending_cfg_test && !trimmed.is_empty() && !trimmed.starts_with("#[") {
            // #[cfg(test)] guarding something other than a mod (a fn, an
            // import): only that item is test-only. Treating just this line as
            // test code is enough for this codebase's idiom.
            pending_cfg_test = false;
        }

        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }

        let in_test = test_region.is_some();
        if let Some(open_depth) = test_region {
            if depth <= open_depth {
                test_region = None;
            }
        }

        lines.push(Line {
            raw: raw.to_string(),
            code,
            comment,
            in_test,
            depth_before,
        });
    }
    lines
}

/// A parsed `audit:allow(<lint>): <reason>` pragma.
struct Pragma {
    lint: String,
    has_reason: bool,
}

fn parse_pragma(comment: &str) -> Option<Pragma> {
    let start = comment.find("audit:allow(")?;
    let rest = &comment[start + "audit:allow(".len()..];
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let has_reason = after
        .strip_prefix(':')
        .is_some_and(|reason| !reason.trim().is_empty());
    Some(Pragma { lint, has_reason })
}

/// Scans one library source file for the `unwrap` and `guard_blocking` lints.
/// `label` is the path used in findings.
pub fn scan_source(label: &str, source: &str, findings: &mut Vec<Finding>) {
    let lines = lex(source);
    // Pragma carried forward across comment-only lines until it lands on code.
    let mut active: Option<Pragma> = None;
    // Live lock guards: (variable name, depth the binding lives at).
    let mut guards: Vec<(String, i32)> = Vec::new();

    for (index, line) in lines.iter().enumerate() {
        let number = index + 1;
        if let Some(comment) = &line.comment {
            if let Some(pragma) = parse_pragma(comment) {
                if !pragma.has_reason {
                    findings.push(Finding {
                        lint: "pragma",
                        file: label.to_string(),
                        line: number,
                        message: format!(
                            "audit:allow({}) without a reason — write \
                             `// audit:allow({}): <why this is safe>`",
                            pragma.lint, pragma.lint
                        ),
                    });
                } else {
                    active = Some(pragma);
                }
            }
        }
        let code = line.code.trim();
        if code.is_empty() {
            continue; // Comment-only or blank: pragma stays active.
        }
        let suppress =
            |lint: &str, active: &Option<Pragma>| active.as_ref().is_some_and(|p| p.lint == lint);

        if !line.in_test {
            // Lint 1: unwrap/expect in library code.
            let has_unwrap = code.contains(".unwrap()") || code.contains(".expect(");
            if has_unwrap && !suppress("unwrap", &active) {
                findings.push(Finding {
                    lint: "unwrap",
                    file: label.to_string(),
                    line: number,
                    message: "`.unwrap()`/`.expect(` in non-test code — return a typed \
                              error, or justify with `// audit:allow(unwrap): <reason>`"
                        .to_string(),
                });
            }

            // Lint 4: guard held across a blocking call.
            guards.retain(|(name, depth)| {
                line.depth_before >= *depth && !code.contains(&format!("drop({name})"))
            });
            if has_blocking_call(code) && !guards.is_empty() && !suppress("guard_blocking", &active)
            {
                let held: Vec<&str> = guards.iter().map(|(name, _)| name.as_str()).collect();
                findings.push(Finding {
                    lint: "guard_blocking",
                    file: label.to_string(),
                    line: number,
                    message: format!(
                        "blocking call while lock guard{} `{}` {} live — drop the guard \
                         first, or justify with `// audit:allow(guard_blocking): <reason>`",
                        if held.len() > 1 { "s" } else { "" },
                        held.join("`, `"),
                        if held.len() > 1 { "are" } else { "is" },
                    ),
                });
            }
            if let Some(name) = guard_binding(code) {
                if suppress("guard_blocking", &active) {
                    // A pragma on the binding waives the whole guard scope.
                } else {
                    guards.push((name, line.depth_before));
                }
            }
        }
        active = None; // Pragmas apply to exactly one code line.
    }
}

/// Recognizes `let [mut] name = <expr>.lock();` (also `.read()` / `.write()`)
/// and returns the bound name. Chained expressions (`x.lock().get(..)`) do not
/// bind a guard and are ignored.
fn guard_binding(code: &str) -> Option<String> {
    let rest = code.trim().strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let (name, rest) = rest.split_once('=')?;
    let name = name.trim().trim_end_matches(':').trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return None;
    }
    let expr = rest.trim().trim_end_matches(';').trim_end();
    for method in [".lock()", ".read()", ".write()"] {
        if expr.ends_with(method) {
            return Some(name.to_string());
        }
    }
    None
}

/// Blocking markers: frame writes, bare `send(` (channel `.send(` is
/// non-blocking for the unbounded mpsc used here), and thread joins.
fn has_blocking_call(code: &str) -> bool {
    if code.contains("write_frame(") || code.contains(".join(") {
        return true;
    }
    // Bare `send(` not preceded by `.` or an identifier character.
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("send(") {
        let at = from + pos;
        let before = at.checked_sub(1).map(|i| bytes[i] as char);
        let standalone = !matches!(
            before,
            Some(c) if c == '.' || c.is_alphanumeric() || c == '_'
        );
        if standalone {
            return true;
        }
        from = at + "send(".len();
    }
    false
}

/// Extracts `VQC_*` tokens from a line (used for both env reads and README
/// mentions).
fn vqc_tokens(text: &str, into: &mut BTreeSet<String>) {
    let mut from = 0;
    while let Some(pos) = text[from..].find("VQC_") {
        let at = from + pos;
        let tail = &text[at..];
        let end = tail
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_uppercase() || *c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(tail.len());
        let token = tail[..end].trim_end_matches('_');
        if token.len() > "VQC_".len() {
            into.insert(token.to_string());
        }
        from = at + end.max(1);
    }
}

/// Collects env-var reads (`env::var("VQC_*")`) from one source file. Comments
/// and `#[cfg(test)] mod` bodies (e.g. fixture strings in tests) are ignored.
pub fn scan_env_reads(source: &str, into: &mut BTreeSet<String>) {
    for line in lex(source) {
        // Only count actual reads, not strings or docs that mention a knob.
        if !line.in_test && line.code.contains("env::var") {
            vqc_tokens(line.raw_code(), into);
        }
    }
}

/// Lint 2: bidirectional drift between env reads in code and the README.
pub fn check_env_drift(reads: &BTreeSet<String>, readme: &str, findings: &mut Vec<Finding>) {
    let mut documented = BTreeSet::new();
    vqc_tokens(readme, &mut documented);
    for var in reads.difference(&documented) {
        findings.push(Finding {
            lint: "env_drift",
            file: "README.md".to_string(),
            line: 0,
            message: format!("`{var}` is read in code but not documented in README.md"),
        });
    }
    for var in documented.difference(reads) {
        findings.push(Finding {
            lint: "env_drift",
            file: "README.md".to_string(),
            line: 0,
            message: format!("`{var}` appears in README.md but nothing reads it"),
        });
    }
}

/// How many distinct `VQC_*` environment variables the workspace reads. Lower
/// it in the change that deletes a knob; raising it needs the case for a knob.
pub const KNOB_BUDGET: usize = 12;

/// Lint 6: the count of knobs read by code is pinned to `budget`.
pub fn check_knob_budget(reads: &BTreeSet<String>, budget: usize, findings: &mut Vec<Finding>) {
    if reads.len() != budget {
        findings.push(Finding {
            lint: "knob_budget",
            file: "crates/audit/src/lib.rs".to_string(),
            line: 0,
            message: format!(
                "the code reads {} `VQC_*` variables but KNOB_BUDGET is {budget} — delete \
                 the new knob, or set the budget to the new count in the same change ({})",
                reads.len(),
                reads.iter().cloned().collect::<Vec<_>>().join(", "),
            ),
        });
    }
}

/// One name a crate root re-exports with `pub use module::…`.
struct Reexport {
    /// First path segment: the module (or foreign crate) re-exported from.
    module: String,
    /// The name as the crate root exposes it.
    name: String,
    /// 1-based line of the `pub use` statement.
    line: usize,
    /// The statement carries `// audit:allow(dead_pub): <reason>`.
    allowed: bool,
}

/// Parses a crate root's `pub use module::Name;` and `pub use module::{A, B};`
/// statements (a brace list may span lines). A `dead_pub` pragma on the comment
/// lines above a statement covers every name of that statement.
fn crate_root_reexports(lib_source: &str) -> Vec<Reexport> {
    let mut reexports = Vec::new();
    let mut allowed = false;
    // The statement being accumulated and the line it started on.
    let mut open: Option<(String, usize)> = None;
    for (index, line) in lex(lib_source).iter().enumerate() {
        if let Some(pragma) = line.comment.as_deref().and_then(parse_pragma) {
            allowed |= pragma.lint == "dead_pub" && pragma.has_reason;
        }
        let code = line.code.trim();
        if code.is_empty() {
            continue;
        }
        if open.is_none() && code.starts_with("pub use ") && line.depth_before == 0 {
            open = Some((String::new(), index + 1));
        }
        let Some((statement, start)) = open.as_mut() else {
            allowed = false;
            continue;
        };
        statement.push_str(code);
        if !code.ends_with(';') {
            continue;
        }
        let path = statement["pub use ".len()..].trim_end_matches(';');
        if let Some((module, rest)) = path.split_once("::") {
            let names = match rest.split_once('{') {
                Some((_, list)) => list.trim_end_matches('}'),
                None => rest,
            };
            for name in names.split(',') {
                // `Name`, `Name as Alias`, `sub::Name`: the exposed identifier is last.
                let name = name.rsplit([' ', ':']).next().unwrap_or("");
                if !name.is_empty() && name != "self" {
                    reexports.push(Reexport {
                        module: module.trim().to_string(),
                        name: name.to_string(),
                        line: *start,
                        allowed,
                    });
                }
            }
        }
        open = None;
        allowed = false;
    }
    reexports
}

/// A file's code with comments removed and string contents blanked.
fn code_of(source: &str) -> String {
    let mut code = String::with_capacity(source.len());
    for line in lex(source) {
        code.push_str(&line.code);
        code.push('\n');
    }
    code
}

/// Whether `name` occurs in `code` as a whole identifier.
fn mentions_identifier(code: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name).any(|(at, _)| {
        !code[..at].chars().next_back().is_some_and(is_ident)
            && !code[at + name.len()..].chars().next().is_some_and(is_ident)
    })
}

/// Lint 7: crate-root re-exports of a crate's own modules that no file outside
/// the defining module and the crate root mentions. `sources` is every file
/// that could use the name, as `(path, code)`.
fn check_dead_pub(
    root: &Path,
    crate_dir: &Path,
    sources: &[(PathBuf, String)],
    findings: &mut Vec<Finding>,
) {
    let src = crate_dir.join("src");
    let lib_path = src.join("lib.rs");
    let Ok(lib_source) = std::fs::read_to_string(&lib_path) else {
        return;
    };
    for reexport in crate_root_reexports(&lib_source) {
        let module_file = src.join(format!("{}.rs", reexport.module));
        let module_dir = src.join(&reexport.module);
        // Names re-exported from other crates are those crates' to account for.
        if reexport.allowed || !(module_file.is_file() || module_dir.is_dir()) {
            continue;
        }
        let used = sources.iter().any(|(path, code)| {
            *path != lib_path
                && *path != module_file
                && !path.starts_with(&module_dir)
                && mentions_identifier(code, &reexport.name)
        });
        if !used {
            findings.push(Finding {
                lint: "dead_pub",
                file: rel_label(root, &lib_path),
                line: reexport.line,
                message: format!(
                    "`{}` is re-exported from `{}` but no other file mentions it — stop \
                     exporting it, or give it its own `pub use` under \
                     `// audit:allow(dead_pub): <which public item exposes it>`",
                    reexport.name, reexport.module
                ),
            });
        }
    }
}

/// Extracts the variant names of `pub enum <name>` from wire-protocol source.
pub fn enum_variants(source: &str, name: &str) -> Vec<String> {
    let lines = lex(source);
    let needle = format!("pub enum {name}");
    let mut variants = Vec::new();
    let mut inside = false;
    let mut open_depth = 0;
    for line in &lines {
        let code = line.code.trim();
        if !inside {
            if code.starts_with(&needle) {
                inside = true;
                open_depth = line.depth_before;
            }
            continue;
        }
        // The enum body sits at open_depth + 1; its closing `}` line starts at
        // that depth and drops back to open_depth.
        if line.depth_before == open_depth + 1 && code.starts_with('}') {
            break;
        }
        // A variant line starts with a capitalized identifier at depth+1,
        // followed by `{`, `(`, `,` or end-of-line.
        if line.depth_before == open_depth + 1 {
            let ident: String = code
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let after = &code[ident.len()..];
                if after.is_empty()
                    || after.starts_with(' ')
                    || after.starts_with('{')
                    || after.starts_with('(')
                    || after.starts_with(',')
                {
                    variants.push(ident);
                }
            }
        }
    }
    variants
}

/// Lint 3: wire-protocol exhaustiveness — each enum variant must be mentioned
/// as `<enum>::<variant>` in the handler source.
pub fn check_wire_exhaustive(
    enum_name: &str,
    variants: &[String],
    handler_label: &str,
    handler_source: &str,
    findings: &mut Vec<Finding>,
) {
    for variant in variants {
        let pattern = format!("{enum_name}::{variant}");
        if !handler_source.contains(&pattern) {
            findings.push(Finding {
                lint: "wire",
                file: handler_label.to_string(),
                line: 0,
                message: format!("wire variant `{pattern}` is never handled in {handler_label}"),
            });
        }
    }
}

/// Lint 4: lifecycle-stage exhaustiveness — each `TraceStage` variant must be
/// mentioned as `TraceStage::<variant>` in every observability surface that
/// renders stages (the telemetry exporter, the `vqc-top` event tail). Same
/// mechanism as the wire lint, different enum and handler set.
pub fn check_trace_stage_exhaustive(
    variants: &[String],
    handler_label: &str,
    handler_source: &str,
    findings: &mut Vec<Finding>,
) {
    for variant in variants {
        let pattern = format!("TraceStage::{variant}");
        if !handler_source.contains(&pattern) {
            findings.push(Finding {
                lint: "trace_stage",
                file: handler_label.to_string(),
                line: 0,
                message: format!(
                    "lifecycle variant `{pattern}` is never handled in {handler_label}"
                ),
            });
        }
    }
}

/// Collects `.rs` files under `dir`, recursively, sorted for determinism.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&current) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Runs every lint over the workspace rooted at `root`. Returns all findings;
/// an empty vector is a clean audit.
pub fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut env_reads = BTreeSet::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                crate_dirs.push(entry.path());
            }
        }
    }
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let src = crate_dir.join("src");
        for path in rust_files(&src) {
            let Ok(source) = std::fs::read_to_string(&path) else {
                continue;
            };
            let label = rel_label(root, &path);
            // Binaries (`src/bin`, `main.rs`) may panic at top level — CLI
            // ergonomics; the unwrap/guard lints cover library code.
            let is_bin = path.components().any(|c| c.as_os_str() == "bin")
                || path.file_name().is_some_and(|f| f == "main.rs");
            if !is_bin {
                scan_source(&label, &source, &mut findings);
            }
            scan_env_reads(&source, &mut env_reads);
        }
    }

    // Shims read the lock-checker knobs; include them in env accounting (their
    // library code is third-party-shaped and exempt from the unwrap lint).
    let shims_dir = root.join("shims");
    if let Ok(entries) = std::fs::read_dir(&shims_dir) {
        let mut shim_dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        shim_dirs.sort();
        for shim_dir in shim_dirs {
            for path in rust_files(&shim_dir.join("src")) {
                if let Ok(source) = std::fs::read_to_string(&path) {
                    scan_env_reads(&source, &mut env_reads);
                }
            }
        }
    }

    check_knob_budget(&env_reads, KNOB_BUDGET, &mut findings);

    // Every file that can use a crate's exports: the crates themselves, the
    // facade with its tests and examples, and the benchmark package.
    let sources: Vec<(PathBuf, String)> = ["crates", "src", "tests", "examples", "benchmark/src"]
        .iter()
        .flat_map(|dir| rust_files(&root.join(dir)))
        .filter_map(|path| {
            let code = code_of(&std::fs::read_to_string(&path).ok()?);
            Some((path, code))
        })
        .collect();
    for crate_dir in &crate_dirs {
        check_dead_pub(root, crate_dir, &sources, &mut findings);
    }

    if let Ok(readme) = std::fs::read_to_string(root.join("README.md")) {
        check_env_drift(&env_reads, &readme, &mut findings);
    } else {
        findings.push(Finding {
            lint: "env_drift",
            file: "README.md".to_string(),
            line: 0,
            message: "README.md is missing — cannot check knob documentation".to_string(),
        });
    }

    let wire_path = root.join("crates/transport/src/wire.rs");
    let server_path = root.join("crates/transport/src/server.rs");
    let client_path = root.join("crates/transport/src/client.rs");
    if let (Ok(wire), Ok(server), Ok(client)) = (
        std::fs::read_to_string(&wire_path),
        std::fs::read_to_string(&server_path),
        std::fs::read_to_string(&client_path),
    ) {
        let requests = enum_variants(&wire, "Request");
        let responses = enum_variants(&wire, "Response");
        if requests.is_empty() || responses.is_empty() {
            findings.push(Finding {
                lint: "wire",
                file: rel_label(root, &wire_path),
                line: 0,
                message: "could not parse Request/Response enums from wire.rs".to_string(),
            });
        }
        check_wire_exhaustive(
            "Request",
            &requests,
            &rel_label(root, &server_path),
            &server,
            &mut findings,
        );
        check_wire_exhaustive(
            "Response",
            &responses,
            &rel_label(root, &client_path),
            &client,
            &mut findings,
        );
    }

    let telemetry_path = root.join("crates/runtime/src/telemetry.rs");
    let top_path = root.join("crates/apps/src/bin/top.rs");
    if let (Ok(telemetry), Ok(top)) = (
        std::fs::read_to_string(&telemetry_path),
        std::fs::read_to_string(&top_path),
    ) {
        let stages = enum_variants(&telemetry, "TraceStage");
        if stages.is_empty() {
            findings.push(Finding {
                lint: "trace_stage",
                file: rel_label(root, &telemetry_path),
                line: 0,
                message: "could not parse the TraceStage enum from telemetry.rs".to_string(),
            });
        }
        // The Chrome exporter names events through `TraceStage::name()`'s
        // exhaustive match in the same file; the dashboard's event tail has
        // its own per-variant glyph match.
        check_trace_stage_exhaustive(
            &stages,
            &rel_label(root, &telemetry_path),
            &telemetry,
            &mut findings,
        );
        check_trace_stage_exhaustive(&stages, &rel_label(root, &top_path), &top, &mut findings);
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_str(source: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        scan_source("fixture.rs", source, &mut findings);
        findings
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let findings = scan_str("fn f() {\n    let x = maybe().unwrap();\n}\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "unwrap");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn expect_in_library_code_is_flagged() {
        let findings = scan_str("fn f() {\n    maybe().expect(\"why\");\n}\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "unwrap");
    }

    #[test]
    fn unwrap_in_cfg_test_mod_is_ignored() {
        let source = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        maybe().unwrap();\n    }\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn unwrap_in_comment_or_string_is_ignored() {
        let source = "fn f() {\n    // calls .unwrap() somewhere\n    let s = \".unwrap()\";\n    let _ = s;\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn pragma_with_reason_suppresses_same_line_and_next_line() {
        let inline = "fn f() {\n    maybe().unwrap(); // audit:allow(unwrap): invariant held\n}\n";
        assert!(scan_str(inline).is_empty());
        let above =
            "fn f() {\n    // audit:allow(unwrap): invariant held\n    maybe().unwrap();\n}\n";
        assert!(scan_str(above).is_empty());
    }

    #[test]
    fn pragma_carries_over_comment_continuation_lines() {
        let source = "fn f() {\n    // audit:allow(unwrap): a very long reason\n    // that wraps to a second comment line\n    maybe().unwrap();\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn pragma_suppresses_exactly_one_code_line() {
        let source = "fn f() {\n    // audit:allow(unwrap): first only\n    maybe().unwrap();\n    maybe().unwrap();\n}\n";
        let findings = scan_str(source);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn pragma_without_reason_is_itself_a_finding() {
        let source = "fn f() {\n    // audit:allow(unwrap)\n    maybe().unwrap();\n}\n";
        let findings = scan_str(source);
        assert!(findings.iter().any(|f| f.lint == "pragma"));
        assert!(findings.iter().any(|f| f.lint == "unwrap"));
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let source =
            "fn f() {\n    maybe().unwrap_or(0);\n    maybe().unwrap_or_else(|| 1);\n    maybe().unwrap_or_default();\n    res().expect_err(\"no\");\n}\n";
        let findings: Vec<_> = scan_str(source)
            .into_iter()
            .filter(|f| f.lint == "unwrap")
            .collect();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn guard_across_write_frame_is_flagged() {
        let source = "fn f() {\n    let mut stream = writer.lock();\n    write_frame(&mut *stream, r, max)?;\n}\n";
        let findings = scan_str(source);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "guard_blocking");
        assert_eq!(findings[0].line, 3);
    }

    #[test]
    fn guard_dropped_before_blocking_call_is_clean() {
        let source = "fn f() {\n    let live = jobs.lock();\n    drop(live);\n    send(&writer, &r, max);\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn guard_scope_ends_at_block_close() {
        let source = "fn f() {\n    {\n        let g = m.lock();\n        use_it(&g);\n    }\n    send(&writer, &r, max);\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn channel_send_is_not_a_blocking_marker() {
        let source = "fn f() {\n    let subs = m.lock();\n    tx.send(snapshot);\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn guard_blocking_pragma_on_binding_waives_scope() {
        let source = "fn f() {\n    // audit:allow(guard_blocking): writer lock serializes frames\n    let mut stream = writer.lock();\n    write_frame(&mut *stream, r, max)?;\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn chained_lock_expression_binds_no_guard() {
        let source = "fn f() {\n    let st = jobs.lock().get(&id).cloned();\n    send(&writer, &st, max);\n}\n";
        assert!(scan_str(source).is_empty());
    }

    #[test]
    fn env_drift_is_bidirectional() {
        let mut reads = BTreeSet::new();
        reads.insert("VQC_ONLY_IN_CODE".to_string());
        reads.insert("VQC_BOTH".to_string());
        let readme = "Knobs: `VQC_BOTH`, `VQC_ONLY_IN_README`.";
        let mut findings = Vec::new();
        check_env_drift(&reads, readme, &mut findings);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().any(
            |f| f.message.contains("VQC_ONLY_IN_CODE") && f.message.contains("not documented")
        ));
        assert!(findings.iter().any(
            |f| f.message.contains("VQC_ONLY_IN_README") && f.message.contains("nothing reads")
        ));
    }

    #[test]
    fn env_reads_require_an_env_var_call() {
        let mut reads = BTreeSet::new();
        scan_env_reads(
            "let a = std::env::var(\"VQC_REAL\");\nlet b = \"VQC_JUST_A_STRING\";\n",
            &mut reads,
        );
        assert!(reads.contains("VQC_REAL"));
        assert!(!reads.contains("VQC_JUST_A_STRING"));
    }

    #[test]
    fn knob_budget_fails_in_both_directions() {
        let reads: BTreeSet<String> = ["VQC_A", "VQC_B"].iter().map(|s| s.to_string()).collect();
        let mut findings = Vec::new();
        check_knob_budget(&reads, 2, &mut findings);
        assert!(findings.is_empty());
        // A knob added without raising the budget, and one deleted without
        // ratcheting it down, both fail.
        check_knob_budget(&reads, 1, &mut findings);
        check_knob_budget(&reads, 3, &mut findings);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.lint == "knob_budget"));
        assert!(findings[0].message.contains("reads 2") && findings[0].message.contains("VQC_B"));
    }

    #[test]
    fn crate_root_reexports_parse_lists_pragmas_and_foreign_paths() {
        let lib = "mod a;\npub mod b;\n\npub use a::One;\npub use b::{\n    Two, three as Three,\n    FOUR,\n};\n\n// audit:allow(dead_pub): Five is the Deref target of One\npub use a::Five;\npub use a::Six;\npub use other_crate::sub::{self, Seven};\n";
        let found: Vec<(String, String, usize, bool)> = crate_root_reexports(lib)
            .into_iter()
            .map(|r| (r.module, r.name, r.line, r.allowed))
            .collect();
        let expect = |module: &str, name: &str, line: usize, allowed: bool| {
            (module.to_string(), name.to_string(), line, allowed)
        };
        assert_eq!(
            found,
            [
                expect("a", "One", 4, false),
                expect("b", "Two", 5, false),
                expect("b", "Three", 5, false),
                expect("b", "FOUR", 5, false),
                expect("a", "Five", 11, true),
                expect("a", "Six", 12, false),
                expect("other_crate", "Seven", 13, false),
            ]
        );
    }

    #[test]
    fn identifier_mentions_respect_word_boundaries_comments_and_strings() {
        let code = code_of(
            "use k::Ticket;\n// mentions Orphan in a comment\nlet s = \"TraceRing\";\nfn f(x: MyPlanData, y: PlanDataExt) {}\n",
        );
        assert!(mentions_identifier(&code, "Ticket"));
        assert!(!mentions_identifier(&code, "Orphan"));
        assert!(!mentions_identifier(&code, "TraceRing"));
        assert!(!mentions_identifier(&code, "PlanData"));
    }

    #[test]
    fn dead_pub_reports_an_export_only_its_own_module_mentions() {
        let root = std::env::temp_dir().join(format!("vqc_audit_dead_pub_{}", std::process::id()));
        let src = root.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "mod inner;\npub use inner::{Used, Unused};\n\n// audit:allow(dead_pub): returned by Used::get\npub use inner::Returned;\npub use vqc_elsewhere::Foreign;\n",
        )
        .unwrap();
        let inner = "pub struct Used;\npub struct Unused;\npub struct Returned;\n";
        std::fs::write(src.join("inner.rs"), inner).unwrap();
        let user = root.join("crates/demo/tests/user.rs");
        let sources = vec![
            (src.join("inner.rs"), code_of(inner)),
            (user, code_of("use demo::Used; // not Unused\n")),
        ];
        let mut findings = Vec::new();
        check_dead_pub(&root, &root.join("crates/demo"), &sources, &mut findings);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "dead_pub");
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("`Unused`"));
    }

    #[test]
    fn wire_exhaustiveness_detects_missing_variant() {
        let wire =
            "pub enum Request {\n    Hello { a: u32 },\n    Submit(u64),\n    Shutdown,\n}\n";
        let variants = enum_variants(wire, "Request");
        assert_eq!(variants, ["Hello", "Submit", "Shutdown"]);
        let handler =
            "match r {\n    Request::Hello { .. } => {}\n    Request::Submit(_) => {}\n}\n";
        let mut findings = Vec::new();
        check_wire_exhaustive("Request", &variants, "server.rs", handler, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("Request::Shutdown"));
    }

    #[test]
    fn trace_stage_exhaustiveness_detects_missing_variant() {
        let telemetry = "pub enum TraceStage {\n    Submitted,\n    Phase,\n}\n";
        let variants = enum_variants(telemetry, "TraceStage");
        assert_eq!(variants, ["Submitted", "Phase"]);
        let handler = "match stage {\n    TraceStage::Submitted => '+',\n}\n";
        let mut findings = Vec::new();
        check_trace_stage_exhaustive(&variants, "top.rs", handler, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, "trace_stage");
        assert!(findings[0].message.contains("TraceStage::Phase"));
    }

    #[test]
    fn seeded_violation_fixture_fails_and_repo_idiom_passes() {
        // The exact shape shipped in the transport crate must stay clean...
        let clean = "fn send(w: &Arc<Mutex<TcpStream>>) {\n    // audit:allow(guard_blocking): the writer lock IS the frame serializer\n    let mut stream = w.lock();\n    write_frame(&mut *stream, r, max)\n}\n";
        assert!(scan_str(clean).is_empty());
        // ...and the same shape without the pragma must fail.
        let seeded = "fn send(w: &Arc<Mutex<TcpStream>>) {\n    let mut stream = w.lock();\n    write_frame(&mut *stream, r, max)\n}\n";
        assert_eq!(scan_str(seeded).len(), 1);
    }

    #[test]
    fn workspace_is_audit_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let findings = scan_workspace(root);
        assert!(
            findings.is_empty(),
            "audit findings:\n{}",
            findings
                .iter()
                .map(|f| format!("  {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
