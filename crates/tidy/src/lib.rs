//! `bebop-tidy`: the workspace's in-tree static-analysis pass.
//!
//! Every figure this reproduction regenerates rests on the simulator being
//! *deterministic by construction* — serial, parallel, replayed, resumed and
//! multi-programmed runs must all be bit-identical. Nothing in the language
//! stops a contributor from quietly breaking that with a `RandomState`-seeded
//! `HashMap` in a report path, an unseeded entropy source, or wall-clock time
//! folded into sim state; and the unwrap/cast audits of earlier PRs were done
//! by hand, which means they rot. This crate is a rustc-`tidy`-style checker
//! that walks the workspace's Rust sources and machine-checks those
//! invariants on every CI run.
//!
//! # Rules
//!
//! | ID   | Class        | What it forbids |
//! |------|--------------|-----------------|
//! | D001 | determinism  | hash-based `std` containers (`HashMap`/`HashSet`) anywhere in the workspace — iteration order depends on a per-process random hasher seed |
//! | D002 | determinism  | wall-clock time (`Instant`, `SystemTime`) outside allowlisted timing modules (bench timing, store LRU mtimes) |
//! | D003 | determinism  | nondeterministic entropy sources (`thread_rng`, `from_entropy`, `OsRng`, `getrandom`, `RandomState`, `DefaultHasher`, …) — all randomness flows through the seeded `bebop-rand` generators |
//! | R001 | robustness   | `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in non-test, non-`simcheck` library code without an `// INVARIANT:` justification |
//! | S001 | safety       | `unsafe` without a `// SAFETY:` comment on or directly above the line |
//! | S002 | safety       | a compilation unit with no unsafe code that does not declare `#![forbid(unsafe_code)]` |
//! | C001 | casts        | narrowing `as` casts on budget/footprint/length lines without `try_from`/`try_into` or a `// CAST:` justification |
//! | T001 | meta         | malformed `tidy.toml` allowlist entries (missing rule/path, empty reason) |
//! | T002 | meta         | stale `tidy.toml` allowlist entries that no longer match any diagnostic |
//!
//! Diagnostics are structured and stable — `path:line [RULE] message` — and a
//! nonzero exit from the binary fails CI. File-scoped exceptions live in the
//! repo-root `tidy.toml`, each with a mandatory human-readable reason; an
//! allowlist entry that stops matching anything becomes an error itself
//! (T002), so the exception list can only shrink or stay honest.
//!
//! The scanner is lexical, not syntactic: sources are stripped of comments,
//! string/char literals and doc text first (so a rule name *mentioned* in a
//! message or doc comment never trips the rule that polices it), and
//! `#[cfg(test)]` / `#[cfg(feature = "simcheck")]` regions are tracked by
//! brace depth so test-only and sanitizer-only code is exempt from the
//! robustness rules. Justification comments (`// INVARIANT:`, `// SAFETY:`,
//! `// CAST:`) are read from the *raw* lines, where comments still exist.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where a file sits in the workspace; decides which rules apply.
///
/// The determinism and safety rules (D00x, S001) apply everywhere: a test
/// that iterates a `HashMap` is a flaky test, and unsafe in a bench still
/// needs a safety argument. The robustness and cast rules (R001, C001) are
/// about production error handling, so they apply only to [`FileKind::Src`]
/// code outside `#[cfg(test)]` regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A library/binary source under some `crates/<name>/src/`.
    Src,
    /// An integration test under the repo-root `tests/`.
    TestsDir,
    /// A demo under the repo-root `examples/`.
    Examples,
    /// A plain-main timing harness under some `crates/<name>/benches/`.
    Benches,
}

impl FileKind {
    fn robustness_rules_apply(self) -> bool {
        matches!(self, FileKind::Src)
    }
}

/// One violation: `path:line [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (`D001`, `R001`, …).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

// ---------------------------------------------------------------------------
// Source stripping
// ---------------------------------------------------------------------------

/// Returns `source` with comments, string literals and char literals blanked
/// to spaces (newlines preserved), so token scans cannot be fooled by text.
///
/// Handles line comments, nested block comments, escaped `"…"` and `b"…"`
/// strings (including multi-line), raw strings `r"…"`/`r#"…"#`/`br#"…"#`,
/// and char literals (`'x'`, `'\n'`, `'"'`). Lifetimes (`'a`) are preserved.
pub fn strip_source(source: &str) -> String {
    let b = source.as_bytes();
    let mut out = b.to_vec();
    let n = b.len();
    let mut i = 0;
    let blank = |out: &mut [u8], from: usize, to: usize| {
        for o in out.iter_mut().take(to).skip(from) {
            if *o != b'\n' {
                *o = b' ';
            }
        }
    };
    while i < n {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let mut j = i;
            while j < n && b[j] != b'\n' {
                j += 1;
            }
            blank(&mut out, i, j);
            i = j;
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if b[j] == b'/' && j + 1 < n && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < n && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            blank(&mut out, i, j);
            i = j;
            continue;
        }
        // Raw string (r"…", r#"…"#, br#"…"#), only when `r` starts a token.
        if (c == b'r' || c == b'b') && !prev_is_ident(b, i) {
            let mut j = i + 1;
            if c == b'b' && j < n && b[j] == b'r' {
                j += 1;
            } else if c == b'b' {
                // `b"…"` byte string: handled by the plain-string arm below
                // when the quote is reached; `b` alone is ordinary code.
                i += 1;
                continue;
            }
            let mut hashes = 0usize;
            while j < n && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == b'"' {
                // Find `"` followed by `hashes` octothorpes.
                let mut k = j + 1;
                'raw: while k < n {
                    if b[k] == b'"' {
                        let mut h = 0usize;
                        while h < hashes && k + 1 + h < n && b[k + 1 + h] == b'#' {
                            h += 1;
                        }
                        if h == hashes {
                            k += 1 + hashes;
                            break 'raw;
                        }
                    }
                    k += 1;
                }
                blank(&mut out, i, k);
                i = k;
                continue;
            }
            // `r` / `br` not followed by a raw string: ordinary identifier.
            i += 1;
            continue;
        }
        // Plain string.
        if c == b'"' {
            let mut j = i + 1;
            while j < n {
                if b[j] == b'\\' {
                    j += 2;
                    continue;
                }
                if b[j] == b'"' {
                    j += 1;
                    break;
                }
                j += 1;
            }
            blank(&mut out, i, j.min(n));
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == b'\'' {
            if i + 1 < n && b[i + 1] == b'\\' {
                // Escaped char literal: '\n', '\'', '\u{1F600}'.
                let mut j = i + 2;
                while j < n && b[j] != b'\'' {
                    j += 1;
                }
                blank(&mut out, i, (j + 1).min(n));
                i = (j + 1).min(n);
                continue;
            }
            if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                // One-char literal, e.g. '"' or '{'.
                blank(&mut out, i, i + 3);
                i += 3;
                continue;
            }
            // Lifetime: keep.
            i += 1;
            continue;
        }
        i += 1;
    }
    // Blanking replaced bytes one-for-one, which keeps multi-byte UTF-8
    // sequences intact outside literals and turns them into spaces inside.
    String::from_utf8_lossy(&out).into_owned()
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let p = b[i - 1];
    p.is_ascii_alphanumeric() || p == b'_'
}

/// Whether `ident` occurs in `line` as a whole word (boundaries are
/// non-`[A-Za-z0-9_]`), so `unsafe` does not match `unsafe_code`.
fn has_word(line: &str, ident: &str) -> bool {
    let lb = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(ident) {
        let at = start + pos;
        let end = at + ident.len();
        let left_ok = at == 0 || !is_ident_byte(lb[at - 1]);
        let right_ok = end >= lb.len() || !is_ident_byte(lb[end]);
        if left_ok && right_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------------------
// Per-file scanner
// ---------------------------------------------------------------------------

/// Tracks `#[cfg(test)]` / `#[cfg(feature = "simcheck")]` regions by brace
/// depth while a file is scanned top to bottom.
#[derive(Debug, Default)]
struct RegionTracker {
    depth: usize,
    /// An exempting attribute was seen and is waiting for its item's `{`.
    pending: Option<RegionKind>,
    /// Open exempt regions: contents are exempt while `depth > open_depth`.
    open: Vec<(usize, RegionKind)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    Test,
    Simcheck,
}

impl RegionTracker {
    fn in_test(&self) -> bool {
        self.open.iter().any(|(_, k)| *k == RegionKind::Test)
    }

    fn in_simcheck(&self) -> bool {
        self.open.iter().any(|(_, k)| *k == RegionKind::Simcheck)
    }

    /// Observes one line. `stripped` drives the brace count and attribute
    /// detection; `raw` is consulted for the `"simcheck"` feature name,
    /// which lives in a string literal the stripper blanks.
    fn observe(&mut self, stripped: &str, raw: &str) {
        if stripped.contains("#[cfg(test)]") || stripped.contains("#[test]") {
            self.pending = Some(RegionKind::Test);
        } else if stripped.contains("#[cfg(feature =") && raw.contains("\"simcheck\"") {
            self.pending = Some(RegionKind::Simcheck);
        }
        for ch in stripped.chars() {
            match ch {
                '{' => {
                    if let Some(kind) = self.pending.take() {
                        self.open.push((self.depth, kind));
                    }
                    self.depth += 1;
                }
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    while matches!(self.open.last(), Some((d, _)) if *d >= self.depth) {
                        self.open.pop();
                    }
                }
                _ => {}
            }
        }
        // An exempt attribute on a braceless item (`#[cfg(test)] use …;`)
        // scopes to that item only; drop the pending marker at the `;`.
        if self.pending.is_some() && !stripped.contains('{') {
            let t = stripped.trim_end();
            if t.ends_with(';') {
                self.pending = None;
            }
        }
    }
}

const ENTROPY_TOKENS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "getrandom",
    "RandomState",
    "DefaultHasher",
];

const PANIC_PATTERNS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32"];

/// Identifier fragments that mark a line as budget/footprint/length
/// arithmetic — the class of code where a truncating `as` cast has already
/// produced a real bug (the PR 3 u64-µop-budget truncation).
const CAST_CONTEXT_WORDS: &[&str] = &["budget", "footprint", "bytes", "len", "uops", "cap"];

/// How many *code* lines above a violation a justification comment
/// (`// INVARIANT:`, `// SAFETY:`, `// CAST:`) may sit. Comment lines are
/// free: a multi-line `// SAFETY:` block directly above an `unsafe` block
/// counts however long it is, and a justification inside a method chain
/// still covers the `.expect(…)` two code lines below it.
const JUSTIFICATION_LOOKBACK: usize = 3;

/// Absolute cap on the upward walk, so a pathological comment wall cannot
/// make a justification bleed across half a file.
const JUSTIFICATION_MAX_WALK: usize = 40;

fn is_justified(raw_lines: &[&str], idx: usize, marker: &str) -> bool {
    if raw_lines.get(idx).is_some_and(|l| l.contains(marker)) {
        return true;
    }
    let mut code_lines = 0usize;
    for back in 1..=JUSTIFICATION_MAX_WALK {
        let Some(p) = idx.checked_sub(back) else {
            return false;
        };
        let Some(line) = raw_lines.get(p) else {
            return false;
        };
        if line.contains(marker) {
            return true;
        }
        if !line.trim_start().starts_with("//") {
            code_lines += 1;
            if code_lines >= JUSTIFICATION_LOOKBACK {
                return false;
            }
        }
    }
    false
}

/// Scans one file's source text. `path` is used verbatim in diagnostics.
///
/// This is the fixture-testable core: it applies every per-line rule but not
/// the crate-level S002 check, which needs directory context (see
/// [`check_workspace`]).
pub fn check_source(path: &str, source: &str, kind: FileKind) -> Vec<Diagnostic> {
    let stripped = strip_source(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut tracker = RegionTracker::default();
    let mut diags = Vec::new();

    for (idx, s) in stripped.lines().enumerate() {
        let line_no = idx + 1;
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        let in_test = tracker.in_test() || matches!(kind, FileKind::TestsDir);
        let in_simcheck = tracker.in_simcheck();
        // The tracker is advanced *after* the checks so a region's opening
        // line (`mod tests {`) is classified like the code above it; region
        // openers carry no forbidden tokens of their own.
        tracker.observe(s, raw);

        let justified = |marker: &str| is_justified(&raw_lines, idx, marker);

        // D001: hash-seeded containers, everywhere.
        for tok in ["HashMap", "HashSet"] {
            if has_word(s, tok) {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: line_no,
                    rule: "D001",
                    msg: format!(
                        "hash-based container `{tok}` (iteration order depends on a \
                         per-process hasher seed); use BTreeMap/BTreeSet or sorted iteration"
                    ),
                });
            }
        }

        // D002: wall-clock time, everywhere (timing modules are allowlisted).
        for tok in ["Instant", "SystemTime"] {
            if has_word(s, tok) {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: line_no,
                    rule: "D002",
                    msg: format!(
                        "wall-clock time source `{tok}` outside an allowlisted timing \
                         module; sim-state paths must be deterministic"
                    ),
                });
            }
        }

        // D003: entropy sources, everywhere.
        for tok in ENTROPY_TOKENS {
            if has_word(s, tok) {
                diags.push(Diagnostic {
                    path: path.to_string(),
                    line: line_no,
                    rule: "D003",
                    msg: format!(
                        "nondeterministic entropy source `{tok}`; all randomness must \
                         flow through the seeded bebop-rand generators"
                    ),
                });
            }
        }

        // R001: panicking calls in production library code.
        if kind.robustness_rules_apply() && !in_test && !in_simcheck {
            for pat in PANIC_PATTERNS {
                if s.contains(pat) && !justified("// INVARIANT:") {
                    diags.push(Diagnostic {
                        path: path.to_string(),
                        line: line_no,
                        rule: "R001",
                        msg: format!(
                            "`{pat}` in non-test code; propagate the error or justify \
                             the panic with an `// INVARIANT:` comment"
                        ),
                    });
                }
            }
        }

        // S001: unsafe without a safety argument (everywhere).
        if has_word(s, "unsafe") && !justified("// SAFETY:") {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "S001",
                msg: "`unsafe` without a `// SAFETY:` comment on or directly above the line"
                    .to_string(),
            });
        }

        // C001: narrowing casts on budget/footprint/length arithmetic.
        if kind.robustness_rules_apply()
            && !in_test
            && has_narrowing_cast(s)
            && line_mentions_cast_context(s)
            && !s.contains("try_from")
            && !s.contains("try_into")
            && !justified("// CAST:")
        {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: line_no,
                rule: "C001",
                msg: "narrowing `as` cast on a budget/footprint/length line; use \
                      try_from/try_into or justify with a `// CAST:` comment"
                    .to_string(),
            });
        }
    }
    diags
}

fn has_narrowing_cast(stripped: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = stripped[start..].find(" as ") {
        let after = &stripped[start + pos + 4..];
        let tok: String = after
            .chars()
            .skip_while(|c| *c == ' ')
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        if NARROW_CASTS.contains(&tok.as_str()) {
            return true;
        }
        start += pos + 4;
    }
    false
}

fn line_mentions_cast_context(stripped: &str) -> bool {
    let lower = stripped.to_ascii_lowercase();
    CAST_CONTEXT_WORDS.iter().any(|w| lower.contains(w))
}

// ---------------------------------------------------------------------------
// Allowlist (tidy.toml)
// ---------------------------------------------------------------------------

/// One file-scoped exception from `tidy.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule ID this entry suppresses (`D002`, …).
    pub rule: String,
    /// Workspace-relative path (forward slashes) the suppression covers.
    pub path: String,
    /// Mandatory human-readable justification.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for T001/T002 diagnostics.
    pub line: usize,
}

/// The parsed `tidy.toml` exception list.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// All well-formed entries, in file order.
    pub entries: Vec<AllowEntry>,
}

/// Parses the `tidy.toml` subset: `[[allow]]` tables of `key = "value"`
/// pairs, `#` comments, blank lines. Malformed entries come back as T001
/// diagnostics (against `path_label`) instead of being silently dropped.
pub fn parse_allowlist(path_label: &str, text: &str) -> (Allowlist, Vec<Diagnostic>) {
    let mut list = Allowlist::default();
    let mut diags = Vec::new();
    let mut current: Option<AllowEntry> = None;

    let mut finish = |entry: Option<AllowEntry>, diags: &mut Vec<Diagnostic>| {
        if let Some(e) = entry {
            if e.rule.is_empty() || e.path.is_empty() || e.reason.trim().is_empty() {
                diags.push(Diagnostic {
                    path: path_label.to_string(),
                    line: e.line,
                    rule: "T001",
                    msg: "allowlist entry must set rule, path and a non-empty reason".to_string(),
                });
            } else {
                list.entries.push(e);
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(current.take(), &mut diags);
            current = Some(AllowEntry {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
                line: idx + 1,
            });
            continue;
        }
        let parsed = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim().trim_matches('"').to_string()));
        match (current.as_mut(), parsed) {
            (Some(e), Some(("rule", v))) => e.rule = v,
            (Some(e), Some(("path", v))) => e.path = v,
            (Some(e), Some(("reason", v))) => e.reason = v,
            _ => diags.push(Diagnostic {
                path: path_label.to_string(),
                line: idx + 1,
                rule: "T001",
                msg: format!("unrecognised allowlist line `{line}`"),
            }),
        }
    }
    finish(current.take(), &mut diags);
    (list, diags)
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Scans the whole workspace under `root` (the directory holding `crates/`,
/// `tests/`, `examples/` and optionally `tidy.toml`) and returns every
/// diagnostic, deterministically sorted by `(path, line, rule)`.
///
/// On top of the per-line rules this applies:
/// - S002 per compilation unit (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`):
///   a unit whose crate contains no `unsafe` must `#![forbid(unsafe_code)]`.
/// - the `tidy.toml` allowlist, with T002 for entries that match nothing.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();

    // Allowlist first: its own errors are diagnostics too.
    let allow_path = root.join("tidy.toml");
    let (allowlist, mut allow_diags) = match fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist("tidy.toml", &text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => (Allowlist::default(), Vec::new()),
        Err(e) => return Err(e),
    };
    diags.append(&mut allow_diags);

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in sorted_entries(&crates_dir)? {
            if entry.join("Cargo.toml").is_file() {
                crate_dirs.push(entry);
            }
        }
    }

    for crate_dir in &crate_dirs {
        let mut crate_files: Vec<(PathBuf, FileKind)> = Vec::new();
        collect_rs(&crate_dir.join("src"), FileKind::Src, &mut crate_files)?;
        collect_rs(
            &crate_dir.join("benches"),
            FileKind::Benches,
            &mut crate_files,
        )?;

        let mut crate_has_unsafe = false;
        let mut stripped_by_path: Vec<(PathBuf, String)> = Vec::new();
        for (file, kind) in &crate_files {
            let source = fs::read_to_string(file)?;
            let rel = rel_label(root, file);
            diags.extend(check_source(&rel, &source, *kind));
            let stripped = strip_source(&source);
            if stripped.lines().any(|l| has_word(l, "unsafe")) {
                crate_has_unsafe = true;
            }
            stripped_by_path.push((file.clone(), stripped));
        }

        // S002: every compilation unit of an unsafe-free crate forbids
        // unsafe at the root, so the guarantee is compiler-enforced from
        // then on rather than re-derived by this scanner.
        if !crate_has_unsafe {
            let mut units: Vec<PathBuf> = Vec::new();
            for candidate in ["src/lib.rs", "src/main.rs"] {
                let p = crate_dir.join(candidate);
                if p.is_file() {
                    units.push(p);
                }
            }
            let bin_dir = crate_dir.join("src/bin");
            if bin_dir.is_dir() {
                for p in sorted_entries(&bin_dir)? {
                    if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                        units.push(p);
                    }
                }
            }
            for unit in units {
                let declared = stripped_by_path
                    .iter()
                    .find(|(p, _)| *p == unit)
                    .is_some_and(|(_, s)| s.contains("#![forbid(unsafe_code)]"));
                if !declared {
                    let crate_name = crate_dir
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or("?");
                    diags.push(Diagnostic {
                        path: rel_label(root, &unit),
                        line: 1,
                        rule: "S002",
                        msg: format!(
                            "crate `{crate_name}` contains no unsafe code but this \
                             compilation unit does not declare #![forbid(unsafe_code)]"
                        ),
                    });
                }
            }
        }
    }

    for (dir, kind) in [
        (root.join("tests"), FileKind::TestsDir),
        (root.join("examples"), FileKind::Examples),
    ] {
        let mut files = Vec::new();
        collect_rs(&dir, kind, &mut files)?;
        for (file, kind) in files {
            let source = fs::read_to_string(&file)?;
            diags.extend(check_source(&rel_label(root, &file), &source, kind));
        }
    }

    // Apply the allowlist; entries that suppressed nothing are stale (T002).
    let mut used: BTreeSet<usize> = BTreeSet::new();
    diags.retain(|d| {
        match allowlist
            .entries
            .iter()
            .position(|e| e.rule == d.rule && e.path == d.path)
        {
            Some(i) => {
                used.insert(i);
                false
            }
            None => true,
        }
    });
    for (i, e) in allowlist.entries.iter().enumerate() {
        if !used.contains(&i) {
            diags.push(Diagnostic {
                path: "tidy.toml".to_string(),
                line: e.line,
                rule: "T002",
                msg: format!(
                    "stale allowlist entry: rule {} no longer fires in `{}` — delete it",
                    e.rule, e.path
                ),
            });
        }
    }

    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(diags)
}

/// Walks `dir` recursively, pushing every `.rs` file with `kind`. Skips
/// `fixtures/` (tidy's rule-tripping corpus must trip rules) and `target/`.
fn collect_rs(dir: &Path, kind: FileKind, out: &mut Vec<(PathBuf, FileKind)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in sorted_entries(dir)? {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs(&entry, kind, out)?;
        } else if name.ends_with(".rs") {
            out.push((entry, kind));
        }
    }
    Ok(())
}

/// `read_dir` in sorted order: the walk (and therefore every diagnostic
/// list, golden output and exit path) is independent of directory-entry
/// order — tidy holds itself to its own determinism rules.
fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn rel_label(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    // Forward slashes in diagnostics regardless of host separator.
    rel.to_string_lossy().replace('\\', "/")
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str, kind: FileKind) -> Vec<&'static str> {
        check_source("f.rs", src, kind)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn stripper_blanks_comments_and_strings() {
        let s = strip_source("let x = \"HashMap\"; // HashMap\n/* HashMap */ let y = 1;");
        assert!(!s.contains("HashMap"), "{s}");
        assert!(s.contains("let x ="));
        assert!(s.contains("let y = 1;"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_char_literals() {
        let s = strip_source("let a = r#\"Instant\"#; let b = '\"'; let c = \"x\\\"Instant\";");
        assert!(!s.contains("Instant"), "{s}");
        // A lifetime must survive stripping (it is not a char literal).
        let s = strip_source("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(s.contains("fn f<'a>"), "{s}");
        // Nested block comments fully close.
        let s = strip_source("/* outer /* inner */ still comment */ let z = 1;");
        assert!(s.contains("let z = 1;"), "{s}");
    }

    #[test]
    fn d001_fires_on_hash_containers_only() {
        assert_eq!(
            rules("use std::collections::HashMap;", FileKind::Src),
            vec!["D001"]
        );
        assert_eq!(
            rules("let s: HashSet<u32>;", FileKind::TestsDir),
            vec!["D001"]
        );
        assert!(rules("use std::collections::BTreeMap;", FileKind::Src).is_empty());
        // Mentions in docs and strings never fire.
        assert!(rules(
            "// HashMap is forbidden\nlet m = \"HashMap\";",
            FileKind::Src
        )
        .is_empty());
    }

    #[test]
    fn d002_fires_on_wall_clock_but_not_duration() {
        assert_eq!(
            rules("let t = Instant::now();", FileKind::Src),
            vec!["D002"]
        );
        assert_eq!(
            rules("let t = SystemTime::now();", FileKind::Benches),
            vec!["D002"]
        );
        assert!(rules("use std::time::Duration;", FileKind::Src).is_empty());
    }

    #[test]
    fn d003_fires_on_entropy_sources() {
        assert_eq!(
            rules("let mut r = thread_rng();", FileKind::Src),
            vec!["D003"]
        );
        assert_eq!(
            rules(
                "use std::collections::hash_map::RandomState;",
                FileKind::Src
            ),
            vec!["D003"]
        );
        assert_eq!(
            rules("let h = DefaultHasher::new();", FileKind::Src),
            vec!["D003"]
        );
        assert!(rules("let r = SmallRng::seed_from_u64(7);", FileKind::Src).is_empty());
    }

    #[test]
    fn r001_respects_test_and_simcheck_regions_and_justifications() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(rules(src, FileKind::Src), vec!["R001"]);
        // Tests-dir files and cfg(test) modules are exempt.
        assert!(rules(src, FileKind::TestsDir).is_empty());
        let in_mod =
            "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\nfn g() { y.unwrap(); }";
        let diags = check_source("f.rs", in_mod, FileKind::Src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
        // Simcheck-gated invariant code is allowed to panic.
        let simcheck = "#[cfg(feature = \"simcheck\")]\nfn check(&self) {\n    panic!(\"bad\");\n}";
        assert!(rules(simcheck, FileKind::Src).is_empty());
        // A justification silences the rule, on the line or just above.
        assert!(rules("x.unwrap(); // INVARIANT: set in new()", FileKind::Src).is_empty());
        assert!(rules(
            "// INVARIANT: the pool is non-empty after init\nx.unwrap();",
            FileKind::Src
        )
        .is_empty());
    }

    #[test]
    fn s001_requires_safety_comment() {
        assert_eq!(rules("unsafe { ptr.read() }", FileKind::Src), vec!["S001"]);
        assert!(rules(
            "// SAFETY: ptr is valid for reads, checked above\nunsafe { ptr.read() }",
            FileKind::Src
        )
        .is_empty());
        // `unsafe_code` (the lint name) is not the `unsafe` keyword.
        assert!(rules("#![forbid(unsafe_code)]", FileKind::Src).is_empty());
    }

    #[test]
    fn c001_flags_narrowing_casts_on_budget_lines_only() {
        assert_eq!(
            rules("let n = budget as usize;", FileKind::Src),
            vec!["C001"]
        );
        assert_eq!(
            rules("let b = footprint_bytes as u32;", FileKind::Src),
            vec!["C001"]
        );
        // Widening and context-free casts pass.
        assert!(rules("let w = x as u64;", FileKind::Src).is_empty());
        assert!(rules("let idx = tag as usize;", FileKind::Src).is_empty());
        // try_from or a CAST justification silences it.
        assert!(rules("let n = usize::try_from(budget)?;", FileKind::Src).is_empty());
        assert!(rules(
            "let n = budget as usize; // CAST: bounded by MAX_CELLS above",
            FileKind::Src
        )
        .is_empty());
        // Test code is exempt.
        assert!(rules("let n = budget as usize;", FileKind::TestsDir).is_empty());
    }

    #[test]
    fn allowlist_parses_and_reports_malformed_entries() {
        let good =
            "# comment\n[[allow]]\nrule = \"D002\"\npath = \"a/b.rs\"\nreason = \"timing\"\n";
        let (list, diags) = parse_allowlist("tidy.toml", good);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(list.entries.len(), 1);
        assert_eq!(list.entries[0].rule, "D002");

        let missing_reason = "[[allow]]\nrule = \"D002\"\npath = \"a.rs\"\n";
        let (list, diags) = parse_allowlist("tidy.toml", missing_reason);
        assert!(list.entries.is_empty());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "T001");

        let garbage = "rule without entry\n";
        let (_, diags) = parse_allowlist("tidy.toml", garbage);
        assert_eq!(diags[0].rule, "T001");
    }

    #[test]
    fn diagnostics_format_is_stable() {
        let d = Diagnostic {
            path: "crates/x/src/lib.rs".to_string(),
            line: 7,
            rule: "D001",
            msg: "m".to_string(),
        };
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:7 [D001] m");
    }
}
