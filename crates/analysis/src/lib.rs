#![forbid(unsafe_code)]
//! # trajdp-analysis
//!
//! An offline, dependency-free static-analysis pass over the workspace.
//! It exists because the system's hardest-won guarantees are invisible
//! to `rustc`: byte-reproducible anonymization at any worker count, acks
//! only after fsync with no service lock held across disk I/O, and a
//! frozen wire contract documented in PROTOCOL.md. Four checks are
//! token-level scans:
//!
//! * [`checks::unsafe_audit`] — every `unsafe` site needs an adjacent
//!   `// SAFETY:` comment; crates without unsafe must carry
//!   `#![forbid(unsafe_code)]`, the one with it `#![deny(unsafe_op_in_unsafe_fn)]`.
//! * [`checks::lock_io`] — no `Mutex`/`RwLock` guard may be live across
//!   a durable-write call (`sync_all`, `sync_data`, `persist`, `fsync`,
//!   journal `append`/`rewrite`) in `crates/server`.
//! * [`checks::determinism`] — `crates/core`, `crates/mech` and
//!   `crates/index` must not iterate hash maps/sets or read wall clocks
//!   on result-affecting paths.
//! * [`checks::drift`] — PROTOCOL.md's error-code, verb, and metric
//!   tables must match `api.rs`/`obs.rs` exactly.
//!
//! Four more consume the [`model`] dataflow layer (function/impl spans,
//! guard liveness, a name-resolved call graph) because the invariants
//! they guard span functions and files:
//!
//! * [`checks::lock_order`] — the server's lock graph must match the
//!   documented hierarchy (journal → queue, journal → store, nothing
//!   else) and be cycle-free.
//! * [`checks::panic_path`] — no `unwrap`/`expect`/`panic!`-family
//!   macro/slice-index reachable from request dispatch without a
//!   `// PANIC: <why impossible>` justification.
//! * [`checks::reactor_blocking`] — the reactor thread must not do
//!   durable I/O, sleep, or take locks outside `impl Executor`.
//! * [`checks::rng_discipline`] — `crates/core` + `crates/mech` derive
//!   every RNG from `core::stream` per-unit streams.
//!
//! Findings are deterministic, `file:line`-addressed, and suppressible
//! only via an inline `// lint: allow(<check>): <reason>` pragma on the
//! flagged line or the line directly above it. A pragma without a
//! reason is itself a finding.

pub mod checks;
pub mod lexer;
pub mod model;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::Tok;

/// The eight invariant checks. The wire names (used in pragmas,
/// diagnostics, and `--check`) are kebab-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    UnsafeAudit,
    LockAcrossIo,
    LockOrder,
    PanicPath,
    ReactorBlocking,
    Determinism,
    RngDiscipline,
    ProtocolDrift,
}

impl Check {
    /// Every check, in run order.
    pub const ALL: [Check; 8] = [
        Check::UnsafeAudit,
        Check::LockAcrossIo,
        Check::LockOrder,
        Check::PanicPath,
        Check::ReactorBlocking,
        Check::Determinism,
        Check::RngDiscipline,
        Check::ProtocolDrift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Check::UnsafeAudit => "unsafe-audit",
            Check::LockAcrossIo => "lock-across-io",
            Check::LockOrder => "lock-order",
            Check::PanicPath => "panic-path",
            Check::ReactorBlocking => "reactor-blocking",
            Check::Determinism => "determinism",
            Check::RngDiscipline => "rng-discipline",
            Check::ProtocolDrift => "protocol-drift",
        }
    }

    pub fn from_name(s: &str) -> Option<Check> {
        Check::ALL.into_iter().find(|c| c.name() == s)
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic. `file` is repo-relative with forward slashes so the
/// output is deterministic across machines.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub check: Check,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.check, self.message)
    }
}

/// Suppression pragmas parsed out of one file's comments.
///
/// A pragma `// lint: allow(<check>): <reason>` suppresses findings of
/// that check on the pragma's own line and on the next code line (the
/// line of the first non-comment token after it). Malformed pragmas and
/// pragmas without a reason are reported as findings of the named check
/// (or `unsafe-audit` when even the name is unreadable) so they cannot
/// be used as silent escape hatches.
pub struct Suppressions {
    /// check -> suppressed lines
    allowed: BTreeMap<Check, Vec<u32>>,
    /// Findings produced by malformed pragmas.
    pub errors: Vec<(u32, String)>,
}

impl Suppressions {
    pub fn parse(toks: &[Tok]) -> Suppressions {
        let mut allowed: BTreeMap<Check, Vec<u32>> = BTreeMap::new();
        let mut errors = Vec::new();
        for (idx, t) in toks.iter().enumerate() {
            if !t.is_comment() {
                continue;
            }
            let body = t.text.trim().trim_start_matches('/').trim_start();
            let Some(rest) = body.strip_prefix("lint:") else { continue };
            let rest = rest.trim_start();
            let Some(rest) = rest.strip_prefix("allow(") else {
                errors.push((
                    t.line,
                    "malformed lint pragma: expected `lint: allow(<check>): <reason>`".into(),
                ));
                continue;
            };
            let Some(close) = rest.find(')') else {
                errors.push((t.line, "malformed lint pragma: missing `)`".into()));
                continue;
            };
            let name = rest[..close].trim();
            let Some(check) = Check::from_name(name) else {
                errors.push((t.line, format!("lint pragma names unknown check `{name}`")));
                continue;
            };
            let tail = rest[close + 1..].trim_start();
            let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
            if reason.is_empty() {
                errors.push((
                    t.line,
                    format!("lint pragma for `{check}` is missing a reason: `// lint: allow({check}): <why>`"),
                ));
                continue;
            }
            // Target lines: the pragma's own line, and the line of the
            // next non-comment token (the code line it annotates).
            let lines = allowed.entry(check).or_default();
            lines.push(t.line);
            if let Some(next) = toks[idx + 1..].iter().find(|n| !n.is_comment()) {
                lines.push(next.line);
            }
        }
        Suppressions { allowed, errors }
    }

    pub fn is_allowed(&self, check: Check, line: u32) -> bool {
        self.allowed.get(&check).is_some_and(|lines| lines.contains(&line))
    }
}

/// A loaded-and-lexed source file, shared by the checks.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    pub toks: Vec<Tok>,
    pub suppressions: Suppressions,
}

impl SourceFile {
    pub fn from_source(rel: &str, src: &str) -> SourceFile {
        let toks = lexer::lex(src);
        let suppressions = Suppressions::parse(&toks);
        SourceFile { rel: rel.to_string(), toks, suppressions }
    }

    /// Emits `finding` unless a pragma covers it.
    pub fn push(&self, out: &mut Vec<Finding>, check: Check, line: u32, message: String) {
        if !self.suppressions.is_allowed(check, line) {
            out.push(Finding { file: self.rel.clone(), line, check, message });
        }
    }

    /// Pragma-parse errors become findings unconditionally.
    pub fn pragma_errors(&self, out: &mut Vec<Finding>) {
        for (line, msg) in &self.suppressions.errors {
            out.push(Finding {
                file: self.rel.clone(),
                line: *line,
                check: Check::UnsafeAudit,
                message: msg.clone(),
            });
        }
    }
}

/// Returns true for token ranges inside `#[cfg(test)]` items: test
/// modules and test-only functions are exempt from the determinism and
/// metric-extraction passes (they assert on rendered output and iterate
/// freely). Computes, per token index, whether it is covered.
pub fn cfg_test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let code: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut ci = 0usize;
    while ci < code.len() {
        let i = code[ci];
        // Match `# [ cfg ( test ) ]`.
        let is_cfg_test = toks[i].is_punct('#')
            && code.get(ci + 1).is_some_and(|&j| toks[j].is_punct('['))
            && code.get(ci + 2).is_some_and(|&j| toks[j].is_ident("cfg"))
            && code.get(ci + 3).is_some_and(|&j| toks[j].is_punct('('))
            && code.get(ci + 4).is_some_and(|&j| toks[j].is_ident("test"))
            && code.get(ci + 5).is_some_and(|&j| toks[j].is_punct(')'))
            && code.get(ci + 6).is_some_and(|&j| toks[j].is_punct(']'));
        if !is_cfg_test {
            ci += 1;
            continue;
        }
        // Skip the attribute itself, any further attributes, then the
        // item: everything up to a `;` before any brace, or the first
        // balanced `{ … }` group.
        let mut cj = ci + 7;
        // Further attributes (e.g. #[test] after #[cfg(test)]).
        while cj < code.len() && toks[code[cj]].is_punct('#') {
            let mut depth = 0i32;
            cj += 1; // past '#'
            while cj < code.len() {
                let t = &toks[code[cj]];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        cj += 1;
                        break;
                    }
                }
                cj += 1;
            }
        }
        let mut brace = 0i32;
        let mut entered = false;
        while cj < code.len() {
            let t = &toks[code[cj]];
            if t.is_punct('{') {
                brace += 1;
                entered = true;
            } else if t.is_punct('}') {
                brace -= 1;
                if entered && brace == 0 {
                    cj += 1;
                    break;
                }
            } else if t.is_punct(';') && !entered {
                cj += 1;
                break;
            }
            cj += 1;
        }
        // Mark every token index (including comments) in [i .. end).
        let end_tok = if cj < code.len() { code[cj] } else { toks.len() };
        for m in mask.iter_mut().take(end_tok).skip(i) {
            *m = true;
        }
        ci = cj;
    }
    mask
}

/// Recursively collects `.rs` files under `dir`, skipping build output,
/// VCS metadata, and the linter's own fixture corpus (which seeds
/// deliberate violations). Output is sorted for determinism.
pub fn collect_rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Repo-relative display path with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Runs all eight checks over the workspace at `root` and returns the
/// sorted findings. This is what `main` and the integration tests call.
pub fn run_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    run_workspace_filtered(root, None)
}

/// [`run_workspace`], optionally restricted to a single check
/// (`--check <name>`). Note that pragma-grammar errors are reported by
/// the unsafe-audit pass, so a filtered run of another check will not
/// surface them.
pub fn run_workspace_filtered(root: &Path, only: Option<Check>) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let want = |c: Check| only.is_none() || only == Some(c);
    if want(Check::UnsafeAudit) {
        checks::unsafe_audit::run(root, &mut findings)?;
    }
    if want(Check::LockAcrossIo) {
        checks::lock_io::run(root, &mut findings)?;
    }
    if want(Check::LockOrder) {
        checks::lock_order::run(root, &mut findings)?;
    }
    if want(Check::PanicPath) {
        checks::panic_path::run(root, &mut findings)?;
    }
    if want(Check::ReactorBlocking) {
        checks::reactor_blocking::run(root, &mut findings)?;
    }
    if want(Check::Determinism) {
        checks::determinism::run(root, &mut findings)?;
    }
    if want(Check::RngDiscipline) {
        checks::rng_discipline::run(root, &mut findings)?;
    }
    if want(Check::ProtocolDrift) {
        checks::drift::run(root, &mut findings)?;
    }
    findings.sort();
    findings.dedup();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_grammar() {
        let sf = SourceFile::from_source(
            "x.rs",
            "// lint: allow(determinism): sorted immediately below\nlet a = 1;\n\
             // lint: allow(determinism)\nlet b = 2;\n\
             // lint: allow(bogus-check): whatever\nlet c = 3;\n",
        );
        assert!(sf.suppressions.is_allowed(Check::Determinism, 1));
        assert!(sf.suppressions.is_allowed(Check::Determinism, 2));
        assert!(!sf.suppressions.is_allowed(Check::Determinism, 4));
        assert_eq!(sf.suppressions.errors.len(), 2);
        assert!(sf.suppressions.errors[0].1.contains("missing a reason"));
        assert!(sf.suppressions.errors[1].1.contains("unknown check"));
    }

    #[test]
    fn cfg_test_mask_covers_test_modules() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() {}\n}\nfn after() {}";
        let toks = lexer::lex(src);
        let mask = cfg_test_mask(&toks);
        let idx_of = |name: &str| toks.iter().position(|t| t.is_ident(name)).unwrap();
        assert!(!mask[idx_of("live")]);
        assert!(mask[idx_of("tests")]);
        assert!(mask[idx_of("t")]);
        assert!(!mask[idx_of("after")]);
    }
}
