//! Panic-path check.
//!
//! A panic on a request path is a protocol violation: the reactor's
//! worker pool catches unwinds, but the client sees a connection reset
//! or a stuck job instead of a stable error code, and a poisoned lock
//! then converts every *subsequent* request into the same failure. So:
//! no `unwrap()`, `expect("…")`, `panic!`/`unreachable!`-family macro,
//! or slice/array index on any function reachable from request
//! dispatch, unless the site carries a `// PANIC: <why impossible>`
//! comment (same line or the two lines directly above) stating why the
//! panic cannot fire, or a `lint: allow` pragma.
//!
//! Roots are every function in `reactor.rs` (the connection plane runs
//! them all) plus any function named `dispatch`, `make_dispatch`, or
//! `handle` (the service entry points). Reachability is the
//! [`crate::model`] name-based call graph: a call `x.f(…)` reaches
//! every workspace function named `f` except the std-shadowed names —
//! over-approximate in the direction an auditor wants. `#[cfg(test)]`
//! code is invisible to the model and therefore exempt.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use crate::model::{self, EventKind, FileModel, STD_SHADOWED};
use crate::{collect_rs_files, rel_path, Check, Finding, SourceFile};

/// Service entry points that root the reachability walk wherever they
/// are defined (reactor.rs functions are roots unconditionally).
const ROOT_NAMES: [&str; 3] = ["dispatch", "handle", "make_dispatch"];

/// How far above a panic site a `// PANIC:` justification may sit.
const PANIC_WINDOW_LINES: u32 = 2;

/// Is the panic site on `line` covered by a `// PANIC:` comment — same
/// line, or anywhere in a contiguous comment run that ends within the
/// window above (so a justification longer than two lines still
/// counts, mirroring the unsafe-audit `SAFETY:` rule)?
fn has_panic_comment(sf: &SourceFile, line: u32) -> bool {
    let mut code_lines = BTreeSet::new();
    let mut comment_lines = BTreeSet::new();
    let mut panic_lines = BTreeSet::new();
    for t in &sf.toks {
        if t.is_comment() {
            comment_lines.insert(t.line);
            if t.text.contains("PANIC:") {
                panic_lines.insert(t.line);
            }
        } else {
            code_lines.insert(t.line);
        }
    }
    if panic_lines.contains(&line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let pure_comment = comment_lines.contains(&l) && !code_lines.contains(&l);
        if pure_comment {
            if panic_lines.contains(&l) {
                return true;
            }
        } else if code_lines.contains(&l) || line - l >= PANIC_WINDOW_LINES {
            return false;
        }
    }
    false
}

/// Runs the check over an already-loaded set of source files (the
/// fixture tests drive this directly).
pub fn check_sources(sources: &[SourceFile], out: &mut Vec<Finding>) {
    let models: Vec<FileModel> = sources.iter().map(model::build).collect();

    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (si, m) in models.iter().enumerate() {
        for (fi, f) in m.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push((si, fi));
        }
    }

    let mut reachable: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for (si, m) in models.iter().enumerate() {
        let is_reactor = sources[si].rel.ends_with("reactor.rs");
        for (fi, f) in m.fns.iter().enumerate() {
            if (is_reactor || ROOT_NAMES.contains(&f.name.as_str())) && reachable.insert((si, fi)) {
                queue.push_back((si, fi));
            }
        }
    }
    while let Some((si, fi)) = queue.pop_front() {
        for e in models[si].fn_events(fi) {
            let EventKind::Call { callee } = &e.kind else { continue };
            if STD_SHADOWED.contains(&callee.as_str()) {
                continue;
            }
            for &(ti, tfi) in by_name.get(callee.as_str()).into_iter().flatten() {
                if reachable.insert((ti, tfi)) {
                    queue.push_back((ti, tfi));
                }
            }
        }
    }

    for &(si, fi) in &reachable {
        let sf = &sources[si];
        let f = &models[si].fns[fi];
        for e in models[si].fn_events(fi) {
            let EventKind::Panic { what } = &e.kind else { continue };
            if has_panic_comment(sf, e.line) {
                continue;
            }
            sf.push(
                out,
                Check::PanicPath,
                e.line,
                format!(
                    "{what} in `{}` is reachable from request dispatch; return a stable \
                     error code instead, or justify with `// PANIC: <why impossible>`",
                    f.name
                ),
            );
        }
    }
    for sf in sources {
        sf.unused_pragmas(Check::PanicPath, out);
    }
}

pub fn run(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let dir = root.join("crates/server/src");
    let mut sources = Vec::new();
    for path in collect_rs_files(&dir) {
        let src = std::fs::read_to_string(&path)?;
        sources.push(SourceFile::from_source(&rel_path(root, &path), &src));
    }
    check_sources(&sources, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)]) -> Vec<Finding> {
        let sources: Vec<SourceFile> =
            files.iter().map(|(rel, src)| SourceFile::from_source(rel, src)).collect();
        let mut out = Vec::new();
        check_sources(&sources, &mut out);
        out.sort();
        out
    }

    #[test]
    fn unwrap_reachable_from_dispatch_is_flagged() {
        let out = findings(&[
            ("service.rs", "fn dispatch(req: &Req) { submit(req); }"),
            ("jobs.rs", "fn submit(req: &Req) { let id = req.id.unwrap(); }"),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`unwrap()` in `submit`"), "{out:?}");
    }

    #[test]
    fn unreachable_fn_may_panic() {
        let out = findings(&[
            ("service.rs", "fn dispatch(req: &Req) { submit(req); }"),
            ("bench.rs", "fn bench_only(req: &Req) { let id = req.id.unwrap(); }"),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn panic_comment_excuses_the_site() {
        let out = findings(&[(
            "service.rs",
            "fn dispatch(v: &[u8]) {\n\
               // PANIC: verb_index() returns a position into this very table\n\
               let b = v[0];\n\
               let c = v[1]; // PANIC: length checked two lines up\n\
             }",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stale_panic_comment_does_not_cover_past_code() {
        let out = findings(&[(
            "service.rs",
            "fn dispatch(v: &[u8]) {\n\
               // PANIC: only covers the next line\n\
               let a = v.first();\n\
               let b = v[0];\n\
             }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn reactor_fns_are_roots_and_cfg_test_is_exempt() {
        let out = findings(&[(
            "reactor.rs",
            "impl Reactor { fn poll_once(&self) { self.events[0].check(); } }\n\
             #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("slice/array index in `poll_once`"), "{out:?}");
    }
}
