//! Lock-across-I/O lint (the PR 4 invariant).
//!
//! The server's rule: service locks (store, queue) are never held
//! across durable disk writes, so reads proceed during large persists
//! and fsyncs. This check flags every durable-write call
//! ([`crate::model::IO_METHODS`], `.append(true)` on `OpenOptions`
//! excepted) that runs while a `Mutex`/`RwLock` guard is live. Both
//! sides come from the [`crate::model`] layer, the same guard tracking
//! `lock-order` reads: a `let`-bound guard lives until `drop(name)` or
//! its block closes, and a guard held by an `if let`/`while let`/
//! `match` scrutinee lives through that statement's blocks.
//!
//! The journal holds its *own* dedicated mutex across appends by
//! design — that lock exists precisely to serialize disk writes and is
//! never taken by the read path. Those sites carry
//! `// lint: allow(lock-across-io): …` pragmas naming that rationale.

use std::path::Path;

use crate::model::{self, EventKind};
use crate::{collect_rs_files, rel_path, Check, Finding, SourceFile};

/// Runs the check over one file. Test items are invisible to the
/// model, so a test may hold a lock to stage a scenario.
pub fn check_source(sf: &SourceFile, out: &mut Vec<Finding>) {
    for e in model::build(sf).events {
        let EventKind::Io { method } = &e.kind else { continue };
        for h in &e.held {
            let guard = match &h.binding {
                Some(b) => format!("lock guard `{b}` (bound at line {})", h.line),
                None => format!("the `{}` guard of the scrutinee at line {}", h.lock, h.line),
            };
            sf.push(
                out,
                Check::LockAcrossIo,
                e.line,
                format!(
                    "durable write `{method}()` while {guard} is live; release the lock \
                     before disk I/O or justify with `// lint: allow(lock-across-io): <why>`"
                ),
            );
        }
    }
    sf.unused_pragmas(Check::LockAcrossIo, out);
}

pub fn run(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let dir = root.join("crates/server/src");
    for path in collect_rs_files(&dir) {
        let src = std::fs::read_to_string(&path)?;
        let sf = SourceFile::from_source(&rel_path(root, &path), &src);
        check_source(&sf, out);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::from_source("t.rs", src);
        let mut out = Vec::new();
        check_source(&sf, &mut out);
        out
    }

    #[test]
    fn flags_guard_live_across_sync() {
        let out = findings(
            "fn f(&self) {\n  let mut s = self.inner.lock().unwrap();\n  s.file.sync_all().unwrap();\n}",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`sync_all()`"));
        assert!(out[0].message.contains("`s`"));
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn scoped_guard_released_before_io_is_clean() {
        let out = findings(
            "fn f(&self) {\n  { let mut s = self.inner.lock().unwrap(); s.touch(); }\n  self.file.sync_all().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn explicit_drop_kills_guard() {
        let out = findings(
            "fn f(&self) {\n  let s = self.inner.lock().unwrap();\n  drop(s);\n  self.file.sync_data().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn io_read_with_args_is_not_a_guard() {
        let out = findings(
            "fn f(&self) {\n  let n = stream.read(&mut buf).unwrap();\n  self.file.sync_all().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn open_options_append_flag_is_not_io() {
        let out = findings(
            "fn f(&self) {\n  let g = self.m.lock().unwrap();\n  let f = OpenOptions::new().append(true).open(p);\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn rwlock_write_guard_tracked() {
        let out = findings(
            "fn f(&self) {\n  let w = self.map.write();\n  self.journal.rewrite(&w).unwrap();\n}",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`rewrite()`"));
    }

    #[test]
    fn pragma_suppresses_on_call_line() {
        let out = findings(
            "fn f(&self) {\n  let j = self.journal.lock().unwrap();\n  // lint: allow(lock-across-io): dedicated journal lock, never on the read path\n  j.file.sync_data().unwrap();\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
