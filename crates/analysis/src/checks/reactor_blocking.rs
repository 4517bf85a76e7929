//! Reactor-blocking check.
//!
//! The connection plane is a single `poll(2)` thread: every
//! connection's readability, writability, and timeout handling shares
//! it. Anything that blocks there — durable I/O, `thread::sleep`, or a
//! contended lock — stalls *every* connection at once, which is exactly
//! the failure mode the reactor exists to prevent. The designated
//! escape hatch is the executor: `impl Executor` owns the worker pool,
//! its queue lock, and the dispatch call, so blocking is legal there
//! and only there.
//!
//! Concretely, in `reactor.rs`, outside `impl Executor`:
//!
//! * no durable-write call ([`crate::model::IO_METHODS`]),
//! * no `Mutex`/`RwLock` acquisition, and
//! * no call to `sleep`.
//!
//! The check is per-file and uses the [`crate::model`] layer only for
//! function/impl attribution and event extraction; `#[cfg(test)]` code
//! is invisible to the model and therefore exempt.

use std::path::Path;

use crate::model::{self, EventKind};
use crate::{collect_rs_files, rel_path, Check, Finding, SourceFile};

/// The impl block allowed to block: the executor dispatch plane.
const DISPATCH_PLANE: &str = "Executor";

/// Runs the check over one file treated as a reactor source (the
/// fixture tests drive this directly).
pub fn check_source(sf: &SourceFile, out: &mut Vec<Finding>) {
    let m = model::build(sf);
    for e in &m.events {
        let in_dispatch_plane =
            e.fn_idx.is_some_and(|fi| m.fns[fi].impl_type.as_deref() == Some(DISPATCH_PLANE));
        if in_dispatch_plane {
            continue;
        }
        let fn_name = e.fn_idx.map(|fi| m.fns[fi].name.as_str()).unwrap_or("<top level>");
        let blocked = match &e.kind {
            EventKind::Io { method } => format!("durable I/O `{method}()`"),
            EventKind::Acquire { lock } => format!("lock `{lock}` acquired"),
            EventKind::Call { callee } if callee == "sleep" => "`sleep` called".to_string(),
            _ => continue,
        };
        sf.push(
            out,
            Check::ReactorBlocking,
            e.line,
            format!(
                "{blocked} on the reactor thread (in `{fn_name}`); only `impl {DISPATCH_PLANE}` \
                 may block — hand the work to the executor"
            ),
        );
    }
    sf.unused_pragmas(Check::ReactorBlocking, out);
}

pub fn run(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let dir = root.join("crates/server/src");
    for path in collect_rs_files(&dir) {
        if path.file_name().is_none_or(|n| n != "reactor.rs") {
            continue;
        }
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
        let sf = SourceFile::from_source("crates/server/src/reactor.rs", src);
        let mut out = Vec::new();
        check_source(&sf, &mut out);
        out
    }

    #[test]
    fn blocking_in_the_readiness_loop_is_flagged() {
        let out = findings(
            "impl Reactor { fn run(&mut self) {\n\
               std::thread::sleep(ms);\n\
               let q = self.queue.lock().unwrap();\n\
               self.journal.sync_all().unwrap();\n\
             } }",
        );
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(msgs[0].contains("`sleep` called"), "{out:?}");
        assert!(msgs[1].contains("lock `queue` acquired"), "{out:?}");
        assert!(msgs[2].contains("durable I/O `sync_all()`"), "{out:?}");
    }

    #[test]
    fn executor_impl_is_the_sanctioned_plane() {
        let out = findings(
            "impl Executor { fn worker(&self) {\n\
               let task = rx.lock().unwrap().recv();\n\
               self.journal.sync_all().unwrap();\n\
             } }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
