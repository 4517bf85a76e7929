//! Lock-order check.
//!
//! The server has three long-lived locks with a documented hierarchy
//! (README "Lock hierarchy"): the journal mutex is outermost, the queue
//! mutex may be taken while the journal is held (submit and finish
//! journal first, then publish state), the store mutex may be taken
//! while the journal is held (pin/unpin under the durability barrier) —
//! and nothing else. In particular the store mutex is never held across
//! the queue lock, and no lock is ever taken while itself held.
//!
//! This check extracts the actual lock graph from the [`crate::model`]
//! layer: every acquisition records which named guards were live, both
//! directly and one call level deep (a call made while holding a lock
//! contributes edges to every lock the callee acquires directly). It
//! then fails on:
//!
//! * any edge between two hierarchy locks that is not one of the two
//!   sanctioned edges,
//! * any self-edge (re-acquiring a lock already held — self-deadlock
//!   with `std::sync::Mutex`), and
//! * any cycle anywhere in the graph, including locks outside the
//!   documented hierarchy.
//!
//! Lock identity is name-based: guards resolve to the field they were
//! taken from (through `let (lock, cvar) = &*self.inner;`-style
//! aliases), qualified by file stem, with the server's well-known
//! fields mapped to their canonical names (`jobs.rs`'s `inner` *is* the
//! queue, and the `journal` field of both `jobs.rs` and `store.rs` is
//! the one shared journal).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;

use crate::model::{self, EventKind, FileModel, STD_SHADOWED};
use crate::{collect_rs_files, rel_path, Check, Finding, SourceFile};

/// The documented hierarchy: edges read "may acquire the right lock
/// while holding the left one".
const ALLOWED: [(&str, &str); 2] = [("journal", "queue"), ("journal", "store")];

/// Locks the hierarchy speaks about; edges between any two of these
/// must be in [`ALLOWED`].
const HIERARCHY: [&str; 3] = ["journal", "queue", "store"];

/// Maps a (file stem, resolved guard name) pair to the canonical lock
/// name used in the hierarchy and in diagnostics.
fn canonical(stem: &str, raw: &str) -> String {
    match (stem, raw) {
        ("jobs", "inner") | ("jobs", "JobQueue") => "queue".to_string(),
        ("jobs", "journal") | ("store", "journal") => "journal".to_string(),
        ("store", "inner") | ("store", "DatasetStore") => "store".to_string(),
        _ => format!("{stem}.{raw}"),
    }
}

fn stem(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel).trim_end_matches(".rs")
}

/// One acquired-while-held edge, kept at its first occurrence.
struct Edge {
    src: usize,
    line: u32,
    /// Callee name when the edge goes through a call.
    via: Option<String>,
}

/// Runs the check over an already-loaded set of source files (the
/// fixture tests drive this directly).
pub fn check_sources(sources: &[SourceFile], out: &mut Vec<Finding>) {
    let models: Vec<FileModel> = sources.iter().map(model::build).collect();

    // Name-based function registry and per-function direct-acquire sets.
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (si, m) in models.iter().enumerate() {
        for (fi, f) in m.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push((si, fi));
        }
    }
    let direct: Vec<Vec<BTreeSet<String>>> = models
        .iter()
        .enumerate()
        .map(|(si, m)| {
            let st = stem(&sources[si].rel);
            (0..m.fns.len())
                .map(|fi| {
                    m.fn_events(fi)
                        .filter_map(|e| match &e.kind {
                            EventKind::Acquire { lock } => Some(canonical(st, lock)),
                            _ => None,
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    // Collect edges: held × acquired, directly and one call deep.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut add = |from: String, to: String, src: usize, line: u32, via: Option<String>| {
        edges.entry((from, to)).or_insert(Edge { src, line, via });
    };
    for (si, m) in models.iter().enumerate() {
        let st = stem(&sources[si].rel);
        for e in &m.events {
            if e.held.is_empty() {
                continue;
            }
            match &e.kind {
                EventKind::Acquire { lock } => {
                    let to = canonical(st, lock);
                    for h in &e.held {
                        add(canonical(st, &h.lock), to.clone(), si, e.line, None);
                    }
                }
                EventKind::Call { callee } => {
                    if STD_SHADOWED.contains(&callee.as_str()) {
                        continue;
                    }
                    let Some(targets) = by_name.get(callee.as_str()) else { continue };
                    let mut acquired: BTreeSet<&String> = BTreeSet::new();
                    for &(ti, tfi) in targets {
                        acquired.extend(direct[ti][tfi].iter());
                    }
                    for to in acquired {
                        for h in &e.held {
                            let from = canonical(st, &h.lock);
                            add(from, to.clone(), si, e.line, Some(callee.clone()));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Violations: self-edges, forbidden hierarchy edges, cycles.
    let via_note = |via: &Option<String>| match via {
        Some(c) => format!(" (via call to `{c}`)"),
        None => String::new(),
    };
    for ((from, to), edge) in &edges {
        let sf = &sources[edge.src];
        if from == to {
            sf.push(
                out,
                Check::LockOrder,
                edge.line,
                format!(
                    "lock `{from}` acquired while already held{} — self-deadlock with std::sync::Mutex",
                    via_note(&edge.via)
                ),
            );
        } else if HIERARCHY.contains(&from.as_str())
            && HIERARCHY.contains(&to.as_str())
            && !ALLOWED.contains(&(from.as_str(), to.as_str()))
        {
            sf.push(
                out,
                Check::LockOrder,
                edge.line,
                format!(
                    "lock `{to}` acquired while `{from}` is held{}; the documented hierarchy \
                     is journal → queue and journal → store only (README \"Lock hierarchy\")",
                    via_note(&edge.via)
                ),
            );
        }
    }

    // Cycles: for each edge a → b, a path b ⇝ a closes a cycle. Each
    // distinct cycle (as a node set) is reported once, at the
    // lexicographically first closing edge.
    let adj: BTreeMap<&String, Vec<&String>> = {
        let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (from, to) in edges.keys() {
            adj.entry(from).or_default().push(to);
        }
        adj
    };
    let mut reported: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for ((from, to), edge) in &edges {
        if from == to {
            continue; // already reported as a self-edge
        }
        let Some(path) = bfs_path(&adj, to, from) else { continue };
        let nodes: BTreeSet<String> = path.iter().map(|s| s.to_string()).collect();
        if !reported.insert(nodes) {
            continue;
        }
        let cycle: Vec<&str> =
            std::iter::once(from.as_str()).chain(path.iter().map(|s| s.as_str())).collect();
        sources[edge.src].push(
            out,
            Check::LockOrder,
            edge.line,
            format!(
                "lock-order cycle: {} — two threads interleaving these acquisitions deadlock",
                cycle.join(" → ")
            ),
        );
    }
    for sf in sources {
        sf.unused_pragmas(Check::LockOrder, out);
    }
}

/// Shortest path `from ⇝ to` over the edge graph, inclusive of both
/// endpoints. Deterministic (BTreeMap adjacency, FIFO order).
fn bfs_path<'a>(
    adj: &BTreeMap<&'a String, Vec<&'a String>>,
    from: &'a String,
    to: &'a String,
) -> Option<Vec<&'a String>> {
    let mut prev: BTreeMap<&String, &String> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: BTreeSet<&String> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(n).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
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
    fn sanctioned_hierarchy_is_clean() {
        let out = findings(&[
            (
                "jobs.rs",
                "impl JobQueue { fn submit(&self) {\n\
               let j = self.journal.lock().unwrap();\n\
               let (lock, cvar) = &*self.inner;\n\
               let id = { let q = lock.lock().unwrap(); q.next_id };\n\
               self.store.pin(h);\n\
               let q = lock.lock().unwrap();\n\
             } }",
            ),
            (
                "store.rs",
                "impl DatasetStore { fn pin(&self) { let s = self.inner.lock().unwrap(); } }",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn inverted_edge_and_cycle_are_reported() {
        let out = findings(&[(
            "jobs.rs",
            "impl JobQueue {\n\
               fn submit(&self) {\n\
                 let (lock, cvar) = &*self.inner;\n\
                 let q = lock.lock().unwrap();\n\
                 let j = self.journal.lock().unwrap();\n\
               }\n\
               fn compact(&self) {\n\
                 let j = self.journal.lock().unwrap();\n\
                 let (lock, cvar) = &*self.inner;\n\
                 let q = lock.lock().unwrap();\n\
               }\n\
             }",
        )]);
        let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("`journal` acquired while `queue` is held")),
            "{out:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("lock-order cycle: journal → queue → journal")
                || m.contains("lock-order cycle: queue → journal → queue")),
            "{out:?}"
        );
    }

    #[test]
    fn call_deep_edge_is_seen() {
        let out = findings(&[
            (
                "store.rs",
                "impl DatasetStore {\n\
               fn reclaim(&self) {\n\
                 let s = self.inner.lock().unwrap();\n\
                 self.queue_len();\n\
               }\n\
             }",
            ),
            (
                "jobs.rs",
                "impl JobQueue { fn queue_len(&self) -> usize {\n\
               let (lock, _c) = &*self.inner;\n\
               let q = lock.lock().unwrap();\n\
               q.len()\n\
             } }",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`queue` acquired while `store` is held"), "{out:?}");
        assert!(out[0].message.contains("via call to `queue_len`"), "{out:?}");
    }

    #[test]
    fn self_edge_is_a_deadlock() {
        let out = findings(&[(
            "store.rs",
            "impl DatasetStore { fn f(&self) {\n\
               let a = self.inner.lock().unwrap();\n\
               let b = self.inner.lock().unwrap();\n\
             } }",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("self-deadlock"), "{out:?}");
    }
}
