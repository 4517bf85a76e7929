//! Unsafe audit.
//!
//! Two obligations:
//!
//! 1. Every `unsafe` keyword (block, fn, impl, trait) must have a
//!    comment containing `SAFETY:` on the same line, within the three
//!    preceding lines, or anywhere in a contiguous comment run that
//!    ends within those lines — close enough that the justification is
//!    read together with the site it justifies, while still allowing a
//!    safety argument longer than three lines.
//! 2. Crates that contain no `unsafe` at all must say so in their crate
//!    roots with `#![forbid(unsafe_code)]`, so unsafe cannot creep in
//!    without tripping this check. The one crate that does use unsafe
//!    (`trajdp-server`, for the reactor's extern-C syscalls) must carry
//!    `#![deny(unsafe_op_in_unsafe_fn)]` instead.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::TokKind;
use crate::{collect_rs_files, rel_path, Check, Finding, SourceFile};

/// How far above the `unsafe` keyword a `SAFETY:` comment may sit.
const SAFETY_WINDOW_LINES: u32 = 3;

/// Checks one file's `unsafe` sites for adjacent `SAFETY:` comments.
/// Returns whether the file contains any `unsafe` at all (used for the
/// per-crate attribute obligation).
pub fn check_source(sf: &SourceFile, out: &mut Vec<Finding>) -> bool {
    let toks = &sf.toks;
    // Per-line shape, for walking comment runs: which lines hold code,
    // and which hold a comment mentioning SAFETY:.
    let mut code_lines = std::collections::HashSet::new();
    let mut safety_lines = std::collections::HashSet::new();
    let mut comment_lines = std::collections::HashSet::new();
    for t in toks.iter() {
        if t.is_comment() {
            comment_lines.insert(t.line);
            if t.text.contains("SAFETY:") {
                safety_lines.insert(t.line);
            }
        } else {
            code_lines.insert(t.line);
        }
    }
    let mut has_unsafe = false;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        has_unsafe = true;
        let site = toks[i + 1..]
            .iter()
            .find(|n| !n.is_comment())
            .map(|n| match n.kind {
                TokKind::Punct if n.text == "{" => "unsafe block",
                TokKind::Ident if n.text == "fn" => "unsafe fn",
                TokKind::Ident if n.text == "impl" => "unsafe impl",
                TokKind::Ident if n.text == "trait" => "unsafe trait",
                TokKind::Ident if n.text == "extern" => "unsafe extern block",
                _ => "unsafe site",
            })
            .unwrap_or("unsafe site");
        let mut covered = safety_lines.contains(&t.line);
        if !covered {
            // Walk a contiguous run of pure-comment lines upward: blank
            // lines are tolerated only inside the window, a code line
            // ends the run, and a run may extend past the window as
            // long as it stays unbroken comment.
            let mut l = t.line;
            while l > 1 {
                l -= 1;
                let pure_comment = comment_lines.contains(&l) && !code_lines.contains(&l);
                if pure_comment {
                    if safety_lines.contains(&l) {
                        covered = true;
                        break;
                    }
                } else if code_lines.contains(&l) || t.line - l >= SAFETY_WINDOW_LINES {
                    break;
                }
            }
        }
        if !covered {
            sf.push(
                out,
                Check::UnsafeAudit,
                t.line,
                format!(
                    "{site} without an adjacent `// SAFETY:` comment (within {SAFETY_WINDOW_LINES} lines above)"
                ),
            );
        }
    }
    has_unsafe
}

/// Checks a crate root for the required inner attribute. `attr_path`
/// is e.g. `["forbid", "unsafe_code"]`.
fn has_inner_attr(sf: &SourceFile, outer: &str, inner: &str) -> bool {
    let code: Vec<_> = sf.toks.iter().filter(|t| !t.is_comment()).collect();
    code.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(outer)
            && w[4].is_punct('(')
            && w[5].is_ident(inner)
            && w[6].is_punct(')')
    })
}

/// One workspace crate: its directory and the source roots (`lib.rs`,
/// `main.rs`, `src/bin/*.rs`) that must carry the attribute.
struct CrateInfo {
    dir: PathBuf,
}

fn workspace_crates(root: &Path) -> Vec<CrateInfo> {
    let mut crates = Vec::new();
    // The umbrella package at the workspace root.
    if root.join("src").is_dir() {
        crates.push(CrateInfo { dir: root.to_path_buf() });
    }
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        for dir in dirs {
            crates.push(CrateInfo { dir });
        }
    }
    crates
}

pub fn run(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    // Pass 1: SAFETY adjacency over every source file in the repo
    // (crates, umbrella src, tests, benches, examples).
    let mut files = Vec::new();
    for sub in ["src", "crates", "tests", "examples", "benches"] {
        let p = root.join(sub);
        if p.is_dir() {
            files.extend(collect_rs_files(&p));
        }
    }
    files.sort();
    files.dedup();
    // Each loaded file, with whether it contains `unsafe`.
    let mut loaded: BTreeMap<PathBuf, (SourceFile, bool)> = BTreeMap::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let sf = SourceFile::from_source(&rel_path(root, &path), &src);
        let has_unsafe = check_source(&sf, out);
        sf.pragma_errors(out);
        loaded.insert(path, (sf, has_unsafe));
    }

    // Pass 2: per-crate attribute obligations, over the files pass 1
    // loaded.
    for krate in workspace_crates(root) {
        let src_dir = krate.dir.join("src");
        let crate_has_unsafe =
            collect_rs_files(&src_dir).iter().any(|p| loaded.get(p).is_some_and(|(_, u)| *u));
        let mut roots: Vec<PathBuf> = Vec::new();
        for candidate in ["lib.rs", "main.rs"] {
            let p = src_dir.join(candidate);
            if p.is_file() {
                roots.push(p);
            }
        }
        let bin_dir = src_dir.join("bin");
        if bin_dir.is_dir() {
            let mut bins = collect_rs_files(&bin_dir);
            bins.sort();
            roots.extend(bins);
        }
        let (attr, desc) = if crate_has_unsafe {
            (
                ("deny", "unsafe_op_in_unsafe_fn"),
                "contains unsafe; crate roots must carry `#![deny(unsafe_op_in_unsafe_fn)]`",
            )
        } else {
            (
                ("forbid", "unsafe_code"),
                "is unsafe-free; crate roots must carry `#![forbid(unsafe_code)]`",
            )
        };
        for rp in roots {
            let Some((sf, _)) = loaded.get(&rp) else { continue };
            if !has_inner_attr(sf, attr.0, attr.1) {
                sf.push(out, Check::UnsafeAudit, 1, format!("crate {desc}"));
            }
        }
    }
    for (sf, _) in loaded.values() {
        sf.unused_pragmas(Check::UnsafeAudit, out);
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
    fn flags_uncommented_unsafe_block() {
        let out = findings("fn f() { let x = unsafe { danger() }; }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unsafe block"));
    }

    #[test]
    fn accepts_adjacent_safety_comment() {
        let out =
            findings("// SAFETY: fd is owned and open\nfn f() { let x = unsafe { danger() }; }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn safety_comment_too_far_does_not_count() {
        let out = findings("// SAFETY: stale\n\n\n\n\nfn f() { unsafe { danger() } }");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn long_contiguous_safety_comment_counts() {
        let out = findings(
            "// SAFETY: the fd is owned by this struct and stays open\n\
             // for the duration of the call; the buffer is a fully\n\
             // initialized stack array and the length argument\n\
             // matches its real size, so the kernel cannot write\n\
             // past the end of live memory.\n\
             fn f() { unsafe { danger() } }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn comment_run_broken_by_code_does_not_count() {
        let out = findings(
            "// SAFETY: stale justification for something else\n\
             let y = other();\n\
             // unrelated note\n\
             fn f() { unsafe { danger() } }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let out = findings("// this mentions unsafe\nfn f() { let s = \"unsafe\"; }");
        assert!(out.is_empty());
    }

    #[test]
    fn pragma_suppresses() {
        let out = findings(
            "// lint: allow(unsafe-audit): exercised by the fixture harness\nfn f() { unsafe { danger() } }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
