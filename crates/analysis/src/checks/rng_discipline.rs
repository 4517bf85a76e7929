//! RNG-discipline check.
//!
//! Byte-reproducibility at any worker count rests on one rule: every
//! random stream in the result pipeline is derived from the run's root
//! seed through `core::stream` (`stream_rng(root, phase, unit)` — one
//! independent stream per logical unit, identical regardless of which
//! thread processes the unit). An RNG constructed anywhere else in
//! `crates/core` or `crates/mech` — a direct `StdRng::seed_from_u64`,
//! `SeedableRng::from_entropy`, `thread_rng()` — either reintroduces
//! schedule-dependence or silently forks a stream, and the determinism
//! harness only catches it when two runs happen to diverge.
//!
//! So: in those crates, outside `#[cfg(test)]`, every RNG construction
//! is a finding unless it carries a `lint: allow(rng-discipline)`
//! pragma. `core::stream` itself holds the one sanctioned pragma — the
//! constructor every other site must call.

use std::path::Path;

use crate::lexer::TokKind;
use crate::{cfg_test_mask, collect_rs_files, rel_path, Check, Finding, SourceFile};

/// Concrete RNG type names whose associated constructors are flagged.
const RNG_TYPES: [&str; 14] = [
    "ChaCha12Rng",
    "ChaCha20Rng",
    "ChaCha8Rng",
    "OsRng",
    "Pcg32",
    "Pcg64",
    "Pcg64Mcg",
    "SmallRng",
    "SplitMix64",
    "StdRng",
    "ThreadRng",
    "Xoshiro128PlusPlus",
    "Xoshiro256PlusPlus",
    "Xoshiro256StarStar",
];

/// `SeedableRng` constructor names — rand-specific vocabulary, flagged
/// regardless of the receiver type so type aliases cannot hide one.
const SEED_CTORS: [&str; 5] =
    ["from_entropy", "from_os_rng", "from_rng", "from_seed", "seed_from_u64"];

const ADVICE: &str = "RNGs must come from `core::stream::stream_rng(root, phase, unit)`";

/// Runs the check over one file (the fixture tests drive this
/// directly).
pub fn check_source(sf: &SourceFile, out: &mut Vec<Finding>) {
    let mask = cfg_test_mask(&sf.toks);
    let code: Vec<_> = sf
        .toks
        .iter()
        .zip(mask.iter())
        .filter(|(t, &m)| !t.is_comment() && !m)
        .map(|(t, _)| t)
        .collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let called = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        let path_called = i >= 2 && code[i - 1].is_punct(':') && code[i - 2].is_punct(':');
        let defined = i > 0 && code[i - 1].is_ident("fn");

        // Ambient RNGs: `thread_rng()` however imported, `rand::random()`.
        if t.is_ident("thread_rng") && called && !defined {
            sf.push(
                out,
                Check::RngDiscipline,
                t.line,
                format!("`thread_rng()` is schedule-dependent; {ADVICE}"),
            );
            continue;
        }
        if t.is_ident("random") && called && path_called && code[i - 3].is_ident("rand") {
            sf.push(
                out,
                Check::RngDiscipline,
                t.line,
                format!("`rand::random()` draws from the thread RNG; {ADVICE}"),
            );
            continue;
        }

        // `Type::ctor(…)` where Type is a known RNG: any constructor
        // counts, including `new`.
        if RNG_TYPES.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 3).is_some_and(|n| n.kind == TokKind::Ident)
            && code.get(i + 4).is_some_and(|n| n.is_punct('('))
        {
            let ctor = &code[i + 3].text;
            if SEED_CTORS.contains(&ctor.as_str()) || ctor == "new" || ctor == "default" {
                sf.push(
                    out,
                    Check::RngDiscipline,
                    t.line,
                    format!(
                        "`{}::{ctor}` constructs an RNG outside `core::stream`; {ADVICE}",
                        t.text
                    ),
                );
            }
            continue;
        }

        // `…::seed_from_u64(…)` through an alias or an unlisted type.
        if SEED_CTORS.contains(&t.text.as_str())
            && called
            && path_called
            && !RNG_TYPES.contains(&code[i - 3].text.as_str())
        {
            sf.push(
                out,
                Check::RngDiscipline,
                t.line,
                format!("`{}` seeds an RNG outside `core::stream`; {ADVICE}", t.text),
            );
        }
    }
    sf.unused_pragmas(Check::RngDiscipline, out);
}

pub fn run(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    for dir in ["crates/core/src", "crates/mech/src"] {
        for path in collect_rs_files(&root.join(dir)) {
            let src = std::fs::read_to_string(&path)?;
            let sf = SourceFile::from_source(&rel_path(root, &path), &src);
            check_source(&sf, out);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        let sf = SourceFile::from_source("crates/core/src/t.rs", src);
        let mut out = Vec::new();
        check_source(&sf, &mut out);
        out
    }

    #[test]
    fn direct_constructions_are_flagged() {
        let out = findings(
            "fn f() {\n\
               let a = StdRng::seed_from_u64(7);\n\
               let b = Xoshiro256PlusPlus::from_seed(seed);\n\
               let c = rand::thread_rng();\n\
               let d: f64 = rand::random();\n\
               let e = MyRng::seed_from_u64(7);\n\
             }",
        );
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6], "{out:?}");
    }

    #[test]
    fn sanctioned_and_test_sites_are_clean() {
        let out = findings(
            "// lint: allow(rng-discipline): the sanctioned per-unit constructor\n\
             pub fn stream_rng(root: u64) -> StdRng { StdRng::seed_from_u64(root) }\n\
             #[cfg(test)]\n\
             mod tests { fn t() { let r = StdRng::seed_from_u64(1); } }\n\
             fn consumer(rng: &mut StdRng) { rng.random_range(0..4); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
