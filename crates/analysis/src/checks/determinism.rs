//! Determinism lint (the byte-reproducibility contract).
//!
//! `crates/core` and `crates/mech` promise byte-identical output for a
//! given seed at any worker count (`core::stream` gives every unit its
//! own RNG stream; tie-breaking is total), and `crates/index` answers
//! the searches that output depends on. Two things silently break that
//! promise:
//!
//! * iterating a `HashMap`/`HashSet` — with the default hasher the
//!   order varies across processes (SipHash keys are randomized), and
//!   with a fixed one (the index's `FxBuild`) it follows insertion
//!   history and table capacity, so any order-sensitive consumer
//!   depends on more than its inputs. Any type spelled `HashMap`/
//!   `HashSet` is tracked, whatever its hasher parameter;
//! * wall-clock reads (`SystemTime::now`, `Instant::now`) feeding
//!   values into results.
//!
//! The check tracks names *declared* with a `HashMap`/`HashSet` type
//! (let annotations, struct fields, and `HashMap::new()`-style
//! initializers) and flags order-yielding method calls and `for` loops
//! over them, plus any clock read. `#[cfg(test)]` items are exempt —
//! tests may iterate freely. Legitimate sites (iterate-then-sort,
//! observability timings that never touch released data) carry
//! `// lint: allow(determinism): …` pragmas explaining why.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::{Tok, TokKind};
use crate::{cfg_test_mask, collect_rs_files, rel_path, Check, Finding, SourceFile};

/// Methods whose results depend on hash-iteration order.
const ORDER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

const SET_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Collects identifiers declared with a hash-map/set type anywhere in
/// the file: `name: …HashMap<…>…` (fields, params, let annotations) and
/// `let name = …HashMap::new()…` initializers.
fn tracked_names(code: &[&Tok]) -> BTreeSet<String> {
    let mut tracked = BTreeSet::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name : <up to 16 tokens containing HashMap/HashSet>`
        if code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !code.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            let window = &code[i + 2..code.len().min(i + 18)];
            let mut hit = false;
            let mut angle = 0i32;
            for w in window {
                // The annotation ends at the next field/param/statement
                // boundary; `,` inside generics does not end it.
                if w.is_punct('<') {
                    angle += 1;
                } else if w.is_punct('>') {
                    angle -= 1;
                }
                if w.is_punct(';')
                    || w.is_punct('=')
                    || w.is_punct('{')
                    || w.is_punct(')')
                    || (w.is_punct(',') && angle <= 0)
                {
                    break;
                }
                if SET_TYPES.iter().any(|s| w.is_ident(s)) {
                    hit = true;
                    break;
                }
            }
            if hit {
                tracked.insert(t.text.clone());
            }
        }
        // `let [mut] name = <stmt containing HashMap/HashSet>`
        if t.is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = code.get(j).filter(|n| n.kind == TokKind::Ident) else { continue };
            if !code.get(j + 1).is_some_and(|n| n.is_punct('=')) {
                continue; // annotated lets are handled by the `:` rule
            }
            let mut nest = 0i32;
            let mut k = j + 2;
            while k < code.len() {
                let c = code[k];
                if c.is_punct('(') || c.is_punct('[') || c.is_punct('{') {
                    nest += 1;
                } else if c.is_punct(')') || c.is_punct(']') || c.is_punct('}') {
                    nest -= 1;
                    if nest < 0 {
                        break;
                    }
                } else if c.is_punct(';') && nest == 0 {
                    break;
                } else if SET_TYPES.iter().any(|s| c.is_ident(s)) {
                    tracked.insert(name.text.clone());
                    break;
                }
                k += 1;
            }
        }
    }
    tracked
}

pub fn check_source(sf: &SourceFile, out: &mut Vec<Finding>) {
    let mask = cfg_test_mask(&sf.toks);
    let code: Vec<&Tok> = sf
        .toks
        .iter()
        .zip(mask.iter())
        .filter(|(t, &m)| !t.is_comment() && !m)
        .map(|(t, _)| t)
        .collect();
    let tracked = tracked_names(&code);

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        // Clock reads: `SystemTime::now` / `Instant::now`.
        if (t.is_ident("SystemTime") || t.is_ident("Instant"))
            && code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && code.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            sf.push(
                out,
                Check::Determinism,
                t.line,
                format!(
                    "`{}::now()` on a result-affecting path breaks byte-reproducibility; \
                     derive values from the seed/stream or justify with `// lint: allow(determinism): <why>`",
                    t.text
                ),
            );
            i += 4;
            continue;
        }
        // `name.iter()` / `.keys()` / … on a tracked map/set.
        if t.kind == TokKind::Ident
            && tracked.contains(&t.text)
            && code.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && code.get(i + 2).is_some_and(|n| ORDER_METHODS.iter().any(|m| n.is_ident(m)))
            && code.get(i + 3).is_some_and(|n| n.is_punct('('))
        {
            let method = &code[i + 2].text;
            sf.push(
                out,
                Check::Determinism,
                code[i + 2].line,
                format!(
                    "`{}.{method}()` iterates a hash map/set in an order no input defines; \
                     sort the result or use an ordered structure (or `// lint: allow(determinism): <why>`)",
                    t.text
                ),
            );
            i += 4;
            continue;
        }
        // `for pat in <expr over a tracked name> {` — catches
        // `for (k, v) in &self.map {` which has no method call.
        if t.is_ident("for") {
            // Find `in` at nest 0, then scan the iterated expression.
            let mut j = i + 1;
            let mut nest = 0i32;
            while j < code.len() {
                let c = code[j];
                if c.is_punct('(') || c.is_punct('[') {
                    nest += 1;
                } else if c.is_punct(')') || c.is_punct(']') {
                    nest -= 1;
                } else if c.is_ident("in") && nest == 0 {
                    break;
                } else if c.is_punct('{') {
                    break; // malformed / not a for-loop we understand
                }
                j += 1;
            }
            if j < code.len() && code[j].is_ident("in") {
                let mut k = j + 1;
                let mut has_call = false;
                let mut hit: Option<&Tok> = None;
                while k < code.len() && !code[k].is_punct('{') {
                    let c = code[k];
                    if c.is_punct('(') {
                        has_call = true;
                    }
                    if c.kind == TokKind::Ident && tracked.contains(&c.text) {
                        hit = Some(c);
                    }
                    k += 1;
                }
                // Calls in the expression (`.keys()`, helper fns) are
                // either caught by the method rule or intentionally
                // exempt; flag only the direct `for x in &map` shape.
                if let (Some(h), false) = (hit, has_call) {
                    sf.push(
                        out,
                        Check::Determinism,
                        h.line,
                        format!(
                            "`for … in {}` iterates a hash map/set in an order no input defines; \
                             sort the keys first or use an ordered structure (or `// lint: allow(determinism): <why>`)",
                            h.text
                        ),
                    );
                }
            }
        }
        i += 1;
    }
    sf.unused_pragmas(Check::Determinism, out);
}

pub fn run(root: &Path, out: &mut Vec<Finding>) -> std::io::Result<()> {
    for dir in ["crates/core/src", "crates/mech/src", "crates/index/src"] {
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
        let sf = SourceFile::from_source("t.rs", src);
        let mut out = Vec::new();
        check_source(&sf, &mut out);
        out
    }

    #[test]
    fn flags_keys_iteration_on_annotated_map() {
        let out = findings(
            "struct S { tf: HashMap<u64, usize> }\nfn f(s: &S) -> Vec<u64> { s.tf.keys().copied().collect() }",
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`tf.keys()`"));
    }

    #[test]
    fn flags_for_loop_over_field() {
        let out = findings(
            "struct S { containing: HashMap<u64, u64> }\nimpl S { fn f(&self) { for (k, v) in &self.containing { use_it(k, v); } } }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("for … in containing"));
    }

    #[test]
    fn flags_iteration_of_a_map_with_a_custom_hasher() {
        // The index's fixed-hasher maps stay in sight: the type is
        // still spelled `HashMap`, whatever its third parameter.
        let out = findings(
            "struct G { nodes: HashMap<CellId, Node, FxBuild> }\nimpl G { fn f(&self) { for (c, n) in &self.nodes { use_it(c, n); } } }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("for … in nodes"));
    }

    #[test]
    fn lookup_methods_are_fine() {
        let out = findings(
            "fn f() { let mut seen = std::collections::HashSet::new(); seen.insert(1); if seen.contains(&1) {} }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn flags_untyped_let_with_hashmap_initializer() {
        let out = findings("fn f() { let mut pf = HashMap::new(); for (k, v) in pf.drain() {} }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("drain"));
    }

    #[test]
    fn flags_clock_reads() {
        let out =
            findings("fn f() { let t = std::time::Instant::now(); let s = SystemTime::now(); }");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let out = findings(
            "#[cfg(test)]\nmod tests {\n  use super::*;\n  #[test]\n  fn t() { let m = HashMap::new(); for k in m.keys() {} let i = Instant::now(); }\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn pragma_with_reason_suppresses() {
        let out = findings(
            "struct S { tf: HashMap<u64, usize> }\nfn f(s: &S) -> Vec<u64> {\n  // lint: allow(determinism): collected then sorted on the next line\n  let mut v: Vec<u64> = s.tf.keys().copied().collect();\n  v.sort_unstable(); v\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn vec_fields_are_not_tracked() {
        let out = findings(
            "struct S { seg_ids: Vec<u64> }\nimpl S { fn f(&self) { for id in &self.seg_ids {} } }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
