//! Fixture corpus for the invariant linter: positive and negative cases
//! per check, a drift test that mutates a copy of the real PROTOCOL.md
//! and asserts the exact diagnostic, and the workspace-clean regression
//! test that keeps the real tree lint-free.

use std::path::{Path, PathBuf};

use trajdp_analysis::checks::{
    determinism, drift, lock_io, lock_order, panic_path, reactor_blocking, rng_discipline,
    unsafe_audit,
};
use trajdp_analysis::{Check, Finding, SourceFile};

fn fixture(rel: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {rel}: {e}"));
    SourceFile::from_source(rel, &src)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

fn lines_of(findings: &[Finding]) -> Vec<u32> {
    findings.iter().map(|f| f.line).collect()
}

// ---- unsafe audit ----------------------------------------------------

#[test]
fn unsafe_audit_flags_every_seeded_site() {
    let sf = fixture("unsafe_audit/missing_safety.rs");
    let mut out = Vec::new();
    unsafe_audit::check_source(&sf, &mut out);
    assert_eq!(lines_of(&out), vec![5, 8, 12], "{out:?}");
    assert!(out.iter().all(|f| f.check == Check::UnsafeAudit));
    assert!(out[0].message.contains("unsafe block"));
    assert!(out[1].message.contains("unsafe fn"));
    assert!(out[2].message.contains("unsafe impl"));
}

#[test]
fn unsafe_audit_accepts_documented_sites() {
    let sf = fixture("unsafe_audit/has_safety.rs");
    let mut out = Vec::new();
    unsafe_audit::check_source(&sf, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

// ---- lock across I/O -------------------------------------------------

#[test]
fn lock_io_flags_every_seeded_site() {
    let sf = fixture("lock_io/guard_across_sync.rs");
    let mut out = Vec::new();
    lock_io::check_source(&sf, &mut out);
    assert_eq!(lines_of(&out), vec![7, 12, 18, 23, 29, 36], "{out:?}");
    assert!(out[0].message.contains("`sync_all()`") && out[0].message.contains("`s`"));
    assert!(out[1].message.contains("`sync_data()`") && out[1].message.contains("`map`"));
    assert!(out[2].message.contains("`append_finish()`") && out[2].message.contains("`q`"));
    assert!(out[3].message.contains("`journal` guard of the scrutinee at line 22"), "{out:?}");
    assert!(out[4].message.contains("`inner` guard of the scrutinee at line 28"), "{out:?}");
    assert!(out[5].message.contains("`s` (bound at line 35)"), "{out:?}");
}

#[test]
fn lock_io_accepts_sanctioned_shapes() {
    let sf = fixture("lock_io/released_before_io.rs");
    let mut out = Vec::new();
    lock_io::check_source(&sf, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

// ---- determinism -----------------------------------------------------

#[test]
fn determinism_flags_every_seeded_site() {
    let sf = fixture("determinism/violations.rs");
    let mut out = Vec::new();
    determinism::check_source(&sf, &mut out);
    assert_eq!(lines_of(&out), vec![10, 14, 23, 29], "{out:?}");
    assert!(out[0].message.contains("candidate_tf.keys()"));
    assert!(out[1].message.contains("for … in candidate_tf"));
    assert!(out[2].message.contains("pf.drain()"));
    assert!(out[3].message.contains("Instant::now()"));
}

#[test]
fn determinism_accepts_sanctioned_shapes() {
    let sf = fixture("determinism/clean.rs");
    let mut out = Vec::new();
    determinism::check_source(&sf, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

// ---- lock order ------------------------------------------------------

#[test]
fn lock_order_flags_inversion_cycle_call_edge_and_self_edge() {
    let sources = [fixture("lock_order/bad/jobs.rs"), fixture("lock_order/bad/store.rs")];
    let mut out = Vec::new();
    lock_order::check_sources(&sources, &mut out);
    out.sort();
    assert!(out.iter().all(|f| f.check == Check::LockOrder));
    let msgs: Vec<&str> = out.iter().map(|f| f.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("`journal` acquired while `queue` is held")), "{out:?}");
    assert!(msgs.iter().any(|m| m.contains("lock-order cycle:")), "{out:?}");
    assert!(
        msgs.iter().any(|m| m.contains("`queue` acquired while `store` is held")
            && m.contains("via call to `queue_len`")),
        "{out:?}"
    );
    assert!(msgs.iter().any(|m| m.contains("self-deadlock")), "{out:?}");
    // store.rs's journal field is the shared journal, not a lock of its own.
    assert!(msgs.iter().any(|m| m.contains("`journal` acquired while `store` is held")), "{out:?}");
    // The queue guard of `drain`'s `if let` scrutinee is live in its block.
    assert!(
        msgs.iter().any(|m| m.contains("`store` acquired while `queue` is held")
            && m.contains("via call to `commit`")),
        "{out:?}"
    );
}

#[test]
fn lock_order_accepts_the_documented_hierarchy() {
    let sources = [fixture("lock_order/clean/jobs.rs"), fixture("lock_order/clean/store.rs")];
    let mut out = Vec::new();
    lock_order::check_sources(&sources, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

// ---- panic path ------------------------------------------------------

#[test]
fn panic_path_flags_every_reachable_site() {
    let sf = fixture("panic_path/violations.rs");
    let mut out = Vec::new();
    panic_path::check_sources(std::slice::from_ref(&sf), &mut out);
    out.sort();
    assert_eq!(lines_of(&out), vec![6, 7, 12, 14], "{out:?}");
    assert!(out[0].message.contains("`unwrap()` in `handle`"), "{out:?}");
    assert!(out[1].message.contains("slice/array index in `handle`"), "{out:?}");
    assert!(out[2].message.contains("`expect()` in `route`"), "{out:?}");
    assert!(out[3].message.contains("`unreachable!` in `route`"), "{out:?}");
}

#[test]
fn panic_path_accepts_annotated_and_test_only_sites() {
    let sf = fixture("panic_path/annotated.rs");
    let mut out = Vec::new();
    panic_path::check_sources(std::slice::from_ref(&sf), &mut out);
    assert!(out.is_empty(), "{out:?}");
}

// ---- reactor blocking ------------------------------------------------

#[test]
fn reactor_blocking_flags_each_blocking_class() {
    let sf = fixture("reactor_blocking/blocking.rs");
    let mut out = Vec::new();
    reactor_blocking::check_source(&sf, &mut out);
    assert_eq!(lines_of(&out), vec![7, 8, 9], "{out:?}");
    assert!(out[0].message.contains("`sleep` called"), "{out:?}");
    assert!(out[1].message.contains("lock `pending` acquired"), "{out:?}");
    assert!(out[2].message.contains("durable I/O `sync_all()`"), "{out:?}");
}

#[test]
fn reactor_blocking_accepts_the_executor_plane() {
    let sf = fixture("reactor_blocking/clean.rs");
    let mut out = Vec::new();
    reactor_blocking::check_source(&sf, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

// ---- rng discipline --------------------------------------------------

#[test]
fn rng_discipline_flags_every_direct_construction() {
    let sf = fixture("rng_discipline/violations.rs");
    let mut out = Vec::new();
    rng_discipline::check_source(&sf, &mut out);
    assert_eq!(lines_of(&out), vec![5, 6, 7, 8, 9], "{out:?}");
    assert!(out[0].message.contains("`StdRng::seed_from_u64`"), "{out:?}");
    assert!(out[1].message.contains("`SmallRng::from_entropy`"), "{out:?}");
    assert!(out[2].message.contains("`thread_rng()`"), "{out:?}");
    assert!(out[3].message.contains("`rand::random()`"), "{out:?}");
    assert!(out[4].message.contains("`from_os_rng` seeds an RNG"), "{out:?}");
}

#[test]
fn rng_discipline_accepts_the_sanctioned_stream() {
    let sf = fixture("rng_discipline/clean.rs");
    let mut out = Vec::new();
    rng_discipline::check_source(&sf, &mut out);
    assert!(out.is_empty(), "{out:?}");
}

// ---- protocol drift --------------------------------------------------

/// Extractions from the real tree, shared by the drift tests.
fn real_inventories(
) -> (Vec<String>, std::collections::BTreeSet<String>, std::collections::BTreeSet<String>) {
    let root = workspace_root();
    let api = std::fs::read_to_string(root.join("crates/server/src/api.rs")).unwrap();
    let obs = std::fs::read_to_string(root.join("crates/server/src/obs.rs")).unwrap();
    (
        drift::extract_wire_error_codes(&api),
        drift::extract_verbs(&obs),
        drift::extract_metric_families(&obs),
    )
}

#[test]
fn drift_extracts_the_full_inventories() {
    let (codes, verbs, metrics) = real_inventories();
    assert_eq!(codes.len(), 16, "wire error codes: {codes:?}");
    assert_eq!(codes.first().map(String::as_str), Some("bad-request"));
    assert_eq!(codes.last().map(String::as_str), Some("budget-exhausted"));
    assert_eq!(verbs.len(), 15, "wire verbs: {verbs:?}");
    assert!(verbs.contains("cancel"), "{verbs:?}");
    assert!(verbs.contains("anonymize") && verbs.contains("health"));
    assert!(!verbs.contains("invalid"), "internal bucket must be excluded");
    assert!(metrics.len() >= 20, "metric families: {metrics:?}");
    assert!(metrics.contains("trajdp_requests_total"));
    assert!(
        !metrics.contains("trajdp_request_latency_seconds_bucket"),
        "derived test-asserted series must not leak into the family set"
    );
}

#[test]
fn drift_mutated_protocol_copy_yields_exact_diagnostic() {
    let (codes, verbs, metrics) = real_inventories();
    let md = std::fs::read_to_string(workspace_root().join("PROTOCOL.md")).unwrap();

    // Swap the first two error-code rows in a copy of the document.
    let first = format!("| `{}` |", codes[0]);
    let second = format!("| `{}` |", codes[1]);
    let line_of =
        |needle: &str| md.lines().position(|l| l.starts_with(needle)).expect("row present") + 1;
    let (l1, l2) = (line_of(&first), line_of(&second));
    let mutated: Vec<&str> = {
        let lines: Vec<&str> = md.lines().collect();
        let mut v = lines.clone();
        v.swap(l1 - 1, l2 - 1);
        v
    };
    let mutated = mutated.join("\n");

    let doc = drift::parse_protocol_md(&mutated);
    let mut out = Vec::new();
    drift::diff("PROTOCOL.md(copy)", &doc, &codes, &verbs, &metrics, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    let f = &out[0];
    assert_eq!(f.file, "PROTOCOL.md(copy)");
    assert_eq!(f.line as usize, l1, "diagnostic must point at the first wrong row");
    assert_eq!(
        f.message,
        format!(
            "error-code table row 1 is `{}` but `WIRE_ERROR_CODES[0]` is `{}` \
             (the array order in api.rs is the documentation order)",
            codes[1], codes[0]
        )
    );
}

#[test]
fn drift_dropped_metric_row_is_reported() {
    let (codes, verbs, metrics) = real_inventories();
    let md = std::fs::read_to_string(workspace_root().join("PROTOCOL.md")).unwrap();
    let mutated: String = md
        .lines()
        .filter(|l| !l.starts_with("| `trajdp_journal_fsync_seconds`"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(mutated.len(), md.len(), "the metric row must exist to be dropped");
    let doc = drift::parse_protocol_md(&mutated);
    let mut out = Vec::new();
    drift::diff("PROTOCOL.md(copy)", &doc, &codes, &verbs, &metrics, &mut out);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(
        out[0].message.contains("`trajdp_journal_fsync_seconds` is exported but missing"),
        "{out:?}"
    );
}

/// The other direction of the CI gate: the deliberately broken mini
/// workspace under `fixtures/bad_workspace/` must trip every check.
#[test]
fn bad_workspace_trips_every_check() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_workspace");
    let findings = trajdp_analysis::run_workspace(&root).unwrap();
    let hit = |c: Check| findings.iter().filter(|f| f.check == c).count();
    assert!(hit(Check::UnsafeAudit) >= 2, "{findings:?}");
    assert!(hit(Check::LockAcrossIo) >= 1, "{findings:?}");
    assert!(hit(Check::LockOrder) >= 2, "{findings:?}");
    assert!(hit(Check::PanicPath) >= 2, "{findings:?}");
    assert!(hit(Check::ReactorBlocking) >= 3, "{findings:?}");
    assert!(hit(Check::Determinism) >= 1, "{findings:?}");
    assert!(hit(Check::RngDiscipline) >= 2, "{findings:?}");
    assert!(hit(Check::ProtocolDrift) >= 1, "{findings:?}");
    for c in Check::ALL {
        assert!(hit(c) >= 1, "check `{c}` found nothing in bad_workspace:\n{findings:?}");
    }
}

// ---- the real tree ---------------------------------------------------

/// The regression test behind the PROTOCOL.md fixes and the annotation
/// sweep: the workspace itself must stay lint-clean. This is exactly
/// what CI runs via `scripts/analyze.sh`.
#[test]
fn workspace_is_lint_clean() {
    let findings = trajdp_analysis::run_workspace(&workspace_root()).unwrap();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}
