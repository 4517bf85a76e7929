//! Tenancy and privacy-budget accounting.
//!
//! Differential privacy composes: every release against a dataset
//! spends part of one cumulative ε, and the guarantee the paper proves
//! only holds if that *total* is bounded. Before this module the server
//! enforced per-request budgets and nothing across requests — any
//! client could re-run `anonymize` against the same handle until the
//! noise averaged out. This module makes the budget a first-class,
//! durable resource:
//!
//! * [`TenantRegistry`] — who may talk to the server. Loaded once at
//!   startup from `serve --tenants FILE` (simple `name:token` lines);
//!   requests present `"tenant": "name:token"` on the v2 envelope.
//!   Tenant-less requests (and every v1 request) map to
//!   [`DEFAULT_TENANT`], which always exists and has no caps.
//! * [`TenantLimits`] — optional per-tenant caps on dataset handles,
//!   stored bytes, and concurrent job slots, enforced at
//!   `upload`/`submit` dispatch with the `quota-exceeded` code.
//! * [`EpsLedger`] — the per-dataset ε accumulator. Pure data: it holds
//!   no lock and does no I/O, so it can live *inside* the job queue's
//!   existing mutex and journal through the existing `jobs.jsonl`
//!   machinery (see `jobs.rs`) without adding a lock to the documented
//!   hierarchy. Spend is charged when a job is accepted — not when it
//!   finishes — so a crash between the journal fsync and the ack can
//!   re-run the job but never under-count its spend.
//!
//! The ledger distinguishes *settled* spend (jobs that finished, plus
//! synchronous runs) from *in-flight* charges (accepted jobs that have
//! not finished yet, derived from the queue's live specs). Keeping the
//! two separate means replay reconstructs the accumulator exactly —
//! settled spend is re-derived from the same journal events, in-flight
//! charges from the re-enqueued submits — with no floating-point
//! subtract-then-re-add drift.

use crate::api::ApiError;
use crate::json::Json;
use std::collections::BTreeMap;

/// The tenant every v1 request and every tenant-less v2 request maps
/// to. Always known, never listed in a registry file, never capped.
pub const DEFAULT_TENANT: &str = "default";

/// Optional per-tenant resource caps; `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantLimits {
    /// Cap on dataset handles the tenant may hold (pending and
    /// committed).
    pub max_datasets: Option<usize>,
    /// Cap on the tenant's total stored bytes.
    pub max_bytes: Option<usize>,
    /// Cap on the tenant's queued + running jobs.
    pub max_jobs: Option<usize>,
}

impl TenantLimits {
    /// No caps at all — the default tenant's limits.
    pub const UNLIMITED: TenantLimits =
        TenantLimits { max_datasets: None, max_bytes: None, max_jobs: None };
}

struct TenantEntry {
    token: String,
    limits: TenantLimits,
}

/// The startup-loaded tenant registry: name → (token, limits).
///
/// File format, one tenant per line (`#` comments and blank lines
/// ignored):
///
/// ```text
/// name:token[:max_datasets[:max_bytes[:max_jobs]]]
/// ```
///
/// Trailing cap fields may be omitted or left empty for "unlimited":
/// `acme:s3cret:4::2` caps acme at 4 handles and 2 concurrent jobs
/// with no byte cap.
#[derive(Default)]
pub struct TenantRegistry {
    tenants: BTreeMap<String, TenantEntry>,
}

// Hand-written so tokens can never leak through a debug format: only
// the tenant names are shown.
impl std::fmt::Debug for TenantRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantRegistry")
            .field("tenants", &self.tenants.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Constant-time-shaped token comparison: the loop never exits early
/// on a mismatched byte, so response timing does not leak how much of
/// a guessed token was right.
fn token_eq(a: &str, b: &str) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.bytes().zip(b.bytes()).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

fn parse_cap(field: &str, what: &str, lineno: usize) -> Result<Option<usize>, String> {
    if field.is_empty() {
        return Ok(None);
    }
    match field.parse::<usize>() {
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("line {lineno}: {what} must be a non-negative integer")),
    }
}

impl TenantRegistry {
    /// The empty registry: no named tenants; every request maps to the
    /// default tenant and credentialed requests are rejected.
    pub fn empty() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Parses registry text (the `--tenants` file contents).
    pub fn parse(text: &str) -> Result<TenantRegistry, String> {
        let mut tenants = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split(':');
            let name = fields.next().unwrap_or("").trim();
            let token = fields.next().unwrap_or("").trim();
            if name.is_empty() || token.is_empty() {
                return Err(format!("line {lineno}: expected name:token[:caps...]"));
            }
            if name == DEFAULT_TENANT {
                return Err(format!(
                    "line {lineno}: {DEFAULT_TENANT:?} is the built-in tenant and cannot \
                     be registered"
                ));
            }
            if name.chars().any(char::is_whitespace) {
                return Err(format!("line {lineno}: tenant name must not contain whitespace"));
            }
            let limits = TenantLimits {
                max_datasets: parse_cap(fields.next().unwrap_or(""), "max_datasets", lineno)?,
                max_bytes: parse_cap(fields.next().unwrap_or(""), "max_bytes", lineno)?,
                max_jobs: parse_cap(fields.next().unwrap_or(""), "max_jobs", lineno)?,
            };
            if fields.next().is_some() {
                return Err(format!("line {lineno}: too many fields (at most 5)"));
            }
            let entry = TenantEntry { token: token.to_string(), limits };
            if tenants.insert(name.to_string(), entry).is_some() {
                return Err(format!("line {lineno}: duplicate tenant {name:?}"));
            }
        }
        Ok(TenantRegistry { tenants })
    }

    /// Loads and parses a registry file.
    pub fn load(path: &std::path::Path) -> Result<TenantRegistry, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read tenants file {}: {e}", path.display()))?;
        TenantRegistry::parse(&text)
    }

    /// Registered tenant count (the default tenant is not counted).
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Resolves a request's optional `"tenant"` credential to a tenant
    /// name. `None` (and every v1 request) is the default tenant; a
    /// credential must be `"name:token"` and match the registry. The
    /// rejection message never says *which* of name/token was wrong.
    pub fn authenticate<'a>(&'a self, credential: Option<&str>) -> Result<&'a str, ApiError> {
        let Some(cred) = credential else { return Ok(DEFAULT_TENANT) };
        let Some((name, token)) = cred.split_once(':') else {
            return Err(ApiError::tenant_unknown("tenant credential must be \"name:token\""));
        };
        match self.tenants.get_key_value(name) {
            Some((key, entry)) if token_eq(&entry.token, token) => Ok(key),
            _ => Err(ApiError::tenant_unknown("unknown tenant or bad token")),
        }
    }

    /// The caps of a tenant; unknown names (and the default tenant)
    /// are unlimited — quota enforcement applies to *registered*
    /// tenants only.
    pub fn limits(&self, tenant: &str) -> TenantLimits {
        self.tenants.get(tenant).map_or(TenantLimits::UNLIMITED, |e| e.limits)
    }
}

/// One dataset's ledger row: cumulative settled ε and the handle's
/// explicit budget, if one was set at upload time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerRow {
    /// ε spent by finished jobs and synchronous runs against the
    /// handle. In-flight charges are *not* included — the queue derives
    /// those from its live specs, so replay reconstructs this value
    /// exactly from journal events.
    pub spent: f64,
    /// Explicit per-handle budget (`upload` `eps_budget`). `None`
    /// falls back to the server-wide `--eps-budget` default.
    pub budget: Option<f64>,
}

/// The per-dataset ε accumulator. Pure data — no lock, no I/O; the
/// owner (the job queue) guards it with its existing mutex and
/// journals every mutation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpsLedger {
    rows: BTreeMap<String, LedgerRow>,
}

impl EpsLedger {
    /// The row for a handle, if the ledger has ever touched it.
    pub fn row(&self, handle: &str) -> Option<LedgerRow> {
        self.rows.get(handle).copied()
    }

    /// Settled ε spent against a handle.
    pub fn spent(&self, handle: &str) -> f64 {
        self.rows.get(handle).map_or(0.0, |r| r.spent)
    }

    /// The handle's effective budget under a server-wide default.
    pub fn effective_budget(&self, handle: &str, default: Option<f64>) -> Option<f64> {
        self.rows.get(handle).and_then(|r| r.budget).or(default)
    }

    /// Adds settled spend (a finished job or a synchronous run).
    pub fn settle(&mut self, handle: &str, eps: f64) {
        self.rows.entry(handle.to_string()).or_default().spent += eps;
    }

    /// Sets a handle's explicit budget.
    pub fn set_budget(&mut self, handle: &str, budget: f64) {
        self.rows.entry(handle.to_string()).or_default().budget = Some(budget);
    }

    /// Drops a handle's row (the dataset was deleted).
    pub fn forget(&mut self, handle: &str) {
        self.rows.remove(handle);
    }

    /// Keeps only the rows of handles `keep` accepts.
    pub fn retain(&mut self, keep: impl Fn(&str) -> bool) {
        self.rows.retain(|handle, _| keep(handle));
    }

    /// Would charging `eps` more — on top of settled spend and
    /// `in_flight` (the sum of accepted-but-unfinished charges) — push
    /// the handle past its effective budget? Spend may *reach* the
    /// budget exactly; only exceeding it is refused.
    pub fn check(
        &self,
        handle: &str,
        in_flight: f64,
        eps: f64,
        default_budget: Option<f64>,
    ) -> Result<(), ApiError> {
        let Some(budget) = self.effective_budget(handle, default_budget) else {
            return Ok(());
        };
        let spent = self.spent(handle) + in_flight;
        if spent + eps > budget {
            return Err(ApiError::budget_exhausted(format!(
                "privacy budget exhausted for {handle}: {spent} of {budget} spent, \
                 request needs {eps}"
            )));
        }
        Ok(())
    }

    /// Whether the ledger has no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All rows in handle order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, LedgerRow)> {
        self.rows.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The journal/snapshot form: `{"ds-1":{"spent":1.5,"budget":3}}`.
    /// Budget-less rows omit `budget`. Rust's shortest-round-trip float
    /// formatting means spend survives the JSON round trip bit-exactly.
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        for (handle, row) in &self.rows {
            let mut m = BTreeMap::new();
            m.insert("spent".to_string(), Json::from(row.spent));
            if let Some(b) = row.budget {
                m.insert("budget".to_string(), Json::from(b));
            }
            obj.insert(handle.clone(), Json::Obj(m));
        }
        Json::Obj(obj)
    }

    /// Strict inverse of [`Self::to_json`] — a snapshot ledger that
    /// does not parse is journal corruption, not something to guess
    /// around.
    pub fn from_json(v: &Json) -> Result<EpsLedger, String> {
        let Json::Obj(obj) = v else { return Err("ledger must be an object".to_string()) };
        let mut rows = BTreeMap::new();
        for (handle, row) in obj {
            let spent = row
                .get("spent")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("ledger row {handle:?} missing numeric \"spent\""))?;
            let budget = match row.get("budget") {
                None => None,
                Some(b) => Some(
                    b.as_f64()
                        .ok_or_else(|| format!("ledger row {handle:?} has non-numeric budget"))?,
                ),
            };
            rows.insert(handle.clone(), LedgerRow { spent, budget });
        }
        Ok(EpsLedger { rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ErrorCode;

    #[test]
    fn registry_parses_tokens_caps_and_comments() {
        let reg = TenantRegistry::parse(
            "# fleet tenants\n\
             \n\
             acme:s3cret\n\
             beta:tok:4::2\n\
             gamma:g:1:1024:1\n",
        )
        .unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.limits("acme"), TenantLimits::UNLIMITED);
        assert_eq!(
            reg.limits("beta"),
            TenantLimits { max_datasets: Some(4), max_bytes: None, max_jobs: Some(2) }
        );
        assert_eq!(
            reg.limits("gamma"),
            TenantLimits { max_datasets: Some(1), max_bytes: Some(1024), max_jobs: Some(1) }
        );
        // Unknown tenants and the default tenant are unlimited.
        assert_eq!(reg.limits("nobody"), TenantLimits::UNLIMITED);
        assert_eq!(reg.limits(DEFAULT_TENANT), TenantLimits::UNLIMITED);
    }

    #[test]
    fn registry_rejects_malformed_lines() {
        for (text, needle) in [
            ("acme", "name:token"),
            ("acme:", "name:token"),
            (":tok", "name:token"),
            ("default:tok", "built-in"),
            ("a b:tok", "whitespace"),
            ("acme:tok:x", "non-negative integer"),
            ("acme:tok:1:2:3:4", "too many fields"),
            ("acme:t1\nacme:t2", "duplicate"),
        ] {
            let err = TenantRegistry::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }

    /// A valid registry of `n` tenants, caps and comments mixed in.
    fn registry_text(n: usize) -> String {
        (0..n)
            .map(|i| match i % 4 {
                0 => format!("t{i}:tok{i}\n"),
                1 => format!("t{i}:tok{i}:{i}::2\n"),
                2 => format!("# comment {i}\n\nt{i}:tok{i}:1:{i}:3\n"),
                _ => format!("  t{i}:tok{i}::{i}\t\n"),
            })
            .collect()
    }

    #[test]
    fn registry_parse_is_linear() {
        crate::assert_linear(
            5_000,
            |n| (n, registry_text(n)),
            |(n, text)| assert_eq!(TenantRegistry::parse(text).map(|r| r.len()), Ok(*n)),
        );
    }

    #[test]
    fn fuzzed_registries_parse_or_name_a_line() {
        // Byte flips, truncations, and dropped or duplicated lines of a
        // valid file: it parses, or the error names one of its lines —
        // never a panic.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const BYTES: &[u8] = b"abt019:# -\n\r\t";
        let valid = registry_text(12);
        let mut rng = StdRng::seed_from_u64(0x7e4a);
        let (mut parsed, mut refused) = (0, 0);
        for _ in 0..5_000 {
            let mut text = valid.clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                let lines: Vec<usize> = std::iter::once(0)
                    .chain(
                        text.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1),
                    )
                    .collect();
                let at = lines[rng.gen_range(0..lines.len())];
                let end =
                    text[at..].iter().position(|&b| b == b'\n').map_or(text.len(), |i| at + i + 1);
                match rng.gen_range(0..4u32) {
                    0 if !text.is_empty() => {
                        let i = rng.gen_range(0..text.len());
                        text[i] = BYTES[rng.gen_range(0..BYTES.len())];
                    }
                    1 => text.truncate(rng.gen_range(0..=text.len())),
                    2 => {
                        text.drain(at..end);
                    }
                    _ => {
                        let line = text[at..end].to_vec();
                        text.splice(at..at, line);
                    }
                }
            }
            let text = String::from_utf8_lossy(&text);
            match TenantRegistry::parse(&text) {
                Ok(_) => parsed += 1,
                Err(e) => {
                    refused += 1;
                    let lineno: Option<usize> = e
                        .strip_prefix("line ")
                        .and_then(|rest| rest.split(':').next())
                        .and_then(|n| n.parse().ok());
                    assert!(
                        lineno.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
                        "{text:?}: {e}"
                    );
                }
            }
        }
        assert!(parsed > 500 && refused > 500, "parsed {parsed}, refused {refused}");
    }

    #[test]
    fn authenticate_resolves_default_and_rejects_bad_credentials() {
        let reg = TenantRegistry::parse("acme:s3cret\n").unwrap();
        assert_eq!(reg.authenticate(None).unwrap(), DEFAULT_TENANT);
        assert_eq!(reg.authenticate(Some("acme:s3cret")).unwrap(), "acme");
        for bad in ["acme:wrong", "nobody:s3cret", "acme", "acme:s3cret2", "acme:s3cre"] {
            let err = reg.authenticate(Some(bad)).unwrap_err();
            assert_eq!(err.code, ErrorCode::TenantUnknown, "{bad}");
        }
        // The empty registry still serves the default tenant but knows
        // no names at all.
        let empty = TenantRegistry::empty();
        assert_eq!(empty.authenticate(None).unwrap(), DEFAULT_TENANT);
        assert!(empty.authenticate(Some("acme:s3cret")).is_err());
    }

    #[test]
    fn ledger_charges_checks_and_forgets() {
        let mut ledger = EpsLedger::default();
        // No budget anywhere: everything passes.
        assert!(ledger.check("ds-1", 0.0, 100.0, None).is_ok());
        // A default budget binds handles without an explicit one.
        assert!(ledger.check("ds-1", 0.0, 1.0, Some(1.0)).is_ok());
        assert!(ledger.check("ds-1", 0.0, 1.1, Some(1.0)).is_err());
        ledger.settle("ds-1", 0.75);
        assert_eq!(ledger.spent("ds-1"), 0.75);
        // Settled + in-flight + new spend may reach the budget exactly
        // but never exceed it.
        assert!(ledger.check("ds-1", 0.15, 0.1, Some(1.0)).is_ok());
        let err = ledger.check("ds-1", 0.5, 0.5, Some(1.0)).unwrap_err();
        assert_eq!(err.code, ErrorCode::BudgetExhausted);
        assert!(err.message.contains("ds-1"), "{err}");
        // An explicit budget overrides the default.
        ledger.set_budget("ds-1", 2.0);
        assert!(ledger.check("ds-1", 0.5, 0.75, Some(1.0)).is_ok());
        assert_eq!(ledger.effective_budget("ds-1", Some(1.0)), Some(2.0));
        assert_eq!(ledger.effective_budget("ds-9", Some(1.0)), Some(1.0));
        // Deletion clears both spend and budget.
        ledger.forget("ds-1");
        assert_eq!(ledger.row("ds-1"), None);
        assert!(ledger.is_empty());
    }

    #[test]
    fn ledger_json_roundtrips_exactly() {
        let mut ledger = EpsLedger::default();
        ledger.settle("ds-1", 0.1 + 0.2); // deliberately not representable as 0.3
        ledger.settle("ds-1", 1.0 / 3.0);
        ledger.set_budget("ds-2", 2.5);
        let v = ledger.to_json();
        let parsed = EpsLedger::from_json(&crate::json::parse(&v.to_string()).unwrap()).unwrap();
        assert_eq!(parsed, ledger, "spend must survive the JSON round trip bit-exactly");
        // Strictness: non-object rows and missing spent are corruption.
        assert!(EpsLedger::from_json(&Json::from(3.0)).is_err());
        let bad = crate::json::parse(r#"{"ds-1":{"budget":1}}"#).unwrap();
        assert!(EpsLedger::from_json(&bad).is_err());
    }
}
