//! Observability: a lock-light metrics registry and structured logging.
//!
//! ## Metrics
//!
//! [`Metrics`] is a fixed-shape registry of atomic counters, gauges,
//! and fixed-bucket latency histograms. Almost every cell is a plain
//! [`AtomicU64`]; recording and snapshotting never take a lock shared
//! with request handling, so the instrumentation can sit inside the
//! request hot path (and inside code that *does* hold the
//! store/queue/journal locks) without adding contention — asserted by
//! a no-stall test in `jobs`. The label-keyed tenancy/ε families are
//! the one exception: they sit behind a private mutex that writers
//! only touch outside the store/queue/journal critical sections.
//!
//! The registry instruments every layer of the server: per-verb
//! request counts and latencies, per-[`ErrorCode`] rejection counts,
//! job queue depth and queue-wait/run-time histograms, store
//! bytes/handles/evictions/TTL-sweeps, journal append + fsync latency
//! and compaction counts, connection-pool occupancy, and bytes in/out.
//!
//! [`Metrics::snapshot`] freezes the registry into a plain
//! [`MetricsSnapshot`], which serializes to the typed JSON shape of the
//! `metrics` verb ([`MetricsSnapshot::to_json`]), parses back on the
//! client ([`MetricsSnapshot::from_json`]), and renders a
//! Prometheus-style text exposition ([`MetricsSnapshot::to_prometheus`])
//! for scraping.
//!
//! ## Logging
//!
//! [`init_logger`] arms a process-wide leveled logger writing one line
//! per event to stderr — structured JSON lines with `--log-json`,
//! `key=value` text otherwise. It is off until armed (the CLI's
//! `serve --log-level` arms it), so embedded servers and tests stay
//! silent. Events carry the v2 envelope's request `id` as a
//! correlation id from the service through the job queue into the
//! executor's phase-timing report.

use crate::api::{ErrorCode, WIRE_ERROR_CODES};
use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Wire names of every request verb the service dispatches, plus the
/// `"invalid"` bucket for lines whose verb never parsed (bad JSON, an
/// unknown `cmd`, a malformed envelope). Indexed by [`verb_index`].
pub const VERBS: [&str; 16] = [
    "health",
    "info",
    "metrics",
    "gen",
    "anonymize",
    "evaluate",
    "stats",
    "status",
    "cancel",
    "upload",
    "chunk",
    "commit",
    "download",
    "delete",
    "list",
    "invalid",
];

/// Position of a verb name in [`VERBS`]; unknown names land in the
/// trailing `"invalid"` bucket.
pub fn verb_index(verb: &str) -> usize {
    VERBS.iter().position(|v| *v == verb).unwrap_or(VERBS.len() - 1)
}

/// Upper bounds (µs) of the latency histogram buckets, shared by every
/// histogram in the registry. Spans 100 µs – 10 s: below the floor a
/// request is effectively free, above the ceiling it is effectively
/// stuck; either way the overflow buckets still count it.
pub const LATENCY_BOUNDS_US: [u64; 14] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    2_500_000, 10_000_000,
];

/// A fixed-bucket latency histogram made only of atomics. `counts` has
/// one cell per bound plus a trailing overflow cell; `observe` touches
/// exactly three atomics, so it is safe inside any hot path.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        let idx =
            LATENCY_BOUNDS_US.iter().position(|&b| us <= b).unwrap_or(LATENCY_BOUNDS_US.len());
        // PANIC: `counts` has `LATENCY_BOUNDS_US.len() + 1` cells and
        // `idx` is at most `LATENCY_BOUNDS_US.len()`.
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`]: per-bucket counts (one per
/// [`LATENCY_BOUNDS_US`] bound plus overflow), total count, and total
/// sum in microseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; `counts[i]` counts observations ≤
    /// `LATENCY_BOUNDS_US[i]`, the last cell counts the overflow.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Appends this histogram as Prometheus `_bucket`/`_sum`/`_count`
    /// lines for metric `name` with `labels` (e.g. `verb="health"`).
    /// Bucket `le` labels are in **seconds**, formatted so they parse
    /// back to the exact microsecond bound (asserted by a round-trip
    /// test).
    fn write_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            cumulative += self.counts.get(i).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                bound_secs(*bound)
            );
        }
        cumulative += self.counts.last().copied().unwrap_or(0);
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum_us as f64 / 1e6);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
    }
}

/// A microsecond bound rendered as seconds for a Prometheus `le`
/// label. `f64` division by 1e6 round-trips: parsing the printed value
/// back and multiplying by 1e6 recovers the bound after rounding.
fn bound_secs(bound_us: u64) -> f64 {
    bound_us as f64 / 1e6
}

/// A registry cell the metric table can declare, frozen by
/// [`Metrics::snapshot`].
trait Cell {
    type Frozen;
    fn freeze(&self) -> Self::Frozen;
}

impl Cell for AtomicU64 {
    type Frozen = u64;
    fn freeze(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

impl Cell for Histogram {
    type Frozen = HistogramSnapshot;
    fn freeze(&self) -> HistogramSnapshot {
        self.snapshot()
    }
}

/// A frozen table cell's two wire forms: its member of the `metrics`
/// JSON and its lines of the text exposition.
trait Frozen {
    fn to_json(&self) -> Json;
    fn from_json(v: &Json) -> Result<Self, String>
    where
        Self: Sized;
    /// Appends this cell's exposition lines under `family`.
    fn write_family(&self, out: &mut String, family: &str);
}

impl Frozen for u64 {
    fn to_json(&self) -> Json {
        Json::from(*self)
    }

    fn from_json(v: &Json) -> Result<u64, String> {
        v.as_u64().ok_or_else(|| "not an integer".to_string())
    }

    fn write_family(&self, out: &mut String, family: &str) {
        let _ = writeln!(out, "{family} {self}");
    }
}

impl Frozen for HistogramSnapshot {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum_us", Json::from(self.sum_us)),
            ("bounds_us", Json::Arr(LATENCY_BOUNDS_US.iter().map(|&b| Json::from(b)).collect())),
            ("counts", Json::Arr(self.counts.iter().map(|&c| Json::from(c)).collect())),
        ])
    }

    fn from_json(v: &Json) -> Result<HistogramSnapshot, String> {
        let count = v.get("count").and_then(Json::as_u64).ok_or("histogram missing count")?;
        let sum_us = v.get("sum_us").and_then(Json::as_u64).ok_or("histogram missing sum_us")?;
        let counts = match v.get("counts") {
            Some(Json::Arr(a)) => a.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>(),
            _ => None,
        };
        let counts = counts.ok_or("histogram counts must be an array of integers")?;
        Ok(HistogramSnapshot { counts, count, sum_us })
    }

    fn write_family(&self, out: &mut String, family: &str) {
        self.write_prometheus(out, family, "");
    }
}

/// Decodes the table cell at `section.member` of the `metrics` JSON
/// `v`. Strict: a missing section or member is an error.
fn decode<T: Frozen>(v: &Json, section: &str, member: &str) -> Result<T, String> {
    let s = v.get(section).ok_or_else(|| format!("metrics missing section {section:?}"))?;
    let m = s.get(member).ok_or_else(|| format!("metrics missing member {section}.{member}"))?;
    T::from_json(m).map_err(|e| format!("metrics {section}.{member}: {e}"))
}

/// A `{label: value}` object of `(label, value)` rows — the JSON shape
/// of every labelled counter family and of the ε gauge.
fn labelled_to_json<T: Copy + Into<Json>>(rows: &[(String, T)]) -> Json {
    Json::Obj(rows.iter().map(|(k, v)| (k.clone(), (*v).into())).collect())
}

/// The `(label, value)` rows of the `{label: value}` object at member
/// `key` of `v`; `value` decodes each value.
fn labelled_from_json<T>(
    v: &Json,
    key: &str,
    value: fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, String> {
    let Some(Json::Obj(map)) = v.get(key) else { return Err(format!("{key} must be an object")) };
    map.iter()
        .map(|(k, n)| {
            value(n).map(|n| (k.clone(), n)).ok_or_else(|| format!("{key}.{k}: bad value"))
        })
        .collect()
}

/// Appends one `family{label="…"} value` line per row.
fn write_labelled(out: &mut String, family: &str, label: &str, rows: &[(String, impl Display)]) {
    for (k, v) in rows {
        let _ = writeln!(out, "{family}{{{label}=\"{k}\"}} {v}");
    }
}

/// Per-verb request statistics: a counter and a latency histogram.
#[derive(Debug, Default)]
pub struct VerbStats {
    /// Requests dispatched under this verb.
    pub count: AtomicU64,
    /// End-to-end handling latency (parse → rendered response).
    pub latency: Histogram,
}

/// Declares the unlabelled metrics, one row each:
///
/// ```text
/// /// doc
/// field: RegistryCell => SnapshotValue, ("json_section", "json_member"), "trajdp_family";
/// ```
///
/// and derives from the rows the [`Metrics`] cells and their `Default`,
/// the [`MetricsSnapshot`] fields, the freeze in [`Metrics::snapshot`],
/// and the table part of the JSON codec and the exposition, in row
/// order. The labelled families are written by hand around it.
macro_rules! metric_table {
    ($(
        $(#[doc = $doc:literal])*
        $field:ident: $cell:ty => $frozen:ty, ($section:literal, $member:literal), $family:literal;
    )*) => {
        /// The process-wide metrics registry. Every cell is an atomic;
        /// there is no interior lock, so recording from inside the
        /// store/queue/journal critical sections and snapshotting from
        /// the `metrics` verb can never contend.
        #[derive(Debug)]
        pub struct Metrics {
            started: Instant,
            /// Per-verb request stats, indexed by [`verb_index`].
            pub requests: [VerbStats; VERBS.len()],
            /// Per-code rejection counts, indexed by position in
            /// [`WIRE_ERROR_CODES`].
            pub errors: [AtomicU64; WIRE_ERROR_CODES.len()],
            $($(#[doc = $doc])* pub $field: $cell,)*
            /// Label-keyed families (per-tenant counters, per-dataset ε).
            /// These are the one exception to the atomics-only rule: the
            /// key sets are dynamic, so they live behind a private mutex.
            /// Writers only touch it *outside* the store/queue/journal
            /// locks, and the `metrics` read path takes it alone — it can
            /// never participate in a lock cycle.
            tenancy: Mutex<TenancyMetrics>,
        }

        impl Default for Metrics {
            fn default() -> Self {
                Metrics {
                    started: Instant::now(),
                    requests: Default::default(),
                    errors: Default::default(),
                    $($field: Default::default(),)*
                    tenancy: Mutex::default(),
                }
            }
        }

        impl Metrics {
            /// The table's cells frozen; the labelled parts empty.
            fn freeze_table(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: Cell::freeze(&self.$field),)*
                    ..MetricsSnapshot::empty()
                }
            }
        }

        /// A frozen [`Metrics`] registry — the payload of the `metrics`
        /// verb. (`Eq` would be wrong here: the ε gauge values are `f64`.)
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsSnapshot {
            /// Seconds since the registry (≈ the server) started.
            pub uptime_secs: u64,
            /// Per-verb request stats, sorted by verb.
            pub requests: Vec<VerbSnapshot>,
            /// `(code, count)` per wire error code, sorted by code.
            pub errors: Vec<(String, u64)>,
            $($(#[doc = $doc])* pub $field: $frozen,)*
            /// `(tenant, count)` of authenticated requests, sorted by tenant.
            pub tenant_requests: Vec<(String, u64)>,
            /// `(tenant, count)` of rejected requests, sorted by tenant.
            pub tenant_rejections: Vec<(String, u64)>,
            /// `(dataset, ε)` settled + in-flight spend, sorted by handle.
            pub eps_spent: Vec<(String, f64)>,
        }

        impl MetricsSnapshot {
            /// Every labelled part empty, every table cell zero.
            fn empty() -> MetricsSnapshot {
                MetricsSnapshot {
                    uptime_secs: 0,
                    requests: Vec::new(),
                    errors: Vec::new(),
                    $($field: Default::default(),)*
                    tenant_requests: Vec::new(),
                    tenant_rejections: Vec::new(),
                    eps_spent: Vec::new(),
                }
            }

            /// The table's cells decoded from the `metrics` JSON `v`;
            /// the labelled parts empty.
            fn table_from_json(v: &Json) -> Result<MetricsSnapshot, String> {
                Ok(MetricsSnapshot { $($field: decode(v, $section, $member)?,)* ..Self::empty() })
            }

            /// `(section, member, family, value)` of every table cell,
            /// in row order.
            fn cells(&self) -> Vec<(&'static str, &'static str, &'static str, &dyn Frozen)> {
                vec![$(($section, $member, $family, &self.$field as &dyn Frozen),)*]
            }
        }
    };
}

metric_table! {
    /// Jobs accepted by `submit`.
    jobs_submitted: AtomicU64 => u64, ("jobs", "submitted"), "trajdp_jobs_submitted_total";
    /// Jobs that reached `done`.
    jobs_completed: AtomicU64 => u64, ("jobs", "completed"), "trajdp_jobs_completed_total";
    /// Submits refused because the queue was at `--max-queue`
    /// (answered `overloaded`, never enqueued).
    jobs_shed: AtomicU64 => u64, ("jobs", "shed"), "trajdp_jobs_shed_total";
    /// Jobs queued or running right now (gauge).
    queue_depth: AtomicU64 => u64, ("jobs", "queue_depth"), "trajdp_job_queue_depth";
    /// Submit → worker pickup.
    queue_wait: Histogram => HistogramSnapshot, ("jobs", "queue_wait"),
        "trajdp_job_queue_wait_seconds";
    /// Worker pickup → done.
    run_time: Histogram => HistogramSnapshot, ("jobs", "run_time"), "trajdp_job_run_seconds";
    /// Bytes held by the dataset store: committed datasets plus
    /// pending upload buffers (gauge).
    store_bytes: AtomicU64 => u64, ("store", "bytes"), "trajdp_store_bytes";
    /// Handles held by the dataset store (gauge).
    store_handles: AtomicU64 => u64, ("store", "handles"), "trajdp_store_handles";
    /// Handles evicted (LRU pressure or TTL expiry).
    store_evictions: AtomicU64 => u64, ("store", "evictions"), "trajdp_store_evictions_total";
    /// TTL sweep passes run.
    store_ttl_sweeps: AtomicU64 => u64, ("store", "ttl_sweeps"), "trajdp_store_ttl_sweeps_total";
    /// Parses of a stored handle's CSV text. A canonical handle is
    /// parsed once and then kept parsed, so this stays at one per
    /// handle however many jobs read it.
    dataset_parses: AtomicU64 => u64, ("store", "parses"), "trajdp_dataset_parses_total";
    /// Journal events appended.
    journal_appends: AtomicU64 => u64, ("journal", "appends"), "trajdp_journal_appends_total";
    /// Durable append latency (write + fsync).
    journal_fsync: Histogram => HistogramSnapshot, ("journal", "fsync"),
        "trajdp_journal_fsync_seconds";
    /// Journal compactions (rewrites) completed.
    journal_compactions: AtomicU64 => u64, ("journal", "compactions"),
        "trajdp_journal_compactions_total";
    /// Currently served connections (gauge).
    connections_active: AtomicU64 => u64, ("connections", "active"), "trajdp_connections_active";
    /// Connections accepted over the process lifetime.
    connections_total: AtomicU64 => u64, ("connections", "total"), "trajdp_connections_total";
    /// Connections shed at accept because the server was at
    /// `--max-conn` (answered `overloaded`, never served).
    connections_shed: AtomicU64 => u64, ("reactor", "shed"), "trajdp_connections_shed_total";
    /// Connections closed because a partial request line outlived the
    /// read deadline (slowloris / half-open peers).
    deadline_closes: AtomicU64 => u64, ("reactor", "deadline_closes"),
        "trajdp_deadline_closes_total";
    /// Wall-clock of each readiness-loop iteration's event handling
    /// (the poll wait excluded) — the reactor's heartbeat.
    reactor_iterations: Histogram => HistogramSnapshot, ("reactor", "iterations"),
        "trajdp_reactor_iteration_seconds";
    /// Request bytes read off sockets.
    bytes_in: AtomicU64 => u64, ("bytes", "in"), "trajdp_bytes_in_total";
    /// Response bytes written to sockets.
    bytes_out: AtomicU64 => u64, ("bytes", "out"), "trajdp_bytes_out_total";
}

/// The label-keyed half of the registry: per-tenant request/rejection
/// counters and the per-dataset settled + in-flight ε gauge.
#[derive(Debug, Default)]
struct TenancyMetrics {
    requests: BTreeMap<String, u64>,
    rejections: BTreeMap<String, u64>,
    eps_spent: BTreeMap<String, f64>,
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one handled request: its verb bucket and latency.
    pub fn record_request(&self, verb: &str, elapsed: Duration) {
        // PANIC: `verb_index` returns a position into `VERBS` (falling
        // back to the `invalid` bucket) and `requests` has one cell per
        // verb by construction.
        let stats = &self.requests[verb_index(verb)];
        stats.count.fetch_add(1, Ordering::Relaxed);
        stats.latency.observe(elapsed);
    }

    /// Records one rejection under its stable code.
    pub fn record_error(&self, code: ErrorCode) {
        if let Some(idx) = WIRE_ERROR_CODES.iter().position(|&c| c == code) {
            // PANIC: `idx` is a position into `WIRE_ERROR_CODES` and
            // `errors` has one cell per code by construction.
            self.errors[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes the store gauges (called by the store after mutating
    /// operations, under the store's own lock — the gauge cells are
    /// atomics, so readers never touch that lock).
    pub fn set_store_gauges(&self, bytes: u64, handles: u64) {
        self.store_bytes.store(bytes, Ordering::Relaxed);
        self.store_handles.store(handles, Ordering::Relaxed);
    }

    /// Publishes the job-queue depth gauge.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// The label-keyed section, recovered from poisoning — dropping
    /// observability forever because one panicking writer held this
    /// lock would be worse than any half-written counter (all values
    /// here are plain numbers, never invariants).
    fn tenancy(&self) -> std::sync::MutexGuard<'_, TenancyMetrics> {
        self.tenancy.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Counts one authenticated request for `tenant`.
    pub fn record_tenant_request(&self, tenant: &str) {
        *self.tenancy().requests.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Counts one rejected request for `tenant` (bad token, quota,
    /// budget, or any other error answer).
    pub fn record_tenant_rejection(&self, tenant: &str) {
        *self.tenancy().rejections.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Publishes one dataset's ε-spent gauge (settled + in-flight).
    /// Callers must not hold the queue/journal/store locks — compute
    /// the value inside the critical section, publish after it.
    pub fn set_eps_spent(&self, dataset: &str, eps: f64) {
        self.tenancy().eps_spent.insert(dataset.to_string(), eps);
    }

    /// Drops a deleted dataset's ε gauge row.
    pub fn clear_eps_spent(&self, dataset: &str) {
        self.tenancy().eps_spent.remove(dataset);
    }

    /// Freezes the registry. Reads atomics plus the private label-keyed
    /// mutex — never a lock shared with request handling.
    ///
    /// Verbs and error codes are sorted by name — the order the JSON
    /// wire shape (an object with sorted keys) imposes anyway, so a
    /// snapshot round-trips through [`MetricsSnapshot::from_json`]
    /// unchanged.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut requests: Vec<VerbSnapshot> = VERBS
            .iter()
            .zip(self.requests.iter())
            .map(|(verb, stats)| VerbSnapshot {
                verb: verb.to_string(),
                count: stats.count.load(Ordering::Relaxed),
                latency: stats.latency.snapshot(),
            })
            .collect();
        requests.sort_by(|a, b| a.verb.cmp(&b.verb));
        let mut errors: Vec<(String, u64)> = WIRE_ERROR_CODES
            .iter()
            .zip(self.errors.iter())
            .map(|(code, cell)| (code.as_str().to_string(), cell.load(Ordering::Relaxed)))
            .collect();
        errors.sort();
        let (tenant_requests, tenant_rejections, eps_spent) = {
            let t = self.tenancy();
            (
                t.requests.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                t.rejections.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                t.eps_spent.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            )
        };
        MetricsSnapshot {
            uptime_secs: self.started.elapsed().as_secs(),
            requests,
            errors,
            tenant_requests,
            tenant_rejections,
            eps_spent,
            ..self.freeze_table()
        }
    }
}

/// One verb's frozen stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerbSnapshot {
    /// The verb name (one of [`VERBS`]).
    pub verb: String,
    /// Requests dispatched.
    pub count: u64,
    /// Handling latency.
    pub latency: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// The typed wire shape of the `metrics` verb (identical across
    /// protocol versions — the verb is new, nothing is frozen).
    pub fn to_json(&self) -> Json {
        let requests = self.requests.iter().map(|r| {
            let stats =
                Json::obj([("count", Json::from(r.count)), ("latency", r.latency.to_json())]);
            (r.verb.clone(), stats)
        });
        let tenants = Json::obj([
            ("requests", labelled_to_json(&self.tenant_requests)),
            ("rejections", labelled_to_json(&self.tenant_rejections)),
        ]);
        let mut top: BTreeMap<String, Json> = [
            ("uptime_secs", Json::from(self.uptime_secs)),
            ("requests", Json::Obj(requests.collect())),
            ("errors", labelled_to_json(&self.errors)),
            ("tenants", tenants),
            ("eps_spent", labelled_to_json(&self.eps_spent)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for (section, member, _, cell) in self.cells() {
            let section = top.entry(section.to_string()).or_insert_with(|| Json::obj([]));
            if let Json::Obj(members) = section {
                members.insert(member.to_string(), cell.to_json());
            }
        }
        Json::Obj(top)
    }

    /// Parses the wire shape back — the client half of the `metrics`
    /// verb. Strict: a missing section or member is a protocol
    /// violation.
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, String> {
        let section =
            |key: &str| v.get(key).ok_or_else(|| format!("metrics missing section {key:?}"));
        let requests = match section("requests")? {
            Json::Obj(map) => map
                .iter()
                .map(|(verb, stats)| {
                    Ok(VerbSnapshot {
                        verb: verb.clone(),
                        count: stats
                            .get("count")
                            .and_then(Json::as_u64)
                            .ok_or("verb stats missing count")?,
                        latency: HistogramSnapshot::from_json(
                            stats.get("latency").ok_or("verb stats missing latency")?,
                        )?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("requests must be an object".to_string()),
        };
        let tenants = section("tenants")?;
        Ok(MetricsSnapshot {
            uptime_secs: v.get("uptime_secs").and_then(Json::as_u64).ok_or("metrics uptime")?,
            requests,
            errors: labelled_from_json(v, "errors", Json::as_u64)?,
            tenant_requests: labelled_from_json(tenants, "requests", Json::as_u64)?,
            tenant_rejections: labelled_from_json(tenants, "rejections", Json::as_u64)?,
            eps_spent: labelled_from_json(v, "eps_spent", Json::as_f64)?,
            ..Self::table_from_json(v)?
        })
    }

    /// Renders a Prometheus-style text exposition of the snapshot:
    /// uptime, the per-verb and per-code families, the table's families
    /// in row order, then the per-tenant and per-dataset families.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trajdp_uptime_seconds {}", self.uptime_secs);
        for r in &self.requests {
            let _ = writeln!(out, "trajdp_requests_total{{verb=\"{}\"}} {}", r.verb, r.count);
        }
        for r in &self.requests {
            r.latency.write_prometheus(
                &mut out,
                "trajdp_request_latency_seconds",
                &format!("verb=\"{}\"", r.verb),
            );
        }
        write_labelled(&mut out, "trajdp_errors_total", "code", &self.errors);
        for (_, _, family, cell) in self.cells() {
            cell.write_family(&mut out, family);
        }
        for (family, rows) in [
            ("trajdp_tenant_requests_total", &self.tenant_requests),
            ("trajdp_tenant_rejections_total", &self.tenant_rejections),
        ] {
            write_labelled(&mut out, family, "tenant", rows);
        }
        write_labelled(&mut out, "trajdp_eps_spent", "dataset", &self.eps_spent);
        out
    }
}

/// Wall-clock phase timings of one anonymize run, in seconds. The
/// build/increase/decrease/realize stages come from the core's
/// modification phase ([`trajdp_core::global::StageTimings`]); `global`
/// and `local` are the mechanism-level walls the pipeline driver
/// already measures; `total` is the end-to-end request wall.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimings {
    /// End-to-end anonymize wall (parse → released dataset).
    pub total_secs: f64,
    /// Global mechanism wall (perturbation + modification).
    pub global_secs: f64,
    /// Local mechanism wall.
    pub local_secs: f64,
    /// Modification planning: editor construction + edit-step planning.
    pub build_secs: f64,
    /// TF-increase edits.
    pub increase_secs: f64,
    /// TF-decrease edits.
    pub decrease_secs: f64,
    /// Total modification (realize) wall.
    pub realize_secs: f64,
}

impl PhaseTimings {
    /// The wire shape (`"timings"` member of v2 anonymize/status
    /// responses).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total_secs", Json::from(self.total_secs)),
            ("global_secs", Json::from(self.global_secs)),
            ("local_secs", Json::from(self.local_secs)),
            ("build_secs", Json::from(self.build_secs)),
            ("increase_secs", Json::from(self.increase_secs)),
            ("decrease_secs", Json::from(self.decrease_secs)),
            ("realize_secs", Json::from(self.realize_secs)),
        ])
    }
}

// ---------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------

/// Log severity. Ordered: a logger at level `Info` emits
/// `Error`/`Warn`/`Info` and drops `Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing is emitted (the un-armed default).
    Off,
    /// Unexpected failures only.
    Error,
    /// Rejections and degraded operation.
    Warn,
    /// One line per request / job transition.
    Info,
    /// Everything, including internal transitions.
    Debug,
}

impl LogLevel {
    /// Parses a CLI level name.
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

struct Logger {
    level: LogLevel,
    json: bool,
}

static LOGGER: OnceLock<Logger> = OnceLock::new();

/// Arms the process-wide logger. First call wins; returns `false` if a
/// logger was already armed (the settings keep their first value —
/// re-arming mid-flight would tear half-written configuration).
pub fn init_logger(level: LogLevel, json: bool) -> bool {
    LOGGER.set(Logger { level, json }).is_ok()
}

/// Whether an event at `level` would be emitted — lets callers skip
/// building field lists when logging is off (the common case for
/// embedded servers and tests).
pub fn log_enabled(level: LogLevel) -> bool {
    match LOGGER.get() {
        Some(logger) => level <= logger.level && logger.level != LogLevel::Off,
        None => false,
    }
}

/// Emits one structured event to stderr: JSON lines when the logger
/// was armed with `json`, `key=value` text otherwise. Fields are
/// `(name, value)` pairs; the correlation id travels as a `cid` field.
pub fn log_event(level: LogLevel, msg: &str, fields: &[(&str, Json)]) {
    let Some(logger) = LOGGER.get() else { return };
    if level > logger.level || logger.level == LogLevel::Off {
        return;
    }
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    if logger.json {
        let mut obj: std::collections::BTreeMap<String, Json> = std::collections::BTreeMap::new();
        obj.insert("ts_ms".to_string(), Json::from(ts));
        obj.insert("level".to_string(), Json::from(level.as_str()));
        obj.insert("msg".to_string(), Json::from(msg));
        for (k, v) in fields {
            obj.insert((*k).to_string(), v.clone());
        }
        eprintln!("{}", Json::Obj(obj));
    } else {
        let mut line = format!("{ts} {} {msg}", level.as_str());
        for (k, v) in fields {
            match v {
                Json::Str(s) => {
                    let _ = write!(line, " {k}={s}");
                }
                other => {
                    let _ = write!(line, " {k}={other}");
                }
            }
        }
        eprintln!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_latencies_and_sums() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // ≤ 100 → bucket 0
        h.observe(Duration::from_micros(100)); // ≤ 100 → bucket 0
        h.observe(Duration::from_micros(101)); // ≤ 250 → bucket 1
        h.observe(Duration::from_secs(60)); // overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 50 + 100 + 101 + 60_000_000);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert_eq!(s.counts.len(), LATENCY_BOUNDS_US.len() + 1);
    }

    #[test]
    fn histogram_bounds_round_trip_through_the_text_exposition() {
        // Every `le` label printed by the exposition must parse back to
        // the exact microsecond bucket bound — a scraper and this
        // server must agree on the boundaries.
        let h = Histogram::default();
        h.observe(Duration::from_millis(3));
        let mut text = String::new();
        h.snapshot().write_prometheus(&mut text, "t", "verb=\"x\"");
        let mut seen = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("t_bucket{verb=\"x\",le=\"") {
                let le = rest.split('"').next().unwrap();
                if le == "+Inf" {
                    continue;
                }
                let secs: f64 = le.parse().expect("le label must parse as f64");
                seen.push((secs * 1e6).round() as u64);
            }
        }
        assert_eq!(seen, LATENCY_BOUNDS_US.to_vec(), "bounds must round-trip exactly");
        // And the cumulative +Inf bucket equals the total count.
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("t_count{verb=\"x\"} 1"));
    }

    #[test]
    fn every_error_code_increments_its_counter_exactly_once() {
        let m = Metrics::new();
        for code in WIRE_ERROR_CODES {
            m.record_error(code);
        }
        let snap = m.snapshot();
        assert_eq!(snap.errors.len(), WIRE_ERROR_CODES.len());
        for code in WIRE_ERROR_CODES {
            let n = snap.errors.iter().find(|(name, _)| name == code.as_str()).map(|(_, n)| *n);
            assert_eq!(n, Some(1), "{} must have been incremented exactly once", code.as_str());
        }
        // The client-side-only code has no wire counter and must not
        // disturb the registry.
        m.record_error(ErrorCode::Transport);
        let snap = m.snapshot();
        assert!(snap.errors.iter().all(|(_, n)| *n == 1));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.record_request("health", Duration::from_micros(120));
        m.record_request("anonymize", Duration::from_millis(80));
        m.record_request("nonsense", Duration::from_micros(5)); // → invalid
        m.record_error(ErrorCode::BadRequest);
        m.bytes_in.fetch_add(100, Ordering::Relaxed);
        m.bytes_out.fetch_add(250, Ordering::Relaxed);
        m.jobs_submitted.fetch_add(2, Ordering::Relaxed);
        m.jobs_completed.fetch_add(1, Ordering::Relaxed);
        m.set_queue_depth(1);
        m.queue_wait.observe(Duration::from_micros(900));
        m.run_time.observe(Duration::from_millis(12));
        m.set_store_gauges(4096, 3);
        m.store_evictions.fetch_add(1, Ordering::Relaxed);
        m.journal_appends.fetch_add(3, Ordering::Relaxed);
        m.journal_fsync.observe(Duration::from_micros(400));
        m.journal_compactions.fetch_add(1, Ordering::Relaxed);
        m.connections_shed.fetch_add(2, Ordering::Relaxed);
        m.deadline_closes.fetch_add(1, Ordering::Relaxed);
        m.reactor_iterations.observe(Duration::from_micros(30));
        m.jobs_shed.fetch_add(4, Ordering::Relaxed);
        m.record_tenant_request("acme");
        m.record_tenant_request("acme");
        m.record_tenant_rejection("acme");
        m.record_tenant_request("default");
        m.set_eps_spent("ds-1", 1.25);
        m.set_eps_spent("ds-2", 0.1 + 0.2); // deliberately non-representable
        let snap = m.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // Spot checks on the typed content.
        let health = parsed.requests.iter().find(|r| r.verb == "health").unwrap();
        assert_eq!(health.count, 1);
        let invalid = parsed.requests.iter().find(|r| r.verb == "invalid").unwrap();
        assert_eq!(invalid.count, 1, "unknown verbs land in the invalid bucket");
        assert_eq!(parsed.errors.iter().find(|(c, _)| c == "bad-request").unwrap().1, 1);
        assert_eq!(parsed.store_bytes, 4096);
        assert_eq!(parsed.store_handles, 3);
        assert_eq!(parsed.connections_shed, 2);
        assert_eq!(parsed.deadline_closes, 1);
        assert_eq!(parsed.reactor_iterations.count, 1);
        assert_eq!(parsed.jobs_shed, 4);
        assert_eq!(
            parsed.tenant_requests,
            vec![("acme".to_string(), 2), ("default".to_string(), 1)]
        );
        assert_eq!(parsed.tenant_rejections, vec![("acme".to_string(), 1)]);
        // ε survives the JSON round trip bit-exactly (shortest
        // round-trip float formatting), including sums that are not
        // exactly representable.
        assert_eq!(
            parsed.eps_spent,
            vec![("ds-1".to_string(), 1.25), ("ds-2".to_string(), 0.1 + 0.2)]
        );
    }

    #[test]
    fn eps_gauge_rows_can_be_cleared() {
        let m = Metrics::new();
        m.set_eps_spent("ds-1", 0.5);
        m.set_eps_spent("ds-1", 0.75); // a gauge: set replaces
        assert_eq!(m.snapshot().eps_spent, vec![("ds-1".to_string(), 0.75)]);
        m.clear_eps_spent("ds-1");
        assert!(m.snapshot().eps_spent.is_empty());
    }

    #[test]
    fn prometheus_exposition_covers_every_family() {
        let m = Metrics::new();
        m.record_request("health", Duration::from_micros(10));
        m.record_error(ErrorCode::JobNotFound);
        m.record_tenant_request("acme");
        m.record_tenant_rejection("acme");
        m.set_eps_spent("ds-1", 0.5);
        let text = m.snapshot().to_prometheus();
        for family in [
            "trajdp_uptime_seconds",
            "trajdp_requests_total{verb=\"health\"} 1",
            "trajdp_request_latency_seconds_bucket{verb=\"health\",le=\"+Inf\"} 1",
            "trajdp_errors_total{code=\"job-not-found\"} 1",
            "trajdp_jobs_submitted_total",
            "trajdp_jobs_shed_total",
            "trajdp_job_queue_depth",
            "trajdp_job_queue_wait_seconds_count",
            "trajdp_store_bytes",
            "trajdp_journal_fsync_seconds_count",
            "trajdp_connections_active",
            "trajdp_connections_shed_total",
            "trajdp_deadline_closes_total",
            "trajdp_reactor_iteration_seconds_count",
            "trajdp_bytes_in_total",
            "trajdp_tenant_requests_total{tenant=\"acme\"} 1",
            "trajdp_tenant_rejections_total{tenant=\"acme\"} 1",
            "trajdp_eps_spent{dataset=\"ds-1\"} 0.5",
        ] {
            assert!(text.contains(family), "exposition must contain {family}:\n{text}");
        }
        // Every family of PROTOCOL.md's table is exposed, and first
        // appearances follow the table, which claims exposition order.
        let documented: Vec<&str> = include_str!("../../../PROTOCOL.md")
            .lines()
            .filter_map(|l| l.strip_prefix("| `trajdp_").map(|_| l.split('`').nth(1).unwrap()))
            .collect();
        assert!(documented.len() >= 27, "PROTOCOL.md family table not found: {documented:?}");
        let first_line = |family: &str| {
            text.lines().position(|l| {
                let name = l.split(['{', ' ']).next().unwrap();
                ["", "_bucket", "_sum", "_count"].iter().any(|s| name == format!("{family}{s}"))
            })
        };
        let mut last = None;
        for family in documented {
            let at = first_line(family);
            assert!(at.is_some(), "documented {family} not exposed:\n{text}");
            assert!(at > last, "{family} is exposed out of PROTOCOL.md's table order");
            last = at;
        }
    }

    #[test]
    fn verb_index_maps_known_and_unknown() {
        assert_eq!(VERBS[verb_index("health")], "health");
        assert_eq!(VERBS[verb_index("metrics")], "metrics");
        assert_eq!(VERBS[verb_index("no-such-verb")], "invalid");
    }

    #[test]
    fn log_levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::parse("info"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("bogus"), None);
        // Un-armed logger: nothing enabled (tests stay silent).
        // (init_logger is process-global; arming it here would leak
        // into sibling tests, so only the un-armed path is asserted.)
        if LOGGER.get().is_none() {
            assert!(!log_enabled(LogLevel::Error));
        }
        log_event(LogLevel::Info, "noop", &[("k", Json::from("v"))]);
    }

    #[test]
    fn phase_timings_serialize() {
        let t = PhaseTimings {
            total_secs: 1.5,
            global_secs: 1.0,
            local_secs: 0.25,
            build_secs: 0.1,
            increase_secs: 0.4,
            decrease_secs: 0.3,
            realize_secs: 0.9,
        };
        let v = t.to_json();
        assert_eq!(v.get("total_secs").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("realize_secs").and_then(Json::as_f64), Some(0.9));
    }
}
