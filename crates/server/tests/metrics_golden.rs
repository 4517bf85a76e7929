//! Golden for the `metrics` wire: a registry with every cell populated
//! must serialize to exactly these bytes of JSON and exactly these
//! Prometheus exposition lines. The constants were captured from the
//! hand-written codec that predates the declarative metric table in
//! `obs.rs`; the table must reproduce them. Exposition lines are
//! compared sorted, because the family order is the table's (and is
//! pinned against PROTOCOL.md by `obs`'s own tests).

use std::sync::atomic::Ordering;
use std::time::Duration;
use trajdp_server::api::ErrorCode;
use trajdp_server::obs::{Metrics, MetricsSnapshot};

/// Every scalar a distinct value, every histogram two observations in
/// distinct buckets (one overflow), two verbs plus the `invalid`
/// bucket, two error codes, two tenants and two ε rows. Uptime is
/// zeroed so the wire is reproducible.
fn populated_snapshot() -> MetricsSnapshot {
    let m = Metrics::new();
    for (cell, n) in [
        (&m.bytes_in, 101),
        (&m.bytes_out, 202),
        (&m.connections_active, 3),
        (&m.connections_total, 404),
        (&m.connections_shed, 5),
        (&m.deadline_closes, 6),
        (&m.jobs_submitted, 7),
        (&m.jobs_completed, 8),
        (&m.queue_depth, 9),
        (&m.store_bytes, 1010),
        (&m.store_handles, 11),
        (&m.store_evictions, 12),
        (&m.store_ttl_sweeps, 13),
        (&m.journal_appends, 14),
        (&m.journal_compactions, 15),
        (&m.jobs_shed, 16),
        (&m.dataset_parses, 17),
    ] {
        cell.store(n, Ordering::Relaxed);
    }
    for (h, a, b) in [
        (&m.reactor_iterations, 30, 3_000),
        (&m.queue_wait, 900, 20_000_000),
        (&m.run_time, 12_000, 300_000),
        (&m.journal_fsync, 400, 2_000_000),
    ] {
        h.observe(Duration::from_micros(a));
        h.observe(Duration::from_micros(b));
    }
    m.record_request("health", Duration::from_micros(120));
    m.record_request("anonymize", Duration::from_millis(80));
    m.record_request("nonsense", Duration::from_micros(5));
    m.record_error(ErrorCode::BadRequest);
    m.record_error(ErrorCode::JobNotFound);
    m.record_error(ErrorCode::JobNotFound);
    m.record_tenant_request("acme");
    m.record_tenant_request("acme");
    m.record_tenant_rejection("acme");
    m.record_tenant_request("default");
    m.set_eps_spent("ds-1", 1.25);
    m.set_eps_spent("ds-2", 0.1 + 0.2);
    let mut snap = m.snapshot();
    snap.uptime_secs = 0;
    snap
}

#[test]
fn metrics_json_is_byte_identical_to_the_golden() {
    let snap = populated_snapshot();
    assert_eq!(snap.to_json().to_string(), GOLDEN_JSON.concat());
    assert_eq!(MetricsSnapshot::from_json(&snap.to_json()).unwrap(), snap);
}

#[test]
fn metrics_exposition_has_exactly_the_golden_lines() {
    let text = populated_snapshot().to_prometheus();
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    assert_eq!(lines, GOLDEN_PROMETHEUS.lines().collect::<Vec<_>>());
}

/// `to_json().to_string()` of [`populated_snapshot`], split at commas.
const GOLDEN_JSON: &[&str] = &[
    r#"{"bytes":{"in":101,"out":202},"connections":{"active":3,"total":404},"#,
    r#""eps_spent":{"ds-1":1.25,"ds-2":0.30000000000000004},"errors":{"bad-request":1,"#,
    r#""budget-exhausted":0,"dataset-in-use":0,"dataset-not-found":0,"dataset-state":0,"#,
    r#""internal":0,"invalid-dataset":0,"io-error":0,"job-not-found":2,"overloaded":0,"#,
    r#""payload-too-large":0,"quota-exceeded":0,"shutting-down":0,"store-full":0,"#,
    r#""tenant-unknown":0,"unknown-verb":0},"jobs":{"completed":8,"queue_depth":9,"#,
    r#""queue_wait":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,50000,100000,250000,"#,
    r#"1000000,2500000,10000000],"count":2,"counts":[0,0,0,1,0,0,0,0,0,0,0,0,0,0,1],"#,
    r#""sum_us":20000900},"run_time":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,"#,
    r#"50000,100000,250000,1000000,2500000,10000000],"count":2,"counts":[0,0,0,0,0,0,0,1,0,0,"#,
    r#"0,1,0,0,0],"sum_us":312000},"shed":16,"submitted":7},"journal":{"appends":14,"#,
    r#""compactions":15,"fsync":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,50000,"#,
    r#"100000,250000,1000000,2500000,10000000],"count":2,"counts":[0,0,1,0,0,0,0,0,0,0,0,0,1,"#,
    r#"0,0],"sum_us":2000400}},"reactor":{"deadline_closes":6,"iterations":{"bounds_us":[100,"#,
    r#"250,500,1000,2500,5000,10000,25000,50000,100000,250000,1000000,2500000,10000000],"#,
    r#""count":2,"counts":[1,0,0,0,0,1,0,0,0,0,0,0,0,0,0],"sum_us":3030},"shed":5},"#,
    r#""requests":{"anonymize":{"count":1,"latency":{"bounds_us":[100,250,500,1000,2500,5000,"#,
    r#"10000,25000,50000,100000,250000,1000000,2500000,10000000],"count":1,"counts":[0,0,0,0,"#,
    r#"0,0,0,0,0,1,0,0,0,0,0],"sum_us":80000}},"cancel":{"count":0,"#,
    r#""latency":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,50000,100000,250000,"#,
    r#"1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
    r#""sum_us":0}},"chunk":{"count":0,"latency":{"bounds_us":[100,250,500,1000,2500,5000,"#,
    r#"10000,25000,50000,100000,250000,1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,"#,
    r#"0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"commit":{"count":0,"latency":{"bounds_us":[100,"#,
    r#"250,500,1000,2500,5000,10000,25000,50000,100000,250000,1000000,2500000,10000000],"#,
    r#""count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"delete":{"count":0,"#,
    r#""latency":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,50000,100000,250000,"#,
    r#"1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
    r#""sum_us":0}},"download":{"count":0,"latency":{"bounds_us":[100,250,500,1000,2500,5000,"#,
    r#"10000,25000,50000,100000,250000,1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,"#,
    r#"0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"evaluate":{"count":0,"latency":{"bounds_us":[100,"#,
    r#"250,500,1000,2500,5000,10000,25000,50000,100000,250000,1000000,2500000,10000000],"#,
    r#""count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"gen":{"count":0,"#,
    r#""latency":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,50000,100000,250000,"#,
    r#"1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
    r#""sum_us":0}},"health":{"count":1,"latency":{"bounds_us":[100,250,500,1000,2500,5000,"#,
    r#"10000,25000,50000,100000,250000,1000000,2500000,10000000],"count":1,"counts":[0,1,0,0,"#,
    r#"0,0,0,0,0,0,0,0,0,0,0],"sum_us":120}},"info":{"count":0,"latency":{"bounds_us":[100,"#,
    r#"250,500,1000,2500,5000,10000,25000,50000,100000,250000,1000000,2500000,10000000],"#,
    r#""count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"invalid":{"count":1,"#,
    r#""latency":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,50000,100000,250000,"#,
    r#"1000000,2500000,10000000],"count":1,"counts":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
    r#""sum_us":5}},"list":{"count":0,"latency":{"bounds_us":[100,250,500,1000,2500,5000,"#,
    r#"10000,25000,50000,100000,250000,1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,"#,
    r#"0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"metrics":{"count":0,"latency":{"bounds_us":[100,"#,
    r#"250,500,1000,2500,5000,10000,25000,50000,100000,250000,1000000,2500000,10000000],"#,
    r#""count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"stats":{"count":0,"#,
    r#""latency":{"bounds_us":[100,250,500,1000,2500,5000,10000,25000,50000,100000,250000,"#,
    r#"1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"#,
    r#""sum_us":0}},"status":{"count":0,"latency":{"bounds_us":[100,250,500,1000,2500,5000,"#,
    r#"10000,25000,50000,100000,250000,1000000,2500000,10000000],"count":0,"counts":[0,0,0,0,"#,
    r#"0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}},"upload":{"count":0,"latency":{"bounds_us":[100,"#,
    r#"250,500,1000,2500,5000,10000,25000,50000,100000,250000,1000000,2500000,10000000],"#,
    r#""count":0,"counts":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"sum_us":0}}},"#,
    r#""store":{"bytes":1010,"evictions":12,"handles":11,"parses":17,"ttl_sweeps":13},"#,
    r#""tenants":{"rejections":{"acme":1},"requests":{"acme":2,"default":1}},"uptime_secs":0}"#,
];

/// `to_prometheus()` of [`populated_snapshot`], lines sorted.
const GOLDEN_PROMETHEUS: &str = r#"trajdp_bytes_in_total 101
trajdp_bytes_out_total 202
trajdp_connections_active 3
trajdp_connections_shed_total 5
trajdp_connections_total 404
trajdp_dataset_parses_total 17
trajdp_deadline_closes_total 6
trajdp_eps_spent{dataset="ds-1"} 1.25
trajdp_eps_spent{dataset="ds-2"} 0.30000000000000004
trajdp_errors_total{code="bad-request"} 1
trajdp_errors_total{code="budget-exhausted"} 0
trajdp_errors_total{code="dataset-in-use"} 0
trajdp_errors_total{code="dataset-not-found"} 0
trajdp_errors_total{code="dataset-state"} 0
trajdp_errors_total{code="internal"} 0
trajdp_errors_total{code="invalid-dataset"} 0
trajdp_errors_total{code="io-error"} 0
trajdp_errors_total{code="job-not-found"} 2
trajdp_errors_total{code="overloaded"} 0
trajdp_errors_total{code="payload-too-large"} 0
trajdp_errors_total{code="quota-exceeded"} 0
trajdp_errors_total{code="shutting-down"} 0
trajdp_errors_total{code="store-full"} 0
trajdp_errors_total{code="tenant-unknown"} 0
trajdp_errors_total{code="unknown-verb"} 0
trajdp_job_queue_depth 9
trajdp_job_queue_wait_seconds_bucket{le="+Inf"} 2
trajdp_job_queue_wait_seconds_bucket{le="0.0001"} 0
trajdp_job_queue_wait_seconds_bucket{le="0.00025"} 0
trajdp_job_queue_wait_seconds_bucket{le="0.0005"} 0
trajdp_job_queue_wait_seconds_bucket{le="0.001"} 1
trajdp_job_queue_wait_seconds_bucket{le="0.0025"} 1
trajdp_job_queue_wait_seconds_bucket{le="0.005"} 1
trajdp_job_queue_wait_seconds_bucket{le="0.01"} 1
trajdp_job_queue_wait_seconds_bucket{le="0.025"} 1
trajdp_job_queue_wait_seconds_bucket{le="0.05"} 1
trajdp_job_queue_wait_seconds_bucket{le="0.1"} 1
trajdp_job_queue_wait_seconds_bucket{le="0.25"} 1
trajdp_job_queue_wait_seconds_bucket{le="1"} 1
trajdp_job_queue_wait_seconds_bucket{le="10"} 1
trajdp_job_queue_wait_seconds_bucket{le="2.5"} 1
trajdp_job_queue_wait_seconds_count{} 2
trajdp_job_queue_wait_seconds_sum{} 20.0009
trajdp_job_run_seconds_bucket{le="+Inf"} 2
trajdp_job_run_seconds_bucket{le="0.0001"} 0
trajdp_job_run_seconds_bucket{le="0.00025"} 0
trajdp_job_run_seconds_bucket{le="0.0005"} 0
trajdp_job_run_seconds_bucket{le="0.001"} 0
trajdp_job_run_seconds_bucket{le="0.0025"} 0
trajdp_job_run_seconds_bucket{le="0.005"} 0
trajdp_job_run_seconds_bucket{le="0.01"} 0
trajdp_job_run_seconds_bucket{le="0.025"} 1
trajdp_job_run_seconds_bucket{le="0.05"} 1
trajdp_job_run_seconds_bucket{le="0.1"} 1
trajdp_job_run_seconds_bucket{le="0.25"} 1
trajdp_job_run_seconds_bucket{le="1"} 2
trajdp_job_run_seconds_bucket{le="10"} 2
trajdp_job_run_seconds_bucket{le="2.5"} 2
trajdp_job_run_seconds_count{} 2
trajdp_job_run_seconds_sum{} 0.312
trajdp_jobs_completed_total 8
trajdp_jobs_shed_total 16
trajdp_jobs_submitted_total 7
trajdp_journal_appends_total 14
trajdp_journal_compactions_total 15
trajdp_journal_fsync_seconds_bucket{le="+Inf"} 2
trajdp_journal_fsync_seconds_bucket{le="0.0001"} 0
trajdp_journal_fsync_seconds_bucket{le="0.00025"} 0
trajdp_journal_fsync_seconds_bucket{le="0.0005"} 1
trajdp_journal_fsync_seconds_bucket{le="0.001"} 1
trajdp_journal_fsync_seconds_bucket{le="0.0025"} 1
trajdp_journal_fsync_seconds_bucket{le="0.005"} 1
trajdp_journal_fsync_seconds_bucket{le="0.01"} 1
trajdp_journal_fsync_seconds_bucket{le="0.025"} 1
trajdp_journal_fsync_seconds_bucket{le="0.05"} 1
trajdp_journal_fsync_seconds_bucket{le="0.1"} 1
trajdp_journal_fsync_seconds_bucket{le="0.25"} 1
trajdp_journal_fsync_seconds_bucket{le="1"} 1
trajdp_journal_fsync_seconds_bucket{le="10"} 2
trajdp_journal_fsync_seconds_bucket{le="2.5"} 2
trajdp_journal_fsync_seconds_count{} 2
trajdp_journal_fsync_seconds_sum{} 2.0004
trajdp_reactor_iteration_seconds_bucket{le="+Inf"} 2
trajdp_reactor_iteration_seconds_bucket{le="0.0001"} 1
trajdp_reactor_iteration_seconds_bucket{le="0.00025"} 1
trajdp_reactor_iteration_seconds_bucket{le="0.0005"} 1
trajdp_reactor_iteration_seconds_bucket{le="0.001"} 1
trajdp_reactor_iteration_seconds_bucket{le="0.0025"} 1
trajdp_reactor_iteration_seconds_bucket{le="0.005"} 2
trajdp_reactor_iteration_seconds_bucket{le="0.01"} 2
trajdp_reactor_iteration_seconds_bucket{le="0.025"} 2
trajdp_reactor_iteration_seconds_bucket{le="0.05"} 2
trajdp_reactor_iteration_seconds_bucket{le="0.1"} 2
trajdp_reactor_iteration_seconds_bucket{le="0.25"} 2
trajdp_reactor_iteration_seconds_bucket{le="1"} 2
trajdp_reactor_iteration_seconds_bucket{le="10"} 2
trajdp_reactor_iteration_seconds_bucket{le="2.5"} 2
trajdp_reactor_iteration_seconds_count{} 2
trajdp_reactor_iteration_seconds_sum{} 0.00303
trajdp_request_latency_seconds_bucket{verb="anonymize",le="+Inf"} 1
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.1"} 1
trajdp_request_latency_seconds_bucket{verb="anonymize",le="0.25"} 1
trajdp_request_latency_seconds_bucket{verb="anonymize",le="1"} 1
trajdp_request_latency_seconds_bucket{verb="anonymize",le="10"} 1
trajdp_request_latency_seconds_bucket{verb="anonymize",le="2.5"} 1
trajdp_request_latency_seconds_bucket{verb="cancel",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="cancel",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="chunk",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="commit",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="delete",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="download",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="evaluate",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="gen",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="health",le="+Inf"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="health",le="0.00025"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.0005"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.001"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.0025"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.005"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.01"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.025"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.05"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.1"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="0.25"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="1"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="10"} 1
trajdp_request_latency_seconds_bucket{verb="health",le="2.5"} 1
trajdp_request_latency_seconds_bucket{verb="info",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="info",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="invalid",le="+Inf"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.0001"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.00025"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.0005"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.001"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.0025"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.005"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.01"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.025"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.05"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.1"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="0.25"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="1"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="10"} 1
trajdp_request_latency_seconds_bucket{verb="invalid",le="2.5"} 1
trajdp_request_latency_seconds_bucket{verb="list",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="list",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="metrics",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="stats",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="status",le="2.5"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="+Inf"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.0001"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.00025"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.0005"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.001"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.0025"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.005"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.01"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.025"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.05"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.1"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="0.25"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="1"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="10"} 0
trajdp_request_latency_seconds_bucket{verb="upload",le="2.5"} 0
trajdp_request_latency_seconds_count{verb="anonymize"} 1
trajdp_request_latency_seconds_count{verb="cancel"} 0
trajdp_request_latency_seconds_count{verb="chunk"} 0
trajdp_request_latency_seconds_count{verb="commit"} 0
trajdp_request_latency_seconds_count{verb="delete"} 0
trajdp_request_latency_seconds_count{verb="download"} 0
trajdp_request_latency_seconds_count{verb="evaluate"} 0
trajdp_request_latency_seconds_count{verb="gen"} 0
trajdp_request_latency_seconds_count{verb="health"} 1
trajdp_request_latency_seconds_count{verb="info"} 0
trajdp_request_latency_seconds_count{verb="invalid"} 1
trajdp_request_latency_seconds_count{verb="list"} 0
trajdp_request_latency_seconds_count{verb="metrics"} 0
trajdp_request_latency_seconds_count{verb="stats"} 0
trajdp_request_latency_seconds_count{verb="status"} 0
trajdp_request_latency_seconds_count{verb="upload"} 0
trajdp_request_latency_seconds_sum{verb="anonymize"} 0.08
trajdp_request_latency_seconds_sum{verb="cancel"} 0
trajdp_request_latency_seconds_sum{verb="chunk"} 0
trajdp_request_latency_seconds_sum{verb="commit"} 0
trajdp_request_latency_seconds_sum{verb="delete"} 0
trajdp_request_latency_seconds_sum{verb="download"} 0
trajdp_request_latency_seconds_sum{verb="evaluate"} 0
trajdp_request_latency_seconds_sum{verb="gen"} 0
trajdp_request_latency_seconds_sum{verb="health"} 0.00012
trajdp_request_latency_seconds_sum{verb="info"} 0
trajdp_request_latency_seconds_sum{verb="invalid"} 0.000005
trajdp_request_latency_seconds_sum{verb="list"} 0
trajdp_request_latency_seconds_sum{verb="metrics"} 0
trajdp_request_latency_seconds_sum{verb="stats"} 0
trajdp_request_latency_seconds_sum{verb="status"} 0
trajdp_request_latency_seconds_sum{verb="upload"} 0
trajdp_requests_total{verb="anonymize"} 1
trajdp_requests_total{verb="cancel"} 0
trajdp_requests_total{verb="chunk"} 0
trajdp_requests_total{verb="commit"} 0
trajdp_requests_total{verb="delete"} 0
trajdp_requests_total{verb="download"} 0
trajdp_requests_total{verb="evaluate"} 0
trajdp_requests_total{verb="gen"} 0
trajdp_requests_total{verb="health"} 1
trajdp_requests_total{verb="info"} 0
trajdp_requests_total{verb="invalid"} 1
trajdp_requests_total{verb="list"} 0
trajdp_requests_total{verb="metrics"} 0
trajdp_requests_total{verb="stats"} 0
trajdp_requests_total{verb="status"} 0
trajdp_requests_total{verb="upload"} 0
trajdp_store_bytes 1010
trajdp_store_evictions_total 12
trajdp_store_handles 11
trajdp_store_ttl_sweeps_total 13
trajdp_tenant_rejections_total{tenant="acme"} 1
trajdp_tenant_requests_total{tenant="acme"} 2
trajdp_tenant_requests_total{tenant="default"} 1
trajdp_uptime_seconds 0"#;
