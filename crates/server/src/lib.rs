//! # trajdp-server
//!
//! The serving subsystem: a JSON-lines TCP service exposing the
//! anonymization pipeline (`trajdp_core::anonymize`) as a long-lived
//! process.
//!
//! | module | contents |
//! |---|---|
//! | [`api`] | stable error codes ([`api::ErrorCode`]/[`api::ApiError`]), the typed [`api::Response`] model, and the versioned wire envelope with centralized serialization |
//! | [`json`] | serde-free JSON value, parser, single-line writer |
//! | [`protocol`] | request parsing + the handlers behind each verb |
//! | [`store`] | chunked-transfer dataset handles (`ds-<id>`), optionally persisted, with delete/LRU/TTL lifecycle and job pinning |
//! | [`jobs`] | job queue with ids, per-job status, and a durable, compacting JSON-lines journal |
//! | `journal` (private) | the journal's on-disk format: one typed `Event` per line with its JSON codec, the fsyncing append/compaction writer, and torn-tail repair |
//! | [`ledger`] | tenancy + privacy budget: the tenant registry (`--tenants`), per-tenant quotas, and the per-dataset ε accumulator |
//! | [`reactor`] | non-blocking connection plane: a `poll(2)` readiness loop whose interest set is rebuilt from connection state each turn, per-connection state machines, read deadlines, load shedding, drain-window shutdown |
//! | [`service`] | server configuration, request dispatch, lifecycle around the reactor |
//! | [`client`] | blocking JSON-lines client for tests and `trajdp submit` |
//! | [`obs`] | observability: atomics-only metrics registry (the `metrics` verb), leveled JSON-lines logging, per-job phase timings |
//!
//! ## Determinism
//!
//! An `anonymize` request runs `trajdp_core::anonymize` with the
//! request's `workers` as `FreqDpConfig::workers`. The release is
//! byte-identical at every worker count because the core pipeline
//! derives an independent RNG stream per smallest work unit (per
//! candidate point globally, per trajectory locally) from the root seed
//! — see `trajdp_core::stream`. Sharding changes only which thread
//! evaluates a unit, never what the unit draws.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod api;
pub mod client;
pub mod jobs;
mod journal;
pub mod json;
pub mod ledger;
pub mod obs;
pub mod protocol;
pub mod reactor;
pub mod service;
pub mod store;

pub use api::{ApiError, Envelope, ErrorCode, ProtocolVersion, Response};
pub use client::Client;
pub use json::Json;
pub use ledger::{EpsLedger, TenantLimits, TenantRegistry, DEFAULT_TENANT};
pub use obs::{init_logger, LogLevel, Metrics, MetricsSnapshot, PhaseTimings};
pub use service::{Server, ServerConfig};
pub use store::{DatasetStore, StoreConfig};

/// Asserts that `run` takes time linear in its input: on `input(8 * n)`
/// it may cost at most 24× its time on `input(n)`, where a quadratic
/// costs about 64×. Inputs are built untimed, once per size; the
/// minimum of five runs damps scheduler noise.
#[cfg(test)]
pub(crate) fn assert_linear<I>(n: usize, input: impl Fn(usize) -> I, run: impl Fn(&I)) {
    let best_of_5 = |n| {
        let input = input(n);
        (0..5)
            .map(|_| {
                let started = std::time::Instant::now();
                run(&input);
                started.elapsed()
            })
            .min()
            .unwrap_or_default()
    };
    let (small, large) = (best_of_5(n), best_of_5(8 * n));
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(ratio < 24.0, "t(8n)/t(n) = {ratio:.1} ({small:?} → {large:?})");
}
