//! The JSON-lines request/response protocol.
//!
//! One request object per line, one response object per line. Every
//! request carries a `"cmd"` member; datasets travel either inline as
//! CSV text (the `trajdp_model::csv` interchange format) inside JSON
//! strings, or by reference to a server-side handle (`ds-<id>`) built
//! up with the chunked-transfer commands.
//!
//! | cmd         | members                                                           |
//! |-------------|-------------------------------------------------------------------|
//! | `health`    | —                                                                 |
//! | `info`      | — (server version, protocol versions, limits, uptime)             |
//! | `metrics`   | — (observability snapshot: counters, gauges, histograms)          |
//! | `gen`       | `size?`, `len?`, `seed?`, `store?`                                |
//! | `anonymize` | `model`, `csv` \| `dataset`, `epsilon?`, `eps_split?`, `m?`, `seed?`, `workers?`, `async?`, `store?` |
//! | `evaluate`  | `original` \| `original_dataset`, `anonymized` \| `anonymized_dataset` |
//! | `stats`     | `csv` \| `dataset`                                                |
//! | `status`    | `job`                                                             |
//! | `upload`    | — (answers with a fresh pending `dataset` handle)                 |
//! | `chunk`     | `dataset`, `data` (appends one piece)                             |
//! | `commit`    | `dataset` (seals the handle for use)                              |
//! | `download`  | `dataset`, `offset?`, `max_bytes?` (one bounded piece back)       |
//! | `delete`    | `dataset` (frees the handle; rejected while a job pins it)        |
//! | `list`      | — (all jobs and dataset handles)                                  |
//!
//! Besides its verb members, every request may carry the envelope
//! members `"v"` (protocol version, `1` or `2`; absent means 1) and —
//! with `"v": 2` — an opaque `"id"` echoed in the response for
//! correlation. Unknown members are rejected by name — a misspelled
//! `"epsilom"` must fail loudly, never run with the default (the same
//! contract the CLI enforces on flags).
//!
//! Responses always carry `"ok"` (`true`/`false`); failures add
//! `"error"` — a bare message string in v1, a
//! `{"code","message"}` object with a stable [`crate::api::ErrorCode`]
//! in v2 (see [`crate::api`] for the envelope contract). An `anonymize`
//! request with `"async": true` enqueues a job and answers
//! `{"ok":true,"job":"<id>","state":"queued"}` immediately; `status`
//! polls it and returns the finished result once done. `"store": true`
//! on `gen`/`anonymize` keeps the produced CSV server-side and answers
//! with its `dataset` handle (for `download`) instead of the inline
//! text.

use crate::api::{ApiError, Envelope, Payload, ProtocolVersion, Response};
use crate::json::Json;
use crate::store::{DatasetStore, StoredData, DEFAULT_DOWNLOAD_CHUNK_BYTES};
use std::sync::Arc;
use trajdp_core::{total_budget, FreqDpConfig, Model};
use trajdp_model::csv::{from_csv, to_csv};
use trajdp_model::stats::DatasetStats;
use trajdp_model::Dataset;
use trajdp_synth::{generate, GeneratorConfig};

/// Dataset input of a request: inline CSV text or a committed
/// server-side handle from the chunked-upload commands.
#[derive(Debug, Clone, PartialEq)]
pub enum DataRef {
    /// CSV text shipped inside the request line — shared, so the spec
    /// resolved from it aliases the request's text instead of copying.
    Inline(Arc<String>),
    /// A `ds-<id>` handle minted by `upload` and sealed by `commit`.
    Handle(String),
}

impl DataRef {
    /// The dataset, fetching handles from the store in whichever form
    /// they are held, without deep-copying them (committed handles are
    /// immutable, so sharing the `Arc` is safe — a multi-GB handle must
    /// not double peak memory on resolution). Resolution happens once,
    /// at dispatch time, so a job owns its data: restarting the store
    /// after submit cannot change what a queued job computes.
    pub fn resolve_shared(&self, store: &DatasetStore) -> Result<StoredData, ApiError> {
        match self {
            DataRef::Inline(csv) => Ok(StoredData::Text(Arc::clone(csv))),
            DataRef::Handle(id) => store.resolve(id),
        }
    }

    /// The parsed form of `data`, resolved from this reference. A
    /// handle's text is parsed through the store, which keeps the parse
    /// in place of a canonical text ([`DatasetStore::parse`]); inline
    /// text is parsed on every use. A parse error names `what`.
    pub fn parse(
        &self,
        data: &StoredData,
        store: &DatasetStore,
        what: &str,
    ) -> Result<Arc<Dataset>, ApiError> {
        let parsed = match self {
            DataRef::Handle(id) => store.parse(id, data),
            DataRef::Inline(csv) => from_csv(csv).map(Arc::new),
        };
        parsed.map_err(|e| ApiError::invalid_dataset(format!("cannot parse {what}: {e}")))
    }
}

/// An anonymize request: the one declaration of its members. The wire,
/// the job journal and the CLI all start from [`AnonymizeParams::new`]'s
/// defaults and pass [`AnonymizeParams::check`];
/// [`AnonymizeParams::resolve`] turns the request into an executable
/// [`AnonymizeSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymizeParams {
    /// Which published model to run.
    pub model: Model,
    /// Total privacy budget ε — the end-to-end guarantee of the run,
    /// whatever the model.
    pub epsilon: f64,
    /// Fraction of ε given to the global mechanism in combined models;
    /// pure models spend the whole ε on their single mechanism (see
    /// [`budget_split`]). Must lie strictly inside (0, 1).
    pub eps_split: f64,
    /// Signature size `m`.
    pub m: usize,
    /// Root RNG seed.
    pub seed: u64,
    /// Pipeline worker threads (`FreqDpConfig::workers`).
    pub workers: usize,
    /// Keep the released CSV server-side (answer with a `dataset`
    /// handle for chunked download) instead of inlining it.
    pub store_result: bool,
    /// The private dataset, inline or by handle.
    pub data: DataRef,
}

/// An anonymize request with its dataset resolved, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymizeSpec {
    /// The request as made; the job journal records these.
    pub params: AnonymizeParams,
    /// The private dataset, as text or parsed — shared, not owned, so a
    /// handle-based spec aliases the store's copy instead of
    /// duplicating it. Text is parsed only when the run starts, so a
    /// bad inline CSV fails the job, not its submit.
    pub data: StoredData,
}

impl AnonymizeParams {
    /// `model` on `data` with every optional member at its default: ε
    /// 1.0 split evenly, m 10, seed 42, one worker, the result inline.
    pub fn new(model: Model, data: DataRef) -> AnonymizeParams {
        AnonymizeParams {
            model,
            epsilon: 1.0,
            eps_split: 0.5,
            m: 10,
            seed: 42,
            workers: 1,
            store_result: false,
            data,
        }
    }

    /// Decodes the members of a request (or journaled spec) object,
    /// absent ones taking [`Self::new`]'s defaults, and checks them.
    fn from_json(v: &Json) -> Result<AnonymizeParams, ApiError> {
        let model = parse_model(get_str(v, "model")?)?;
        let d = AnonymizeParams::new(model, get_data_ref(v, "csv", "dataset")?);
        AnonymizeParams {
            epsilon: get_f64(v, "epsilon", d.epsilon)?,
            eps_split: get_f64(v, "eps_split", d.eps_split)?,
            m: get_u64(v, "m", d.m as u64)? as usize,
            seed: get_u64(v, "seed", d.seed)?,
            workers: get_u64(v, "workers", d.workers as u64)? as usize,
            store_result: get_bool(v, "store", d.store_result)?,
            ..d
        }
        .check()
    }

    /// The checks every request passes, however it arrived: a budget
    /// the model can spend ([`validate_budget`]), `m` in `[1, MAX_M]`
    /// and workers in `[1, MAX_WORKERS]`. The seed takes any `u64`.
    pub fn check(self) -> Result<AnonymizeParams, ApiError> {
        validate_budget(self.model, self.epsilon, self.eps_split)?;
        if self.m == 0 || self.m as u64 > MAX_M {
            return Err(ApiError::bad_request(format!("m must lie in [1, {MAX_M}]")));
        }
        validate_workers(self.workers as u64)?;
        Ok(self)
    }

    /// Resolves the dataset reference against the store. A handle-based
    /// run is byte-identical to the inline run because both paths feed
    /// the pipeline the dataset parsed from the same CSV text.
    pub fn resolve(self, store: &DatasetStore) -> Result<AnonymizeSpec, ApiError> {
        let data = self.data.resolve_shared(store)?;
        Ok(AnonymizeSpec { params: self, data })
    }

    /// The derived core pipeline configuration.
    pub fn config(&self) -> FreqDpConfig {
        let (eps_global, eps_local) = budget_split(self.model, self.epsilon, self.eps_split);
        FreqDpConfig {
            m: self.m,
            eps_global,
            eps_local,
            seed: self.seed,
            workers: self.workers,
            ..Default::default()
        }
    }
}

impl AnonymizeSpec {
    /// The store handle the dataset was resolved from, when it came by
    /// reference. The job journal records this id instead of the
    /// resolved text (the handle's bytes are already durable in the
    /// store), and the queue pins it while the job is queued/running so
    /// neither `delete` nor eviction can yank the data a replay needs.
    pub fn source(&self) -> Option<&str> {
        match &self.params.data {
            DataRef::Handle(id) => Some(id),
            DataRef::Inline(_) => None,
        }
    }
}

/// A `gen` request: the one declaration of its members, defaults and
/// checks, shared by the wire and the CLI's `trajdp gen`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Number of trajectories.
    pub size: usize,
    /// Points per trajectory.
    pub len: usize,
    /// Generator seed.
    pub seed: u64,
    /// Keep the generated dataset server-side as a dataset handle.
    pub store_result: bool,
}

impl GenParams {
    /// Every member at its default: 200 trajectories of 150 points,
    /// seed 42, the result inline.
    pub fn new() -> GenParams {
        GenParams { size: 200, len: 150, seed: 42, store_result: false }
    }

    /// The shape check every `gen` passes ([`validate_gen`]).
    pub fn check(self) -> Result<GenParams, ApiError> {
        validate_gen(self.size as u64, self.len as u64)?;
        Ok(self)
    }
}

impl Default for GenParams {
    fn default() -> Self {
        Self::new()
    }
}

/// Divides a **total** budget ε between the two mechanisms for a model.
///
/// Pure models give their single mechanism the whole ε — `epsilon` is
/// the end-to-end guarantee the caller asked for, not a pool to halve
/// when only one mechanism runs. Combined models split it by
/// `eps_split` (global share). The unused side of a pure model keeps
/// its nominal share; the pipeline never spends it.
pub fn budget_split(model: Model, epsilon: f64, eps_split: f64) -> (f64, f64) {
    match model {
        Model::PureGlobal => (epsilon, epsilon * (1.0 - eps_split)),
        Model::PureLocal => (epsilon * eps_split, epsilon),
        Model::Combined | Model::CombinedLocalFirst => {
            (epsilon * eps_split, epsilon * (1.0 - eps_split))
        }
    }
}

/// Caps on synthetic-generation and pipeline parameters: one request
/// must not be able to allocate unbounded memory or spawn unbounded
/// threads in a shared server process.
pub const MAX_GEN_POINTS: u64 = 20_000_000;
/// Upper bound on the signature size `m`.
pub const MAX_M: u64 = 100_000;
/// Upper bound on pipeline worker threads per request.
pub const MAX_WORKERS: u64 = 1_024;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Health,
    /// Server identity, supported protocol versions, and limits.
    Info,
    /// Snapshot of the observability registry (counters, gauges,
    /// latency histograms).
    Metrics,
    /// Generate a synthetic dataset.
    Gen(GenParams),
    /// Anonymize a dataset; `asynchronous` requests become queued jobs.
    Anonymize {
        /// The validated parameters (dataset possibly still a handle).
        params: AnonymizeParams,
        /// Whether to enqueue as a job instead of answering inline.
        asynchronous: bool,
    },
    /// Compare an anonymized dataset against its original.
    Evaluate {
        /// Original dataset.
        original: DataRef,
        /// Anonymized dataset.
        anonymized: DataRef,
    },
    /// Shape statistics of a dataset.
    Stats {
        /// The dataset.
        data: DataRef,
    },
    /// Poll a queued job.
    Status {
        /// The job id returned by an async `anonymize`.
        job: String,
    },
    /// Dequeue a not-yet-running job. Running jobs are not preempted.
    Cancel {
        /// The job id returned by an async `anonymize`.
        job: String,
    },
    /// Open a pending dataset handle for chunked upload.
    Upload {
        /// Privacy budget for the dataset being uploaded; overrides
        /// the server's `--eps-budget` default for this handle.
        eps_budget: Option<f64>,
    },
    /// Append one piece to a pending dataset handle.
    Chunk {
        /// The pending handle.
        dataset: String,
        /// The piece to append.
        data: String,
    },
    /// Seal a pending dataset handle.
    Commit {
        /// The pending handle.
        dataset: String,
    },
    /// Read one bounded piece of a committed dataset.
    Download {
        /// The committed handle.
        dataset: String,
        /// Byte offset to read from (a boundary handed out by a
        /// previous piece).
        offset: usize,
        /// Upper bound on the piece size.
        max_bytes: usize,
    },
    /// Free a dataset handle (pending or committed). Rejected with a
    /// distinct error while a queued/running job pins the handle.
    Delete {
        /// The handle to free.
        dataset: String,
    },
    /// Enumerate all jobs and dataset handles.
    List,
}

/// Parses a model name as accepted by the CLI.
pub fn parse_model(name: &str) -> Result<Model, ApiError> {
    match name {
        "pureg" => Ok(Model::PureGlobal),
        "purel" => Ok(Model::PureLocal),
        "gl" => Ok(Model::Combined),
        "lg" => Ok(Model::CombinedLocalFirst),
        other => Err(ApiError::bad_request(format!("unknown model {other:?} (pureg|purel|gl|lg)"))),
    }
}

/// Validates an ε-split fraction: must lie strictly inside (0, 1).
pub fn validate_eps_split(split: f64) -> Result<f64, ApiError> {
    if split.is_finite() && split > 0.0 && split < 1.0 {
        Ok(split)
    } else {
        Err(ApiError::bad_request(format!("--eps-split must lie in (0, 1), got {split}")))
    }
}

/// Validates a total budget ε and its split for a model: ε must be
/// positive and finite, the split must pass [`validate_eps_split`], and
/// every mechanism the model runs must get a share the pipeline accepts
/// (see [`total_budget`]) — a tiny ε times the split can underflow to
/// zero, or leave a noise scale `1/ε` that overflows. Requests are
/// checked at parse time, so a bad budget is refused before any ε-ledger
/// charge.
pub fn validate_budget(model: Model, epsilon: f64, eps_split: f64) -> Result<(), ApiError> {
    if epsilon <= 0.0 || !epsilon.is_finite() {
        return Err(ApiError::bad_request("epsilon must be positive"));
    }
    validate_eps_split(eps_split)?;
    let (eps_global, eps_local) = budget_split(model, epsilon, eps_split);
    total_budget(model, eps_global, eps_local).map_err(|e| {
        ApiError::bad_request(format!("epsilon {epsilon:?} with eps_split {eps_split}: {e}"))
    })?;
    Ok(())
}

/// Validates a synthetic-generation shape: at least one trajectory of
/// at least two samples (the generator's contract), and at most
/// [`MAX_GEN_POINTS`] points in all.
pub fn validate_gen(size: u64, len: u64) -> Result<(), ApiError> {
    if size == 0 || len == 0 {
        return Err(ApiError::bad_request("size and len must be at least 1"));
    }
    if len < 2 {
        return Err(ApiError::bad_request("len must be at least 2"));
    }
    if size.saturating_mul(len) > MAX_GEN_POINTS {
        return Err(ApiError::bad_request(format!(
            "size * len must not exceed {MAX_GEN_POINTS} points"
        )));
    }
    Ok(())
}

/// Validates a worker-thread count at the CLI/protocol boundary: must
/// lie in `[1, MAX_WORKERS]`. A zero count used to be clamped silently
/// deep inside the chunking helper; rejecting it here keeps the
/// contract visible, mirroring [`validate_eps_split`].
pub fn validate_workers(workers: u64) -> Result<usize, ApiError> {
    if workers == 0 {
        Err(ApiError::bad_request("workers must be at least 1"))
    } else if workers > MAX_WORKERS {
        Err(ApiError::bad_request(format!("workers must not exceed {MAX_WORKERS}")))
    } else {
        Ok(workers as usize)
    }
}

fn get_u64(v: &Json, key: &str, default: u64) -> Result<u64, ApiError> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j.as_u64().ok_or_else(|| {
            ApiError::bad_request(format!("{key} must be a non-negative integer below 2^53"))
        }),
    }
}

fn get_f64(v: &Json, key: &str, default: f64) -> Result<f64, ApiError> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => {
            j.as_f64().ok_or_else(|| ApiError::bad_request(format!("{key} must be a number")))
        }
    }
}

fn get_bool(v: &Json, key: &str, default: bool) -> Result<bool, ApiError> {
    // A non-bool value (`"async": 1`, `"async": "true"`) must be an
    // error: falling back to the default would silently run a
    // potentially huge job with the wrong mode.
    match v.get(key) {
        None => Ok(default),
        Some(j) => j.as_bool().ok_or_else(|| {
            ApiError::bad_request(format!("{key} must be a boolean (true or false)"))
        }),
    }
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, ApiError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("missing string member {key:?}")))
}

/// Rejects members outside the command's accepted set by name — a
/// misspelled `"epsilom"` or `"worker"` must never be silently ignored
/// and run with the default (the bug class the CLI's strict flag parser
/// already kills for flags). The envelope members `"v"`, `"id"`, and
/// `"tenant"` are accepted on every command, like `"cmd"` itself.
fn check_members(v: &Json, cmd: &str, accepted: &[&str]) -> Result<(), ApiError> {
    if let Json::Obj(map) = v {
        for key in map.keys() {
            if key != "cmd"
                && key != "v"
                && key != "id"
                && key != "tenant"
                && !accepted.contains(&key.as_str())
            {
                let list = if accepted.is_empty() {
                    "none besides \"cmd\"".to_string()
                } else {
                    accepted.iter().map(|m| format!("{m:?}")).collect::<Vec<_>>().join(", ")
                };
                return Err(ApiError::bad_request(format!(
                    "unknown member {key:?} for cmd {cmd:?} (accepted: {list})"
                )));
            }
        }
    }
    Ok(())
}

/// Reads a dataset given either inline (`inline_key`) or by handle
/// (`handle_key`); exactly one of the two must be present.
fn get_data_ref(v: &Json, inline_key: &str, handle_key: &str) -> Result<DataRef, ApiError> {
    let want_str = |j: &Json, key: &str| {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| ApiError::bad_request(format!("{key} must be a string")))
    };
    match (v.get(inline_key), v.get(handle_key)) {
        (Some(_), Some(_)) => Err(ApiError::bad_request(format!(
            "members {inline_key:?} and {handle_key:?} are mutually exclusive"
        ))),
        (Some(j), None) => Ok(DataRef::Inline(Arc::new(want_str(j, inline_key)?))),
        (None, Some(j)) => Ok(DataRef::Handle(want_str(j, handle_key)?)),
        (None, None) => {
            Err(ApiError::bad_request(format!("missing member {inline_key:?} or {handle_key:?}")))
        }
    }
}

/// Parses one request line into its envelope (protocol version +
/// correlation id) and verb. The envelope is always returned — even
/// when the verb fails to validate, the error must be rendered in the
/// shape the client asked for. Only a line that does not parse as JSON
/// at all (or one with an unusable `"v"`) falls back to the v1 shape.
pub fn parse_request_line(line: &str) -> (Envelope, Result<Request, ApiError>) {
    let v = match crate::json::parse(line) {
        Ok(v) => v,
        Err(e) => return (Envelope::V1, Err(ApiError::bad_request(e.to_string()))),
    };
    let version = match v.get("v") {
        None => ProtocolVersion::V1,
        Some(j) => match j.as_u64() {
            Some(1) => ProtocolVersion::V1,
            Some(2) => ProtocolVersion::V2,
            _ => {
                return (
                    Envelope::V1,
                    Err(ApiError::bad_request("v must be a supported protocol version (1 or 2)")),
                )
            }
        },
    };
    let mut envelope = Envelope { version, id: None, tenant: None };
    match v.get("id") {
        None => {}
        Some(Json::Str(s)) if version == ProtocolVersion::V2 => envelope.id = Some(s.clone()),
        Some(Json::Str(_)) => {
            // An id on a version-less request would be silently dropped
            // (v1 response shapes are frozen and carry no id) — reject
            // instead, so the client learns its correlation id is not
            // coming back.
            return (envelope, Err(ApiError::bad_request("member \"id\" requires \"v\": 2")));
        }
        Some(_) => return (envelope, Err(ApiError::bad_request("id must be a string"))),
    }
    match v.get("tenant") {
        None => {}
        Some(Json::Str(s)) if version == ProtocolVersion::V2 => envelope.tenant = Some(s.clone()),
        Some(Json::Str(_)) => {
            // Same reasoning as `id`: a tenant credential on a v1
            // request would be silently ignored (and the request
            // accounted to the default tenant) — reject instead.
            return (envelope, Err(ApiError::bad_request("member \"tenant\" requires \"v\": 2")));
        }
        Some(_) => return (envelope, Err(ApiError::bad_request("tenant must be a string"))),
    }
    (envelope, parse_verb(&v))
}

/// Parses just the verb of one request line, ignoring the envelope —
/// the convenient form for tests and single-shot callers.
pub fn parse_request(line: &str) -> Result<Request, ApiError> {
    parse_request_line(line).1
}

fn parse_verb(v: &Json) -> Result<Request, ApiError> {
    let cmd = get_str(v, "cmd")?;
    match cmd {
        "health" => {
            check_members(v, cmd, &[])?;
            Ok(Request::Health)
        }
        "info" => {
            check_members(v, cmd, &[])?;
            Ok(Request::Info)
        }
        "metrics" => {
            check_members(v, cmd, &[])?;
            Ok(Request::Metrics)
        }
        "gen" => {
            check_members(v, cmd, &["size", "len", "seed", "store"])?;
            let d = GenParams::new();
            let params = GenParams {
                size: get_u64(v, "size", d.size as u64)? as usize,
                len: get_u64(v, "len", d.len as u64)? as usize,
                seed: get_u64(v, "seed", d.seed)?,
                store_result: get_bool(v, "store", d.store_result)?,
            };
            Ok(Request::Gen(params.check()?))
        }
        "anonymize" => {
            check_members(
                v,
                cmd,
                &[
                    "model",
                    "csv",
                    "dataset",
                    "epsilon",
                    "eps_split",
                    "m",
                    "seed",
                    "workers",
                    "async",
                    "store",
                ],
            )?;
            let params = AnonymizeParams::from_json(v)?;
            Ok(Request::Anonymize { params, asynchronous: get_bool(v, "async", false)? })
        }
        "evaluate" => {
            check_members(
                v,
                cmd,
                &["original", "anonymized", "original_dataset", "anonymized_dataset"],
            )?;
            Ok(Request::Evaluate {
                original: get_data_ref(v, "original", "original_dataset")?,
                anonymized: get_data_ref(v, "anonymized", "anonymized_dataset")?,
            })
        }
        "stats" => {
            check_members(v, cmd, &["csv", "dataset"])?;
            Ok(Request::Stats { data: get_data_ref(v, "csv", "dataset")? })
        }
        "status" => {
            check_members(v, cmd, &["job"])?;
            Ok(Request::Status { job: get_str(v, "job")?.to_string() })
        }
        "cancel" => {
            check_members(v, cmd, &["job"])?;
            Ok(Request::Cancel { job: get_str(v, "job")?.to_string() })
        }
        "upload" => {
            check_members(v, cmd, &["eps_budget"])?;
            let eps_budget = match v.get("eps_budget") {
                None => None,
                Some(j) => {
                    let b = j
                        .as_f64()
                        .ok_or_else(|| ApiError::bad_request("eps_budget must be a number"))?;
                    if !b.is_finite() || b <= 0.0 {
                        return Err(ApiError::bad_request("eps_budget must be positive"));
                    }
                    Some(b)
                }
            };
            Ok(Request::Upload { eps_budget })
        }
        "chunk" => {
            check_members(v, cmd, &["dataset", "data"])?;
            Ok(Request::Chunk {
                dataset: get_str(v, "dataset")?.to_string(),
                data: get_str(v, "data")?.to_string(),
            })
        }
        "commit" => {
            check_members(v, cmd, &["dataset"])?;
            Ok(Request::Commit { dataset: get_str(v, "dataset")?.to_string() })
        }
        "download" => {
            check_members(v, cmd, &["dataset", "offset", "max_bytes"])?;
            let max_bytes = get_u64(v, "max_bytes", DEFAULT_DOWNLOAD_CHUNK_BYTES as u64)?;
            if max_bytes == 0 {
                return Err(ApiError::bad_request("max_bytes must be at least 1"));
            }
            Ok(Request::Download {
                dataset: get_str(v, "dataset")?.to_string(),
                offset: get_u64(v, "offset", 0)? as usize,
                max_bytes: max_bytes as usize,
            })
        }
        "delete" => {
            check_members(v, cmd, &["dataset"])?;
            Ok(Request::Delete { dataset: get_str(v, "dataset")?.to_string() })
        }
        "list" => {
            check_members(v, cmd, &[])?;
            Ok(Request::List)
        }
        other => Err(ApiError::unknown_verb(format!("unknown cmd {other:?}"))),
    }
}

/// Protocol/CLI name of a model — inverse of [`parse_model`].
pub fn model_name(model: Model) -> &'static str {
    match model {
        Model::PureGlobal => "pureg",
        Model::PureLocal => "purel",
        Model::Combined => "gl",
        Model::CombinedLocalFirst => "lg",
    }
}

/// Serializes a spec for the job journal — inverse of
/// [`spec_from_json`]. A spec resolved from a store handle journals the
/// handle id (`"dataset"`), not the resolved CSV: the bytes are already
/// durable in the store and pinned for the job's lifetime, so
/// re-recording megabytes of text per submit would only bloat the
/// journal and slow every restart. Consumes the params so unshared
/// inline text moves into the `Json`; shared text is copied once.
pub fn spec_to_json(params: AnonymizeParams) -> Json {
    let data = match params.data {
        DataRef::Handle(handle) => ("dataset", Json::from(handle)),
        DataRef::Inline(csv) => ("csv", Json::from(Arc::unwrap_or_clone(csv))),
    };
    Json::obj([
        ("model", Json::from(model_name(params.model))),
        ("epsilon", Json::from(params.epsilon)),
        ("eps_split", Json::from(params.eps_split)),
        ("m", Json::from(params.m)),
        ("seed", Json::from(params.seed)),
        ("workers", Json::from(params.workers)),
        ("store", Json::from(params.store_result)),
        data,
    ])
}

/// Deserializes a journaled spec: every member [`spec_to_json`] writes
/// must be present, and the rest is the request decoder, so a replayed
/// job satisfies the same checks a live request does and a corrupted or
/// hand-edited journal fails loudly instead of executing out-of-contract
/// work. Returns unresolved [`AnonymizeParams`]: a handle-backed spec is
/// re-resolved against the store only when the job actually re-queues —
/// a job that also has a journaled finish never touches the store, so
/// deleting its input after it finished cannot brick replay.
pub fn spec_from_json(v: &Json) -> Result<AnonymizeParams, ApiError> {
    let has = |key: &str| v.get(key).is_some();
    let absent = ["model", "epsilon", "eps_split", "m", "seed", "workers", "store"]
        .into_iter()
        .find(|key| !has(key))
        .map(|key| format!("{key:?}"))
        .or_else(|| (!has("csv") && !has("dataset")).then(|| "\"csv\" or \"dataset\"".into()));
    if let Some(key) = absent {
        return Err(ApiError::bad_request(format!("journaled spec is missing member {key}")));
    }
    AnonymizeParams::from_json(v)
}

/// The response payload of a produced `gen`/`anonymize` result: its CSV
/// inline, or — given a `store` — the `dataset` handle and byte size of
/// the result kept there, held parsed (`from_job` marks an async job's
/// result, which its `finish` line names). A full store turns the
/// outcome into an error, with the underlying code preserved, rather
/// than silently dropping the computed result.
fn payload(ds: Dataset, store: Option<&DatasetStore>, from_job: bool) -> Result<Payload, ApiError> {
    match store {
        None => Ok(Payload::Inline(to_csv(&ds))),
        Some(store) => {
            let (dataset, bytes) =
                store.insert_dataset(ds, from_job).map_err(|e| e.context("cannot store result"))?;
            Ok(Payload::Stored { dataset, bytes })
        }
    }
}

/// Executes a `commit` request: seals a pending handle.
pub fn run_commit(store: &DatasetStore, dataset: &str) -> Result<Response, ApiError> {
    store.commit(dataset).map(|bytes| Response::Commit { dataset: dataset.to_string(), bytes })
}

/// Executes a `download` request: one bounded piece of a committed
/// dataset.
pub fn run_download(
    store: &DatasetStore,
    dataset: &str,
    offset: usize,
    max_bytes: usize,
) -> Result<Response, ApiError> {
    store.read_chunk(dataset, offset, max_bytes).map(|(piece, total, eof)| Response::Download {
        dataset: dataset.to_string(),
        offset,
        data: piece,
        total_bytes: total,
        eof,
    })
}

/// Executes a `gen` request (parameters were checked at parse time, so
/// only storing a `store_result` in `store` can fail).
pub fn run_gen(params: &GenParams, store: &DatasetStore) -> Result<Response, ApiError> {
    let world = generate(&GeneratorConfig::tdrive_profile(params.size, params.len, params.seed));
    let stats = DatasetStats::compute(&world.dataset);
    Ok(Response::Gen {
        data: payload(world.dataset, params.store_result.then_some(store), false)?,
        trajectories: stats.num_trajectories as u64,
        points: stats.total_points as u64,
        distinct_locations: stats.distinct_locations as u64,
    })
}

/// Executes an `anonymize` request through the pipeline, sharded over
/// the request's `workers`. A handle's text is parsed through `store`
/// (and kept parsed when canonical); with `store_result` the release
/// goes to `store` as well, `from_job` marking an async job's result.
pub fn run_anonymize(
    spec: &AnonymizeSpec,
    store: &DatasetStore,
    from_job: bool,
) -> Result<Response, ApiError> {
    let started = std::time::Instant::now();
    let ds = spec.params.data.parse(&spec.data, store, "csv")?;
    let cfg = spec.params.config();
    let result = trajdp_core::anonymize(&ds, spec.params.model, &cfg)
        .map_err(|e| ApiError::internal(e.to_string()))?;
    let stage = result.global.as_ref().map(|g| g.timings).unwrap_or_default();
    let timings = crate::obs::PhaseTimings {
        total_secs: started.elapsed().as_secs_f64(),
        global_secs: result.global_time.as_secs_f64(),
        local_secs: result.local_time.as_secs_f64(),
        build_secs: stage.build.as_secs_f64(),
        increase_secs: stage.increase.as_secs_f64(),
        decrease_secs: stage.decrease.as_secs_f64(),
        realize_secs: stage.realize.as_secs_f64(),
    };
    let edits = result.total_edits() as u64;
    let utility_loss = result.utility_loss();
    let data = payload(result.dataset, spec.params.store_result.then_some(store), from_job)?;
    Ok(Response::Anonymize {
        data,
        epsilon_spent: result.epsilon_spent,
        edits,
        utility_loss,
        workers: spec.params.workers,
        timings: Some(timings),
    })
}

/// Executes an `evaluate` request. Both references resolve before
/// either parses, so an unknown handle is reported ahead of a parse
/// error.
pub fn run_evaluate(
    original: &DataRef,
    anonymized: &DataRef,
    store: &DatasetStore,
) -> Result<Response, ApiError> {
    let orig_data = original.resolve_shared(store)?;
    let anon_data = anonymized.resolve_shared(store)?;
    let orig = original.parse(&orig_data, store, "original")?;
    let anon = anonymized.parse(&anon_data, store, "anonymized")?;
    if orig.len() != anon.len() {
        return Err(ApiError::invalid_dataset(
            "datasets must contain the same number of trajectories",
        ));
    }
    let trajdp_metrics::Scores { mi, inf, de, te, ffp } = trajdp_metrics::scores(&orig, &anon);
    Ok(Response::Evaluate { mi, inf, de, te, ffp })
}

/// Executes a `stats` request.
pub fn run_stats(data: &DataRef, store: &DatasetStore) -> Result<Response, ApiError> {
    let ds = data.parse(&data.resolve_shared(store)?, store, "csv")?;
    let s = DatasetStats::compute(&ds);
    Ok(Response::Stats {
        trajectories: s.num_trajectories as u64,
        points: s.total_points as u64,
        distinct_locations: s.distinct_locations as u64,
        avg_traj_len: s.avg_traj_len,
        avg_point_spacing: s.avg_point_spacing,
        avg_sampling_period: s.avg_sampling_period,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_commands() {
        assert_eq!(parse_request(r#"{"cmd":"health"}"#).unwrap(), Request::Health);
        assert_eq!(parse_request(r#"{"cmd":"info"}"#).unwrap(), Request::Info);
        assert_eq!(parse_request(r#"{"cmd":"metrics"}"#).unwrap(), Request::Metrics);
        assert_eq!(
            parse_request(r#"{"cmd":"gen","size":10,"len":20,"seed":3}"#).unwrap(),
            Request::Gen(GenParams { size: 10, len: 20, seed: 3, store_result: false })
        );
        let r = parse_request(
            r#"{"cmd":"anonymize","model":"gl","epsilon":2.0,"eps_split":0.25,"m":4,"seed":9,"workers":8,"csv":"traj_id,x,y,t\n"}"#,
        )
        .unwrap();
        match r {
            Request::Anonymize { params, asynchronous } => {
                assert_eq!(params.model, Model::Combined);
                assert_eq!(params.epsilon, 2.0);
                assert_eq!(params.eps_split, 0.25);
                assert_eq!(params.m, 4);
                assert_eq!(params.workers, 8);
                assert_eq!(params.data, DataRef::Inline(Arc::new("traj_id,x,y,t\n".to_string())));
                assert!(!asynchronous);
                let cfg = params.config();
                assert!((cfg.eps_global - 0.5).abs() < 1e-12);
                assert!((cfg.eps_local - 1.5).abs() < 1e-12);
            }
            other => panic!("wrong request {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"cmd":"status","job":"job-1"}"#).unwrap(),
            Request::Status { .. }
        ));
        assert_eq!(
            parse_request(r#"{"cmd":"upload"}"#).unwrap(),
            Request::Upload { eps_budget: None }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"upload","eps_budget":2.5}"#).unwrap(),
            Request::Upload { eps_budget: Some(2.5) }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"cancel","job":"job-4"}"#).unwrap(),
            Request::Cancel { job: "job-4".to_string() }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"chunk","dataset":"ds-1","data":"0,1,2,3\n"}"#).unwrap(),
            Request::Chunk { dataset: "ds-1".to_string(), data: "0,1,2,3\n".to_string() }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"commit","dataset":"ds-1"}"#).unwrap(),
            Request::Commit { dataset: "ds-1".to_string() }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"download","dataset":"ds-1","offset":7,"max_bytes":64}"#)
                .unwrap(),
            Request::Download { dataset: "ds-1".to_string(), offset: 7, max_bytes: 64 }
        );
    }

    #[test]
    fn defaults_applied() {
        assert_eq!(
            parse_request(r#"{"cmd":"gen"}"#).unwrap(),
            Request::Gen(GenParams { size: 200, len: 150, seed: 42, store_result: false })
        );
        let r = parse_request(r#"{"cmd":"anonymize","model":"pureg","csv":""}"#).unwrap();
        match r {
            Request::Anonymize { params, asynchronous } => {
                assert_eq!(params.epsilon, 1.0);
                assert_eq!(params.eps_split, 0.5);
                assert_eq!(params.m, 10);
                assert_eq!(params.seed, 42);
                assert_eq!(params.workers, 1);
                assert!(!params.store_result);
                assert!(!asynchronous);
            }
            other => panic!("wrong request {other:?}"),
        }
        match parse_request(r#"{"cmd":"download","dataset":"ds-2"}"#).unwrap() {
            Request::Download { offset, max_bytes, .. } => {
                assert_eq!(offset, 0);
                assert_eq!(max_bytes, DEFAULT_DOWNLOAD_CHUNK_BYTES);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn dataset_handle_accepted_as_csv_alternative() {
        let r = parse_request(r#"{"cmd":"anonymize","model":"gl","dataset":"ds-3"}"#).unwrap();
        match r {
            Request::Anonymize { params, .. } => {
                assert_eq!(params.data, DataRef::Handle("ds-3".to_string()));
            }
            other => panic!("wrong request {other:?}"),
        }
        assert!(matches!(
            parse_request(r#"{"cmd":"stats","dataset":"ds-3"}"#).unwrap(),
            Request::Stats { data: DataRef::Handle(_) }
        ));
        match parse_request(r#"{"cmd":"evaluate","original_dataset":"ds-1","anonymized":"x"}"#)
            .unwrap()
        {
            Request::Evaluate { original, anonymized } => {
                assert_eq!(original, DataRef::Handle("ds-1".to_string()));
                assert_eq!(anonymized, DataRef::Inline(Arc::new("x".to_string())));
            }
            other => panic!("wrong request {other:?}"),
        }
        // Exactly one of inline/handle: both or neither is an error.
        let err = parse_request(r#"{"cmd":"anonymize","model":"gl","csv":"","dataset":"ds-1"}"#)
            .unwrap_err();
        assert!(err.message.contains("mutually exclusive"), "{err}");
        let err = parse_request(r#"{"cmd":"anonymize","model":"gl"}"#).unwrap_err();
        assert!(err.message.contains("\"csv\"") && err.message.contains("\"dataset\""), "{err}");
        let err = parse_request(r#"{"cmd":"stats"}"#).unwrap_err();
        assert!(err.message.contains("\"csv\"") && err.message.contains("\"dataset\""), "{err}");
    }

    #[test]
    fn non_bool_async_and_store_are_errors_not_false() {
        for bad in [r#""async":1"#, r#""async":"true""#, r#""async":null"#] {
            let line = format!(r#"{{"cmd":"anonymize","model":"gl","csv":"",{bad}}}"#);
            let err = parse_request(&line).unwrap_err();
            assert!(err.message.contains("async must be a boolean"), "{bad}: {err}");
        }
        let err = parse_request(r#"{"cmd":"anonymize","model":"gl","csv":"","store":"yes"}"#)
            .unwrap_err();
        assert!(err.message.contains("store must be a boolean"), "{err}");
        let err = parse_request(r#"{"cmd":"gen","store":1}"#).unwrap_err();
        assert!(err.message.contains("store must be a boolean"), "{err}");
        // A proper boolean still parses.
        assert!(matches!(
            parse_request(r#"{"cmd":"anonymize","model":"gl","csv":"","async":true}"#).unwrap(),
            Request::Anonymize { asynchronous: true, .. }
        ));
    }

    #[test]
    fn unknown_members_are_rejected_by_name() {
        // The misspellings from the wild: epsilom, worker.
        let err = parse_request(r#"{"cmd":"anonymize","model":"gl","csv":"","epsilom":2.0}"#)
            .unwrap_err();
        assert!(err.message.contains("\"epsilom\""), "{err}");
        assert!(err.message.contains("\"epsilon\""), "error must name the accepted set: {err}");
        let err =
            parse_request(r#"{"cmd":"anonymize","model":"gl","csv":"","worker":4}"#).unwrap_err();
        assert!(err.message.contains("\"worker\"") && err.message.contains("\"workers\""), "{err}");
        // Every command validates its member set, including no-member ones.
        assert!(parse_request(r#"{"cmd":"health","extra":1}"#)
            .unwrap_err()
            .message
            .contains("extra"));
        assert!(parse_request(r#"{"cmd":"upload","size":1}"#)
            .unwrap_err()
            .message
            .contains("size"));
        // `metrics` takes no members and mirrors health's phrasing.
        let err = parse_request(r#"{"cmd":"metrics","verbose":true}"#).unwrap_err();
        assert!(err.message.contains("verbose"), "{err}");
        assert!(err.message.contains("none besides \"cmd\""), "{err}");
        assert!(parse_request(r#"{"cmd":"gen","sizee":5}"#).unwrap_err().message.contains("sizee"));
        assert!(parse_request(r#"{"cmd":"status","job":"j","jb":"x"}"#)
            .unwrap_err()
            .message
            .contains("jb"));
        assert!(parse_request(r#"{"cmd":"download","dataset":"ds-1","off":3}"#)
            .unwrap_err()
            .message
            .contains("off"));
    }

    #[test]
    fn journaled_spec_roundtrips_and_is_validated() {
        let store = DatasetStore::new();
        let csv = "traj_id,x,y,t\n0,1.0,2.0,3\n";
        let params = AnonymizeParams {
            model: Model::CombinedLocalFirst,
            epsilon: 2.5,
            eps_split: 0.25,
            m: 7,
            seed: 99,
            workers: 3,
            store_result: true,
            data: DataRef::Inline(Arc::new(csv.to_string())),
        };
        let spec = params.clone().resolve(&store).unwrap();
        let v = spec_to_json(params.clone());
        assert!(v.get("csv").is_some() && v.get("dataset").is_none());
        assert_eq!(spec_from_json(&v).unwrap().resolve(&store).unwrap(), spec);
        // A handle-backed spec journals the handle, not the text —
        // and re-resolution restores the identical bytes.
        let (handle, _) = store.insert(csv.to_string()).unwrap();
        let by_handle = AnonymizeParams { data: DataRef::Handle(handle.clone()), ..params.clone() };
        let v = spec_to_json(by_handle);
        assert_eq!(v.get("dataset").and_then(Json::as_str), Some(handle.as_str()));
        assert!(v.get("csv").is_none(), "handle-backed spec must not re-record the CSV");
        let resolved = spec_from_json(&v).unwrap().resolve(&store).unwrap();
        assert_eq!(resolved.data, spec.data);
        assert_eq!(resolved.source(), Some(handle.as_str()));
        // Tampered journals fail re-validation.
        let mut bad = match spec_to_json(params.clone()) {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        bad.insert("workers".to_string(), Json::from(0u64));
        assert!(spec_from_json(&Json::Obj(bad.clone())).is_err());
        bad.remove("workers");
        assert!(spec_from_json(&Json::Obj(bad)).unwrap_err().message.contains("workers"));
        // Every member the encoder writes must be present, defaults or
        // not: a journal line is a record, not a request.
        let Json::Obj(full) = spec_to_json(params) else { unreachable!() };
        for key in full.keys() {
            let mut partial = full.clone();
            partial.remove(key);
            let err = spec_from_json(&Json::Obj(partial)).unwrap_err();
            assert!(err.message.contains("journaled spec is missing member"), "{key}: {err}");
            assert!(err.message.contains(&format!("{key:?}")), "{key}: {err}");
        }
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"nocmd":1}"#).is_err());
        assert!(parse_request(r#"{"cmd":"bogus"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"anonymize","model":"zzz","csv":""}"#).is_err());
        assert!(parse_request(r#"{"cmd":"anonymize","model":"gl","epsilon":-1,"csv":""}"#).is_err());
        assert!(
            parse_request(r#"{"cmd":"anonymize","model":"gl","eps_split":0,"csv":""}"#).is_err()
        );
        assert!(
            parse_request(r#"{"cmd":"anonymize","model":"gl","eps_split":1,"csv":""}"#).is_err()
        );
        assert!(parse_request(r#"{"cmd":"status"}"#).is_err());
    }

    #[test]
    fn pure_models_spend_the_full_requested_epsilon() {
        assert_eq!(budget_split(Model::PureGlobal, 1.0, 0.5).0, 1.0);
        assert_eq!(budget_split(Model::PureLocal, 1.0, 0.5).1, 1.0);
        assert_eq!(budget_split(Model::Combined, 2.0, 0.25), (0.5, 1.5));
        // End to end: a pureg run reports ε spent = the requested total.
        let world = generate(&GeneratorConfig::tdrive_profile(4, 15, 2));
        let spec = inline_spec(Model::PureGlobal, 2, 1, 1, to_csv(&world.dataset));
        match run_anonymize(&spec, &DatasetStore::new(), false).unwrap() {
            Response::Anonymize { epsilon_spent, .. } => assert_eq!(epsilon_spent, 1.0),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn oversized_requests_are_rejected_at_parse_time() {
        // gen that would allocate billions of points.
        assert!(parse_request(r#"{"cmd":"gen","size":9007199254740991,"len":150}"#)
            .unwrap_err()
            .message
            .contains("points"));
        assert!(parse_request(r#"{"cmd":"gen","size":0,"len":10}"#).is_err());
        // anonymize with absurd m / workers.
        assert!(parse_request(r#"{"cmd":"anonymize","model":"gl","m":1000000,"csv":""}"#)
            .unwrap_err()
            .message
            .contains("m must"));
        assert!(parse_request(r#"{"cmd":"anonymize","model":"gl","m":0,"csv":""}"#).is_err());
        assert!(parse_request(r#"{"cmd":"anonymize","model":"gl","workers":100000,"csv":""}"#)
            .unwrap_err()
            .message
            .contains("workers"));
        // Seeds above 2^53 would silently lose precision in f64 transit.
        assert!(parse_request(r#"{"cmd":"gen","size":5,"len":10,"seed":9007199254740993}"#)
            .unwrap_err()
            .message
            .contains("2^53"));
    }

    #[test]
    fn eps_split_validation_bounds() {
        assert!(validate_eps_split(0.5).is_ok());
        assert!(validate_eps_split(1e-9).is_ok());
        assert!(validate_eps_split(0.0).is_err());
        assert!(validate_eps_split(1.0).is_err());
        assert!(validate_eps_split(-0.1).is_err());
        assert!(validate_eps_split(f64::NAN).is_err());
    }

    #[test]
    fn unusable_budget_shares_are_bad_requests() {
        // pureg at 1e-320: positive, but the noise scale 1/ε overflows.
        // gl at 1e-323 with split 0.1: the global share underflows to 0.
        for line in [
            r#"{"cmd":"anonymize","model":"pureg","epsilon":1e-320,"csv":""}"#,
            r#"{"cmd":"anonymize","model":"gl","epsilon":1e-323,"eps_split":0.1,"csv":""}"#,
            r#"{"cmd":"anonymize","model":"purel","epsilon":1e-320,"dataset":"ds-1"}"#,
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, crate::api::ErrorCode::BadRequest, "{line}");
            assert!(err.message.contains("noise scale"), "{line}: {err}");
        }
        // The smallest ε with a finite scale still parses.
        assert!(validate_budget(Model::PureGlobal, 1e-300, 0.5).is_ok());
        assert!(validate_budget(Model::Combined, 1e-300, 0.5).is_ok());
        // A journaled spec goes through the same gate on replay.
        let mut spec = match spec_to_json(AnonymizeParams {
            eps_split: 0.1,
            m: 4,
            seed: 1,
            ..AnonymizeParams::new(Model::Combined, DataRef::Inline(Arc::default()))
        }) {
            Json::Obj(map) => map,
            other => panic!("spec must be an object: {other:?}"),
        };
        spec.insert("epsilon".to_string(), Json::Num(1e-323));
        assert!(spec_from_json(&Json::Obj(spec)).unwrap_err().message.contains("noise scale"));
    }

    #[test]
    fn workers_validation_bounds() {
        assert_eq!(validate_workers(1), Ok(1));
        assert_eq!(validate_workers(MAX_WORKERS), Ok(MAX_WORKERS as usize));
        assert!(validate_workers(0).unwrap_err().message.contains("at least 1"));
        assert!(validate_workers(MAX_WORKERS + 1).unwrap_err().message.contains("exceed"));
        // Zero workers in a request must error, not clamp silently.
        assert!(parse_request(r#"{"cmd":"anonymize","model":"gl","workers":0,"csv":""}"#)
            .unwrap_err()
            .message
            .contains("workers"));
    }

    /// An inline-data spec at the default ε and split.
    fn inline_spec(
        model: Model,
        m: usize,
        seed: u64,
        workers: usize,
        csv: String,
    ) -> AnonymizeSpec {
        let data = DataRef::Inline(Arc::new(csv));
        AnonymizeParams { m, seed, workers, ..AnonymizeParams::new(model, data) }
            .resolve(&DatasetStore::new())
            .unwrap()
    }

    /// The inline CSV of a `gen`/`anonymize` response, for tests.
    fn inline_csv(response: &Response) -> &str {
        match response {
            Response::Gen { data: Payload::Inline(csv), .. }
            | Response::Anonymize { data: Payload::Inline(csv), .. } => csv,
            other => panic!("no inline csv in {other:?}"),
        }
    }

    #[test]
    fn gen_anonymize_stats_roundtrip_inline() {
        let store = DatasetStore::new();
        let gen =
            run_gen(&GenParams { size: 6, len: 30, seed: 5, ..GenParams::new() }, &store).unwrap();
        let csv = inline_csv(&gen).to_string();
        let spec = inline_spec(Model::Combined, 4, 7, 2, csv.clone());
        let anon = run_anonymize(&spec, &store, false).unwrap();
        let released = DataRef::Inline(Arc::new(inline_csv(&anon).to_string()));
        let original = DataRef::Inline(Arc::new(csv));
        match run_evaluate(&original, &released, &store).unwrap() {
            Response::Evaluate { mi, .. } => assert!(mi.is_finite()),
            other => panic!("wrong response {other:?}"),
        }
        match run_stats(&released, &store).unwrap() {
            Response::Stats { trajectories, .. } => assert_eq!(trajectories, 6),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn handle_based_run_is_byte_identical_to_inline() {
        let store = DatasetStore::new();
        let gen =
            run_gen(&GenParams { size: 5, len: 25, seed: 8, ..GenParams::new() }, &store).unwrap();
        let csv = inline_csv(&gen).to_string();

        // Stream the dataset through the chunked-upload handlers.
        let id = store.begin().unwrap();
        for piece in csv.as_bytes().chunks(37) {
            let piece = std::str::from_utf8(piece).unwrap();
            store.append(&id, piece).unwrap();
        }
        match run_commit(&store, &id).unwrap() {
            Response::Commit { bytes, .. } => assert_eq!(bytes, csv.len()),
            other => panic!("wrong response {other:?}"),
        }

        let params = AnonymizeParams {
            model: Model::Combined,
            epsilon: 1.0,
            eps_split: 0.5,
            m: 3,
            seed: 17,
            workers: 2,
            store_result: false,
            data: DataRef::Handle(id.clone()),
        };
        let mut inline = params.clone();
        inline.data = DataRef::Inline(Arc::new(csv.clone()));
        let by_handle = run_anonymize(&params.clone().resolve(&store).unwrap(), &store, false);
        let by_inline = run_anonymize(&inline.resolve(&store).unwrap(), &store, false).unwrap();
        // Strip the wall-clock phase timings before comparing: they are
        // observability, not output, and never identical across runs.
        let strip = |r: &Response| match r.clone() {
            Response::Anonymize { data, epsilon_spent, edits, utility_loss, workers, .. } => {
                Response::Anonymize {
                    data,
                    epsilon_spent,
                    edits,
                    utility_loss,
                    workers,
                    timings: None,
                }
            }
            other => other,
        };
        assert_eq!(
            strip(&by_handle.unwrap()),
            strip(&by_inline),
            "handle-based run must match the inline run exactly"
        );

        // `store` keeps the release behind a handle; downloading it
        // piecewise reassembles the identical bytes.
        let released = inline_csv(&by_inline).to_string();
        let keep = AnonymizeParams { store_result: true, ..params };
        let stored = run_anonymize(&keep.resolve(&store).unwrap(), &store, false).unwrap();
        let (result_id, bytes) = match &stored {
            Response::Anonymize { data: Payload::Stored { dataset, bytes }, .. } => {
                (dataset.clone(), *bytes)
            }
            other => panic!("store must swap the payload: {other:?}"),
        };
        assert_eq!(bytes, released.len());
        let mut out = String::new();
        loop {
            match run_download(&store, &result_id, out.len(), 53).unwrap() {
                Response::Download { data, eof, .. } => {
                    out.push_str(&data);
                    if eof {
                        break;
                    }
                }
                other => panic!("wrong response {other:?}"),
            }
        }
        assert_eq!(out, released, "chunked download must reassemble the inline release");
    }

    #[test]
    fn run_anonymize_reports_csv_errors() {
        let garbage = "complete garbage\nwith, too, many, commas, here".to_string();
        let spec = inline_spec(Model::PureLocal, 2, 1, 1, garbage);
        let err = run_anonymize(&spec, &DatasetStore::new(), false).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::InvalidDataset);
        assert!(err.message.contains("cannot parse csv"), "{err}");
    }

    #[test]
    fn envelope_defaults_to_v1_without_members() {
        let (envelope, req) = parse_request_line(r#"{"cmd":"health"}"#);
        assert_eq!(envelope, Envelope::V1);
        assert_eq!(req.unwrap(), Request::Health);
        // An explicit "v":1 is the same envelope.
        let (envelope, req) = parse_request_line(r#"{"cmd":"health","v":1}"#);
        assert_eq!(envelope, Envelope::V1);
        assert!(req.is_ok());
    }

    #[test]
    fn envelope_v2_with_id_parses_on_every_command() {
        for line in [
            r#"{"cmd":"health","v":2,"id":"req-1"}"#,
            r#"{"cmd":"info","v":2,"id":"req-1"}"#,
            r#"{"cmd":"upload","v":2,"id":"req-1"}"#,
            r#"{"cmd":"list","v":2,"id":"req-1"}"#,
            r#"{"cmd":"gen","size":2,"len":3,"v":2,"id":"req-1"}"#,
            r#"{"cmd":"anonymize","model":"gl","csv":"","v":2,"id":"req-1"}"#,
            r#"{"cmd":"status","job":"job-1","v":2,"id":"req-1"}"#,
            r#"{"cmd":"download","dataset":"ds-1","v":2,"id":"req-1"}"#,
            r#"{"cmd":"delete","dataset":"ds-1","v":2,"id":"req-1"}"#,
        ] {
            let (envelope, req) = parse_request_line(line);
            assert_eq!(envelope.version, ProtocolVersion::V2, "{line}");
            assert_eq!(envelope.id.as_deref(), Some("req-1"), "{line}");
            assert!(req.is_ok(), "{line}: {req:?}");
        }
        // v2 without an id is fine; the id is optional.
        let (envelope, req) = parse_request_line(r#"{"cmd":"health","v":2}"#);
        assert_eq!(envelope, Envelope { version: ProtocolVersion::V2, id: None, tenant: None });
        assert!(req.is_ok());
    }

    #[test]
    fn envelope_tenant_is_v2_only_and_must_be_a_string() {
        // A v2 tenant credential parses on every command.
        let (envelope, req) =
            parse_request_line(r#"{"cmd":"health","v":2,"tenant":"acme:s3cret"}"#);
        assert_eq!(envelope.version, ProtocolVersion::V2);
        assert_eq!(envelope.tenant.as_deref(), Some("acme:s3cret"));
        assert!(req.is_ok());
        // Tenant composes with the id member.
        let (envelope, _) =
            parse_request_line(r#"{"cmd":"upload","v":2,"id":"r-1","tenant":"acme:t"}"#);
        assert_eq!(envelope.id.as_deref(), Some("r-1"));
        assert_eq!(envelope.tenant.as_deref(), Some("acme:t"));
        // A tenant on a version-less request is rejected, like id: it
        // would silently be accounted to the default tenant otherwise.
        let (envelope, req) = parse_request_line(r#"{"cmd":"health","tenant":"acme:t"}"#);
        assert_eq!(envelope.version, ProtocolVersion::V1);
        assert!(req.unwrap_err().message.contains("requires \"v\": 2"));
        // A non-string tenant is rejected.
        let (_, req) = parse_request_line(r#"{"cmd":"health","v":2,"tenant":9}"#);
        assert!(req.unwrap_err().message.contains("tenant must be a string"));
    }

    #[test]
    fn envelope_survives_a_verb_error() {
        // The verb fails to validate, but the envelope is still parsed
        // so the error can be rendered in the shape the client asked
        // for, with its id echoed.
        let (envelope, req) = parse_request_line(r#"{"cmd":"bogus","v":2,"id":"x-9"}"#);
        assert_eq!(envelope.version, ProtocolVersion::V2);
        assert_eq!(envelope.id.as_deref(), Some("x-9"));
        let err = req.unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::UnknownVerb);
        let (envelope, req) = parse_request_line(
            r#"{"cmd":"anonymize","model":"gl","csv":"","epsilom":1,"v":2,"id":"x-10"}"#,
        );
        assert_eq!(envelope.id.as_deref(), Some("x-10"));
        assert_eq!(req.unwrap_err().code, crate::api::ErrorCode::BadRequest);
    }

    #[test]
    fn envelope_rejects_bad_version_and_id() {
        let (envelope, req) = parse_request_line(r#"{"cmd":"health","v":3}"#);
        assert_eq!(envelope, Envelope::V1, "an unusable v falls back to v1 shapes");
        let err = req.unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::BadRequest);
        assert!(err.message.contains("1 or 2"), "{err}");
        for bad in [r#"{"cmd":"health","v":"2"}"#, r#"{"cmd":"health","v":2.5}"#] {
            assert!(parse_request_line(bad).1.is_err(), "{bad}");
        }
        // A non-string id, and an id without v:2, are both rejected.
        let (envelope, req) = parse_request_line(r#"{"cmd":"health","v":2,"id":7}"#);
        assert_eq!(envelope.version, ProtocolVersion::V2);
        assert!(req.unwrap_err().message.contains("id must be a string"));
        let (envelope, req) = parse_request_line(r#"{"cmd":"health","id":"x"}"#);
        assert_eq!(envelope.version, ProtocolVersion::V1);
        assert!(req.unwrap_err().message.contains("requires"), "id without v:2 must be rejected");
    }

    #[test]
    fn gen_needs_two_samples_per_trajectory() {
        // The generator asserts `len >= 2`; the parser refuses first,
        // so a `len: 1` request cannot panic the handler.
        let err = parse_request(r#"{"cmd":"gen","size":3,"len":1}"#).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::BadRequest);
        assert_eq!(err.message, "len must be at least 2");
        // Zero keeps the frozen v1 text.
        for line in [r#"{"cmd":"gen","size":0}"#, r#"{"cmd":"gen","len":0}"#] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.message, "size and len must be at least 1", "{line}");
        }
        // The smallest accepted shape runs.
        assert_eq!(
            parse_request(r#"{"cmd":"gen","size":1,"len":2,"seed":4}"#).unwrap(),
            Request::Gen(GenParams { size: 1, len: 2, seed: 4, store_result: false })
        );
        let smallest = GenParams { size: 1, len: 2, seed: 4, store_result: false };
        assert!(matches!(
            run_gen(&smallest, &DatasetStore::new()),
            Ok(Response::Gen { points: 2, .. })
        ));
    }

    #[test]
    fn anonymize_parse_is_linear_in_inline_csv() {
        // Parsing and decoding an anonymize line must grow linearly with
        // its inline CSV.
        let input = |n: usize| {
            let csv = "traj_id,x,y,t\n".to_string() + &"0,1.5,2.5,3\n".repeat(n / 12);
            let line = Json::obj([
                ("cmd", Json::from("anonymize")),
                ("model", Json::from("gl")),
                ("csv", Json::from(csv.as_str())),
                ("v", Json::from(2u64)),
                ("id", Json::from("r-1")),
            ])
            .to_string();
            (csv, line)
        };
        crate::assert_linear(64 * 1024, input, |(csv, line)| match parse_request_line(line).1 {
            Ok(Request::Anonymize { params, .. }) => {
                assert_eq!(params.data, DataRef::Inline(Arc::new(csv.clone())));
            }
            other => panic!("wrong request {other:?}"),
        });
    }

    #[test]
    fn fuzzed_request_lines_fail_cleanly() {
        // Byte flips, truncations, and dropped or duplicated members of
        // a valid line of every verb: whatever comes out must parse or
        // be refused as `bad-request`/`unknown-verb` — never panic.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let valid = [
            r#"{"cmd":"health","v":2,"id":"a"}"#,
            r#"{"cmd":"info"}"#,
            r#"{"cmd":"metrics","v":1}"#,
            r#"{"cmd":"gen","size":3,"len":20,"seed":7,"store":true}"#,
            r#"{"cmd":"anonymize","model":"gl","csv":"traj_id,x,y,t\n0,1,2,3\n","epsilon":0.5,"eps_split":0.25,"m":4,"seed":9,"workers":2,"async":true,"store":false}"#,
            r#"{"cmd":"anonymize","model":"purel","dataset":"ds-1","v":2,"tenant":"acme:t"}"#,
            r#"{"cmd":"evaluate","original":"a","anonymized_dataset":"ds-2"}"#,
            r#"{"cmd":"stats","dataset":"ds-3"}"#,
            r#"{"cmd":"status","job":"job-1"}"#,
            r#"{"cmd":"cancel","job":"job-2","v":2}"#,
            r#"{"cmd":"upload","eps_budget":1.5}"#,
            r#"{"cmd":"chunk","dataset":"ds-1","data":"0,1,2,3\n"}"#,
            r#"{"cmd":"commit","dataset":"ds-1"}"#,
            r#"{"cmd":"download","dataset":"ds-1","offset":4,"max_bytes":64}"#,
            r#"{"cmd":"delete","dataset":"ds-1"}"#,
            r#"{"cmd":"list"}"#,
        ];
        for line in valid {
            assert!(parse_request_line(line).1.is_ok(), "{line}");
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut refused, mut accepted) = (0, 0);
        for _ in 0..20_000 {
            let mut line = valid[rng.gen_range(0..valid.len())].as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                match rng.gen_range(0..4u32) {
                    0 if !line.is_empty() => {
                        let i = rng.gen_range(0..line.len());
                        line[i] = rng.gen_range(0..128u32) as u8;
                    }
                    1 => line.truncate(rng.gen_range(0..=line.len())),
                    op => {
                        let Ok(Json::Obj(mut map)) =
                            crate::json::parse(&String::from_utf8_lossy(&line))
                        else {
                            continue;
                        };
                        let Some(key) = map.keys().nth(rng.gen_range(0..map.len().max(1))).cloned()
                        else {
                            continue;
                        };
                        let member = format!("{}:{}", Json::from(key.as_str()), map[&key]);
                        if op == 2 {
                            map.remove(&key);
                            line = Json::Obj(map).to_string().into_bytes();
                        } else {
                            line.splice(1..1, format!("{member},").into_bytes());
                        }
                    }
                }
            }
            let line = String::from_utf8_lossy(&line);
            match parse_request_line(&line).1 {
                Ok(_) => accepted += 1,
                Err(e) => {
                    refused += 1;
                    assert!(
                        matches!(
                            e.code,
                            crate::api::ErrorCode::BadRequest | crate::api::ErrorCode::UnknownVerb
                        ),
                        "{line}: {e}"
                    );
                }
            }
        }
        // Both outcomes are exercised, not just the trivial one.
        assert!(refused > 1_000 && accepted > 100, "refused {refused}, accepted {accepted}");
    }
}
