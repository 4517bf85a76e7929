//! Job queue for asynchronous anonymization requests, with an optional
//! durable journal.
//!
//! An `anonymize` request with `"async": true` is assigned a job id
//! (`job-1`, `job-2`, …), queued, and executed by a pool of worker
//! threads owned by the server. Clients poll with `status`; a finished
//! job answers with the full anonymize response inline.
//!
//! ## Durability
//!
//! With a journal path (the server's `--state-dir`), every lifecycle
//! transition is appended as one JSON line *before* it is acknowledged.
//! `journal::Event` is the one definition of those lines; members
//! serialize in sorted key order:
//!
//! ```text
//! {"event":"submit","job":"job-3","spec":{...}}          job accepted
//! {"event":"finish","job":"job-3","result":{...}}        job finished
//! {"event":"cancel","job":"job-3"}                       queued job cancelled
//! {"dataset":"ds-1","eps_budget":3.5,"event":"budget"}   explicit upload budget
//! {"dataset":"ds-1","eps":0.5,"event":"spend"}           synchronous run charge
//! {"dataset":"ds-1","event":"reset"}                     dataset deleted
//! {"dataset":"ds-1","event":"commit"}                    dataset committed
//! {"event":"ids","upto":1024}                            dataset id mark
//! ```
//!
//! The journal is the state directory's only metadata record; the
//! dataset store appends the last two (see `store.rs`).
//!
//! A submit by handle journals the handle id, not the resolved CSV: the
//! bytes are already durable in the store, and the handle is **pinned**
//! for the job's lifetime, so neither `delete` nor LRU/TTL eviction can
//! remove what a replay needs. A handle deleted after the request
//! resolved it but before the submit pins it refuses the submit with
//! `dataset-not-found`, as if the delete had landed first. A
//! `store:true` result lives as long as its job record: once the record
//! ages out, the store reclaims the handle ([`DatasetStore::reclaim`]),
//! at once or when the last job pinning it ends.
//!
//! On restart the journal is replayed: finished jobs answer `status`
//! with their recorded result, and jobs `queued` or `running` at the
//! crash re-run, to the same bytes (the executor is deterministic per
//! seed). The store loads exactly the handles the journal names: the
//! committed ones (snapshot members and `commit`s, less `reset`s), the
//! results of retained job records, and the inputs of re-queued jobs —
//! an input no other group names is a result whose record aged out, and
//! goes with its last pin. Every other blob is deleted, and the ledger
//! rows of handles that did not load are forgotten: ids are never
//! reissued, so no charge can reach them again. Replay is strict — a
//! malformed line fails startup loudly — except for a torn final line,
//! which a crash mid-append leaves behind for an event never
//! acknowledged.
//!
//! ## Privacy-budget ledger
//!
//! The queue owns the per-dataset ε accumulator ([`EpsLedger`]) under
//! its mutex; the budget, spend and reset events make it durable. Its
//! `spent` holds **settled** charges only (finished jobs and synchronous
//! runs); an unfinished job's charge derives from its live spec. That
//! split makes replay exact: an unfinished `submit` re-enqueues and so
//! re-charges in flight, a `finish` settles the same `f64` in the same
//! order, and the snapshot's `"ledger"` round-trips through JSON bit for
//! bit. A crash between the fsynced event and the acknowledgement
//! replays the charge — over-counting at worst, never under-counting.
//! Every budget mutation fsyncs before the ledger changes, under the
//! journal lock that serializes submits, so concurrent check-then-charge
//! sequences cannot overspend.
//!
//! ## Compaction
//!
//! So that replay cost scales with live state, not lifetime job count,
//! the journal is rewritten (temp file + fsync + rename) whenever
//! [`COMPACT_FINISHED_EVENTS`] finish events have accumulated, and at
//! every startup. A compacted journal holds one `snapshot` line (job id
//! counter, ledger, the live committed handles no job names, the
//! dataset id mark), one `submit` per unfinished job and one `done` per
//! retained finished job. Only `finish` appends count toward the
//! trigger: `commit`, `ids`, `reset` and the ε events are one short line
//! each and wait for the next finish-driven or startup compaction.
//!
//! ## Large results
//!
//! A result whose serialized form reaches [`SPILL_RESULT_BYTES`] keeps
//! only its byte range in the journal — the last member of its `finish`
//! or `done` line — plus its dataset handle, for retention eviction.
//! `status` reads the range back with a positioned read, outside both
//! locks. Compaction streams each range into the new journal and moves
//! the records; replay records ranges in the file it replays. A result
//! whose `finish` append failed stays in memory.
//!
//! ## Locking
//!
//! Appends fsync on a dedicated journal lock, so `status`/`list` reads
//! under the queue mutex never wait for a disk write; acknowledgements
//! still follow the durable event.

use crate::api::{render_v1, ApiError, Response};
use crate::journal::{self, job_number, DoneRecord, Event, JournalWriter, ResultRange, Snapshot};
use crate::json::Json;
use crate::ledger::EpsLedger;
use crate::obs::{log_enabled, log_event, LogLevel, Metrics, PhaseTimings};
use crate::protocol::{run_anonymize, AnonymizeParams, AnonymizeSpec, DataRef};
use crate::store::{handle_number, DatasetStore};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Lifecycle of one queued job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; holds the response object. Shared, not owned: results
    /// can be megabytes of inline CSV, and the compaction snapshot must
    /// be able to collect every retained result under the queue mutex
    /// without deep-copying any of them.
    Done(Arc<Json>),
    /// Finished, with a result large enough to stay in the journal:
    /// only its byte range lives in memory. The result's dataset handle
    /// (if it stored one) is kept beside it so retention eviction can
    /// reclaim the handle without reading the journal.
    Journaled { range: ResultRange, dataset: Option<String> },
}

impl JobState {
    /// Protocol name of the state. A journal-backed job is still
    /// `"done"` — where the result bytes live is invisible on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) | JobState::Journaled { .. } => "done",
        }
    }

    /// The dataset handle a finished `store:true` job's result names.
    pub(crate) fn result_handle(&self) -> Option<&str> {
        match self {
            JobState::Done(result) => result.get("dataset").and_then(Json::as_str),
            JobState::Journaled { dataset, .. } => dataset.as_deref(),
            _ => None,
        }
    }
}

/// How many finished jobs (with their full result payloads) the table
/// retains. Results can be megabytes of CSV each; without a cap a
/// long-lived server grows without bound. Oldest finished jobs are
/// evicted first; polling an evicted id reports it as unknown.
pub const MAX_FINISHED_RETAINED: usize = 256;

/// Journal finish events accumulated since the last compaction that
/// trigger the next one. Each finished job contributes two lines
/// (submit + finish) that compaction collapses to at most one, so by
/// the time this fires the journal carries at least this many dead
/// lines.
pub const COMPACT_FINISHED_EVENTS: usize = 256;

/// Serialized result size at which a journaled queue keeps a finished
/// job's result in the journal only, instead of in the job table. With
/// [`MAX_FINISHED_RETAINED`] jobs retained, results below this bound
/// the table to ~256 MiB worst case; anything larger is read back from
/// the journal per `status` request.
pub const SPILL_RESULT_BYTES: usize = 1 << 20;

/// In-memory observability record of one job: submission/pickup clocks,
/// the finished wall-clock, per-phase timings, and the correlation id of
/// the submitting request. Never journaled — a replayed job legitimately
/// has no clock, and `status` simply omits the members.
#[derive(Debug, Clone, Default)]
struct JobMeta {
    submitted_at: Option<Instant>,
    started_at: Option<Instant>,
    /// Submit → done wall-clock, seconds, once finished.
    duration_secs: Option<f64>,
    /// Per-phase wall-clock of a finished anonymize run.
    timings: Option<PhaseTimings>,
    /// The v2 envelope id of the submitting request, carried through
    /// the queue so worker log lines correlate with the submit.
    cid: Option<String>,
    /// The authenticated tenant that submitted the job. Never journaled
    /// — job slots are admission control, not durable state, so a
    /// replayed job counts toward nobody's quota.
    tenant: Option<String>,
}

#[derive(Default)]
struct QueueInner {
    /// Ids waiting for a worker, in submit order.
    pending: VecDeque<String>,
    states: HashMap<String, JobState>,
    /// Observability metadata per known job; evicted with the job
    /// record so it cannot outgrow the retention cap.
    meta: HashMap<String, JobMeta>,
    /// Specs of every unfinished (queued or running) job — workers take
    /// from here, and journal compaction re-records them.
    live_specs: HashMap<String, AnonymizeSpec>,
    /// Finished job ids in completion order, for bounded eviction.
    finished_order: VecDeque<String>,
    /// Settled ε spend and explicit budgets per dataset handle. Guarded
    /// by the queue mutex like everything else here; every mutation is
    /// journaled first (see the module doc).
    ledger: EpsLedger,
    next_id: u64,
    shutdown: bool,
}

impl QueueInner {
    /// Sum of the ε charges of accepted-but-unfinished jobs reading
    /// `handle`. Together with the ledger's settled spend this is the
    /// handle's total committed spend — live specs are the in-flight
    /// half precisely so replay (which re-enqueues unfinished submits)
    /// reconstructs the same total without any float subtraction.
    fn in_flight(&self, handle: &str) -> f64 {
        self.live_specs
            .values()
            .filter(|s| s.source() == Some(handle))
            .map(|s| s.params.epsilon)
            .sum()
    }

    /// Settled + in-flight spend for `handle` — the value `list`/`info`
    /// report and the `trajdp_eps_spent` gauge publishes.
    fn eps_spent(&self, handle: &str) -> f64 {
        self.ledger.spent(handle) + self.in_flight(handle)
    }

    /// How many unfinished jobs `tenant` has in the queue right now.
    fn tenant_job_slots(&self, tenant: &str) -> usize {
        self.states
            .iter()
            .filter(|(_, s)| matches!(s, JobState::Queued | JobState::Running))
            .filter(|(id, _)| {
                self.meta.get(id.as_str()).and_then(|m| m.tenant.as_deref()) == Some(tenant)
            })
            .count()
    }
    /// Records a completion, evicting the oldest finished jobs past the
    /// retention cap. The record is journal-backed when the result's
    /// bytes sit in the journal at `range` and reach
    /// [`SPILL_RESULT_BYTES`], in memory otherwise. Returns the result
    /// dataset handles of the evicted jobs: a `store:true` result lives
    /// *at most* as long as its job record (LRU pressure or a TTL may
    /// evict it sooner), so the caller — outside this queue mutex — has
    /// the store reclaim them, or they would sit unreachable.
    fn record_done(
        &mut self,
        id: &str,
        result: Arc<Json>,
        range: Option<ResultRange>,
    ) -> Vec<String> {
        let done = match range {
            Some(range) if range.len >= SPILL_RESULT_BYTES as u64 => JobState::Journaled {
                dataset: result.get("dataset").and_then(Json::as_str).map(str::to_string),
                range,
            },
            _ => JobState::Done(result),
        };
        self.states.insert(id.to_string(), done);
        self.finished_order.push_back(id.to_string());
        let mut dropped = Vec::new();
        while self.finished_order.len() > MAX_FINISHED_RETAINED {
            if let Some(evicted) = self.finished_order.pop_front() {
                self.meta.remove(&evicted);
                if let Some(state) = self.states.remove(&evicted) {
                    dropped.extend(state.result_handle().map(str::to_string));
                }
            }
        }
        dropped
    }

    /// Points each journal-backed record [`JournalWriter::rewrite`]
    /// moved at its range in the new journal.
    fn move_results(&mut self, moved: Vec<(String, ResultRange)>) {
        for (id, new) in moved {
            if let Some(JobState::Journaled { range, .. }) = self.states.get_mut(&id) {
                *range = new;
            }
        }
    }

    /// A consistent copy of the state a compacted journal must record,
    /// with the store's `datasets` and id mark `ids`. Cheap to build
    /// under the queue mutex: specs alias their CSV via `Arc` and
    /// results are `Arc`-shared, so nothing is deep-copied here —
    /// serialization happens later, under the journal lock only.
    fn snapshot(&self, datasets: Vec<String>, ids: u64) -> Snapshot {
        let mut unfinished: Vec<&String> = self.live_specs.keys().collect();
        unfinished.sort_by_key(|id| job_number(id).unwrap_or(u64::MAX));
        Snapshot {
            header: Event::Snapshot {
                next: self.next_id,
                ledger: self.ledger.clone(),
                datasets,
                ids,
            },
            submits: unfinished
                .into_iter()
                // PANIC: `unfinished` was collected from `live_specs.keys()`
                // above, with no mutation in between, so every id indexes
                // a present entry.
                .map(|id| (id.clone(), self.live_specs[id].params.clone()))
                .collect(),
            dones: self
                .finished_order
                .iter()
                .filter_map(|id| match self.states.get(id) {
                    Some(JobState::Done(result)) => {
                        Some((id.clone(), DoneRecord::Mem(Arc::clone(result))))
                    }
                    Some(JobState::Journaled { range, .. }) => {
                        Some((id.clone(), DoneRecord::Journaled(range.clone())))
                    }
                    _ => None,
                })
                .collect(),
        }
    }
}

/// Shared job queue + state table. Cloneable handle (`Arc` inside).
#[derive(Clone, Default)]
pub struct JobQueue {
    inner: Arc<(Mutex<QueueInner>, Condvar)>,
    /// Holds the journal, whose lock serializes disk writes apart from
    /// the queue mutex: journal → queue and journal → store only.
    store: DatasetStore,
    /// Observability registry. The queue publishes counters and
    /// histogram samples (all-atomic) from inside its own critical
    /// sections, but the mutex-guarded ε gauge is only ever updated
    /// *after* the queue/journal locks are released; readers (the
    /// `metrics` verb) never touch the queue or journal locks.
    metrics: Arc<Metrics>,
    /// Server-wide default ε budget (`serve --eps-budget`), applied to
    /// any handle without an explicit `upload` budget. Configuration,
    /// not state: it is re-derived from the flag at every start and
    /// never journaled.
    default_eps_budget: Option<f64>,
}

impl JobQueue {
    /// An empty, memory-only queue with its own private dataset store.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty, memory-only queue sharing `store` (so `"store": true`
    /// job results land where `download` can find them).
    pub fn with_store(store: DatasetStore) -> Self {
        Self { inner: Arc::default(), store, metrics: Arc::default(), default_eps_budget: None }
    }

    /// The same queue publishing into `metrics` instead of its private
    /// registry — the server wires all layers to one shared registry.
    /// Republishes any replayed ledger state as `trajdp_eps_spent`
    /// gauges, so a restarted server's metrics reflect spend from the
    /// first scrape.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = metrics;
        // `eps_overview` lets go of the queue mutex before the gauges
        // are set behind their own lock: the read path never couples
        // to queue contention.
        for (handle, (spent, _)) in self.eps_overview() {
            self.metrics.set_eps_spent(&handle, spent);
        }
        self
    }

    /// The same queue applying `budget` as the default ε budget for
    /// handles without an explicit one (`serve --eps-budget`).
    pub fn with_eps_budget(mut self, budget: Option<f64>) -> Self {
        self.default_eps_budget = budget;
        self
    }

    /// The server-wide default ε budget, if one was configured.
    pub fn default_eps_budget(&self) -> Option<f64> {
        self.default_eps_budget
    }

    /// A queue journaled at `path`: replays the existing journal (if
    /// any) into itself and `store` (see `replay`), attaches the journal to
    /// `store`, compacts it, then appends all further events to it.
    pub fn with_journal(store: DatasetStore, path: &Path) -> Result<Self, String> {
        let text = journal::read(path)?;
        let writer = JournalWriter::open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut inner = QueueInner::default();
        replay(&text, &mut inner, &store, &writer.file)
            .map_err(|e| format!("journal {}: {e}", path.display()))?;
        *store.journal.lock().map_err(|e| e.to_string())? = Some(writer);
        let queue = Self {
            inner: Arc::new((Mutex::new(inner), Condvar::new())),
            store,
            metrics: Arc::default(),
            default_eps_budget: None,
        };
        if !text.is_empty() {
            // Startup compaction, best-effort like the runtime path: a
            // failed rewrite (ENOSPC, say) leaves the complete journal
            // in place, which must not brick a server that replayed it.
            if let Some(writer) = queue.store.journal.lock().map_err(|e| e.to_string())?.as_mut() {
                // lint: allow(lock-across-io): compaction must see a frozen journal; the mutex is the dedicated disk-write lock and the server takes no request before this returns
                let _ = queue.rewrite(writer);
            }
        }
        Ok(queue)
    }

    /// Rewrites the journal as the queue's and the store's snapshot and
    /// moves the journal-backed records to the new file, under the
    /// journal lock the caller holds.
    fn rewrite(&self, writer: &mut JournalWriter) -> std::io::Result<()> {
        let poisoned = || std::io::Error::other("job queue state poisoned by a panic");
        let (datasets, ids) =
            self.store.persisted().map_err(|e| std::io::Error::other(e.message))?;
        let snapshot = {
            let q = self.inner.0.lock().map_err(|_| poisoned())?;
            q.snapshot(datasets, ids)
        };
        let moved = writer.rewrite(snapshot)?;
        self.inner.0.lock().map_err(|_| poisoned())?.move_results(moved);
        Ok(())
    }

    /// Enqueues a job, returning its id. Fails once shutdown has begun
    /// (no worker would ever run it — the job would report `"queued"`
    /// forever) or if the journal cannot record it (an unjournaled
    /// accept would be silently lost by a restart). The journal append
    /// — including its fsync — runs outside the queue mutex, so
    /// concurrent `status`/`list` reads never stall behind a large
    /// submit; the id is acknowledged only after the event is durable.
    pub fn submit(&self, spec: AnonymizeSpec) -> Result<String, ApiError> {
        self.submit_scoped(spec, None, None, None)
    }

    /// [`Self::submit`] carrying the submitting request's correlation
    /// id (so worker-side log lines correlate with the v2 envelope of
    /// the request that queued the job), on behalf of an authenticated
    /// tenant: refuses with `quota-exceeded` once the tenant already has
    /// `max_jobs` unfinished jobs, and attributes the job to the tenant
    /// for later slot accounting. Both checks — this one and the ε
    /// budget check every submit runs — happen under the journal lock
    /// that serializes all accepting paths, so two concurrent submits
    /// can never both pass a check only one of them fits under.
    pub fn submit_scoped(
        &self,
        spec: AnonymizeSpec,
        cid: Option<String>,
        tenant: Option<String>,
        max_jobs: Option<usize>,
    ) -> Result<String, ApiError> {
        let poisoned = || ApiError::internal("job queue state poisoned by a panic");
        // Pin the input handle for the job's lifetime: `delete` and
        // eviction must not yank data a replay would re-resolve. A
        // handle deleted since dispatch resolved it fails the pin, and
        // the submit is refused with `dataset-not-found`, as if the
        // delete had landed first.
        let handle = spec.source().map(str::to_string);
        if let Some(h) = &handle {
            self.store.pin(h)?;
        }
        // Every refusal releases the pin taken above.
        let refuse = |e: ApiError| {
            if let Some(h) = &handle {
                self.store.unpin(h);
            }
            e
        };
        let mut journal = self.store.journal.lock().map_err(|_| refuse(poisoned()))?;
        let id = self.admit(&spec, tenant.as_deref(), max_jobs).map_err(refuse)?;
        let mut appended_at = None;
        if let Some(writer) = journal.as_mut() {
            let event = Event::Submit { job: id.clone(), spec: spec.params.clone() };
            // lint: allow(lock-across-io): the journal mutex is the dedicated disk-write lock (order: journal -> queue); the read path never takes it
            match writer.append(event, &self.metrics) {
                Ok(before) => appended_at = Some(before),
                Err(e) => return Err(refuse(ApiError::io(format!("cannot journal submit: {e}")))),
            }
        }
        let (lock, cvar) = &*self.inner;
        let mut q = lock.lock().map_err(|_| refuse(poisoned()))?;
        if q.shutdown {
            // Shutdown raced the journal write: the last workers may
            // already have drained and exited, so enqueueing now could
            // strand the job in "queued" forever. Reject it — and roll
            // the journal back (safe: the lock held since the append
            // means no later event landed), or a restart would run a
            // submit that was never acknowledged.
            drop(q);
            if let (Some(writer), Some(before)) = (journal.as_mut(), appended_at) {
                writer.rollback_to(before);
            }
            return Err(refuse(ApiError::shutting_down(
                "server is shutting down; submit rejected",
            )));
        }
        q.pending.push_back(id.clone());
        q.states.insert(id.clone(), JobState::Queued);
        let charged = spec.source().map(str::to_string);
        q.live_specs.insert(id.clone(), spec);
        q.meta.insert(
            id.clone(),
            JobMeta {
                submitted_at: Some(Instant::now()),
                cid: cid.clone(),
                tenant,
                ..JobMeta::default()
            },
        );
        self.metrics.jobs_submitted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.metrics.set_queue_depth(q.live_specs.len() as u64);
        let eps_gauge = charged.map(|h| (q.eps_spent(&h), h));
        drop(q);
        if let Some((spent, handle)) = eps_gauge {
            self.metrics.set_eps_spent(&handle, spent);
        }
        cvar.notify_one();
        if log_enabled(LogLevel::Info) {
            let mut fields = vec![("job", Json::from(id.as_str()))];
            if let Some(cid) = &cid {
                fields.push(("cid", Json::from(cid.as_str())));
            }
            log_event(LogLevel::Info, "job submitted", &fields);
        }
        Ok(id)
    }

    /// The admission checks of [`Self::submit_scoped`], run under the
    /// journal lock its caller holds: refuses once shutdown has begun,
    /// past the handle's ε budget or past the tenant's `max_jobs`, and
    /// otherwise mints the job id. Refusal leaves no state to unwind:
    /// the job's charge is implicit in its live spec once enqueued.
    fn admit(
        &self,
        spec: &AnonymizeSpec,
        tenant: Option<&str>,
        max_jobs: Option<usize>,
    ) -> Result<String, ApiError> {
        let (lock, _) = &*self.inner;
        let mut q =
            lock.lock().map_err(|_| ApiError::internal("job queue state poisoned by a panic"))?;
        if q.shutdown {
            return Err(ApiError::shutting_down("server is shutting down; submit rejected"));
        }
        if let Some(handle) = spec.source() {
            q.ledger.check(
                handle,
                q.in_flight(handle),
                spec.params.epsilon,
                self.default_eps_budget,
            )?;
        }
        if let (Some(tenant), Some(cap)) = (tenant, max_jobs) {
            if q.tenant_job_slots(tenant) >= cap {
                return Err(ApiError::quota_exceeded(format!(
                    "tenant {tenant:?} already has {cap} unfinished jobs (max_jobs quota)"
                )));
            }
        }
        q.next_id += 1;
        Ok(format!("job-{}", q.next_id))
    }

    /// Current state of a job, if it exists.
    pub fn state(&self, id: &str) -> Option<JobState> {
        let (lock, _) = &*self.inner;
        lock.lock().expect("queue poisoned").states.get(id).cloned()
    }

    /// Number of jobs not yet finished.
    pub fn outstanding(&self) -> usize {
        let (lock, _) = &*self.inner;
        let Ok(q) = lock.lock() else { return 0 };
        q.states.values().filter(|s| matches!(s, JobState::Queued | JobState::Running)).count()
    }

    /// Every known job as `(id, state name)`, in id order — the `list`
    /// verb. Touches only the queue mutex, never the journal.
    pub fn list(&self) -> Vec<(String, &'static str)> {
        let (lock, _) = &*self.inner;
        let Ok(q) = lock.lock() else { return Vec::new() };
        let mut out: Vec<(String, &'static str)> =
            q.states.iter().map(|(id, s)| (id.clone(), s.name())).collect();
        out.sort_by_key(|(id, _)| job_number(id).unwrap_or(u64::MAX));
        out
    }

    /// Blocks until a job is available, returning `None` on shutdown.
    /// The third element is the submitting request's correlation id,
    /// for the worker's log lines.
    fn take(&self) -> Option<(String, AnonymizeSpec, Option<String>)> {
        let (lock, cvar) = &*self.inner;
        let mut q = lock.lock().expect("queue poisoned");
        loop {
            if let Some(id) = q.pending.pop_front() {
                q.states.insert(id.clone(), JobState::Running);
                let spec = q.live_specs.get(&id).expect("pending implies live spec").clone();
                let now = Instant::now();
                let meta = q.meta.entry(id.clone()).or_default();
                meta.started_at = Some(now);
                let cid = meta.cid.clone();
                if let Some(submitted) = meta.submitted_at {
                    self.metrics.queue_wait.observe(now.duration_since(submitted));
                }
                return Some((id, spec, cid));
            }
            if q.shutdown {
                return None;
            }
            q = cvar.wait(q).expect("queue poisoned");
        }
    }

    /// Test shorthand for [`Self::finish_with_timings`] without timings
    /// (production code always finishes via the worker, which has them).
    #[cfg(test)]
    pub(crate) fn finish(&self, id: &str, result: Json) {
        self.finish_with_timings(id, result, None);
    }

    /// [`Self::finish`] carrying the run's per-phase timings, recorded
    /// in the in-memory job metadata (never the journal) so `status`
    /// on the done job can report them.
    fn finish_with_timings(&self, id: &str, result: Json, timings: Option<PhaseTimings>) {
        let mut journal = self.store.journal.lock().expect("journal poisoned");
        // A failed finish append is not fatal: the result stays in the
        // in-memory table, which still answers `status`, and a restart
        // re-runs the job from its journaled submit to the same bytes.
        // The result handle of the first run is named by no event, so
        // the restart deletes it.
        let range = journal.as_mut().and_then(|writer| {
            // lint: allow(lock-across-io): the journal mutex is the dedicated disk-write lock (order: journal -> queue); the read path never takes it
            writer.append_finish(id, &result.to_string(), &self.metrics).ok()
        });
        let (source, dropped, eps_gauge) = {
            let (lock, _) = &*self.inner;
            let mut q = lock.lock().expect("queue poisoned");
            let removed = q.live_specs.remove(id);
            // Settle the job's ε charge: it moves from in-flight
            // (derived from the live spec that just left the table) to
            // the ledger's durable `spent`. Replay performs the same
            // settle from the journaled finish event.
            let mut eps_gauge = None;
            let source = removed.as_ref().and_then(|spec| spec.source().map(str::to_string));
            if let (Some(spec), Some(handle)) = (&removed, &source) {
                q.ledger.settle(handle, spec.params.epsilon);
                eps_gauge = Some((q.eps_spent(handle), handle.clone()));
            }
            let dropped = q.record_done(id, Arc::new(result), range);
            let now = Instant::now();
            let meta = q.meta.entry(id.to_string()).or_default();
            meta.timings = timings;
            if let Some(submitted) = meta.submitted_at {
                meta.duration_secs = Some(now.duration_since(submitted).as_secs_f64());
            }
            if let Some(started) = meta.started_at {
                self.metrics.run_time.observe(now.duration_since(started));
            }
            self.metrics.jobs_completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.metrics.set_queue_depth(q.live_specs.len() as u64);
            (source, dropped, eps_gauge)
        };
        if let Some((spent, handle)) = eps_gauge {
            self.metrics.set_eps_spent(&handle, spent);
        }
        if let Some(handle) = &source {
            self.store.unpin(handle);
        }
        // Results of jobs evicted from the retention window go with
        // their job record; the store keeps one still pinned as some
        // queued job's input until that job ends.
        for handle in dropped {
            self.store.reclaim(&handle);
        }
        if let Some(writer) =
            journal.as_mut().filter(|w| w.finished_appends >= COMPACT_FINISHED_EVENTS)
        {
            // Compaction failure is not fatal either: the append-only
            // journal is still complete, just longer than it needs to
            // be; the next threshold crossing (or startup) retries.
            // lint: allow(lock-across-io): compaction must see a frozen journal; the mutex is the dedicated disk-write lock and the read path never takes it
            if self.rewrite(writer).is_ok() {
                self.metrics.journal_compactions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Wakes all workers and makes further `take` calls return `None`.
    /// Already-queued jobs are still drained before workers exit; new
    /// submits are rejected from this point on.
    pub fn shutdown(&self) {
        let (lock, cvar) = &*self.inner;
        // Recover from poisoning rather than panic: shutdown must always
        // go through, and flipping the flag cannot compound whatever
        // half-state the panicking holder left behind.
        let mut q = lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        q.shutdown = true;
        drop(q);
        cvar.notify_all();
    }

    /// Worker loop: execute jobs until shutdown. A panicking job is
    /// recorded as a failed result instead of killing the worker thread
    /// and stranding the job in `Running` forever. Results are recorded
    /// in the version-less v1 shape — the journal format predates the
    /// envelope and stays stable across protocol versions.
    pub fn work(&self) {
        while let Some((id, spec, cid)) = self.take() {
            let log_fields = |id: &str, cid: &Option<String>| {
                let mut fields = vec![("job", Json::from(id))];
                if let Some(cid) = cid {
                    fields.push(("cid", Json::from(cid.as_str())));
                }
                fields
            };
            if log_enabled(LogLevel::Debug) {
                log_event(LogLevel::Debug, "job started", &log_fields(&id, &cid));
            }
            let run = || run_anonymize(&spec, &self.store, true);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job panicked".to_string());
                    Err(ApiError::internal(format!("job panicked: {msg}")))
                });
            // Pull the executor's phase timings off the response before
            // it is rendered to the version-less journal shape (which
            // deliberately omits them).
            let timings = match &result {
                Ok(Response::Anonymize { timings, .. }) => *timings,
                _ => None,
            };
            if log_enabled(LogLevel::Info) {
                let mut fields = log_fields(&id, &cid);
                match (&result, timings) {
                    (Ok(_), Some(t)) => {
                        fields.push(("ok", Json::Bool(true)));
                        fields.push(("total_secs", Json::from(t.total_secs)));
                        fields.push(("realize_secs", Json::from(t.realize_secs)));
                    }
                    (Ok(_), None) => fields.push(("ok", Json::Bool(true))),
                    (Err(e), _) => {
                        fields.push(("ok", Json::Bool(false)));
                        fields.push(("code", Json::from(e.code.as_str())));
                    }
                }
                log_event(LogLevel::Info, "job finished", &fields);
            }
            self.finish_with_timings(&id, render_v1(result), timings);
        }
    }

    /// The `status` outcome for a job id. A finished job carries its
    /// recorded result (a v1-shaped response body) — the renderer
    /// merges it flat in v1 and nests it under `"result"` in v2.
    pub fn status_response(&self, id: &str) -> Result<Response, ApiError> {
        let (lock, _) = &*self.inner;
        let (state, meta) = {
            let q = lock
                .lock()
                .map_err(|_| ApiError::internal("job queue state poisoned by a panic"))?;
            (q.states.get(id).cloned(), q.meta.get(id).cloned())
        };
        let result = match state {
            None => return Err(ApiError::job_not_found(format!("unknown job {id:?}"))),
            Some(JobState::Done(result)) => result,
            // Read the result back outside the queue mutex (released
            // above) and without the journal lock — a slow disk stalls
            // this request, never concurrent submits or polls.
            Some(JobState::Journaled { range, .. }) => Arc::new(range.json().map_err(|e| {
                ApiError::io(format!("cannot read the result of job {id:?} from the journal: {e}"))
            })?),
            Some(state) => {
                return Ok(Response::JobStatus {
                    job: id.to_string(),
                    state: state.name(),
                    result: None,
                    duration_secs: None,
                    timings: None,
                })
            }
        };
        Ok(Response::JobStatus {
            job: id.to_string(),
            state: "done",
            result: Some(result),
            duration_secs: meta.as_ref().and_then(|m| m.duration_secs),
            timings: meta.and_then(|m| m.timings),
        })
    }

    /// Cancels a **queued** job: journals the cancellation (fsync
    /// before the acknowledgement, like every accepting path), removes
    /// the job record entirely — `status` on a cancelled id answers
    /// `job-not-found` — and unpins its input, refunding the job's
    /// in-flight ε charge implicitly (the live spec that carried it is
    /// gone). Running jobs are never preempted: a worker that took the
    /// job between the state check and the journal append wins the
    /// race, and the journaled cancel is rolled back.
    pub fn cancel(&self, id: &str) -> Result<Response, ApiError> {
        let poisoned = || ApiError::internal("job queue state poisoned by a panic");
        let mut journal = self.store.journal.lock().map_err(|_| poisoned())?;
        let (lock, _) = &*self.inner;
        {
            let q = lock.lock().map_err(|_| poisoned())?;
            match q.states.get(id) {
                None => return Err(ApiError::job_not_found(format!("unknown job {id:?}"))),
                Some(JobState::Queued) => {}
                Some(state) => {
                    return Err(ApiError::dataset_state(format!(
                        "job {id:?} is {}; only queued jobs can be cancelled",
                        state.name()
                    )))
                }
            }
        }
        let mut appended_at = None;
        if let Some(writer) = journal.as_mut() {
            // lint: allow(lock-across-io): the journal mutex is the dedicated disk-write lock (order: journal -> queue); the read path never takes it
            match writer.append(Event::Cancel { job: id.to_string() }, &self.metrics) {
                Ok(before) => appended_at = Some(before),
                Err(e) => return Err(ApiError::io(format!("cannot journal cancel: {e}"))),
            }
        }
        let mut q = lock.lock().map_err(|_| poisoned())?;
        if !matches!(q.states.get(id), Some(JobState::Queued)) {
            // A worker took the job while the append ran. The journal
            // lock held since the append means no later event landed,
            // so the cancel event can be rolled straight back out.
            drop(q);
            if let (Some(writer), Some(before)) = (journal.as_mut(), appended_at) {
                writer.rollback_to(before);
            }
            return Err(ApiError::dataset_state(format!(
                "job {id:?} started running before the cancellation landed; \
                 running jobs are not preempted"
            )));
        }
        q.pending.retain(|pending| pending != id);
        q.states.remove(id);
        q.meta.remove(id);
        let source = q.live_specs.remove(id).and_then(|spec| spec.source().map(str::to_string));
        self.metrics.set_queue_depth(q.live_specs.len() as u64);
        let eps_gauge = source.as_ref().map(|h| (q.eps_spent(h), h.clone()));
        drop(q);
        if let Some((spent, handle)) = eps_gauge {
            self.metrics.set_eps_spent(&handle, spent);
        }
        if let Some(handle) = &source {
            self.store.unpin(handle);
        }
        if log_enabled(LogLevel::Info) {
            log_event(LogLevel::Info, "job cancelled", &[("job", Json::from(id))]);
        }
        Ok(Response::Cancelled { job: id.to_string() })
    }

    /// Journals and applies an explicit per-handle ε budget (`upload`
    /// `eps_budget`). Fails without applying anything if the budget
    /// cannot be made durable — an unjournaled budget would silently
    /// loosen to the server default on restart.
    pub fn set_eps_budget(&self, handle: &str, budget: f64) -> Result<(), ApiError> {
        let poisoned = || ApiError::internal("job queue state poisoned by a panic");
        let mut journal = self.store.journal.lock().map_err(|_| poisoned())?;
        if let Some(writer) = journal.as_mut() {
            let event = Event::Budget { dataset: handle.to_string(), eps_budget: budget };
            // lint: allow(lock-across-io): the journal mutex is the dedicated disk-write lock (order: journal -> queue); the read path never takes it
            if let Err(e) = writer.append(event, &self.metrics) {
                return Err(ApiError::io(format!("cannot journal budget: {e}")));
            }
        }
        let (lock, _) = &*self.inner;
        let mut q = lock.lock().map_err(|_| poisoned())?;
        q.ledger.set_budget(handle, budget);
        Ok(())
    }

    /// Deletes a handle (the `delete` verb; refusals as in
    /// [`DatasetStore::delete`]). A handle with a ledger row journals a
    /// `reset` before its blob is unlinked, and the unlink is made
    /// durable before the journal lock is released, so neither a restart
    /// nor a compaction that drops the `reset` brings back a handle whose
    /// row was forgotten; one without a row journals nothing. The append
    /// is best-effort: the blob goes anyway, and a restart forgets the
    /// row of a handle it does not load. Every ledger mutation holds this
    /// journal lock, so no row appears between the check and the forget.
    pub fn delete(&self, handle: &str) -> Result<usize, ApiError> {
        let poisoned = || ApiError::internal("job journal poisoned by a panic");
        let mut journal = self.store.journal.lock().map_err(|_| poisoned())?;
        let (lock, _) = &*self.inner;
        let bytes = self.store.delete_logged(handle, || {
            if !lock.lock().is_ok_and(|q| q.ledger.row(handle).is_some()) {
                return false;
            }
            let logged = journal.as_mut().is_some_and(|writer| {
                // lint: allow(lock-across-io): the journal mutex is the dedicated disk-write lock (order: journal -> queue); the read path never takes it
                writer.append(Event::Reset { dataset: handle.to_string() }, &self.metrics).is_ok()
            });
            if let Ok(mut q) = lock.lock() {
                q.ledger.forget(handle);
            }
            logged
        })?;
        self.metrics.clear_eps_spent(handle);
        Ok(bytes)
    }

    /// Atomically checks and settles a synchronous run's ε charge
    /// against `handle` — the path for `anonymize` (non-async) on a
    /// stored dataset. The charge is journaled (`spend`) and fsynced
    /// *before* this returns, i.e. before the run starts: a crash
    /// mid-run replays the charge, so the budget can over-count but
    /// never under-count. Refuses with `budget-exhausted` when the
    /// charge does not fit, and with an `io` error when it cannot be
    /// made durable.
    pub fn charge_sync(&self, handle: &str, eps: f64) -> Result<(), ApiError> {
        let poisoned = || ApiError::internal("job queue state poisoned by a panic");
        let mut journal = self.store.journal.lock().map_err(|_| poisoned())?;
        let (lock, _) = &*self.inner;
        {
            let q = lock.lock().map_err(|_| poisoned())?;
            q.ledger.check(handle, q.in_flight(handle), eps, self.default_eps_budget)?;
        }
        if let Some(writer) = journal.as_mut() {
            let event = Event::Spend { dataset: handle.to_string(), eps };
            // lint: allow(lock-across-io): the journal mutex is the dedicated disk-write lock (order: journal -> queue); the read path never takes it
            if let Err(e) = writer.append(event, &self.metrics) {
                return Err(ApiError::io(format!("cannot journal spend: {e}")));
            }
        }
        let mut q = lock.lock().map_err(|_| poisoned())?;
        q.ledger.settle(handle, eps);
        let spent = q.eps_spent(handle);
        drop(q);
        self.metrics.set_eps_spent(handle, spent);
        Ok(())
    }

    /// One handle's `(eps_spent, effective budget)` — settled plus
    /// in-flight spend, and the explicit budget falling back to the
    /// server default. For the `info` verb.
    pub fn eps_info(&self, handle: &str) -> (f64, Option<f64>) {
        let (lock, _) = &*self.inner;
        let Ok(q) = lock.lock() else { return (0.0, self.default_eps_budget) };
        (q.eps_spent(handle), q.ledger.effective_budget(handle, self.default_eps_budget))
    }

    /// `(eps_spent, effective budget)` for every handle the ledger or
    /// the live job table knows — one lock acquisition for the whole
    /// `list` verb. Handles absent from the map have zero spend and the
    /// server default budget.
    pub fn eps_overview(&self) -> HashMap<String, (f64, Option<f64>)> {
        let (lock, _) = &*self.inner;
        let Ok(q) = lock.lock() else { return HashMap::new() };
        let mut handles: HashSet<String> = q.ledger.iter().map(|(h, _)| h.to_string()).collect();
        handles.extend(q.live_specs.values().filter_map(|s| s.source().map(str::to_string)));
        handles
            .into_iter()
            .map(|h| {
                let row = (q.eps_spent(&h), q.ledger.effective_budget(&h, self.default_eps_budget));
                (h, row)
            })
            .collect()
    }
}

/// Rebuilds queue state from journal text, one [`Event`] per line,
/// failing on a line that does not decode or contradicts the events
/// before it, then has `store` load the handles the journal names (see
/// the module doc) and re-queues the unfinished jobs against it.
/// Finished jobs never touch the store, so an input deleted after its
/// job completed cannot brick replay. `text` is the content of `file`;
/// a large result keeps its range there.
fn replay(
    text: &str,
    inner: &mut QueueInner,
    store: &DatasetStore,
    file: &Arc<File>,
) -> Result<(), String> {
    // The handles to load, by number, each with whether a job made it,
    // the handles a `reset` deleted, and the dataset id mark.
    let (mut named, mut gone, mut mark) = (BTreeMap::new(), HashSet::new(), 0);
    // Submit order and unresolved specs of jobs not yet seen to finish.
    let mut unfinished: Vec<String> = Vec::new();
    let mut specs: HashMap<String, AnonymizeParams> = HashMap::new();
    // The shared tail of `finish` and `done`, for the line at `start`.
    // The result handles of records aged out here are named by nothing,
    // so the store does not load them.
    let record = |inner: &mut QueueInner, job: &str, result: Arc<Json>, line: &str, start| {
        let range = journal::result_range(file, line, start, &result);
        inner.record_done(job, result, range);
    };
    // Each line with the byte offset it starts at.
    let lines = text.split_inclusive('\n').scan(0, |next, line| {
        let start = std::mem::replace(next, *next + line.len());
        Some((start, line.trim_end_matches(['\n', '\r'])))
    });
    for (idx, (start, line)) in lines.enumerate().filter(|(_, (_, l))| !l.trim().is_empty()) {
        let fail = |msg: String| format!("line {}: {msg}", idx + 1);
        let event = Event::from_json(line).map_err(fail)?;
        match event {
            Event::Snapshot { next, ledger, datasets, ids } => {
                inner.next_id = inner.next_id.max(next);
                inner.ledger = ledger;
                named.extend(datasets.iter().filter_map(|h| handle_number(h)).map(|n| (n, false)));
                mark = mark.max(ids);
            }
            Event::Budget { dataset, eps_budget } => inner.ledger.set_budget(&dataset, eps_budget),
            Event::Spend { dataset, eps } => inner.ledger.settle(&dataset, eps),
            Event::Reset { dataset } => {
                inner.ledger.forget(&dataset);
                gone.extend(handle_number(&dataset));
            }
            Event::Commit { dataset } => named.extend(handle_number(&dataset).map(|n| (n, false))),
            Event::Ids { upto } => mark = mark.max(upto),
            Event::Submit { job, spec } => {
                // A finish or cancel needs this submit first, so only
                // submits and compacted `done` lines advance the counter.
                inner.next_id = inner.next_id.max(job_number(&job).map_err(fail)?);
                if specs.insert(job.clone(), spec).is_some() || inner.states.contains_key(&job) {
                    return Err(fail(format!("duplicate submit for {job:?}")));
                }
                unfinished.push(job);
            }
            Event::Finish { job, result } => {
                let Some(params) = specs.remove(&job) else {
                    return Err(fail(format!("finish for unsubmitted job {job:?}")));
                };
                // Settle the finished job's ε exactly as the original
                // run did: same f64, added in journal (= completion)
                // order, so the replayed total is bit-identical.
                if let DataRef::Handle(handle) = &params.data {
                    inner.ledger.settle(handle, params.epsilon);
                }
                unfinished.retain(|u| u != &job);
                record(inner, &job, result, line, start);
            }
            Event::Done { job, result } => {
                inner.next_id = inner.next_id.max(job_number(&job).map_err(fail)?);
                if specs.contains_key(&job) || inner.states.contains_key(&job) {
                    return Err(fail(format!("duplicate record for {job:?}")));
                }
                record(inner, &job, result, line, start);
            }
            Event::Cancel { job } => {
                // A cancelled job's record was removed entirely; its
                // in-flight charge went with its spec, so the ledger
                // needs no adjustment.
                if specs.remove(&job).is_none() {
                    return Err(fail(format!("cancel for a job not queued: {job:?}")));
                }
                unfinished.retain(|u| u != &job);
            }
        }
    }
    let results = inner.states.values().filter_map(JobState::result_handle);
    for n in results.filter_map(handle_number) {
        named.entry(n).or_insert(true);
    }
    // An input that no commit or retained record names is a result
    // whose record aged out: it goes with its last pin.
    let inputs = specs.values().filter_map(|params| match &params.data {
        DataRef::Handle(handle) => handle_number(handle),
        DataRef::Inline(_) => None,
    });
    let orphans: Vec<u64> = inputs.filter(|n| !named.contains_key(n)).collect();
    named.extend(orphans.iter().map(|&n| (n, true)));
    // A deleted handle stays deleted, even one a retained job record
    // names as its result and whose unlink a power loss undid.
    named.retain(|n, _| !gone.contains(n));
    let loaded = store.load(&named, mark)?;
    // Ids are never reissued, so the row of a handle that did not load
    // can never be charged again.
    inner.ledger.retain(|handle| loaded.contains(handle));
    // Jobs caught mid-flight re-queue in their original submit order,
    // re-resolving and re-pinning journaled dataset handles.
    for id in unfinished {
        let params = specs.remove(&id).expect("unfinished implies spec recorded");
        let spec = params
            .resolve(store)
            .map_err(|e| format!("cannot re-resolve journaled job {id:?}: {e}"))?;
        if let Some(handle) = spec.source() {
            let _ = store.pin(handle);
        }
        inner.states.insert(id.clone(), JobState::Queued);
        inner.live_specs.insert(id.clone(), spec);
        inner.pending.push_back(id);
    }
    for n in orphans {
        store.reclaim(&format!("ds-{n}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoredData;
    use std::os::unix::fs::FileExt;
    use trajdp_core::Model;
    use trajdp_model::csv::to_csv;
    use trajdp_synth::{generate, GeneratorConfig};

    fn spec() -> AnonymizeSpec {
        let world = generate(&GeneratorConfig::tdrive_profile(4, 20, 3));
        let data = DataRef::Inline(Arc::new(to_csv(&world.dataset)));
        AnonymizeParams { m: 2, seed: 5, ..AnonymizeParams::new(Model::PureLocal, data) }
            .resolve(&DatasetStore::new())
            .unwrap()
    }

    fn wait_done(q: &JobQueue, id: &str) -> Arc<Json> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            match q.state(id) {
                Some(JobState::Done(result)) => return result,
                _ if std::time::Instant::now() > deadline => panic!("job never finished"),
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
    }

    #[test]
    fn ids_are_sequential_and_unique() {
        let q = JobQueue::new();
        let a = q.submit(spec()).unwrap();
        let b = q.submit(spec()).unwrap();
        assert_ne!(a, b);
        assert_eq!(q.state(&a), Some(JobState::Queued));
        assert_eq!(q.outstanding(), 2);
        assert_eq!(q.list(), vec![(a, "queued"), (b, "queued")]);
    }

    #[test]
    fn worker_drains_queue_and_finishes_jobs() {
        let q = JobQueue::new();
        let id = q.submit(spec()).unwrap();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.work())
        };
        let result = wait_done(&q, &id);
        assert_eq!(result.get("ok"), Some(&Json::Bool(true)), "{result}");
        let status = render_v1(q.status_response(&id));
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(status.get("job").and_then(Json::as_str), Some(id.as_str()));
        assert!(status.get("csv").is_some(), "done status inlines the result");
        q.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn shutdown_releases_idle_workers() {
        let q = JobQueue::new();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.work())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        // Regression: a post-shutdown submit used to enqueue a job no
        // worker would ever run, reporting "queued" forever.
        let q = JobQueue::new();
        let accepted = q.submit(spec()).unwrap();
        q.shutdown();
        let err = q.submit(spec()).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::ShuttingDown);
        assert!(err.message.contains("shutting down"), "{err}");
        // The pre-shutdown job is still drained by a late worker.
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.work())
        };
        worker.join().unwrap();
        assert!(matches!(q.state(&accepted), Some(JobState::Done(_))));
        // And the rejected submit left no trace.
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn finished_jobs_are_evicted_oldest_first_beyond_cap() {
        let q = JobQueue::new();
        for i in 0..=MAX_FINISHED_RETAINED {
            q.finish(&format!("job-{i}"), Json::obj([("ok", Json::Bool(true))]));
        }
        // job-0 (oldest) evicted, newest retained.
        assert_eq!(q.state("job-0"), None, "oldest finished job must be evicted");
        assert!(matches!(
            q.state(&format!("job-{MAX_FINISHED_RETAINED}")),
            Some(JobState::Done(_))
        ));
        let r = q.status_response("job-0").unwrap_err();
        assert_eq!(r.code, crate::api::ErrorCode::JobNotFound, "evicted id reports unknown");
    }

    #[test]
    fn retention_eviction_deletes_stored_result_handles() {
        // A store:true result lives as long as its job record: when the
        // record ages out of MAX_FINISHED_RETAINED, the handle (and its
        // slot) goes with it instead of lingering unreachable.
        let store = crate::store::DatasetStore::with_config(crate::store::StoreConfig {
            capacity: 2 * MAX_FINISHED_RETAINED,
            ..crate::store::StoreConfig::default()
        })
        .unwrap();
        let q = JobQueue::with_store(store.clone());
        let mut handles = Vec::new();
        for i in 1..=MAX_FINISHED_RETAINED + 1 {
            let (h, _) = store.insert_data(format!("result {i}\n"), None, true).unwrap();
            q.finish(
                &format!("job-{i}"),
                Json::obj([("ok", Json::Bool(true)), ("dataset", Json::from(h.clone()))]),
            );
            handles.push(h);
        }
        assert_eq!(q.state("job-1"), None, "oldest job record evicted");
        assert!(
            store.resolve(&handles[0]).unwrap_err().message.contains("unknown"),
            "evicted job's result handle must be deleted with it"
        );
        assert!(store.resolve(&handles[1]).is_ok(), "retained jobs keep their results");
        assert!(store.resolve(handles.last().unwrap()).is_ok());
    }

    #[test]
    fn deferred_reclaim_fires_when_the_last_pin_drops() {
        // An aged-out job's result handle that is pinned as a queued
        // job's input must survive until that job finishes — and then
        // be reclaimed, not leak for the process lifetime.
        let store = crate::store::DatasetStore::with_config(crate::store::StoreConfig {
            capacity: 2 * MAX_FINISHED_RETAINED,
            ..crate::store::StoreConfig::default()
        })
        .unwrap();
        let q = JobQueue::with_store(store.clone());
        // ds_r: old job-0's store:true result, re-used as the input of
        // a new queued job (content need not parse — a failed run still
        // finishes and unpins).
        let (ds_r, _) = store.insert_data("not,really,csv\n".to_string(), None, true).unwrap();
        let params = AnonymizeParams {
            m: 2,
            seed: 5,
            ..AnonymizeParams::new(Model::PureLocal, DataRef::Handle(ds_r.clone()))
        };
        let pinned_job = q.submit(params.resolve(&store).unwrap()).unwrap();
        // Age job-0's record (which names ds_r) out of retention.
        q.finish(
            "job-0",
            Json::obj([("ok", Json::Bool(true)), ("dataset", Json::from(ds_r.clone()))]),
        );
        for i in 1..=MAX_FINISHED_RETAINED {
            q.finish(&format!("old-{i}"), Json::obj([("ok", Json::Bool(true))]));
        }
        assert_eq!(q.state("job-0"), None, "job-0's record must have aged out");
        assert!(store.resolve(&ds_r).is_ok(), "pinned handle must survive its record's eviction");
        // The pinning job runs (and fails on the garbage CSV — fine);
        // its finish drops the pin and retries the deferred reclaim.
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.work())
        };
        wait_done(&q, &pinned_job);
        q.shutdown();
        worker.join().unwrap();
        assert!(
            store.resolve(&ds_r).unwrap_err().message.contains("unknown"),
            "deferred reclaim must fire once the last pin drops"
        );
    }

    #[test]
    fn cancelling_the_last_pinning_job_reclaims_an_aged_out_result() {
        // As above, but the pinning job is cancelled instead of run:
        // the pin it drops is the last one, so the result goes.
        let store = crate::store::DatasetStore::with_config(crate::store::StoreConfig {
            capacity: 2 * MAX_FINISHED_RETAINED,
            ..crate::store::StoreConfig::default()
        })
        .unwrap();
        let q = JobQueue::with_store(store.clone());
        let (ds_r, _) = store.insert_data("not,really,csv\n".to_string(), None, true).unwrap();
        let params = AnonymizeParams::new(Model::PureLocal, DataRef::Handle(ds_r.clone()));
        let pinned_job = q.submit(params.resolve(&store).unwrap()).unwrap();
        q.finish(
            "job-0",
            Json::obj([("ok", Json::Bool(true)), ("dataset", Json::from(ds_r.clone()))]),
        );
        for i in 1..=MAX_FINISHED_RETAINED {
            q.finish(&format!("old-{i}"), Json::obj([("ok", Json::Bool(true))]));
        }
        assert!(store.resolve(&ds_r).is_ok(), "pinned handle must survive its record's eviction");
        q.cancel(&pinned_job).unwrap();
        assert!(
            store.resolve(&ds_r).unwrap_err().message.contains("unknown"),
            "the cancel that drops the last pin must reclaim the result"
        );
    }

    #[test]
    fn an_aged_out_result_pinned_across_a_restart_goes_with_its_last_pin() {
        // A queued job pins an old job's result; the old record ages out
        // and a later runtime compaction drops every trace of it from
        // the journal. After a restart the result must still go once
        // the re-queued pinning job finishes.
        let dir = std::env::temp_dir().join("trajdp-journal-pinned-reclaim-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q = JobQueue::with_journal(store.clone(), &path).unwrap();
        let (ds_r, _) = store.insert_data("not,really,csv\n".to_string(), None, true).unwrap();
        let old = q.submit(spec()).unwrap();
        q.finish(
            &old,
            Json::obj([("ok", Json::Bool(true)), ("dataset", Json::from(ds_r.clone()))]),
        );
        let params = AnonymizeParams::new(Model::PureLocal, DataRef::Handle(ds_r.clone()));
        let pinned_job = q.submit(params.resolve(&store).unwrap()).unwrap();
        let filler = spec();
        for _ in 0..2 * MAX_FINISHED_RETAINED {
            let id = q.submit(filler.clone()).unwrap();
            q.finish(&id, Json::obj([("ok", Json::Bool(true))]));
        }
        assert_eq!(q.state(&old), None, "the old record must have aged out");
        let journal = std::fs::read_to_string(&path).unwrap();
        assert!(journal.contains("\"snapshot\"") && !journal.contains(&format!("\"{old}\"")));
        drop(q);

        let store2 = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q2 = JobQueue::with_journal(store2.clone(), &path).unwrap();
        assert!(store2.resolve(&ds_r).is_ok(), "the re-queued job still needs its input");
        let worker = {
            let q = q2.clone();
            std::thread::spawn(move || q.work())
        };
        wait_done(&q2, &pinned_job);
        q2.shutdown();
        worker.join().unwrap();
        assert!(
            store2.resolve(&ds_r).unwrap_err().message.contains("unknown"),
            "the result must go with the last pin, across the restart"
        );
        assert!(!dir.join("datasets").join(format!("{ds_r}.csv")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_restart_never_reissues_a_handle_id_the_journal_names() {
        // job-1's result is deleted by the client; after a restart the
        // next upload must not take its id, or `status job-1` would name
        // another client's data and the record's eviction delete it.
        let dir = std::env::temp_dir().join("trajdp-journal-id-reuse-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q = JobQueue::with_journal(store.clone(), &path).unwrap();
        let (result, _) = store.insert_data("released\n".to_string(), None, true).unwrap();
        let job = q.submit(spec()).unwrap();
        q.finish(
            &job,
            Json::obj([("ok", Json::Bool(true)), ("dataset", Json::from(result.clone()))]),
        );
        store.delete(&result).unwrap();
        drop(q);

        let store2 = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q2 = JobQueue::with_journal(store2.clone(), &path).unwrap();
        let (fresh, _) = store2.insert("upload\n".to_string()).unwrap();
        assert_ne!(fresh, result, "a restart reissued an id a retained job names");
        let named = q2.state(&job).and_then(|s| s.result_handle().map(str::to_string));
        assert_eq!(named.as_deref(), Some(result.as_str()));
        assert!(store2.resolve(&result).unwrap_err().message.contains("unknown"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_job_is_an_error() {
        let q = JobQueue::new();
        let err = q.status_response("job-404").unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::JobNotFound);
        assert_eq!(
            render_v1(q.status_response("job-404")).to_string(),
            r#"{"error":"unknown job \"job-404\"","ok":false}"#,
            "the v1 error shape is frozen"
        );
    }

    #[test]
    fn journal_replay_restores_finished_and_requeues_unfinished() {
        let dir = std::env::temp_dir().join("trajdp-journal-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");

        // Session 1: one job runs to completion, a second is accepted
        // but never picked up (the process "dies" mid-queue).
        let q1 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        let done_id = q1.submit(spec()).unwrap();
        let worker = {
            let q = q1.clone();
            std::thread::spawn(move || q.work())
        };
        let first_result = wait_done(&q1, &done_id);
        let queued_id = q1.submit(spec()).unwrap();
        q1.shutdown(); // stop the worker; queued_id may or may not start
        worker.join().unwrap();
        let queued_result = q1.state(&queued_id);
        drop(q1);

        // Session 2: replay. The finished job answers status with its
        // recorded result; the mid-queue job re-runs deterministically.
        let q2 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q2.state(&done_id), Some(JobState::Done(first_result.clone())));
        match q2.state(&queued_id).unwrap() {
            JobState::Done(replayed) => {
                // The graceful shutdown drained it in session 1; the
                // journaled result must have been restored verbatim.
                assert_eq!(Some(JobState::Done(replayed)), queued_result);
            }
            JobState::Queued => {
                let worker = {
                    let q = q2.clone();
                    std::thread::spawn(move || q.work())
                };
                let replayed = wait_done(&q2, &queued_id);
                assert_eq!(replayed.get("ok"), Some(&Json::Bool(true)), "{replayed}");
                q2.shutdown();
                worker.join().unwrap();
            }
            other => panic!("unexpected replayed state {other:?}"),
        }
        // Ids keep counting up; no collision with replayed jobs.
        let fresh = q2.submit(spec()).unwrap();
        assert!(job_number(&fresh).unwrap() > job_number(&queued_id).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_reruns_job_byte_identically() {
        let dir = std::env::temp_dir().join("trajdp-journal-determinism-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let the_spec = spec();
        let reference = render_v1(run_anonymize(&the_spec, &DatasetStore::new(), false));

        // Submit, then "crash" before any worker runs.
        let q1 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        let id = q1.submit(the_spec).unwrap();
        drop(q1);

        let q2 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q2.state(&id), Some(JobState::Queued));
        let worker = {
            let q = q2.clone();
            std::thread::spawn(move || q.work())
        };
        let replayed = wait_done(&q2, &id);
        assert_eq!(
            replayed.get("csv"),
            reference.get("csv"),
            "replayed run must be byte-identical to the original"
        );
        q2.shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replay_is_strict_but_tolerates_a_torn_final_line() {
        let dir = std::env::temp_dir().join("trajdp-journal-strict-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        q.submit(spec()).unwrap();
        drop(q);

        // A torn final append (no trailing newline) is ignored — and
        // truncated out of the file, so later appends start clean.
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{good}{{\"event\":\"sub")).unwrap();
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q.outstanding(), 1);
        // Regression: a submit after the torn-tail restart used to be
        // appended onto the fragment, fusing into one corrupt mid-file
        // line that bricked every later restart of this state dir.
        q.submit(spec()).unwrap();
        drop(q);
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q.outstanding(), 2, "restart after torn-tail repair must keep working");
        drop(q);

        // A complete final event that lost only its newline is kept
        // and the terminator restored.
        std::fs::write(&path, good.trim_end_matches('\n')).unwrap();
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q.outstanding(), 1);
        q.submit(spec()).unwrap();
        drop(q);
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q.outstanding(), 2, "newline repair must keep the journal appendable");
        drop(q);

        // Corruption anywhere else fails startup loudly.
        std::fs::write(&path, format!("not json\n{good}")).unwrap();
        let err = JobQueue::with_journal(DatasetStore::new(), &path).map(|_| ()).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // So does a semantically invalid event.
        std::fs::write(
            &path,
            format!("{good}{{\"event\":\"finish\",\"job\":\"job-9\",\"result\":{{}}}}\n"),
        )
        .unwrap();
        let err = JobQueue::with_journal(DatasetStore::new(), &path).map(|_| ()).unwrap_err();
        assert!(err.contains("unsubmitted"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A spec whose dataset lives in `store` as a committed handle.
    fn handle_spec(store: &DatasetStore) -> (AnonymizeSpec, String) {
        let world = generate(&GeneratorConfig::tdrive_profile(4, 20, 3));
        let (handle, _) = store.insert(to_csv(&world.dataset)).unwrap();
        let params = AnonymizeParams {
            m: 2,
            seed: 5,
            ..AnonymizeParams::new(Model::PureLocal, DataRef::Handle(handle.clone()))
        };
        (params.resolve(store).unwrap(), handle)
    }

    #[test]
    fn handle_backed_submits_journal_the_handle_and_pin_it() {
        let dir = std::env::temp_dir().join("trajdp-journal-by-handle-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q = JobQueue::with_journal(store.clone(), &path).unwrap();
        let (the_spec, handle) = handle_spec(&store);
        let csv = the_spec.data.text();
        let id = q.submit(the_spec).unwrap();

        // The journal records the handle id, not the resolved CSV.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&format!("\"dataset\":\"{handle}\"")), "{text}");
        assert!(!text.contains(csv.as_str()), "submit must not re-record the CSV text");

        // While the job is queued, the input handle cannot be deleted.
        let err = store.delete(&handle).unwrap_err();
        assert!(err.message.contains("queued or running job"), "{err}");

        // Crash + replay: the handle re-resolves to the same bytes and
        // is re-pinned.
        drop(q);
        let store2 = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q2 = JobQueue::with_journal(store2.clone(), &path).unwrap();
        assert_eq!(q2.state(&id), Some(JobState::Queued));
        assert!(store2.delete(&handle).unwrap_err().message.contains("queued or running"));
        let worker = {
            let q = q2.clone();
            std::thread::spawn(move || q.work())
        };
        let replayed = wait_done(&q2, &id);
        assert_eq!(
            replayed.get("csv"),
            render_v1(run_anonymize(&handle_spec(&store2).0, &store2, false)).get("csv")
        );
        q2.shutdown();
        worker.join().unwrap();
        // Finished: the pin is released and the delete goes through.
        store2.delete(&handle).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_handle_deleted_before_submit_refuses_the_submit() {
        // The handle is parsed when the spec resolves it and deleted
        // before the submit pins it: the submit is refused with
        // `dataset-not-found`, as if the delete had landed first, and
        // leaves nothing in the journal or the queue.
        let dir = std::env::temp_dir().join("trajdp-journal-raced-delete-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q = JobQueue::with_journal(store.clone(), &path).unwrap();
        let world = generate(&GeneratorConfig::tdrive_profile(4, 20, 3));
        let (handle, _) = store.insert_dataset(world.dataset, false).unwrap();
        let params = AnonymizeParams {
            m: 2,
            seed: 5,
            ..AnonymizeParams::new(Model::PureLocal, DataRef::Handle(handle.clone()))
        };
        let the_spec = params.resolve(&store).unwrap();
        assert!(matches!(the_spec.data, StoredData::Parsed(_)));
        store.delete(&handle).unwrap();
        let err = q.submit(the_spec).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::DatasetNotFound, "{err}");
        assert_eq!(q.outstanding(), 0);
        let journal = std::fs::read_to_string(&path).unwrap();
        assert!(!journal.contains("\"submit\""), "{journal}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refused_submits_release_their_pin() {
        let store = DatasetStore::new();
        let q = JobQueue::with_store(store.clone()).with_eps_budget(Some(0.5));
        let (s, handle) = handle_spec_eps(&store, 0.5);
        let pins = || store.list().into_iter().find(|e| e.0 == handle).map(|e| e.3);
        let accepted = q.submit(s.clone()).unwrap();
        assert_eq!(pins(), Some(1));
        // Past the budget, past the tenant's job cap, after shutdown:
        // each refusal leaves the pin count where it was.
        let err = q.submit(s.clone()).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::BudgetExhausted);
        assert_eq!(pins(), Some(1));
        q.set_eps_budget(&handle, 4.0).unwrap();
        q.submit_scoped(s.clone(), None, Some("acme".into()), Some(1)).unwrap();
        let err = q.submit_scoped(s.clone(), None, Some("acme".into()), Some(1)).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::QuotaExceeded);
        assert_eq!(pins(), Some(2));
        q.shutdown();
        assert_eq!(q.submit(s).unwrap_err().code, crate::api::ErrorCode::ShuttingDown);
        assert_eq!(pins(), Some(2));
        assert!(matches!(q.state(&accepted), Some(JobState::Queued)));
    }

    #[test]
    fn compacted_journal_replays_to_identical_state() {
        let dir = std::env::temp_dir().join("trajdp-journal-compaction-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");

        // Session 1: three submits; a and b finish (driven directly so
        // no worker races c into running), c stays queued.
        let q1 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        let a = q1.submit(spec()).unwrap();
        let b = q1.submit(spec()).unwrap();
        let c = q1.submit(spec()).unwrap();
        let result_a = Json::obj([("ok", Json::Bool(true)), ("csv", Json::from("a-bytes\n"))]);
        let result_b = Json::obj([("ok", Json::Bool(true)), ("csv", Json::from("b-bytes\n"))]);
        q1.finish(&a, result_a.clone());
        q1.finish(&b, result_b.clone());
        drop(q1);
        let uncompacted = std::fs::read_to_string(&path).unwrap();
        assert!(uncompacted.contains("\"event\":\"finish\""), "{uncompacted}");

        // Session 2: startup compacts. The rewritten journal must be
        // pure snapshot form — no raw finish events, no dead submits —
        // and replay to exactly the same table as the original text.
        let q2 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        let compacted = std::fs::read_to_string(&path).unwrap();
        assert!(compacted.contains("\"event\":\"snapshot\""), "{compacted}");
        assert!(compacted.contains("\"event\":\"done\""), "{compacted}");
        assert!(!compacted.contains("\"event\":\"finish\""), "{compacted}");
        assert_ne!(compacted, uncompacted);
        assert_eq!(q2.state(&a), Some(JobState::Done(Arc::new(result_a.clone()))));
        assert_eq!(q2.state(&b), Some(JobState::Done(Arc::new(result_b))));
        assert_eq!(q2.state(&c), Some(JobState::Queued));
        // Fresh ids continue past everything the snapshot recorded.
        let fresh = q2.submit(spec()).unwrap();
        assert!(job_number(&fresh).unwrap() > job_number(&c).unwrap());
        drop(q2);

        // Torn-tail repair still works on a compacted journal.
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{good}{{\"event\":\"fin")).unwrap();
        let q3 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q3.state(&a), Some(JobState::Done(Arc::new(result_a))));
        assert_eq!(q3.state(&c), Some(JobState::Queued));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollback_after_compaction_keeps_journal_appendable() {
        // Regression: startup compaction swaps the O_APPEND journal fd
        // for the temp file's plain fd. A rollback (a shutdown racing a
        // submit) truncates with set_len, which does NOT move a plain
        // fd's cursor — the next append then wrote a NUL-filled gap
        // that bricked replay on every later restart.
        let dir = std::env::temp_dir().join("trajdp-journal-rollback-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let q1 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        q1.submit(spec()).unwrap();
        drop(q1);

        // Reopen: the non-empty journal triggers startup compaction.
        let q2 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        {
            // Append-then-rollback directly on the writer, the exact
            // sequence a shutdown-raced submit performs.
            let mut journal = q2.store.journal.lock().unwrap();
            let writer = journal.as_mut().unwrap();
            // Replay rejects a cancel for a job it never saw queued,
            // so the line must be gone from disk, not just skipped.
            let event = Event::Cancel { job: "job-99".to_string() };
            let before = writer.append(event, &q2.metrics).unwrap();
            writer.rollback_to(before);
        }
        let second = q2.submit(spec()).unwrap();
        drop(q2);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains('\0'), "rollback left a NUL gap: {text:?}");
        assert!(!text.contains("job-99"), "rolled-back event survived: {text:?}");
        let q3 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert_eq!(q3.outstanding(), 2, "both real submits must replay");
        assert_eq!(q3.state(&second), Some(JobState::Queued));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_threshold_triggers_runtime_compaction() {
        let dir = std::env::temp_dir().join("trajdp-journal-threshold-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        // Drive finishes directly (no submits needed: compaction writes
        // `done` records, which replay without a spec).
        for i in 1..=COMPACT_FINISHED_EVENTS {
            q.finish(&format!("job-{i}"), Json::obj([("ok", Json::Bool(true))]));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            !text.contains("\"event\":\"finish\""),
            "crossing the threshold must rewrite the journal"
        );
        assert!(text.contains("\"event\":\"snapshot\""));
        drop(q);
        let q2 = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        assert!(matches!(q2.state("job-1"), Some(JobState::Done(_))));
        assert!(matches!(
            q2.state(&format!("job-{COMPACT_FINISHED_EVENTS}")),
            Some(JobState::Done(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression for the lifecycle pass's lock contract: a journal
    /// append stalled on a slow disk must not block `status`/`list`
    /// reads — only other journal writes.
    #[test]
    fn status_answers_while_a_journal_append_is_in_flight() {
        let dir = std::env::temp_dir().join("trajdp-journal-nostall-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        let first = q.submit(spec()).unwrap();
        let big = big_result("read-back");
        let done = q.submit(spec()).unwrap();
        q.finish(&done, big.clone());
        range_of(&q, &done);

        // Simulate an in-flight durable write by holding the journal
        // lock, exactly what a large submit does during its fsync.
        let stalled_write = q.store.journal.lock().unwrap();
        let submitter = {
            let q = q.clone();
            std::thread::spawn(move || q.submit(spec()))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        // The second submit is parked behind the "disk"...
        assert_eq!(q.outstanding(), 1);
        // ...but reads must still answer. A regression (reads behind
        // the journal) deadlocks here; detect via a timed channel.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let q = q.clone();
            let first = first.clone();
            std::thread::spawn(move || {
                let status = render_v1(q.status_response(&first));
                let read_back = render_v1(q.status_response(&done));
                let listed = q.list();
                tx.send((status, read_back, listed)).unwrap();
            })
        };
        let (status, read_back, listed) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("status/list stalled behind an in-flight journal append");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("queued"));
        assert_eq!(read_back.get("csv"), big.get("csv"), "journal-backed status must answer");
        assert_eq!(listed.len(), 2);
        reader.join().unwrap();
        drop(stalled_write);
        submitter.join().unwrap().unwrap();
        assert_eq!(q.outstanding(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The ISSUE-6 lock contract: the metrics registry must add no lock
    /// shared with request handling. With BOTH the journal lock and the
    /// queue mutex held (a worst-case in-flight submit), snapshotting
    /// and recording must still complete — they are atomics-only.
    #[test]
    fn metrics_answer_while_journal_and_queue_locks_are_held() {
        let dir = std::env::temp_dir().join("trajdp-metrics-nostall-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = Arc::new(Metrics::new());
        let q = JobQueue::with_journal(DatasetStore::new(), &dir.join("jobs.jsonl"))
            .unwrap()
            .with_metrics(Arc::clone(&metrics));
        q.submit(spec()).unwrap();

        // Hold both locks in journal → queue order, exactly what a
        // submit does around its fsync.
        let journal_guard = q.store.journal.lock().unwrap();
        let (lock, _) = &*q.inner;
        let queue_guard = lock.lock().unwrap();

        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                metrics.record_request("status", std::time::Duration::from_micros(10));
                metrics.record_error(crate::api::ErrorCode::JobNotFound);
                tx.send(metrics.snapshot()).unwrap();
            })
        };
        let snap = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("metrics stalled behind the queue/journal locks");
        assert_eq!(snap.jobs_submitted, 1);
        assert_eq!(snap.queue_depth, 1);
        assert!(snap.journal_appends >= 1, "the submit append must have been counted");
        assert_eq!(snap.journal_fsync.count, snap.journal_appends);
        reader.join().unwrap();
        drop(queue_guard);
        drop(journal_guard);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jobs_on_one_handle_parse_it_once() {
        let metrics = Arc::new(Metrics::new());
        let store = DatasetStore::new().with_metrics(Arc::clone(&metrics));
        let q = JobQueue::with_store(store.clone());
        let (the_spec, handle) = handle_spec(&store);
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.work())
        };
        let mut results = Vec::new();
        for _ in 0..4 {
            let id = q.submit(the_spec.params.clone().resolve(&store).unwrap()).unwrap();
            results.push(wait_done(&q, &id));
        }
        q.shutdown();
        worker.join().unwrap();
        assert_eq!(metrics.snapshot().dataset_parses, 1, "a canonical handle is parsed once");
        assert!(matches!(store.resolve(&handle), Ok(StoredData::Parsed(_))));
        assert!(results.iter().all(|r| r.get("csv") == results[0].get("csv")));
    }

    #[test]
    fn queue_publishes_job_counters_and_latencies() {
        let metrics = Arc::new(Metrics::new());
        let q = JobQueue::new().with_metrics(Arc::clone(&metrics));
        let id = q.submit_scoped(spec(), Some("req-77".to_string()), None, None).unwrap();
        assert_eq!(metrics.snapshot().queue_depth, 1);
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.work())
        };
        wait_done(&q, &id);
        q.shutdown();
        worker.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_submitted, 1);
        assert_eq!(snap.jobs_completed, 1);
        assert_eq!(snap.queue_depth, 0, "the finish must drain the depth gauge");
        assert_eq!(snap.queue_wait.count, 1);
        assert_eq!(snap.run_time.count, 1);
    }

    #[test]
    fn done_status_reports_duration_and_phase_timings() {
        let q = JobQueue::new();
        let mut the_spec = spec();
        the_spec.params.model = Model::PureGlobal; // exercises realize_tf → stage timings
        let id = q.submit(the_spec).unwrap();
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.work())
        };
        wait_done(&q, &id);
        q.shutdown();
        worker.join().unwrap();
        match q.status_response(&id).unwrap() {
            Response::JobStatus { state: "done", duration_secs, timings, .. } => {
                let d = duration_secs.expect("a finished job must report its wall-clock");
                assert!((0.0..3600.0).contains(&d), "implausible duration {d}");
                let t = timings.expect("an anonymize job must report phase timings");
                assert!(t.total_secs > 0.0);
                assert!(t.realize_secs >= t.build_secs, "realize covers build");
            }
            other => panic!("wrong response {other:?}"),
        }
        // The v2 rendering carries both members; v1 stays frozen.
        let v2 = crate::api::Envelope {
            version: crate::api::ProtocolVersion::V2,
            id: None,
            tenant: None,
        };
        let rendered = crate::api::render(&v2, q.status_response(&id));
        assert!(rendered.get("duration_secs").is_some());
        assert!(rendered.get("timings").is_some());
        let v1 = render_v1(q.status_response(&id));
        assert!(v1.get("duration_secs").is_none(), "v1 done-status shape is frozen");
        assert!(v1.get("timings").is_none(), "v1 done-status shape is frozen");
    }

    /// The `dataset` member of a finished job's result.
    fn result_dataset(result: &Json) -> String {
        result.get("dataset").and_then(Json::as_str).expect("a stored result").to_string()
    }

    /// The blob of `handle` in the state dir `dir`.
    fn blob_of(dir: &Path, handle: &str) -> std::path::PathBuf {
        dir.join("datasets").join(format!("{handle}.csv"))
    }

    /// A store persisted in `dir/datasets` and a queue journaled at
    /// `dir/jobs.jsonl`: the server's restart path.
    fn reopen(dir: &Path) -> (DatasetStore, JobQueue) {
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q = JobQueue::with_journal(store.clone(), &dir.join("jobs.jsonl")).unwrap();
        (store, q)
    }

    #[test]
    fn orphaned_job_results_are_reconciled_at_startup() {
        // Crash window: a `store:true` result is inserted, but its job's
        // `finish` never lands. The restart deletes the result, and the
        // re-run mints a new handle.
        let dir = state_dir("trajdp-journal-orphan-test");
        let (store, q) = reopen(&dir);
        let mut stored_spec = spec();
        stored_spec.params.store_result = true;
        let id = q.submit(stored_spec.clone()).unwrap();
        let crashed = q.submit(stored_spec).unwrap();
        // The first job runs to completion, as a worker runs it; its
        // finish line names its result, which must survive restarts.
        let (taken, first, _) = q.take().unwrap();
        assert_eq!(taken, id);
        let done = render_v1(run_anonymize(&first, &store, true));
        let kept = result_dataset(&done);
        q.finish(&id, done);
        // The second job's worker stores its result and dies before the
        // finish append.
        let (_, second, _) = q.take().unwrap();
        let orphan = result_dataset(&render_v1(run_anonymize(&second, &store, true)));
        assert!(blob_of(&dir, &orphan).exists());
        // And a plain client upload, which no job names.
        let upload = store.insert("client,upload\n".to_string()).unwrap().0;
        drop((store, q));

        let (store2, q2) = reopen(&dir);
        assert!(
            store2.resolve(&orphan).unwrap_err().message.contains("unknown"),
            "unreferenced job result must be reconciled away"
        );
        assert!(!blob_of(&dir, &orphan).exists());
        assert!(store2.resolve(&kept).is_ok(), "journal-referenced result must be kept");
        assert!(store2.resolve(&upload).is_ok(), "client uploads are never reconciled");
        assert!(matches!(q2.state(&id), Some(JobState::Done(_))));
        assert_eq!(q2.state(&crashed), Some(JobState::Queued));
        let worker = {
            let q = q2.clone();
            std::thread::spawn(move || q.work())
        };
        let rerun = result_dataset(&wait_done(&q2, &crashed));
        q2.shutdown();
        worker.join().unwrap();
        assert!(handle_number(&rerun) > handle_number(&orphan), "{rerun} after {orphan}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_blob_without_its_commit_is_swept_at_restart() {
        // Crash window: an upload's blob is durable, but the process
        // dies before its `commit` event.
        let dir = state_dir("trajdp-journal-uncommitted-blob-test");
        let (store, q) = reopen(&dir);
        let id = store.begin().unwrap();
        store.append(&id, "traj_id,x,y,t\n").unwrap();
        std::fs::write(blob_of(&dir, &id), "traj_id,x,y,t\n").unwrap();
        drop((store, q));

        let (store, _q) = reopen(&dir);
        assert!(!blob_of(&dir, &id).exists(), "a blob no event names must be deleted");
        assert_eq!(store.resolve(&id).unwrap_err().code, crate::api::ErrorCode::DatasetNotFound);
        let fresh = store.begin().unwrap();
        assert!(handle_number(&fresh) > handle_number(&id), "{fresh} reissued {id}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reset_whose_unlink_was_lost_stays_deleted() {
        // Crash window: the `reset` of a charged handle is durable, but
        // a power loss undoes the unlink that followed it. Once for an
        // upload, and once for an async job's result, which its job's
        // `finish` line (after the compaction, `done` line) still names.
        let dir = state_dir("trajdp-journal-lost-unlink-test");
        let (store, q) = reopen(&dir);
        let (_, upload) = handle_spec(&store);
        q.set_eps_budget(&upload, 2.0).unwrap();
        let mut stored_spec = spec();
        stored_spec.params.store_result = true;
        let job = q.submit(stored_spec).unwrap();
        let (_, taken, _) = q.take().unwrap();
        let done = render_v1(run_anonymize(&taken, &store, true));
        let result = result_dataset(&done);
        q.finish(&job, done);
        for handle in [&upload, &result] {
            q.charge_sync(handle, 0.5).unwrap();
            let bytes = std::fs::read(blob_of(&dir, handle)).unwrap();
            q.delete(handle).unwrap();
            assert!(!blob_of(&dir, handle).exists());
            std::fs::write(blob_of(&dir, handle), bytes).unwrap();
        }
        drop((store, q));

        // Twice: the first start replays the `reset`s and compacts them
        // away; the second replays the compacted journal.
        for _ in 0..2 {
            let (store, q) = reopen(&dir);
            assert!(matches!(q.state(&job), Some(JobState::Done(_))));
            for handle in [&upload, &result] {
                assert_eq!(
                    store.resolve(handle).unwrap_err().code,
                    crate::api::ErrorCode::DatasetNotFound
                );
                assert!(q.inner.0.lock().unwrap().ledger.row(handle).is_none());
                assert_eq!(q.eps_info(handle), (0.0, None));
                assert!(!blob_of(&dir, handle).exists(), "the blob must be swept");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commits_on_both_sides_of_a_runtime_compaction_reload() {
        let dir = state_dir("trajdp-journal-compaction-commit-test");
        let (store, q) = reopen(&dir);
        let (before, _) = store.insert("before\n".to_string()).unwrap();
        // Driven directly, like `finish_threshold_triggers_runtime_compaction`.
        for i in 1..=COMPACT_FINISHED_EVENTS {
            q.finish(&format!("job-{i}"), Json::obj([("ok", Json::Bool(true))]));
        }
        let journal = std::fs::read_to_string(dir.join("jobs.jsonl")).unwrap();
        assert!(journal.contains(&format!(r#""datasets":["{before}"]"#)), "{journal}");
        assert!(!journal.contains(r#""event":"commit""#), "the snapshot folds the commit");
        let (after, _) = store.insert("after\n".to_string()).unwrap();
        drop((store, q));

        let (store, _q) = reopen(&dir);
        assert_eq!(store.resolve(&before).unwrap().text().as_str(), "before\n");
        assert_eq!(store.resolve(&after).unwrap().text().as_str(), "after\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_dirs_of_older_servers_are_refused() {
        // Each holds what only a server from before the journal kept the
        // store's record wrote: the id mark file, a job result's
        // provenance suffix, or a blob with no id mark in the journal.
        for old in ["ids", "ds-1.job.csv", "ds-1.csv"] {
            let dir = state_dir("trajdp-journal-old-dir-test");
            let datasets = dir.join("datasets");
            std::fs::create_dir_all(&datasets).unwrap();
            std::fs::write(datasets.join(old), "").unwrap();
            let store = DatasetStore::open(Some(datasets.clone())).unwrap();
            let err =
                JobQueue::with_journal(store, &dir.join("jobs.jsonl")).map(|_| ()).unwrap_err();
            assert!(err.contains(&datasets.display().to_string()), "{old}: {err}");
            assert!(datasets.join(old).exists(), "{old}: a refused dir is left as it was");
        }
        std::fs::remove_dir_all(std::env::temp_dir().join("trajdp-journal-old-dir-test")).ok();
    }

    #[test]
    fn rows_of_handles_gone_by_eviction_are_forgotten_at_restart() {
        let dir = state_dir("trajdp-journal-evicted-row-test");
        let open = || {
            let cfg = crate::store::StoreConfig {
                dir: Some(dir.join("datasets")),
                capacity: 2,
                ..crate::store::StoreConfig::default()
            };
            let store = DatasetStore::with_config(cfg).unwrap();
            let metrics = Arc::new(Metrics::new());
            let q = JobQueue::with_journal(store.clone(), &dir.join("jobs.jsonl"))
                .unwrap()
                .with_metrics(Arc::clone(&metrics));
            (store, q, metrics)
        };
        let (store, q, _) = open();
        let (_, evicted) = handle_spec(&store);
        let (_, live) = handle_spec(&store);
        for handle in [&evicted, &live] {
            q.set_eps_budget(handle, 2.0).unwrap();
            q.charge_sync(handle, 0.1).unwrap();
            q.charge_sync(handle, 0.2).unwrap();
        }
        // At the cap, the next insert evicts the colder handle.
        store.resolve(&live).unwrap();
        store.insert("third\n".to_string()).unwrap();
        assert!(store.resolve(&evicted).is_err());
        let kept = q.eps_info(&live);
        drop((store, q));

        let (_store, q, metrics) = open();
        assert!(q.inner.0.lock().unwrap().ledger.row(&evicted).is_none());
        assert!(!q.eps_overview().contains_key(&evicted), "list must have no row for it");
        let gauges = metrics.snapshot().eps_spent;
        assert!(gauges.iter().all(|(handle, _)| handle != &evicted), "{gauges:?}");
        let (spent, budget) = q.eps_info(&live);
        assert_eq!((spent.to_bits(), budget), (kept.0.to_bits(), kept.1));
        assert!(gauges.contains(&(live.clone(), spent)), "{gauges:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_cost_scales_with_live_state_not_deleted_uploads() {
        // n and 8n budgeted upload → commit → delete cycles beside one
        // live upload: both compacted journals have the same lines.
        let lines = |cycles: usize| {
            let dir = state_dir(&format!("trajdp-journal-cycles-{cycles}-test"));
            let (store, q) = reopen(&dir);
            handle_spec(&store);
            for _ in 0..cycles {
                let id = store.begin().unwrap();
                q.set_eps_budget(&id, 1.0).unwrap();
                store.append(&id, "traj_id,x,y,t\n").unwrap();
                store.commit(&id).unwrap();
                q.delete(&id).unwrap();
            }
            drop((store, q));
            let _reopened = reopen(&dir);
            let text = std::fs::read_to_string(dir.join("jobs.jsonl")).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            text.lines().count()
        };
        assert_eq!(lines(16), lines(128));
    }

    /// A result body of at least [`SPILL_RESULT_BYTES`], identifiable by
    /// its tag.
    fn big_result(tag: &str) -> Json {
        Json::obj([
            ("ok", Json::Bool(true)),
            ("csv", Json::from(format!("{tag},{}\n", "x".repeat(SPILL_RESULT_BYTES)))),
        ])
    }

    /// The range of a journal-backed record; panics on any other state.
    fn range_of(q: &JobQueue, id: &str) -> ResultRange {
        match q.state(id) {
            Some(JobState::Journaled { range, .. }) => range,
            other => panic!("{id} must be journal-backed, got {other:?}"),
        }
    }

    /// Asserts that `status` of `id` answers in v1 and v2 with the bytes
    /// a memory-only queue gives for `result`.
    fn assert_status_matches_memory(q: &JobQueue, id: &str, result: &Json) {
        let memory = JobQueue::new();
        memory.finish(id, result.clone());
        assert!(matches!(memory.state(id), Some(JobState::Done(_))));
        for version in [crate::api::ProtocolVersion::V1, crate::api::ProtocolVersion::V2] {
            let envelope = crate::api::Envelope { version, id: None, tenant: None };
            let render =
                |q: &JobQueue| crate::api::render(&envelope, q.status_response(id)).to_string();
            assert!(render(q) == render(&memory), "{version:?} status of {id} differs");
        }
    }

    /// A state dir of its own for one test.
    fn state_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Points the record of `id` at `file` instead of the journal.
    fn swap_range_file(q: &JobQueue, id: &str, file: File) {
        let mut inner = q.inner.0.lock().unwrap();
        match inner.states.get_mut(id) {
            Some(JobState::Journaled { range, .. }) => range.file = Arc::new(file),
            other => panic!("{id} must be journal-backed, got {other:?}"),
        }
    }

    #[test]
    fn large_results_spill_to_disk_and_status_reads_back() {
        let dir = state_dir("trajdp-spill-basic-test");
        let path = dir.join("jobs.jsonl");
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        let big = big_result("big");
        let small = Json::obj([("ok", Json::Bool(true))]);
        let (a, b) = (q.submit(spec()).unwrap(), q.submit(spec()).unwrap());
        q.finish(&a, big.clone());
        q.finish(&b, small.clone());

        // The large result keeps only its range, in the journal's own
        // `finish` line; the small one stays in memory.
        let range = range_of(&q, &a);
        let journal = std::fs::read(&path).unwrap();
        let bytes = &journal[range.offset as usize..(range.offset + range.len) as usize];
        assert_eq!(bytes, big.to_string().as_bytes());
        assert!(matches!(q.state(&b), Some(JobState::Done(_))));
        assert_eq!(q.outstanding(), 0, "journal-backed jobs are finished jobs");
        assert_eq!(q.list(), vec![(a.clone(), "done"), (b.clone(), "done")]);
        assert_eq!(render_v1(q.status_response(&a)).get("csv"), big.get("csv"));
        assert!(!dir.join("results").exists());
        drop(q);

        // Replay of the `finish` line records its range too.
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        range_of(&q, &a);
        assert_status_matches_memory(&q, &a, &big);
        assert_status_matches_memory(&q, &b, &small);

        // A corrupt range answers `io` for that job only.
        let range = range_of(&q, &a);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .write_at(b"#", range.offset)
            .unwrap();
        let err = q.status_response(&a).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::Io, "{err}");
        assert_status_matches_memory(&q, &b, &small);
        // So does an unreadable one.
        swap_range_file(&q, &a, std::fs::OpenOptions::new().write(true).open(&path).unwrap());
        let err = q.status_response(&a).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::Io, "{err}");
        assert_eq!(q.list().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spilled_results_survive_compaction_and_replay() {
        let dir = state_dir("trajdp-spill-replay-test");
        let path = dir.join("jobs.jsonl");
        let big = big_result("durable");
        // The record's range must be in the live journal, and answer as
        // an in-memory record would.
        let check = |q: &JobQueue| {
            let range = range_of(q, "job-1");
            let live = Arc::clone(&q.store.journal.lock().unwrap().as_ref().unwrap().file);
            assert!(Arc::ptr_eq(&range.file, &live), "the record must move to the new journal");
            assert_status_matches_memory(q, "job-1", &big);
        };
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        // Driven directly, like `finish_threshold_triggers_runtime_compaction`:
        // the compaction below turns every finish into a `done` record.
        q.finish("job-1", big.clone());
        check(&q);
        for i in 2..=COMPACT_FINISHED_EVENTS {
            q.finish(&format!("job-{i}"), Json::obj([("ok", Json::Bool(true))]));
        }
        let journal = std::fs::read_to_string(&path).unwrap();
        assert!(!journal.contains("\"event\":\"finish\""), "runtime compaction must have run");
        check(&q);
        drop(q);
        // Twice: replay and startup compaction, then again on what that
        // compaction wrote.
        for _ in 0..2 {
            let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
            check(&q);
        }
        assert!(!dir.join("results").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evicted_spilled_jobs_reclaim_their_handles_without_reading_the_journal() {
        let dir = state_dir("trajdp-spill-evict-test");
        let path = dir.join("jobs.jsonl");
        let store = crate::store::DatasetStore::with_config(crate::store::StoreConfig {
            capacity: 2 * MAX_FINISHED_RETAINED,
            ..crate::store::StoreConfig::default()
        })
        .unwrap();
        let q = JobQueue::with_journal(store.clone(), &path).unwrap();
        let (handle, _) = store.insert_data("result\n".to_string(), None, true).unwrap();
        let Json::Obj(mut result) = big_result("evicted") else { unreachable!() };
        result.insert("dataset".to_string(), Json::from(handle.clone()));
        q.finish("job-1", Json::Obj(result));
        assert!(
            matches!(q.state("job-1"), Some(JobState::Journaled { dataset: Some(h), .. }) if h == handle)
        );
        // The record can no longer read its result; its eviction must not need to.
        swap_range_file(&q, "job-1", std::fs::OpenOptions::new().write(true).open(&path).unwrap());
        assert_eq!(q.status_response("job-1").unwrap_err().code, crate::api::ErrorCode::Io);
        for i in 2..=MAX_FINISHED_RETAINED + 1 {
            q.finish(&format!("job-{i}"), Json::obj([("ok", Json::Bool(true))]));
        }
        assert_eq!(q.state("job-1"), None, "oldest job record evicted");
        assert!(
            store.resolve(&handle).unwrap_err().message.contains("unknown"),
            "evicted job's result handle must be reclaimed with it"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_result_whose_finish_append_failed_stays_in_memory() {
        let dir = state_dir("trajdp-spill-failed-append-test");
        let path = dir.join("jobs.jsonl");
        let q = JobQueue::with_journal(DatasetStore::new(), &path).unwrap();
        // A read-only handle: every append fails.
        q.store.journal.lock().unwrap().as_mut().unwrap().file =
            Arc::new(File::open(&path).unwrap());
        let big = big_result("unjournaled");
        q.finish("job-1", big.clone());
        assert!(matches!(q.state("job-1"), Some(JobState::Done(_))));
        assert_status_matches_memory(&q, "job-1", &big);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleting_an_uncharged_handle_journals_nothing() {
        let dir = state_dir("trajdp-reset-test");
        let path = dir.join("jobs.jsonl");
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let metrics = Arc::new(Metrics::new());
        let q = JobQueue::with_journal(store.clone(), &path)
            .unwrap()
            .with_metrics(Arc::clone(&metrics));
        let (_, plain) = handle_spec(&store);
        let (_, budgeted) = handle_spec(&store);
        let (_, charged) = handle_spec(&store);
        q.set_eps_budget(&budgeted, 2.0).unwrap();
        q.charge_sync(&charged, 0.25).unwrap();
        let (journal, appends) =
            (std::fs::read(&path).unwrap(), metrics.snapshot().journal_appends);
        q.delete(&plain).unwrap();
        assert_eq!(metrics.snapshot().journal_appends, appends);
        assert_eq!(std::fs::read(&path).unwrap(), journal);
        q.delete(&budgeted).unwrap();
        q.delete(&charged).unwrap();
        assert_eq!(metrics.snapshot().journal_appends, appends + 2);
        let text = std::fs::read_to_string(&path).unwrap();
        for handle in [&budgeted, &charged] {
            assert!(text.contains(&format!("{{\"dataset\":\"{handle}\",\"event\":\"reset\"}}")));
        }
        drop(q);
        let q =
            JobQueue::with_journal(DatasetStore::open(Some(dir.join("datasets"))).unwrap(), &path)
                .unwrap();
        let ledger = q.inner.0.lock().unwrap().ledger.clone();
        assert!(ledger.is_empty(), "every row must be forgotten after replay");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// [`handle_spec`], with the job's ε overridden. Dyadic values
    /// (0.25, 0.5) keep the budget arithmetic exact in the asserts.
    fn handle_spec_eps(store: &DatasetStore, epsilon: f64) -> (AnonymizeSpec, String) {
        let (mut s, handle) = handle_spec(store);
        s.params.epsilon = epsilon;
        (s, handle)
    }

    #[test]
    fn budget_gates_submits_counting_in_flight_jobs() {
        let store = DatasetStore::new();
        let q = JobQueue::with_store(store.clone()).with_eps_budget(Some(1.0));
        let (s, handle) = handle_spec_eps(&store, 0.5);
        // No worker runs, so both accepted jobs stay in flight: the
        // budget must count them, not just settled spend.
        q.submit(s.clone()).unwrap();
        q.submit(s.clone()).unwrap();
        let err = q.submit(s.clone()).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::BudgetExhausted);
        assert!(err.message.contains(&handle), "{err}");
        // Synchronous charges share the same accumulator.
        let err = q.charge_sync(&handle, 0.25).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::BudgetExhausted);
        assert_eq!(q.eps_info(&handle), (1.0, Some(1.0)));
        // An inline (source-less) spec is never budget-gated: the
        // server holds no handle to account it against.
        q.submit(spec()).unwrap();
        // A per-dataset budget overrides the server default — widening
        // to 2.0 lets one more half-ε job through, exactly to the cap.
        q.set_eps_budget(&handle, 2.0).unwrap();
        q.submit(s.clone()).unwrap();
        q.submit(s.clone()).unwrap();
        assert_eq!(q.eps_info(&handle), (2.0, Some(2.0)));
        assert_eq!(q.submit(s).unwrap_err().code, crate::api::ErrorCode::BudgetExhausted);
        // The queued jobs pin the handle: its delete is refused and its
        // ledger row, budget and spend, stays.
        assert_eq!(q.delete(&handle).unwrap_err().code, crate::api::ErrorCode::DatasetInUse);
        assert_eq!(q.eps_info(&handle), (2.0, Some(2.0)));
    }

    #[test]
    fn cancel_dequeues_refunds_budget_and_survives_replay() {
        let dir = std::env::temp_dir().join("trajdp-cancel-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q = JobQueue::with_journal(store.clone(), &path).unwrap().with_eps_budget(Some(1.0));
        let (s, handle) = handle_spec_eps(&store, 0.5);
        let a = q.submit(s.clone()).unwrap();
        let b = q.submit(s.clone()).unwrap();
        assert_eq!(q.submit(s.clone()).unwrap_err().code, crate::api::ErrorCode::BudgetExhausted);

        // Cancel dequeues b: its record is gone, its pin released, and
        // its in-flight ε refunded — the third submit now fits.
        match q.cancel(&b).unwrap() {
            Response::Cancelled { job } => assert_eq!(job, b),
            other => panic!("unexpected cancel response {other:?}"),
        }
        assert_eq!(q.state(&b), None);
        assert_eq!(q.cancel(&b).unwrap_err().code, crate::api::ErrorCode::JobNotFound);
        assert_eq!(q.status_response(&b).unwrap_err().code, crate::api::ErrorCode::JobNotFound);
        assert_eq!(q.eps_info(&handle), (0.5, Some(1.0)));
        let c = q.submit(s.clone()).unwrap();

        // Only queued jobs can be cancelled: a finished job reports its
        // state instead of being silently "cancelled".
        q.finish(&a, Json::obj([("ok", Json::Bool(true))]));
        let err = q.cancel(&a).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::DatasetState);
        assert!(err.message.contains("done"), "{err}");

        // Replay: the cancellation is durable (b stays gone, c is
        // re-queued) and the accumulator comes back exactly — a's
        // finish settled 0.5, c holds 0.5 in flight.
        drop(q);
        let store2 = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q2 = JobQueue::with_journal(store2.clone(), &path).unwrap().with_eps_budget(Some(1.0));
        assert_eq!(q2.state(&b), None, "cancelled job must not be resurrected");
        assert_eq!(q2.state(&c), Some(JobState::Queued));
        assert_eq!(q2.eps_info(&handle), (1.0, Some(1.0)));
        assert_eq!(
            q2.submit(s).unwrap_err().code,
            crate::api::ErrorCode::BudgetExhausted,
            "replayed ledger must still refuse over-budget submits"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ledger_replay_is_exact_across_compaction_and_torn_tails() {
        let dir = std::env::temp_dir().join("trajdp-ledger-replay-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
        let q = JobQueue::with_journal(store.clone(), &path).unwrap();
        let (_, handle) = handle_spec(&store);
        // 0.1 + 0.2 is the classic inexact sum: replay must reproduce
        // the same accumulated f64 bit for bit, not a re-rounded one.
        q.set_eps_budget(&handle, 2.5).unwrap();
        q.charge_sync(&handle, 0.1).unwrap();
        q.charge_sync(&handle, 0.2).unwrap();
        let before = q.eps_info(&handle);
        assert_eq!(before, (0.1 + 0.2, Some(2.5)));
        drop(q);

        // Reopen twice: the first replay compacts the journal into a
        // snapshot event, so the second exercises the snapshot's ledger
        // round-trip as well as the raw event path.
        for reopen in 0..2 {
            let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
            let q = JobQueue::with_journal(store, &path).unwrap();
            assert_eq!(q.eps_info(&handle), before, "reopen {reopen} drifted");
            drop(q);
        }

        // A spend torn mid-write (the crash-between-write-and-ack case)
        // is discarded like any torn tail: the spend was never
        // acknowledged, so dropping it cannot under-count an answer.
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            format!("{good}{{\"event\":\"spend\",\"dataset\":\"{handle}\",\"eps\":0."),
        )
        .unwrap();
        let q =
            JobQueue::with_journal(DatasetStore::open(Some(dir.join("datasets"))).unwrap(), &path)
                .unwrap();
        assert_eq!(q.eps_info(&handle), before);
        drop(q);

        // A complete spend that only lost its newline is kept: it may
        // have been acknowledged, so it must be counted.
        let good = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            format!("{good}{{\"event\":\"spend\",\"dataset\":\"{handle}\",\"eps\":0.25}}"),
        )
        .unwrap();
        let q =
            JobQueue::with_journal(DatasetStore::open(Some(dir.join("datasets"))).unwrap(), &path)
                .unwrap();
        assert_eq!(q.eps_info(&handle), (before.0 + 0.25, Some(2.5)));
        drop(q);

        // Semantically invalid ledger events fail startup loudly.
        for (bad, diagnostic) in [
            ("{\"event\":\"spend\",\"eps\":0.5}", "without dataset"),
            ("{\"event\":\"spend\",\"dataset\":\"ds-1\",\"eps\":-1}", "positive"),
            ("{\"event\":\"budget\",\"dataset\":\"ds-1\"}", "eps_budget"),
            // A snapshot's ledger obeys the rule its events do.
            ("{\"event\":\"snapshot\",\"ledger\":{\"ds-1\":{\"spent\":-0.5}},\"next\":1}", "spent"),
            (
                "{\"event\":\"snapshot\",\"ledger\":{\"ds-1\":{\"budget\":0,\"spent\":0}},\"next\":1}",
                "budget",
            ),
        ] {
            let good = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, format!("{good}{bad}\n")).unwrap();
            let err = JobQueue::with_journal(DatasetStore::new(), &path).map(|_| ()).unwrap_err();
            assert!(err.contains(diagnostic), "{bad} must fail with {diagnostic}: {err}");
            let line = format!("line {}:", good.lines().count() + 1);
            assert!(err.contains(&line), "{bad} must fail at {line} {err}");
            std::fs::write(&path, good).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
