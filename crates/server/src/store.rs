//! Server-side dataset handles for chunked transfer, with a bounded
//! storage lifecycle.
//!
//! Shipping a T-Drive-scale corpus inline as one CSV string inside a
//! single JSON line runs into [`crate::service::MAX_REQUEST_BYTES`].
//! The store lets clients stream a dataset in bounded pieces instead:
//! `upload` opens a pending handle (`ds-1`, `ds-2`, …), any number of
//! `chunk` commands append to it, and `commit` seals it. Committed
//! handles can then stand in for inline CSV in `anonymize` / `stats` /
//! `evaluate` requests and are read back in bounded pieces by
//! `download`.
//!
//! ## Lifecycle
//!
//! The store holds at most `capacity` handles, and it alone ends a
//! handle's life, in four ways:
//!
//! * **`delete`** — the explicit protocol verb. Deleting a handle that
//!   is pinned by a queued/running job is rejected with a distinct
//!   error: yanking data out from under an accepted job would make its
//!   journal replay unable to re-run it.
//! * **LRU eviction** — when a new `upload`/`insert` finds the store
//!   full, the least-recently-used *unpinned committed* handle is
//!   evicted (its blob removed). Handles loaded on restart enter the
//!   LRU cold, in id order, so an old restart residue is evicted before
//!   anything a live client has touched.
//! * **TTL sweep** — with a configured [`StoreConfig::ttl`], committed
//!   handles untouched for longer than the TTL are evicted by
//!   [`DatasetStore::sweep`]; independent of the TTL, pending uploads
//!   abandoned before `commit` for longer than
//!   [`StoreConfig::upload_ttl`] are reclaimed (a crashed uploader must
//!   not hold a slot until restart). The sweep runs before every
//!   `upload`/`insert` and can be driven periodically by the server.
//! * **Reclaim** — [`DatasetStore::reclaim`] ends a job result whose
//!   job record is gone. An unpinned handle goes at once; one pinned as
//!   a queued/running job's input is marked, and the `unpin` that drops
//!   its last pin (the job finished or was cancelled) removes it.
//!
//! ## Persistence
//!
//! With a persistence directory (the server's `--state-dir`), every
//! committed dataset is also written to its blob, `<dir>/ds-<id>.csv`,
//! outside the store mutex: a multi-GB write must not stall concurrent
//! reads, so the entry sits in a `Committing` state that rejects
//! mutation until it lands. The job journal, once a journaled
//! [`crate::jobs::JobQueue`] attaches it, is the only record of which
//! blobs are live and which ids were handed out, and one rule orders
//! every write: **the blob before the event that names it, and the
//! `reset` before the unlink.** A `commit`, or an `insert` other than
//! an async job's result (its `finish` line names it), appends a
//! `commit` event; minting past the id mark first appends an `ids` event
//! moving it `ID_BLOCK` ids on, so no id is ever reissued, not even a
//! pending upload's. At startup `DatasetStore::load` loads exactly the
//! blobs the replayed journal names and deletes the other blobs, so a
//! crash leaves nothing the next start keeps. A store without a
//! journal persists blobs and reloads none; pending uploads are memory
//! only, and a crashed upload starts over.
//!
//! ## One form per dataset
//!
//! A committed entry holds its data in exactly one form
//! ([`StoredData`]): the CSV text, or the parsed [`Dataset`] whose
//! rendering is exactly that text. Its `bytes` — the CSV length — is
//! what quotas, gauges, `list` and `download` report in either form.
//! The entry changes form when a reader needs the other one:
//!
//! * **Text → parsed**: the first pipeline read of a handle
//!   ([`DatasetStore::parse`], from a job worker or a synchronous verb)
//!   parses the text outside the mutex. If the text is canonical — the
//!   parse renders back to exactly its bytes — and the entry still
//!   holds that same text, the parse replaces it, so later jobs skip
//!   the parse. A non-canonical upload stays text and is parsed per use.
//! * **Results**: job and `gen` results are stored parsed directly
//!   ([`DatasetStore::insert_dataset`]); they are rendered once to
//!   persist the file and to count their bytes.
//! * **Parsed → text**: `download` renders a parsed entry once, outside
//!   the mutex, and the entry becomes text again, so the pieces of a
//!   chunked download slice one rendering.
//!
//! An entry changes form at most once each way. Once its text proves
//! non-canonical, or a download renders it, it is *settled*: it stays
//! text and later jobs parse it per use without the canonical check.
//! So jobs and download pieces alternating on one handle cost one
//! rendering and one check, never one per piece.
//!
//! Blobs are always CSV; a loaded handle holds text.

use crate::api::ApiError;
use crate::journal::{Event, JournalWriter};
use crate::ledger::TenantLimits;
use crate::obs::Metrics;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use trajdp_model::csv::{from_csv, renders_to, round_trip, to_csv};
use trajdp_model::{Dataset, ModelError};

/// Upper bound on one assembled dataset (pending or committed).
pub const MAX_DATASET_BYTES: usize = 4 * (1 << 30);
/// Default upper bound on concurrently held handles (pending +
/// committed): a shared server must not let clients accumulate datasets
/// without bound. When full, `upload`/`insert` first sweep expired
/// entries, then evict the LRU unpinned committed handle; only when
/// nothing is evictable (everything pinned or still pending) do they
/// fail.
pub const MAX_STORED_DATASETS: usize = 256;
/// Hard cap on one `download` piece; requests asking for more are
/// clamped, keeping every response line bounded.
pub const MAX_DOWNLOAD_CHUNK_BYTES: usize = 8 * 1024 * 1024;
/// Piece size used when a `download` request names no `max_bytes`.
pub const DEFAULT_DOWNLOAD_CHUNK_BYTES: usize = 1024 * 1024;
/// Default age past which a pending upload with no new `chunk` is
/// considered abandoned and reclaimed by the sweep.
pub const UPLOAD_TTL: Duration = Duration::from_secs(15 * 60);
/// Ids reserved per `ids` event: minting pays one small fsynced append
/// per block, and a restart skips at most one block of unused ids.
const ID_BLOCK: u64 = 1024;

/// Tuning knobs of a [`DatasetStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Persistence directory; `None` for memory-only.
    pub dir: Option<PathBuf>,
    /// Maximum concurrently held handles (pending + committed).
    pub capacity: usize,
    /// Evict committed handles untouched for this long; `None` keeps
    /// them until deleted or LRU-evicted.
    pub ttl: Option<Duration>,
    /// Reclaim pending uploads untouched for this long.
    pub upload_ttl: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { dir: None, capacity: MAX_STORED_DATASETS, ttl: None, upload_ttl: UPLOAD_TTL }
    }
}

/// Largest char boundary of `s` that is ≤ `i` (so chunk cuts never
/// split a UTF-8 scalar).
pub(crate) fn floor_char_boundary(s: &str, i: usize) -> usize {
    if i >= s.len() {
        return s.len();
    }
    let mut i = i;
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A committed dataset in the one form its entry holds. Both forms are
/// shared, so a request resolving a handle aliases the store's copy
/// instead of duplicating it.
#[derive(Debug, Clone, PartialEq)]
pub enum StoredData {
    /// The CSV text.
    Text(Arc<String>),
    /// The parsed dataset; `to_csv` of it is exactly the text it
    /// stands for.
    Parsed(Arc<Dataset>),
}

enum Entry {
    /// Being assembled by `chunk` commands. `touched` is the last
    /// `begin`/`append` time, for the abandoned-upload sweep.
    Pending { buf: String, touched: Instant, owner: Option<String> },
    /// Owned by an in-flight `commit`/`insert` that is persisting to
    /// disk outside the lock; rejects all mutation until it lands. The
    /// tenant owner rides along so the commit tail can restore it, and
    /// the byte length so the tenant's quota still counts it.
    Committing { owner: Option<String>, bytes: usize },
    /// Sealed; usable as a request dataset and by `download`.
    Committed {
        data: StoredData,
        /// Length of the CSV text, whichever form `data` holds.
        bytes: usize,
        /// The entry keeps the form it holds: set once its text proved
        /// non-canonical or a download rendered it, so a job and a
        /// download alternating on the handle cannot flip it back and
        /// forth, re-parsing and re-rendering the whole dataset.
        settled: bool,
        /// Monotonic LRU stamp: larger = used more recently.
        last_used: u64,
        /// Wall-clock of the last use, for the TTL sweep.
        touched: Instant,
        /// Queued/running jobs referencing this handle; a pinned entry
        /// is never evicted and cannot be deleted.
        pins: usize,
        /// Set by [`DatasetStore::reclaim`] while pinned: the `unpin`
        /// that drops the last pin removes the entry.
        reclaim: bool,
        /// An async job's `store:true` result, which its job's record
        /// (not a `commit` or a snapshot) names. In memory only.
        from_job: bool,
        /// The authenticated tenant that uploaded the dataset, for
        /// quota accounting ([`StoreInner::usage`]). In-memory only:
        /// ownership is admission control, not durable state, so
        /// datasets reloaded from disk (and job results) are unowned.
        owner: Option<String>,
    },
}

impl Entry {
    fn owner(&self) -> Option<&str> {
        match self {
            Entry::Pending { owner, .. }
            | Entry::Committing { owner, .. }
            | Entry::Committed { owner, .. } => owner.as_deref(),
        }
    }

    /// CSV bytes the entry holds or stands for.
    fn bytes(&self) -> usize {
        match self {
            Entry::Pending { buf, .. } => buf.len(),
            Entry::Committing { bytes, .. } | Entry::Committed { bytes, .. } => *bytes,
        }
    }
}

struct StoreInner {
    /// The last id handed out.
    next_id: u64,
    /// The journaled id mark: minting past it extends the mark first.
    /// Unbounded without a journal.
    reserved: u64,
    /// LRU clock, bumped on every touch of a committed entry.
    clock: u64,
    entries: HashMap<String, Entry>,
    dir: Option<PathBuf>,
    capacity: usize,
    ttl: Option<Duration>,
    upload_ttl: Duration,
    /// Observability registry. Counters and gauges are atomics: the
    /// store computes values under its own mutex and publishes them
    /// with plain stores — a `metrics` snapshot never takes this lock.
    metrics: Arc<Metrics>,
}

impl StoreInner {
    /// Datasets and bytes currently attributed to `owner` — pending
    /// uploads count too (their bytes are already resident), so a
    /// tenant cannot dodge its byte quota by never committing.
    fn usage(&self, owner: &str) -> (usize, usize) {
        let mut datasets = 0;
        let mut bytes = 0;
        for entry in self.entries.values() {
            if entry.owner() == Some(owner) {
                datasets += 1;
                bytes += entry.bytes();
            }
        }
        (datasets, bytes)
    }

    /// Publishes the store gauges. Called at the tail of every mutating
    /// operation, while this mutex is already held; the write side is a
    /// pair of relaxed atomic stores, so readers never queue behind it.
    fn publish_gauges(&self) {
        let bytes: usize = self.entries.values().map(Entry::bytes).sum();
        self.metrics.set_store_gauges(bytes as u64, self.entries.len() as u64);
    }

    fn touch(&mut self, id: &str) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(Entry::Committed { last_used, touched, .. }) = self.entries.get_mut(id) {
            *last_used = clock;
            *touched = Instant::now();
        }
    }

    /// Installs `data` (`bytes` of CSV) as the committed entry of `id`
    /// with a fresh LRU/TTL stamp — the single tail of both `commit`
    /// and `insert_data`, so a future `Committed` field cannot be
    /// threaded into one path and missed in the other.
    fn install_committed(
        &mut self,
        id: &str,
        data: StoredData,
        bytes: usize,
        from_job: bool,
        owner: Option<String>,
    ) {
        self.clock += 1;
        let stamp = self.clock;
        self.entries.insert(
            id.to_string(),
            Entry::Committed {
                data,
                bytes,
                settled: false,
                last_used: stamp,
                touched: Instant::now(),
                pins: 0,
                reclaim: false,
                from_job,
                owner,
            },
        );
    }

    /// Hands out the next handle id, the one mint of `begin` and
    /// `insert`; `None` once the id mark is used up, until
    /// [`DatasetStore::extend_ids`] journals a new one. So every id is
    /// on record before it leaves, and a restart never reissues it.
    fn mint(&mut self) -> Option<String> {
        (self.next_id < self.reserved).then(|| {
            self.next_id += 1;
            format!("ds-{}", self.next_id)
        })
    }

    /// Unlinks `id`'s blob, if the store persists. An unlink is a
    /// metadata operation (no data fsync), so it is cheap enough to run
    /// under the lock — only the bulk writes of `persist()` must happen
    /// outside it.
    fn unlink(&self, id: &str) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_file(blob(dir, id));
        }
    }

    /// Removes `id`'s entry and, unless it was a pending upload, its
    /// blob: the one place an entry leaves the store besides `delete`.
    fn remove(&mut self, id: &str) -> Option<Entry> {
        let removed = self.entries.remove(id);
        if matches!(removed, Some(Entry::Committed { .. } | Entry::Committing { .. })) {
            self.unlink(id);
        }
        removed
    }

    /// [`DatasetStore::reclaim`] under the lock: removes an unpinned
    /// handle, marks a pinned one for its last `unpin`. A handle still
    /// mid-commit is no job's result yet, so nothing names it for
    /// reclaim.
    fn reclaim_entry(&mut self, id: &str) {
        match self.entries.get_mut(id) {
            Some(Entry::Committed { pins, reclaim, .. }) if *pins > 0 => *reclaim = true,
            Some(Entry::Committing { .. }) | None => {}
            Some(_) => drop(self.remove(id)),
        }
    }

    /// Drops pending uploads untouched for the upload TTL and (with a
    /// TTL) stale unpinned committed entries. Returns how many slots
    /// were reclaimed.
    fn expire(&mut self, now: Instant) -> usize {
        self.metrics.store_ttl_sweeps.fetch_add(1, Relaxed);
        let expired = |touched: &Instant, ttl: Duration| now.duration_since(*touched) >= ttl;
        let stale: Vec<String> = self
            .entries
            .iter()
            .filter_map(|(id, e)| match e {
                Entry::Pending { touched, .. } if expired(touched, self.upload_ttl) => {
                    Some(id.clone())
                }
                Entry::Committed { touched, pins: 0, .. }
                    if self.ttl.is_some_and(|ttl| expired(touched, ttl)) =>
                {
                    Some(id.clone())
                }
                _ => None,
            })
            .collect();
        for id in &stale {
            if let Some(Entry::Committed { .. }) = self.remove(id) {
                self.metrics.store_evictions.fetch_add(1, Relaxed);
            }
        }
        stale.len()
    }

    /// Makes room for one more handle: sweeps, then evicts LRU unpinned
    /// committed entries until under the cap (a store reloaded from a
    /// directory holding more datasets than the configured capacity —
    /// e.g. after a `--max-datasets` cut — must shrink to it, not stay
    /// one-in-one-out above it forever). Errors when every remaining
    /// slot is pinned or pending.
    fn make_room(&mut self) -> Result<(), ApiError> {
        self.expire(Instant::now());
        while self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .filter_map(|(id, e)| match e {
                    Entry::Committed { last_used, pins: 0, .. } => Some((*last_used, id.clone())),
                    _ => None,
                })
                .min();
            match victim {
                Some((_, id)) => {
                    self.remove(&id);
                    self.metrics.store_evictions.fetch_add(1, Relaxed);
                }
                None => {
                    return Err(ApiError::store_full(format!(
                        "dataset store is full ({} handles, none evictable); \
                         delete a dataset or commit/abandon pending uploads",
                        self.capacity
                    )))
                }
            }
        }
        Ok(())
    }
}

/// Shared dataset store. Cloneable handle (`Arc` inside).
#[derive(Clone)]
pub struct DatasetStore {
    inner: Arc<Mutex<StoreInner>>,
    /// The job journal, shared with the journaled queue that attaches
    /// it ([`crate::jobs::JobQueue::with_journal`]); `None` inside until
    /// then. Lock order: journal → store, never the reverse.
    pub(crate) journal: Arc<Mutex<Option<JournalWriter>>>,
    /// Test hook: when set, `persist` blocks on this lock *outside* the
    /// store mutex — the no-stall regression tests hold it to simulate
    /// a slow disk while concurrent reads must keep answering.
    #[cfg(test)]
    persist_gate: Option<Arc<Mutex<()>>>,
}

impl Default for DatasetStore {
    fn default() -> Self {
        Self::new()
    }
}

/// The held journal lock.
type Journal<'a> = MutexGuard<'a, Option<JournalWriter>>;

/// The blob of handle `id` under `dir`.
fn blob(dir: &Path, id: &str) -> PathBuf {
    dir.join(format!("{id}.csv"))
}

/// Makes the creates, renames and unlinks of entries in `dir` durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// The number of a `ds-<n>` handle.
pub(crate) fn handle_number(id: &str) -> Option<u64> {
    id.strip_prefix("ds-")?.parse().ok()
}

impl DatasetStore {
    /// An empty, memory-only store with default capacity.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default()).expect("memory-only store cannot fail")
    }

    /// Opens a store persisted under `dir` (pass `None` for
    /// memory-only) with default knobs.
    pub fn open(dir: Option<PathBuf>) -> std::io::Result<Self> {
        Self::with_config(StoreConfig { dir, ..StoreConfig::default() })
    }

    /// Opens a store with explicit lifecycle knobs, creating the
    /// persistence directory if missing. It loads nothing: a journaled
    /// queue loads what its journal names (`DatasetStore::load`).
    pub fn with_config(cfg: StoreConfig) -> std::io::Result<Self> {
        if let Some(dir) = &cfg.dir {
            std::fs::create_dir_all(dir)?;
        }
        let inner = StoreInner {
            next_id: 0,
            reserved: u64::MAX,
            clock: 0,
            entries: HashMap::new(),
            dir: cfg.dir,
            capacity: cfg.capacity.max(1),
            ttl: cfg.ttl,
            upload_ttl: cfg.upload_ttl,
            metrics: Arc::default(),
        };
        Ok(Self {
            inner: Arc::new(Mutex::new(inner)),
            journal: Arc::default(),
            #[cfg(test)]
            persist_gate: None,
        })
    }

    /// Loads the blobs a replayed journal names (`named`: handle number →
    /// minted by a job) cold in id order, deletes every other blob and
    /// temp file, and resumes minting past the id `mark`. The deletes are
    /// durable before this returns, so the startup compaction that drops
    /// the `reset` lines cannot outlive them. A named handle without a
    /// blob stays gone. Refuses, naming the directory, what an older
    /// server wrote: an `ids` file, any other `ds-*` file (its job
    /// results had their own suffix), or a blob with no mark.
    pub(crate) fn load(
        &self,
        named: &BTreeMap<u64, bool>,
        mark: u64,
    ) -> Result<HashSet<String>, String> {
        let dir = self.lock().map_err(|e| e.message)?.dir.clone();
        let mut blobs = Vec::new();
        if let Some(dir) = &dir {
            let fail = |e: std::io::Error| format!("cannot load {}: {e}", dir.display());
            let mut names = Vec::new();
            for entry in std::fs::read_dir(dir).map_err(fail)? {
                names.extend(entry.map_err(fail)?.file_name().into_string());
            }
            let blob_number = |name: &str| name.strip_suffix(".csv").and_then(handle_number);
            let ours =
                |name: &str| blob_number(name.strip_suffix(".tmp").unwrap_or(name)).is_some();
            let old = names.iter().find(|name| {
                *name == "ids"
                    || (name.starts_with("ds-") && !ours(name))
                    || (mark == 0 && ours(name))
            });
            if let Some(name) = old {
                let dir = dir.display();
                return Err(format!("{dir} was written by an older server (it holds {name:?}); start on a fresh --state-dir"));
            }
            let live = |name: &str| blob_number(name).is_some_and(|n| named.contains_key(&n));
            for name in names.iter().filter(|name| ours(name) && !live(name)) {
                std::fs::remove_file(dir.join(name)).map_err(fail)?;
            }
            sync_dir(dir).map_err(fail)?;
            for (&n, &from_job) in named {
                let id = format!("ds-{n}");
                match std::fs::read_to_string(blob(dir, &id)) {
                    Ok(text) => blobs.push((id, from_job, text)),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(format!("cannot load dataset {id}: {e}")),
                }
            }
        }
        let mut s = self.lock().map_err(|e| e.message)?;
        s.next_id = s.next_id.max(mark);
        s.reserved = s.next_id;
        // Cold LRU stamps in id order: on the first eviction the oldest
        // restart residue goes first.
        let mut loaded = HashSet::new();
        for (id, from_job, text) in blobs {
            let bytes = text.len();
            s.install_committed(&id, StoredData::Text(Arc::new(text)), bytes, from_job, None);
            loaded.insert(id);
        }
        s.publish_gauges();
        Ok(loaded)
    }

    /// The store's part of a compaction snapshot: the committed handles
    /// no job names, in id order, and the id mark. Called under the
    /// journal lock, which every `commit` and mark extension holds.
    pub(crate) fn persisted(&self) -> Result<(Vec<String>, u64), ApiError> {
        let s = self.lock()?;
        let mut numbers: Vec<u64> = s
            .entries
            .iter()
            .filter(|(_, e)| matches!(e, Entry::Committed { from_job: false, .. }))
            .filter_map(|(id, _)| handle_number(id))
            .collect();
        numbers.sort_unstable();
        Ok((numbers.into_iter().map(|n| format!("ds-{n}")).collect(), s.reserved))
    }

    /// The store mutex, with poisoning surfaced as a stable `internal`
    /// error instead of a server-killing panic. A poisoned store means
    /// a worker panicked mid-mutation; refusing every subsequent
    /// operation with a wire error keeps the connection plane alive and
    /// the failure observable, where an unwrap would take down the
    /// whole process.
    fn lock(&self) -> Result<MutexGuard<'_, StoreInner>, ApiError> {
        self.inner.lock().map_err(|_| ApiError::internal("store state poisoned by a panic"))
    }

    /// Appends `event` to the attached journal, if any, and returns the
    /// journal lock (taken before the store lock) still held.
    fn log(&self, event: Event) -> Result<Journal<'_>, ApiError> {
        let poisoned = || ApiError::internal("job journal poisoned by a panic");
        let mut journal = self.journal.lock().map_err(|_| poisoned())?;
        if let Some(writer) = journal.as_mut() {
            let metrics = {
                let s = self.lock()?;
                Arc::clone(&s.metrics)
            };
            // lint: allow(lock-across-io): the journal mutex is the dedicated disk-write lock (order: journal -> store); the store lock is not held here
            if let Err(e) = writer.append(event, &metrics) {
                return Err(ApiError::io(format!("cannot journal a dataset event: {e}")));
            }
        }
        Ok(journal)
    }

    /// Moves the id mark [`ID_BLOCK`] ids past the last id handed out by
    /// journaling an `ids` event. Replay keeps the largest mark, so two
    /// mints racing to extend it append two lines and lose nothing.
    fn extend_ids(&self) -> Result<(), ApiError> {
        let upto = self.lock()?.next_id.saturating_add(ID_BLOCK);
        let _journal = self.log(Event::Ids { upto })?;
        let mut s = self.lock()?;
        s.reserved = s.reserved.max(upto);
        Ok(())
    }

    /// Attaches the shared observability registry and seeds the
    /// bytes/handles gauges from the current table (a store reloaded
    /// from disk starts non-empty). The registry propagates through the
    /// shared inner state, so clones made before or after see it too.
    pub fn with_metrics(self, metrics: Arc<Metrics>) -> Self {
        if let Ok(mut s) = self.lock() {
            s.metrics = metrics;
            s.publish_gauges();
        }
        self
    }

    /// Number of held handles (pending + committed).
    pub fn count(&self) -> usize {
        self.lock().map(|s| s.entries.len()).unwrap_or(0)
    }

    /// Runs the expiry sweep (abandoned uploads + TTL-stale committed
    /// entries), returning how many slots were reclaimed. Also runs
    /// implicitly before every `begin`/`insert`.
    pub fn sweep(&self) -> usize {
        let Ok(mut s) = self.lock() else { return 0 };
        let reclaimed = s.expire(Instant::now());
        s.publish_gauges();
        reclaimed
    }

    /// Opens a new pending handle for chunked upload, evicting the LRU
    /// unpinned committed dataset if the store is full.
    pub fn begin(&self) -> Result<String, ApiError> {
        self.begin_for(None)
    }

    /// [`Self::begin`] attributing the handle to an authenticated
    /// tenant, refused once the tenant holds its `max_datasets` quota.
    /// The check runs under the lock that inserts the handle, so
    /// concurrent uploads cannot all pass it. Ownership follows the
    /// handle through commit.
    pub fn begin_for(&self, tenant: Option<(&str, TenantLimits)>) -> Result<String, ApiError> {
        let (mut s, id) = self.mint_room(|s| match tenant {
            Some((tenant, TenantLimits { max_datasets: Some(cap), .. }))
                if s.usage(tenant).0 >= cap =>
            {
                Err(ApiError::quota_exceeded(format!(
                    "tenant {tenant:?} already holds {cap} datasets (max_datasets quota)"
                )))
            }
            _ => Ok(()),
        })?;
        s.entries.insert(
            id.clone(),
            Entry::Pending {
                buf: String::new(),
                touched: Instant::now(),
                owner: tenant.map(|(tenant, _)| tenant.to_string()),
            },
        );
        s.publish_gauges();
        Ok(id)
    }

    /// The store lock, once `quota` passes, with room made for one more
    /// handle and that handle's id minted. A used-up id mark is extended
    /// with the store lock released, since the journal lock comes first.
    fn mint_room(
        &self,
        quota: impl Fn(&StoreInner) -> Result<(), ApiError>,
    ) -> Result<(MutexGuard<'_, StoreInner>, String), ApiError> {
        loop {
            let mut s = self.lock()?;
            quota(&s)?;
            s.make_room()?;
            if let Some(id) = s.mint() {
                return Ok((s, id));
            }
            drop(s);
            self.extend_ids()?;
        }
    }

    /// Appends one piece to a pending handle, returning the assembled
    /// size so far.
    pub fn append(&self, id: &str, data: &str) -> Result<usize, ApiError> {
        self.append_for(id, data, None)
    }

    /// [`Self::append`] on behalf of an authenticated tenant, refused
    /// when the piece would put the tenant's bytes (pending buffers
    /// included) over its `max_bytes` quota. The check runs under the
    /// lock that appends, so concurrent chunks cannot all pass it.
    pub fn append_for(
        &self,
        id: &str,
        data: &str,
        tenant: Option<(&str, TenantLimits)>,
    ) -> Result<usize, ApiError> {
        let mut s = self.lock()?;
        if let Some((tenant, TenantLimits { max_bytes: Some(cap), .. })) = tenant {
            let bytes = s.usage(tenant).1;
            if bytes + data.len() > cap {
                return Err(ApiError::quota_exceeded(format!(
                    "chunk would put tenant {tenant:?} over its {cap}-byte quota \
                     ({bytes} bytes already stored)"
                )));
            }
        }
        let assembled = match s.entries.get_mut(id) {
            None => return Err(ApiError::dataset_not_found(format!("unknown dataset {id:?}"))),
            Some(Entry::Committed { .. }) => {
                return Err(ApiError::dataset_state(format!(
                    "dataset {id:?} is already committed; chunks are rejected"
                )))
            }
            Some(Entry::Committing { .. }) => {
                return Err(ApiError::dataset_state(format!(
                    "dataset {id:?} is being committed; chunks are rejected"
                )))
            }
            Some(Entry::Pending { buf, touched, .. }) => {
                if buf.len().saturating_add(data.len()) > MAX_DATASET_BYTES {
                    return Err(ApiError::payload_too_large(format!(
                        "dataset {id:?} would exceed {MAX_DATASET_BYTES} bytes"
                    )));
                }
                buf.push_str(data);
                *touched = Instant::now();
                buf.len()
            }
        };
        s.publish_gauges();
        Ok(assembled)
    }

    /// Seals a pending handle, making it usable as request input and by
    /// `download`. Returns the final size. The blob and its `commit`
    /// are durable before the acknowledgement, written **outside the
    /// store mutex** so reads never stall behind them; a failure leaves
    /// the handle pending so the client may retry.
    pub fn commit(&self, id: &str) -> Result<usize, ApiError> {
        let (mut buf, owner, dir) = {
            let mut s = self.lock()?;
            let (buf, owner) = match s.entries.remove(id) {
                Some(Entry::Pending { buf, owner, .. }) => (buf, owner),
                other => {
                    let state = match &other {
                        None => {
                            return Err(ApiError::dataset_not_found(format!(
                                "unknown dataset {id:?}"
                            )))
                        }
                        Some(Entry::Committing { .. }) => "already being committed",
                        Some(_) => "already committed",
                    };
                    s.entries.extend(other.map(|entry| (id.to_string(), entry)));
                    return Err(ApiError::dataset_state(format!("dataset {id:?} is {state}")));
                }
            };
            let bytes = buf.len();
            s.entries.insert(id.to_string(), Entry::Committing { owner: owner.clone(), bytes });
            (buf, owner, s.dir.clone())
        };
        let _journal = match self.persist(dir, id, &buf, false) {
            Ok(journal) => journal,
            Err(e) => {
                let pending = Entry::Pending { buf, touched: Instant::now(), owner };
                self.lock()?.entries.insert(id.to_string(), pending);
                return Err(e);
            }
        };
        // The held text keeps none of the growth slack its appends left.
        buf.shrink_to_fit();
        let mut s = self.lock()?;
        let bytes = buf.len();
        s.install_committed(id, StoredData::Text(Arc::new(buf)), bytes, false, owner);
        s.publish_gauges();
        Ok(bytes)
    }

    /// Stores already-complete CSV text of a client-owned dataset,
    /// returning its handle and size. Like `commit`, the persist runs
    /// outside the store mutex.
    pub fn insert(&self, csv: String) -> Result<(String, usize), ApiError> {
        self.insert_data(csv, None, false)
    }

    /// Stores a produced dataset (a job or `gen` result kept
    /// server-side), held parsed: it is rendered once, here, to persist
    /// the file and count its bytes. The held dataset is exactly what
    /// parsing that text gives back ([`round_trip`], which skips that
    /// parse); one that does not survive the trip (an empty trajectory,
    /// say) is held as the text.
    pub fn insert_dataset(&self, ds: Dataset, from_job: bool) -> Result<(String, usize), ApiError> {
        let csv = to_csv(&ds);
        let parsed = round_trip(ds).map(|mut ds| {
            ds.shrink_to_fit();
            Arc::new(ds)
        });
        debug_assert!(
            parsed.as_deref().is_none_or(|ds| from_csv(&csv).as_ref() == Ok(ds)),
            "a held result must equal the parse of its text"
        );
        self.insert_data(csv, parsed, from_job)
    }

    /// The one insert path: persists `csv` and installs `parsed` (when
    /// given, the dataset `csv` renders) or else the text itself. With a
    /// journal, the insert is journaled as a `commit` unless `from_job`
    /// marks an async job's result, which its job's `finish` line names.
    pub(crate) fn insert_data(
        &self,
        mut csv: String,
        parsed: Option<Arc<Dataset>>,
        from_job: bool,
    ) -> Result<(String, usize), ApiError> {
        let bytes = csv.len();
        if bytes > MAX_DATASET_BYTES {
            return Err(ApiError::payload_too_large(format!(
                "dataset would exceed {MAX_DATASET_BYTES} bytes"
            )));
        }
        let (id, dir) = {
            let (mut s, id) = self.mint_room(|_| Ok(()))?;
            s.entries.insert(id.clone(), Entry::Committing { owner: None, bytes });
            (id, s.dir.clone())
        };
        let _journal = match self.persist(dir, &id, &csv, from_job) {
            Ok(journal) => journal,
            Err(e) => {
                self.lock()?.entries.remove(&id);
                return Err(e);
            }
        };
        let data = match parsed {
            Some(ds) => StoredData::Parsed(ds),
            None => {
                csv.shrink_to_fit();
                StoredData::Text(Arc::new(csv))
            }
        };
        let mut s = self.lock()?;
        // Job results are unowned: they are minted by the server, not
        // uploaded by a tenant, so they never count against a quota.
        s.install_committed(&id, data, bytes, from_job, None);
        s.publish_gauges();
        Ok((id, bytes))
    }

    /// Deletes a handle, freeing its slot and removing its blob.
    /// Pending uploads may be deleted (aborting the upload). Deleting a
    /// handle pinned by a queued/running job is rejected with a distinct
    /// error — the job owns that data until it finishes.
    pub fn delete(&self, id: &str) -> Result<usize, ApiError> {
        self.delete_logged(id, || false)
    }

    /// [`Self::delete`], running `log` between removing the entry and
    /// unlinking its blob ([`crate::jobs::JobQueue::delete`]). When `log`
    /// journaled the delete, the unlink is made durable before this
    /// returns, so a compaction that drops the `reset` cannot outlive it.
    pub(crate) fn delete_logged(
        &self,
        id: &str,
        log: impl FnOnce() -> bool,
    ) -> Result<usize, ApiError> {
        let mut s = self.lock()?;
        match s.entries.get(id) {
            None => return Err(ApiError::dataset_not_found(format!("unknown dataset {id:?}"))),
            Some(Entry::Committing { .. }) => {
                return Err(ApiError::dataset_state(format!(
                    "dataset {id:?} is being committed; retry the delete"
                )))
            }
            Some(Entry::Committed { pins, .. }) if *pins > 0 => {
                return Err(ApiError::dataset_in_use(format!(
                    "dataset {id:?} is referenced by a queued or running job; \
                     delete is rejected until the job finishes"
                )))
            }
            Some(Entry::Committed { .. } | Entry::Pending { .. }) => {}
        }
        let removed = s.entries.remove(id);
        s.publish_gauges();
        drop(s);
        let logged = log();
        if matches!(removed, Some(Entry::Committed { .. })) {
            let dir = {
                let s = self.lock()?;
                s.unlink(id);
                s.dir.clone()
            };
            // Best-effort like the `reset` append: the handle is gone.
            if let Some(dir) = dir.filter(|_| logged) {
                let _ = sync_dir(&dir);
            }
        }
        Ok(removed.map_or(0, |e| e.bytes()))
    }

    /// Ends a job result's life for the server's own bookkeeping (not
    /// the protocol verb): an unpinned handle is removed now, and a
    /// handle pinned as a queued/running job's input is removed by the
    /// `unpin` that drops its last pin. Unlike `delete`, reclaim is not
    /// counted as an eviction.
    pub fn reclaim(&self, id: &str) {
        let Ok(mut s) = self.lock() else { return };
        s.reclaim_entry(id);
        s.publish_gauges();
    }

    /// Pins a committed handle against eviction and deletion (one pin
    /// per referencing job; pins stack).
    pub fn pin(&self, id: &str) -> Result<(), ApiError> {
        let mut s = self.lock()?;
        s.touch(id);
        match s.entries.get_mut(id) {
            Some(Entry::Committed { pins, .. }) => {
                *pins += 1;
                Ok(())
            }
            Some(_) => Err(ApiError::dataset_state(format!("dataset {id:?} is not committed yet"))),
            None => Err(ApiError::dataset_not_found(format!("unknown dataset {id:?}"))),
        }
    }

    /// Releases one pin of a committed handle; the last pin of a handle
    /// marked by [`Self::reclaim`] removes it.
    pub fn unpin(&self, id: &str) {
        let Ok(mut s) = self.lock() else { return };
        let last = match s.entries.get_mut(id) {
            Some(Entry::Committed { pins, reclaim, .. }) => {
                *pins = pins.saturating_sub(1);
                *pins == 0 && *reclaim
            }
            _ => false,
        };
        if last {
            s.remove(id);
            s.publish_gauges();
        }
    }

    /// A committed dataset in the form its entry holds (refreshes its
    /// LRU/TTL stamp).
    pub fn resolve(&self, id: &str) -> Result<StoredData, ApiError> {
        let mut s = self.lock()?;
        s.touch(id);
        match s.entries.get(id) {
            None => Err(ApiError::dataset_not_found(format!("unknown dataset {id:?}"))),
            Some(Entry::Pending { .. } | Entry::Committing { .. }) => {
                Err(ApiError::dataset_state(format!("dataset {id:?} is not committed yet")))
            }
            Some(Entry::Committed { data, .. }) => Ok(data.clone()),
        }
    }

    /// The parsed dataset of `data`, as resolved from handle `id`. Text
    /// is parsed here, outside the store mutex. While the entry still
    /// holds that same text and is not settled, the parse is checked
    /// against it ([`renders_to`]): a canonical text is replaced by its
    /// parse, so the handle is parsed once however many jobs read it; a
    /// non-canonical one settles as text and is parsed per use without
    /// the check. Every parse of a handle's text is counted in
    /// `trajdp_dataset_parses_total`.
    pub fn parse(&self, id: &str, data: &StoredData) -> Result<Arc<Dataset>, ModelError> {
        let text = match data {
            StoredData::Parsed(ds) => return Ok(Arc::clone(ds)),
            StoredData::Text(text) => text,
        };
        let holds_text = |s: &StoreInner| {
            matches!(s.entries.get(id), Some(Entry::Committed {
                data: StoredData::Text(held),
                settled: false,
                ..
            }) if Arc::ptr_eq(held, text))
        };
        let installable = self.lock().is_ok_and(|s| {
            s.metrics.dataset_parses.fetch_add(1, Relaxed);
            holds_text(&s)
        });
        let mut ds = from_csv(text)?;
        if !installable {
            return Ok(Arc::new(ds));
        }
        let canonical = renders_to(&ds, text);
        if canonical {
            ds.shrink_to_fit();
        }
        let ds = Arc::new(ds);
        if let Ok(mut s) = self.lock() {
            if holds_text(&s) {
                if let Some(Entry::Committed { data, settled, .. }) = s.entries.get_mut(id) {
                    if canonical {
                        *data = StoredData::Parsed(Arc::clone(&ds));
                    } else {
                        *settled = true;
                    }
                }
            }
        }
        Ok(ds)
    }

    /// The CSV text of a committed dataset. A parsed entry is rendered
    /// here, outside the store mutex, and settles as text: the pieces of
    /// one chunked download slice a single rendering, and later jobs
    /// parse the text without installing their parse.
    fn text(&self, id: &str) -> Result<Arc<String>, ApiError> {
        let ds = match self.resolve(id)? {
            StoredData::Text(text) => return Ok(text),
            StoredData::Parsed(ds) => ds,
        };
        let mut text = to_csv(&ds);
        text.shrink_to_fit();
        let text = Arc::new(text);
        let mut s = self.lock()?;
        if let Some(Entry::Committed { data, settled, .. }) = s.entries.get_mut(id) {
            if matches!(data, StoredData::Parsed(held) if Arc::ptr_eq(held, &ds)) {
                *data = StoredData::Text(Arc::clone(&text));
                *settled = true;
            }
        }
        Ok(text)
    }

    /// One entry per held handle: `(id, bytes, state, pins)` where
    /// `state` is `"pending"`, `"committing"` (persist in flight —
    /// rejects chunks, commit, and delete until it lands), or
    /// `"committed"`, sorted by id number for a deterministic `list`
    /// response.
    pub fn list(&self) -> Vec<(String, usize, &'static str, usize)> {
        let Ok(s) = self.lock() else { return Vec::new() };
        let mut out: Vec<(String, usize, &'static str, usize)> = s
            .entries
            .iter()
            .map(|(id, e)| match e {
                Entry::Pending { .. } => (id.clone(), e.bytes(), "pending", 0),
                Entry::Committing { .. } => (id.clone(), e.bytes(), "committing", 0),
                Entry::Committed { pins, .. } => (id.clone(), e.bytes(), "committed", *pins),
            })
            .collect();
        out.sort_by_key(|(id, ..)| id.strip_prefix("ds-").and_then(|n| n.parse::<u64>().ok()));
        out
    }

    /// One bounded piece of a committed dataset, starting at byte
    /// `offset` (which must fall on a piece boundary handed out by a
    /// previous read). Returns `(piece, total_bytes, eof)`.
    pub fn read_chunk(
        &self,
        id: &str,
        offset: usize,
        max_bytes: usize,
    ) -> Result<(String, usize, bool), ApiError> {
        let text = self.text(id)?;
        if offset > text.len() || !text.is_char_boundary(offset) {
            return Err(ApiError::bad_request(format!(
                "offset {offset} is not a piece boundary of dataset {id:?} ({} bytes)",
                text.len()
            )));
        }
        let max_bytes = max_bytes.clamp(1, MAX_DOWNLOAD_CHUNK_BYTES);
        let mut end = floor_char_boundary(&text, offset.saturating_add(max_bytes));
        if end <= offset && offset < text.len() {
            // A chunk budget smaller than one scalar still makes
            // progress: ship exactly one character.
            // PANIC: `offset` was checked to be a char boundary at or
            // before `text.len()`, so the range is valid.
            end = offset + text[offset..].chars().next().map_or(1, char::len_utf8);
        }
        // PANIC: both ends are char boundaries: `offset` was checked,
        // `end` comes from `floor_char_boundary` (or the one-scalar
        // bump above) and is >= `offset` whenever the piece is
        // non-empty.
        Ok((text[offset..end].to_string(), text.len(), end == text.len()))
    }

    /// Persists the `Committing` entry `id`: with a `dir`, its blob
    /// (temp file + fsync + rename + directory fsync: no crash leaves a
    /// torn blob), then its `commit`, unless a job's `finish` will name
    /// it. Returns the journal lock, under which the caller installs the
    /// entry, so a compaction sees the handle or precedes its event. On
    /// failure the blob is gone. Runs **without** the store mutex.
    fn persist(
        &self,
        dir: Option<PathBuf>,
        id: &str,
        text: &str,
        from_job: bool,
    ) -> Result<Option<Journal<'_>>, ApiError> {
        use std::io::Write as _;
        let write = |dir: PathBuf| {
            let (path, tmp) = (blob(&dir, id), dir.join(format!("{id}.csv.tmp")));
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            // Test hook: park once the temp file is visible, to prove the
            // store mutex is not held across the disk write.
            #[cfg(test)]
            drop(self.persist_gate.as_ref().map(|g| g.lock().expect("gate poisoned")));
            f.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            // The rename itself must survive power loss too.
            sync_dir(&dir)
        };
        let written = dir.map_or(Ok(()), write);
        let sealed = written
            .map_err(|e| ApiError::io(format!("cannot persist dataset {id:?}: {e}")))
            .and_then(|()| match from_job {
                true => Ok(None),
                false => self.log(Event::Commit { dataset: id.to_string() }).map(Some),
            });
        if sealed.is_err() {
            self.lock()?.unlink(id);
        }
        sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobQueue;
    use crate::protocol::{AnonymizeParams, DataRef};

    impl StoredData {
        /// The CSV text, rendering a parsed dataset.
        pub fn text(&self) -> Arc<String> {
            match self {
                StoredData::Text(text) => Arc::clone(text),
                StoredData::Parsed(ds) => Arc::new(to_csv(ds)),
            }
        }
    }

    #[test]
    fn upload_commit_resolve_roundtrip() {
        let store = DatasetStore::new();
        let id = store.begin().unwrap();
        assert_eq!(id, "ds-1");
        assert_eq!(store.append(&id, "traj_id,x,y,t\n").unwrap(), 14);
        assert_eq!(store.append(&id, "0,1.0,2.0,3\n").unwrap(), 26);
        assert_eq!(store.commit(&id).unwrap(), 26);
        assert_eq!(store.resolve(&id).unwrap().text().as_str(), "traj_id,x,y,t\n0,1.0,2.0,3\n");
    }

    #[test]
    fn lifecycle_violations_are_errors() {
        let store = DatasetStore::new();
        assert!(store.append("ds-9", "x").unwrap_err().message.contains("unknown"));
        assert!(store.commit("ds-9").unwrap_err().message.contains("unknown"));
        assert!(store.resolve("ds-9").unwrap_err().message.contains("unknown"));
        assert!(store.delete("ds-9").unwrap_err().message.contains("unknown"));
        let id = store.begin().unwrap();
        assert!(store.resolve(&id).unwrap_err().message.contains("not committed"));
        assert!(store.read_chunk(&id, 0, 10).unwrap_err().message.contains("not committed"));
        assert!(store.pin(&id).unwrap_err().message.contains("not committed"));
        store.commit(&id).unwrap();
        assert!(store.append(&id, "x").unwrap_err().message.contains("already committed"));
        assert!(store.commit(&id).unwrap_err().message.contains("already"));
    }

    #[test]
    fn read_chunk_walks_to_eof() {
        let store = DatasetStore::new();
        let (id, bytes) = store.insert("abcdefghij".to_string()).unwrap();
        assert_eq!(bytes, 10);
        let mut out = String::new();
        loop {
            let (piece, total, eof) = store.read_chunk(&id, out.len(), 3).unwrap();
            assert_eq!(total, 10);
            out.push_str(&piece);
            if eof {
                break;
            }
        }
        assert_eq!(out, "abcdefghij");
        // Reading exactly at the end is an empty eof piece, not an error.
        assert_eq!(store.read_chunk(&id, 10, 3).unwrap(), (String::new(), 10, true));
        assert!(store.read_chunk(&id, 11, 3).is_err());
    }

    #[test]
    fn read_chunk_respects_char_boundaries() {
        let store = DatasetStore::new();
        let (id, _) = store.insert("aé😀b".to_string()).unwrap();
        let mut out = String::new();
        let mut pieces = 0;
        loop {
            // max_bytes 2 cannot hold the 4-byte emoji; progress must
            // still be made one whole scalar at a time.
            let (piece, _, eof) = store.read_chunk(&id, out.len(), 2).unwrap();
            assert!(!piece.is_empty() || eof);
            out.push_str(&piece);
            pieces += 1;
            assert!(pieces < 20, "no progress");
            if eof {
                break;
            }
        }
        assert_eq!(out, "aé😀b");
    }

    #[test]
    fn store_full_of_pendings_is_an_error() {
        // Pending uploads are not evictable, so a store full of them
        // still rejects new handles — naming the remedy.
        let store = DatasetStore::new();
        for _ in 0..MAX_STORED_DATASETS {
            store.begin().unwrap();
        }
        let err = store.begin().unwrap_err();
        assert!(err.message.contains("full") && err.message.contains("delete"), "{err}");
        assert!(store.insert(String::new()).unwrap_err().message.contains("full"));
    }

    #[test]
    fn full_store_evicts_lru_unpinned_committed() {
        let store =
            DatasetStore::with_config(StoreConfig { capacity: 3, ..StoreConfig::default() })
                .unwrap();
        let (a, _) = store.insert("aaa".to_string()).unwrap();
        let (b, _) = store.insert("bbb".to_string()).unwrap();
        let (c, _) = store.insert("ccc".to_string()).unwrap();
        // Touch a so b becomes the LRU victim.
        store.resolve(&a).unwrap();
        let (d, _) = store.insert("ddd".to_string()).unwrap();
        assert!(
            store.resolve(&b).unwrap_err().message.contains("unknown"),
            "LRU entry must be evicted"
        );
        for id in [&a, &c, &d] {
            assert!(store.resolve(id).is_ok(), "{id} must survive");
        }
        assert_eq!(store.count(), 3);
    }

    #[test]
    fn pinned_entries_are_never_evicted_and_cannot_be_deleted() {
        let store =
            DatasetStore::with_config(StoreConfig { capacity: 2, ..StoreConfig::default() })
                .unwrap();
        let (a, _) = store.insert("aaa".to_string()).unwrap();
        let (b, _) = store.insert("bbb".to_string()).unwrap();
        store.pin(&a).unwrap();
        let err = store.delete(&a).unwrap_err();
        assert!(
            err.message.contains("queued or running job"),
            "pinned delete needs a distinct error: {err}"
        );
        // a is the LRU entry but pinned: eviction must take b instead.
        let (c, _) = store.insert("ccc".to_string()).unwrap();
        assert!(store.resolve(&a).is_ok());
        assert!(store.resolve(&b).unwrap_err().message.contains("unknown"));
        // Two pins: one unpin keeps the protection, the second releases.
        store.pin(&a).unwrap();
        store.unpin(&a);
        assert!(store.delete(&a).is_err());
        store.unpin(&a);
        assert_eq!(store.delete(&a).unwrap(), 3);
        assert!(store.resolve(&c).is_ok());
    }

    #[test]
    fn delete_frees_a_slot_at_capacity() {
        let store =
            DatasetStore::with_config(StoreConfig { capacity: 2, ..StoreConfig::default() })
                .unwrap();
        // Fill with pendings (not evictable) so only delete frees room.
        let a = store.begin().unwrap();
        let _b = store.begin().unwrap();
        assert!(store.begin().is_err());
        store.delete(&a).unwrap(); // aborting a pending upload is allowed
        assert!(store.begin().is_ok());
    }

    #[test]
    fn expire_uploads_reclaims_abandoned_pendings() {
        let store = DatasetStore::with_config(StoreConfig {
            upload_ttl: Duration::ZERO,
            ..StoreConfig::default()
        })
        .unwrap();
        let committed = store.begin().unwrap();
        store.commit(&committed).unwrap();
        // Every `begin` sweeps first, so open the abandoned upload last.
        let abandoned = store.begin().unwrap();
        store.append(&abandoned, "partial").unwrap();
        assert_eq!(store.sweep(), 1);
        assert!(store.append(&abandoned, "x").unwrap_err().message.contains("unknown"));
        assert!(store.resolve(&committed).is_ok(), "committed entries are not uploads");
        assert!(store.commit(&abandoned).unwrap_err().message.contains("unknown"));
    }

    #[test]
    fn ttl_sweep_evicts_stale_committed_but_not_pinned() {
        let store = DatasetStore::with_config(StoreConfig {
            ttl: Some(Duration::ZERO),
            ..StoreConfig::default()
        })
        .unwrap();
        // Pin first: every `insert` runs the sweep itself, which with a
        // zero TTL would reclaim an unpinned sibling immediately.
        let (pinned, _) = store.insert("y".to_string()).unwrap();
        store.pin(&pinned).unwrap();
        let (stale, _) = store.insert("x".to_string()).unwrap();
        assert_eq!(store.sweep(), 1);
        assert!(store.resolve(&stale).unwrap_err().message.contains("unknown"));
        assert!(store.resolve(&pinned).is_ok());
        // Without a TTL nothing committed expires.
        let store = DatasetStore::new();
        store.insert("z".to_string()).unwrap();
        assert_eq!(store.sweep(), 0);
    }

    #[test]
    fn reclaim_of_a_pinned_handle_waits_for_its_last_unpin() {
        let metrics = Arc::new(Metrics::new());
        let store = DatasetStore::new().with_metrics(Arc::clone(&metrics));
        let (free, _) = store.insert("aaa".to_string()).unwrap();
        let (pinned, _) = store.insert("bbb".to_string()).unwrap();
        store.reclaim(&free);
        assert!(store.resolve(&free).unwrap_err().message.contains("unknown"));
        store.pin(&pinned).unwrap();
        store.pin(&pinned).unwrap();
        store.reclaim(&pinned);
        store.unpin(&pinned);
        assert!(store.resolve(&pinned).is_ok(), "one pin still holds it");
        store.unpin(&pinned);
        assert!(store.resolve(&pinned).unwrap_err().message.contains("unknown"));
        let snap = metrics.snapshot();
        assert_eq!((snap.store_handles, snap.store_evictions), (0, 0), "reclaim is no eviction");
    }

    #[test]
    fn held_text_keeps_no_growth_slack() {
        let capacity = |store: &DatasetStore, id: &str| match store.resolve(id).unwrap() {
            StoredData::Text(text) => (text.capacity(), text.len()),
            StoredData::Parsed(_) => panic!("{id} must be held as text"),
        };
        let store = DatasetStore::new();
        let csv = to_csv(&synthetic(3, 20));
        // A committed upload assembled from small chunks.
        let id = store.begin().unwrap();
        for piece in csv.as_bytes().chunks(100) {
            store.append(&id, std::str::from_utf8(piece).unwrap()).unwrap();
        }
        store.commit(&id).unwrap();
        let (cap, len) = capacity(&store, &id);
        assert_eq!(cap, len);
        // Inserted text with spare capacity.
        let mut roomy = String::with_capacity(2 * csv.len());
        roomy.push_str(&csv);
        let (id, _) = store.insert(roomy).unwrap();
        let (cap, len) = capacity(&store, &id);
        assert_eq!(cap, len);
        // A parsed handle rendered by a download.
        let (id, _) = store.insert_dataset(synthetic(3, 20), false).unwrap();
        store.read_chunk(&id, 0, 10).unwrap();
        let (cap, len) = capacity(&store, &id);
        assert_eq!(cap, len);
    }

    /// A fresh state dir of its own for one test.
    fn state_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A store of `capacity` handles persisted under `dir/datasets`, with
    /// the journal `dir/jobs.jsonl` replayed into it and attached: the
    /// server's restart path.
    fn journaled(dir: &Path, capacity: usize) -> (DatasetStore, JobQueue) {
        let cfg =
            StoreConfig { dir: Some(dir.join("datasets")), capacity, ..StoreConfig::default() };
        let store = DatasetStore::with_config(cfg).unwrap();
        let queue = JobQueue::with_journal(store.clone(), &dir.join("jobs.jsonl")).unwrap();
        (store, queue)
    }

    #[test]
    fn persisted_datasets_survive_reopen_and_reload_cold() {
        let dir = state_dir("trajdp-store-test");
        let (store, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        let id = store.begin().unwrap();
        store.append(&id, "hello\n").unwrap();
        store.commit(&id).unwrap();
        let (id2, _) = store.insert("world\n".to_string()).unwrap();
        // A pending upload at crash time is intentionally lost.
        let pending = store.begin().unwrap();
        store.append(&pending, "partial").unwrap();
        drop(store);

        let (reopened, _queue) = journaled(&dir, 2);
        assert_eq!(reopened.resolve(&id).unwrap().text().as_str(), "hello\n");
        assert_eq!(reopened.resolve(&id2).unwrap().text().as_str(), "world\n");
        assert!(reopened.resolve(&pending).unwrap_err().message.contains("unknown"));
        // Loaded handles are LRU-cold in id order: at capacity, the
        // lower-id loaded entry is evicted first — and its blob goes
        // with it, so the eviction survives another reopen.
        let (id3, _) = reopened.insert("x".to_string()).unwrap();
        assert_ne!(id3, id);
        assert_ne!(id3, id2);
        assert!(reopened.resolve(&id).unwrap_err().message.contains("unknown"));
        assert!(reopened.resolve(&id2).is_ok());
        drop(reopened);
        let (again, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        assert!(again.resolve(&id).unwrap_err().message.contains("unknown"));
        assert!(again.resolve(&id2).is_ok());
        assert_eq!(again.resolve(&id3).unwrap().text().as_str(), "x");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reopened_store_never_reissues_a_pending_upload_id() {
        let dir = state_dir("trajdp-store-pending-id-test");
        let (store, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        let lost = store.begin().unwrap();
        store.append(&lost, "partial").unwrap();
        drop(store);

        let (reopened, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        let fresh = reopened.begin().unwrap();
        assert_ne!(fresh, lost, "a reopen reissued a pending upload's id");
        let err = reopened.append(&lost, "resumed").unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::DatasetNotFound, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_id_mark_grows_past_a_used_up_block() {
        // Mint one id past the first block: the mark must move before
        // that id is handed out, so a reopen resumes past it.
        let dir = state_dir("trajdp-store-id-block-test");
        let (store, _queue) = journaled(&dir, ID_BLOCK as usize + 2);
        let ids: Vec<String> = (0..=ID_BLOCK).map(|_| store.begin().unwrap()).collect();
        let journal = std::fs::read_to_string(dir.join("jobs.jsonl")).unwrap();
        assert_eq!(journal.matches(r#""event":"ids""#).count(), 2, "{journal}");
        drop(store);
        let (reopened, _queue) = journaled(&dir, ID_BLOCK as usize + 2);
        let fresh = reopened.begin().unwrap();
        assert!(!ids.contains(&fresh), "{fresh} was handed out before the reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_above_capacity_shrinks_to_the_cap() {
        let dir = state_dir("trajdp-store-shrink-test");
        let (store, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        for i in 0..5 {
            store.insert(format!("dataset {i}\n")).unwrap();
        }
        drop(store);
        // Reopen with a smaller cap: the load holds everything, but the
        // first insert must evict down to the cap, not one-for-one.
        let (small, _queue) = journaled(&dir, 2);
        assert_eq!(small.count(), 5);
        small.insert("fresh\n".to_string()).unwrap();
        assert_eq!(small.count(), 2, "over-capacity reload must shrink to the cap");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_removes_the_persisted_file() {
        let dir = state_dir("trajdp-store-delete-test");
        let (store, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        let (id, _) = store.insert("data\n".to_string()).unwrap();
        let file = dir.join("datasets").join(format!("{id}.csv"));
        assert!(file.exists());
        store.delete(&id).unwrap();
        assert!(!file.exists());
        drop(store);
        let (reopened, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        assert!(reopened.resolve(&id).unwrap_err().message.contains("unknown"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_results_reconcile_against_referenced_set() {
        let dir = state_dir("trajdp-store-reconcile-test");
        let (store, queue) = journaled(&dir, MAX_STORED_DATASETS);
        let (upload, _) = store.insert("client upload\n".to_string()).unwrap();
        let (kept, _) = store.insert_data("journaled result\n".to_string(), None, true).unwrap();
        let (orphan, _) = store.insert_data("orphan result\n".to_string(), None, true).unwrap();
        let data = DataRef::Inline(Arc::new("traj_id,x,y,t\n".to_string()));
        let spec = AnonymizeParams::new(trajdp_core::Model::PureLocal, data).resolve(&store);
        let job = queue.submit(spec.unwrap()).unwrap();
        let result = crate::json::Json::obj([("dataset", crate::json::Json::from(kept.as_str()))]);
        queue.finish(&job, result);
        drop((store, queue));

        // Restart: a finished job names `kept`, and the upload has its
        // `commit`. Nothing names the orphan job result: it and its
        // blob are gone.
        let (reopened, _queue) = journaled(&dir, MAX_STORED_DATASETS);
        assert!(reopened.resolve(&orphan).unwrap_err().message.contains("unknown"));
        assert_eq!(reopened.resolve(&kept).unwrap().text().as_str(), "journaled result\n");
        assert_eq!(reopened.resolve(&upload).unwrap().text().as_str(), "client upload\n");
        assert!(!dir.join("datasets").join(format!("{orphan}.csv")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_reports_every_handle_in_id_order() {
        let store = DatasetStore::new();
        let (a, _) = store.insert("aaaa".to_string()).unwrap();
        let p = store.begin().unwrap();
        store.append(&p, "xy").unwrap();
        store.pin(&a).unwrap();
        let listed = store.list();
        assert_eq!(listed, vec![(a, 4, "committed", 1), (p, 2, "pending", 0)]);
    }

    #[test]
    fn persist_failures_are_io_coded_and_retryable() {
        // A failed durable write (the directory vanished under the
        // store — the same shape as ENOSPC or a dead disk) must report
        // the io-error code and leave the upload pending for a retry.
        let dir = std::env::temp_dir().join("trajdp-store-io-error-test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = DatasetStore::open(Some(dir.clone())).unwrap();
        let id = store.begin().unwrap();
        store.append(&id, "data\n").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let err = store.commit(&id).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::Io);
        assert!(err.message.contains("cannot persist"), "{err}");
        let err = store.insert("more\n".to_string()).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::Io);
        // The failed commit rolled the handle back to pending: the
        // client can retry once the disk recovers.
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(store.commit(&id).unwrap(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_publishes_gauges_and_counts_evictions() {
        let metrics = Arc::new(Metrics::new());
        let store =
            DatasetStore::with_config(StoreConfig { capacity: 2, ..StoreConfig::default() })
                .unwrap()
                .with_metrics(Arc::clone(&metrics));
        store.insert("aaa".to_string()).unwrap();
        store.insert("bbbb".to_string()).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.store_handles, 2);
        assert_eq!(snap.store_bytes, 7);
        store.insert("cc".to_string()).unwrap(); // evicts the LRU entry
        let snap = metrics.snapshot();
        assert_eq!(snap.store_handles, 2);
        assert_eq!(snap.store_bytes, 6);
        assert_eq!(snap.store_evictions, 1);
        assert!(snap.store_ttl_sweeps >= 1, "every insert runs the sweep");
    }

    /// Regression for the lifecycle pass's lock contract: a large
    /// `commit` persisting to a slow disk must not hold the store mutex
    /// during the write — concurrent reads keep answering.
    #[test]
    fn persist_does_not_hold_the_store_mutex() {
        let dir = std::env::temp_dir().join("trajdp-store-nostall-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DatasetStore::open(Some(dir.clone())).unwrap();
        let gate = Arc::new(Mutex::new(()));
        store.persist_gate = Some(Arc::clone(&gate));
        let (existing, _) = store.insert("already here\n".to_string()).unwrap();
        let id = store.begin().unwrap();
        store.append(&id, "big dataset\n").unwrap();

        // Block the "disk" and start the commit; it parks inside
        // persist(), which by contract runs outside the store mutex.
        let blocked = gate.lock().unwrap();
        let committer = {
            let store = store.clone();
            let id = id.clone();
            std::thread::spawn(move || store.commit(&id))
        };
        // Wait until the committer is actually inside persist.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !dir.join(format!("{id}.csv.tmp")).exists() {
            assert!(std::time::Instant::now() < deadline, "commit never reached the disk write");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Reads must proceed while the persist is stalled. A deadlock
        // here would hang the test; detect via a timed channel.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let store = store.clone();
            let existing = existing.clone();
            std::thread::spawn(move || {
                let text = store.resolve(&existing).unwrap().text();
                let n = store.count();
                tx.send((text.len(), n)).unwrap();
            })
        };
        let (len, n) = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("reads stalled behind an in-flight dataset persist");
        assert_eq!(len, "already here\n".len());
        assert_eq!(n, 2);
        reader.join().unwrap();
        drop(blocked);
        assert_eq!(committer.join().unwrap().unwrap(), "big dataset\n".len());
        assert_eq!(store.resolve(&id).unwrap().text().as_str(), "big dataset\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_committing_handle_still_counts_against_its_tenant() {
        // While a commit persists outside the lock, its bytes stay on
        // the tenant's account: a second upload cannot borrow them.
        let dir = std::env::temp_dir().join("trajdp-store-committing-quota-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DatasetStore::open(Some(dir.clone())).unwrap();
        let gate = Arc::new(Mutex::new(()));
        store.persist_gate = Some(Arc::clone(&gate));
        let limits = TenantLimits { max_datasets: None, max_bytes: Some(40), max_jobs: None };
        let tenant = Some(("acme", limits));
        let first = store.begin_for(tenant).unwrap();
        store.append_for(&first, &"a".repeat(30), tenant).unwrap();
        let blocked = gate.lock().unwrap();
        let committer = {
            let store = store.clone();
            let first = first.clone();
            std::thread::spawn(move || store.commit(&first))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while !dir.join(format!("{first}.csv.tmp")).exists() {
            assert!(Instant::now() < deadline, "commit never reached the disk write");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(store.list()[0], (first.clone(), 30, "committing", 0));
        let second = store.begin_for(tenant).unwrap();
        let err = store.append_for(&second, &"b".repeat(30), tenant).unwrap_err();
        assert_eq!(err.code, crate::api::ErrorCode::QuotaExceeded, "{err}");
        drop(blocked);
        assert_eq!(committer.join().unwrap().unwrap(), 30);
        assert_eq!(store.lock().unwrap().usage("acme"), (2, 30));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn synthetic(trajectories: usize, points: usize) -> Dataset {
        let config = trajdp_synth::GeneratorConfig::tdrive_profile(trajectories, points, 9);
        trajdp_synth::generate(&config).dataset
    }

    #[test]
    fn canonical_text_is_parsed_once_and_downloads_unchanged() {
        let metrics = Arc::new(Metrics::new());
        let store = DatasetStore::new().with_metrics(Arc::clone(&metrics));
        let canonical = to_csv(&synthetic(3, 20));
        let padded = canonical.replace('\n', "\r\n");
        let (id, bytes) = store.insert(canonical.clone()).unwrap();
        let (raw, _) = store.insert(padded.clone()).unwrap();
        let stale = store.resolve(&id).unwrap();
        let ds = store.parse(&id, &stale).unwrap();
        assert_eq!(*ds, from_csv(&canonical).unwrap());
        assert_eq!(store.resolve(&id).unwrap(), StoredData::Parsed(Arc::clone(&ds)));
        // A reader still holding the text parses it again, but the entry
        // keeps the parse it already has.
        let again = store.parse(&id, &stale).unwrap();
        assert!(
            matches!(store.resolve(&id).unwrap(), StoredData::Parsed(held) if Arc::ptr_eq(&held, &ds))
        );
        assert_eq!(again, ds);
        // Once parsed, readers share the held dataset without parsing.
        store.parse(&id, &store.resolve(&id).unwrap()).unwrap();
        assert_eq!(metrics.snapshot().dataset_parses, 2);
        // Non-canonical text stays text and is parsed per use.
        for _ in 0..2 {
            assert_eq!(*store.parse(&raw, &store.resolve(&raw).unwrap()).unwrap(), *ds);
        }
        assert!(matches!(store.resolve(&raw).unwrap(), StoredData::Text(_)));
        assert!(matches!(
            store.lock().unwrap().entries.get(&raw),
            Some(Entry::Committed { settled: true, .. })
        ));
        assert_eq!(metrics.snapshot().dataset_parses, 4);
        // Bytes are the CSV length in either form; a download renders
        // the parse once and the entry holds the text again.
        assert_eq!(store.list()[0].1, bytes);
        assert_eq!(metrics.snapshot().store_bytes as usize, canonical.len() + padded.len());
        let (piece, total, eof) = store.read_chunk(&id, 0, 100).unwrap();
        assert_eq!((piece.as_str(), total, eof), (&canonical[..100], bytes, false));
        assert!(matches!(store.resolve(&id).unwrap(), StoredData::Text(_)));
        assert_eq!(store.resolve(&id).unwrap().text().as_str(), canonical);
        assert_eq!(store.delete(&id).unwrap(), bytes);
    }

    #[test]
    fn jobs_between_download_pieces_render_the_handle_once() {
        // A job parses the handle and installs the parse; the download
        // that follows renders it once and settles it as text. The jobs
        // between its pieces then parse that text without installing,
        // so every piece slices the one rendering.
        let metrics = Arc::new(Metrics::new());
        let store = DatasetStore::new().with_metrics(Arc::clone(&metrics));
        let canonical = to_csv(&synthetic(3, 20));
        let (id, bytes) = store.insert(canonical.clone()).unwrap();
        let job = || store.parse(&id, &store.resolve(&id).unwrap()).unwrap();
        let parsed = job();
        assert!(matches!(store.resolve(&id).unwrap(), StoredData::Parsed(_)));
        let (mut jobs, mut offset, mut out) = (1, 0, String::new());
        let mut rendering: Option<Arc<String>> = None;
        loop {
            let (piece, _, eof) = store.read_chunk(&id, offset, 100).unwrap();
            offset += piece.len();
            out.push_str(&piece);
            let StoredData::Text(text) = store.resolve(&id).unwrap() else {
                panic!("a download leaves the entry as text")
            };
            assert!(Arc::ptr_eq(rendering.get_or_insert_with(|| Arc::clone(&text)), &text));
            assert_eq!(job(), parsed);
            jobs += 1;
            if eof {
                break;
            }
        }
        assert!(jobs > 3, "the download took {jobs} pieces");
        assert_eq!((out.as_str(), offset), (canonical.as_str(), bytes));
        assert!(matches!(store.resolve(&id).unwrap(), StoredData::Text(_)));
        assert_eq!(metrics.snapshot().dataset_parses, jobs);
    }

    #[test]
    fn results_are_held_as_their_own_reparse() {
        let store = DatasetStore::new();
        // The pipeline keeps the input's domain; a reparse derives it
        // from the samples. The held dataset must be the reparse.
        let mut ds = synthetic(3, 20);
        ds.domain = trajdp_model::Rect::new(-1e6, -1e6, 1e6, 1e6);
        let (id, bytes) = store.insert_dataset(ds.clone(), false).unwrap();
        let text = to_csv(&ds);
        assert_eq!(bytes, text.len());
        assert_eq!(
            store.resolve(&id).unwrap(),
            StoredData::Parsed(Arc::new(from_csv(&text).unwrap()))
        );
        // An empty trajectory renders no line, so the result stays text.
        ds.trajectories[1].samples.clear();
        let (id, _) = store.insert_dataset(ds.clone(), true).unwrap();
        assert_eq!(store.resolve(&id).unwrap(), StoredData::Text(Arc::new(to_csv(&ds))));
    }

    #[test]
    fn chunked_download_of_a_parsed_handle_is_linear() {
        // Reading a held parse piece by piece renders it once: a render
        // per piece would cost O(pieces × size).
        let store = DatasetStore::new();
        crate::assert_linear(
            16,
            |n| synthetic(n, 100),
            |ds| {
                let (id, bytes) = store.insert_dataset(ds.clone(), false).unwrap();
                let mut offset = 0;
                loop {
                    let (piece, _, eof) = store.read_chunk(&id, offset, 512).unwrap();
                    offset += piece.len();
                    if eof {
                        break;
                    }
                }
                assert_eq!(offset, bytes);
                store.delete(&id).unwrap();
            },
        );
    }

    /// `samples` samples in trajectories of 50: with `repeats`, every
    /// location is one of 64; without, no location repeats.
    fn located(samples: usize, repeats: bool) -> Arc<Dataset> {
        let loc = |i: usize| {
            let k = if repeats { i.wrapping_mul(2654435761) % 64 } else { i } as f64;
            trajdp_model::Point::new(k * 12.5 + 0.1, k * 7.25 - 0.3)
        };
        let trajectories = (0..samples.div_ceil(50))
            .map(|t| {
                let samples = (t * 50..samples.min(t * 50 + 50))
                    .map(|i| trajdp_model::Sample::new(loc(i), i as i64))
                    .collect();
                trajdp_model::Trajectory::new(t as u64, samples)
            })
            .collect();
        Arc::new(Dataset::from_trajectories(trajectories))
    }

    #[test]
    fn rendering_a_parsed_handle_is_linear() {
        // With and without repeated locations: neither the location
        // memo nor its give-up path may go super-linear.
        for repeats in [true, false] {
            crate::assert_linear(
                4_000,
                |n| StoredData::Parsed(located(n, repeats)),
                |data| assert!(data.text().len() > 4_000),
            );
        }
    }

    #[test]
    fn the_canonical_check_is_linear() {
        for repeats in [true, false] {
            crate::assert_linear(
                4_000,
                |n| {
                    let ds = located(n, repeats);
                    let text = to_csv(&ds);
                    (ds, text)
                },
                |(ds, text)| assert!(renders_to(ds, text)),
            );
        }
    }

    #[test]
    fn tenant_quotas_hold_under_concurrent_requests() {
        // Threads released together race uploads, then chunks, against
        // one capped tenant: the cap is checked under the lock that
        // inserts or appends, so none can slip past it.
        const THREADS: usize = 8;
        let limits = TenantLimits { max_datasets: Some(3), max_bytes: Some(40), max_jobs: None };
        let race = |op: &(dyn Fn(usize) -> Result<usize, ApiError> + Sync)| {
            let barrier = std::sync::Barrier::new(THREADS);
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..THREADS)
                    .map(|i| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            barrier.wait();
                            op(i)
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            for e in outcomes.iter().filter_map(|r| r.as_ref().err()) {
                assert_eq!(e.code, crate::api::ErrorCode::QuotaExceeded, "{e}");
            }
            outcomes.iter().filter(|r| r.is_ok()).count()
        };
        for round in 0..20 {
            let store = DatasetStore::new();
            let ids = Mutex::new(Vec::new());
            let opened = race(&|_| {
                let id = store.begin_for(Some(("acme", limits)))?;
                ids.lock().unwrap().push(id);
                Ok(0)
            });
            assert_eq!(opened, 3, "round {round}");
            let ids = ids.into_inner().unwrap();
            let appended = race(&|i| {
                store.append_for(&ids[i % ids.len()], "0123456789", Some(("acme", limits)))
            });
            assert_eq!(appended, 4, "round {round}");
            assert_eq!(store.lock().unwrap().usage("acme"), (3, 40), "round {round}");
        }
    }
}
