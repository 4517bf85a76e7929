//! The `jobs.jsonl` format and its writer: one [`Event`] per line, a
//! single-line JSON object with sorted keys, defined once by
//! [`Event::into_json`] and [`Event::from_json`]. `jobs.rs` decides
//! when an event is written and how a replayed one changes the queue.

use crate::json::Json;
use crate::ledger::{EpsLedger, LedgerRow};
use crate::obs::Metrics;
use crate::protocol::{spec_from_json, spec_to_json, AnonymizeParams};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One journal line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Event {
    /// Compaction header: the job id counter, which outlives the records
    /// of evicted jobs, the settled ε ledger (in-flight charges re-derive
    /// from the re-recorded submits), the live committed handles no job
    /// names, and the dataset id mark.
    Snapshot { next: u64, ledger: EpsLedger, datasets: Vec<String>, ids: u64 },
    /// An accepted job; a handle-backed spec names the handle.
    Submit { job: String, spec: AnonymizeParams },
    /// A finished job's v1-shaped result.
    Finish { job: String, result: Arc<Json> },
    /// The compacted form of submit + finish: the spec is gone.
    Done { job: String, result: Arc<Json> },
    /// A queued job cancelled before it ran.
    Cancel { job: String },
    /// An explicit per-handle ε budget (`upload` `eps_budget`).
    Budget { dataset: String, eps_budget: f64 },
    /// A synchronous run's settled ε charge.
    Spend { dataset: String, eps: f64 },
    /// A deleted handle: gone, and its ledger row forgotten.
    Reset { dataset: String },
    /// A committed dataset whose blob `ds-<n>.csv` is durable.
    Commit { dataset: String },
    /// The dataset id mark: no id past `upto` has been handed out.
    Ids { upto: u64 },
}

/// The one rule for a journaled ε amount: finite and positive.
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Numeric suffix of a `job-<n>` id.
pub(crate) fn job_number(id: &str) -> Result<u64, String> {
    id.strip_prefix("job-")
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| format!("malformed job id {id:?}"))
}

impl Event {
    /// The event's line. Consuming the event moves a submit's inline
    /// CSV into the `Json`; a result is copied only if still shared.
    pub(crate) fn into_json(self) -> Json {
        let job = |job: String| ("job", Json::from(job));
        let dataset = |dataset: String| ("dataset", Json::from(dataset));
        let result = |result: Arc<Json>| ("result", Arc::unwrap_or_clone(result));
        let (kind, mut members) = match self {
            // The ledger is omitted when empty, so journals that never
            // touched the budget machinery keep their pre-ledger shape.
            Event::Snapshot { next, ledger, datasets, ids } => {
                let ledger = (!ledger.is_empty()).then(|| ("ledger", ledger.to_json()));
                let datasets = Json::Arr(datasets.into_iter().map(Json::from).collect());
                let members = [("next", Json::from(next)), ("datasets", datasets)];
                (
                    "snapshot",
                    members.into_iter().chain(ledger).chain([("ids", Json::from(ids))]).collect(),
                )
            }
            Event::Submit { job: id, spec } => {
                ("submit", vec![job(id), ("spec", spec_to_json(spec))])
            }
            Event::Finish { job: id, result: r } => ("finish", vec![job(id), result(r)]),
            Event::Done { job: id, result: r } => ("done", vec![job(id), result(r)]),
            Event::Cancel { job: id } => ("cancel", vec![job(id)]),
            Event::Budget { dataset: ds, eps_budget } => {
                ("budget", vec![dataset(ds), ("eps_budget", Json::from(eps_budget))])
            }
            Event::Spend { dataset: ds, eps } => {
                ("spend", vec![dataset(ds), ("eps", Json::from(eps))])
            }
            Event::Reset { dataset: ds } => ("reset", vec![dataset(ds)]),
            Event::Commit { dataset: ds } => ("commit", vec![dataset(ds)]),
            Event::Ids { upto } => ("ids", vec![("upto", Json::from(upto))]),
        };
        members.push(("event", Json::from(kind)));
        Json::obj(members)
    }

    /// Strict inverse of [`Self::into_json`], from one line's text: a
    /// line that does not decode is journal corruption, not something
    /// to guess around. Replay checks what needs earlier events
    /// (duplicates, unsubmitted finishes).
    pub(crate) fn from_json(line: &str) -> Result<Event, String> {
        let v = crate::json::parse(line).map_err(|e| e.to_string())?;
        let kind = v.get("event").and_then(Json::as_str).ok_or("missing event")?;
        let text = |key: &str, missing: String| {
            v.get(key).and_then(Json::as_str).map(str::to_string).ok_or(missing)
        };
        let job =
            || text("job", "missing job id".into()).and_then(|job| job_number(&job).map(|_| job));
        let dataset = || text("dataset", format!("{kind} without dataset"));
        let amount = |key: &str| v.get(key).and_then(Json::as_f64).filter(|x| positive(*x));
        let result =
            || v.get("result").map(|r| Arc::new(r.clone())).ok_or(format!("{kind} without result"));
        Ok(match kind {
            "snapshot" => {
                let next =
                    v.get("next").and_then(Json::as_u64).ok_or("snapshot without next id")?;
                let ledger =
                    v.get("ledger").map_or(Ok(EpsLedger::default()), EpsLedger::from_json)?;
                // The budget and spend events' rule; settled spend may be 0.
                let sound = |r: LedgerRow| {
                    r.spent >= 0.0 && r.spent.is_finite() && r.budget.is_none_or(positive)
                };
                if let Some((handle, _)) = ledger.iter().find(|(_, r)| !sound(*r)) {
                    return Err(format!(
                        "ledger row {handle:?} needs a finite spent >= 0 and a positive budget"
                    ));
                }
                // Snapshots older than the store's record lack both.
                let datasets = match v.get("datasets") {
                    None => Some(Vec::new()),
                    Some(Json::Arr(items)) => {
                        items.iter().map(|d| d.as_str().map(Into::into)).collect()
                    }
                    Some(_) => None,
                };
                let datasets = datasets.ok_or("snapshot datasets must be an array of handles")?;
                let ids = v
                    .get("ids")
                    .map_or(Some(0), Json::as_u64)
                    .ok_or("snapshot ids must be a mark")?;
                Event::Snapshot { next, ledger, datasets, ids }
            }
            "submit" => {
                let spec = v.get("spec").ok_or("submit without spec")?;
                Event::Submit { job: job()?, spec: spec_from_json(spec).map_err(|e| e.message)? }
            }
            "finish" => Event::Finish { job: job()?, result: result()? },
            "done" => Event::Done { job: job()?, result: result()? },
            "cancel" => Event::Cancel { job: job()? },
            "budget" => Event::Budget {
                dataset: dataset()?,
                eps_budget: amount("eps_budget").ok_or("budget without a positive eps_budget")?,
            },
            "spend" => Event::Spend {
                dataset: dataset()?,
                eps: amount("eps").ok_or("spend without a positive eps")?,
            },
            "reset" => Event::Reset { dataset: dataset()? },
            "commit" => Event::Commit { dataset: dataset()? },
            "ids" => {
                Event::Ids { upto: v.get("upto").and_then(Json::as_u64).ok_or("ids without upto")? }
            }
            other => return Err(format!("unknown event {other:?}")),
        })
    }
}

/// Reads the journal at `path` for replay. A
/// crash-torn tail is repaired *in the file*, not just in memory: the
/// journal reopens in append mode, so a fragment left behind would fuse
/// with the next event into one corrupt mid-file line — unreadable on
/// every restart after that.
pub(crate) fn read(path: &Path) -> Result<String, String> {
    let mut text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
    };
    if !text.is_empty() && !text.ends_with('\n') {
        let tail_start = text.rfind('\n').map_or(0, |i| i + 1);
        let repaired = if crate::json::parse(&text[tail_start..]).is_ok() {
            // A complete event that lost only its terminator: the crash
            // hit between the bytes and the newline. Keep it and
            // restore the newline.
            text.push('\n');
            std::fs::OpenOptions::new().append(true).open(path).and_then(|mut f| f.write_all(b"\n"))
        } else {
            // A torn fragment; its event was never acknowledged. Drop
            // it from replay and truncate it out of the file.
            text.truncate(tail_start);
            std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(tail_start as u64))
        };
        repaired.map_err(|e| format!("cannot repair journal {}: {e}", path.display()))?;
    }
    Ok(text)
}

/// State captured for one compaction: the [`Event::Snapshot`] header,
/// unfinished submits in id order, retained results in completion order.
pub(crate) struct Snapshot {
    pub(crate) header: Event,
    pub(crate) submits: Vec<(String, AnonymizeParams)>,
    pub(crate) dones: Vec<(String, DoneRecord)>,
}

/// Where one retained result's bytes live at compaction time. A
/// journal-backed result is streamed from its range one at a time, so a
/// snapshot of 256 of them never holds them in memory at once.
pub(crate) enum DoneRecord {
    Mem(Arc<Json>),
    Journaled(ResultRange),
}

/// The bytes of one result inside a journal file: the `result` member
/// of its `finish` or `done` line. The handle is shared, so a range
/// stays readable after a compaction renames a new journal over its
/// file, until the records move to the new one.
#[derive(Debug, Clone)]
pub struct ResultRange {
    pub(crate) file: Arc<File>,
    pub(crate) offset: u64,
    pub(crate) len: u64,
}

impl ResultRange {
    /// The range's bytes, by a positioned read: it neither moves nor
    /// waits for the writer's cursor, so it needs no lock.
    pub(crate) fn read(&self) -> std::io::Result<Vec<u8>> {
        let mut buf = vec![0; self.len as usize];
        self.file.read_exact_at(&mut buf, self.offset)?;
        Ok(buf)
    }

    /// The result the range holds.
    pub(crate) fn json(&self) -> Result<Json, String> {
        let text = String::from_utf8(self.read().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        crate::json::parse(&text).map_err(|e| e.to_string())
    }
}

impl PartialEq for ResultRange {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.file, &other.file) && (self.offset, self.len) == (other.offset, other.len)
    }
}

/// A `finish` or `done` line, built with a `null` result, cut before
/// that result. `result` sorts last among the members, so the full line
/// is this head, the result's JSON, and `}`.
fn result_head(event: Event) -> String {
    let mut line = event.into_json().to_string();
    line.truncate(line.len() - "null}".len());
    line
}

/// Where `result` sits in `file`, given its `finish` or `done` line and
/// the byte the line starts at: `None` unless the line ends in the
/// result's own serialization and `}`, as every line [`JournalWriter`]
/// writes does.
pub(crate) fn result_range(
    file: &Arc<File>,
    line: &str,
    start: usize,
    result: &Json,
) -> Option<ResultRange> {
    let text = result.to_string();
    let head = line.strip_suffix('}')?.strip_suffix(text.as_str())?;
    let (offset, len) = ((start + head.len()) as u64, text.len() as u64);
    Some(ResultRange { file: Arc::clone(file), offset, len })
}

/// The append/rewrite half of the journal, behind its own lock so disk
/// writes never hold the queue mutex.
pub(crate) struct JournalWriter {
    /// Opened read-write: result ranges read through the same handle.
    pub(crate) file: Arc<File>,
    path: PathBuf,
    /// Finish events appended since the last compaction, failed ones too.
    pub(crate) finished_appends: usize,
}

impl JournalWriter {
    pub(crate) fn open(path: &Path) -> std::io::Result<JournalWriter> {
        let file = OpenOptions::new().create(true).read(true).append(true).open(path)?;
        Ok(JournalWriter { file: Arc::new(file), path: path.to_path_buf(), finished_appends: 0 })
    }

    /// Appends one event line and syncs it to disk — the "appended
    /// before it is acknowledged" contract must hold across power
    /// loss, not just process death, so this fsyncs rather than merely
    /// flushing. On success it counts the append and its write + fsync
    /// time in `metrics`, and returns the pre-append file length, so a
    /// caller that decides *after* the append that the event must not
    /// stand (a shutdown raced the submit) can [`Self::rollback_to`]
    /// it. A failed append rolls the file back itself: a torn fragment
    /// left in place would fuse with the next successful append into
    /// one corrupt mid-file line, which replay (rightly) refuses —
    /// bricking every future restart on this state dir.
    pub(crate) fn append(&mut self, event: Event, metrics: &Metrics) -> std::io::Result<u64> {
        let line = format!("{}\n", event.into_json());
        self.append_parts(&[line.as_bytes()], metrics)
    }

    /// Appends the `finish` event of `job` with its already serialized
    /// `result`, as [`Self::append`] does, and returns where the result
    /// landed in the file.
    pub(crate) fn append_finish(
        &mut self,
        job: &str,
        result: &str,
        metrics: &Metrics,
    ) -> std::io::Result<ResultRange> {
        self.finished_appends += 1;
        let head =
            result_head(Event::Finish { job: job.to_string(), result: Arc::new(Json::Null) });
        let before = self.append_parts(&[head.as_bytes(), result.as_bytes(), b"}\n"], metrics)?;
        let offset = before + head.len() as u64;
        Ok(ResultRange { file: Arc::clone(&self.file), offset, len: result.len() as u64 })
    }

    /// The write, fsync and rollback of one line given in `parts`.
    fn append_parts(&mut self, parts: &[&[u8]], metrics: &Metrics) -> std::io::Result<u64> {
        let started = Instant::now();
        let mut file = &*self.file;
        // Seek explicitly: after a compaction the handle is the temp
        // file's plain fd (not `O_APPEND`), and a preceding rollback
        // truncates without moving the cursor — writing at a stale
        // cursor past EOF would punch a NUL-filled gap into the
        // journal, which strict replay (rightly) refuses forever.
        let before = file.seek(SeekFrom::End(0))?;
        let write = parts.iter().try_for_each(|part| file.write_all(part));
        if let Err(e) = write.and_then(|()| file.sync_data()) {
            self.rollback_to(before);
            return Err(e);
        }
        metrics.journal_appends.fetch_add(1, Ordering::Relaxed);
        metrics.journal_fsync.observe(started.elapsed());
        Ok(before)
    }

    /// Truncates the journal back to `len` and parks the cursor at the
    /// new EOF — only safe while the caller still holds the journal
    /// lock it appended under, so no other event has landed after the
    /// one being rolled back.
    pub(crate) fn rollback_to(&mut self, len: u64) {
        let _ = self.file.set_len(len);
        let _ = (&*self.file).seek(SeekFrom::Start(len));
    }

    /// Atomically replaces the journal with the snapshot (temp file +
    /// fsync, then rename + directory fsync). A crash at any point
    /// leaves either the old or the new journal complete on disk,
    /// never a mixture. The temp file's own descriptor becomes the
    /// append handle the moment the rename lands — re-opening by path
    /// could fail (e.g. fd exhaustion) and leave acknowledged appends
    /// going to the replaced, unlinked inode. Returns the new range of
    /// every journal-backed result, for the caller to move its record.
    pub(crate) fn rewrite(
        &mut self,
        snapshot: Snapshot,
    ) -> std::io::Result<Vec<(String, ResultRange)>> {
        let tmp = self.path.with_extension("jsonl.tmp");
        // Stream each event straight into the temp file: the retained
        // results can total hundreds of MB, so neither they nor the
        // assembled journal text may be held in a transient buffer.
        let file = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&tmp);
        let file = Arc::new(file?);
        let mut f = std::io::BufWriter::new(&*file);
        writeln!(f, "{}", snapshot.header.into_json())?;
        for (job, spec) in snapshot.submits {
            writeln!(f, "{}", Event::Submit { job, spec }.into_json())?;
        }
        let mut moved = Vec::new();
        for (job, record) in snapshot.dones {
            let head = Event::Done { job: job.clone(), result: Arc::new(Json::Null) };
            f.write_all(result_head(head).as_bytes())?;
            match record {
                DoneRecord::Mem(result) => write!(f, "{result}")?,
                DoneRecord::Journaled(old) => {
                    let (offset, len) = (f.stream_position()?, old.len);
                    f.write_all(&old.read()?)?;
                    moved.push((job, ResultRange { file: Arc::clone(&file), offset, len }));
                }
            }
            writeln!(f, "}}")?;
        }
        f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        // From here on `file` IS the live journal: later appends must
        // go to it even if the directory fsync below fails.
        self.file = file;
        self.finished_appends = 0;
        if let Some(dir) = self.path.parent() {
            File::open(dir)?.sync_all()?;
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::render_v1;
    use crate::jobs::JobQueue;
    use crate::protocol::DataRef;
    use crate::store::DatasetStore;
    use trajdp_core::Model;

    /// A journal written by the previous writer (hand-formatted
    /// compaction lines, field-by-field appends), holding every event
    /// kind: a snapshot with a ledger (one row without a budget), a
    /// done line, inline and by-handle submits, a cancel, finishes, and
    /// budget/spend/reset events.
    const PARENT_JOURNAL: &str = r#"{"event":"snapshot","next":1,"ledger":{"ds-1":{"budget":3.5,"spent":0.9},"ds-4":{"spent":0.3}}}
{"event":"done","job":"job-1","result":{"dataset":"ds-7","epsilon_spent":0.30000000000000004,"ok":true}}
{"event":"submit","job":"job-2","spec":{"csv":"traj_id,x,y,t\n0,0.5,0.25,0\n0,0.75,\"q\\\\\",1\n","eps_split":0.3,"epsilon":1.5,"m":3,"model":"gl","seed":4,"store":true,"workers":2}}
{"event":"submit","job":"job-3","spec":{"dataset":"ds-1","eps_split":0.3,"epsilon":0.25,"m":3,"model":"lg","seed":12,"store":true,"workers":2}}
{"event":"submit","job":"job-4","spec":{"dataset":"ds-1","eps_split":0.3,"epsilon":0.5,"m":3,"model":"gl","seed":13,"store":false,"workers":2}}
{"event":"cancel","job":"job-4"}
{"event":"finish","job":"job-3","result":{"csv":"0,1.0000000000000002,0.3,7\n","ok":true,"report":{"edits":5,"loss":0.3333333333333333}}}
{"dataset":"ds-2","eps_budget":2,"event":"budget"}
{"dataset":"ds-2","eps":0.7,"event":"spend"}
{"dataset":"ds-2","event":"reset"}
{"dataset":"ds-3","eps_budget":0.001,"event":"budget"}
{"dataset":"ds-3","eps":0.0001,"event":"spend"}
{"dataset":"ds-1","eps":0.05,"event":"spend"}
{"event":"submit","job":"job-5","spec":{"dataset":"ds-1","eps_split":0.3,"epsilon":0.125,"m":3,"model":"gl","seed":14,"store":true,"workers":2}}
{"event":"submit","job":"job-6","spec":{"dataset":"ds-1","eps_split":0.3,"epsilon":0.0625,"m":3,"model":"lg","seed":15,"store":false,"workers":2}}
{"event":"finish","job":"job-6","result":{"error":"boom é","ok":false}}
"#;

    /// What the parent journal needs in front to be a state dir of this
    /// writer's: the id mark, and a `commit` for every handle whose blob
    /// the replay must load (`ds-1` feeds the queued jobs, `ds-3` and
    /// `ds-4` carry ledger rows).
    const STORE_LINES: &str = r#"{"event":"ids","upto":1024}
{"dataset":"ds-1","event":"commit"}
{"dataset":"ds-3","event":"commit"}
{"dataset":"ds-4","event":"commit"}
"#;

    #[test]
    fn parent_journal_replays_to_the_parent_state() {
        let dir = std::env::temp_dir().join("trajdp-parent-journal-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("jobs.jsonl");
        std::fs::write(&path, format!("{STORE_LINES}{PARENT_JOURNAL}")).unwrap();
        let datasets = dir.join("datasets");
        std::fs::create_dir_all(&datasets).unwrap();
        for id in ["ds-1", "ds-3", "ds-4"] {
            std::fs::write(datasets.join(format!("{id}.csv")), "traj_id,x,y,t\n0,0,0,0\n").unwrap();
        }

        // Twice: the first open replays the parent's lines and compacts
        // them; the second replays what this writer wrote.
        for reopen in 0..2 {
            let store = DatasetStore::open(Some(dir.join("datasets"))).unwrap();
            let q = JobQueue::with_journal(store, &path).unwrap();
            let list: Vec<(String, &str)> = q.list();
            assert_eq!(
                list,
                [
                    ("job-1", "done"),
                    ("job-2", "queued"),
                    ("job-3", "done"),
                    ("job-5", "queued"),
                    ("job-6", "done")
                ]
                .map(|(id, state)| (id.to_string(), state)),
                "reopen {reopen}"
            );
            for (id, status) in [
                (
                    "job-1",
                    r#"{"dataset":"ds-7","epsilon_spent":0.30000000000000004,"job":"job-1","ok":true,"state":"done"}"#,
                ),
                ("job-2", r#"{"job":"job-2","ok":true,"state":"queued"}"#),
                (
                    "job-3",
                    r#"{"csv":"0,1.0000000000000002,0.3,7\n","job":"job-3","ok":true,"report":{"edits":5,"loss":0.3333333333333333},"state":"done"}"#,
                ),
                ("job-4", r#"{"error":"unknown job \"job-4\"","ok":false}"#),
                ("job-5", r#"{"job":"job-5","ok":true,"state":"queued"}"#),
                ("job-6", r#"{"error":"boom é","job":"job-6","ok":false,"state":"done"}"#),
            ] {
                let got = render_v1(q.status_response(id)).to_string();
                assert_eq!(got, status, "reopen {reopen}: status of {id}");
            }
            // Settled + in-flight ε, bit for bit: ds-1 = 0.9 (snapshot)
            // + 0.25 (job-3) + 0.05 + 0.0625 (job-6) + 0.125 (job-5
            // in flight); ds-2 was reset; ds-4 has no budget.
            for (handle, spent_bits, budget) in [
                ("ds-1", 0x3ff6_3333_3333_3333_u64, Some(3.5)),
                ("ds-2", 0, None),
                ("ds-3", 0x3f1a_36e2_eb1c_432d, Some(0.001)),
                ("ds-4", 0x3fd3_3333_3333_3333, None),
                ("ds-9", 0, None),
            ] {
                let (spent, got_budget) = q.eps_info(handle);
                assert_eq!(spent.to_bits(), spent_bits, "reopen {reopen}: {handle} spent {spent}");
                assert_eq!(got_budget, budget, "reopen {reopen}: {handle}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_event_round_trips() {
        let mut ledger = EpsLedger::default();
        ledger.settle("ds-1", 0.1 + 0.2);
        ledger.set_budget("ds-1", 2.5);
        ledger.settle("ds-2", 1.0 / 3.0);
        let params = |data| AnonymizeParams {
            model: Model::CombinedLocalFirst,
            epsilon: 0.7,
            eps_split: 0.3,
            m: 4,
            seed: 9,
            workers: 3,
            store_result: true,
            data,
        };
        let result = Arc::new(crate::json::parse(r#"{"csv":"1,0.5,2\n","ok":true}"#).unwrap());
        let events = [
            Event::Snapshot {
                next: 7,
                ledger,
                datasets: vec!["ds-2".into(), "ds-10".into()],
                ids: 2048,
            },
            Event::Snapshot { next: 0, ledger: EpsLedger::default(), datasets: vec![], ids: 0 },
            Event::Submit { job: "job-1".into(), spec: params(DataRef::Handle("ds-1".into())) },
            Event::Submit {
                job: "job-2".into(),
                spec: params(DataRef::Inline(Arc::new("a,\"b\"\n".into()))),
            },
            Event::Finish { job: "job-1".into(), result: Arc::clone(&result) },
            Event::Done { job: "job-2".into(), result },
            Event::Cancel { job: "job-3".into() },
            Event::Budget { dataset: "ds-1".into(), eps_budget: 3.5 },
            Event::Spend { dataset: "ds-1".into(), eps: 0.1 + 0.2 },
            Event::Reset { dataset: "ds-1".into() },
            Event::Commit { dataset: "ds-3".into() },
            Event::Ids { upto: 1024 },
        ];
        for event in events {
            let text = event.clone().into_json().to_string();
            let decoded = Event::from_json(&text);
            assert_eq!(decoded.as_ref(), Ok(&event), "{text}");
        }
    }
}
