//! In-process replays of one op's inputs through each layer's public
//! functions, in the order the server calls them, with a span around
//! every call. They give the per-layer split of the traced run.

use crate::trace::Tracer;
use crate::workloads::PIECE_BYTES;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use trajdp_core::freq::FrequencyAnalysis;
use trajdp_core::global::{perturb_tf_shard, realize_tf, GlobalReport};
use trajdp_core::local::{local_unit_streamed, merge_local_units, LocalReport};
use trajdp_core::{FreqDpConfig, Model};
use trajdp_mech::MechError;
use trajdp_model::csv::{from_csv, to_csv};
use trajdp_server::api::{render, DatasetRow, Response};
use trajdp_server::client::{JobStatus, ServerInfo};
use trajdp_server::protocol::parse_request_line;
use trajdp_server::{
    json, DatasetStore, Envelope, Json, Metrics, MetricsSnapshot, ProtocolVersion,
};

/// What the publish replay produced besides its spans.
pub struct PublishReplay {
    /// The released CSV.
    pub release: String,
    /// Global-mechanism report (edit counts, search work, stage
    /// timings); `None` for PureL.
    pub global: Option<GlobalReport>,
    /// Local-mechanism report.
    pub local: LocalReport,
}

/// Replays one GL (or, for `Model::PureLocal`, PureL) anonymize the way
/// the server's job runs it with one worker: `from_csv` →
/// `FrequencyAnalysis::compute` → `perturb_tf_shard` → `realize_tf`
/// (GL only) → `local_unit_streamed` per trajectory →
/// `merge_local_units` → `to_csv`. The `executor.anonymize_parallel`
/// span encloses the steps between the CSV parse and render, as
/// `executor::anonymize_parallel` does.
pub fn publish(
    csv: &str,
    model: Model,
    cfg: &FreqDpConfig,
    t: &mut Tracer,
    op: u64,
) -> Result<PublishReplay, String> {
    let ds = t.span("csv.from_csv", op, |_| from_csv(csv)).map_err(|e| e.to_string())?;
    let (out, global, local) = t
        .span("executor.anonymize_parallel", op, |t| {
            let analysis = t.span("freq.compute", op, |_| FrequencyAnalysis::compute(&ds, cfg.m));
            let global = if model == Model::PureLocal {
                None
            } else {
                let perturbed = t.span("global.perturb", op, |_| {
                    let candidates = analysis.candidate_points();
                    perturb_tf_shard(&analysis, &candidates, 0, cfg.eps_global, cfg.seed)
                        .map(|v| v.into_iter().collect::<HashMap<_, _>>())
                })?;
                Some(t.span("global.realize", op, |_| {
                    realize_tf(&ds, &analysis, &perturbed, cfg.index, cfg.bbox_pruning, cfg.workers)
                }))
            };
            let mid = global.as_ref().map_or(&ds, |(mid, _)| mid);
            let units = t.span("local.units", op, |_| {
                mid.trajectories
                    .iter()
                    .enumerate()
                    .map(|(slot, traj)| {
                        local_unit_streamed(
                            traj,
                            &analysis,
                            slot,
                            cfg.eps_local,
                            cfg.index,
                            cfg.local_opts,
                            mid.domain,
                            cfg.seed,
                        )
                    })
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let (out, local) = t.span("local.merge", op, |_| merge_local_units(mid.domain, units));
            Ok::<_, MechError>((out, global.map(|(_, g)| g), local))
        })
        .map_err(|e| e.to_string())?;
    let release = t.span("csv.to_csv", op, |_| to_csv(&out));
    Ok(PublishReplay { release, global, local })
}

fn v2(id: String) -> Envelope {
    Envelope { version: ProtocolVersion::V2, id: Some(id), tenant: None }
}

/// Cuts `text` into pieces of at most `max` bytes on char boundaries,
/// as the client's chunked upload does.
pub fn pieces(text: &str, max: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let mut end = max.min(rest.len());
        while !rest.is_char_boundary(end) {
            end -= 1;
        }
        if end == 0 {
            end = rest.chars().next().map_or(rest.len(), char::len_utf8);
        }
        let (piece, tail) = rest.split_at(end);
        out.push(piece);
        rest = tail;
    }
    out
}

/// Replays one transfer op server- and client-side: each `chunk`
/// request is rendered, parsed as JSON and as a request line, appended
/// to an in-process store persisted under `dir`, and acknowledged;
/// then the handle is committed and every `download` piece is read,
/// rendered, serialized and parsed back. Finishes with a stored-result
/// `insert`. The reassembled text must equal `csv`.
pub fn transfer(csv: &str, dir: &Path, t: &mut Tracer, op: u64) -> Result<(), String> {
    let err = |e: trajdp_server::ApiError| e.to_string();
    let store = DatasetStore::open(Some(dir.to_path_buf())).map_err(|e| e.to_string())?;
    let handle = store.begin().map_err(err)?;
    for (k, piece) in pieces(csv, PIECE_BYTES).into_iter().enumerate() {
        let request = Json::obj([
            ("cmd", Json::from("chunk")),
            ("dataset", Json::from(handle.as_str())),
            ("data", Json::from(piece)),
            ("v", Json::from(2u64)),
            ("id", Json::from(format!("c-{k}"))),
        ]);
        let line = t.span("json.render", op, |_| request.to_string());
        t.span("json.parse", op, |_| json::parse(&line)).map_err(|e| e.to_string())?;
        let (envelope, parsed) =
            t.span("protocol.parse_request_line", op, |_| parse_request_line(&line));
        parsed.map_err(err)?;
        let bytes = t.span("store.append", op, |_| store.append(&handle, piece)).map_err(err)?;
        let dataset = handle.clone();
        t.span("api.render", op, |_| render(&envelope, Ok(Response::Chunk { dataset, bytes })));
    }
    t.span("store.commit", op, |_| store.commit(&handle)).map_err(err)?;
    let mut back = String::with_capacity(csv.len());
    let mut eof = false;
    let mut k = 0;
    while !eof {
        let offset = back.len();
        let (data, total_bytes, end) = t
            .span("store.read_chunk", op, |_| store.read_chunk(&handle, offset, PIECE_BYTES))
            .map_err(err)?;
        let response =
            Response::Download { dataset: handle.clone(), offset, data, total_bytes, eof: end };
        let envelope = v2(format!("d-{k}"));
        let body = t.span("api.render", op, |_| render(&envelope, Ok(response)));
        let line = t.span("json.render", op, |_| body.to_string());
        let parsed = t.span("json.parse", op, |_| json::parse(&line)).map_err(|e| e.to_string())?;
        back.push_str(parsed.get("data").and_then(Json::as_str).ok_or("piece without data")?);
        eof = end;
        k += 1;
    }
    if back != csv {
        return Err("transfer replay: reassembled text differs".into());
    }
    let (result, _) = t.span("store.insert", op, |_| store.insert(back)).map_err(err)?;
    store.delete(&result).map_err(err)?;
    store.delete(&handle).map_err(err)?;
    Ok(())
}

/// The live server's answers to one control rotation, captured outside
/// the window so the replay renders the same responses.
pub struct ControlAnswers {
    pub health: (u64, u64),
    pub info: ServerInfo,
    /// A finished job's `status`, when the session has one.
    pub status: Option<JobStatus>,
    pub list: Json,
    pub metrics: MetricsSnapshot,
}

/// `&'static str` state names the protocol uses, for rebuilding typed
/// `list` rows from their wire form.
fn state_name(s: Option<&str>) -> &'static str {
    match s {
        Some("queued") => "queued",
        Some("running") => "running",
        Some("pending") => "pending",
        Some("committing") => "committing",
        Some("committed") => "committed",
        _ => "done",
    }
}

fn list_response(list: &Json) -> Response {
    let rows = |key: &str| match list.get(key) {
        Some(Json::Arr(rows)) => rows.clone(),
        _ => Vec::new(),
    };
    let str_of =
        |r: &Json, k: &str| r.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    let num_of = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64).unwrap_or_default() as usize;
    Response::List {
        jobs: rows("jobs")
            .iter()
            .map(|r| (str_of(r, "job"), state_name(r.get("state").and_then(Json::as_str))))
            .collect(),
        datasets: rows("datasets")
            .iter()
            .map(|r| DatasetRow {
                dataset: str_of(r, "dataset"),
                bytes: num_of(r, "bytes"),
                state: state_name(r.get("state").and_then(Json::as_str)),
                pins: num_of(r, "pins"),
                eps_spent: r.get("eps_spent").and_then(Json::as_f64).unwrap_or_default(),
                eps_budget: r.get("eps_budget").and_then(Json::as_f64),
            })
            .collect(),
    }
}

/// Replays `rounds` control rotations: each verb's request line through
/// `parse_request_line` and its captured answer through `api::render`,
/// plus one `Metrics::snapshot` + `to_json` of a registry that has
/// counted the same requests.
pub fn control(a: &ControlAnswers, rounds: u64, t: &mut Tracer, op: u64) -> Result<(), String> {
    let i = &a.info;
    let mut responses = vec![
        (
            "health",
            Response::Health {
                outstanding_jobs: a.health.0 as usize,
                stored_datasets: a.health.1 as usize,
            },
        ),
        (
            "info",
            Response::Info {
                workers: i.workers as usize,
                max_datasets: i.max_datasets as usize,
                max_connections: i.max_connections as usize,
                read_timeout_secs: i.read_timeout_secs,
                uptime_secs: i.uptime_secs,
                started_at: i.started_at,
                state_dir: i.state_dir,
                tenants: i.tenants as usize,
                eps_budget: i.eps_budget,
            },
        ),
        ("list", list_response(&a.list)),
        ("metrics", Response::Metrics { snapshot: Box::new(a.metrics.clone()) }),
    ];
    if let Some(st) = &a.status {
        let status = Response::JobStatus {
            job: st.job.clone(),
            state: "done",
            result: st.result.clone().map(Arc::new),
            duration_secs: st.duration_secs,
            timings: None,
        };
        responses.push(("status", status));
    }
    let registry = Metrics::new();
    for k in 0..rounds {
        for (verb, response) in &responses {
            // The lines the client sends: typed v2 calls with an id,
            // and `list` as a raw v1 request.
            let mut request = BTreeMap::from([("cmd".to_string(), Json::from(*verb))]);
            if *verb != "list" {
                request.insert("v".into(), Json::from(2u64));
                request.insert("id".into(), Json::from(format!("c-{k}")));
            }
            if let (Some(st), "status") = (&a.status, *verb) {
                request.insert("job".into(), Json::from(st.job.as_str()));
            }
            let line = Json::Obj(request).to_string();
            let (envelope, parsed) =
                t.span("protocol.parse_request_line", op, |_| parse_request_line(&line));
            parsed.map_err(|e| format!("{verb}: {e}"))?;
            let response = response.clone();
            t.span("api.render", op, |_| render(&envelope, Ok(response)));
            registry.record_request(verb, std::time::Duration::from_micros(100));
        }
        t.span("obs.snapshot", op, |_| registry.snapshot().to_json());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_respect_size_and_char_boundaries() {
        assert_eq!(pieces("abcdefg", 3), ["abc", "def", "g"]);
        assert_eq!(pieces("", 3), Vec::<&str>::new());
        // 'é' is two bytes: a 3-byte budget cannot end inside it.
        assert_eq!(pieces("aéé", 3), ["aé", "é"]);
        // A budget below one scalar still makes progress.
        assert_eq!(pieces("éa", 1), ["é", "a"]);
    }

    #[test]
    fn publish_replay_equals_the_core_pipeline() {
        let world =
            trajdp_synth::generate(&trajdp_synth::GeneratorConfig::tdrive_profile(12, 40, 3));
        let csv = to_csv(&world.dataset);
        let local = crate::workloads::publish_config(Model::PureLocal, 99);
        let mut t = Tracer::new(true);
        let replay = publish(&csv, Model::PureLocal, &local, &mut t, 1).unwrap();
        let expected = crate::workloads::expected_release(&csv, Model::PureLocal, 99).unwrap();
        assert_eq!(replay.release, expected);
        assert!(replay.global.is_none() && !t.totals_since(0).contains_key("global.realize"));
        let cfg = crate::workloads::publish_config(Model::Combined, 99);
        let mut t = Tracer::new(true);
        let replay = publish(&csv, Model::Combined, &cfg, &mut t, 1).unwrap();
        let expected = crate::workloads::expected_release(&csv, Model::Combined, 99).unwrap();
        assert_eq!(replay.release, expected);
        let totals = t.totals_since(0);
        for name in ["csv.from_csv", "freq.compute", "global.realize", "local.units", "csv.to_csv"]
        {
            assert_eq!(totals[name].count, 1, "{name}");
        }
        // The executor span's children account for all but its self time.
        let exec = totals["executor.anonymize_parallel"];
        let children: u64 =
            ["freq.compute", "global.perturb", "global.realize", "local.units", "local.merge"]
                .iter()
                .map(|n| totals[n].total_ns)
                .sum();
        assert_eq!(exec.total_ns - exec.self_ns, children);
    }

    #[test]
    fn transfer_replay_round_trips_through_a_persisted_store() {
        let dir = std::env::temp_dir().join(format!("perfbench-replay-{}", std::process::id()));
        let csv = "traj_id,x,y,t\n".to_string() + &"1,2.5,3.5,4\n".repeat(3000);
        let mut t = Tracer::new(true);
        transfer(&csv, &dir, &mut t, 1).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let totals = t.totals_since(0);
        let n = pieces(&csv, PIECE_BYTES).len() as u64;
        assert!(n > 1);
        assert_eq!(totals["store.append"].count, n);
        assert_eq!(totals["store.read_chunk"].count, n);
        assert_eq!(totals["json.parse"].count, 2 * n);
    }
}
