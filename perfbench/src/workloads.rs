//! The workloads: their seeded inputs, server set-up, and one op each.
//! Every workload times exactly one kind of op, so its latency
//! distribution has one mode.
//!
//! `publish` and `local` are the ones `BENCHMARK.json` gates on.
//! `transfer` and `control` run the same way but are left out of it:
//! their ops are many small requests, and on a 2-vCPU shared VM the
//! host's fast and slow phases (seconds long, up to 1.6x apart) moved
//! their 10-run medians by more than any usable bound.

use crate::server::ServerProc;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Duration;
use trajdp_core::{FreqDpConfig, Model};
use trajdp_model::csv::{from_csv, to_csv};
use trajdp_server::client::JobPhase;
use trajdp_server::protocol::budget_split;
use trajdp_server::{Client, Json};
use trajdp_synth::{generate, GeneratorConfig};

/// Piece size of every upload and download. At 1 MiB the server's JSON
/// string parse takes tens of seconds per piece; 16 KiB keeps a
/// transfer op near 0.2 s while still exercising many pieces.
pub const PIECE_BYTES: usize = 16 * 1024;

/// `status` polls per job: the gap between polls is the previous job's
/// duration over this, so the poll count (and the client CPU it costs)
/// does not grow with job duration while the overshoot stays near 1/80
/// of a job.
const POLLS_PER_JOB: u32 = 40;
/// Gap before the first job's duration is known, and the clamp on it.
const FIRST_POLL_GAP: Duration = Duration::from_millis(2);
const MIN_POLL_GAP: Duration = Duration::from_millis(1);
const MAX_POLL_GAP: Duration = Duration::from_millis(20);

/// Longest a publish job may take: about 100 times its usual run time.
const JOB_DEADLINE: Duration = Duration::from_secs(20);

/// Publish: trajectories × points of each stored dataset, and how many
/// the ops rotate through. GL cost differs by up to ±25% between
/// generated datasets of one shape; rotating through several keeps one
/// seed's median close to another's.
const PUBLISH_SHAPE: (usize, usize) = (100, 150);
const PUBLISH_POOL: usize = 8;
/// Transfer: shape of each round-tripped dataset, and how many
/// distinct ones the ops cycle through.
const TRANSFER_SHAPE: (usize, usize) = (50, 100);
const TRANSFER_POOL: usize = 8;
/// Control: small fixture datasets, and how many finished jobs run on
/// them before the window.
const CONTROL_SHAPE: (usize, usize) = (10, 30);
const CONTROL_DATASETS: usize = 3;
const CONTROL_JOBS: usize = 2;

/// The anonymize parameters of a release op (the model depends on the
/// workload, the seed on the op).
pub const M: usize = 10;
pub const EPSILON: f64 = 1.0;
pub const EPS_SPLIT: f64 = 0.5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Async GL anonymize by handle, polled to completion.
    Publish,
    /// The same op with the PureL model: no global modification.
    Local,
    /// Chunked upload, commit, chunked download, delete.
    Transfer,
    /// One rotation of health, info, status, list, metrics.
    Control,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "publish" => Some(Workload::Publish),
            "local" => Some(Workload::Local),
            "transfer" => Some(Workload::Transfer),
            "control" => Some(Workload::Control),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Publish => "publish",
            Workload::Local => "local",
            Workload::Transfer => "transfer",
            Workload::Control => "control",
        }
    }

    /// The anonymize model of a release workload, by wire name.
    pub fn model(self) -> Option<(&'static str, Model)> {
        match self {
            Workload::Publish => Some(("gl", Model::Combined)),
            Workload::Local => Some(("purel", Model::PureLocal)),
            Workload::Transfer | Workload::Control => None,
        }
    }
}

/// SplitMix64: decorrelates derived seeds from the run seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The anonymize seed of op `op`: below 2^53 so it survives the wire's
/// f64 numbers exactly.
pub fn op_seed(run_seed: u64, op: u64) -> u64 {
    mix(run_seed, op) >> 11
}

/// The core configuration a release op of `model` with `seed` runs under.
pub fn publish_config(model: Model, seed: u64) -> FreqDpConfig {
    let (eps_global, eps_local) = budget_split(model, EPSILON, EPS_SPLIT);
    FreqDpConfig { m: M, eps_global, eps_local, seed, workers: 1, ..FreqDpConfig::default() }
}

fn synth_csv((trajectories, points): (usize, usize), seed: u64) -> String {
    to_csv(&generate(&GeneratorConfig::tdrive_profile(trajectories, points, seed)).dataset)
}

/// The datasets a workload sends, generated from the run seed before
/// anything is timed.
pub fn make_inputs(w: Workload, seed: u64) -> Vec<String> {
    let (shape, count) = match w {
        Workload::Publish | Workload::Local => (PUBLISH_SHAPE, PUBLISH_POOL),
        Workload::Transfer => (TRANSFER_SHAPE, TRANSFER_POOL),
        Workload::Control => (CONTROL_SHAPE, CONTROL_DATASETS),
    };
    (0..count as u64).map(|k| synth_csv(shape, mix(seed, k))).collect()
}

/// What set-up leaves behind for the ops.
pub enum Fixture {
    /// The committed handles release ops anonymize, one per input.
    Publish { datasets: Vec<String> },
    /// Transfer needs no server-side state.
    Transfer,
    /// The finished job `status` polls, and every fixture handle and
    /// job `list` must show.
    Control { job: String, handles: Vec<String>, jobs: Vec<String> },
}

/// A running server with its connected client and fixture.
pub struct Session {
    pub server: ServerProc,
    pub client: Client,
    pub fixture: Fixture,
    /// `status` polls made so far.
    pub polls: u64,
    /// Gap between `status` polls, from the last job's duration.
    poll_gap: Duration,
    /// The last job that finished, for `status` replays.
    pub last_job: Option<String>,
}

fn api<T>(what: &str, r: Result<T, trajdp_server::ApiError>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Spawns the server, loads the workload's fixture, and runs one
/// untimed warm-up op (op id 0).
pub fn setup(
    w: Workload,
    bin: &Path,
    state_dir: &Path,
    inputs: &[String],
    run_seed: u64,
    t: &mut Tracer,
) -> Result<Session, String> {
    let server = ServerProc::spawn(bin, state_dir)?;
    let client =
        Client::connect(&server.addr).map_err(|e| format!("connect {}: {e}", server.addr))?;
    let mut s = Session {
        server,
        client,
        fixture: Fixture::Transfer,
        polls: 0,
        poll_gap: FIRST_POLL_GAP,
        last_job: None,
    };
    s.fixture = match w {
        Workload::Publish | Workload::Local => {
            let mut datasets = Vec::new();
            for csv in inputs {
                datasets.push(api("upload", s.client.upload_dataset(csv, PIECE_BYTES))?.dataset);
            }
            Fixture::Publish { datasets }
        }
        Workload::Transfer => Fixture::Transfer,
        Workload::Control => {
            let mut handles = Vec::new();
            for csv in inputs {
                handles.push(api("upload", s.client.upload_dataset(csv, PIECE_BYTES))?.dataset);
            }
            let mut jobs = Vec::new();
            for k in 0..CONTROL_JOBS {
                let params = anonymize_params(&handles[k], "gl", 4, k as u64);
                let job = api("submit", s.client.submit(&params))?.job;
                let result = poll_done(&mut s, &job, t, 0)?;
                handles.push(result_handle(&result)?);
                jobs.push(job);
            }
            Fixture::Control { job: jobs[0].clone(), handles, jobs }
        }
    };
    run_op(w, &mut s, inputs, run_seed, 0, t)?;
    Ok(s)
}

fn anonymize_params(dataset: &str, model: &str, m: usize, seed: u64) -> Json {
    Json::obj([
        ("model", Json::from(model)),
        ("dataset", Json::from(dataset)),
        ("epsilon", Json::from(EPSILON)),
        ("eps_split", Json::from(EPS_SPLIT)),
        ("m", Json::from(m)),
        ("seed", Json::from(seed)),
        ("store", Json::Bool(true)),
    ])
}

/// Polls `job` until it is done, returning its recorded result (which
/// must report success). A job still unfinished after [`JOB_DEADLINE`]
/// fails the op, so a stuck job cannot hang the run.
fn poll_done(s: &mut Session, job: &str, t: &mut Tracer, op: u64) -> Result<Json, String> {
    let start = std::time::Instant::now();
    loop {
        if start.elapsed() > JOB_DEADLINE {
            return Err(format!("job {job} not done after {JOB_DEADLINE:?}"));
        }
        let st = t.span("client.status", op, |_| api("status", s.client.status(job)))?;
        s.polls += 1;
        if st.phase == JobPhase::Done {
            let result = st.result.ok_or("done job without a result")?;
            if result.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("job {job} failed: {result}"));
            }
            s.poll_gap = (start.elapsed() / POLLS_PER_JOB).clamp(MIN_POLL_GAP, MAX_POLL_GAP);
            s.last_job = Some(job.to_string());
            return Ok(result);
        }
        std::thread::sleep(s.poll_gap);
    }
}

fn result_handle(result: &Json) -> Result<String, String> {
    result
        .get("dataset")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("stored result names no dataset: {result}"))
}

/// Submits one anonymize of fixture dataset `index` with `model` and
/// `seed`, waits for it, and checks the release's trajectory count with
/// `stats`. Returns the release handle, still stored.
pub fn publish_release(
    s: &mut Session,
    model: &str,
    index: usize,
    seed: u64,
    t: &mut Tracer,
    op: u64,
) -> Result<String, String> {
    let Fixture::Publish { datasets } = &s.fixture else { unreachable!("publish fixture") };
    let params = anonymize_params(&datasets[index % datasets.len()], model, M, seed);
    let job = t.span("client.submit", op, |_| api("submit", s.client.submit(&params)))?.job;
    let release = result_handle(&poll_done(s, &job, t, op)?)?;
    let stats_req =
        Json::obj([("cmd", Json::from("stats")), ("dataset", Json::from(release.as_str()))]);
    let stats = t.span("client.request", op, |_| api("stats", s.client.request(&stats_req)))?;
    let trajectories = stats.get("trajectories").and_then(Json::as_u64);
    if stats.get("ok").and_then(Json::as_bool) != Some(true)
        || trajectories != Some(PUBLISH_SHAPE.0 as u64)
    {
        return Err(format!(
            "release {release}: stats {stats}, want {} trajectories",
            PUBLISH_SHAPE.0
        ));
    }
    Ok(release)
}

/// Runs op number `op` of workload `w`, checking its outputs.
pub fn run_op(
    w: Workload,
    s: &mut Session,
    inputs: &[String],
    run_seed: u64,
    op: u64,
    t: &mut Tracer,
) -> Result<(), String> {
    t.span("op", op, |t| match w {
        Workload::Publish | Workload::Local => {
            let (model, _) = w.model().expect("release workloads have a model");
            let release = publish_release(s, model, op as usize, op_seed(run_seed, op), t, op)?;
            t.span("client.delete_dataset", op, |_| {
                api("delete", s.client.delete_dataset(&release))
            })?;
            Ok(())
        }
        Workload::Transfer => {
            let csv = &inputs[op as usize % inputs.len()];
            let c = &mut s.client;
            let info = t.span("client.upload_dataset", op, |_| {
                api("upload", c.upload_dataset(csv, PIECE_BYTES))
            })?;
            let back = t.span("client.download_dataset_chunked", op, |_| {
                api("download", c.download_dataset_chunked(&info.dataset, Some(PIECE_BYTES)))
            })?;
            if back != *csv {
                return Err(format!("{}: download differs from upload", info.dataset));
            }
            t.span("client.delete_dataset", op, |_| {
                api("delete", c.delete_dataset(&info.dataset))
            })?;
            Ok(())
        }
        Workload::Control => control_rotation(s, t, op),
    })
}

fn control_rotation(s: &mut Session, t: &mut Tracer, op: u64) -> Result<(), String> {
    let Fixture::Control { job, handles, jobs } = &s.fixture else {
        unreachable!("control fixture")
    };
    let c = &mut s.client;
    t.span("client.health", op, |_| api("health", c.health()))?;
    t.span("client.info", op, |_| api("info", c.info()))?;
    let st = t.span("client.status", op, |_| api("status", c.status(job)))?;
    if st.phase != JobPhase::Done {
        return Err(format!("fixture job {job} is not done"));
    }
    let list_req = Json::obj([("cmd", Json::from("list"))]);
    let list = t.span("client.request", op, |_| api("list", c.request(&list_req)))?;
    check_list(&list, handles, jobs)?;
    t.span("client.metrics", op, |_| api("metrics", c.metrics()))?;
    Ok(())
}

/// A `list` response must be `ok` and name every fixture handle (as
/// committed) and every fixture job (as done).
pub fn check_list(list: &Json, handles: &[String], jobs: &[String]) -> Result<(), String> {
    let rows = |key: &str| match list.get(key) {
        Some(Json::Arr(rows)) => rows.as_slice(),
        _ => &[],
    };
    let has = |key: &str, id_key: &str, id: &str, state: &str| {
        rows(key).iter().any(|r| {
            r.get(id_key).and_then(Json::as_str) == Some(id)
                && r.get("state").and_then(Json::as_str) == Some(state)
        })
    };
    if list.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("list failed: {list}"));
    }
    if let Some(h) = handles.iter().find(|h| !has("datasets", "dataset", h, "committed")) {
        return Err(format!("list lacks fixture handle {h}"));
    }
    if let Some(j) = jobs.iter().find(|j| !has("jobs", "job", j, "done")) {
        return Err(format!("list lacks fixture job {j}"));
    }
    Ok(())
}

/// The release the server must produce for a release op of `model`
/// with `seed`: the serial core pipeline run in-process.
pub fn expected_release(csv: &str, model: Model, seed: u64) -> Result<String, String> {
    let ds = from_csv(csv).map_err(|e| format!("fixture csv: {e}"))?;
    let out = trajdp_core::anonymize(&ds, model, &publish_config(model, seed))
        .map_err(|e| e.to_string())?;
    Ok(to_csv(&out.dataset))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(make_inputs(Workload::Control, 5), make_inputs(Workload::Control, 5));
        assert_ne!(make_inputs(Workload::Control, 5), make_inputs(Workload::Control, 6));
        assert_eq!(make_inputs(Workload::Transfer, 1).len(), TRANSFER_POOL);
    }

    #[test]
    fn op_seeds_fit_the_wire() {
        for op in 0..1000 {
            assert!(op_seed(u64::MAX, op) < 1 << 53);
        }
    }

    #[test]
    fn list_check_requires_every_fixture_entry() {
        let list = trajdp_server::json::parse(
            r#"{"ok":true,"jobs":[{"job":"job-1","state":"done"}],
                "datasets":[{"dataset":"ds-1","state":"committed"},{"dataset":"ds-2","state":"pending"}]}"#,
        )
        .unwrap();
        let ids = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(check_list(&list, &ids(&["ds-1"]), &ids(&["job-1"])).is_ok());
        assert!(check_list(&list, &ids(&["ds-2"]), &ids(&["job-1"])).is_err());
        assert!(check_list(&list, &ids(&["ds-1"]), &ids(&["job-2"])).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in [Workload::Publish, Workload::Local, Workload::Transfer, Workload::Control] {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("mixed"), None);
    }
}
