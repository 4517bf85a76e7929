//! End-to-end integration tests: a real `Server` on a real TCP socket,
//! driven by concurrent JSON-lines clients.

use trajdp_server::json::Json;
use trajdp_server::{Client, Server, ServerConfig};

fn start() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: 8,
        ..ServerConfig::default()
    })
    .expect("bind on loopback")
}

fn start_durable(state_dir: &std::path::Path) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: 8,
        state_dir: Some(state_dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("bind on loopback with state dir")
}

/// Polls `status` until the job reports done, returning the final
/// response.
fn wait_done(client: &mut Client, job: &str) -> Json {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let status = client
            .request(&Json::obj([("cmd", Json::from("status")), ("job", Json::from(job))]))
            .unwrap();
        match status.get("state").and_then(Json::as_str) {
            Some("done") => return status,
            Some("queued" | "running") => {
                assert!(std::time::Instant::now() < deadline, "job stuck");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            other => panic!("unexpected state {other:?} in {status}"),
        }
    }
}

/// One client walks the full verb set over a single connection.
#[test]
fn full_verb_walk_over_one_connection() {
    let server = start();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let health = client.request_line(r#"{"cmd":"health"}"#).unwrap();
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));

    let gen = client.request_line(r#"{"cmd":"gen","size":8,"len":30,"seed":3}"#).unwrap();
    assert_eq!(gen.get("ok"), Some(&Json::Bool(true)), "{gen}");
    assert_eq!(gen.get("trajectories").and_then(Json::as_u64), Some(8));
    let csv = gen.get("csv").and_then(Json::as_str).unwrap().to_string();

    let req = Json::obj([
        ("cmd", Json::from("anonymize")),
        ("model", Json::from("gl")),
        ("epsilon", Json::from(1.0)),
        ("m", Json::from(4u64)),
        ("seed", Json::from(9u64)),
        ("workers", Json::from(4u64)),
        ("csv", Json::from(csv.clone())),
    ]);
    let anon = client.request(&req).unwrap();
    assert_eq!(anon.get("ok"), Some(&Json::Bool(true)), "{anon}");
    let released = anon.get("csv").and_then(Json::as_str).unwrap().to_string();
    assert!((anon.get("epsilon_spent").and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-9);

    let eval = client
        .request(&Json::obj([
            ("cmd", Json::from("evaluate")),
            ("original", Json::from(csv.clone())),
            ("anonymized", Json::from(released.clone())),
        ]))
        .unwrap();
    assert_eq!(eval.get("ok"), Some(&Json::Bool(true)), "{eval}");
    for metric in ["mi", "inf", "de", "te", "ffp"] {
        assert!(eval.get(metric).and_then(Json::as_f64).is_some(), "missing {metric}");
    }

    let stats = client
        .request(&Json::obj([("cmd", Json::from("stats")), ("csv", Json::from(released))]))
        .unwrap();
    assert_eq!(stats.get("trajectories").and_then(Json::as_u64), Some(8));

    drop(client);
    server.shutdown();
}

/// Several clients hammer the server concurrently; every response must
/// be well-formed, and identical requests must get identical answers
/// (the executor is deterministic per seed even under concurrency).
#[test]
fn concurrent_clients_get_consistent_answers() {
    let server = start();
    let addr = server.local_addr();

    // All clients anonymize the same dataset with the same seed but
    // different worker counts — the released CSVs must all agree.
    let mut seed_client = Client::connect(addr).unwrap();
    let gen = seed_client.request_line(r#"{"cmd":"gen","size":10,"len":40,"seed":21}"#).unwrap();
    let csv = gen.get("csv").and_then(Json::as_str).unwrap().to_string();
    drop(seed_client);

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let csv = csv.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let req = Json::obj([
                    ("cmd", Json::from("anonymize")),
                    ("model", Json::from("gl")),
                    ("m", Json::from(4u64)),
                    ("seed", Json::from(77u64)),
                    ("workers", Json::from(1u64 + i as u64 * 2)), // 1, 3, 5, 7
                    ("csv", Json::from(csv)),
                ]);
                let resp = client.request(&req).expect("response");
                assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
                resp.get("csv").and_then(Json::as_str).unwrap().to_string()
            })
        })
        .collect();
    let outputs: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for out in &outputs[1..] {
        assert_eq!(
            out, &outputs[0],
            "same seed must give identical releases at every worker count"
        );
    }
    server.shutdown();
}

/// The async job path: submit, poll status until done, and check the
/// job's result matches the synchronous answer for the same request.
#[test]
fn async_jobs_complete_and_match_sync() {
    let server = start();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let gen = client.request_line(r#"{"cmd":"gen","size":6,"len":25,"seed":4}"#).unwrap();
    let csv = gen.get("csv").and_then(Json::as_str).unwrap().to_string();

    let mut base = std::collections::BTreeMap::new();
    base.insert("cmd".to_string(), Json::from("anonymize"));
    base.insert("model".to_string(), Json::from("purel"));
    base.insert("m".to_string(), Json::from(3u64));
    base.insert("seed".to_string(), Json::from(13u64));
    base.insert("workers".to_string(), Json::from(2u64));
    base.insert("csv".to_string(), Json::from(csv));

    let sync = client.request(&Json::Obj(base.clone())).unwrap();
    assert_eq!(sync.get("ok"), Some(&Json::Bool(true)));

    let mut async_req = base;
    async_req.insert("async".to_string(), Json::Bool(true));
    let submitted = client.request(&Json::Obj(async_req)).unwrap();
    assert_eq!(submitted.get("ok"), Some(&Json::Bool(true)), "{submitted}");
    assert_eq!(submitted.get("state").and_then(Json::as_str), Some("queued"));
    let job = submitted.get("job").and_then(Json::as_str).unwrap().to_string();

    let done = wait_done(&mut client, &job);
    assert_eq!(
        done.get("csv").and_then(Json::as_str),
        sync.get("csv").and_then(Json::as_str),
        "async job result must equal the synchronous release"
    );

    // Unknown jobs report an error, not a hang.
    let missing = client.request_line(r#"{"cmd":"status","job":"job-99999"}"#).unwrap();
    assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));

    drop(client);
    server.shutdown();
}

/// Tentpole round-trip: a dataset far larger than the transfer piece
/// size goes up chunked, is anonymized by handle, and comes back down
/// chunked — byte-identical to the all-inline path.
#[test]
fn chunked_upload_anonymize_download_matches_inline() {
    let server = start();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // ~30k points of CSV, moved in 1 KiB pieces (dozens of chunks).
    let gen = client.request_line(r#"{"cmd":"gen","size":20,"len":60,"seed":11}"#).unwrap();
    let csv = gen.get("csv").and_then(Json::as_str).unwrap().to_string();
    assert!(csv.len() > 10 * 1024, "dataset must dwarf the piece size ({})", csv.len());

    let inline_req = Json::obj([
        ("cmd", Json::from("anonymize")),
        ("model", Json::from("gl")),
        ("m", Json::from(4u64)),
        ("seed", Json::from(31u64)),
        ("workers", Json::from(2u64)),
        ("csv", Json::from(csv.clone())),
    ]);
    let inline = client.request(&inline_req).unwrap();
    assert_eq!(inline.get("ok"), Some(&Json::Bool(true)), "{inline}");
    let inline_release = inline.get("csv").and_then(Json::as_str).unwrap().to_string();

    let handle = client.upload_dataset(&csv, 1024).unwrap().dataset;
    let by_handle = client
        .request(&Json::obj([
            ("cmd", Json::from("anonymize")),
            ("model", Json::from("gl")),
            ("m", Json::from(4u64)),
            ("seed", Json::from(31u64)),
            ("workers", Json::from(2u64)),
            ("dataset", Json::from(handle.clone())),
            ("store", Json::Bool(true)),
        ]))
        .unwrap();
    assert_eq!(by_handle.get("ok"), Some(&Json::Bool(true)), "{by_handle}");
    assert!(by_handle.get("csv").is_none(), "store:true must not inline the release");
    let result_handle = by_handle.get("dataset").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(by_handle.get("bytes").and_then(Json::as_u64), Some(inline_release.len() as u64));

    let downloaded = client.download_dataset(&result_handle).unwrap();
    assert_eq!(
        downloaded, inline_release,
        "handle-based release must be byte-identical to the inline path"
    );

    // Handles also work for stats and evaluate.
    let stats = client
        .request(&Json::obj([
            ("cmd", Json::from("stats")),
            ("dataset", Json::from(handle.clone())),
        ]))
        .unwrap();
    assert_eq!(stats.get("trajectories").and_then(Json::as_u64), Some(20), "{stats}");
    let eval = client
        .request(&Json::obj([
            ("cmd", Json::from("evaluate")),
            ("original_dataset", Json::from(handle)),
            ("anonymized_dataset", Json::from(result_handle)),
        ]))
        .unwrap();
    assert_eq!(eval.get("ok"), Some(&Json::Bool(true)), "{eval}");

    drop(client);
    server.shutdown();
}

/// Protocol strictness over the wire: misspelled members, non-bool
/// `async`, and an unknown dataset handle all answer errors — and the
/// connection survives each one.
#[test]
fn strict_protocol_errors_over_the_wire() {
    let server = start();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (req, needle) in [
        (r#"{"cmd":"anonymize","model":"gl","csv":"","epsilom":2.0}"#, "epsilom"),
        (r#"{"cmd":"anonymize","model":"gl","csv":"","async":1}"#, "async must be a boolean"),
        (r#"{"cmd":"anonymize","model":"gl","dataset":"ds-404"}"#, "unknown dataset"),
        (r#"{"cmd":"download","dataset":"ds-404"}"#, "unknown dataset"),
        (r#"{"cmd":"chunk","dataset":"ds-404","data":"x"}"#, "unknown dataset"),
        (r#"{"cmd":"health","verbose":true}"#, "verbose"),
        // The delete verb validates its member set like every other
        // command, and names the accepted set in the error.
        (r#"{"cmd":"delete","dataset":"ds-1","force":true}"#, "force"),
        (r#"{"cmd":"delete"}"#, "dataset"),
        (r#"{"cmd":"delete","dataset":"ds-404"}"#, "unknown dataset"),
        (r#"{"cmd":"list","all":true}"#, "all"),
    ] {
        let r = client.request_line(req).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{req} -> {r}");
        let msg = r.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains(needle), "{req}: {msg}");
    }
    let health = client.request_line(r#"{"cmd":"health"}"#).unwrap();
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    drop(client);
    server.shutdown();
}

/// Storage lifecycle over the wire: a store at capacity frees a slot
/// via `delete` and the next upload succeeds; deleting a handle that a
/// queued job pins answers the distinct in-use error; `list` reports
/// jobs and handles.
#[test]
fn delete_frees_slots_and_pinned_handles_are_protected() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 0, // no job workers: submitted jobs stay queued
        max_connections: 8,
        max_datasets: 3,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // One committed dataset + fill the rest of the store with pending
    // uploads (not evictable), hitting the cap.
    let committed = client.upload_dataset("traj_id,x,y,t\n0,1.0,2.0,3\n", 1 << 20).unwrap().dataset;
    let p1 = client.request_line(r#"{"cmd":"upload"}"#).unwrap();
    let p1 = p1.get("dataset").and_then(Json::as_str).unwrap().to_string();
    let _p2 = client.request_line(r#"{"cmd":"upload"}"#).unwrap();

    // A queued job pins the committed handle: the store is full and
    // even the LRU eviction may not take it.
    let submitted = client
        .request(&Json::obj([
            ("cmd", Json::from("anonymize")),
            ("model", Json::from("gl")),
            ("dataset", Json::from(committed.clone())),
            ("async", Json::Bool(true)),
        ]))
        .unwrap();
    assert_eq!(submitted.get("ok"), Some(&Json::Bool(true)), "{submitted}");

    // At the cap with nothing evictable, upload fails...
    let full = client.request_line(r#"{"cmd":"upload"}"#).unwrap();
    assert_eq!(full.get("ok"), Some(&Json::Bool(false)), "{full}");
    assert!(full.get("error").and_then(Json::as_str).unwrap().contains("full"), "{full}");
    // ...and deleting the pinned input is rejected with the distinct
    // in-use error, not "unknown" and not success.
    let pinned = client
        .request(&Json::obj([
            ("cmd", Json::from("delete")),
            ("dataset", Json::from(committed.clone())),
        ]))
        .unwrap();
    assert_eq!(pinned.get("ok"), Some(&Json::Bool(false)));
    let msg = pinned.get("error").and_then(Json::as_str).unwrap();
    assert!(msg.contains("queued or running job"), "{msg}");

    // `list` shows the queued job and every handle, with the pin.
    let listed = client.request_line(r#"{"cmd":"list"}"#).unwrap();
    assert_eq!(listed.get("ok"), Some(&Json::Bool(true)), "{listed}");
    let Some(Json::Arr(jobs)) = listed.get("jobs") else { panic!("{listed}") };
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("state").and_then(Json::as_str), Some("queued"));
    let Some(Json::Arr(datasets)) = listed.get("datasets") else { panic!("{listed}") };
    assert_eq!(datasets.len(), 3);
    let pins: f64 = datasets
        .iter()
        .filter(|d| d.get("dataset").and_then(Json::as_str) == Some(committed.as_str()))
        .filter_map(|d| d.get("pins").and_then(Json::as_f64))
        .sum();
    assert_eq!(pins, 1.0, "{listed}");

    // Deleting an (unpinned) pending upload frees the slot: the next
    // upload succeeds and the committed data is untouched.
    let deleted = client
        .request(&Json::obj([("cmd", Json::from("delete")), ("dataset", Json::from(p1))]))
        .unwrap();
    assert_eq!(deleted.get("ok"), Some(&Json::Bool(true)), "{deleted}");
    let reopened = client.request_line(r#"{"cmd":"upload"}"#).unwrap();
    assert_eq!(reopened.get("ok"), Some(&Json::Bool(true)), "{reopened}");
    assert_eq!(client.download_dataset(&committed).unwrap(), "traj_id,x,y,t\n0,1.0,2.0,3\n");

    drop(client);
    server.shutdown();
}

/// Durable jobs: a server restarted on the same `--state-dir` answers
/// `status` for jobs finished before the restart, still serves their
/// stored result datasets, completes work that was queued at the kill,
/// and never reuses old job ids.
#[test]
fn restarted_server_replays_journal_and_completes_queued_jobs() {
    let dir = std::env::temp_dir().join("trajdp-restart-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let gen = client.request_line(r#"{"cmd":"gen","size":6,"len":25,"seed":14}"#).unwrap();
    let csv = gen.get("csv").and_then(Json::as_str).unwrap().to_string();
    let req = Json::obj([
        ("cmd", Json::from("anonymize")),
        ("model", Json::from("purel")),
        ("m", Json::from(3u64)),
        ("seed", Json::from(8u64)),
        ("csv", Json::from(csv.clone())),
        ("async", Json::Bool(true)),
        ("store", Json::Bool(true)),
    ]);
    let submitted = client.request(&req).unwrap();
    let finished_job = submitted.get("job").and_then(Json::as_str).unwrap().to_string();
    let done = wait_done(&mut client, &finished_job);
    let result_handle = done.get("dataset").and_then(Json::as_str).unwrap().to_string();
    let release = client.download_dataset(&result_handle).unwrap();
    drop(client);
    server.shutdown();

    // Simulate a crash with work still queued: append a submit event
    // with no matching finish, exactly what a mid-queue kill leaves.
    let sync_reference = {
        let mut inline = std::collections::BTreeMap::new();
        inline.insert("cmd".to_string(), Json::from("anonymize"));
        inline.insert("model".to_string(), Json::from("gl"));
        inline.insert("m".to_string(), Json::from(3u64));
        inline.insert("seed".to_string(), Json::from(77u64));
        inline.insert("csv".to_string(), Json::from(csv.clone()));
        Json::Obj(inline)
    };
    let spec = Json::obj([
        ("model", Json::from("gl")),
        ("epsilon", Json::from(1.0)),
        ("eps_split", Json::from(0.5)),
        ("m", Json::from(3u64)),
        ("seed", Json::from(77u64)),
        ("workers", Json::from(1u64)),
        ("store", Json::Bool(false)),
        ("csv", Json::from(csv.clone())),
    ]);
    let killed_job = "job-17";
    let event = Json::obj([
        ("event", Json::from("submit")),
        ("job", Json::from(killed_job)),
        ("spec", spec),
    ]);
    use std::io::Write;
    let mut journal =
        std::fs::OpenOptions::new().append(true).open(dir.join("jobs.jsonl")).unwrap();
    journal.write_all(format!("{event}\n").as_bytes()).unwrap();
    drop(journal);

    // Restart on the same state dir.
    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Finished-before-restart job still answers status, and its stored
    // result is still downloadable, byte-identical.
    let replayed = client
        .request(&Json::obj([("cmd", Json::from("status")), ("job", Json::from(finished_job))]))
        .unwrap();
    assert_eq!(replayed.get("state").and_then(Json::as_str), Some("done"), "{replayed}");
    assert_eq!(
        replayed.get("dataset").and_then(Json::as_str),
        Some(result_handle.as_str()),
        "{replayed}"
    );
    assert_eq!(client.download_dataset(&result_handle).unwrap(), release);

    // The mid-queue job completes without any client resubmission, to
    // the same bytes a direct synchronous run produces.
    let done = wait_done(&mut client, killed_job);
    let direct = client.request(&sync_reference).unwrap();
    assert_eq!(
        done.get("csv"),
        direct.get("csv"),
        "replayed queued job must match the synchronous run byte for byte"
    );

    // Fresh submits never collide with replayed ids.
    let mut async_req = sync_reference;
    if let Json::Obj(m) = &mut async_req {
        m.insert("async".to_string(), Json::Bool(true));
    }
    let fresh = client.request(&async_req).unwrap();
    let fresh_id = fresh.get("job").and_then(Json::as_str).unwrap();
    let fresh_n: u64 = fresh_id.strip_prefix("job-").unwrap().parse().unwrap();
    assert!(fresh_n > 17, "fresh id {fresh_id} must come after the replayed ids");
    wait_done(&mut client, fresh_id);

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A restart never reissues the id of a deleted result that a retained
/// job still names: the next upload takes a fresh id, `status` keeps
/// naming the result, and `download` keeps reporting it unknown.
#[test]
fn restarted_server_never_reissues_a_deleted_result_id() {
    let dir = std::env::temp_dir().join("trajdp-restart-id-reuse-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let gen = client.request_line(r#"{"cmd":"gen","size":4,"len":20,"seed":5}"#).unwrap();
    let csv = gen.get("csv").and_then(Json::as_str).unwrap().to_string();
    let submitted = client
        .request(&Json::obj([
            ("cmd", Json::from("anonymize")),
            ("model", Json::from("purel")),
            ("m", Json::from(3u64)),
            ("csv", Json::from(csv.clone())),
            ("async", Json::Bool(true)),
            ("store", Json::Bool(true)),
        ]))
        .unwrap();
    let job = submitted.get("job").and_then(Json::as_str).unwrap().to_string();
    let done = wait_done(&mut client, &job);
    let result = done.get("dataset").and_then(Json::as_str).unwrap().to_string();
    let deleted = client
        .request(&Json::obj([
            ("cmd", Json::from("delete")),
            ("dataset", Json::from(result.clone())),
        ]))
        .unwrap();
    assert_eq!(deleted.get("ok"), Some(&Json::Bool(true)), "{deleted}");
    drop(client);
    server.shutdown();

    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let fresh = client.upload_dataset(&csv, 1 << 20).unwrap().dataset;
    assert_ne!(fresh, result, "a restart reissued the id of a result job {job} names");
    let status = client
        .request(&Json::obj([("cmd", Json::from("status")), ("job", Json::from(job))]))
        .unwrap();
    assert_eq!(status.get("dataset").and_then(Json::as_str), Some(result.as_str()), "{status}");
    let gone = client
        .request(&Json::obj([("cmd", Json::from("download")), ("dataset", Json::from(result))]))
        .unwrap();
    let msg = gone.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(msg.contains("unknown dataset"), "{gone}");

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A pending upload has no file, so only the store's durable id mark
/// keeps a restarted server from handing its id to the next client: a
/// chunk the first client resumes with must not land in that upload.
#[test]
fn restarted_server_never_reissues_a_pending_upload_id() {
    let dir = std::env::temp_dir().join("trajdp-restart-pending-id-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let chunk = |client: &mut Client, id: &str, data: &str| {
        client
            .request(&Json::obj([
                ("cmd", Json::from("chunk")),
                ("dataset", Json::from(id)),
                ("data", Json::from(data)),
            ]))
            .unwrap()
    };

    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let opened = client.request_line(r#"{"cmd":"upload"}"#).unwrap();
    let lost = opened.get("dataset").and_then(Json::as_str).unwrap().to_string();
    let sent = chunk(&mut client, &lost, "traj_id,x,y,t\n");
    assert_eq!(sent.get("ok"), Some(&Json::Bool(true)), "{sent}");
    drop(client);
    server.shutdown();

    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let opened = client.request_line(r#"{"cmd":"upload"}"#).unwrap();
    let fresh = opened.get("dataset").and_then(Json::as_str).unwrap().to_string();
    assert_ne!(fresh, lost, "a restart reissued a pending upload's id");
    let resumed = chunk(&mut client, &lost, "0,1.0,2.0,3\n");
    let msg = resumed.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(msg.contains("unknown dataset"), "{resumed}");

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two authenticated tenants and the open default path share one
/// server: quotas bind only the tenant that exhausted them, and every
/// other identity keeps full service.
#[test]
fn tenant_quotas_isolate_tenants_from_each_other() {
    let dir = std::env::temp_dir().join("trajdp-tenant-isolation-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let tenants = dir.join("tenants.txt");
    std::fs::write(&tenants, "acme:sesame:1:100:\nglobex:gx-token\n").unwrap();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        max_connections: 8,
        tenants: Some(tenants),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let csv = "traj_id,x,y,t\n0,1.0,2.0,3\n";

    let mut acme = Client::connect(addr).unwrap().with_tenant("acme:sesame");
    let mut globex = Client::connect(addr).unwrap().with_tenant("globex:gx-token");
    let mut open = Client::connect(addr).unwrap();

    // acme fills its single-dataset quota; the refusal names the quota
    // and does not consume a handle.
    let held = acme.upload_dataset(csv, 1 << 20).unwrap().dataset;
    let err = acme.upload_dataset(csv, 1 << 20).unwrap_err();
    assert_eq!(err.code, trajdp_server::api::ErrorCode::QuotaExceeded, "{err}");
    assert!(err.message.contains("max_datasets"), "{err}");

    // The other tenant and the open path are untouched by acme's cap —
    // globex is unlimited, and the default tenant can never be quota'd.
    let g1 = globex.upload_dataset(csv, 1 << 20).unwrap().dataset;
    let g2 = globex.upload_dataset(csv, 1 << 20).unwrap().dataset;
    assert_ne!(g1, g2);
    let o1 = open.upload_dataset(csv, 1 << 20).unwrap().dataset;

    // acme's byte quota (100) refuses an over-cap chunk mid-stream
    // without wedging the pending handle; globex streams the same
    // payload freely. (`request` sends lines verbatim, so the v2
    // members are spelled out here.)
    let acme_raw = |client: &mut Client, members: Vec<(&'static str, Json)>| {
        let mut members = members;
        members.push(("v", Json::from(2u64)));
        members.push(("tenant", Json::from("acme:sesame")));
        client.request(&Json::obj(members)).unwrap()
    };
    let big: String = std::iter::once("traj_id,x,y,t\n".to_string())
        .chain((0..10).map(|i| format!("0,1.0,2.0,{i}\n")))
        .collect();
    assert!(big.len() > 100, "payload must cross acme's byte cap");
    // The count quota is on held handles, so free acme's slot first.
    acme.delete_dataset(&held).unwrap();
    let r = acme_raw(&mut acme, vec![("cmd", Json::from("upload"))]);
    let pending = r.get("dataset").and_then(Json::as_str).unwrap().to_string();
    let refused = acme_raw(
        &mut acme,
        vec![
            ("cmd", Json::from("chunk")),
            ("dataset", Json::from(pending.clone())),
            ("data", Json::from(big.clone())),
        ],
    );
    assert_eq!(
        refused.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("quota-exceeded"),
        "{refused}"
    );
    // The refusal left the handle usable: an under-cap stream commits.
    let r = acme_raw(
        &mut acme,
        vec![
            ("cmd", Json::from("chunk")),
            ("dataset", Json::from(pending.clone())),
            ("data", Json::from(csv)),
        ],
    );
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    let r = acme_raw(
        &mut acme,
        vec![("cmd", Json::from("commit")), ("dataset", Json::from(pending.clone()))],
    );
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    assert_eq!(acme.download_dataset(&pending).unwrap(), csv);
    let g3 = globex.upload_dataset(&big, 1 << 20).unwrap();
    assert_eq!(g3.bytes, big.len() as u64);

    // Everyone still gets answers: the caps never poisoned the shared
    // queue or store.
    for client in [&mut acme, &mut globex, &mut open] {
        assert_eq!(client.health().unwrap().outstanding_jobs, 0);
    }
    assert_eq!(open.download_dataset(&o1).unwrap(), csv);

    drop((acme, globex, open));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The ε ledger across a restart: spend accumulated before the kill is
/// reported bit-for-bit identically after replay, and the budget keeps
/// refusing exactly where it did before.
#[test]
fn eps_spend_survives_restart_bit_for_bit() {
    let dir = std::env::temp_dir().join("trajdp-eps-restart-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let start = || {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_connections: 8,
            state_dir: Some(dir.clone()),
            eps_budget: Some(0.5),
            ..ServerConfig::default()
        })
        .expect("bind on loopback with state dir")
    };
    // One row of the v2 `list` response, `(eps_spent, eps_budget)`.
    let eps_row = |client: &mut Client, handle: &str| {
        let listed = client.request_line(r#"{"cmd":"list","v":2}"#).unwrap();
        let Some(Json::Arr(rows)) = listed.get("datasets") else { panic!("{listed}") };
        let row = rows
            .iter()
            .find(|r| r.get("dataset").and_then(Json::as_str) == Some(handle))
            .unwrap_or_else(|| panic!("{handle} missing from {listed}"));
        (
            row.get("eps_spent").and_then(Json::as_f64).unwrap(),
            row.get("eps_budget").and_then(Json::as_f64),
        )
    };

    let server = start();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // An explicit per-dataset budget (journaled at upload) over the
    // 0.5 server default, then two synchronous spends whose f64 sum is
    // not representable exactly — the replay fidelity probe.
    // Points need spatial extent: a zero-area domain is rejected by the
    // model layer, and this test is about the ledger, not the model.
    let csv = "traj_id,x,y,t\n0,1.0,2.0,3\n0,500.0,600.0,40\n1,1000.0,1200.0,5\n1,40.0,900.0,17\n";
    let handle = client.upload_dataset_with_budget(csv, 1 << 20, Some(2.0)).unwrap().dataset;
    for eps in ["0.1", "0.2"] {
        let r = client
            .request_line(&format!(
                r#"{{"cmd":"anonymize","model":"purel","m":2,"seed":1,"epsilon":{eps},"dataset":"{handle}"}}"#
            ))
            .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    }
    let before = eps_row(&mut client, &handle);
    assert_eq!(before, (0.1 + 0.2, Some(2.0)), "the inexact sum is the point");
    drop(client);
    server.shutdown();

    let server = start();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        eps_row(&mut client, &handle),
        before,
        "replayed spend must be bit-identical, not re-rounded"
    );
    // The replayed ledger still enforces: 0.30000000000000004 + 1.71
    // exceeds 2.0, while a smaller request fits — the boundary survives
    // the restart exactly. (1.7 would NOT be refused: its f64 error
    // cancels the sum's and lands on 2.0 on the nose.)
    let refused = client
        .request_line(&format!(
            r#"{{"cmd":"anonymize","model":"purel","m":2,"seed":1,"epsilon":1.71,"dataset":"{handle}"}}"#
        ))
        .unwrap();
    assert_eq!(refused.get("ok"), Some(&Json::Bool(false)), "{refused}");
    assert!(
        refused.get("error").and_then(Json::as_str).unwrap().contains("privacy budget exhausted"),
        "{refused}"
    );
    let fits = client
        .request_line(&format!(
            r#"{{"cmd":"anonymize","model":"purel","m":2,"seed":1,"epsilon":1.69,"dataset":"{handle}"}}"#
        ))
        .unwrap();
    assert_eq!(fits.get("ok"), Some(&Json::Bool(true)), "{fits}");

    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The same samples spelled five ways: the canonical rendering and four
/// texts that parse to it but are not its bytes.
fn spellings(csv: &str) -> Vec<(&'static str, String)> {
    let map_lines = |f: &dyn Fn(&[&str]) -> String| {
        let mut lines = csv.lines();
        let mut out = format!("{}\n", lines.next().unwrap());
        for line in lines {
            out.push_str(&f(&line.split(',').collect::<Vec<_>>()));
            out.push('\n');
        }
        out
    };
    vec![
        ("canonical", csv.to_string()),
        (
            "padded decimals",
            map_lines(&|f| {
                let x =
                    if f[1].contains('.') { format!("{}0", f[1]) } else { format!("{}.0", f[1]) };
                format!("{},{x},{},{}", f[0], f[2], f[3])
            }),
        ),
        ("crlf line ends", csv.replace('\n', "\r\n")),
        ("spaces around fields", map_lines(&|f| f.join(" , "))),
        ("trailing blank line", format!("{csv}\n")),
    ]
}

fn obj(pairs: &[(&'static str, Json)]) -> Json {
    Json::obj(pairs.iter().map(|(k, v)| (*k, v.clone())))
}

/// A handle answers byte for byte what its inline text answers, in
/// whichever form the store holds it: text before its first job, parsed
/// after it (when canonical), parsed as a stored release, and text again
/// after a restart. Downloads return the uploaded bytes throughout.
#[test]
fn stored_handles_match_inline_in_every_form() {
    let dir = std::env::temp_dir().join("trajdp-it-parse-once");
    let _ = std::fs::remove_dir_all(&dir);
    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let gen = client.request_line(r#"{"cmd":"gen","size":6,"len":40,"seed":23}"#).unwrap();
    let csv = gen.get("csv").and_then(Json::as_str).unwrap().to_string();
    let anonymize = |data: (&'static str, Json), store: bool| {
        obj(&[
            ("cmd", Json::from("anonymize")),
            ("model", Json::from("gl")),
            ("m", Json::from(4u64)),
            ("seed", Json::from(5u64)),
            ("store", Json::Bool(store)),
            data,
        ])
    };
    let run_job = |client: &mut Client, request: Json| {
        let Json::Obj(mut members) = request else { unreachable!() };
        members.insert("async".to_string(), Json::Bool(true));
        let submitted = client.request(&Json::Obj(members)).unwrap();
        wait_done(client, submitted.get("job").and_then(Json::as_str).unwrap())
    };
    let mut uploaded = Vec::new();
    for (name, text) in spellings(&csv) {
        let handle = client.upload_dataset(&text, 700).unwrap().dataset;
        assert_eq!(client.download_dataset_chunked(&handle, Some(500)).unwrap(), text, "{name}");
        let parses_before = client.metrics().unwrap().dataset_parses;

        // An async job by handle (the first pipeline read) equals the
        // inline run.
        let by_handle =
            run_job(&mut client, anonymize(("dataset", Json::from(handle.as_str())), false));
        let inline = client.request(&anonymize(("csv", Json::from(text.as_str())), false)).unwrap();
        let release = inline.get("csv").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(by_handle.get("csv").and_then(Json::as_str), Some(release.as_str()), "{name}");

        // Sync verbs by handle equal their inline twins.
        let by_handle =
            client.request(&anonymize(("dataset", Json::from(handle.as_str())), false)).unwrap();
        assert_eq!(by_handle, inline, "{name}: sync anonymize");
        for (by_handle, inline) in [
            (
                obj(&[("cmd", Json::from("stats")), ("dataset", Json::from(handle.as_str()))]),
                obj(&[("cmd", Json::from("stats")), ("csv", Json::from(text.as_str()))]),
            ),
            (
                obj(&[
                    ("cmd", Json::from("evaluate")),
                    ("original_dataset", Json::from(handle.as_str())),
                    ("anonymized", Json::from(release.as_str())),
                ]),
                obj(&[
                    ("cmd", Json::from("evaluate")),
                    ("original", Json::from(text.as_str())),
                    ("anonymized", Json::from(release.as_str())),
                ]),
            ),
        ] {
            let (by_handle, inline) =
                (client.request(&by_handle).unwrap(), client.request(&inline).unwrap());
            assert_eq!(inline.get("ok"), Some(&Json::Bool(true)), "{name}: {inline}");
            assert_eq!(by_handle, inline, "{name}");
        }
        // Four pipeline reads: a canonical text is parsed once and then
        // held parsed; any other spelling is parsed on every read.
        let parses = client.metrics().unwrap().dataset_parses - parses_before;
        assert_eq!(parses, if name == "canonical" { 1 } else { 4 }, "{name}");
        // Whatever form the entry took, it downloads the uploaded bytes.
        assert_eq!(client.download_dataset_chunked(&handle, Some(500)).unwrap(), text, "{name}");

        // A stored release (held parsed) re-anonymized and evaluated by
        // handle equals the inline runs on its downloaded text. (That
        // the held release carries its reparse's domain is pinned by
        // the store's own tests: at this size no score moves with it.)
        let stored =
            run_job(&mut client, anonymize(("dataset", Json::from(handle.as_str())), true));
        let result = stored.get("dataset").and_then(Json::as_str).unwrap().to_string();
        let again =
            client.request(&anonymize(("dataset", Json::from(result.as_str())), false)).unwrap();
        let again_csv = again.get("csv").cloned().unwrap();
        let evaluate = |original: (&'static str, Json)| {
            obj(&[("cmd", Json::from("evaluate")), original, ("anonymized", again_csv.clone())])
        };
        let eval_by_handle =
            client.request(&evaluate(("original_dataset", Json::from(result.as_str())))).unwrap();
        let result_text = client.download_dataset_chunked(&result, Some(500)).unwrap();
        assert_eq!(result_text, release, "{name}: stored release bytes");
        assert_eq!(
            stored.get("bytes").and_then(Json::as_u64),
            Some(release.len() as u64),
            "{name}"
        );
        let inline_again =
            client.request(&anonymize(("csv", Json::from(result_text.as_str())), false)).unwrap();
        assert_eq!(again, inline_again, "{name}: re-anonymized release");
        let eval_inline =
            client.request(&evaluate(("original", Json::from(result_text.as_str())))).unwrap();
        assert_eq!(eval_by_handle, eval_inline, "{name}: release evaluated by handle");
        uploaded.push((name, handle, text));
    }
    drop(client);
    server.shutdown();

    // Reopened from the state dir, every handle downloads its bytes.
    let server = start_durable(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    for (name, handle, text) in &uploaded {
        let back = client.download_dataset_chunked(handle, Some(500)).unwrap();
        assert_eq!(&back, text, "{name} after restart");
    }
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
