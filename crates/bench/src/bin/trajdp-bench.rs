//! Deterministic observability benchmark harness.
//!
//! Unlike the criterion benches (statistical, minutes-long), this bin
//! runs a fixed iteration count over the pipeline and modification
//! workloads with pinned seeds and writes a machine-readable summary —
//! the `BENCH_*.json` artifact CI checks for well-formedness:
//!
//! ```text
//! cargo run -p trajdp_bench --release --bin trajdp-bench -- --quick --out BENCH_7.json
//! ```
//!
//! `--quick` shrinks the world and iteration counts so the run finishes
//! in seconds (the CI mode); without it the sizes match the criterion
//! `pipeline`/`modification` benches. Timings are wall-clock and
//! machine-dependent; the *shape* of the file is the contract.
//!
//! Besides the pipeline/modification timings, the harness runs a
//! connection storm against an in-process server: 128 concurrent
//! clients — far past the old thread-per-connection worker cap — each
//! holding its socket open for a run of request/response round trips,
//! while enough idle connections stay open to fill the default
//! `--max-conn` to within 32 slots, so every `poll` wait scans a nearly
//! full set. CI asserts the storm completes with zero dropped clients
//! and at least 864 idle connections held.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Instant;
use trajdp_bench::standard_world;
use trajdp_core::editor::{DatasetEditor, TrajectoryEditor};
use trajdp_core::{anonymize, FreqDpConfig, IndexKind, Model};
use trajdp_model::Point;
use trajdp_server::json::Json;
use trajdp_server::{Server, ServerConfig};

struct BenchResult {
    name: &'static str,
    iters: u64,
    total_ms: f64,
}

/// Outcome of the connection-storm workload: every client's per-request
/// round-trip latencies pooled, plus how many clients failed outright.
struct StormResult {
    clients: usize,
    /// Idle connections the server still held, unanswered, at the end.
    idle: usize,
    requests_per_client: usize,
    completed: u64,
    dropped: u64,
    p50_ms: f64,
    p99_ms: f64,
    throughput_rps: f64,
}

/// Hammers an in-process server with `clients` concurrent connections,
/// each performing `per_client` request/response round trips (health
/// and metrics alternating). This exercises the reactor's readiness
/// loop well past the old thread-per-connection cap: all clients hold
/// their sockets open for the whole run. A client counts as dropped if
/// it fails to connect, loses its stream mid-run, or reads a non-`ok`
/// response — on a healthy server all three are zero.
///
/// Alongside the clients, the storm holds `max_connections - clients -
/// 32` idle sockets open for the whole run (the slack absorbs a client
/// whose close has not landed yet), so the readiness loop works at
/// nearly its full connection set.
fn storm(clients: usize, per_client: usize) -> StormResult {
    let cfg = ServerConfig::default();
    let idle_target = cfg.max_connections.saturating_sub(clients + 32);
    eprintln!("bench storm: {clients} clients x {per_client} requests, {idle_target} idle...");
    let server = Server::start(cfg).expect("bench server");
    let addr = server.local_addr();
    // The accept queue is FIFO, so once any client below is answered,
    // every idle socket has been accepted.
    let idle: Vec<TcpStream> =
        (0..idle_target).map_while(|_| TcpStream::connect(addr).ok()).collect();
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || -> Option<Vec<f64>> {
                let stream = TcpStream::connect(addr).ok()?;
                let mut reader = BufReader::new(stream.try_clone().ok()?);
                let mut writer = stream;
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let line = if i % 2 == 0 {
                        "{\"cmd\":\"health\"}\n"
                    } else {
                        "{\"cmd\":\"metrics\"}\n"
                    };
                    let sent = Instant::now();
                    writer.write_all(line.as_bytes()).ok()?;
                    let mut response = String::new();
                    reader.read_line(&mut response).ok()?;
                    if !response.contains("\"ok\":true") {
                        return None;
                    }
                    latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                }
                Some(latencies)
            })
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut dropped = 0u64;
    for handle in handles {
        match handle.join().expect("storm client panicked") {
            Some(client_latencies) => latencies.extend(client_latencies),
            None => dropped += 1,
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    // An idle socket still held has nothing to read: a shed or closed
    // one would show a refusal line or EOF.
    let idle_held = idle
        .iter()
        .filter(|s| {
            s.set_nonblocking(true).is_ok()
                && matches!(s.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock)
        })
        .count();
    drop(idle);
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    StormResult {
        clients,
        idle: idle_held,
        requests_per_client: per_client,
        completed: latencies.len() as u64,
        dropped,
        p50_ms: percentile(0.50),
        p99_ms: percentile(0.99),
        throughput_rps: latencies.len() as f64 / elapsed.max(f64::EPSILON),
    }
}

/// Runs `f` once as warmup, then `iters` timed iterations.
fn bench(name: &'static str, iters: u64, mut f: impl FnMut()) -> BenchResult {
    eprintln!("bench {name}: {iters} iterations...");
    f();
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    BenchResult { name, iters, total_ms }
}

fn usage() -> ! {
    eprintln!("usage: trajdp-bench [--quick] [--out FILE.json]");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out = String::from("BENCH_7.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => usage(),
            },
            _ => usage(),
        }
    }

    let (size, len, m, iters) = if quick { (20, 60, 6, 3) } else { (60, 100, 10, 10) };
    let world = standard_world(size, len, 41);
    let cfg = FreqDpConfig { m, ..Default::default() };
    let mut results = Vec::new();
    for (name, model) in [
        ("pipeline/PureG", Model::PureGlobal),
        ("pipeline/PureL", Model::PureLocal),
        ("pipeline/GL", Model::Combined),
    ] {
        results.push(bench(name, iters, || {
            std::hint::black_box(anonymize(&world.dataset, model, &cfg).expect("valid config"));
        }));
    }

    // Modification phase in isolation, mirroring benches/modification.rs.
    let (msize, mlen) = if quick { (10, 80) } else { (20, 200) };
    let world = standard_world(msize, mlen, 31);
    let traj = world.dataset.trajectories[0].clone();
    let domain = world.dataset.domain;
    let target = traj.samples[traj.len() / 2].loc;
    let off_target = Point::new(target.x + 210.0, target.y + 140.0);
    results.push(bench("modification/intra-insert-5", iters, || {
        let mut ed = TrajectoryEditor::new(traj.clone(), IndexKind::default(), domain);
        std::hint::black_box(ed.insert_occurrences(off_target, 5));
    }));
    results.push(bench("modification/intra-delete-all", iters, || {
        let mut ed = TrajectoryEditor::new(traj.clone(), IndexKind::default(), domain);
        std::hint::black_box(ed.delete_occurrences(target.key(), usize::MAX));
    }));
    let trajs = world.dataset.trajectories.clone();
    let q = world.node_point(world.hotspots[0]);
    let off = Point::new(q.x + 150.0, q.y + 150.0);
    results.push(bench("modification/inter-increase-tf-10", iters, || {
        let mut ed = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain);
        std::hint::black_box(ed.increase_tf(off, 10));
    }));
    results.push(bench("modification/inter-decrease-tf-10", iters, || {
        let mut ed = DatasetEditor::new(trajs.clone(), IndexKind::default(), domain);
        std::hint::black_box(ed.decrease_tf(q.key(), 10));
    }));

    // Connection storm against the reactor. The client count stays at
    // 128 even in --quick (holding 128 sockets open is the point — CI
    // asserts it); only the per-client request count shrinks.
    let storm_result = storm(128, if quick { 8 } else { 32 });
    eprintln!(
        "bench storm: {} completed, {} dropped, {} idle held, p50 {:.3} ms, p99 {:.3} ms, \
         {:.0} req/s",
        storm_result.completed,
        storm_result.dropped,
        storm_result.idle,
        storm_result.p50_ms,
        storm_result.p99_ms,
        storm_result.throughput_rps
    );

    let report = Json::obj([
        ("schema", "trajdp-bench/v1".into()),
        ("pr", 7u64.into()),
        ("quick", quick.into()),
        (
            "benches",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", r.name.into()),
                            ("iters", r.iters.into()),
                            ("total_ms", r.total_ms.into()),
                            ("mean_ms", (r.total_ms / r.iters as f64).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "storm",
            Json::obj([
                ("clients", (storm_result.clients as u64).into()),
                ("idle", (storm_result.idle as u64).into()),
                ("requests_per_client", (storm_result.requests_per_client as u64).into()),
                ("completed", storm_result.completed.into()),
                ("dropped", storm_result.dropped.into()),
                ("p50_ms", storm_result.p50_ms.into()),
                ("p99_ms", storm_result.p99_ms.into()),
                ("throughput_rps", storm_result.throughput_rps.into()),
            ]),
        ),
    ]);
    if let Err(e) = std::fs::write(&out, format!("{report}\n")) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}: {} benches", results.len());
}
