//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload publish|local|transfer|control --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `trajdp`
//! binary, pins itself to one CPU, spawns `trajdp serve` there as a
//! separate process with the same flags for every workload (an
//! ephemeral loopback port and a fresh `--state-dir`), and drives it
//! from this one process over one connection with one closed-loop
//! client: the next op starts when the previous one has been answered
//! and checked. Inputs are generated
//! from `--seed`; the server only ever sees the generated CSV and the
//! requests.
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer split, from client spans, `metrics` verb deltas and an
//! in-process replay of one op through each layer's public functions.
//! The last line of standard output is one JSON object:
//! `{"correct","attempted","failed","metrics"}`. The exit code is 0 only
//! when every op and every correctness check passed.

#![deny(unsafe_op_in_unsafe_fn)]

mod procfs;
mod replay;
mod server;
mod stats;
mod trace;
mod workloads;

use procfs::HostTicks;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{NameTotals, Tracer};
use trajdp_core::Model;
use trajdp_server::obs::HistogramSnapshot;
use trajdp_server::{Json, MetricsSnapshot};
use workloads::{Session, Workload};

/// Set-ups per run: at least `SETUPS_MIN`, then more while their total
/// stays under `SETUP_BUDGET` (cheap set-ups repeat more, which steadies
/// their median), at most `SETUPS_MAX`. `setup_s` is their median.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// The tail percentile reported. A timed window does not end before
/// it holds enough ops for ten samples to lie beyond it.
const P90: f64 = 0.9;
/// Ops of each half of a traced run (untraced, then traced).
const TRACE_MIN_OPS: usize = 20;
/// Replays per traced run; per-layer times are their mean.
const REPLAYS: u64 = 3;
/// Control rotations replayed in-process per traced run.
const CONTROL_REPLAY_ROUNDS: u64 = 200;
/// A window stops early after this many failed ops in a row: the
/// server is gone and every further op would fail too.
const MAX_CONSECUTIVE_FAILURES: u64 = 5;
/// Hard cap on one window, so a run always ends within its time limit.
const MAX_WINDOW: Duration = Duration::from_secs(100);
/// Working space (server state dirs, replay store, span dumps), under
/// the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench_work";
/// Op ids of the correctness-gate op and of replays, apart from window ops.
const GATE_OP: u64 = u64::MAX;

/// End-to-end metrics: name, unit. The client's CPU per op is printed
/// beside them but not gated: it is system-call bound, and its 10-run
/// spread on a 2-vCPU shared VM stayed at 0.2–0.3 whatever the op.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name, unit. A layer the
/// workload never reaches reports 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("csv.from_csv_ms", "ms"),
    ("csv.to_csv_ms", "ms"),
    ("freq.compute_ms", "ms"),
    ("global.perturb_ms", "ms"),
    ("global.realize_ms", "ms"),
    ("editor.build_ms", "ms"),
    ("editor.increase_ms", "ms"),
    ("editor.decrease_ms", "ms"),
    ("edits.global_per_op", "count"),
    ("edits.local_per_op", "count"),
    ("index.segments_checked_per_op", "count"),
    ("index.cells_visited_per_op", "count"),
    ("local.units_ms", "ms"),
    ("local.merge_ms", "ms"),
    ("executor.anonymize_parallel_ms", "ms"),
    ("executor.unattributed_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("jobs.journal_fsync_ms", "ms"),
    ("jobs.journal_appends_per_op", "count"),
    ("jobs.status_polls_per_op", "count"),
    ("jobs.poll_hit_ratio", "ratio"),
    ("json.parse_ms_per_piece", "ms"),
    ("json.render_ms_per_piece", "ms"),
    ("protocol.parse_request_line_ms", "ms"),
    ("api.render_ms", "ms"),
    ("store.append_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.read_chunk_ms", "ms"),
    ("store.insert_ms", "ms"),
    ("service.chunk_ms", "ms"),
    ("service.commit_ms", "ms"),
    ("service.download_ms", "ms"),
    ("service.anonymize_ms", "ms"),
    ("service.status_ms", "ms"),
    ("service.health_ms", "ms"),
    ("service.info_ms", "ms"),
    ("service.list_ms", "ms"),
    ("service.metrics_ms", "ms"),
    ("reactor.bytes_in_per_op", "B"),
    ("reactor.bytes_out_per_op", "B"),
    ("reactor.iteration_ms", "ms"),
    ("wire.residual_ms_per_op", "ms"),
    ("obs.snapshot_ms", "ms"),
    ("client.calls_per_op", "count"),
    ("client.call_ms", "ms"),
    ("client.op_self_ms", "ms"),
    ("client.cpu_ms_per_op", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { workload: Workload::Publish, seed: 1, seconds: 10, trace: false };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload publish|local|transfer|control is required")?;
    Ok(args)
}

/// Everything measured over one window of ops.
struct Window {
    /// Wall latency of each successful op, ms.
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    elapsed_s: f64,
    server_cpu_s: f64,
    client_cpu_s: f64,
    host: HostTicks,
    polls: u64,
}

impl Window {
    fn ops(&self) -> f64 {
        self.latencies_ms.len().max(1) as f64
    }
}

/// Runs ops `first_op..` until at least `seconds` have passed and at
/// least `min_ops` succeeded (or the hard cap / a failure streak ends
/// it), measuring CPU and host ticks across exactly that interval.
#[allow(clippy::too_many_arguments)]
fn run_window(
    w: Workload,
    s: &mut Session,
    inputs: &[String],
    seed: u64,
    first_op: u64,
    seconds: f64,
    min_ops: usize,
    t: &mut Tracer,
) -> Result<Window, String> {
    let pid = s.server.pid();
    let polls0 = s.polls;
    let host0 = procfs::host_ticks()?;
    let server0 = procfs::process_cpu_secs(pid)?;
    let client0 = procfs::thread_cpu_secs()?;
    let start = Instant::now();
    let mut win = Window {
        latencies_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
        elapsed_s: 0.0,
        server_cpu_s: 0.0,
        client_cpu_s: 0.0,
        host: HostTicks::default(),
        polls: 0,
    };
    let mut streak = 0;
    let mut op = first_op;
    loop {
        let elapsed = start.elapsed();
        let done = elapsed.as_secs_f64() >= seconds && win.latencies_ms.len() >= min_ops;
        if done || elapsed >= MAX_WINDOW || streak >= MAX_CONSECUTIVE_FAILURES {
            break;
        }
        let op_start = Instant::now();
        let outcome = workloads::run_op(w, s, inputs, seed, op, t);
        let ms = op_start.elapsed().as_secs_f64() * 1e3;
        win.attempted += 1;
        op += 1;
        match outcome {
            Ok(()) => {
                win.latencies_ms.push(ms);
                streak = 0;
            }
            Err(e) => {
                win.failed += 1;
                streak += 1;
                win.first_error.get_or_insert(e);
            }
        }
    }
    win.elapsed_s = start.elapsed().as_secs_f64();
    win.client_cpu_s = procfs::thread_cpu_secs()? - client0;
    win.server_cpu_s = procfs::process_cpu_secs(pid)? - server0;
    win.host = host0.delta(procfs::host_ticks()?);
    win.polls = s.polls - polls0;
    Ok(win)
}

/// A per-run working directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(w: Workload, seed: u64) -> Result<WorkDir, String> {
        let dir = Path::new(WORK_DIR).join(format!("{}-{seed}-{}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Metric name → (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The outcome of a run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    notes: Vec<String>,
}

/// Mean of a histogram's observations between two snapshots, ms.
fn hist_mean_ms(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let n = after.count.saturating_sub(before.count);
    if n == 0 {
        0.0
    } else {
        after.sum_us.saturating_sub(before.sum_us) as f64 / n as f64 / 1e3
    }
}

fn verb_latency<'a>(s: &'a MetricsSnapshot, verb: &str) -> Option<&'a HistogramSnapshot> {
    s.requests.iter().find(|v| v.verb == verb).map(|v| &v.latency)
}

fn set(m: &mut Metrics, name: &str, value: f64) {
    m.get_mut(name).unwrap_or_else(|| panic!("no metric {name}")).0 = value;
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let bin = server::build_trajdp()?;
    let cpu = *procfs::allowed_cpus()?.last().expect("allowed_cpus is never empty");
    server::pin_to_cpu(cpu)?;
    let inputs = workloads::make_inputs(w, args.seed);
    let work = WorkDir::create(w, args.seed)?;
    let mut t = Tracer::new(false);
    let mut notes = Vec::new();

    let mut setup_s: Vec<f64> = Vec::new();
    let mut session: Option<Session> = None;
    while setup_s.len() < SETUPS_MIN
        || (setup_s.len() < SETUPS_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        // The previous server is stopped, and its state removed, before
        // the next set-up is timed.
        drop(session.take());
        let state_dir = work.0.join("state");
        let _ = std::fs::remove_dir_all(&state_dir);
        let start = Instant::now();
        let s = workloads::setup(w, &bin, &state_dir, &inputs, args.seed, &mut t)?;
        setup_s.push(start.elapsed().as_secs_f64());
        session = Some(s);
    }
    let mut s = session.expect("at least SETUPS_MIN set-ups ran");

    let seconds = args.seconds as f64;
    let mut report = if args.trace {
        let half = seconds / 2.0;
        let plain = run_window(w, &mut s, &inputs, args.seed, 1, half, TRACE_MIN_OPS, &mut t)?;
        let first_op = plain.attempted + 1;
        let (mut report, traced_p50) =
            traced_window(w, &mut s, &inputs, args.seed, first_op, half, &mut t, &mut notes)?;
        // The untraced half's ops count as attempts too.
        report.attempted += plain.attempted;
        report.failed += plain.failed;
        report.correct &= plain.failed == 0;
        let plain_p50 = stats::median(&plain.latencies_ms).unwrap_or(0.0);
        if plain_p50 > 0.0 {
            let overhead = 100.0 * (traced_p50 - plain_p50) / plain_p50;
            set(&mut report.metrics, "trace.overhead_pct", overhead);
        }
        notes.push(format!(
            "tracing overhead: op p50 {plain_p50:.4} ms untraced ({} ops) vs {traced_p50:.4} ms traced",
            plain.latencies_ms.len()
        ));
        report
    } else {
        let min_ops = stats::min_samples_for(P90);
        let win = run_window(w, &mut s, &inputs, args.seed, 1, seconds, min_ops, &mut t)?;
        let n = win.latencies_ms.len();
        let p90 = stats::percentile(&win.latencies_ms, P90);
        // Too few samples for a p90 (a failing run): report the slowest op.
        let slowest = win.latencies_ms.iter().copied().fold(0.0, f64::max);
        let values = [
            stats::median(&setup_s).unwrap_or(0.0),
            n as f64 / win.elapsed_s,
            stats::median(&win.latencies_ms).unwrap_or(0.0),
            p90.unwrap_or(slowest),
            win.server_cpu_s * 1e3 / win.ops(),
            procfs::peak_rss_mib(s.server.pid())?,
        ];
        let metrics =
            END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, (v, unit))).collect();
        let beyond = if p90.is_some() { n - (P90 * n as f64).ceil() as usize } else { 0 };
        let deciles: Vec<String> = (1..10)
            .map(|d| {
                format!(
                    "{:.4}",
                    stats::percentile(&win.latencies_ms, d as f64 / 10.0).unwrap_or(0.0)
                )
            })
            .collect();
        notes.push(format!(
            "samples: {n} ops ({beyond} beyond p90), deciles p10..p90 ms: {}; setup_s: median of {}",
            deciles.join(" "),
            setup_s.len()
        ));
        notes.push(format!(
            "client_cpu_ms_per_op {:.4} ms (not gated)",
            win.client_cpu_s * 1e3 / win.ops()
        ));
        notes.push(noise_line(&win));
        window_report(&win, metrics, &mut notes)
    };

    // Correctness gate, outside every timed window.
    let mut served = None;
    if let Some((name, model)) = w.model() {
        report.attempted += 1;
        match publish_gate(&mut s, name, model, &inputs[0], args.seed) {
            Ok(release) => served = Some(release),
            Err(e) => {
                report.failed += 1;
                report.correct = false;
                notes.push(format!("gate: {e}"));
            }
        }
    }

    if args.trace {
        if let Err(e) = replay_layers(
            w,
            &mut s,
            &inputs,
            args.seed,
            served.as_deref(),
            &work.0,
            &mut t,
            &mut report.metrics,
            &mut notes,
        ) {
            report.failed += 1;
            report.correct = false;
            notes.push(format!("replay: {e}"));
        }
        report.attempted += 1;
        // One file per workload, replaced by each traced run.
        let path = Path::new(WORK_DIR).join(format!("trace-{}.jsonl", w.name()));
        std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("spans: {} written to {}", t.spans().len(), path.display()));
    }
    drop(s);
    drop(work);
    report.notes = notes;
    Ok(report)
}

fn noise_line(win: &Window) -> String {
    format!(
        "noise: host steal_ticks={} busy_ticks={} total_ticks={} steal_pct={:.2} over {:.2}s",
        win.host.steal,
        win.host.busy,
        win.host.total,
        win.host.steal_pct(),
        win.elapsed_s
    )
}

fn window_report(win: &Window, metrics: Metrics, notes: &mut Vec<String>) -> Report {
    if let Some(e) = &win.first_error {
        notes.push(format!("first failure: {e}"));
    }
    Report {
        correct: win.failed == 0 && !win.latencies_ms.is_empty(),
        attempted: win.attempted,
        failed: win.failed,
        metrics,
        notes: Vec::new(),
    }
}

/// One more release op on the first dataset after the window: its
/// release, downloaded in pieces, must equal the in-process
/// `trajdp_core::anonymize` for the same model, seed, ε split and `m`
/// (the reproducibility contract). Returns the served release.
fn publish_gate(
    s: &mut Session,
    name: &str,
    model: Model,
    csv: &str,
    seed: u64,
) -> Result<String, String> {
    let op_seed = workloads::op_seed(seed, GATE_OP);
    let quiet = &mut Tracer::new(false);
    let release = workloads::publish_release(s, name, 0, op_seed, quiet, GATE_OP)?;
    let served = s
        .client
        .download_dataset_chunked(&release, Some(workloads::PIECE_BYTES))
        .map_err(|e| format!("download {release}: {e}"))?;
    s.client.delete_dataset(&release).map_err(|e| format!("delete {release}: {e}"))?;
    if served != workloads::expected_release(csv, model, op_seed)? {
        return Err(format!("release {release} differs from trajdp_core::anonymize"));
    }
    Ok(served)
}

/// The traced half-window between two `metrics` snapshots: client
/// spans plus the server's own counters. Returns the report and the
/// traced median op latency.
#[allow(clippy::too_many_arguments)]
fn traced_window(
    w: Workload,
    s: &mut Session,
    inputs: &[String],
    seed: u64,
    first_op: u64,
    seconds: f64,
    t: &mut Tracer,
    notes: &mut Vec<String>,
) -> Result<(Report, f64), String> {
    let before = s.client.metrics().map_err(|e| format!("metrics: {e}"))?;
    t.set_enabled(true);
    let from = t.spans().len();
    let traced = run_window(w, s, inputs, seed, first_op, seconds, TRACE_MIN_OPS, t)?;
    let after = s.client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let client = t.totals_since(from);
    let ops = traced.ops();
    let mut m: Metrics = PER_LAYER.iter().map(|&(name, unit)| (name, (0.0, unit))).collect();

    // Client spans: calls per op, their mean, and the op's self time.
    let calls = client.iter().filter(|(n, _)| n.starts_with("client.")).map(|(_, v)| v);
    let (count, ns) = calls.fold((0, 0), |(c, n), v| (c + v.count, n + v.total_ns));
    set(&mut m, "client.calls_per_op", count as f64 / ops);
    set(&mut m, "client.call_ms", if count == 0 { 0.0 } else { ns as f64 / count as f64 / 1e6 });
    set(&mut m, "client.op_self_ms", client.get("op").map_or(0.0, NameTotals::mean_self_ms));
    set(&mut m, "client.cpu_ms_per_op", traced.client_cpu_s * 1e3 / ops);

    // The server's own counters across the traced window.
    set(&mut m, "jobs.queue_wait_ms", hist_mean_ms(&before.queue_wait, &after.queue_wait));
    set(&mut m, "jobs.run_ms", hist_mean_ms(&before.run_time, &after.run_time));
    set(&mut m, "jobs.journal_fsync_ms", hist_mean_ms(&before.journal_fsync, &after.journal_fsync));
    let appends = after.journal_appends.saturating_sub(before.journal_appends);
    set(&mut m, "jobs.journal_appends_per_op", appends as f64 / ops);
    set(&mut m, "jobs.status_polls_per_op", traced.polls as f64 / ops);
    if traced.polls > 0 {
        // Each op's poll loop ends on exactly one `done` answer.
        set(&mut m, "jobs.poll_hit_ratio", traced.latencies_ms.len() as f64 / traced.polls as f64);
    }
    for (verb, metric) in [
        ("chunk", "service.chunk_ms"),
        ("commit", "service.commit_ms"),
        ("download", "service.download_ms"),
        ("anonymize", "service.anonymize_ms"),
        ("status", "service.status_ms"),
        ("health", "service.health_ms"),
        ("info", "service.info_ms"),
        ("list", "service.list_ms"),
        ("metrics", "service.metrics_ms"),
    ] {
        if let (Some(b), Some(a)) = (verb_latency(&before, verb), verb_latency(&after, verb)) {
            // The `before` snapshot's own request is counted after it
            // was taken: one `metrics` call that no op made.
            let own = u64::from(verb == "metrics");
            if a.count.saturating_sub(b.count) > own {
                set(&mut m, metric, hist_mean_ms(b, a));
            }
        }
    }
    let verb_ms: f64 = after
        .requests
        .iter()
        .filter_map(|a| {
            Some(a.latency.sum_us.saturating_sub(verb_latency(&before, &a.verb)?.sum_us))
        })
        .map(|us| us as f64 / 1e3)
        .sum();
    let op_ms: f64 = traced.latencies_ms.iter().sum();
    set(&mut m, "wire.residual_ms_per_op", (op_ms - verb_ms) / ops);
    set(
        &mut m,
        "reactor.bytes_in_per_op",
        after.bytes_in.saturating_sub(before.bytes_in) as f64 / ops,
    );
    set(
        &mut m,
        "reactor.bytes_out_per_op",
        after.bytes_out.saturating_sub(before.bytes_out) as f64 / ops,
    );
    let iterations = hist_mean_ms(&before.reactor_iterations, &after.reactor_iterations);
    set(&mut m, "reactor.iteration_ms", iterations);
    notes.push(noise_line(&traced));
    Ok((window_report(&traced, m, notes), stats::median(&traced.latencies_ms).unwrap_or(0.0)))
}

/// Replays one op in-process through each layer's public functions and
/// fills in the per-layer times and counts. For a release workload,
/// every replayed release must equal `served`, the server's release
/// for the same op.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    w: Workload,
    s: &mut Session,
    inputs: &[String],
    seed: u64,
    served: Option<&str>,
    work: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let from = t.spans().len();
    if let Some((_, model)) = w.model() {
        let served = served.ok_or("no served release to compare the replay with")?;
        let cfg = workloads::publish_config(model, workloads::op_seed(seed, GATE_OP));
        let mut stage_ms = [0.0; 3];
        for k in 0..REPLAYS {
            let r = replay::publish(&inputs[0], model, &cfg, t, GATE_OP - 1 - k)?;
            if r.release != served {
                return Err("replayed release differs from the server's release".into());
            }
            // Counts repeat exactly across replays of one seed.
            let (l, ls) = (&r.local, r.local.search_stats);
            let (mut checked, mut visited) = (ls.segments_checked, ls.cells_visited);
            set(m, "edits.local_per_op", (l.insertions + l.deletions) as f64);
            if let Some(g) = &r.global {
                let st = g.timings;
                for (acc, d) in stage_ms.iter_mut().zip([st.build, st.increase, st.decrease]) {
                    *acc += d.as_secs_f64() * 1e3 / REPLAYS as f64;
                }
                set(m, "edits.global_per_op", (g.insertions + g.deletions) as f64);
                checked += g.search_stats.segments_checked;
                visited += g.search_stats.cells_visited;
            }
            set(m, "index.segments_checked_per_op", checked as f64);
            set(m, "index.cells_visited_per_op", visited as f64);
        }
        set(m, "editor.build_ms", stage_ms[0]);
        set(m, "editor.increase_ms", stage_ms[1]);
        set(m, "editor.decrease_ms", stage_ms[2]);
    }
    // Every workload replays the transfer and control paths too, so the
    // json, protocol, api, store and obs layers are measured whichever
    // workload runs.
    for k in 0..REPLAYS {
        let dir = work.join(format!("replay-{k}"));
        replay::transfer(&inputs[k as usize % inputs.len()], &dir, t, GATE_OP - 1 - k)?;
    }
    let answers = control_answers(s)?;
    replay::control(&answers, CONTROL_REPLAY_ROUNDS, t, GATE_OP - 1)?;
    let spans = t.totals_since(from);
    let mean = |name: &str| spans.get(name).map_or(0.0, NameTotals::mean_ms);
    for (metric, span) in [
        ("csv.from_csv_ms", "csv.from_csv"),
        ("csv.to_csv_ms", "csv.to_csv"),
        ("freq.compute_ms", "freq.compute"),
        ("global.perturb_ms", "global.perturb"),
        ("global.realize_ms", "global.realize"),
        ("local.units_ms", "local.units"),
        ("local.merge_ms", "local.merge"),
        ("executor.anonymize_parallel_ms", "executor.anonymize_parallel"),
        ("json.parse_ms_per_piece", "json.parse"),
        ("json.render_ms_per_piece", "json.render"),
        ("protocol.parse_request_line_ms", "protocol.parse_request_line"),
        ("api.render_ms", "api.render"),
        ("store.append_ms", "store.append"),
        ("store.commit_ms", "store.commit"),
        ("store.read_chunk_ms", "store.read_chunk"),
        ("store.insert_ms", "store.insert"),
        ("obs.snapshot_ms", "obs.snapshot"),
    ] {
        set(m, metric, mean(span));
    }
    let exec = spans.get("executor.anonymize_parallel").copied().unwrap_or_default();
    set(m, "executor.unattributed_ms", exec.mean_self_ms());
    if exec.count > 0 {
        notes.push(format!(
            "executor.anonymize_parallel {:.3} ms: its child spans cover {:.3}%, unattributed {:.4} ms",
            exec.mean_ms(),
            100.0 * (exec.total_ns - exec.self_ns) as f64 / exec.total_ns.max(1) as f64,
            exec.mean_self_ms()
        ));
    }
    Ok(())
}

/// One untimed control rotation's answers, for the in-process replay.
fn control_answers(s: &mut Session) -> Result<replay::ControlAnswers, String> {
    let c = &mut s.client;
    let e = |what: &str, e: trajdp_server::ApiError| format!("{what}: {e}");
    let health = c.health().map_err(|x| e("health", x))?;
    Ok(replay::ControlAnswers {
        health: (health.outstanding_jobs, health.stored_datasets),
        info: c.info().map_err(|x| e("info", x))?,
        status: match &s.last_job {
            Some(job) => Some(c.status(job).map_err(|x| e("status", x))?),
            None => None,
        },
        list: c.request(&Json::obj([("cmd", Json::from("list"))])).map_err(|x| e("list", x))?,
        metrics: c.metrics().map_err(|x| e("metrics", x))?,
    })
}

fn print_report(args: &Args, r: &Report) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &r.notes {
        println!("{note}");
    }
    for (name, (value, unit)) in &r.metrics {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    let metrics: BTreeMap<String, Json> = r
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            (
                name.to_string(),
                Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
            )
        })
        .collect();
    let line = Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload publish|local|transfer|control --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print_report(&args, &report);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&["--workload", "transfer", "--seed", "7", "--seconds", "20", "--trace", "1"])
            .unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Transfer, 7, 20, true));
        assert!(args(&["--seed", "7"]).is_err(), "workload is required");
        assert!(args(&["--workload", "x"]).is_err());
        assert!(args(&["--workload", "control", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "control", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "control", "--seed"]).is_err());
    }

    #[test]
    fn histogram_delta_mean() {
        let h = |count, sum_us| HistogramSnapshot { counts: vec![], count, sum_us };
        assert_eq!(hist_mean_ms(&h(2, 1000), &h(6, 9000)), 2.0);
        assert_eq!(hist_mean_ms(&h(2, 1000), &h(2, 1000)), 0.0);
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let spec = trajdp_server::json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(rows)) = spec.get(key) else { panic!("{key} missing") };
            rows.iter()
                .map(|r| {
                    let s = |k| r.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let Some(Json::Arr(workloads)) = spec.get("workloads") else { panic!("workloads missing") };
        for w in workloads {
            assert!(Workload::parse(w.get("name").and_then(Json::as_str).unwrap()).is_some());
        }
    }
}
