//! `trajdp` — command-line front end for the frequency-based DP
//! trajectory publisher.
//!
//! ```text
//! trajdp gen --size 200 --len 150 --seed 7 --out private.csv
//! trajdp anonymize --model gl --epsilon 1.0 --m 10 --input private.csv --out release.csv
//! trajdp anonymize --model gl --parallel 8 --input private.csv --out release.csv
//! trajdp evaluate --original private.csv --anonymized release.csv
//! trajdp stats --input release.csv
//! trajdp serve --addr 127.0.0.1:7878 --workers 4 --state-dir state/ --log-level info
//! trajdp submit --addr 127.0.0.1:7878 --file request.json --data private.csv
//! trajdp fetch --addr 127.0.0.1:7878 --dataset ds-2 --out release.csv
//! trajdp delete --addr 127.0.0.1:7878 --dataset ds-2
//! trajdp info --addr 127.0.0.1:7878
//! trajdp metrics --addr 127.0.0.1:7878
//! ```
//!
//! Files are the CSV interchange format of `trajdp_model::csv`
//! (`traj_id,x,y,t`). The binary exists so the library can be exercised
//! on real exported data without writing Rust; `serve` turns it into a
//! long-lived JSON-lines service (`trajdp_server`).
//!
//! ## Exit codes
//!
//! Failures are classified, so scripts can tell *why* a command failed
//! without parsing stderr (documented in `PROTOCOL.md`):
//!
//! | code | class |
//! |------|-------|
//! | 0 | success |
//! | 1 | local failure (file I/O, CSV parse, pipeline error) |
//! | 2 | usage error (unknown command/flag, bad value) |
//! | 3 | transport failure (cannot connect, connection lost) |
//! | 4 | the server rejected the request (a stable API error code) |

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::process::ExitCode;
use traj_freq_dp::core::anonymize;
use traj_freq_dp::model::csv::{from_csv, to_csv};
use traj_freq_dp::model::stats::DatasetStats;
use traj_freq_dp::model::Dataset;
use traj_freq_dp::server::api::{ApiError, ErrorCode};
use traj_freq_dp::server::protocol::{
    parse_model, validate_workers, AnonymizeParams, DataRef, GenParams,
};
use traj_freq_dp::server::{init_logger, Client, LogLevel, Server, ServerConfig};
use traj_freq_dp::synth::{generate, GeneratorConfig};

/// A classified CLI failure; each class maps to a documented exit code.
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command, unknown/misspelled flag,
    /// missing or invalid value. Exit 2.
    Usage(String),
    /// The server could not be reached or the connection failed
    /// mid-exchange. Exit 3.
    Transport(String),
    /// The server understood us and said no — carries the stable
    /// [`ErrorCode`]. Exit 4.
    Api(ApiError),
    /// Everything local: file I/O, CSV parsing, pipeline errors.
    /// Exit 1.
    Other(String),
}

impl CliError {
    /// The documented process exit code of this failure class.
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Transport(_) => 3,
            CliError::Api(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Transport(m) | CliError::Other(m) => f.write_str(m),
            // The stable code rides along so scripts reading stderr see
            // the same identifier wire clients get.
            CliError::Api(e) => write!(f, "{} [{}]", e.message, e.code),
        }
    }
}

/// Client-layer errors classify themselves: a transport-coded failure
/// is a connectivity problem (exit 3), anything else is the server
/// rejecting the request (exit 4).
impl From<ApiError> for CliError {
    fn from(e: ApiError) -> CliError {
        if e.code == ErrorCode::Transport {
            CliError::Transport(e.message)
        } else {
            CliError::Api(e)
        }
    }
}

/// Maps a protocol-validator rejection of a *flag value* to a usage
/// error: at the CLI boundary a bad `--eps-split` is a usage mistake,
/// not an API failure.
fn usage(e: ApiError) -> CliError {
    CliError::Usage(e.message)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::from(e.exit_code())
        }
    }
}

const USAGE: &str = "\
usage:
  trajdp gen       --size N --len L [--seed S] --out FILE.csv
  trajdp anonymize --model pureg|purel|gl|lg [--epsilon E] [--eps-split F]
                   [--m M] [--seed S] [--parallel N]
                   --input FILE.csv --out FILE.csv
  trajdp evaluate  --original FILE.csv --anonymized FILE.csv
  trajdp stats     --input FILE.csv
  trajdp serve     [--addr HOST:PORT] [--workers N] [--max-conn N]
                   [--read-timeout SECS] [--state-dir DIR] [--max-datasets N]
                   [--dataset-ttl SECS] [--tenants FILE] [--eps-budget E]
                   [--max-queue N]
                   [--log-level off|error|warn|info|debug] [--log-json]
  trajdp submit    --addr HOST:PORT [--file REQUEST.json] [--data FILE.csv]
                   [--chunk-threshold BYTES] [--tenant NAME:TOKEN]
  trajdp fetch     --addr HOST:PORT --dataset DS-ID --out FILE.csv
                   [--tenant NAME:TOKEN]
  trajdp delete    --addr HOST:PORT --dataset DS-ID [--tenant NAME:TOKEN]
  trajdp cancel    --addr HOST:PORT --job JOB-ID [--tenant NAME:TOKEN]
  trajdp info      --addr HOST:PORT
  trajdp metrics   --addr HOST:PORT [--json]

exit codes: 0 ok, 1 local failure, 2 usage error, 3 cannot reach the
server, 4 the server rejected the request (see PROTOCOL.md)";

/// Parsed `--flag value` pairs of one subcommand.
type Flags<'a> = HashMap<&'a str, &'a str>;

fn flag_list(accepted: &[&str]) -> String {
    accepted.iter().map(|f| format!("--{f}")).collect::<Vec<_>>().join(", ")
}

/// Parses `--flag value` pairs against the subcommand's accepted set.
/// Unknown or misspelled options, bare positional arguments, duplicate
/// flags, and a trailing flag with no value are all hard errors — a
/// `--epsilonn 2.0` must fail loudly, never run with the default.
fn parse_flags<'a>(
    cmd: &str,
    args: &'a [String],
    accepted: &[&str],
) -> Result<Flags<'a>, CliError> {
    parse_flags_and_switches(cmd, args, accepted, &[]).map(|(flags, _)| flags)
}

/// Like [`parse_flags`], but also accepts bare value-less toggles
/// (`--json`, `--log-json`). Returns the value flags plus the set of
/// switches that were present.
fn parse_flags_and_switches<'a>(
    cmd: &str,
    args: &'a [String],
    accepted: &[&str],
    switches: &[&str],
) -> Result<(Flags<'a>, HashSet<&'a str>), CliError> {
    let all = || {
        let names: Vec<&str> = accepted.iter().chain(switches).copied().collect();
        flag_list(&names)
    };
    let mut flags = Flags::new();
    let mut on: HashSet<&'a str> = HashSet::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.strip_prefix("--").ok_or_else(|| {
            CliError::Usage(format!(
                "unexpected argument {arg:?} to {cmd} (accepted flags: {})",
                all()
            ))
        })?;
        if switches.contains(&name) {
            if !on.insert(name) {
                return Err(CliError::Usage(format!("duplicate option --{name}")));
            }
            continue;
        }
        if !accepted.contains(&name) {
            return Err(CliError::Usage(format!(
                "unknown option --{name} for {cmd} (accepted flags: {})",
                all()
            )));
        }
        let value = it
            .next()
            .ok_or_else(|| CliError::Usage(format!("missing value for --{name} (of {cmd})")))?;
        if value.starts_with("--") {
            // `--out --len` means --out's value was forgotten, not that
            // a file named "--len" was intended.
            return Err(CliError::Usage(format!(
                "missing value for --{name} (found flag {value:?} instead)"
            )));
        }
        if flags.insert(name, value.as_str()).is_some() {
            return Err(CliError::Usage(format!("duplicate option --{name}")));
        }
    }
    Ok((flags, on))
}

/// The value of `--name`, if given.
fn opt<'a>(flags: &Flags<'a>, name: &str) -> Option<&'a str> {
    flags.get(name).copied()
}

fn opt_parse<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, CliError> {
    match opt(flags, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError::Usage(format!("invalid --{name}: {v:?}"))),
    }
}

fn required<'a>(flags: &Flags<'a>, name: &str) -> Result<&'a str, CliError> {
    opt(flags, name).ok_or_else(|| CliError::Usage(format!("missing required --{name}")))
}

fn load(path: &str) -> Result<Dataset, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?;
    from_csv(&text).map_err(|e| CliError::Other(format!("cannot parse {path}: {e}")))
}

fn save(path: &str, ds: &Dataset) -> Result<(), CliError> {
    std::fs::write(path, to_csv(ds))
        .map_err(|e| CliError::Other(format!("cannot write {path}: {e}")))
}

fn connect(addr: &str) -> Result<Client, CliError> {
    Client::connect(addr)
        .map_err(|e| CliError::Transport(format!("cannot connect to {addr} ({:?}): {e}", e.kind())))
}

/// [`connect`], stamping every typed call with the `--tenant`
/// credential when one was given.
fn connect_as(addr: &str, tenant: Option<&str>) -> Result<Client, CliError> {
    let client = connect(addr)?;
    Ok(match tenant {
        Some(credential) => client.with_tenant(credential),
        None => client,
    })
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = args.first().map(String::as_str).ok_or(CliError::Usage("no command given".into()))?;
    let rest = &args[1..];
    match cmd {
        "gen" => {
            let flags = parse_flags(cmd, rest, &["size", "len", "seed", "out"])?;
            // The wire's defaults and checks.
            let d = GenParams::new();
            let params = GenParams {
                size: opt_parse(&flags, "size", d.size)?,
                len: opt_parse(&flags, "len", d.len)?,
                seed: opt_parse(&flags, "seed", d.seed)?,
                ..d
            }
            .check()
            .map_err(usage)?;
            let out = required(&flags, "out")?;
            let world =
                generate(&GeneratorConfig::tdrive_profile(params.size, params.len, params.seed));
            save(out, &world.dataset)?;
            let stats = DatasetStats::compute(&world.dataset);
            eprintln!(
                "wrote {out}: {} trajectories, {} points, {} distinct locations",
                stats.num_trajectories, stats.total_points, stats.distinct_locations
            );
            Ok(())
        }
        "anonymize" => {
            let flags = parse_flags(
                cmd,
                rest,
                &["model", "epsilon", "eps-split", "m", "seed", "parallel", "input", "out"],
            )?;
            let model = parse_model(required(&flags, "model")?).map_err(usage)?;
            // The wire's defaults and checks; the input file is read
            // only once they pass, so its (empty) text stands in here.
            let d = AnonymizeParams::new(model, DataRef::Inline(Default::default()));
            let params = AnonymizeParams {
                epsilon: opt_parse(&flags, "epsilon", d.epsilon)?,
                eps_split: opt_parse(&flags, "eps-split", d.eps_split)?,
                m: opt_parse(&flags, "m", d.m)?,
                seed: opt_parse(&flags, "seed", d.seed)?,
                workers: validate_workers(opt_parse(&flags, "parallel", d.workers as u64)?)
                    .map_err(|e| CliError::Usage(format!("--parallel: {e}")))?,
                ..d
            }
            .check()
            .map_err(usage)?;
            let input = required(&flags, "input")?;
            let out = required(&flags, "out")?;
            let ds = load(input)?;
            let result = anonymize(&ds, model, &params.config())
                .map_err(|e| CliError::Other(e.to_string()))?;
            save(out, &result.dataset)?;
            eprintln!(
                "wrote {out}: ε spent = {}, edits = {}, utility loss = {:.1} m",
                result.epsilon_spent,
                result.total_edits(),
                result.utility_loss()
            );
            Ok(())
        }
        "evaluate" => {
            let flags = parse_flags(cmd, rest, &["original", "anonymized"])?;
            let original = load(required(&flags, "original")?)?;
            let anonymized = load(required(&flags, "anonymized")?)?;
            if original.len() != anonymized.len() {
                return Err(CliError::Other(
                    "datasets must contain the same number of trajectories".into(),
                ));
            }
            let s = traj_freq_dp::metrics::scores(&original, &anonymized);
            println!("MI  = {:.4}", s.mi);
            println!("INF = {:.4}", s.inf);
            println!("DE  = {:.4}", s.de);
            println!("TE  = {:.4}", s.te);
            println!("FFP = {:.4}", s.ffp);
            Ok(())
        }
        "stats" => {
            let flags = parse_flags(cmd, rest, &["input"])?;
            let ds = load(required(&flags, "input")?)?;
            let s = DatasetStats::compute(&ds);
            println!("{s:#?}");
            Ok(())
        }
        "serve" => {
            let (flags, switches) = parse_flags_and_switches(
                cmd,
                rest,
                &[
                    "addr",
                    "workers",
                    "max-conn",
                    "read-timeout",
                    "state-dir",
                    "max-datasets",
                    "dataset-ttl",
                    "tenants",
                    "eps-budget",
                    "max-queue",
                    "log-level",
                ],
                &["log-json"],
            )?;
            let log_json = switches.contains("log-json");
            let log_level = match opt(&flags, "log-level") {
                Some(v) => LogLevel::parse(v).ok_or_else(|| {
                    CliError::Usage(format!(
                        "invalid --log-level: {v:?} (expected off, error, warn, info, or debug)"
                    ))
                })?,
                // `--log-json` alone means "log, as JSON" — silent JSON
                // would be a useless combination.
                None if log_json => LogLevel::Info,
                None => LogLevel::Off,
            };
            init_logger(log_level, log_json);
            let addr = opt(&flags, "addr").unwrap_or("127.0.0.1:7878").to_string();
            let workers = validate_workers(opt_parse(&flags, "workers", 2u64)?)
                .map_err(|e| CliError::Usage(format!("--workers: {e}")))?;
            let max_connections = opt_parse(&flags, "max-conn", 1024usize)?;
            if max_connections == 0 {
                return Err(CliError::Usage("--max-conn must be at least 1".into()));
            }
            let read_timeout_secs = opt_parse(&flags, "read-timeout", 10u64)?;
            if read_timeout_secs == 0 {
                return Err(CliError::Usage("--read-timeout must be at least 1 second".into()));
            }
            let state_dir = opt(&flags, "state-dir").map(std::path::PathBuf::from);
            let max_datasets = opt_parse(
                &flags,
                "max-datasets",
                traj_freq_dp::server::store::MAX_STORED_DATASETS,
            )?;
            if max_datasets == 0 {
                return Err(CliError::Usage("--max-datasets must be at least 1".into()));
            }
            let dataset_ttl = match opt(&flags, "dataset-ttl") {
                None => None,
                Some(v) => {
                    let secs: u64 = v
                        .parse()
                        .map_err(|_| CliError::Usage(format!("invalid --dataset-ttl: {v:?}")))?;
                    if secs == 0 {
                        return Err(CliError::Usage(
                            "--dataset-ttl must be at least 1 second".into(),
                        ));
                    }
                    Some(std::time::Duration::from_secs(secs))
                }
            };
            let tenants = opt(&flags, "tenants").map(std::path::PathBuf::from);
            let eps_budget = match opt(&flags, "eps-budget") {
                None => None,
                Some(v) => {
                    let eps: f64 = v
                        .parse()
                        .map_err(|_| CliError::Usage(format!("invalid --eps-budget: {v:?}")))?;
                    if !eps.is_finite() || eps <= 0.0 {
                        return Err(CliError::Usage(
                            "--eps-budget must be a positive number".into(),
                        ));
                    }
                    Some(eps)
                }
            };
            let max_queue = match opt(&flags, "max-queue") {
                None => None,
                Some(v) => {
                    let n: usize = v
                        .parse()
                        .map_err(|_| CliError::Usage(format!("invalid --max-queue: {v:?}")))?;
                    if n == 0 {
                        return Err(CliError::Usage("--max-queue must be at least 1".into()));
                    }
                    Some(n)
                }
            };
            let durable = state_dir.is_some();
            let server = Server::start(ServerConfig {
                addr,
                workers,
                max_connections,
                read_timeout: std::time::Duration::from_secs(read_timeout_secs),
                state_dir,
                max_datasets,
                dataset_ttl,
                tenants,
                eps_budget,
                max_queue,
                ..ServerConfig::default()
            })
            .map_err(|e| CliError::Other(format!("cannot start: {e}")))?;
            eprintln!(
                "trajdp-server listening on {} ({} job workers{}); \
                 send JSON-lines requests, e.g. {{\"cmd\":\"health\"}}",
                server.local_addr(),
                workers,
                if durable { ", durable job journal" } else { "" }
            );
            // Serve until the process is killed.
            loop {
                std::thread::park();
            }
        }
        "submit" => {
            let flags =
                parse_flags(cmd, rest, &["addr", "file", "data", "chunk-threshold", "tenant"])?;
            let addr = required(&flags, "addr")?;
            let threshold = opt_parse(&flags, "chunk-threshold", CHUNK_THRESHOLD_BYTES)?;
            if threshold == 0 {
                return Err(CliError::Usage("--chunk-threshold must be at least 1".into()));
            }
            let data = match opt(&flags, "data") {
                Some(path) => Some(
                    std::fs::read_to_string(path)
                        .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?,
                ),
                None => None,
            };
            let request = match opt(&flags, "file") {
                Some(path) => std::fs::read_to_string(path)
                    .map_err(|e| CliError::Other(format!("cannot read {path}: {e}")))?,
                None => {
                    let mut buf = String::new();
                    std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                        .map_err(|e| CliError::Other(format!("cannot read stdin: {e}")))?;
                    buf
                }
            };
            // --tenant stamps the typed chunked-upload calls; raw
            // request lines still travel verbatim — a request file
            // carries its own "tenant" member if it wants one.
            let mut client = connect_as(addr, opt(&flags, "tenant"))?;
            for line in request.lines().filter(|l| !l.trim().is_empty()) {
                let response = match prepare_request(&mut client, line, data.as_deref(), threshold)?
                {
                    Some(rewritten) => client.request(&rewritten)?,
                    None => client.request_line(line)?,
                };
                println!("{response}");
            }
            Ok(())
        }
        "fetch" => {
            let flags = parse_flags(cmd, rest, &["addr", "dataset", "out", "tenant"])?;
            let addr = required(&flags, "addr")?;
            let dataset = required(&flags, "dataset")?;
            let out = required(&flags, "out")?;
            let mut client = connect_as(addr, opt(&flags, "tenant"))?;
            let csv = client.download_dataset(dataset)?;
            std::fs::write(out, &csv)
                .map_err(|e| CliError::Other(format!("cannot write {out}: {e}")))?;
            eprintln!("wrote {out}: {} bytes from {dataset}", csv.len());
            Ok(())
        }
        "delete" => {
            let flags = parse_flags(cmd, rest, &["addr", "dataset", "tenant"])?;
            let addr = required(&flags, "addr")?;
            let dataset = required(&flags, "dataset")?;
            let mut client = connect_as(addr, opt(&flags, "tenant"))?;
            let info = client.delete_dataset(dataset)?;
            eprintln!("deleted {dataset}: freed {} bytes", info.bytes);
            Ok(())
        }
        "cancel" => {
            let flags = parse_flags(cmd, rest, &["addr", "job", "tenant"])?;
            let addr = required(&flags, "addr")?;
            let job = required(&flags, "job")?;
            let mut client = connect_as(addr, opt(&flags, "tenant"))?;
            let cancelled = client.cancel(job)?;
            eprintln!("cancelled {cancelled}");
            Ok(())
        }
        "info" => {
            let flags = parse_flags(cmd, rest, &["addr"])?;
            let addr = required(&flags, "addr")?;
            let mut client = connect(addr)?;
            let info = client.info()?;
            // `key=value` lines: stable to parse from shell, readable
            // at a glance.
            println!("version={}", info.version);
            println!(
                "protocol_versions={}",
                info.protocol_versions.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
            );
            println!("workers={}", info.workers);
            println!("max_datasets={}", info.max_datasets);
            println!("max_dataset_bytes={}", info.max_dataset_bytes);
            println!("max_request_bytes={}", info.max_request_bytes);
            println!("max_download_chunk_bytes={}", info.max_download_chunk_bytes);
            println!("default_download_chunk_bytes={}", info.default_download_chunk_bytes);
            println!("max_gen_points={}", info.max_gen_points);
            println!("max_m={}", info.max_m);
            println!("max_workers={}", info.max_workers);
            println!("max_connections={}", info.max_connections);
            println!("read_timeout_secs={}", info.read_timeout_secs);
            println!("uptime_secs={}", info.uptime_secs);
            println!("started_at={}", info.started_at);
            println!("state_dir={}", info.state_dir);
            println!("tenants={}", info.tenants);
            if let Some(eps) = info.eps_budget {
                println!("eps_budget={eps}");
            }
            Ok(())
        }
        "metrics" => {
            let (flags, switches) = parse_flags_and_switches(cmd, rest, &["addr"], &["json"])?;
            let addr = required(&flags, "addr")?;
            let mut client = connect(addr)?;
            let snap = client.metrics()?;
            if switches.contains("json") {
                println!("{}", snap.to_json());
            } else {
                // Prometheus text exposition already ends in a newline.
                print!("{}", snap.to_prometheus());
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Above this many bytes, `submit` ships a dataset member via chunked
/// upload (`upload`/`chunk`/`commit`) and rewrites the request to use
/// the returned handle, instead of inlining a giant string into one
/// JSON line. Overridable with `--chunk-threshold`.
const CHUNK_THRESHOLD_BYTES: usize = 1024 * 1024;

/// Upload piece size: the threshold, but never so large that one
/// `chunk` request line (with JSON escaping overhead) could trip the
/// server's per-line framing limit and poison the connection.
const MAX_UPLOAD_PIECE_BYTES: usize = 8 * 1024 * 1024;

/// Inline request members that can be swapped for a dataset handle,
/// with the commands that accept the handle form. The command gate
/// matters: uploading for a request the server will reject anyway
/// would occupy a store slot until the upload-TTL sweep or an eviction
/// reclaims it.
const CHUNKABLE_MEMBERS: [(&str, &str, &[&str]); 3] = [
    ("csv", "dataset", &["anonymize", "stats"]),
    ("original", "original_dataset", &["evaluate"]),
    ("anonymized", "anonymized_dataset", &["evaluate"]),
];

/// Applies `--data` splicing and the chunked-upload switch to one
/// request line. Returns `None` when the line should be sent verbatim
/// — including any line that is not a JSON object when no `--data` is
/// in play: the server answers those with a per-line error, the same
/// way regardless of the line's size, and the remaining lines still
/// run. With `--data`, every line must be a JSON object (there is
/// nothing to splice into otherwise), so a malformed line is a hard
/// error.
///
/// `--data` splices only into commands that take a `csv` member
/// (`anonymize`, `stats`) — other lines in the same file (`status`,
/// `health`, …) pass through untouched — and conflicts with a request
/// that already names its own dataset: silently replacing it would run
/// the job on different data than the request line says. The
/// chunked-upload switch is gated the same way: uploading for a
/// command the server cannot accept a handle for would occupy a store
/// slot just to be rejected.
fn prepare_request(
    client: &mut Client,
    line: &str,
    data: Option<&str>,
    threshold: usize,
) -> Result<Option<traj_freq_dp::server::Json>, CliError> {
    use traj_freq_dp::server::Json;
    let parsed = traj_freq_dp::server::json::parse(line);
    let mut obj = match (parsed, data) {
        (Ok(Json::Obj(obj)), _) => obj,
        (_, None) => return Ok(None),
        (Ok(_), Some(_)) => {
            return Err(CliError::Usage(
                "--data requires each request line to be a JSON object".to_string(),
            ))
        }
        (Err(e), Some(_)) => {
            return Err(CliError::Usage(format!("cannot parse request line: {e}")))
        }
    };
    let cmd = obj.get("cmd").and_then(Json::as_str).unwrap_or("").to_string();
    let mut rewritten = false;
    if let Some(csv) = data {
        if matches!(cmd.as_str(), "anonymize" | "stats") {
            if obj.contains_key("csv") || obj.contains_key("dataset") {
                return Err(CliError::Usage(format!(
                    "--data conflicts with the {cmd} request's own \"csv\"/\"dataset\" member"
                )));
            }
            obj.insert("csv".to_string(), Json::from(csv));
            rewritten = true;
        }
    }
    for (inline_key, handle_key, commands) in CHUNKABLE_MEMBERS {
        if !commands.contains(&cmd.as_str()) {
            continue;
        }
        let oversized = matches!(obj.get(inline_key), Some(Json::Str(s)) if s.len() > threshold);
        if oversized {
            let Some(Json::Str(csv)) = obj.remove(inline_key) else { unreachable!() };
            let uploaded = client.upload_dataset(&csv, threshold.min(MAX_UPLOAD_PIECE_BYTES))?;
            obj.insert(handle_key.to_string(), Json::from(uploaded.dataset));
            rewritten = true;
        }
    }
    Ok(rewritten.then_some(Json::Obj(obj)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// The rendered message of a CLI error, for content asserts.
    fn msg(e: CliError) -> String {
        e.to_string()
    }

    #[test]
    fn opt_parsing() {
        let args = a(&["--size", "10", "--out", "x.csv"]);
        let flags = parse_flags("gen", &args, &["size", "len", "seed", "out"]).unwrap();
        assert_eq!(opt(&flags, "size"), Some("10"));
        assert_eq!(opt(&flags, "len"), None);
        assert_eq!(opt_parse(&flags, "size", 5usize).unwrap(), 10);
        assert_eq!(opt_parse(&flags, "len", 5usize).unwrap(), 5);
        assert!(required(&flags, "out").is_ok());
        assert!(required(&flags, "seed").is_err());
        let args = a(&["--size", "xx"]);
        let bad = parse_flags("gen", &args, &["size"]).unwrap();
        assert!(opt_parse::<usize>(&bad, "size", 1).is_err());
    }

    #[test]
    fn unknown_and_dangling_flags_are_rejected() {
        // A misspelled flag must not silently run with the default.
        let err =
            msg(parse_flags("anonymize", &a(&["--epsilonn", "2.0"]), &["epsilon"]).unwrap_err());
        assert!(err.contains("--epsilonn") && err.contains("--epsilon"), "{err}");
        // A trailing flag with no value must not be ignored.
        let err =
            msg(parse_flags("gen", &a(&["--size", "5", "--seed"]), &["size", "seed"]).unwrap_err());
        assert!(err.contains("missing value for --seed"), "{err}");
        // A flag token in value position means the value was forgotten;
        // it must not be swallowed as the value.
        let err =
            msg(parse_flags("gen", &a(&["--out", "--len", "5"]), &["out", "len"]).unwrap_err());
        assert!(err.contains("missing value for --out"), "{err}");
        // Bare positional arguments and duplicates are errors too.
        assert!(msg(parse_flags("stats", &a(&["input.csv"]), &["input"]).unwrap_err())
            .contains("unexpected argument"));
        assert!(msg(
            parse_flags("gen", &a(&["--size", "1", "--size", "2"]), &["size"]).unwrap_err()
        )
        .contains("duplicate"));
    }

    #[test]
    fn misspelled_flag_errors_name_accepted_flags() {
        let err = msg(run(&a(&["anonymize", "--model", "gl", "--epsilonn", "2.0"])).unwrap_err());
        assert!(err.contains("unknown option --epsilonn"), "{err}");
        assert!(err.contains("--epsilon") && err.contains("--eps-split"), "{err}");
        let err = msg(run(&a(&["gen", "--out", "x.csv", "--sizee", "5"])).unwrap_err());
        assert!(err.contains("--sizee"), "{err}");
    }

    #[test]
    fn error_classes_map_to_documented_exit_codes() {
        // Usage: unknown command / bad flags → 2.
        assert_eq!(run(&a(&["bogus"])).unwrap_err().exit_code(), 2);
        assert_eq!(run(&a(&["gen", "--sizee", "5"])).unwrap_err().exit_code(), 2);
        assert_eq!(run(&[]).unwrap_err().exit_code(), 2);
        // Transport: nothing listens on a reserved port → 3.
        let err = run(&a(&["info", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        // Local failure: unreadable input file → 1.
        let err = run(&a(&["stats", "--input", "/definitely/not/a/file.csv"])).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        // Api: a server that answers with an error code → 4 (and the
        // code is named in the message for stderr readers).
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let err = run(&a(&["delete", "--addr", &addr, "--dataset", "ds-404"])).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(msg(err).contains("dataset-not-found"));
        server.shutdown();
    }

    #[test]
    fn serve_rejects_zero_workers() {
        let err = msg(run(&a(&["serve", "--workers", "0"])).unwrap_err());
        assert!(err.contains("workers") && err.contains("at least 1"), "{err}");
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&a(&["bogus"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn gen_anonymize_evaluate_roundtrip() {
        let dir = std::env::temp_dir().join("trajdp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let private = dir.join("private.csv");
        let release = dir.join("release.csv");
        let p = private.to_str().unwrap();
        let r = release.to_str().unwrap();
        run(&a(&["gen", "--size", "12", "--len", "40", "--seed", "3", "--out", p])).unwrap();
        run(&a(&[
            "anonymize",
            "--model",
            "gl",
            "--epsilon",
            "1.0",
            "--m",
            "4",
            "--input",
            p,
            "--out",
            r,
        ]))
        .unwrap();
        run(&a(&["evaluate", "--original", p, "--anonymized", r])).unwrap();
        run(&a(&["stats", "--input", r])).unwrap();
        let released = load(r).unwrap();
        assert_eq!(released.len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn anonymize_rejects_bad_eps_split() {
        for bad in ["0", "1", "-0.2", "1.5", "nan"] {
            let err = run(&a(&[
                "anonymize",
                "--model",
                "gl",
                "--eps-split",
                bad,
                "--input",
                "x",
                "--out",
                "y",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad}: bad eps-split is a usage error");
            let err = msg(err);
            assert!(err.contains("eps-split") || err.contains("invalid"), "{bad}: {err}");
        }
    }

    #[test]
    fn anonymize_rejects_unusable_epsilon_as_usage() {
        // A positive ε whose noise scale overflows, and a split whose
        // global share underflows to zero: both are usage errors caught
        // before the input is read, never a panic in the pipeline.
        for (model, epsilon, split) in [("pureg", "1e-320", "0.5"), ("gl", "1e-323", "0.1")] {
            let err = run(&a(&[
                "anonymize",
                "--model",
                model,
                "--epsilon",
                epsilon,
                "--eps-split",
                split,
                "--input",
                "no-such-input.csv",
                "--out",
                "y",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{model} ε={epsilon}");
            let err = msg(err);
            assert!(err.contains("noise scale"), "{model} ε={epsilon}: {err}");
        }
    }

    #[test]
    fn parallel_flag_matches_serial_output() {
        let dir = std::env::temp_dir().join("trajdp-cli-parallel-test");
        std::fs::create_dir_all(&dir).unwrap();
        let private = dir.join("private.csv");
        let serial = dir.join("serial.csv");
        let parallel = dir.join("parallel.csv");
        let p = private.to_str().unwrap();
        run(&a(&["gen", "--size", "10", "--len", "30", "--seed", "5", "--out", p])).unwrap();
        run(&a(&[
            "anonymize",
            "--model",
            "gl",
            "--seed",
            "11",
            "--m",
            "4",
            "--input",
            p,
            "--out",
            serial.to_str().unwrap(),
        ]))
        .unwrap();
        run(&a(&[
            "anonymize",
            "--model",
            "gl",
            "--seed",
            "11",
            "--m",
            "4",
            "--parallel",
            "8",
            "--input",
            p,
            "--out",
            parallel.to_str().unwrap(),
        ]))
        .unwrap();
        let a_csv = std::fs::read_to_string(&serial).unwrap();
        let b_csv = std::fs::read_to_string(&parallel).unwrap();
        assert_eq!(a_csv, b_csv, "--parallel 8 must be byte-identical to serial");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_zero_rejected() {
        let err = run(&a(&[
            "anonymize",
            "--model",
            "gl",
            "--parallel",
            "0",
            "--input",
            "x",
            "--out",
            "y",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(msg(err).contains("parallel"));
    }

    #[test]
    fn prepare_request_switches_large_members_to_chunked_upload() {
        use traj_freq_dp::server::Json;
        let server = Server::start(ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // Small lines pass through verbatim (None = send as-is).
        assert_eq!(prepare_request(&mut client, r#"{"cmd":"health"}"#, None, 100).unwrap(), None);

        // A csv member over the threshold is uploaded chunked and the
        // request rewritten to reference the handle.
        let big = "traj_id,x,y,t\n".to_string() + &"0,1.0,2.0,3\n".repeat(40);
        let line =
            Json::obj([("cmd", Json::from("stats")), ("csv", Json::from(big.clone()))]).to_string();
        let rewritten =
            prepare_request(&mut client, &line, None, 64).unwrap().expect("must rewrite");
        assert!(rewritten.get("csv").is_none());
        let handle = rewritten.get("dataset").and_then(Json::as_str).unwrap().to_string();
        // The handle is committed and usable: the rewritten request runs.
        let resp = client.request(&rewritten).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        assert_eq!(resp.get("trajectories").and_then(Json::as_u64), Some(1));

        // --data splices the dataset file into the request.
        let spliced = prepare_request(&mut client, r#"{"cmd":"stats"}"#, Some(&big), 1 << 20)
            .unwrap()
            .expect("splice must rewrite");
        assert_eq!(spliced.get("csv").and_then(Json::as_str), Some(big.as_str()));
        // Only into commands that take a dataset: a status line in the
        // same file passes through verbatim.
        let status_line = r#"{"cmd":"status","job":"job-1"}"#;
        assert_eq!(prepare_request(&mut client, status_line, Some(&big), 1 << 20).unwrap(), None);
        // The upload switch is gated the same way: a big member on a
        // command the server would reject anyway must not burn a store
        // slot — the line goes through verbatim for a per-line error.
        let misspelled =
            Json::obj([("cmd", Json::from("anonymise")), ("csv", Json::from(big.clone()))])
                .to_string();
        assert_eq!(prepare_request(&mut client, &misspelled, None, 64).unwrap(), None);
        // A request that already names its own dataset conflicts
        // instead of being silently overwritten.
        for conflicting in
            [r#"{"cmd":"stats","csv":"x"}"#, r#"{"cmd":"anonymize","model":"gl","dataset":"ds-1"}"#]
        {
            let err =
                msg(prepare_request(&mut client, conflicting, Some(&big), 1 << 20).unwrap_err());
            assert!(err.contains("conflicts"), "{err}");
        }
        // And --data with a non-object request line is a hard error.
        assert!(prepare_request(&mut client, "not json", Some(&big), 1 << 20).is_err());

        let _ = handle;
        drop(client);
        server.shutdown();
    }

    #[test]
    fn fetch_cli_downloads_a_stored_dataset() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let csv = "traj_id,x,y,t\n7,1.5,2.5,3\n".repeat(30);
        let handle = {
            let mut client = Client::connect(&addr).unwrap();
            client.upload_dataset(&csv, 50).unwrap().dataset
        };
        let dir = std::env::temp_dir().join("trajdp-cli-fetch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fetched.csv");
        run(&a(&["fetch", "--addr", &addr, "--dataset", &handle, "--out", out.to_str().unwrap()]))
            .unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), csv);
        // Required flags are enforced.
        assert!(msg(run(&a(&["fetch", "--addr", &addr])).unwrap_err()).contains("--dataset"));
        // The delete verb frees the handle; a second delete reports it
        // unknown, as does a fetch.
        run(&a(&["delete", "--addr", &addr, "--dataset", &handle])).unwrap();
        let err = msg(run(&a(&["delete", "--addr", &addr, "--dataset", &handle])).unwrap_err());
        assert!(err.contains("unknown dataset"), "{err}");
        let err = msg(run(&a(&[
            "fetch",
            "--addr",
            &addr,
            "--dataset",
            &handle,
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap_err());
        assert!(err.contains("unknown dataset"), "{err}");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_cli_reports_server_limits() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        // The typed client sees the same limits the verb prints.
        let mut client = Client::connect(&addr).unwrap();
        let info = client.info().unwrap();
        assert_eq!(info.protocol_versions, vec![1, 2]);
        assert_eq!(info.workers, 2, "default ServerConfig starts 2 workers");
        assert_eq!(info.max_datasets, traj_freq_dp::server::store::MAX_STORED_DATASETS as u64);
        assert_eq!(info.max_connections, 1024, "default shed threshold");
        assert_eq!(info.read_timeout_secs, 10, "default read deadline");
        assert!(info.max_download_chunk_bytes >= info.default_download_chunk_bytes);
        drop(client);
        run(&a(&["info", "--addr", &addr])).unwrap();
        // Required flags are enforced.
        assert!(run(&a(&["info"])).is_err());
        server.shutdown();
    }

    #[test]
    fn metrics_cli_scrapes_a_live_server() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        client.info().unwrap();
        drop(client);
        // Both expositions work against a live server; the typed client
        // sees the info request counted above.
        run(&a(&["metrics", "--addr", &addr])).unwrap();
        run(&a(&["metrics", "--addr", &addr, "--json"])).unwrap();
        let mut client = Client::connect(&addr).unwrap();
        let snap = client.metrics().unwrap();
        let info_count = snap.requests.iter().find(|r| r.verb == "info").map(|r| r.count).unwrap();
        assert!(info_count >= 1, "info requests must be counted, got {info_count}");
        assert!(run(&a(&["metrics"])).is_err(), "--addr is required");
        server.shutdown();
    }

    #[test]
    fn serve_rejects_bad_log_level() {
        let err = msg(run(&a(&["serve", "--log-level", "loud"])).unwrap_err());
        assert!(err.contains("log-level"), "{err}");
        // `--log-json` is a bare switch: it must not eat a value.
        let err = msg(run(&a(&["serve", "--log-json", "true"])).unwrap_err());
        assert!(err.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_lifecycle_knobs() {
        let err = msg(run(&a(&["serve", "--max-datasets", "0"])).unwrap_err());
        assert!(err.contains("max-datasets"), "{err}");
        let err = msg(run(&a(&["serve", "--dataset-ttl", "0"])).unwrap_err());
        assert!(err.contains("dataset-ttl"), "{err}");
        let err = msg(run(&a(&["serve", "--dataset-ttl", "soon"])).unwrap_err());
        assert!(err.contains("dataset-ttl"), "{err}");
        let err = msg(run(&a(&["serve", "--max-conn", "0"])).unwrap_err());
        assert!(err.contains("max-conn"), "{err}");
        let err = msg(run(&a(&["serve", "--read-timeout", "0"])).unwrap_err());
        assert!(err.contains("read-timeout"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_tenancy_knobs() {
        for bad in ["0", "-1", "nan", "inf", "x"] {
            let err = msg(run(&a(&["serve", "--eps-budget", bad])).unwrap_err());
            assert!(err.contains("eps-budget"), "{bad}: {err}");
        }
        for bad in ["0", "x"] {
            let err = msg(run(&a(&["serve", "--max-queue", bad])).unwrap_err());
            assert!(err.contains("max-queue"), "{bad}: {err}");
        }
        // A tenants file that cannot be loaded fails startup loudly
        // (exit 1, not a silent open server).
        let err = run(&a(&["serve", "--tenants", "/definitely/not/a/file"])).unwrap_err();
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(msg(err).contains("tenants"), "names the tenants file");
    }

    #[test]
    fn cancel_requires_job_and_classifies_api_rejections() {
        assert!(msg(run(&a(&["cancel", "--addr", "127.0.0.1:1"])).unwrap_err()).contains("--job"));
        let server = Server::start(ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let err = run(&a(&["cancel", "--addr", &addr, "--job", "job-404"])).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(msg(err).contains("job-not-found"));
        server.shutdown();
    }

    #[test]
    fn submit_rejects_zero_chunk_threshold() {
        let err =
            run(&a(&["submit", "--addr", "127.0.0.1:1", "--chunk-threshold", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(msg(err).contains("chunk-threshold"));
    }

    #[test]
    fn anonymize_rejects_bad_model_and_epsilon() {
        let err =
            msg(run(&a(&["anonymize", "--model", "zzz", "--input", "x", "--out", "y"]))
                .unwrap_err());
        assert!(err.contains("unknown model"));
        let err = msg(run(&a(&[
            "anonymize",
            "--model",
            "gl",
            "--epsilon",
            "-1",
            "--input",
            "x",
            "--out",
            "y",
        ]))
        .unwrap_err());
        assert!(err.contains("positive"));
    }

    #[test]
    fn out_of_range_values_are_usage_errors_not_panics() {
        // Each of these used to reach an assert in the pipeline or the
        // generator and exit 101; they share the wire's checks now.
        let too_big_m = (traj_freq_dp::server::protocol::MAX_M + 1).to_string();
        for args in [
            &["anonymize", "--model", "gl", "--m", "0", "--input", "x", "--out", "y"][..],
            &["anonymize", "--model", "gl", "--m", &too_big_m, "--input", "x", "--out", "y"],
            &["gen", "--size", "0", "--out", "never-written.csv"],
            &["gen", "--len", "0", "--out", "never-written.csv"],
            &["gen", "--len", "1", "--out", "never-written.csv"],
        ] {
            let err = run(&a(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 2, "{args:?}");
        }
    }

    #[test]
    fn cli_seeds_keep_the_full_u64_range() {
        // The 2^53 cap is a JSON-transit rule; a flag carries any u64.
        let dir = std::env::temp_dir().join("trajdp-cli-seed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let private = dir.join("private.csv");
        let release = dir.join("release.csv");
        let (p, r) = (private.to_str().unwrap(), release.to_str().unwrap());
        let max = u64::MAX.to_string();
        run(&a(&["gen", "--size", "4", "--len", "20", "--seed", &max, "--out", p])).unwrap();
        run(&a(&[
            "anonymize",
            "--model",
            "purel",
            "--m",
            "2",
            "--seed",
            &max,
            "--input",
            p,
            "--out",
            r,
        ]))
        .unwrap();
        assert_eq!(load(r).unwrap().len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
