//! Building and running the release `trajdp serve` process.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};

/// Builds the release `trajdp` binary of the repository rooted at the
/// current directory and returns its path. Cargo's own freshness check
/// makes this a no-op after the first run in a checkout.
pub fn build_trajdp() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/server").is_dir() {
        return Err("run from the repository root: no Cargo.toml / crates/server here".into());
    }
    let target_dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "trajdp", "--target-dir"])
        .arg(&target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building trajdp failed ({status})"));
    }
    let bin = target_dir.join("release").join("trajdp");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

extern "C" {
    // glibc: int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every process it spawns from now
/// on, to one CPU.
///
/// The client and the server then share that CPU. On a small shared VM
/// the host steals CPU time from a vCPU that wakes from idle, so a
/// request handed between two vCPUs waits for the host on every hop:
/// on a 2-vCPU Xeon VM, unpinned `control` ran at 160–880 ops/s from
/// one run to the next, pinned at 720–880 ops/s in the same period.
/// The price is that this benchmark does not measure parallel speed-ups.
pub fn pin_to_cpu(cpu: usize) -> Result<(), String> {
    // glibc's cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return Err(format!("cpu {cpu} is beyond the affinity mask"));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly the size
    // passed, which the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity({cpu}): {}", std::io::Error::last_os_error()))
    }
}

/// A running `trajdp serve`, killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    /// Kept open (and unread) so the server never writes into a closed
    /// pipe; with logging off it writes nothing after its banner.
    _stderr: BufReader<ChildStderr>,
}

impl ServerProc {
    /// Spawns `bin serve` on an ephemeral loopback port with a fresh
    /// durable state directory, and returns once it listens (the banner
    /// is printed after the bind).
    pub fn spawn(bin: &Path, state_dir: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--state-dir"])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let mut banner = String::new();
        let read = stderr.read_line(&mut banner);
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc { child, addr, _stderr: stderr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start: {read:?} {banner:?}"))
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
