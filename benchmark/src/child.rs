//! The `fidr serve` child process, and CPU placement.
//!
//! The server runs under a small `sh` watchdog that holds a pipe from the
//! harness: the pipe closes on *every* way the harness can end — normal
//! return, failed check, panic, SIGINT, SIGKILL — and the watchdog then
//! kills and reaps the server. No exit path leaves a server behind, and
//! the harness needs no signal handler (and so no `unsafe`).

use crate::procfs;
use fidr::client::{read_port_file, ClientError, StorageClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

/// Set in the environment of the re-executed, pinned harness.
const PINNED_ENV: &str = "FIDR_BENCH_PINNED_CPU";

/// `$@` is the server command line. Prints the server's pid, then blocks
/// on stdin until the harness closes it (or dies). Signals aimed at the
/// whole process group (Ctrl-C) must not take the watchdog down before it
/// has done its job, so it ignores them and waits for the pipe.
const WATCHDOG: &str = r#"trap '' INT TERM HUP QUIT; "$@" >/dev/null & pid=$!; echo "$pid"; read -r _; kill -KILL "$pid" 2>/dev/null; wait "$pid" 2>/dev/null; exit 0"#;

/// Pins the harness to the first CPU it is allowed on by re-executing
/// itself under `taskset`; the server is later started on the same CPU.
/// A client ↔ server ping-pong that crosses vCPUs pays a halted-vCPU
/// wake-up per op (~50 µs against ~10 µs on a shared CPU), and the
/// scheduler flips between the two placements mid-run, so one shared CPU
/// is the only placement that repeats.
///
/// Returns the CPU both sides share, or `None` (unpinned) when `taskset`
/// is missing or refuses.
pub fn pin_self() -> Option<usize> {
    let allowed = procfs::allowed_cpus();
    if let Some(cpu) = std::env::var(PINNED_ENV).ok().and_then(|v| v.parse().ok()) {
        // Second pass: check that taskset did what it was asked.
        return (allowed == [cpu]).then_some(cpu);
    }
    let cpu = *allowed.first()?;
    let exe = std::env::current_exe().ok()?;
    // exec only returns on failure.
    let err = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, cpu.to_string())
        .exec();
    eprintln!("warning: cannot pin to cpu {cpu} ({err}); running unpinned");
    None
}

/// A running `fidr serve`, killed and reaped when dropped.
pub struct ServerProc {
    watchdog: Child,
    /// Closing this is what stops the server.
    hold: Option<ChildStdin>,
    port_file: PathBuf,
    /// The server's own pid (not the watchdog's).
    pub pid: u32,
    /// The address it listens on.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `bin serve --port 0 --sample-ms 0 --workers 1
    /// [--gc-every N]` on `cpu` (if pinned) and waits for its port file
    /// under `out_dir`.
    pub fn spawn(
        bin: &Path,
        cpu: Option<usize>,
        gc_every: u64,
        out_dir: &Path,
    ) -> std::io::Result<ServerProc> {
        let port_file = out_dir.join(format!("server-{}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(WATCHDOG).arg("fidr-watchdog");
        if let Some(cpu) = cpu {
            cmd.args(["taskset", "-c", &cpu.to_string()]);
        }
        cmd.arg(bin)
            .args(["serve", "--port", "0", "--sample-ms", "0", "--workers", "1"])
            .arg("--port-file")
            .arg(&port_file);
        if gc_every > 0 {
            cmd.args(["--gc-every", &gc_every.to_string()]);
        }
        let mut watchdog = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let hold = watchdog.stdin.take();
        // From here on, dropping `server` stops everything.
        let mut server = ServerProc {
            watchdog,
            hold,
            port_file,
            pid: 0,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stdout = server.watchdog.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        server.pid = line
            .trim()
            .parse()
            .map_err(|_| std::io::Error::other(format!("watchdog printed {line:?}, not a pid")))?;
        server.addr = read_port_file(&server.port_file, Duration::from_secs(10))?;
        Ok(server)
    }

    /// Opens a client connection to the server.
    pub fn connect(&self) -> Result<StorageClient, ClientError> {
        StorageClient::connect(self.addr)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        drop(self.hold.take());
        let _ = self.watchdog.wait();
        let _ = std::fs::remove_file(&self.port_file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_watchdog_kills_its_child_when_the_pipe_closes() {
        let mut cmd = Command::new("sh");
        cmd.arg("-c")
            .arg(WATCHDOG)
            .arg("fidr-watchdog")
            .args(["sleep", "600"]);
        let mut watchdog = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut line = String::new();
        BufReader::new(watchdog.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let pid: u32 = line.trim().parse().unwrap();
        assert!(Path::new(&format!("/proc/{pid}")).exists());
        drop(watchdog.stdin.take());
        assert!(watchdog.wait().unwrap().success());
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "child {pid} outlived the watchdog"
        );
    }
}
