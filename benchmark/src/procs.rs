//! Child processes (the real `chatpattern-serve` / `chatpattern-router`
//! binaries) and the harness's own minimal NDJSON line client.
//!
//! Children bind port 0 and are awaited on their `listening on` stderr
//! line — no sleeps. A [`Server`] kills and reaps its whole process
//! group when dropped, so no exit path (error return, panic unwind)
//! leaves a worker behind.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Directory of the release binaries: the harness is built into the
/// same target directory as the product binaries it drives.
fn bin_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "the harness executable has no parent directory".to_owned())
}

/// A running serve or router process and everything it spawned.
pub struct Server {
    child: Child,
    pub addr: String,
    /// Spawn → `listening on`, milliseconds.
    pub listen_ms: f64,
    /// Kept alive so the child's stderr pipe never fills or breaks.
    drain: Option<std::thread::JoinHandle<()>>,
    /// A control line that makes the process stop (and reap) its own
    /// children and exit: the router's `Shutdown`.
    goodbye: Option<&'static str>,
}

impl Server {
    /// Spawns `bin args…` in its own process group and waits for the
    /// line `<bin>: listening on ADDR` on its stderr.
    pub fn spawn(
        bin: &str,
        args: &[String],
        goodbye: Option<&'static str>,
    ) -> Result<Server, String> {
        let path = bin_dir()?.join(bin);
        let started = Instant::now();
        let mut child = Command::new(&path)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", path.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut lines = BufReader::new(stderr).lines();
        let marker = format!("{bin}: listening on ");
        let mut seen = Vec::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = line.strip_prefix(&marker) {
                        break addr.trim().to_owned();
                    }
                    seen.push(line);
                }
                _ => {
                    let mut server = Server {
                        child,
                        addr: String::new(),
                        listen_ms: 0.0,
                        drain: None,
                        goodbye: None,
                    };
                    server.stop();
                    return Err(format!(
                        "{bin} exited before announcing its address: {}",
                        seen.join(" | ")
                    ));
                }
            }
        };
        let listen_ms = started.elapsed().as_secs_f64() * 1e3;
        let drain = std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Ok(Server {
            child,
            addr,
            listen_ms,
            drain: Some(drain),
            goodbye,
        })
    }

    /// Pids of this server and of every process it spawned (the
    /// router's workers share its process group).
    pub fn pids(&self) -> Vec<u32> {
        let group = self.child.id();
        let mut pids = vec![group];
        let Ok(entries) = std::fs::read_dir("/proc") else {
            return pids;
        };
        for entry in entries.filter_map(Result::ok) {
            let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue;
            };
            if pid != group && process_group(pid) == Some(group) {
                pids.push(pid);
            }
        }
        pids
    }

    /// Peak resident set (MiB) summed over the server's processes.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids()
            .iter()
            .filter_map(|&pid| status_kb(&format!("/proc/{pid}/status"), "VmHWM:"))
            .sum::<f64>()
            / 1024.0
    }

    /// Live threads summed over the server's processes.
    pub fn threads(&self) -> f64 {
        self.pids()
            .iter()
            .filter_map(|&pid| status_kb(&format!("/proc/{pid}/status"), "Threads:"))
            .sum()
    }

    /// Stops the server: the polite way first where there is one (so
    /// a router reaps its own workers instead of orphaning them), then
    /// SIGKILL to the whole process group; reaps the child. Idempotent.
    pub fn stop(&mut self) {
        if let Some(line) = self.goodbye.take() {
            if let Ok(mut client) = LineClient::connect(&self.addr) {
                let _ = client.send(line);
                let patience = Instant::now() + Duration::from_secs(5);
                while Instant::now() < patience && matches!(self.child.try_wait(), Ok(None)) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        // SIGKILL to the negative pid reaches the router's workers
        // too; `kill(1)` keeps the harness free of `unsafe` FFI.
        let _ = Command::new("kill")
            .args(["-9", "--", &format!("-{}", self.child.id())])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Process group of `pid`, from `/proc/<pid>/stat`.
fn process_group(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; after its closing ')' the
    // fields are: state, ppid, pgrp, …
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(2)?.parse().ok()
}

/// A `Key:   value kB` line of a `/proc/.../status` file.
fn status_kb(path: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(path).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of the harness process itself, MiB.
pub fn own_peak_rss_mb() -> f64 {
    status_kb("/proc/self/status", "VmHWM:").unwrap_or(0.0) / 1024.0
}

/// The harness's line client: one `TcpStream`, one request per line,
/// one reply per line. Deliberately not `cp_net`'s client — the load
/// generator must not change when the product's client does.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    pub fn connect(addr: &str) -> Result<LineClient, String> {
        let writer =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .and_then(|()| writer.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("cannot configure the socket: {e}"))?;
        let reader = BufReader::with_capacity(
            1 << 16,
            writer
                .try_clone()
                .map_err(|e| format!("cannot clone the socket: {e}"))?,
        );
        Ok(LineClient { writer, reader })
    }

    /// Sends one request; `line` already ends in its newline, so a
    /// request is one `write` (and, with `TCP_NODELAY`, not two
    /// packets).
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        debug_assert!(line.ends_with('\n'));
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))
    }

    /// Blocks for the next reply line (without its newline).
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the server closed the connection".to_owned()),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    pub fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}
