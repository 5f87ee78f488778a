//! The `shard_router` processes the serving workloads talk to.
//!
//! Children live by the stdin-EOF protocol of `shard_router`: the
//! benchmark holds each child's stdin pipe and closes it to stop the
//! child, then waits for it (a router stops its own workers on the way
//! out). Dropping a [`ServerProc`] that was not stopped kills it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use restore_serve::{ClientConfig, HttpClient};

use crate::procfs;

/// How long a child may take to print its address or to exit.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// The `shard_router` binary built next to this benchmark.
pub fn shard_router_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = exe.with_file_name("shard_router");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build it with the benchmark",
            path.display()
        ))
    }
}

pub struct ServerProc {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Kept open so a late write to stdout never fails in the child.
    _stdout: Option<BufReader<ChildStdout>>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl ServerProc {
    /// Spawns a single worker serving every tenant under `snapshot_dir`
    /// with `threads` request-execution threads.
    pub fn worker(snapshot_dir: &Path, threads: usize) -> Result<Self, String> {
        Self::spawn(&[
            "--worker",
            "--snapshot-dir",
            &snapshot_dir.display().to_string(),
            "--addr",
            "127.0.0.1:0",
            "--worker-threads",
            &threads.to_string(),
        ])
    }

    /// Spawns a router in front of `shards` worker processes.
    pub fn router(snapshot_dir: &Path, shards: usize) -> Result<Self, String> {
        Self::spawn(&[
            "--snapshot-dir",
            &snapshot_dir.display().to_string(),
            "--shards",
            &shards.to_string(),
            "--addr",
            "127.0.0.1:0",
        ])
    }

    fn spawn(args: &[&str]) -> Result<Self, String> {
        let program = shard_router_path()?;
        let mut child = Command::new(&program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let pid = child.id();
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        // Read the "listening on ADDR" line off-thread so a child that
        // never prints cannot hang the benchmark.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            let mut line = String::new();
            let read = out.read_line(&mut line);
            let _ = tx.send(read.map(|_| line));
            out
        });
        let mut proc = Self {
            child: Some(child),
            stdin,
            _stdout: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pid,
        };
        let line = match rx.recv_timeout(CHILD_TIMEOUT) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => return Err(format!("shard_router {args:?}: reading stdout: {e}")),
            Err(_) => return Err(format!("shard_router {args:?} printed no address")),
        };
        proc._stdout = Some(reader.join().expect("stdout reader panicked"));
        proc.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("shard_router {args:?}: no address in {line:?}"))?;
        Ok(proc)
    }

    /// Pids of the processes serving: this one and its children.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.pid];
        pids.extend(procfs::children(self.pid));
        pids
    }

    /// A keep-alive client connection to this server.
    pub fn connect(&self) -> Result<HttpClient, String> {
        connect(self.addr)
    }

    /// Closes stdin and waits for the child and every child of its own to
    /// exit; kills whatever outlives the timeout.
    pub fn stop(mut self) -> Result<(), String> {
        let descendants = procfs::children(self.pid);
        self.stdin = None;
        let mut child = self.child.take().expect("child present until stopped");
        let deadline = Instant::now() + CHILD_TIMEOUT;
        let mut result = Ok(());
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    result = Err(format!(
                        "shard_router {} did not exit on stdin EOF",
                        self.pid
                    ));
                    break;
                }
            }
        }
        while descendants.iter().any(|&p| procfs::alive(p)) {
            if Instant::now() > deadline {
                return Err(format!("workers {descendants:?} outlived their router"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        result
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            self.stdin = None;
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

pub fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
    HttpClient::connect_with(
        addr,
        ClientConfig {
            read_timeout: Duration::from_secs(60),
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("connect {addr}: {e}"))
}

/// Copies a snapshot directory tree (tenant directories of version files).
pub fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
