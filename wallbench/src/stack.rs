//! The system under test as the benchmark sees it: child processes of
//! the real `routeserver` and `ris` binaries, reached only through
//! their sockets and `/proc/<pid>`.

use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rnl_server::json::Json;

/// How long any single wait on the stack may take before the run fails.
pub const PATIENCE: Duration = Duration::from_secs(10);

/// A child process that is killed and reaped when dropped, so no exit
/// path of the benchmark — early return, `?`, or a panic unwinding —
/// leaves a server behind to poison the next run.
pub struct Proc {
    name: String,
    child: Child,
}

impl Proc {
    /// Spawn `bin` with `args`, stdout discarded and stderr captured to
    /// `log`.
    pub fn spawn(name: &str, bin: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
        let stderr = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Proc {
            name: name.to_string(),
            child,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `Err` if the child has already exited: during a run that is a
    /// failure of the system under test, never a result.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("{} exited early: {status}", self.name)),
            Err(e) => Err(format!("{}: wait failed: {e}", self.name)),
        }
    }

    /// CPU time the process has consumed, all threads, in ns. Reads the
    /// scheduler's per-task run time (`schedstat`, ns resolution); the
    /// 10 ms ticks of `stat` are too coarse for a 2 % idle burn.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
        let mut total = 0u64;
        for task in tasks.flatten() {
            // A thread may exit between readdir and read; its time is
            // then simply no longer part of the sum.
            if let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) {
                total += text
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| format!("{dir}: unreadable schedstat {text:?}"))?;
            }
        }
        Ok(total)
    }

    /// One numeric field of `/proc/<pid>/status` (`VmRSS`,
    /// `voluntary_ctxt_switches`, …) for the main thread.
    pub fn status_field(&self, key: &str) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| format!("{path}: no field {key}"))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Remove a directory tree if it is there: no run may recover, replay
/// or append to what another run left behind.
pub fn wipe(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("wipe {}: {e}", dir.display())),
    }
}

/// An ephemeral loopback port that was free a moment ago. The binaries
/// take fixed port numbers, so the harness picks them; two benchmark
/// runs on one host then never collide on a well-known port.
pub fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    Ok(listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .port())
}

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// A running `routeserver` child.
pub struct Server {
    pub proc: Proc,
    pub ris_addr: SocketAddr,
    pub api_addr: SocketAddr,
    pub metrics_addr: SocketAddr,
}

impl Server {
    /// Spawn the binary on three fresh ports and wait until all three
    /// accept connections. With `state_dir` the journal is on (fsync
    /// on every append, the binary's default); the directory is wiped
    /// first so no run recovers another run's state.
    pub fn spawn(
        bin_dir: &Path,
        out_dir: &Path,
        state_dir: Option<&Path>,
    ) -> Result<Server, String> {
        let (ris, api, metrics) = (free_port()?, free_port()?, free_port()?);
        let mut args: Vec<String> = [
            ("--ris-port", ris),
            ("--api-port", api),
            ("--metrics-port", metrics),
        ]
        .iter()
        .flat_map(|(flag, port)| [flag.to_string(), port.to_string()])
        .collect();
        if let Some(dir) = state_dir {
            wipe(dir)?;
            args.push("--state-dir".to_string());
            args.push(dir.display().to_string());
        }
        let proc = Proc::spawn(
            "routeserver",
            &bin_dir.join("routeserver"),
            &args,
            &out_dir.join("routeserver.log"),
        )?;
        let mut server = Server {
            proc,
            ris_addr: loopback(ris),
            api_addr: loopback(api),
            metrics_addr: loopback(metrics),
        };
        // The metrics listener binds last (after recovery), so once it
        // answers the other two are up as well.
        let deadline = Instant::now() + PATIENCE;
        while TcpStream::connect(server.metrics_addr).is_err() {
            server.proc.check_alive()?;
            if Instant::now() > deadline {
                return Err("routeserver did not open its ports in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(server)
    }

    /// Scrape the Prometheus page and return the value of every sample
    /// line whose series (name plus labels) starts with `prefix`, summed.
    /// Read-only: counts, not speeds.
    pub fn scrape_sum(&self, prefix: &str) -> Result<f64, String> {
        let mut stream =
            TcpStream::connect(self.metrics_addr).map_err(|e| format!("metrics port: {e}"))?;
        // A silent connection gets the page only after the server's
        // 50 ms sniff timeout; "GET" skips the wait. Exactly the four
        // bytes the server reads: anything left unread in its socket
        // would turn its close into a reset.
        stream
            .write_all(b"GET ")
            .map_err(|e| format!("metrics request: {e}"))?;
        let mut page = String::new();
        stream
            .read_to_string(&mut page)
            .map_err(|e| format!("metrics page: {e}"))?;
        Ok(page
            .lines()
            .filter(|l| l.starts_with(prefix))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum())
    }
}

/// One host a `ris` child should front.
pub struct HostSpec {
    pub name: String,
    pub cidr: String,
}

/// Write a RIS configuration file (the format of
/// `crates/ris/src/config.rs`) and spawn the `ris` binary on it.
pub fn spawn_ris(
    bin_dir: &Path,
    out_dir: &Path,
    pc_name: &str,
    server: SocketAddr,
    hosts: &[HostSpec],
) -> Result<Proc, String> {
    let mut conf = format!("pc-name {pc_name}\nserver {server}\ncompression off\n");
    for h in hosts {
        conf.push_str(&format!(
            "device host {} ip={} desc=\"{}\"\n",
            h.name, h.cidr, h.name
        ));
    }
    let path: PathBuf = out_dir.join(format!("{pc_name}.conf"));
    std::fs::write(&path, conf).map_err(|e| format!("write {}: {e}", path.display()))?;
    Proc::spawn(
        pc_name,
        &bin_dir.join("ris"),
        &[path.display().to_string()],
        &out_dir.join(format!("{pc_name}.log")),
    )
}

/// The one API connection: newline-delimited JSON, `TCP_NODELAY`, one
/// `write` per request, non-blocking so the single generator thread can
/// keep polling its RISes while a reply is outstanding.
pub struct Api {
    stream: TcpStream,
    inbuf: Vec<u8>,
    chunk: Box<[u8; 16 * 1024]>,
}

impl Api {
    pub fn connect(addr: SocketAddr) -> Result<Api, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("API port: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Api {
            stream,
            inbuf: Vec::new(),
            chunk: Box::new([0; 16 * 1024]),
        })
    }

    /// Send one request line. Requests are far smaller than the socket
    /// buffer, so a short write means the connection is broken.
    pub fn send(&mut self, request: &Json) -> Result<(), String> {
        let mut line = request.encode();
        line.push('\n');
        match self.stream.write(line.as_bytes()) {
            Ok(n) if n == line.len() => Ok(()),
            Ok(n) => Err(format!("API request truncated at {n}/{} bytes", line.len())),
            Err(e) => Err(format!("API send: {e}")),
        }
    }

    /// The next complete reply line, if one has arrived — unparsed: the
    /// generator thread is also the site PCs of the probe wire, and
    /// parsing a 50 KB `get_metrics` reply between two polls would make
    /// the frames due meanwhile late.
    pub fn poll(&mut self) -> Result<Option<String>, String> {
        loop {
            match self.stream.read(&mut self.chunk[..]) {
                Ok(0) => return Err("API connection closed by the server".to_string()),
                Ok(n) => self.inbuf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("API read: {e}")),
            }
        }
        let Some(end) = self.inbuf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let mut line: Vec<u8> = self.inbuf.drain(..=end).collect();
        line.pop();
        String::from_utf8(line)
            .map(Some)
            .map_err(|e| format!("API reply is not UTF-8: {e}"))
    }
}

/// `true` when a reply line carries `"ok":true`. The server encodes
/// compactly and escapes quotes inside strings, so the bare byte
/// sequence can only be the top-level key.
pub fn reply_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// Parse a reply line.
pub fn parse_reply(reply: &str) -> Result<Json, String> {
    Json::parse(reply).map_err(|e| format!("API reply is not JSON ({e}): {reply}"))
}

/// Shorthand for a request object.
pub fn req<const N: usize>(op: &str, fields: [(&'static str, Json); N]) -> Json {
    Json::obj(
        std::iter::once(("op", Json::str(op)))
            .chain(fields)
            .collect::<Vec<_>>(),
    )
}

/// What identifies the machine a result was measured on.
pub fn host_fingerprint() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u32);
    Json::obj([
        ("nproc", Json::num(nproc)),
        (
            "kernel",
            Json::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("cpu_model", Json::str(cpu)),
        ("rustc", Json::str(rustc)),
        ("link", Json::str("loopback TCP (no real link is measured)")),
    ])
}
