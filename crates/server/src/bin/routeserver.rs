//! The deployable back end: the process that would run at
//! `netlabs.accenture.com`.
//!
//! Two listening sockets:
//!
//! * `--ris-port` (default 4510) — RIS tunnel sessions. Interface PCs
//!   dial in, register their equipment, and enter packet-forwarding
//!   mode.
//! * `--api-port` (default 4511) — the web-services API. Each connection
//!   sends newline-delimited JSON requests (the `rnl_server::web` wire
//!   format) and receives one JSON reply line per request — the surface
//!   an HTTP/browser front end would wrap.
//! * `--metrics-port` (default 4512) — Prometheus-style text exposition.
//!   Any connection (an HTTP GET or a bare `nc`) receives the current
//!   snapshot of every `rnl_*` metric and the connection closes.
//!
//! With `--state-dir PATH` the server is crash-safe: every state
//! mutation is journaled to `PATH/journal.rnl` and compacted into
//! `PATH/snapshot.rnl` every `--snapshot-every` seconds. On boot the
//! server replays snapshot + tail, then waits out the grace window for
//! RIS boxes to redial and re-adopt their recovered deployments.
//!
//! With `--shards N` (N > 1) the process runs a federation of N route
//! servers instead of one: RIS sessions balance round-robin across the
//! live shards, cross-shard wires relay over supervised in-process
//! trunks, API requests route through the sharded front tier, and each
//! shard journals to its own `PATH/shard-<k>/` — a shard whose journal
//! fails is killed and recovered in place while its siblings serve.
//! Spanning deployments go to the federation's own log in
//! `PATH/federation/`; a failed write there fail-stops the process.
//! The shards run the default overload policy, fsync policy and
//! snapshot interval, so `--hwm`, `--op-deadline`, `--fsync-every` and
//! `--snapshot-every` are refused together with `--shards N > 1`.
//!
//! With `--mesh` the server negotiates a direct peer path for every
//! deployed cross-session wire (each endpoint gets the peer's pc-name
//! plus an epoch-scoped secret) so the data plane skips the relay while
//! the paths stay healthy; a per-path supervisor on each RIS falls back
//! to the relay within a bounded window when the path dies and fails
//! back when it heals. Can also be toggled at runtime via the
//! `set_mesh` web op.
//!
//! ```text
//! cargo run -p rnl-server --bin routeserver -- --ris-port 4510 --api-port 4511
//! ```
//!
//! Virtual time maps 1:1 to wall time in this process.
//!
//! The core loop (one server or a federation, same loop) is
//! single-threaded and readiness-driven: between polls it blocks in
//! [`rnl_tunnel::wait`] on every live session socket plus a waker the
//! acceptor and API threads poke, so a frame or a request is handled
//! when it arrives. Timer work — heartbeat ageing, grace expiry,
//! snapshots, the traffic generator — runs off the wait's [`TICK`]
//! timeout.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Instant as WallInstant;

use rnl_net::time::Instant;
use rnl_server::journal::{FileJournal, FsyncPolicy};
use rnl_server::overload::OverloadConfig;
use rnl_server::{web, RouteServer};
use rnl_tunnel::transport::TcpTransport;
use rnl_tunnel::wait::{wait, PollFd, Waker};

/// Longest the core loop blocks with nothing ready: the period of its
/// timer work, and poll(2)'s granularity.
const TICK: std::time::Duration = std::time::Duration::from_millis(1);

enum Event {
    RisSession(TcpStream),
    ApiRequest {
        line: String,
        reply: mpsc::Sender<String>,
    },
}

/// The acceptor/API threads' end of the core loop's inbox: queue the
/// event, then wake the loop out of its wait.
#[derive(Clone)]
struct Inbox {
    tx: mpsc::Sender<Event>,
    waker: Arc<Waker>,
}

impl Inbox {
    /// `false` once the core loop is gone.
    fn send(&self, event: Event) -> bool {
        let sent = self.tx.send(event).is_ok();
        self.waker.wake();
        sent
    }
}

/// The core loop's end: the one place either server style blocks.
struct CoreLoop {
    rx: mpsc::Receiver<Event>,
    waker: Arc<Waker>,
    fds: Vec<PollFd>,
}

impl CoreLoop {
    fn new() -> (Inbox, CoreLoop) {
        let (tx, rx) = mpsc::channel();
        let waker = Arc::new(Waker::new().expect("create the core loop's waker"));
        let inbox = Inbox {
            tx,
            waker: Arc::clone(&waker),
        };
        let fds = Vec::new();
        (inbox, CoreLoop { rx, waker, fds })
    }

    /// Block until a session socket (`session_fds` appends them) is
    /// ready, an [`Inbox`] is poked or [`TICK`] elapses, then hand back
    /// the events queued meanwhile. The caller handles them and polls.
    fn wait(&mut self, session_fds: impl FnOnce(&mut Vec<PollFd>)) -> mpsc::TryIter<'_, Event> {
        self.fds.clear();
        self.fds.push(self.waker.poll_fd());
        session_fds(&mut self.fds);
        wait(&mut self.fds, TICK);
        // Drain before reading the queue: a poke that lands after this
        // line stays pending and cuts the next wait short, so an event
        // is never left sitting behind a full tick.
        self.waker.drain();
        self.rx.try_iter()
    }
}

fn main() {
    let mut ris_port = 4510u16;
    let mut api_port = 4511u16;
    let mut metrics_port = 4512u16;
    let mut grace_secs = rnl_server::DEFAULT_GRACE_WINDOW.as_secs();
    let mut state_dir: Option<String> = None;
    let mut snapshot_secs = rnl_server::DEFAULT_SNAPSHOT_EVERY.as_secs();
    let mut overload = OverloadConfig::default();
    let mut fsync_policy = FsyncPolicy::EveryAppend;
    let mut shards = 1usize;
    let mut mesh = false;
    // Single-server flags the sharded loop does not apply.
    let mut single_only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if matches!(
            arg.as_str(),
            "--hwm" | "--op-deadline" | "--fsync-every" | "--snapshot-every"
        ) {
            single_only.push(arg.clone());
        }
        match arg.as_str() {
            "--mesh" => mesh = true,
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage("--shards needs a count >= 1"));
            }
            "--ris-port" => {
                ris_port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--ris-port needs a number"));
            }
            "--api-port" => {
                api_port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--api-port needs a number"));
            }
            "--metrics-port" => {
                metrics_port = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--metrics-port needs a number"));
            }
            "--grace-window" => {
                grace_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--grace-window needs seconds"));
            }
            "--state-dir" => {
                state_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--state-dir needs a path")),
                );
            }
            "--snapshot-every" => {
                snapshot_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--snapshot-every needs seconds"));
            }
            "--hwm" => {
                let tokens: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--hwm needs a token count"));
                // The refill rate tracks the mark: a server provisioned
                // for N ops of burst sustains N ops/s.
                overload.capacity = tokens;
                overload.refill_per_sec = tokens;
            }
            "--op-deadline" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--op-deadline needs seconds"));
                overload.op_deadline = rnl_net::time::Duration::from_secs(secs);
            }
            "--fsync-every" => {
                fsync_policy = match args.next().as_deref() {
                    Some("append") => FsyncPolicy::EveryAppend,
                    Some("poll") => FsyncPolicy::GroupCommit,
                    _ => usage("--fsync-every needs \"append\" or \"poll\""),
                };
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if shards > 1 {
        if let Some(flag) = single_only.first() {
            usage(&format!(
                "{flag} is not applied by --shards {shards}; drop it or run one server"
            ));
        }
    }

    let start = WallInstant::now();
    let now = move || Instant::from_micros(start.elapsed().as_micros() as u64);

    let (inbox, mut core) = CoreLoop::new();

    // Acceptor: RIS tunnel sessions.
    let ris_listener = TcpListener::bind(("0.0.0.0", ris_port)).expect("bind RIS port");
    eprintln!("routeserver: RIS sessions on :{ris_port}");
    {
        let inbox = inbox.clone();
        std::thread::spawn(move || {
            for stream in ris_listener.incoming().flatten() {
                if !inbox.send(Event::RisSession(stream)) {
                    return;
                }
            }
        });
    }

    // Acceptor: API connections (one thread per client; line-oriented).
    let api_listener = TcpListener::bind(("0.0.0.0", api_port)).expect("bind API port");
    eprintln!("routeserver: web-services API on :{api_port}");
    std::thread::spawn(move || {
        for stream in api_listener.incoming().flatten() {
            let inbox = inbox.clone();
            std::thread::spawn(move || serve_api_client(stream, inbox));
        }
    });

    if shards > 1 {
        run_sharded(shards, state_dir, grace_secs, mesh, metrics_port, core, now);
    }

    // The single-threaded core loop: sessions, relay, API dispatch.
    // With --state-dir the server always boots through recovery: on an
    // empty directory that is a fresh start with a journal installed;
    // after a crash it replays snapshot + tail back to the pre-crash
    // state and waits out the grace window for RIS boxes to redial.
    let mut server = match &state_dir {
        Some(dir) => {
            let mut wal = FileJournal::open(dir).unwrap_or_else(|e| {
                eprintln!("routeserver: cannot open state dir {dir}: {e}");
                std::process::exit(2);
            });
            wal.set_fsync_policy(fsync_policy);
            if fsync_policy == FsyncPolicy::GroupCommit {
                eprintln!("routeserver: group-commit fsync (one sync per poll)");
            }
            let server = RouteServer::recover(Box::new(wal), now()).unwrap_or_else(|e| {
                eprintln!("routeserver: recovery from {dir} failed: {e}");
                std::process::exit(2);
            });
            let snap = server.obs().snapshot();
            eprintln!(
                "routeserver: durable state in {dir} (replayed {} journal records, {} torn)",
                snap.counter("rnl_server_journal_replayed_total", &[]),
                snap.counter("rnl_server_journal_torn_total", &[]),
            );
            server
        }
        None => RouteServer::new(),
    };
    server.set_snapshot_every(rnl_net::time::Duration::from_secs(snapshot_secs));
    server.set_grace_window(rnl_net::time::Duration::from_secs(grace_secs));
    server.set_overload_config(overload, now());
    if mesh {
        server.set_mesh_enabled(true);
        eprintln!("routeserver: mesh on (cross-session wires get direct peer paths)");
    }
    eprintln!("routeserver: session flap grace window {grace_secs}s");
    eprintln!(
        "routeserver: admission control: hwm {} tokens, op deadline {}s",
        overload.capacity,
        overload.op_deadline.as_micros() / 1_000_000
    );

    // Metrics exposition: the registry clone shares storage with the
    // server's, so this thread serves live values without touching the
    // core loop.
    let registry = server.obs().clone();
    let metrics_listener = TcpListener::bind(("0.0.0.0", metrics_port)).expect("bind metrics port");
    eprintln!("routeserver: metrics exposition on :{metrics_port}");
    std::thread::spawn(move || {
        for stream in metrics_listener.incoming().flatten() {
            serve_metrics_client(stream, &registry);
        }
    });

    loop {
        for event in core.wait(|fds| server.wait_fds(fds)) {
            match event {
                Event::RisSession(stream) => match TcpTransport::from_stream(stream) {
                    Ok(transport) => {
                        let sid = server.attach(Box::new(transport));
                        eprintln!("routeserver: RIS session {sid:?} attached");
                    }
                    Err(e) => eprintln!("routeserver: bad session: {e}"),
                },
                Event::ApiRequest { line, reply } => {
                    let response = web::handle_json(&mut server, &line, now());
                    let _ = reply.send(response);
                }
            }
        }
        server.poll(now());
        if server.crashed() {
            // The journal could not record a mutation: fail-stop rather
            // than keep serving state that would be lost on restart.
            // The supervisor (systemd, a wrapper script) restarts us
            // and recovery replays to the last durable point.
            eprintln!("routeserver: journal write failed; fail-stopping (restart to recover)");
            std::process::exit(1);
        }
    }
}

/// The `--shards N` core loop: a route-server federation behind the
/// same three sockets. RIS sessions are balanced round-robin across the
/// live shards (router-id ownership follows the registering shard's id
/// range, so cross-shard wires ride the supervised trunks); API
/// requests go through the sharded front tier; a shard whose journal
/// fails is killed in place and journal-recovered while its siblings
/// keep serving. Only a failed federation-log write fail-stops the
/// whole process.
fn run_sharded(
    n: usize,
    state_dir: Option<String>,
    grace_secs: u64,
    mesh: bool,
    metrics_port: u16,
    mut core: CoreLoop,
    now: impl Fn() -> Instant,
) -> ! {
    use rnl_server::shard::Federation;

    let mut fed = Federation::new(n, 0x5eed);
    fed.set_grace_window(rnl_net::time::Duration::from_secs(grace_secs));
    if mesh {
        // Mesh negotiation is per shard: wires whose two sessions landed
        // on the same shard get direct paths; cross-shard wires stay on
        // the supervised trunks.
        for k in 0..n {
            if let Ok(server) = fed.server_mut(k) {
                server.set_mesh_enabled(true);
            }
        }
        eprintln!("routeserver: mesh on (same-shard cross-session wires get direct peer paths)");
    }
    if let Some(dir) = &state_dir {
        if let Err(e) = fed.enable_file_durability(dir.clone(), now()) {
            eprintln!("routeserver: cannot open sharded state dir {dir}: {e}");
            std::process::exit(2);
        }
        eprintln!("routeserver: durable shard state under {dir}/shard-<k>/ and {dir}/federation/");
    }
    eprintln!("routeserver: federation of {n} shards; session flap grace window {grace_secs}s");

    // One exposition page for the whole federation: per-shard server
    // series tagged `shard="k"` merged with the federation's own. The
    // core loop refreshes the shared snapshot; the scrape thread only
    // renders it, so it never touches federation state.
    let exposition = std::sync::Arc::new(std::sync::Mutex::new(fed.metrics_snapshot()));
    let metrics_listener = TcpListener::bind(("0.0.0.0", metrics_port)).expect("bind metrics port");
    eprintln!("routeserver: metrics exposition on :{metrics_port}");
    {
        let exposition = std::sync::Arc::clone(&exposition);
        std::thread::spawn(move || {
            for stream in metrics_listener.incoming().flatten() {
                let body = match exposition.lock() {
                    Ok(snap) => rnl_obs::render_prometheus(&snap),
                    Err(_) => String::new(),
                };
                serve_metrics_body(stream, &body);
            }
        });
    }

    let mut next_shard = 0usize;
    let mut last_snapshot = now();
    loop {
        for event in core.wait(|fds| fed.wait_fds(fds)) {
            match event {
                Event::RisSession(stream) => match TcpTransport::from_stream(stream) {
                    Ok(transport) => {
                        let shard = (0..n).map(|i| (next_shard + i) % n).find(|&k| fed.is_up(k));
                        next_shard = next_shard.wrapping_add(1);
                        match shard {
                            Some(k) => match fed.attach_to(k, Box::new(transport)) {
                                Ok(sid) => eprintln!(
                                    "routeserver: RIS session {sid:?} attached to shard {k}"
                                ),
                                Err(e) => eprintln!("routeserver: attach failed: {e}"),
                            },
                            None => {
                                eprintln!("routeserver: every shard is down; dropping RIS session")
                            }
                        }
                    }
                    Err(e) => eprintln!("routeserver: bad session: {e}"),
                },
                Event::ApiRequest { line, reply } => {
                    let response = web::handle_json_sharded(&mut fed, &line, now());
                    let _ = reply.send(response);
                }
            }
        }
        fed.poll(now());
        if fed.crashed() {
            eprintln!(
                "routeserver: federation journal write failed; fail-stopping (restart to recover)"
            );
            std::process::exit(1);
        }
        // Crash containment: a shard whose journal failed is killed on
        // the spot and scheduled for journal recovery; its siblings and
        // the intra-shard relay keep serving throughout.
        for k in 0..n {
            if fed.server(k).is_some_and(RouteServer::crashed) {
                eprintln!(
                    "routeserver: shard {k} journal write failed; \
                     killing and recovering in place"
                );
                fed.kill_shard(k, Some(rnl_net::time::Duration::from_secs(5)), now());
            }
        }
        // Refresh the scrape page at most every 250 ms — a snapshot
        // walks every shard's registry, too heavy for a loop that turns
        // once per frame burst.
        if now().since(last_snapshot) >= rnl_net::time::Duration::from_millis(250) {
            last_snapshot = now();
            if let Ok(mut snap) = exposition.lock() {
                *snap = fed.metrics_snapshot();
            }
        }
    }
}

fn serve_api_client(stream: TcpStream, inbox: Inbox) {
    let peer = stream.peer_addr().ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    // One reply channel per connection: the loop below is strictly
    // one-request-one-reply, so replies cannot interleave.
    let (reply_tx, reply_rx) = mpsc::channel();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let reply = reply_tx.clone();
        if !inbox.send(Event::ApiRequest { line, reply }) {
            break;
        }
        let Ok(response) = reply_rx.recv() else { break };
        if writeln!(writer, "{response}").is_err() {
            break;
        }
    }
    eprintln!("routeserver: API client {peer:?} disconnected");
}

/// Answer one scrape: an HTTP response if the peer spoke HTTP (a
/// request line ending in a blank line), otherwise the bare text body.
fn serve_metrics_client(stream: TcpStream, registry: &rnl_obs::MetricsRegistry) {
    serve_metrics_body(stream, &rnl_obs::render_prometheus(&registry.snapshot()));
}

/// The scrape-answering half of [`serve_metrics_client`], for callers
/// that already rendered the page (the sharded loop serves a merged
/// federation snapshot).
fn serve_metrics_body(mut stream: TcpStream, body: &str) {
    let mut probe = [0u8; 4];
    let spoke_http = {
        use std::io::Read;
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .ok();
        matches!(stream.read(&mut probe), Ok(n) if n >= 3 && &probe[..3] == b"GET")
    };
    let _ = if spoke_http {
        write!(
            stream,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        write!(stream, "{body}")
    };
}

fn usage(msg: &str) -> ! {
    eprintln!("routeserver: {msg}");
    eprintln!(
        "usage: routeserver [--ris-port N] [--api-port N] [--metrics-port N] \
         [--shards N] [--mesh] [--grace-window SECS] [--state-dir PATH] \
         [--snapshot-every SECS] [--hwm TOKENS] [--op-deadline SECS] \
         [--fsync-every append|poll]"
    );
    std::process::exit(2);
}
