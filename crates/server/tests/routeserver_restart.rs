//! Kill the real `routeserver` with `Child::kill` and restart it on the
//! same `--state-dir`: the API answers as it did before the kill — same
//! inventory, designs and calendar — the deployment still holds its
//! routers, and it can still be torn down. Runs at the default single
//! server and at `--shards 2`, where the design spans both shards so the
//! federation's own log is what brings the deployment back.
//!
//! The routers register through in-process RIS instances over loopback
//! TCP; the server picks nothing itself, every port is an ephemeral one
//! that was free a moment before the spawn.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant as WallInstant};

use rnl_device::host::Host;
use rnl_net::time::Instant;
use rnl_ris::Ris;
use rnl_server::json::Json;
use rnl_tunnel::msg::RouterId;
use rnl_tunnel::transport::TcpTransport;

fn free_port() -> u16 {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind an ephemeral port");
    listener.local_addr().expect("local addr").port()
}

fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// A running `routeserver` child, killed when dropped.
struct Server {
    child: Child,
    ris: SocketAddr,
    api: SocketAddr,
    /// The child's stderr, quoted when a reply does not come.
    log: PathBuf,
}

impl Server {
    fn spawn(state_dir: &Path, shards: usize) -> Server {
        let (ris, api, metrics) = (free_port(), free_port(), free_port());
        let log = state_dir.with_extension("log");
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log)
            .expect("open the server log");
        let mut command = Command::new(env!("CARGO_BIN_EXE_routeserver"));
        command
            .args(["--ris-port", &ris.to_string()])
            .args(["--api-port", &api.to_string()])
            .args(["--metrics-port", &metrics.to_string()])
            // Nothing redials after the kill: keep the recovered
            // sessions graced for the whole test.
            .args(["--grace-window", "600"])
            .arg("--state-dir")
            .arg(state_dir)
            .stdout(Stdio::null())
            .stderr(stderr);
        if shards > 1 {
            command.args(["--shards", &shards.to_string()]);
        }
        let child = command.spawn().expect("spawn routeserver");
        let mut server = Server {
            child,
            ris: loopback(ris),
            api: loopback(api),
            log,
        };
        // The metrics port is bound last, after recovery: once it
        // answers, the server is serving. (Probing an earlier port would
        // leave a window in which a probe's own ephemeral port could
        // take the metrics port before the server binds it.)
        let deadline = WallInstant::now() + Duration::from_secs(10);
        while TcpStream::connect(loopback(metrics)).is_err() {
            if let Ok(Some(status)) = server.child.try_wait() {
                panic!("routeserver exited with {status}: {}", server.log_text());
            }
            assert!(WallInstant::now() < deadline, "metrics port never opened");
            std::thread::sleep(Duration::from_millis(20));
        }
        server
    }

    fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// One request line, one reply line.
    fn api(&self, request: &str) -> Json {
        let mut stream = TcpStream::connect(self.api).expect("connect to the API");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        writeln!(stream, "{request}").expect("send request");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read reply");
        Json::parse(line.trim())
            .unwrap_or_else(|e| panic!("{request} -> {line:?}: {e}\n{}", self.log_text()))
    }

    /// [`Server::api`], asserting the reply is `ok`.
    fn ok(&self, request: &str) -> Json {
        let reply = self.api(request);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{request} -> {}",
            reply.encode()
        );
        reply
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Register a one-host site and return its RIS (kept alive by the
/// caller) and the global id the server gave the host.
fn register_site(server: &Server, pc: &str, num: u32) -> (Ris, RouterId) {
    let start = WallInstant::now();
    let now = || Instant::from_micros(start.elapsed().as_micros() as u64);
    let transport = TcpTransport::connect(server.ris).expect("dial the RIS port");
    let mut ris = Ris::new(pc, Box::new(transport));
    let mut host = Host::new(pc, num);
    host.set_ip(format!("10.9.0.{num}/24").parse().expect("valid ip"));
    ris.add_device(Box::new(host), "restart host");
    ris.join_labs(now()).expect("join");
    let deadline = WallInstant::now() + Duration::from_secs(10);
    while !ris.registered() {
        assert!(WallInstant::now() < deadline, "{pc} never registered");
        ris.poll(now()).expect("ris poll");
        std::thread::sleep(Duration::from_millis(2));
    }
    let id = ris.router_id(0).expect("assigned id");
    (ris, id)
}

/// The read-only answers that must survive the kill.
fn views(server: &Server) -> Vec<String> {
    [
        r#"{"op":"list_inventory"}"#,
        r#"{"op":"list_designs"}"#,
        r#"{"op":"export_design","name":"lab"}"#,
        r#"{"op":"next_free_slot","design":"lab","duration_us":3600000000,"after_us":0}"#,
    ]
    .iter()
    .map(|request| server.ok(request).encode())
    .collect()
}

fn kill_and_restart(shards: usize) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("rnl-restart-test-{shards}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(dir.with_extension("log"));

    let mut server = Server::spawn(&dir, shards);
    // Sessions go round-robin across shards, so with two shards the
    // second site lands on shard 1 and the design spans both.
    let (site_a, a) = register_site(&server, "pc-a", 1);
    let (site_b, b) = register_site(&server, "pc-b", 2);
    server.ok(r#"{"op":"create_design","name":"lab"}"#);
    for router in [a, b] {
        server.ok(&format!(
            r#"{{"op":"add_device","design":"lab","router":{}}}"#,
            router.0
        ));
    }
    server.ok(&format!(
        r#"{{"op":"connect_ports","design":"lab","a_router":{},"a_port":0,"b_router":{},"b_port":0}}"#,
        a.0, b.0
    ));
    server.ok(
        r#"{"op":"reserve","user":"alice","design":"lab","start_us":0,"end_us":1000000000000}"#,
    );
    let deploy = r#"{"op":"deploy","user":"alice","design":"lab"}"#;
    let deployment = server
        .ok(deploy)
        .get("deployment")
        .and_then(Json::as_u64)
        .expect("deployment id");
    let before = views(&server);

    drop((site_a, site_b));
    // The first restart replays the journal tail and compacts it; the
    // second replays that compacted snapshot alone.
    for kill in 1..=2 {
        server.child.kill().expect("kill routeserver");
        server.child.wait().expect("reap routeserver");
        drop(server);
        server = Server::spawn(&dir, shards);
        assert_eq!(
            views(&server),
            before,
            "the view changed across kill {kill}"
        );
    }
    let refused = server.api(deploy);
    let error = refused.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(
        error.contains("in use by deployment"),
        "second deploy: {}",
        refused.encode()
    );
    if shards == 1 {
        assert!(
            error.contains(&format!("in use by deployment {deployment}")),
            "second deploy: {error}"
        );
    }
    server.ok(&format!(r#"{{"op":"teardown","deployment":{deployment}}}"#));
    // The teardown freed the routers.
    server.ok(deploy);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(dir.with_extension("log"));
}

#[test]
fn killed_routeserver_recovers_its_state() {
    kill_and_restart(1);
}

#[test]
fn killed_sharded_routeserver_recovers_its_spanning_deployment() {
    kill_and_restart(2);
}
