//! The architecture over real sockets: a RIS in its own thread dials
//! the route server over loopback TCP (as a RIS behind a corporate
//! firewall would dial netlabs.accenture.com), registers its equipment,
//! and a deployed lab carries ping traffic end to end — every frame
//! crossing a genuine kernel TCP connection.
//!
//! Virtual time is derived from the wall clock at 50×, so second-scale
//! protocol timers elapse in milliseconds of test time.
//!
//! Both sides drive their loops the way the `routeserver` and `ris`
//! binaries do: poll, then block in `rnl::tunnel::wait` on the
//! descriptors `wait_fds` reports until a socket is ready or the tick
//! elapses.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant as WallInstant;

use rnl::device::host::Host;
use rnl::net::time::Instant;
use rnl::ris::Ris;
use rnl::server::design::Design;
use rnl::server::RouteServer;
use rnl::tunnel::msg::PortId;
use rnl::tunnel::transport::TcpTransport;
use rnl::tunnel::wait::{wait, PollFd};

/// Wall→virtual time acceleration.
const WARP: u64 = 50;

fn vnow(start: WallInstant) -> Instant {
    Instant::from_micros(start.elapsed().as_micros() as u64 * WARP)
}

/// The blocking half of a core-loop turn: wait on whatever `wait_fds`
/// appends, for at most the binaries' 1 ms tick.
fn park(wait_fds: impl FnOnce(&mut Vec<PollFd>)) {
    let mut fds = Vec::new();
    wait_fds(&mut fds);
    wait(&mut fds, std::time::Duration::from_millis(1));
}

#[test]
fn lab_runs_over_real_tcp_loopback() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let start = WallInstant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let (result_tx, result_rx) = std::sync::mpsc::channel::<String>();

    // ---- the interface-PC side: dials out, forwards, runs its hosts.
    let ris_stop = Arc::clone(&stop);
    let ris_thread = std::thread::spawn(move || {
        let transport = TcpTransport::connect(addr).expect("dial the route server");
        let mut ris = Ris::new("tcp-pc", Box::new(transport));
        let mut h1 = Host::new("s1", 71);
        h1.set_ip("10.7.0.1/24".parse().expect("valid"));
        let mut h2 = Host::new("s2", 72);
        h2.set_ip("10.7.0.2/24".parse().expect("valid"));
        ris.add_device(Box::new(h1), "tcp host 1");
        ris.add_device(Box::new(h2), "tcp host 2");
        ris.join_labs(vnow(start)).expect("join");

        let mut ping_started = false;
        while !ris_stop.load(Ordering::Relaxed) {
            let now = vnow(start);
            ris.poll(now).expect("ris poll");
            if ris.registered() && !ping_started {
                // Wait a moment for the deploy (driven by the server
                // side); the ping flows once the matrix exists.
                if now > Instant::from_micros(500_000) {
                    ris.device_mut(0)
                        .expect("host")
                        .console("ping 10.7.0.2 count 3", now);
                    ping_started = true;
                }
            }
            park(|fds| ris.wait_fds(fds));
        }
        let now = vnow(start);
        let out = ris.device_mut(0).expect("host").console("show ping", now);
        result_tx.send(out).expect("report");
    });

    // ---- the back-end side: accepts, registers, deploys, relays.
    let mut server = RouteServer::new();
    server.set_enforce_reservations(false);
    let session = TcpTransport::accept(&listener).expect("accept");
    server.attach(Box::new(session));

    // Poll until the registration lands.
    let deadline = WallInstant::now() + std::time::Duration::from_secs(10);
    while server.inventory().len() < 2 {
        assert!(WallInstant::now() < deadline, "registration never arrived");
        server.poll(vnow(start));
        park(|fds| server.wait_fds(fds));
    }
    let ids: Vec<_> = server.inventory().list().map(|r| r.id).collect();
    let mut design = Design::new("tcp-lab");
    design.add_device(ids[0]);
    design.add_device(ids[1]);
    design
        .connect((ids[0], PortId(0)), (ids[1], PortId(0)))
        .expect("connect");
    server
        .deploy_design("tcp-user", &design, vnow(start))
        .expect("deploy");

    // Relay until the pings complete (3 pings at 1 s virtual spacing ≈
    // 80 ms wall at 50×; give it 10 s of wall headroom).
    let deadline = WallInstant::now() + std::time::Duration::from_secs(10);
    while server.stats().frames_routed < 8 && WallInstant::now() < deadline {
        server.poll(vnow(start));
        park(|fds| server.wait_fds(fds));
    }
    // A little grace so the last replies reach the RIS.
    let grace = WallInstant::now() + std::time::Duration::from_millis(300);
    while WallInstant::now() < grace {
        server.poll(vnow(start));
        park(|fds| server.wait_fds(fds));
    }

    stop.store(true, Ordering::Relaxed);
    let out = result_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("result");
    ris_thread.join().expect("ris thread");
    assert!(
        out.contains("3 sent, 3 received"),
        "ping over real TCP: {out}"
    );
    assert!(server.stats().frames_routed >= 6, "{:?}", server.stats());
}

/// The tunnel carries a second lab on a second TCP session without the
/// labs interfering.
#[test]
fn two_tcp_sessions_two_isolated_labs() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let start = WallInstant::now();
    let stop = Arc::new(AtomicBool::new(false));

    let mut threads = Vec::new();
    let mut results = Vec::new();
    for lab in 0..2u32 {
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        results.push(rx);
        let stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            let transport = TcpTransport::connect(addr).expect("dial");
            let mut ris = Ris::new(&format!("pc{lab}"), Box::new(transport));
            let mut h1 = Host::new("a", 80 + lab * 2);
            h1.set_ip(format!("10.{}.0.1/24", 8 + lab).parse().expect("valid"));
            let mut h2 = Host::new("b", 81 + lab * 2);
            h2.set_ip(format!("10.{}.0.2/24", 8 + lab).parse().expect("valid"));
            ris.add_device(Box::new(h1), "a");
            ris.add_device(Box::new(h2), "b");
            ris.join_labs(vnow(start)).expect("join");
            let mut started = false;
            while !stop.load(Ordering::Relaxed) {
                let now = vnow(start);
                ris.poll(now).expect("poll");
                if ris.registered() && !started && now > Instant::from_micros(500_000) {
                    let target = format!("ping 10.{}.0.2 count 2", 8 + lab);
                    ris.device_mut(0).expect("host").console(&target, now);
                    started = true;
                }
                park(|fds| ris.wait_fds(fds));
            }
            let now = vnow(start);
            tx.send(ris.device_mut(0).expect("host").console("show ping", now))
                .expect("tx");
        }));
    }

    let mut server = RouteServer::new();
    server.set_enforce_reservations(false);
    for _ in 0..2 {
        let session = TcpTransport::accept(&listener).expect("accept");
        server.attach(Box::new(session));
    }
    let deadline = WallInstant::now() + std::time::Duration::from_secs(10);
    while server.inventory().len() < 4 {
        assert!(WallInstant::now() < deadline, "registrations never arrived");
        server.poll(vnow(start));
        park(|fds| server.wait_fds(fds));
    }
    // One design per session's pair.
    let mut by_pc: std::collections::BTreeMap<String, Vec<rnl::tunnel::msg::RouterId>> =
        Default::default();
    for rec in server.inventory().list() {
        by_pc.entry(rec.pc_name.clone()).or_default().push(rec.id);
    }
    for (pc, ids) in &by_pc {
        let mut design = Design::new(&format!("lab-{pc}"));
        design.add_device(ids[0]);
        design.add_device(ids[1]);
        design
            .connect((ids[0], PortId(0)), (ids[1], PortId(0)))
            .expect("connect");
        server
            .deploy_design(pc, &design, vnow(start))
            .expect("deploy");
    }
    let deadline = WallInstant::now() + std::time::Duration::from_secs(10);
    while server.stats().frames_routed < 12 && WallInstant::now() < deadline {
        server.poll(vnow(start));
        park(|fds| server.wait_fds(fds));
    }
    let grace = WallInstant::now() + std::time::Duration::from_millis(300);
    while WallInstant::now() < grace {
        server.poll(vnow(start));
        park(|fds| server.wait_fds(fds));
    }
    stop.store(true, Ordering::Relaxed);
    for (i, rx) in results.into_iter().enumerate() {
        let out = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("result");
        assert!(out.contains("2 sent, 2 received"), "lab {i}: {out}");
    }
    for t in threads {
        t.join().expect("thread");
    }
}

/// The `routeserver --shards 2` loop, driven the way the binary drives
/// it: two loopback TCP sessions attached to different shards, the
/// whole lab built and deployed as JSON lines through the sharded front
/// tier, a ping across the inter-shard trunk, then a kill of the
/// design's home shard answered with a structured, retryable error.
#[test]
fn federation_over_real_tcp_loopback() {
    use rnl::server::json::Json;
    use rnl::server::shard::Federation;
    use rnl::server::web::handle_json_sharded;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let start = WallInstant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let deployed = Arc::new(AtomicBool::new(false));
    let (result_tx, result_rx) = std::sync::mpsc::channel::<String>();

    let mut threads = Vec::new();
    for site in 0..2u32 {
        let stop = Arc::clone(&stop);
        let deployed = Arc::clone(&deployed);
        let result_tx = result_tx.clone();
        threads.push(std::thread::spawn(move || {
            let transport = TcpTransport::connect(addr).expect("dial");
            let mut ris = Ris::new(&format!("fed-pc{site}"), Box::new(transport));
            let mut host = Host::new("h", 90 + site);
            host.set_ip(format!("10.9.0.{}/24", site + 1).parse().expect("valid"));
            ris.add_device(Box::new(host), "fed host");
            ris.join_labs(vnow(start)).expect("join");
            let mut pinged = false;
            while !stop.load(Ordering::Relaxed) {
                let now = vnow(start);
                ris.poll(now).expect("ris poll");
                if site == 0 && !pinged && deployed.load(Ordering::Relaxed) {
                    ris.device_mut(0)
                        .expect("host")
                        .console("ping 10.9.0.2 count 3", now);
                    pinged = true;
                }
                park(|fds| ris.wait_fds(fds));
            }
            if site == 0 {
                let now = vnow(start);
                let out = ris.device_mut(0).expect("host").console("show ping", now);
                result_tx.send(out).expect("report");
            }
        }));
    }

    // The binary's sharded loop: one federation, sessions placed
    // round-robin, every API line through the front tier.
    let mut fed = Federation::new(2, 0x5eed);
    for shard in 0..2 {
        let session = TcpTransport::accept(&listener).expect("accept");
        fed.attach_to(shard, Box::new(session)).expect("attach");
    }
    let api = |fed: &mut Federation, line: &str| -> Json {
        let reply = handle_json_sharded(fed, line, vnow(start));
        Json::parse(&reply).expect("reply is JSON")
    };
    let turn = |fed: &mut Federation| {
        fed.poll(vnow(start));
        park(|fds| fed.wait_fds(fds));
    };

    let deadline = WallInstant::now() + std::time::Duration::from_secs(10);
    let routers = loop {
        assert!(WallInstant::now() < deadline, "registrations never arrived");
        turn(&mut fed);
        let reply = api(&mut fed, r#"{"op":"list_inventory"}"#);
        let rows = reply.get("inventory").and_then(Json::as_arr).unwrap_or(&[]);
        let ids: Vec<u64> = rows
            .iter()
            .filter_map(|r| r.get("router").and_then(Json::as_u64))
            .collect();
        if ids.len() == 2 {
            break ids;
        }
    };
    assert_eq!(
        routers.iter().map(|&r| r / 4096).collect::<Vec<_>>(),
        [0, 1],
        "one router per shard's id range: {routers:?}"
    );
    let (a, b) = (routers[0], routers[1]);
    for line in [
        r#"{"op":"create_design","name":"span"}"#.to_string(),
        format!(r#"{{"op":"add_device","design":"span","router":{a}}}"#),
        format!(r#"{{"op":"add_device","design":"span","router":{b}}}"#),
        format!(
            r#"{{"op":"connect_ports","design":"span","a_router":{a},"a_port":0,"b_router":{b},"b_port":0}}"#
        ),
        r#"{"op":"deploy","user":"fed-user","design":"span"}"#.to_string(),
    ] {
        let reply = api(&mut fed, &line);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{line} -> {}",
            reply.encode()
        );
    }
    deployed.store(true, Ordering::Relaxed);

    // ARP request/reply plus three echo pairs, all over the trunk.
    let trunk_frames =
        |fed: &Federation| fed.obs().counter_sum("rnl_server_shard_trunk_frames_total");
    let deadline = WallInstant::now() + std::time::Duration::from_secs(10);
    while trunk_frames(&fed) < 8 && WallInstant::now() < deadline {
        turn(&mut fed);
    }
    let grace = WallInstant::now() + std::time::Duration::from_millis(300);
    while WallInstant::now() < grace {
        turn(&mut fed);
    }
    stop.store(true, Ordering::Relaxed);
    let out = result_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("result");
    for t in threads {
        t.join().expect("ris thread");
    }
    assert!(
        out.contains("3 sent, 3 received"),
        "cross-shard ping over real TCP: {out}"
    );
    assert!(trunk_frames(&fed) >= 8);

    // Kill the design's home shard: a design-keyed op is refused with
    // a structured, retryable error instead of hanging or vanishing.
    let home = fed.shard_of_principal("span").expect("home shard");
    fed.kill_shard(
        home,
        Some(rnl::net::time::Duration::from_secs(5)),
        vnow(start),
    );
    let reply = api(&mut fed, r#"{"op":"analyze_design","design":"span"}"#);
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("shard-down"),
        "{}",
        reply.encode()
    );
    assert!(
        reply
            .get("retry_after_us")
            .and_then(Json::as_u64_str)
            .is_some_and(|us| us > 0),
        "{}",
        reply.encode()
    );
}
