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
