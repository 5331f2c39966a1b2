//! The readiness primitive over real loopback sockets: `wait` wakes on
//! a peer's send and on regained writability, times out when nothing
//! happens, the `Waker` collapses pokes into one event, and transports
//! without a descriptor report none.
//!
//! Wall-clock assertions carry 10× margins (a 1 s timeout must be beaten
//! by 900 ms; a 50 ms timeout must simply not return early), so a loaded
//! host cannot flake them.

use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant as WallInstant};

use rnl_net::time::Instant;
use rnl_tunnel::msg::{Msg, PortId, RouterId, Span};
use rnl_tunnel::transport::{
    mem_pair_perfect, ClosedTransport, FrameBatch, TcpTransport, Transport,
};
use rnl_tunnel::wait::{wait, Waker};

const LONG: Duration = Duration::from_millis(1_000);
const SHORT: Duration = Duration::from_millis(50);

fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = TcpTransport::connect(listener.local_addr().expect("addr")).expect("dial");
    let server = TcpTransport::accept(&listener).expect("accept");
    (client, server)
}

fn data(len: usize) -> Msg {
    Msg::Data {
        router: RouterId(1),
        port: PortId(0),
        span: Span::NONE,
        frame: vec![0x5a; len],
    }
}

#[test]
fn wait_returns_when_the_peer_sends() {
    let (mut client, mut server) = tcp_pair();
    // The barrier releases the sender as this thread enters `wait`;
    // whichever side wins the race, the frame must end the wait.
    let barrier = Arc::new(Barrier::new(2));
    let sender = {
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            client.send(&data(64), Instant::EPOCH).expect("send");
            client
        })
    };
    let mut fds = vec![server.wait_fd().expect("a live TCP transport has an fd")];
    assert!(!fds[0].wants_write(), "no backlog, no write interest");
    barrier.wait();
    let started = WallInstant::now();
    let ready = wait(&mut fds, LONG);
    let took = started.elapsed();
    assert_eq!(ready, 1);
    assert!(took < LONG / 10, "woke after {took:?}, not on the send");
    let mut batch = FrameBatch::new();
    assert_eq!(
        server.poll_into(Instant::EPOCH, &mut batch).expect("poll"),
        1
    );
    assert_eq!(
        Msg::decode(batch.get(0).expect("frame")).expect("decode"),
        data(64)
    );
    drop(sender.join().expect("sender"));
}

#[test]
fn wait_times_out_no_earlier_than_asked() {
    let (_client, server) = tcp_pair();
    let mut fds = vec![server.wait_fd().expect("fd")];
    let started = WallInstant::now();
    assert_eq!(wait(&mut fds, SHORT), 0, "nothing was sent");
    assert!(started.elapsed() >= SHORT);
    // No fds at all is the disconnected-`ris` case: a plain tick.
    let started = WallInstant::now();
    assert_eq!(wait(&mut [], SHORT), 0);
    assert!(started.elapsed() >= SHORT);
}

#[test]
fn backlog_asks_for_writability_and_resumes_on_it() {
    let (mut client, mut server) = tcp_pair();
    // Stuff the connection while the peer reads nothing, until the
    // kernel refuses bytes and the transport starts holding them.
    let big = data(64 * 1024);
    for _ in 0..2_048 {
        client.send(&big, Instant::EPOCH).expect("send");
        if client.backlog_len() > 0 {
            break;
        }
    }
    assert!(client.backlog_len() > 0, "128 MiB never filled the socket");
    assert!(client.wait_fd().expect("fd").wants_write());

    // The peer drains; the sender must be woken by the room that makes,
    // well before the timeout, and flushing must empty the backlog
    // (in a few rounds if the peer's buffer fills again on the way).
    let mut batch = FrameBatch::new();
    let mut first_wait = None;
    for _ in 0..10_000 {
        if client.backlog_len() == 0 {
            break;
        }
        batch.clear();
        server.poll_into(Instant::EPOCH, &mut batch).expect("drain");
        let mut fds = vec![client.wait_fd().expect("fd")];
        let started = WallInstant::now();
        let ready = wait(&mut fds, LONG);
        first_wait.get_or_insert((ready, started.elapsed()));
        client.flush(Instant::EPOCH).expect("flush");
    }
    let (ready, took) = first_wait.expect("at least one round");
    assert_eq!(ready, 1);
    assert!(took < LONG / 10, "woke after {took:?}, not on writability");
    assert_eq!(client.backlog_len(), 0);
    assert!(!client.wait_fd().expect("fd").wants_write());
}

#[test]
fn waker_pokes_collapse_and_drain() {
    let waker = Waker::new().expect("waker");
    for _ in 0..5 {
        waker.wake();
    }
    let mut fds = [waker.poll_fd()];
    let started = WallInstant::now();
    assert_eq!(wait(&mut fds, LONG), 1);
    assert!(started.elapsed() < LONG / 10);
    waker.drain();
    let started = WallInstant::now();
    assert_eq!(wait(&mut fds, SHORT), 0, "drained");
    assert!(started.elapsed() >= SHORT);
}

#[test]
fn waker_wakes_a_blocked_waiter_from_another_thread() {
    let waker = Arc::new(Waker::new().expect("waker"));
    let barrier = Arc::new(Barrier::new(2));
    let poker = {
        let (waker, barrier) = (Arc::clone(&waker), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait();
            waker.wake();
        })
    };
    barrier.wait();
    let started = WallInstant::now();
    assert_eq!(wait(&mut [waker.poll_fd()], LONG), 1);
    assert!(started.elapsed() < LONG / 10);
    poker.join().expect("poker");
}

#[test]
fn transports_without_a_socket_report_no_fd() {
    let (mem, _peer) = mem_pair_perfect(1);
    assert!(mem.wait_fd().is_none());
    assert!(ClosedTransport.wait_fd().is_none());
    // A dead TCP connection stays readable (EOF) forever; reporting its
    // fd would make the waiter spin.
    let (client, mut server) = tcp_pair();
    drop(client);
    let mut fds = vec![server.wait_fd().expect("fd while believed up")];
    assert_eq!(wait(&mut fds, LONG), 1, "EOF is an event");
    let _ = server.poll(Instant::EPOCH);
    assert!(!server.is_connected());
    assert!(server.wait_fd().is_none());
}
