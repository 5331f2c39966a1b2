//! Message transports between RIS and the route server.
//!
//! Two implementations of one [`Transport`] trait:
//!
//! * [`MemTransport`] — an in-process pair joined by channels, with a
//!   per-direction [`crate::impair::ImpairModel`] deciding
//!   delivery times on the virtual clock. Deterministic; used by tests,
//!   experiments and the simulated "geographically distributed"
//!   deployments. Messages still pass through the real binary codec, so
//!   the wire format is exercised end to end.
//! * [`TcpTransport`] — a real `std::net` TCP connection with
//!   non-blocking reads and buffered writes. The RIS side always
//!   *initiates* the connection ("The PC always initiates the connection
//!   to the back-end server, so that, even if the routers are sitting
//!   behind a corporate firewall, they can still be connected").

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use crossbeam_channel::{unbounded, Receiver, Sender, TryRecvError};
use rnl_net::time::Instant;
use rnl_obs::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_US, SIZE_BUCKETS};

use crate::codec::FrameCodec;
use crate::faults::{FaultKind, FaultPlan};
use crate::impair::{ImpairModel, Impairment};
use crate::msg::{DecodeError, EncodeError, Msg};
use crate::wait::PollFd;

/// Optional metric handles a transport updates on its hot path. All
/// handles default to absent; [`TransportMetrics::from_registry`] wires
/// the standard set. Kept as plain `Option`s so an uninstrumented
/// transport costs nothing but a null check.
#[derive(Default)]
pub struct TransportMetrics {
    /// Size of each encoded wire message sent (framed bytes).
    pub encoded_bytes: Option<Histogram>,
    /// Size of each wire message received (framed bytes).
    pub decoded_bytes: Option<Histogram>,
    /// Impairment-applied one-way delay per delivered message, virtual µs.
    pub impair_delay_us: Option<Histogram>,
    /// Messages dropped by the impairment model.
    pub dropped: Option<Counter>,
    /// Current transmit backlog (bytes accepted but not yet on the wire).
    pub backlog_bytes: Option<Gauge>,
    /// Messages dropped because the backlog hit its high-water mark
    /// under [`OverflowPolicy::DropNewest`].
    pub backlog_dropped: Option<Counter>,
    /// Connections declared dead because the backlog hit its high-water
    /// mark under [`OverflowPolicy::Disconnect`].
    pub backlog_disconnects: Option<Counter>,
    /// Messages eaten by an injected fault window (partitions).
    pub fault_dropped: Option<Counter>,
}

impl TransportMetrics {
    /// The standard transport metric set, labeled (e.g. by site).
    pub fn from_registry(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> TransportMetrics {
        TransportMetrics {
            encoded_bytes: Some(registry.histogram(
                "rnl_tunnel_encoded_msg_bytes",
                labels,
                &SIZE_BUCKETS,
            )),
            decoded_bytes: Some(registry.histogram(
                "rnl_tunnel_decoded_msg_bytes",
                labels,
                &SIZE_BUCKETS,
            )),
            impair_delay_us: Some(registry.histogram(
                "rnl_tunnel_impair_delay_us",
                labels,
                &LATENCY_BUCKETS_US,
            )),
            dropped: Some(registry.counter("rnl_tunnel_impair_dropped_total", labels)),
            backlog_bytes: Some(registry.gauge("rnl_tunnel_backlog_bytes", labels)),
            backlog_dropped: Some(registry.counter("rnl_tunnel_backlog_dropped_total", labels)),
            backlog_disconnects: Some(
                registry.counter("rnl_tunnel_backlog_disconnects_total", labels),
            ),
            fault_dropped: Some(registry.counter("rnl_tunnel_fault_dropped_total", labels)),
        }
    }
}

/// What a transport does with a new message when accepting it would push
/// the transmit backlog past the high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Refuse (drop) the newest message, count it, and stay connected —
    /// the same contract as an impairment-model loss. Data frames are
    /// best-effort on a real network anyway; shedding newest load keeps
    /// a stalled peer from taking the whole process down with it.
    #[default]
    DropNewest,
    /// Declare the peer dead: a peer that cannot drain a full high-water
    /// mark of backlog is indistinguishable from a hung one.
    Disconnect,
}

/// Transport failure.
#[derive(Debug)]
pub enum TransportError {
    /// The peer is gone.
    Closed,
    /// Underlying I/O error.
    Io(std::io::Error),
    /// The byte stream did not decode.
    Protocol(DecodeError),
    /// The message could not be encoded (sender-side oversize guard).
    /// Unlike the other variants this is *non-fatal*: the connection
    /// stays up and only the offending message is refused.
    Encode(EncodeError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
            TransportError::Encode(e) => write!(f, "encode refused: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

/// A reusable batch of received frame *bodies* (no length prefix),
/// packed back to back in one flat buffer — the unit the route server's
/// batched poll drains a transport into. Reusing one batch across polls
/// means the steady-state receive path performs no per-frame heap
/// allocation: both the byte buffer and the bounds table retain their
/// capacity across [`FrameBatch::clear`].
#[derive(Debug, Default)]
pub struct FrameBatch {
    buf: Vec<u8>,
    bounds: Vec<(u32, u32)>,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> FrameBatch {
        FrameBatch::default()
    }

    /// Drop all frames, keeping both buffers' capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.bounds.clear();
    }

    /// Append one frame body.
    pub fn push(&mut self, body: &[u8]) {
        let start = self.buf.len() as u32;
        self.buf.extend_from_slice(body);
        self.bounds.push((start, self.buf.len() as u32));
    }

    /// Number of frames held.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when no frames are held.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Body of frame `i`.
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        let &(start, end) = self.bounds.get(i)?;
        Some(&self.buf[start as usize..end as usize])
    }

    /// Mutable body of frame `i` (destination patching in place).
    pub fn get_mut(&mut self, i: usize) -> Option<&mut [u8]> {
        let &(start, end) = self.bounds.get(i)?;
        Some(&mut self.buf[start as usize..end as usize])
    }
}

/// Delivery-accounting counters a transport can report about its own
/// *send* direction. Everything a sender ever handed to the transport is
/// exactly one of: delivered, dropped by the impairment model, eaten by
/// a fault window, or still in flight — the conservation law the chaos
/// suites assert across direct↔relay failovers. Transports without such
/// bookkeeping (TCP, the closed stub) report the empty default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages the impairment model delivered (or scheduled).
    pub impair_delivered: u64,
    /// Messages the impairment model dropped (random loss).
    pub impair_dropped: u64,
    /// Messages eaten by partition fault windows.
    pub fault_dropped: u64,
    /// Messages currently held by an in-force stall window.
    pub stalled: u64,
}

/// A bidirectional, ordered message channel.
pub trait Transport: Send {
    /// Enqueue a message. `now` is the sender's virtual clock (used by
    /// impairment models; the TCP transport ignores it).
    fn send(&mut self, msg: &Msg, now: Instant) -> Result<(), TransportError>;

    /// Non-blocking receive of everything deliverable at `now`.
    fn poll(&mut self, now: Instant) -> Result<Vec<Msg>, TransportError>;

    /// Batched, allocation-free receive: append the body of every frame
    /// deliverable at `now` to `batch` (which the caller reuses across
    /// polls) and return how many were appended. The native transports
    /// override this to skip the owned [`Msg`] decode entirely; the
    /// default delegates to [`Transport::poll`] and re-encodes, so any
    /// third-party transport keeps working unchanged.
    fn poll_into(&mut self, now: Instant, batch: &mut FrameBatch) -> Result<usize, TransportError> {
        let msgs = self.poll(now)?;
        for msg in &msgs {
            batch.push(&msg.encode());
        }
        Ok(msgs.len())
    }

    /// Enqueue an already-encoded message body as-is — the relay's
    /// zero-copy forward, which never re-encodes a frame it received.
    /// The default decodes and delegates to [`Transport::send`] for
    /// third-party transports.
    fn send_raw(&mut self, body: &[u8], now: Instant) -> Result<(), TransportError> {
        let msg = Msg::decode(body).map_err(TransportError::Protocol)?;
        self.send(&msg, now)
    }

    /// Push buffered transmit state toward the wire. The batched server
    /// poll calls this once per session per tick, *after* the burst of
    /// sends, instead of paying flush work on every message.
    fn flush(&mut self, _now: Instant) -> Result<(), TransportError> {
        Ok(())
    }

    /// Whether the link is still believed up.
    fn is_connected(&self) -> bool;

    /// Retune the transmit-backlog high-water mark and overflow policy.
    /// Transports without a bounded backlog (in-memory pairs, the closed
    /// stub) ignore this; the TCP transport applies it live so the route
    /// server can re-derive policy from deployment priority.
    fn set_backlog_policy(&mut self, _bytes: usize, _policy: OverflowPolicy) {}

    /// Send-direction delivery accounting (see [`TransportStats`]).
    /// Defaults to all-zero for transports without such bookkeeping.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }

    /// What a blocking core loop should hand to [`crate::wait::wait`]
    /// on this transport's behalf: its descriptor, with write interest
    /// while a transmit backlog is pending. `None` (the default) means
    /// nothing to block on — an in-memory pair, the closed stub, a dead
    /// connection — and the loop's tick drives the transport instead.
    fn wait_fd(&self) -> Option<PollFd> {
        None
    }
}

// ---------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------

/// One endpoint of an in-memory transport pair.
pub struct MemTransport {
    tx: Sender<(Instant, Vec<u8>)>,
    rx: Receiver<(Instant, Vec<u8>)>,
    impair: ImpairModel,
    /// Messages received from the channel but not yet due.
    inbox: VecDeque<(Instant, Vec<u8>)>,
    codec: FrameCodec,
    connected: bool,
    /// Permanently down: the peer hung up or `disconnect` was called.
    /// Unlike a scheduled cut window, this never heals.
    hard_closed: bool,
    metrics: TransportMetrics,
    /// Scheduled misbehavior for this endpoint's *send* direction.
    faults: FaultPlan,
    /// Frames held while a stall window is in force, released in order
    /// when it ends.
    stall_buf: VecDeque<Vec<u8>>,
    /// Frames eaten by partition windows (also mirrored to the optional
    /// `fault_dropped` metric handle).
    fault_drops: u64,
}

/// Create a connected pair with independent per-direction impairment.
/// `seed` derives both directions' RNG streams.
pub fn mem_pair(a_to_b: Impairment, b_to_a: Impairment, seed: u64) -> (MemTransport, MemTransport) {
    let (tx_ab, rx_ab) = unbounded();
    let (tx_ba, rx_ba) = unbounded();
    let a = MemTransport {
        tx: tx_ab,
        rx: rx_ba,
        impair: ImpairModel::new(a_to_b, seed.wrapping_mul(2).wrapping_add(1)),
        inbox: VecDeque::new(),
        codec: FrameCodec::new(),
        connected: true,
        hard_closed: false,
        metrics: TransportMetrics::default(),
        faults: FaultPlan::new(),
        stall_buf: VecDeque::new(),
        fault_drops: 0,
    };
    let b = MemTransport {
        tx: tx_ba,
        rx: rx_ab,
        impair: ImpairModel::new(b_to_a, seed.wrapping_mul(2).wrapping_add(2)),
        inbox: VecDeque::new(),
        codec: FrameCodec::new(),
        connected: true,
        hard_closed: false,
        metrics: TransportMetrics::default(),
        faults: FaultPlan::new(),
        stall_buf: VecDeque::new(),
        fault_drops: 0,
    };
    (a, b)
}

/// A perfect in-memory pair (no delay, no loss).
pub fn mem_pair_perfect(seed: u64) -> (MemTransport, MemTransport) {
    mem_pair(Impairment::PERFECT, Impairment::PERFECT, seed)
}

impl Transport for MemTransport {
    fn send(&mut self, msg: &Msg, now: Instant) -> Result<(), TransportError> {
        self.pump(now);
        if !self.connected {
            return Err(TransportError::Closed);
        }
        let bytes = FrameCodec::encode(msg).map_err(TransportError::Encode)?;
        self.send_framed(bytes, now)
    }

    fn send_raw(&mut self, body: &[u8], now: Instant) -> Result<(), TransportError> {
        self.pump(now);
        if !self.connected {
            return Err(TransportError::Closed);
        }
        // The channel transfers ownership, so an owned framing is built
        // here either way — but without the decode + re-encode round
        // trip of the default implementation.
        let mut bytes = Vec::with_capacity(4 + body.len());
        FrameCodec::encode_body_into(body, &mut bytes).map_err(TransportError::Encode)?;
        self.send_framed(bytes, now)
    }

    fn poll(&mut self, now: Instant) -> Result<Vec<Msg>, TransportError> {
        self.recv_pending(now);
        let mut msgs = Vec::new();
        while self.inbox.front().is_some_and(|(at, _)| *at <= now) {
            let Some((_, bytes)) = self.inbox.pop_front() else {
                break;
            };
            if let Some(h) = &self.metrics.decoded_bytes {
                h.observe(bytes.len() as u64);
            }
            self.codec.feed(&bytes);
            while let Some(msg) = self.codec.next_msg().map_err(TransportError::Protocol)? {
                msgs.push(msg);
            }
        }
        if msgs.is_empty() && !self.connected {
            return Err(TransportError::Closed);
        }
        Ok(msgs)
    }

    fn poll_into(&mut self, now: Instant, batch: &mut FrameBatch) -> Result<usize, TransportError> {
        self.recv_pending(now);
        let mut appended = 0usize;
        while self.inbox.front().is_some_and(|(at, _)| *at <= now) {
            let Some((_, bytes)) = self.inbox.pop_front() else {
                break;
            };
            if let Some(h) = &self.metrics.decoded_bytes {
                h.observe(bytes.len() as u64);
            }
            self.codec.feed(&bytes);
            while let Some(body) = self.codec.next_frame().map_err(TransportError::Protocol)? {
                batch.push(body);
                appended += 1;
            }
        }
        if appended == 0 && !self.connected {
            return Err(TransportError::Closed);
        }
        Ok(appended)
    }

    fn is_connected(&self) -> bool {
        self.connected
    }

    fn stats(&self) -> TransportStats {
        let (impair_delivered, impair_dropped) = self.impair.counters();
        TransportStats {
            impair_delivered,
            impair_dropped,
            fault_dropped: self.fault_drops,
            stalled: self.stall_buf.len() as u64,
        }
    }
}

impl MemTransport {
    /// Replace the impairment profile mid-run (the §3.5 knob).
    pub fn set_impairment(&mut self, profile: Impairment) {
        self.impair.set_profile(profile);
    }

    /// Attach metric handles; subsequent sends/polls update them.
    pub fn attach_metrics(&mut self, metrics: TransportMetrics) {
        self.metrics = metrics;
    }

    /// Sever the link for good (simulates the interface PC losing its
    /// uplink). Unlike a scheduled [`FaultKind::Cut`] window, this never
    /// heals — a new transport must be dialed.
    pub fn disconnect(&mut self) {
        self.hard_closed = true;
        self.connected = false;
    }

    /// Install a fault schedule for this endpoint's send direction.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Frames eaten by partition windows so far.
    pub fn fault_drops(&self) -> u64 {
        self.fault_drops
    }

    /// `(delivered, dropped)` counters from the impairment model.
    pub fn impair_counters(&self) -> (u64, u64) {
        self.impair.counters()
    }

    /// Frames currently held by an in-force stall window.
    pub fn stalled(&self) -> usize {
        self.stall_buf.len()
    }

    /// Apply any fault state in force at `now`: connectivity is down
    /// while a cut window covers `now` (and restores when it closes,
    /// unless hard-closed), and a stall window that has ended releases
    /// its held frames in order *before* any new traffic is scheduled
    /// (FIFO preserved).
    fn pump(&mut self, now: Instant) {
        self.connected = !self.hard_closed && !self.faults.cut_by(now);
        if !matches!(self.faults.active(now), Some(FaultKind::Stall)) {
            while let Some(bytes) = self.stall_buf.pop_front() {
                // Delivery errors here mean the peer is gone; the next
                // send/poll reports it.
                let _ = self.dispatch(bytes, now);
            }
        }
    }

    /// Pull everything pending off the channel into the time-ordered
    /// inbox (senders schedule FIFO, so arrival order == time order).
    fn recv_pending(&mut self, now: Instant) {
        self.pump(now);
        loop {
            match self.rx.try_recv() {
                Ok(item) => self.inbox.push_back(item),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    // Peer endpoint dropped; anything buffered is already
                    // in the inbox, so drain it before reporting closed.
                    self.hard_closed = true;
                    self.connected = false;
                    break;
                }
            }
        }
    }

    /// Fault-window accounting + delivery for one framed message, the
    /// shared tail of `send` and `send_raw`.
    fn send_framed(&mut self, bytes: Vec<u8>, now: Instant) -> Result<(), TransportError> {
        if let Some(h) = &self.metrics.encoded_bytes {
            h.observe(bytes.len() as u64);
        }
        match self.faults.active(now) {
            Some(FaultKind::Stall) => {
                // The link is up but not moving bytes: hold the frame for
                // in-order release when the window closes.
                self.stall_buf.push_back(bytes);
                Ok(())
            }
            Some(FaultKind::Partition) => {
                // Mid-path partition: the send "succeeds" but the frame
                // is eaten — and counted, so chaos tests can account for
                // every frame.
                self.fault_drops += 1;
                if let Some(c) = &self.metrics.fault_dropped {
                    c.inc();
                }
                Ok(())
            }
            // Cut was handled by pump() in the caller; anything else
            // delivers.
            _ => self.dispatch(bytes, now),
        }
    }

    /// Schedule one encoded frame through the impairment model (which
    /// may drop it) and hand it to the channel.
    fn dispatch(&mut self, bytes: Vec<u8>, now: Instant) -> Result<(), TransportError> {
        if let Some(deliver_at) = self.impair.schedule(now) {
            if let Some(h) = &self.metrics.impair_delay_us {
                h.observe(deliver_at.since(now).as_micros());
            }
            self.tx.send((deliver_at, bytes)).map_err(|_| {
                self.hard_closed = true;
                self.connected = false;
                TransportError::Closed
            })?;
        } else if let Some(c) = &self.metrics.dropped {
            c.inc();
        }
        Ok(())
    }
}

/// A transport that is permanently closed: every operation reports
/// [`TransportError::Closed`]. Used as the placeholder a supervised RIS
/// holds between connection attempts, so "no link yet" and "link died"
/// flow through the same code path.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedTransport;

impl Transport for ClosedTransport {
    fn send(&mut self, _msg: &Msg, _now: Instant) -> Result<(), TransportError> {
        Err(TransportError::Closed)
    }

    fn poll(&mut self, _now: Instant) -> Result<Vec<Msg>, TransportError> {
        Err(TransportError::Closed)
    }

    fn is_connected(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// Default transmit high-water mark: 4 MiB of backlogged wire bytes,
/// a few seconds of heavy lab traffic on a consumer uplink.
pub const DEFAULT_TX_HWM: usize = 4 << 20;

/// A framed TCP connection.
pub struct TcpTransport {
    stream: TcpStream,
    codec: FrameCodec,
    /// Bytes accepted by `send` but not yet accepted by the kernel.
    /// A ring buffer so partial flushes are O(bytes written), not
    /// O(backlog) per write.
    tx_backlog: VecDeque<u8>,
    /// Backlog cap; crossing it applies `overflow`.
    tx_hwm: usize,
    overflow: OverflowPolicy,
    connected: bool,
    read_buf: [u8; 64 * 1024],
    /// Error discovered while returning earlier messages (e.g. a
    /// truncated frame behind a batch of good ones); surfaced on the
    /// next poll.
    pending_error: Option<TransportError>,
    metrics: TransportMetrics,
}

impl TcpTransport {
    /// Dial out to the route server (the RIS direction — always
    /// outbound, for firewall traversal).
    pub fn connect(addr: SocketAddr) -> Result<TcpTransport, TransportError> {
        let stream = TcpStream::connect(addr)?;
        TcpTransport::from_stream(stream)
    }

    /// Wrap an accepted connection (the route-server direction).
    pub fn from_stream(stream: TcpStream) -> Result<TcpTransport, TransportError> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            codec: FrameCodec::new(),
            tx_backlog: VecDeque::new(),
            tx_hwm: DEFAULT_TX_HWM,
            overflow: OverflowPolicy::default(),
            connected: true,
            read_buf: [0; 64 * 1024],
            pending_error: None,
            metrics: TransportMetrics::default(),
        })
    }

    /// Attach metric handles; subsequent sends update them. (Receive
    /// sizes are not attributed per message on TCP: the kernel hands
    /// back arbitrary chunks.)
    pub fn attach_metrics(&mut self, metrics: TransportMetrics) {
        self.metrics = metrics;
    }

    /// Accept one connection from a listener (blocking).
    pub fn accept(listener: &TcpListener) -> Result<TcpTransport, TransportError> {
        let (stream, _) = listener.accept()?;
        TcpTransport::from_stream(stream)
    }

    /// Cap the transmit backlog at `bytes` and pick what happens to a
    /// send that would cross it.
    pub fn set_backlog_limit(&mut self, bytes: usize, policy: OverflowPolicy) {
        self.tx_hwm = bytes;
        self.overflow = policy;
    }

    /// Bytes accepted by `send` but not yet handed to the kernel.
    pub fn backlog_len(&self) -> usize {
        self.tx_backlog.len()
    }

    fn note_backlog(&self) {
        if let Some(g) = &self.metrics.backlog_bytes {
            g.set(self.tx_backlog.len() as f64);
        }
    }

    /// Apply the high-water mark to a frame of `framed_len` wire bytes.
    /// `Ok(true)` means the frame was refused (DropNewest) and counted —
    /// the send reports success, exactly like an impairment loss.
    fn check_hwm(&mut self, framed_len: usize) -> Result<bool, TransportError> {
        if self.tx_backlog.len() + framed_len <= self.tx_hwm {
            return Ok(false);
        }
        match self.overflow {
            OverflowPolicy::DropNewest => {
                if let Some(c) = &self.metrics.backlog_dropped {
                    c.inc();
                }
                Ok(true)
            }
            OverflowPolicy::Disconnect => {
                if let Some(c) = &self.metrics.backlog_disconnects {
                    c.inc();
                }
                self.connected = false;
                Err(TransportError::Closed)
            }
        }
    }

    /// Non-blocking read loop: move every byte the kernel has into the
    /// framing codec.
    fn fill_codec(&mut self) -> Result<(), TransportError> {
        loop {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    self.connected = false;
                    break;
                }
                Ok(n) => {
                    let (buf, codec) = (&self.read_buf[..n], &mut self.codec);
                    codec.feed(buf);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.connected = false;
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    fn flush_backlog(&mut self) -> Result<(), TransportError> {
        while !self.tx_backlog.is_empty() {
            // Write the contiguous head of the ring; draining from the
            // front just advances the head pointer, so a long stall costs
            // O(bytes written), not O(backlog) per wakeup.
            let written = {
                let (head, _) = self.tx_backlog.as_slices();
                self.stream.write(head)
            };
            match written {
                Ok(0) => {
                    self.connected = false;
                    self.note_backlog();
                    return Err(TransportError::Closed);
                }
                Ok(n) => {
                    self.tx_backlog.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.connected = false;
                    self.note_backlog();
                    return Err(e.into());
                }
            }
        }
        self.note_backlog();
        Ok(())
    }
}

impl Transport for TcpTransport {
    /// Accept-vs-fail contract: `Ok(())` means the whole frame is on the
    /// wire, in the bounded backlog, or — at the high-water mark under
    /// [`OverflowPolicy::DropNewest`] — dropped and counted, exactly like
    /// an impairment loss. `Err` means the transport is dead and this
    /// message will never be delivered (pre-existing backlog dies with
    /// the connection). Frames are only ever enqueued whole, so the peer
    /// never observes a torn frame from a failed send.
    fn send(&mut self, msg: &Msg, _now: Instant) -> Result<(), TransportError> {
        if !self.connected {
            return Err(TransportError::Closed);
        }
        // Flush existing backlog *before* accepting the new frame: if the
        // connection turns out to be dead the caller learns it now, with
        // this message unambiguously not accepted.
        self.flush_backlog()?;
        let bytes = FrameCodec::encode(msg).map_err(TransportError::Encode)?;
        if self.check_hwm(bytes.len())? {
            return Ok(());
        }
        if let Some(h) = &self.metrics.encoded_bytes {
            h.observe(bytes.len() as u64);
        }
        self.tx_backlog.extend(bytes);
        self.flush_backlog()
    }

    /// Zero-copy enqueue: the prefix and body go straight into the
    /// transmit ring with no intermediate `Vec`. Flushing is left to
    /// [`Transport::flush`] so a relay burst pays one syscall batch.
    fn send_raw(&mut self, body: &[u8], now: Instant) -> Result<(), TransportError> {
        let _ = now;
        if !self.connected {
            return Err(TransportError::Closed);
        }
        if body.len() > crate::codec::MAX_FRAME {
            return Err(TransportError::Encode(EncodeError::Oversize {
                len: body.len(),
            }));
        }
        let framed = 4 + body.len();
        if self.check_hwm(framed)? {
            return Ok(());
        }
        if let Some(h) = &self.metrics.encoded_bytes {
            h.observe(framed as u64);
        }
        self.tx_backlog
            .extend((body.len() as u32).to_be_bytes().iter().copied());
        self.tx_backlog.extend(body.iter().copied());
        self.note_backlog();
        Ok(())
    }

    fn flush(&mut self, _now: Instant) -> Result<(), TransportError> {
        if !self.connected {
            return Err(TransportError::Closed);
        }
        self.flush_backlog()
    }

    fn poll(&mut self, _now: Instant) -> Result<Vec<Msg>, TransportError> {
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
        if !self.connected {
            return Err(TransportError::Closed);
        }
        // Opportunistically drain any backlogged writes.
        self.flush_backlog()?;
        self.fill_codec()?;
        let msgs = self.codec.drain().map_err(TransportError::Protocol)?;
        if !self.connected && self.codec.buffered() > 0 {
            // The peer died mid-frame. A clean close leaves an empty
            // codec; leftover bytes mean truncation, and callers deserve
            // to know the difference. If good messages arrived in the
            // same batch, deliver them first and report the truncation on
            // the next poll.
            let err = TransportError::Protocol(DecodeError::Truncated);
            if msgs.is_empty() {
                return Err(err);
            }
            self.pending_error = Some(err);
        }
        Ok(msgs)
    }

    fn poll_into(
        &mut self,
        _now: Instant,
        batch: &mut FrameBatch,
    ) -> Result<usize, TransportError> {
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
        if !self.connected {
            return Err(TransportError::Closed);
        }
        self.flush_backlog()?;
        self.fill_codec()?;
        let mut appended = 0usize;
        while let Some(body) = self.codec.next_frame().map_err(TransportError::Protocol)? {
            batch.push(body);
            appended += 1;
        }
        if !self.connected && self.codec.buffered() > 0 {
            let err = TransportError::Protocol(DecodeError::Truncated);
            if appended == 0 {
                return Err(err);
            }
            self.pending_error = Some(err);
        }
        Ok(appended)
    }

    fn is_connected(&self) -> bool {
        self.connected
    }

    fn set_backlog_policy(&mut self, bytes: usize, policy: OverflowPolicy) {
        self.set_backlog_limit(bytes, policy);
    }

    /// A dead connection reports no fd: its socket stays readable (EOF)
    /// forever, which would turn the waiter's loop into a spin.
    #[cfg(unix)]
    fn wait_fd(&self) -> Option<PollFd> {
        use std::os::unix::io::AsRawFd;
        self.connected
            .then(|| PollFd::new(self.stream.as_raw_fd(), !self.tx_backlog.is_empty()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{PortId, RouterId};
    use rnl_net::time::Duration;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    fn data(n: u8) -> Msg {
        Msg::Data {
            router: RouterId(1),
            port: PortId(0),
            span: crate::msg::Span::NONE,
            frame: vec![n; 64],
        }
    }

    #[test]
    fn mem_pair_roundtrip_both_directions() {
        let (mut a, mut b) = mem_pair_perfect(1);
        a.send(&data(1), t(0)).unwrap();
        b.send(&data(2), t(0)).unwrap();
        assert_eq!(b.poll(t(0)).unwrap(), vec![data(1)]);
        assert_eq!(a.poll(t(0)).unwrap(), vec![data(2)]);
    }

    #[test]
    fn mem_pair_respects_delay() {
        let profile = Impairment {
            delay: Duration::from_millis(40),
            jitter: Duration::ZERO,
            loss: 0.0,
        };
        let (mut a, mut b) = mem_pair(profile, Impairment::PERFECT, 2);
        a.send(&data(1), t(0)).unwrap();
        assert!(b.poll(t(39)).unwrap().is_empty(), "too early");
        assert_eq!(b.poll(t(40)).unwrap(), vec![data(1)]);
    }

    #[test]
    fn mem_pair_loses_packets_per_profile() {
        let profile = Impairment {
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 0.5,
        };
        let (mut a, mut b) = mem_pair(profile, Impairment::PERFECT, 3);
        for i in 0..200 {
            a.send(&data(i as u8), t(i)).unwrap();
        }
        let received = b.poll(t(1000)).unwrap().len();
        assert!(received > 50 && received < 150, "got {received}");
    }

    #[test]
    fn mem_disconnect_reports_closed() {
        let (mut a, _b) = mem_pair_perfect(4);
        a.disconnect();
        assert!(matches!(
            a.send(&data(1), t(0)),
            Err(TransportError::Closed)
        ));
        assert!(!a.is_connected());
    }

    #[test]
    fn mem_ordering_preserved_under_jitter() {
        let profile = Impairment {
            delay: Duration::from_millis(5),
            jitter: Duration::from_millis(30),
            loss: 0.0,
        };
        let (mut a, mut b) = mem_pair(profile, Impairment::PERFECT, 5);
        for i in 0..50u8 {
            a.send(&data(i), t(u64::from(i))).unwrap();
        }
        let msgs = b.poll(t(10_000)).unwrap();
        assert_eq!(msgs.len(), 50);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(*m, data(i as u8), "reordered at {i}");
        }
    }

    #[test]
    fn mem_transport_records_metrics() {
        let registry = MetricsRegistry::new();
        let profile = Impairment {
            delay: Duration::from_millis(3),
            jitter: Duration::ZERO,
            loss: 0.0,
        };
        let (mut a, mut b) = mem_pair(profile, Impairment::PERFECT, 11);
        a.attach_metrics(TransportMetrics::from_registry(
            &registry,
            &[("side", "ris")],
        ));
        b.attach_metrics(TransportMetrics::from_registry(
            &registry,
            &[("side", "server")],
        ));
        for i in 0..4 {
            a.send(&data(i), t(u64::from(i))).unwrap();
        }
        assert_eq!(b.poll(t(1_000)).unwrap().len(), 4);
        let snap = registry.snapshot();
        let sent = snap.get("rnl_tunnel_encoded_msg_bytes", &[("side", "ris")]);
        match sent {
            Some(rnl_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 4);
                assert!(h.sum > 0);
            }
            other => panic!("missing encode histogram: {other:?}"),
        }
        match snap.get("rnl_tunnel_impair_delay_us", &[("side", "ris")]) {
            Some(rnl_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 4);
                assert_eq!(h.sum, 4 * 3_000);
            }
            other => panic!("missing delay histogram: {other:?}"),
        }
        match snap.get("rnl_tunnel_decoded_msg_bytes", &[("side", "server")]) {
            Some(rnl_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, 4),
            other => panic!("missing decode histogram: {other:?}"),
        }
    }

    #[test]
    fn mem_transport_counts_impairment_drops() {
        let registry = MetricsRegistry::new();
        let profile = Impairment {
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            loss: 1.0,
        };
        let (mut a, _b) = mem_pair(profile, Impairment::PERFECT, 12);
        a.attach_metrics(TransportMetrics::from_registry(&registry, &[]));
        for i in 0..5 {
            a.send(&data(i), t(0)).unwrap();
        }
        assert_eq!(
            registry
                .snapshot()
                .counter("rnl_tunnel_impair_dropped_total", &[]),
            5
        );
    }

    #[test]
    fn tcp_roundtrip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The RIS side dials out.
        let client = std::thread::spawn(move || {
            let mut t_client = TcpTransport::connect(addr).unwrap();
            t_client.send(&data(1), Instant::EPOCH).unwrap();
            // Wait for the reply.
            for _ in 0..1000 {
                let msgs = t_client.poll(Instant::EPOCH).unwrap();
                if !msgs.is_empty() {
                    return msgs;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Vec::new()
        });
        let mut t_server = TcpTransport::accept(&listener).unwrap();
        let mut got = Vec::new();
        for _ in 0..1000 {
            got = t_server.poll(Instant::EPOCH).unwrap();
            if !got.is_empty() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, vec![data(1)]);
        t_server.send(&data(9), Instant::EPOCH).unwrap();
        assert_eq!(client.join().unwrap(), vec![data(9)]);
    }

    #[test]
    fn mem_stall_holds_then_releases_in_order() {
        let (mut a, mut b) = mem_pair_perfect(21);
        let mut plan = FaultPlan::new();
        plan.schedule(FaultKind::Stall, t(10), Duration::from_millis(20));
        a.set_faults(plan);
        a.send(&data(1), t(5)).unwrap();
        a.send(&data(2), t(12)).unwrap();
        a.send(&data(3), t(15)).unwrap();
        assert_eq!(a.stalled(), 2);
        // While the stall is in force, only the pre-stall frame arrives.
        assert_eq!(b.poll(t(20)).unwrap(), vec![data(1)]);
        // Sending after the window flushes held frames first (FIFO).
        a.send(&data(4), t(30)).unwrap();
        assert_eq!(a.stalled(), 0);
        assert_eq!(b.poll(t(30)).unwrap(), vec![data(2), data(3), data(4)]);
    }

    #[test]
    fn mem_partition_eats_and_counts() {
        let registry = MetricsRegistry::new();
        let (mut a, mut b) = mem_pair_perfect(22);
        a.attach_metrics(TransportMetrics::from_registry(&registry, &[]));
        let mut plan = FaultPlan::new();
        plan.schedule(FaultKind::Partition, t(10), Duration::from_millis(10));
        a.set_faults(plan);
        a.send(&data(1), t(0)).unwrap();
        a.send(&data(2), t(15)).unwrap(); // eaten
        a.send(&data(3), t(25)).unwrap();
        assert_eq!(b.poll(t(25)).unwrap(), vec![data(1), data(3)]);
        assert_eq!(a.fault_drops(), 1);
        assert_eq!(
            registry
                .snapshot()
                .counter("rnl_tunnel_fault_dropped_total", &[]),
            1
        );
    }

    #[test]
    fn mem_cut_heals_when_its_window_closes() {
        let (mut a, mut b) = mem_pair_perfect(23);
        let mut plan = FaultPlan::new();
        plan.schedule(FaultKind::Cut, t(10), Duration::from_millis(100));
        a.set_faults(plan);
        a.send(&data(1), t(5)).unwrap();
        // Inside the window: down, sends fail.
        assert!(matches!(
            a.send(&data(2), t(10)),
            Err(TransportError::Closed)
        ));
        assert!(!a.is_connected());
        assert!(matches!(
            a.send(&data(3), t(109)),
            Err(TransportError::Closed)
        ));
        // The window closed: the same endpoint is back without a
        // redial, and traffic flows again.
        a.send(&data(4), t(110)).unwrap();
        assert!(a.is_connected());
        assert_eq!(b.poll(t(110)).unwrap(), vec![data(1), data(4)]);
    }

    #[test]
    fn mem_disconnect_is_permanent_even_past_cut_windows() {
        // hard-close dominates: a healed cut schedule cannot resurrect
        // an endpoint whose peer is actually gone.
        let (mut a, _b) = mem_pair_perfect(25);
        a.disconnect();
        assert!(matches!(
            a.send(&data(1), t(1_000)),
            Err(TransportError::Closed)
        ));
        assert!(!a.is_connected());
    }

    #[test]
    fn mem_peer_drop_drains_before_reporting_closed() {
        let (mut a, mut b) = mem_pair_perfect(24);
        a.send(&data(1), t(0)).unwrap();
        drop(a);
        // The in-flight frame is still delivered...
        assert_eq!(b.poll(t(0)).unwrap(), vec![data(1)]);
        // ...and only then does the endpoint report the close.
        assert!(matches!(b.poll(t(1)), Err(TransportError::Closed)));
        assert!(!b.is_connected());
    }

    #[test]
    fn closed_transport_is_always_closed() {
        let mut c = ClosedTransport;
        assert!(!c.is_connected());
        assert!(matches!(
            c.send(&data(1), t(0)),
            Err(TransportError::Closed)
        ));
        assert!(matches!(c.poll(t(0)), Err(TransportError::Closed)));
    }

    /// The ISSUE's stalled-peer scenario: the peer accepts the connection
    /// and then never reads. The backlog must stay capped at the
    /// high-water mark with the overflow policy applied and counted.
    #[test]
    fn tcp_backlog_bounded_under_stalled_peer() {
        let registry = MetricsRegistry::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut t_client = TcpTransport::connect(addr).unwrap();
        t_client.attach_metrics(TransportMetrics::from_registry(&registry, &[]));
        // Small HWM so the kernel socket buffer can't hide the cap.
        let hwm = 16 * 1024;
        t_client.set_backlog_limit(hwm, OverflowPolicy::DropNewest);
        let (_peer, _) = listener.accept().unwrap(); // accepted, never read
        let big = Msg::Data {
            router: RouterId(1),
            port: PortId(0),
            span: crate::msg::Span::NONE,
            frame: vec![0xab; 4096],
        };
        for _ in 0..8_000 {
            t_client.send(&big, Instant::EPOCH).unwrap();
        }
        assert!(
            t_client.backlog_len() <= hwm,
            "backlog {} exceeds hwm {hwm}",
            t_client.backlog_len()
        );
        assert!(t_client.is_connected(), "DropNewest must not disconnect");
        let snap = registry.snapshot();
        let dropped = snap.counter("rnl_tunnel_backlog_dropped_total", &[]);
        assert!(dropped > 0, "overflow never counted");
        match snap.get("rnl_tunnel_backlog_bytes", &[]) {
            Some(rnl_obs::MetricValue::Gauge(v)) => {
                assert!(*v <= hwm as f64);
            }
            other => panic!("missing backlog gauge: {other:?}"),
        }
    }

    #[test]
    fn tcp_backlog_disconnect_policy() {
        let registry = MetricsRegistry::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut t_client = TcpTransport::connect(addr).unwrap();
        t_client.attach_metrics(TransportMetrics::from_registry(&registry, &[]));
        t_client.set_backlog_limit(16 * 1024, OverflowPolicy::Disconnect);
        let (_peer, _) = listener.accept().unwrap(); // accepted, never read
        let big = Msg::Data {
            router: RouterId(1),
            port: PortId(0),
            span: crate::msg::Span::NONE,
            frame: vec![0xcd; 4096],
        };
        let mut disconnected = false;
        for _ in 0..8_000 {
            if t_client.send(&big, Instant::EPOCH).is_err() {
                disconnected = true;
                break;
            }
        }
        assert!(disconnected, "Disconnect policy never tripped");
        assert!(!t_client.is_connected());
        assert_eq!(
            registry
                .snapshot()
                .counter("rnl_tunnel_backlog_disconnects_total", &[]),
            1
        );
    }

    /// Peer death mid-frame must surface as a truncation error, not a
    /// silent discard of the partial frame.
    #[test]
    fn tcp_eof_mid_frame_reports_truncation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut t_client = TcpTransport::connect(addr).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        // One whole frame, then the first half of a second one, then EOF.
        let whole = FrameCodec::encode(&data(1)).unwrap();
        let torn = FrameCodec::encode(&data(2)).unwrap();
        peer.write_all(&whole).unwrap();
        peer.write_all(&torn[..torn.len() / 2]).unwrap();
        drop(peer);
        // Poll until the close is observed. The complete frame must be
        // delivered; the truncation must surface as a Protocol error.
        let mut got = Vec::new();
        let mut saw_truncation = false;
        for _ in 0..1_000 {
            match t_client.poll(Instant::EPOCH) {
                Ok(msgs) => {
                    got.extend(msgs);
                    if !t_client.is_connected() {
                        // Next poll must report the stashed truncation.
                        match t_client.poll(Instant::EPOCH) {
                            Err(TransportError::Protocol(DecodeError::Truncated)) => {
                                saw_truncation = true;
                            }
                            other => panic!("expected truncation, got {other:?}"),
                        }
                        break;
                    }
                }
                Err(TransportError::Protocol(DecodeError::Truncated)) => {
                    saw_truncation = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, vec![data(1)]);
        assert!(saw_truncation, "partial frame silently discarded");
    }

    /// Clean close (no partial frame) must NOT report truncation — the
    /// distinction is the point.
    #[test]
    fn tcp_clean_eof_is_not_truncation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut t_client = TcpTransport::connect(addr).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(&FrameCodec::encode(&data(1)).unwrap())
            .unwrap();
        drop(peer);
        let mut got = Vec::new();
        for _ in 0..1_000 {
            match t_client.poll(Instant::EPOCH) {
                Ok(msgs) => {
                    got.extend(msgs);
                    if !t_client.is_connected() {
                        // Follow-up poll reports plain Closed, not Protocol.
                        assert!(matches!(
                            t_client.poll(Instant::EPOCH),
                            Err(TransportError::Closed)
                        ));
                        break;
                    }
                }
                Err(e) => panic!("clean close produced {e}"),
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, vec![data(1)]);
    }

    /// The send contract: after an `Err`, the transport is dead and the
    /// message was not accepted; `Ok` means accepted (wire or backlog).
    #[test]
    fn tcp_send_contract_on_dead_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut t_client = TcpTransport::connect(addr).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.shutdown(std::net::Shutdown::Both).unwrap();
        drop(peer);
        // Eventually a send fails; from then on the transport stays dead
        // and every further send is refused (never half-accepted).
        let mut died = false;
        for _ in 0..10_000 {
            if t_client.send(&data(1), Instant::EPOCH).is_err() {
                died = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(died, "send never observed the dead peer");
        assert!(!t_client.is_connected());
        assert!(matches!(
            t_client.send(&data(2), Instant::EPOCH),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn tcp_detects_peer_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut t_client = TcpTransport::connect(addr).unwrap();
        let t_server = TcpTransport::accept(&listener).unwrap();
        drop(t_server);
        // Polling eventually observes the close.
        let mut closed = false;
        for _ in 0..1000 {
            match t_client.poll(Instant::EPOCH) {
                Ok(_) if !t_client.is_connected() => {
                    closed = true;
                    break;
                }
                Err(_) => {
                    closed = true;
                    break;
                }
                Ok(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        assert!(closed, "peer close not detected");
    }

    #[test]
    fn mem_raw_path_matches_msg_path() {
        let (mut a, mut b) = mem_pair_perfect(31);
        let msg = data(7);
        a.send(&msg, t(0)).unwrap();
        a.send_raw(&msg.encode(), t(0)).unwrap();
        let mut batch = FrameBatch::new();
        assert_eq!(b.poll_into(t(0), &mut batch).unwrap(), 2);
        assert_eq!(batch.len(), 2);
        for i in 0..2 {
            assert_eq!(Msg::decode(batch.get(i).unwrap()).unwrap(), msg);
        }
        // Reuse keeps the batch consistent.
        batch.clear();
        assert!(batch.is_empty());
        a.send(&msg, t(1)).unwrap();
        assert_eq!(b.poll_into(t(1), &mut batch).unwrap(), 1);
        assert_eq!(Msg::decode(batch.get_mut(0).unwrap()).unwrap(), msg);
    }

    #[test]
    fn mem_poll_into_reports_closed_like_poll() {
        let (mut a, mut b) = mem_pair_perfect(32);
        a.send(&data(1), t(0)).unwrap();
        drop(a);
        let mut batch = FrameBatch::new();
        // In-flight frame drains first, then the close surfaces.
        assert_eq!(b.poll_into(t(0), &mut batch).unwrap(), 1);
        assert!(matches!(
            b.poll_into(t(1), &mut batch),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn oversize_send_is_refused_but_not_fatal() {
        let (mut a, mut b) = mem_pair_perfect(33);
        let over = Msg::Data {
            router: RouterId(1),
            port: PortId(0),
            span: crate::msg::Span::NONE,
            frame: vec![0; crate::codec::MAX_FRAME + 1],
        };
        assert!(matches!(
            a.send(&over, t(0)),
            Err(TransportError::Encode(_))
        ));
        // The connection survives the refused message.
        assert!(a.is_connected());
        a.send(&data(1), t(0)).unwrap();
        assert_eq!(b.poll(t(0)).unwrap(), vec![data(1)]);
    }

    #[test]
    fn tcp_send_raw_flushes_on_flush() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut t_client = TcpTransport::connect(addr).unwrap();
        let mut t_server = TcpTransport::accept(&listener).unwrap();
        let msg = data(5);
        t_client.send_raw(&msg.encode(), Instant::EPOCH).unwrap();
        t_client.flush(Instant::EPOCH).unwrap();
        let mut batch = FrameBatch::new();
        for _ in 0..1000 {
            if t_server.poll_into(Instant::EPOCH, &mut batch).unwrap() > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(batch.len(), 1);
        assert_eq!(Msg::decode(batch.get(0).unwrap()).unwrap(), msg);
        let huge = vec![0u8; crate::codec::MAX_FRAME + 1];
        assert!(matches!(
            t_client.send_raw(&huge, Instant::EPOCH),
            Err(TransportError::Encode(_))
        ));
        assert!(t_client.is_connected());
    }
}
