//! Scaffolding shared by the zero-allocation relay tests: a counting
//! `#[global_allocator]` over the system allocator, and scripted
//! transports whose receive side appends pre-encoded bodies into the
//! reusable [`FrameBatch`] and whose transmit side swallows raw frames
//! without allocating — so every allocation observed during a measured
//! window is the server's own.
//!
//! Each test file that includes this module holds a single test: the
//! allocator count is process-global, and a concurrent test thread
//! would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rnl_net::time::{Duration, Instant};
use rnl_server::design::Design;
use rnl_server::RouteServer;
use rnl_tunnel::msg::{ImageRegion, Msg, PortId, PortInfo, RegisterInfo, RouterId, RouterInfo};
use rnl_tunnel::transport::{FrameBatch, Transport, TransportError};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A transport whose inbound side replays pre-encoded frame bodies
/// (`per_poll` at a time) and whose outbound side counts raw sends
/// without touching the heap.
struct Scripted {
    frames: Vec<Vec<u8>>,
    cursor: usize,
    per_poll: Arc<AtomicUsize>,
    raw_sent: Arc<AtomicU64>,
}

impl Scripted {
    fn new(frames: Vec<Vec<u8>>) -> (Scripted, Arc<AtomicUsize>, Arc<AtomicU64>) {
        let per_poll = Arc::new(AtomicUsize::new(1));
        let raw_sent = Arc::new(AtomicU64::new(0));
        (
            Scripted {
                frames,
                cursor: 0,
                per_poll: per_poll.clone(),
                raw_sent: raw_sent.clone(),
            },
            per_poll,
            raw_sent,
        )
    }
}

impl Transport for Scripted {
    fn send(&mut self, _msg: &Msg, _now: Instant) -> Result<(), TransportError> {
        // Acks and control pushes are swallowed (registration only).
        Ok(())
    }

    fn send_raw(&mut self, body: &[u8], _now: Instant) -> Result<(), TransportError> {
        // The relay's forward lands here: count it, allocate nothing.
        let _ = body.len();
        self.raw_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn poll(&mut self, _now: Instant) -> Result<Vec<Msg>, TransportError> {
        Ok(Vec::new())
    }

    fn poll_into(
        &mut self,
        _now: Instant,
        batch: &mut FrameBatch,
    ) -> Result<usize, TransportError> {
        let burst = self.per_poll.load(Ordering::Relaxed);
        let mut appended = 0;
        while appended < burst && self.cursor < self.frames.len() {
            batch.push(&self.frames[self.cursor]);
            self.cursor += 1;
            appended += 1;
        }
        Ok(appended)
    }

    fn is_connected(&self) -> bool {
        true
    }
}

fn register_frame(pc: &str) -> Vec<u8> {
    Msg::Register(RegisterInfo {
        pc_name: pc.to_string(),
        epoch: Default::default(),
        routers: vec![RouterInfo {
            local_id: 0,
            description: "alloc port".to_string(),
            model: "alloc".to_string(),
            image: "alloc.png".to_string(),
            ports: vec![PortInfo {
                description: "p0".to_string(),
                nic: "nic0".to_string(),
                region: ImageRegion::default(),
            }],
            console_com: None,
        }],
    })
    .encode()
}

/// Frames the warm-up relays before any window is measured: enough for
/// the frame batch, codec scratch, journal ring, quantile levels,
/// wire-metric handles and scratch vectors to reach capacity.
pub const WARM: u64 = 9_200;

/// A two-session lab, router 0 port 0 wired to router 1 port 0, whose
/// first session replays a script of pre-encoded data frames.
pub struct Rig {
    pub server: RouteServer,
    now: Instant,
    raw_sent: Arc<AtomicU64>,
}

/// Build the rig around `frames` (encoded bodies from router 0 port 0,
/// all produced before the server exists) and warm it up with the first
/// [`WARM`] of them.
pub fn warmed_rig(frames: Vec<Vec<u8>>, configure: impl FnOnce(&mut RouteServer)) -> Rig {
    let mut source_frames = vec![register_frame("alloc-src")];
    source_frames.extend(frames);
    let (source, per_poll, _) = Scripted::new(source_frames);
    let (sink, _, raw_sent) = Scripted::new(vec![register_frame("alloc-dst")]);

    let mut server = RouteServer::new();
    server.set_enforce_reservations(false);
    // Scripted spans carry origin_us = 0, so observed latency grows
    // with the virtual clock; park the slow threshold out of reach so
    // the flight-recorder path (which allocates on capture by design)
    // never triggers inside a measured window.
    server.set_slow_threshold("relay", u64::MAX);
    configure(&mut server);
    server.attach(Box::new(source));
    server.attach(Box::new(sink));

    // First poll: per_poll is 1, so exactly the two Register frames
    // land and both routers exist before any data flows.
    let now = Instant::EPOCH + Duration::from_millis(1);
    server.poll(now);
    let ids: Vec<RouterId> = server.inventory().list().map(|r| r.id).collect();
    assert_eq!(ids.len(), 2, "registration did not land");
    let mut design = Design::new("alloc");
    design.add_device(ids[0]);
    design.add_device(ids[1]);
    design
        .connect((ids[0], PortId(0)), (ids[1], PortId(0)))
        .expect("connect");
    server.deploy_design("alloc", &design, now).expect("deploy");

    per_poll.store(32, Ordering::Relaxed);
    let mut rig = Rig {
        server,
        now,
        raw_sent,
    };
    rig.relay(WARM);
    rig
}

impl Rig {
    /// Poll until at least `frames` more have left through the sink's
    /// `send_raw`; returns how many did and how many allocations the
    /// whole process made meanwhile.
    pub fn relay(&mut self, frames: u64) -> (u64, u64) {
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let sent_before = self.raw_sent.load(Ordering::Relaxed);
        while self.raw_sent.load(Ordering::Relaxed) < sent_before + frames {
            self.now += Duration::from_millis(1);
            self.server.poll(self.now);
        }
        (
            self.raw_sent.load(Ordering::Relaxed) - sent_before,
            ALLOCATIONS.load(Ordering::Relaxed) - allocs_before,
        )
    }
}
