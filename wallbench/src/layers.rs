//! The per-layer ledger (`--trace 1`): where the end-to-end numbers
//! come from, layer by layer, named by module.
//!
//! Four sources, all driven from this file (spans inside the crates are
//! a later change):
//!
//! 1. the **real stack** for a short `light` phase — counters scraped
//!    from the child's metrics port before and after, `/proc/<pid>`
//!    readings, and the `oneway_p50_us` / `api_op_p50_ms` the residual
//!    rows are taken against;
//! 2. an **in-process composition** of the same crates on `TcpTransport`
//!    loopback pairs, the benchmark owning the loop
//!    `ris_a.poll → server.poll → ris_b.poll` with no sleeps, spans
//!    around each call — once with one frame in flight (the ledger: one
//!    frame's busy time per layer), once saturated (per-frame amortised
//!    cost), and once more untraced (`trace.overhead_pct`);
//! 3. **control-plane calls** on an in-process server (`web::handle_json`,
//!    journal, snapshot, recovery, verifier);
//! 4. **micro-benchmarks** of the leaf modules at the workload's frame
//!    size.
//!
//! The ledger sums by construction: the in-flight-1 loop time per frame
//! is split into the self times of its spans, and `server.loop_wait_us`
//! is `oneway_p50_us` minus that sum — sleep wait, kernel and scheduling,
//! the row a reactor removes.

use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;

use rnl_device::device::Device;
use rnl_device::host::Host;
use rnl_device::router::Router;
use rnl_device::switch::Switch;
use rnl_l1switch::L1Switch;
use rnl_net::addr::MacAddr;
use rnl_net::build::{self, Classified};
use rnl_net::time::{Duration, Instant};
use rnl_obs::{
    EventJournal, FrameEvent, Hop, MetricsRegistry, PerfPoint, QuantileSketch, Span, TraceId,
};
use rnl_server::journal::{Durability, FileJournal};
use rnl_server::json::Json;
use rnl_server::overload::OverloadConfig;
use rnl_server::{web, RouteServer};
use rnl_tunnel::codec::FrameCodec;
use rnl_tunnel::compress::{Compressor, Decompressor};
use rnl_tunnel::msg::{Msg, PortId, RouterId};
use rnl_tunnel::transport::{
    mem_pair_perfect, FrameBatch, TcpTransport, Transport, TransportMetrics,
};

use crate::e2e::{
    deploy_request, design_and_deploy, design_json, metric, Dirs, Lab, Metric, Outcome, Sites,
    Workload, IN_FLIGHT,
};
use crate::probe::{template, Clock, SplitMix};
use crate::stack::{parse_reply, reply_ok, req, wipe};
use crate::stats::{median, typical, Better};
use crate::trace::{allocations, SpanName, Totals, Tracer};

/// Share of `--seconds` for the real stack's idle window and light
/// phase, each of the four in-process phases (one frame in flight,
/// then saturated; traced, then untraced), and all micro-benchmarks
/// together.
const IDLE_SHARE: f64 = 0.08;
const LIGHT_SHARE: f64 = 0.28;
const INPROC_SHARE: f64 = 0.07;
const MICRO_SHARE: f64 = 0.30;
/// Micro-benchmark slices the `MICRO_SHARE` is divided into.
const MICRO_SLICES: f64 = 34.0;

// ---------------------------------------------------------------------
// In-process composition
// ---------------------------------------------------------------------

/// The crates of the Fig. 4 path composed in this process: one
/// `RouteServer`, the generator's two RISes, real loopback TCP between
/// them, and the benchmark owning the loop.
struct Inproc {
    clock: Clock,
    server: RouteServer,
    sites: Sites,
    tracer: Arc<Tracer>,
    span_loop: SpanName,
    span_ris_a: SpanName,
    span_server: SpanName,
    span_ris_b: SpanName,
    main: (u32, u32),
    hosts: Vec<(u32, u32)>,
}

impl Inproc {
    fn up(
        w: &Workload,
        clock: Clock,
        seed: u64,
        tracer: Arc<Tracer>,
        journal_dir: Option<&Path>,
    ) -> Result<Inproc, String> {
        let mut server = match journal_dir {
            Some(dir) => {
                wipe(dir)?;
                let wal = FileJournal::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                let mut server = RouteServer::recover(Box::new(wal), clock.now())
                    .map_err(|e| format!("fresh journaled server: {e}"))?;
                // No compaction behind the benchmark's back.
                server.set_snapshot_every(Duration::from_secs(86_400));
                server
            }
            None => RouteServer::new(),
        };
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let sites = Sites::build(w, clock, seed, Some(&tracer), true, || {
            let ris_side = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let server_side =
                TcpTransport::accept(&listener).map_err(|e| format!("accept: {e}"))?;
            server.attach(Box::new(server_side));
            Ok(Box::new(ris_side) as Box<dyn Transport>)
        })?;
        let mut inproc = Inproc {
            clock,
            span_loop: tracer.name("loop"),
            span_ris_a: tracer.name("ris_a.poll"),
            span_server: tracer.name("server.poll"),
            span_ris_b: tracer.name("ris_b.poll"),
            server,
            sites,
            tracer,
            main: (0, 0),
            hosts: Vec::new(),
        };
        inproc.turn_until("registration", |p| {
            p.sites.ris_a.registered() && p.sites.ris_b.registered()
        })?;
        let ids = design_and_deploy(clock, |request| inproc.api(&request))?;
        inproc.main = ids.main;
        inproc.hosts = ids.pairs;
        inproc.sites.main.send_now(1);
        inproc.turn_until("the first frame", |p| p.sites.main.delivered() == 1)?;
        Ok(inproc)
    }

    /// One turn of the benchmark-owned loop, a span around every call.
    fn turn(&mut self) -> Result<(), String> {
        let now = self.clock.now();
        let t = &self.tracer;
        t.next_batch();
        t.enter(self.span_loop);
        let a = t.span(self.span_ris_a, || self.sites.ris_a.poll(now));
        t.span(self.span_server, || self.server.poll(now));
        let b = t.span(self.span_ris_b, || self.sites.ris_b.poll(now));
        t.exit();
        a.map_err(|e| format!("gen-a: {e}"))?;
        b.map_err(|e| format!("gen-b: {e}"))
    }

    fn turn_until(&mut self, what: &str, done: impl Fn(&Inproc) -> bool) -> Result<(), String> {
        let deadline = self.clock.ns() + 5_000_000_000;
        while !done(self) {
            if self.clock.ns() > deadline {
                return Err(format!("in-process stack: timed out waiting for {what}"));
            }
            self.turn()?;
        }
        Ok(())
    }

    /// One web op straight into `web::handle_json`; must answer `ok`.
    fn api(&mut self, request: &Json) -> Result<Json, String> {
        let line = request.encode();
        let reply = web::handle_json(&mut self.server, &line, self.clock.now());
        if reply_ok(&reply) {
            parse_reply(&reply)
        } else {
            Err(format!("in-process {line} -> {reply}"))
        }
    }

    /// Closed loop with `in_flight` frames outstanding for `secs`.
    /// Returns what the loop did and what its spans cost.
    fn closed_loop(&mut self, in_flight: u64, secs: f64) -> Result<LoopCost, String> {
        let routed = self
            .server
            .obs()
            .counter("rnl_server_frames_routed_total", &[]);
        let names = [
            "loop",
            "ris_a.poll",
            "server.poll",
            "ris_b.poll",
            "gen.source",
            "gen.sink",
        ];
        let before = names.map(|n| self.tracer.totals(n));
        let delivered0 = self.sites.main.delivered();
        let (mut busy_polls, mut last_routed) = (0u64, routed.get());
        let start = self.clock.ns();
        let end = self.sites.main.start_closed(in_flight, secs, 1);
        while self.clock.ns() < end {
            self.turn()?;
            let now_routed = routed.get();
            busy_polls += u64::from(now_routed != last_routed);
            last_routed = now_routed;
        }
        let elapsed_ns = self.clock.ns() - start;
        self.sites.main.stop();
        let frames = self.sites.main.delivered() - delivered0;
        self.turn_until("the closed loop to drain", |p| {
            p.sites.main.delivered() == p.sites.main.sent()
        })?;
        self.sites.main.take_phase();
        if frames == 0 {
            return Err("in-process closed loop delivered no frame".to_string());
        }
        let after = names.map(|n| self.tracer.totals(n));
        let delta = |i: usize| Totals {
            count: after[i].count - before[i].count,
            total_ns: after[i].total_ns - before[i].total_ns,
            child_ns: after[i].child_ns - before[i].child_ns,
            allocs: after[i].allocs - before[i].allocs,
            child_allocs: after[i].child_allocs - before[i].child_allocs,
        };
        Ok(LoopCost {
            frames,
            elapsed_ns,
            busy_server_polls: busy_polls.max(1),
            spans: [0, 1, 2, 3, 4, 5].map(delta),
        })
    }
}

/// Span totals of one closed-loop phase: `[loop, ris_a.poll,
/// server.poll, ris_b.poll, gen.source, gen.sink]`.
struct LoopCost {
    frames: u64,
    elapsed_ns: u64,
    busy_server_polls: u64,
    spans: [Totals; 6],
}

impl LoopCost {
    fn self_ns_per_frame(&self, i: usize) -> f64 {
        self.spans[i].self_ns() as f64 / self.frames as f64
    }

    fn self_allocs_per_frame(&self, i: usize) -> f64 {
        self.spans[i].self_allocs() as f64 / self.frames as f64
    }

    fn frames_per_s(&self) -> f64 {
        self.frames as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

// ---------------------------------------------------------------------
// Micro-benchmarks
// ---------------------------------------------------------------------

/// Times closures in fixed slices of the micro-benchmark budget.
struct Micro {
    clock: Clock,
    slice_ns: u64,
}

impl Micro {
    /// `(ns per call, allocations per call)` of `f`: batches sized to
    /// about 0.2 ms, as many as fit the slice, median over batches.
    fn per_call(&self, mut f: impl FnMut()) -> (f64, f64) {
        let mut batch = 1u64;
        loop {
            let t0 = self.clock.ns();
            (0..batch).for_each(|_| f());
            if self.clock.ns() - t0 >= 200_000 || batch >= 1 << 24 {
                break;
            }
            batch *= 2;
        }
        let mut per_call = Vec::with_capacity(4096);
        let (end, allocs0) = (self.clock.ns() + self.slice_ns, allocations());
        while self.clock.ns() < end || per_call.len() < 3 {
            let t0 = self.clock.ns();
            (0..batch).for_each(|_| f());
            per_call.push((self.clock.ns() - t0) as f64 / batch as f64);
        }
        let calls = per_call.len() as u64 * batch;
        (
            median(&per_call).expect("at least three batches"),
            (allocations() - allocs0) as f64 / calls as f64,
        )
    }

    fn ns(&self, f: impl FnMut()) -> f64 {
        self.per_call(f).0
    }
}

fn data_msg(frame: Vec<u8>) -> Msg {
    Msg::Data {
        router: RouterId(1),
        port: PortId(0),
        span: Span::NONE,
        frame,
    }
}

/// `tunnel.codec.*`, `tunnel.msg.*`, `tunnel.compress.*` at the
/// workload's frame size.
fn bench_tunnel_codecs(
    m: &Micro,
    frame: &[u8],
    seed: u64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let msg = data_msg(frame.to_vec());
    let wire = FrameCodec::encode(&msg).map_err(|e| format!("encode: {e}"))?;
    let body = msg.encode();

    let (encode_ns, encode_allocs) = m.per_call(|| {
        black_box(FrameCodec::encode(black_box(&msg)).is_ok());
    });
    let mut codec = FrameCodec::new();
    let (decode_ns, decode_allocs) = m.per_call(|| {
        codec.feed(black_box(&wire));
        black_box(codec.next_frame().is_ok_and(|f| f.is_some()));
    });
    out.push(metric("tunnel.codec.encode_ns", encode_ns, "ns"));
    out.push(metric("tunnel.codec.decode_ns", decode_ns, "ns"));
    out.push(metric(
        "tunnel.codec.allocs_per_frame",
        encode_allocs + decode_allocs,
        "count",
    ));
    out.push(metric(
        "tunnel.msg.encode_ns",
        m.ns(|| {
            black_box(black_box(&msg).encode());
        }),
        "ns",
    ));
    out.push(metric(
        "tunnel.msg.decode_ns",
        m.ns(|| {
            black_box(Msg::decode(black_box(&body)).is_ok());
        }),
        "ns",
    ));

    // A template-similar stream: the frame with a changing 20-byte stamp,
    // as the probe source produces it.
    let mut rng = SplitMix(seed);
    let stream: Vec<Vec<u8>> = (0..256)
        .map(|_| {
            let mut f = frame.to_vec();
            for b in &mut f[42..62] {
                *b = rng.next() as u8;
            }
            f
        })
        .collect();
    let mut compressor = Compressor::new();
    let mut i = 0usize;
    let (c_encode_ns, c_encode_allocs) = m.per_call(|| {
        black_box(compressor.encode(&stream[i % stream.len()]));
        i += 1;
    });
    // Decode replays one encoded pass, a fresh ring per pass.
    let mut encoder = Compressor::new();
    let encoded: Vec<Vec<u8>> = stream.iter().map(|f| encoder.encode(f)).collect();
    let (mut decompressor, mut j, mut desync) = (Decompressor::new(), 0usize, false);
    let (c_decode_ns, c_decode_allocs) = m.per_call(|| {
        if j == encoded.len() {
            (decompressor, j) = (Decompressor::new(), 0);
        }
        desync |= decompressor.decode(&encoded[j]).is_err();
        j += 1;
    });
    if desync {
        return Err("tunnel.compress: decoder lost sync with its own encoder".to_string());
    }
    out.push(metric("tunnel.compress.encode_ns", c_encode_ns, "ns"));
    out.push(metric("tunnel.compress.decode_ns", c_decode_ns, "ns"));
    out.push(metric("tunnel.compress.ratio", encoder.ratio(), "ratio"));
    out.push(metric(
        "tunnel.compress.allocs_per_frame",
        c_encode_allocs + c_decode_allocs,
        "count",
    ));
    Ok(())
}

/// `tunnel.tcp.*` on a loopback pair and `tunnel.mem.*` on an
/// in-memory pair: rounds of 64 frames, sender and receiver timed
/// apart, median over rounds.
fn bench_transports(m: &Micro, frame: &[u8], out: &mut Vec<Metric>) -> Result<(), String> {
    const ROUND: usize = 64;
    let tcp = |e: rnl_tunnel::transport::TransportError| format!("tunnel.tcp: {e}");
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let mut tx = TcpTransport::connect(addr).map_err(tcp)?;
    let mut rx = TcpTransport::accept(&listener).map_err(tcp)?;
    let registry = MetricsRegistry::new();
    tx.attach_metrics(TransportMetrics::from_registry(&registry, &[]));
    let msg = data_msg(frame.to_vec());
    let body = msg.encode();
    let now = m.clock.now();
    let mut batch = FrameBatch::new();
    let drain = |rx: &mut TcpTransport, batch: &mut FrameBatch| -> Result<f64, String> {
        let t0 = m.clock.ns();
        let mut got = 0;
        while got < ROUND {
            batch.clear();
            got += rx.poll_into(now, batch).map_err(tcp)?;
        }
        Ok((m.clock.ns() - t0) as f64 / ROUND as f64)
    };
    let (mut send, mut send_raw, mut flush, mut poll_into) = (vec![], vec![], vec![], vec![]);
    let mut backlog_peak = 0usize;
    // Three of the budget's slices: send, send_raw + flush, poll_into.
    let end = m.clock.ns() + 3 * m.slice_ns;
    while m.clock.ns() < end {
        let t0 = m.clock.ns();
        for _ in 0..ROUND {
            tx.send(&msg, now).map_err(tcp)?;
        }
        send.push((m.clock.ns() - t0) as f64 / ROUND as f64);
        poll_into.push(drain(&mut rx, &mut batch)?);

        let t0 = m.clock.ns();
        for _ in 0..ROUND {
            tx.send_raw(&body, now).map_err(tcp)?;
        }
        let t1 = m.clock.ns();
        backlog_peak = backlog_peak.max(tx.backlog_len());
        tx.flush(now).map_err(tcp)?;
        let t2 = m.clock.ns();
        send_raw.push((t1 - t0) as f64 / ROUND as f64);
        flush.push((t2 - t1) as f64 / ROUND as f64);
        poll_into.push(drain(&mut rx, &mut batch)?);
    }
    let med = |v: &[f64]| median(v).expect("at least one round");
    out.push(metric("tunnel.tcp.send_ns", med(&send), "ns"));
    out.push(metric("tunnel.tcp.send_raw_ns", med(&send_raw), "ns"));
    out.push(metric("tunnel.tcp.flush_ns_per_frame", med(&flush), "ns"));
    out.push(metric(
        "tunnel.tcp.poll_into_ns_per_frame",
        med(&poll_into),
        "ns",
    ));
    let mut poll_error = None;
    out.push(metric(
        "tunnel.tcp.idle_poll_ns",
        m.ns(|| {
            batch.clear();
            if let Err(e) = rx.poll_into(now, &mut batch) {
                poll_error = Some(e);
            }
        }),
        "ns",
    ));
    if let Some(e) = poll_error {
        return Err(tcp(e));
    }
    out.push(metric(
        "tunnel.tcp.backlog_peak_bytes",
        backlog_peak as f64,
        "B",
    ));
    out.push(metric(
        "tunnel.tcp.backlog_dropped",
        registry.counter_sum("rnl_tunnel_backlog_dropped_total") as f64,
        "count",
    ));

    let (mut a, mut b) = mem_pair_perfect(1);
    let (mut mem_send, mut mem_poll) = (vec![], vec![]);
    let end = m.clock.ns() + m.slice_ns;
    while m.clock.ns() < end {
        let t0 = m.clock.ns();
        for _ in 0..ROUND {
            a.send(&msg, now).map_err(|e| format!("tunnel.mem: {e}"))?;
        }
        let t1 = m.clock.ns();
        let got = b.poll(now).map_err(|e| format!("tunnel.mem: {e}"))?.len();
        let t2 = m.clock.ns();
        if got != ROUND {
            return Err(format!("tunnel.mem: {got} of {ROUND} frames arrived"));
        }
        mem_send.push((t1 - t0) as f64 / ROUND as f64);
        mem_poll.push((t2 - t1) as f64 / ROUND as f64);
    }
    out.push(metric("tunnel.mem.send_ns", med(&mem_send), "ns"));
    out.push(metric("tunnel.mem.poll_ns_per_frame", med(&mem_poll), "ns"));
    Ok(())
}

/// Feed `frame` into `port` and answer any ARP request the device sends
/// back (as `peer_mac`), until it emits something else; that emission
/// count is returned. Settles ARP caches before a device is timed.
fn settle(
    device: &mut dyn Device,
    port: usize,
    frame: &[u8],
    peer_mac: MacAddr,
    now: Instant,
) -> usize {
    for _ in 0..4 {
        let emissions = device.on_frame(port, frame, now);
        let mut other = 0;
        for e in &emissions {
            match build::classify(&e.frame) {
                Ok((_, Classified::Arp(request))) => {
                    device.on_frame(e.port, &build::arp_reply(&request, peer_mac), now);
                }
                _ => other += 1,
            }
        }
        if other > 0 {
            return other;
        }
    }
    0
}

/// `l1switch.*`, `device.*`, `net.*`: the device models a ping crosses.
fn bench_devices(m: &Micro, frame_len: usize, out: &mut Vec<Metric>) -> Result<(), String> {
    let now = Instant::EPOCH + Duration::from_secs(120);
    let addr = |s: &str| s.parse().expect("literal address");
    let (mac_a, mac_b) = (MacAddr::derived(0xa, 0), MacAddr::derived(0xb, 0));

    let mut l1 = L1Switch::new(4);
    l1.bridge(0, 1).map_err(|e| format!("l1switch: {e:?}"))?;
    out.push(metric(
        "l1switch.ingress_ns",
        m.ns(|| {
            black_box(l1.ingress(black_box(0)));
        }),
        "ns",
    ));

    let mut router = Router::new("r", 1, 2);
    router.set_interface_ip(0, "10.0.0.254/24".parse().expect("literal CIDR"));
    router.set_interface_ip(1, "10.0.1.254/24".parse().expect("literal CIDR"));
    let routed = build::udp_frame(
        mac_a,
        router.interface_mac(0),
        addr("10.0.0.1"),
        addr("10.0.1.2"),
        7,
        7,
        &[0u8; 22],
        64,
    );
    if settle(&mut router, 0, &routed, mac_b, now) != 1 {
        return Err("device.router: a routed frame did not come out once".to_string());
    }
    out.push(metric(
        "device.router.hop_ns",
        m.ns(|| {
            black_box(router.on_frame(0, black_box(&routed), now));
        }),
        "ns",
    ));

    let mut host = Host::new("h", 2);
    host.set_ip("10.0.0.2/24".parse().expect("literal CIDR"));
    let echo = build::icmp_echo_request(
        mac_a,
        host.mac(),
        addr("10.0.0.1"),
        addr("10.0.0.2"),
        1,
        1,
        b"rnl-ping",
        64,
    );
    if settle(&mut host, 0, &echo, mac_a, now) != 1 {
        return Err("device.host: an echo request was not answered once".to_string());
    }
    out.push(metric(
        "device.host.echo_ns",
        m.ns(|| {
            black_box(host.on_frame(0, black_box(&echo), now));
        }),
        "ns",
    ));

    // Spanning tree (on by default) walks listening → learning →
    // forwarding in 15 s steps; tick it through its first two minutes.
    let mut switch = Switch::new("sw", 3, 4, Instant::EPOCH);
    for s in 0..=120 {
        switch.tick(Instant::EPOCH + Duration::from_secs(s));
    }
    let eth =
        |src, dst| build::ethernet_frame(src, dst, rnl_net::addr::EtherType::Ipv4, &[0u8; 50]);
    let (a_to_b, b_to_a) = (eth(mac_a, mac_b), eth(mac_b, mac_a));
    switch.on_frame(0, &a_to_b, now);
    switch.on_frame(1, &b_to_a, now);
    if switch.on_frame(0, &a_to_b, now).len() != 1 {
        return Err("device.switch: a known unicast was not forwarded to one port".to_string());
    }
    out.push(metric(
        "device.switch.forward_ns",
        m.ns(|| {
            black_box(switch.on_frame(0, black_box(&a_to_b), now));
        }),
        "ns",
    ));

    let payload = vec![0x5au8; frame_len - 42];
    out.push(metric(
        "net.build.udp_ns",
        m.ns(|| {
            black_box(build::udp_frame(
                mac_a,
                mac_b,
                addr("10.0.0.1"),
                addr("10.0.0.2"),
                7,
                7,
                black_box(&payload),
                64,
            ));
        }),
        "ns",
    ));
    let kb = vec![0xa5u8; 1024];
    out.push(metric(
        "net.checksum.ns_per_kb",
        m.ns(|| {
            black_box(rnl_net::checksum::checksum(black_box(&kb)));
        }),
        "ns",
    ));
    Ok(())
}

/// `obs.*`: what one observation costs the hot path that makes it.
fn bench_obs(m: &Micro, out: &mut Vec<Metric>) {
    let registry = MetricsRegistry::new();
    let point = PerfPoint::new(&registry, "wallbench", &["phase"]);
    out.push(metric(
        "obs.perfscope_ns",
        m.ns(|| {
            let mut scope = point.scope();
            scope.mark("phase");
            scope.finish();
        }),
        "ns",
    ));
    let journal = EventJournal::new(4096);
    out.push(metric(
        "obs.journal.record_ns",
        m.ns(|| {
            journal.record(black_box(FrameEvent {
                trace: TraceId::NONE,
                t_us: 1,
                hop: Hop::ServerRx,
                router: 1,
                port: 0,
                bytes: 64,
            }));
        }),
        "ns",
    ));
    let mut sketch = QuantileSketch::new(rnl_obs::DEFAULT_SKETCH_K);
    let mut v = 0u64;
    out.push(metric(
        "obs.sketch.observe_ns",
        m.ns(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            sketch.observe(black_box(v >> 44));
        }),
        "ns",
    ));
}

/// `server.web.*`, `server.json.*`, `analysis.*`, `server.idle_poll_ns`,
/// `server.matrix.lookup_ns`, `ris.idle_poll_ns`: calls into an idle
/// in-process stack (journaled when the workload's server is). Returns
/// the mean busy time of the `server.web.*` ops, µs.
fn bench_control_plane(m: &Micro, ctl: &mut Inproc, out: &mut Vec<Metric>) -> Result<f64, String> {
    let now = ctl.clock.now();
    // Back-to-back ops at memory speed would drain the admission
    // buckets (10 k tokens/s per principal) within a slice; the cost of
    // admission itself stays in the timed path.
    const AMPLE: u64 = 1 << 40;
    ctl.server.set_overload_config(
        OverloadConfig {
            capacity: AMPLE,
            refill_per_sec: AMPLE,
            session_capacity: AMPLE,
            session_refill_per_sec: AMPLE,
            ..OverloadConfig::default()
        },
        now,
    );
    let mut failure: Option<String> = None;
    let mut call = |ctl: &mut Inproc, line: &str| -> Option<Json> {
        let reply = web::handle_json(&mut ctl.server, line, now);
        match parse_reply(&reply) {
            Ok(json) if reply_ok(&reply) => Some(json),
            _ => {
                failure.get_or_insert(format!("{line} -> {reply}"));
                None
            }
        }
    };

    let first_web = out.len();
    let list = req("list_inventory", []).encode();
    let us = |ns: f64| ns / 1e3;
    out.push(metric(
        "server.web.list_inventory_us",
        us(m.ns(|| {
            black_box(call(ctl, &list));
        })),
        "us",
    ));

    // deploy and teardown alternate; each is timed on its own.
    let deploy = deploy_request("cycle").encode();
    let (mut deploy_ns, mut teardown_ns) = (vec![], vec![]);
    let end = m.clock.ns() + 2 * m.slice_ns;
    while m.clock.ns() < end || deploy_ns.len() < 3 {
        let t0 = m.clock.ns();
        let reply = call(ctl, &deploy);
        let t1 = m.clock.ns();
        let Some(id) = reply.as_ref().and_then(|r| r.get("deployment")?.as_u64()) else {
            break;
        };
        let teardown = req("teardown", [("deployment", Json::Num(id as f64))]).encode();
        let t2 = m.clock.ns();
        call(ctl, &teardown);
        teardown_ns.push((m.clock.ns() - t2) as f64);
        deploy_ns.push((t1 - t0) as f64);
    }
    out.push(metric(
        "server.web.deploy_us",
        us(median(&deploy_ns).unwrap_or(0.0)),
        "us",
    ));
    out.push(metric(
        "server.web.teardown_us",
        us(median(&teardown_ns).unwrap_or(0.0)),
        "us",
    ));

    // console: the op returns once the line is on its way to the RIS;
    // every 64 lines the stack turns and the mailbox is emptied.
    let sink = ctl.main.1;
    let console = req(
        "console",
        [
            ("router", Json::num(sink)),
            ("line", Json::str("show probe")),
        ],
    )
    .encode();
    let (mut console_ns, mut turn_error) = (vec![], None);
    let end = m.clock.ns() + m.slice_ns;
    while m.clock.ns() < end && turn_error.is_none() {
        let t0 = m.clock.ns();
        for _ in 0..64 {
            call(ctl, &console);
        }
        console_ns.push((m.clock.ns() - t0) as f64 / 64.0);
        for _ in 0..4 {
            turn_error = turn_error.or(ctl.turn().err());
        }
        ctl.server.console_replies(RouterId(sink));
    }
    if let Some(e) = turn_error {
        return Err(e);
    }
    out.push(metric(
        "server.web.console_us",
        us(median(&console_ns).unwrap_or(0.0)),
        "us",
    ));
    if let Some(f) = failure {
        return Err(format!("in-process web op failed: {f}"));
    }
    // Mean busy time of the four web ops timed so far.
    let web = &out[first_web..];
    let web_mean_us = web.iter().map(|m| m.value).sum::<f64>() / web.len() as f64;

    let import = req(
        "import_design",
        [("design", design_json("hosts", &ctl.hosts))],
    )
    .encode();
    let parse_ns = m.ns(|| {
        black_box(Json::parse(black_box(&import)).is_ok());
    });
    out.push(metric(
        "server.json.parse_ns_per_kb",
        parse_ns * 1024.0 / import.len() as f64,
        "ns",
    ));
    out.push(metric(
        "analysis.verify_design_us",
        us(m.ns(|| {
            black_box(ctl.server.verify_saved_design("hosts").is_ok());
        })),
        "us",
    ));
    out.push(metric(
        "server.idle_poll_ns",
        m.ns(|| ctl.server.poll(now)),
        "ns",
    ));
    let from = (RouterId(ctl.main.0), PortId(0));
    if ctl.server.matrix().lookup(from).is_none() {
        return Err("server.matrix: the deployed main wire has no entry".to_string());
    }
    out.push(metric(
        "server.matrix.lookup_ns",
        m.ns(|| {
            black_box(ctl.server.matrix().lookup(black_box(from)));
        }),
        "ns",
    ));
    let mut poll_error = None;
    out.push(metric(
        "ris.idle_poll_ns",
        m.ns(|| poll_error = poll_error.take().or(ctl.sites.ris_b.poll(now).err())),
        "ns",
    ));
    match poll_error {
        Some(e) => Err(format!("ris.idle_poll: {e}")),
        None => Ok(web_mean_us),
    }
}

/// `server.journal.*`, `server.snapshot_ms`, `server.recover_ms_per_kop`
/// against a real `FileJournal` (fsync on every append) under the
/// benchmark's out directory.
fn bench_durability(
    m: &Micro,
    w: &Workload,
    dirs: &Dirs,
    seed: u64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let raw_dir = dirs.out.join("trace-journal");
    wipe(&raw_dir)?;
    let mut wal = FileJournal::open(&raw_dir).map_err(|e| format!("{}: {e}", raw_dir.display()))?;
    let payload = [0x42u8; 256];
    let mut append_error = None;
    let append_ns = m.ns(|| append_error = append_error.take().or(wal.append(&payload).err()));
    if let Some(e) = append_error {
        return Err(format!("server.journal.append: {e}"));
    }
    out.push(metric("server.journal.append_us", append_ns / 1e3, "us"));
    drop(wal);
    wipe(&raw_dir)?;

    let dir = dirs.out.join("trace-state");
    let tracer = Arc::new(Tracer::new(m.clock, false));
    let mut stack = Inproc::up(w, m.clock, seed, tracer, Some(&dir))?;
    let appends = stack
        .server
        .obs()
        .counter("rnl_server_journal_appends_total", &[]);
    let before = appends.get();
    let deployment = stack
        .api(&deploy_request("cycle"))?
        .get("deployment")
        .and_then(Json::as_u64)
        .ok_or("deploy reply without an id")?;
    out.push(metric(
        "server.journal.appends_per_deploy",
        (appends.get() - before) as f64,
        "count",
    ));
    stack.api(&req(
        "teardown",
        [("deployment", Json::Num(deployment as f64))],
    ))?;

    let mut snapshot_error = None;
    let now = m.clock.now();
    let snapshot_ns = m.ns(|| {
        snapshot_error = snapshot_error
            .take()
            .or(stack.server.snapshot_now(now).err())
    });
    if let Some(e) = snapshot_error {
        return Err(format!("server.snapshot: {e}"));
    }
    out.push(metric("server.snapshot_ms", snapshot_ns / 1e6, "ms"));

    // A journal tail of design writes behind the last snapshot, then a
    // timed recovery of it.
    const OPS: u64 = 200;
    for k in 0..OPS {
        stack.api(&req(
            "create_design",
            [("name", Json::str(format!("replay-{k}")))],
        ))?;
    }
    drop(stack);
    let wal = FileJournal::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = m.clock.ns();
    let recovered = RouteServer::recover(Box::new(wal), m.clock.now())
        .map_err(|e| format!("server.recover: {e}"))?;
    let recover_ns = m.clock.ns() - t0;
    let replayed = recovered
        .obs()
        .snapshot()
        .counter("rnl_server_journal_replayed_total", &[]);
    if replayed < OPS {
        return Err(format!(
            "server.recover: replayed {replayed} of {OPS} journal records"
        ));
    }
    out.push(metric(
        "server.recover_ms_per_kop",
        recover_ns as f64 / 1e6 * 1_000.0 / replayed as f64,
        "ms",
    ));
    drop(recovered);
    wipe(&dir)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Run one workload's per-layer ledger and report every per-layer
/// metric of `BENCHMARK.json`.
pub fn run(w: &Workload, dirs: &Dirs, seed: u64, seconds: f64) -> Result<Outcome, String> {
    std::fs::create_dir_all(&dirs.out).map_err(|e| format!("{}: {e}", dirs.out.display()))?;
    let clock = Clock::start();
    let mut out = Outcome::default();
    let mut metrics = Vec::new();

    // ---- 1. the real stack: idle burn, then a light phase -----------
    let mut lab = Lab::up(w, dirs, clock, seed)?;
    let idle = lab.idle(IDLE_SHARE * seconds)?;
    let scrape = |lab: &Lab| -> Result<[f64; 4], String> {
        Ok([
            lab.server.scrape_sum("rnl_server_frames_routed_total")?,
            lab.server.scrape_sum("rnl_server_frames_unrouted_total")?,
            lab.server.scrape_sum("rnl_server_shed_total")?,
            lab.server.scrape_sum("rnl_server_journal_appends_total")?,
        ])
    };
    let before = scrape(&lab)?;
    let light = lab.light(w, seed, LIGHT_SHARE * seconds)?;
    let after = scrape(&lab)?;
    let relay_q50 = lab
        .server
        .scrape_sum("rnl_server_relay_latency_us_quantile{quantile=\"0.5\"}")?;
    let rss_kb = lab.server.proc.status_field("VmRSS")?;
    lab.account(&light, &mut out);
    drop(lab);
    let oneway_p50_us =
        typical(&light.oneway_p50_us, Better::Lower).ok_or("real stack: no one-way samples")?;
    let api_p50_ms =
        typical(&light.api_p50_ms, Better::Lower).ok_or("real stack: no API samples")?;

    metrics.push(metric("gen.late_p99_us", light.late_p99_us, "us"));
    metrics.push(metric("gen.polls_per_s", light.polls_per_s, "1/s"));
    for (name, i) in [
        ("server.frames_routed", 0),
        ("server.frames_unrouted", 1),
        ("server.shed_total", 2),
        ("server.journal_appends", 3),
    ] {
        metrics.push(metric(name, after[i] - before[i], "count"));
    }
    metrics.push(metric("server.relay_latency_q50_us", relay_q50, "us"));
    metrics.push(metric("proc.server.cpu_idle_pct", idle.server_cpu_pct, "%"));
    metrics.push(metric("proc.ris.cpu_idle_pct", idle.ris_cpu_pct, "%"));
    metrics.push(metric(
        "proc.stack.cpu_light_pct",
        typical(&light.stack_cpu_pct, Better::Lower).ok_or("real stack: no CPU samples")?,
        "%",
    ));
    metrics.push(metric("proc.server.rss_kb", rss_kb as f64, "kB"));
    metrics.push(metric(
        "proc.server.wakeups_per_s",
        idle.server_wakeups_per_s,
        "1/s",
    ));

    // ---- 2. the in-process composition, traced and untraced ---------
    let phase_s = INPROC_SHARE * seconds;
    let tracer = Arc::new(Tracer::new(clock, true));
    let mut traced = Inproc::up(w, clock, seed, Arc::clone(&tracer), None)?;
    let single = traced.closed_loop(1, phase_s)?;
    let sat = traced.closed_loop(IN_FLIGHT, phase_s)?;
    let render_ns = {
        let t0 = clock.ns();
        black_box(rnl_obs::render_prometheus(&traced.server.obs().snapshot()));
        clock.ns() - t0
    };
    let (sent, delivered) = (traced.sites.main.sent(), traced.sites.main.delivered());
    let (rejected, first) = traced.sites.main.mismatched();
    drop(traced);
    let mut untraced = Inproc::up(w, clock, seed, Arc::new(Tracer::new(clock, false)), None)?;
    // Same history as the traced stack: a loopback connection that has
    // carried one-frame-at-a-time traffic costs 2.5 us per `write`
    // afterwards, a fresh one 1 us, whatever is traced.
    untraced.closed_loop(1, phase_s)?;
    let untraced_sat = untraced.closed_loop(IN_FLIGHT, phase_s)?;
    drop(untraced);
    out.attempted += sent;
    out.failed += sent - delivered;
    if let (1.., Some(first)) = (rejected, first) {
        out.failures.push(format!(
            "in-process: {rejected} frames rejected, first: {first}"
        ));
    }
    tracer.write(&dirs.out.join(format!("trace_{}.json", w.name)))?;

    // Amortised per-frame cost at saturation.
    metrics.push(metric(
        "ris.up_ns_per_frame",
        sat.self_ns_per_frame(1),
        "ns",
    ));
    metrics.push(metric(
        "ris.down_ns_per_frame",
        sat.self_ns_per_frame(3),
        "ns",
    ));
    metrics.push(metric(
        "ris.allocs_per_frame",
        sat.self_allocs_per_frame(1) + sat.self_allocs_per_frame(3),
        "count",
    ));
    metrics.push(metric(
        "server.relay_ns_per_frame",
        sat.self_ns_per_frame(2),
        "ns",
    ));
    metrics.push(metric(
        "server.relay_allocs_per_frame",
        sat.self_allocs_per_frame(2),
        "count",
    ));
    metrics.push(metric(
        "server.frames_per_poll",
        sat.frames as f64 / sat.busy_server_polls as f64,
        "count",
    ));
    metrics.push(metric(
        "gen.source_ns_per_frame",
        sat.self_ns_per_frame(4),
        "ns",
    ));
    metrics.push(metric(
        "gen.sink_ns_per_frame",
        sat.self_ns_per_frame(5),
        "ns",
    ));
    metrics.push(metric(
        "inproc.sat_frames_per_s",
        untraced_sat.frames_per_s(),
        "1/s",
    ));
    metrics.push(metric(
        "trace.overhead_pct",
        (1.0 - sat.frames_per_s() / untraced_sat.frames_per_s()) * 100.0,
        "%",
    ));
    metrics.push(metric(
        "obs.render_prometheus_us",
        render_ns as f64 / 1e3,
        "us",
    ));

    // The ledger: one frame in flight, so the loop time per frame is one
    // frame's busy path, split by span self time; the residual against
    // the real binaries' one-way median is what waits, not what works.
    let ledger_us = |i: usize| single.self_ns_per_frame(i) / 1e3;
    let rows = [
        ("ledger.gen_source_us", ledger_us(4)),
        ("ledger.ris_up_us", ledger_us(1)),
        ("ledger.server_relay_us", ledger_us(2)),
        ("ledger.ris_down_us", ledger_us(3)),
        ("ledger.gen_sink_us", ledger_us(5)),
        ("ledger.loop_us", ledger_us(0)),
    ];
    let busy_us: f64 = rows.iter().map(|r| r.1).sum();
    metrics.extend(rows.map(|(name, v)| metric(name, v, "us")));
    metrics.push(metric("ledger.busy_us", busy_us, "us"));
    metrics.push(metric("ledger.oneway_p50_us", oneway_p50_us, "us"));
    metrics.push(metric("server.loop_wait_us", oneway_p50_us - busy_us, "us"));

    // ---- 3. control plane, 4. leaf modules ---------------------------
    let micro = Micro {
        clock,
        slice_ns: (MICRO_SHARE * seconds / MICRO_SLICES * 1e9) as u64,
    };
    let ctl_dir = dirs.out.join("trace-ctl-state");
    let mut ctl = Inproc::up(
        w,
        clock,
        seed,
        Arc::new(Tracer::new(clock, false)),
        w.journal.then_some(ctl_dir.as_path()),
    )?;
    let web_busy_us = bench_control_plane(&micro, &mut ctl, &mut metrics)?;
    drop(ctl);
    wipe(&ctl_dir)?;
    // The 44 ms row: what an API op waits on the wire beyond the work
    // the server does for it.
    metrics.push(metric(
        "server.api_wire_wait_ms",
        api_p50_ms - web_busy_us / 1e3,
        "ms",
    ));
    bench_durability(&micro, w, dirs, seed, &mut metrics)?;
    let frame = template(w.frame_len, seed);
    bench_tunnel_codecs(&micro, &frame, seed, &mut metrics)?;
    bench_transports(&micro, &frame, &mut metrics)?;
    bench_devices(&micro, w.frame_len, &mut metrics)?;
    bench_obs(&micro, &mut metrics);

    out.info = vec![
        metric("ops_attempted", out.attempted as f64, "count"),
        metric("ops_failed", out.failed as f64, "count"),
        metric("ledger.api_op_p50_ms", api_p50_ms, "ms"),
    ];
    out.metrics = metrics;
    Ok(out)
}
