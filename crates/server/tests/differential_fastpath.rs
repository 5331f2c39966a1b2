//! Differential tests: a frame is relayed the same way however it
//! reached the server.
//!
//! The relay is one routine over one carrier — an encoded `Msg::Data`
//! body, borrowed, patched in place and `send_raw`'d. A plain frame
//! arrives as that body; a `Msg::DataCompressed` frame is first
//! expanded into a server-owned scratch that carries the same header.
//! Which happens is decided by the input alone, so each scenario drives
//! the *same* seeded workload — impaired links, scheduled fault
//! windows, mixed data/heartbeat traffic, a cut with a later rejoin
//! that flushes the replay buffer — once per ingress encoding and
//! compares everything either side can observe: the decoded messages
//! every endpoint received (destinations, spans, payloads), the
//! server's Fig. 4 hop journal, the `FromPort`/`ToPort` capture taps,
//! and the relay counters. A golden assertion pins the shared middle to
//! the hop sequence it must produce, so it is checked by something
//! other than itself.

use proptest::prelude::*;
use rnl_net::time::{Duration, Instant};
use rnl_obs::{FrameEvent, Hop, Span, TraceIdGen};
use rnl_server::capture::{CaptureDir, CapturedFrame};
use rnl_server::design::Design;
use rnl_server::RouteServer;
use rnl_tunnel::compress::{Compressor, Decompressor};
use rnl_tunnel::faults::{FaultKind, FaultPlan};
use rnl_tunnel::impair::Impairment;
use rnl_tunnel::msg::{
    ImageRegion, Msg, PortId, PortInfo, RegisterInfo, RouterId, RouterInfo, SessionEpoch,
};
use rnl_tunnel::transport::{mem_pair, MemTransport, Transport};

/// How endpoint a puts its frames on the tunnel.
#[derive(Debug, Clone, Copy)]
enum Ingress {
    /// `Msg::Data`: relayed from the receive batch.
    Plain,
    /// `Msg::DataCompressed`: expanded into the server's scratch, then
    /// relayed from there.
    Compressed,
}

/// One deterministic workload, fully described by plain data so both
/// runs replay it identically.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    /// 0 = perfect, 1 = metro. Both are lossless (registration always
    /// converges; drops come from scheduled fault windows instead) and
    /// size-independent, so a compressed frame and its plain twin see
    /// the same delays and the relay quantiles are comparable.
    impair: u8,
    frames: usize,
    frame_len: usize,
    step_us: u64,
    /// Every n-th tick also sends a heartbeat (0 = never) — control
    /// traffic interleaved with the relay.
    heartbeat_every: usize,
    /// Seeded stall/partition windows on the server side of the
    /// receiving session, spread over the traffic phase.
    fault_windows: usize,
    /// Cut the receiving session mid-traffic (it is graced; relayed
    /// frames queue in its replay buffer) and rejoin it on a fresh
    /// transport once the traffic stops (the buffer flushes).
    cut: bool,
    /// Both routers behind ONE session: the wire rides the L1 bridge
    /// instead of the matrix.
    colocated: bool,
    /// §4 toward the RIS: the server compresses what it relays, and
    /// the endpoints expand it again before comparing.
    compress_downstream: bool,
}

/// Everything observable from one run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every message endpoint a received, in order.
    rx_a: Vec<Msg>,
    /// Every message endpoint b received (across its rejoin), in order.
    rx_b: Vec<Msg>,
    journal: Vec<FrameEvent>,
    /// What the capture taps on both ends of the wire saw.
    taps: Vec<CapturedFrame>,
    frames_routed: u64,
    frames_unrouted: u64,
    bytes_relayed: u64,
    frames_bridged: u64,
    relay_p50_us: Option<u64>,
    relay_p99_us: Option<u64>,
}

impl Observed {
    /// The relayed data frames, wherever they were delivered.
    fn delivered(&self) -> Vec<&Msg> {
        self.rx_a
            .iter()
            .chain(&self.rx_b)
            .filter(|m| matches!(m, Msg::Data { .. }))
            .collect()
    }
}

fn router_info(local_id: u32) -> RouterInfo {
    RouterInfo {
        local_id,
        description: "diff port".to_string(),
        model: "diff".to_string(),
        image: "diff.png".to_string(),
        ports: vec![PortInfo {
            description: "p0".to_string(),
            nic: "nic0".to_string(),
            region: ImageRegion::default(),
        }],
        console_com: None,
    }
}

fn register(pc: &str, routers: u32, generation: u64) -> Msg {
    Msg::Register(RegisterInfo {
        pc_name: pc.to_string(),
        epoch: SessionEpoch {
            token: 0xd1ff,
            generation,
        },
        routers: (0..routers).map(router_info).collect(),
    })
}

/// Receive everything deliverable, expanding compressed data frames
/// the way the endpoint's RIS would (one stream per endpoint here).
fn drain(t: &mut MemTransport, now: Instant, expand: &mut Decompressor, into: &mut Vec<Msg>) {
    for msg in t.poll(now).unwrap_or_default() {
        into.push(match msg {
            Msg::DataCompressed {
                router,
                port,
                span,
                encoded,
            } => Msg::Data {
                router,
                port,
                span,
                frame: expand.decode(&encoded).expect("downstream stream in sync"),
            },
            other => other,
        });
    }
}

fn run(s: &Scenario, ingress: Ingress) -> Observed {
    let impairment = match s.impair {
        0 => Impairment::PERFECT,
        _ => Impairment::metro(),
    };
    let mut server = RouteServer::new();
    server.set_enforce_reservations(false);
    server.set_compress_downstream(s.compress_downstream);
    let (mut expand_a, mut expand_b) = (Decompressor::new(), Decompressor::new());
    let (mut a, sa) = mem_pair(impairment, impairment, s.seed);
    let (mut b, mut sb) = mem_pair(impairment, impairment, s.seed.wrapping_add(1));
    // Fault windows start well after the registration phase (which
    // takes at most 1 virtual second below) and land on the traffic.
    let fault_start = Instant::EPOCH + Duration::from_secs(2);
    let traffic = Duration::from_micros(s.frames as u64 * s.step_us);
    let mut plan = FaultPlan::random(
        s.seed ^ 0x5eed,
        fault_start,
        traffic,
        s.fault_windows,
        Duration::from_millis(5),
    );
    if s.cut {
        plan.schedule(
            FaultKind::Cut,
            fault_start + Duration::from_micros(traffic.as_micros() / 2),
            Duration::from_millis(10),
        );
    }
    sb.set_faults(plan);
    server.attach(Box::new(sa));
    let mut now = Instant::EPOCH;
    let mut rx_a = Vec::new();
    let mut rx_b = Vec::new();
    if s.colocated {
        a.send(&register("diff-a", 2, 0), now).expect("send");
    } else {
        server.attach(Box::new(sb));
        a.send(&register("diff-a", 1, 0), now).expect("send");
        b.send(&register("diff-b", 1, 0), now).expect("send");
    }
    for _ in 0..1000 {
        now += Duration::from_millis(1);
        server.poll(now);
        if server.inventory().list().count() == 2 {
            break;
        }
    }
    let ids: Vec<RouterId> = server.inventory().list().map(|r| r.id).collect();
    assert_eq!(ids.len(), 2, "registration did not converge");
    let (ra, rb) = (ids[0], ids[1]);
    let mut design = Design::new("diff");
    design.add_device(ra);
    design.add_device(rb);
    design
        .connect((ra, PortId(0)), (rb, PortId(0)))
        .expect("connect");
    server.deploy_design("diff", &design, now).expect("deploy");
    server.captures_mut().start(ra, PortId(0));
    server.captures_mut().start(rb, PortId(0));
    drain(&mut a, now, &mut expand_a, &mut rx_a);
    drain(&mut b, now, &mut expand_b, &mut rx_b);
    // Jump to the fault horizon so scheduled windows and the traffic
    // phase line up deterministically across runs.
    now = fault_start;
    let mut gen = TraceIdGen::new("diff");
    let mut compressor = Compressor::new();
    for i in 0..s.frames {
        now += Duration::from_micros(s.step_us);
        let span = Span {
            trace: gen.allocate(),
            origin_us: now.as_micros(),
        };
        // Template-similar frames: the tail is constant, the head
        // carries the sequence number.
        let mut frame = vec![0xA5u8; s.frame_len];
        if let Some(first) = frame.first_mut() {
            *first = i as u8;
        }
        let msg = match ingress {
            Ingress::Plain => Msg::Data {
                router: ra,
                port: PortId(0),
                span,
                frame,
            },
            Ingress::Compressed => Msg::DataCompressed {
                router: ra,
                port: PortId(0),
                span,
                encoded: compressor.encode(&frame),
            },
        };
        a.send(&msg, now).expect("send");
        if s.heartbeat_every > 0 && i % s.heartbeat_every == 0 {
            a.send(
                &Msg::Heartbeat {
                    seq: i as u64,
                    epoch: 0,
                },
                now,
            )
            .expect("send");
        }
        server.poll(now);
        drain(&mut a, now, &mut expand_a, &mut rx_a);
        drain(&mut b, now, &mut expand_b, &mut rx_b);
    }
    // The cut session comes back on a fresh transport with the same
    // token and the next generation: the server re-adopts it and
    // flushes whatever its replay buffer held.
    let mut rejoined = None;
    if s.cut && !s.colocated {
        let (mut b2, sb2) = mem_pair(impairment, impairment, s.seed.wrapping_add(2));
        server.attach(Box::new(sb2));
        b2.send(&register("diff-b", 1, 1), now).expect("send");
        rejoined = Some(b2);
    }
    // Fixed-length drain phase: identical tick schedule regardless of
    // what either run did, so a divergence shows up as a difference,
    // never as a hang.
    for _ in 0..400 {
        now += Duration::from_millis(1);
        server.poll(now);
        drain(&mut a, now, &mut expand_a, &mut rx_a);
        drain(&mut b, now, &mut expand_b, &mut rx_b);
        if let Some(b2) = rejoined.as_mut() {
            drain(b2, now, &mut expand_b, &mut rx_b);
        }
    }
    let stats = server.stats();
    let snap = server.obs().snapshot();
    let q = snap
        .quantile("rnl_server_relay_latency_us_quantile", &[])
        .cloned()
        .unwrap_or_default();
    Observed {
        rx_a,
        rx_b,
        journal: server.journal().events(),
        taps: [ra, rb]
            .iter()
            .flat_map(|r| server.captures().captured(*r, PortId(0)).to_vec())
            .collect(),
        frames_routed: stats.frames_routed,
        frames_unrouted: stats.frames_unrouted,
        bytes_relayed: stats.bytes_relayed,
        frames_bridged: server.frames_bridged(),
        relay_p50_us: q.quantile(0.5),
        relay_p99_us: q.quantile(0.99),
    }
}

/// The golden hop sequence: a frame the relay sent on carries exactly
/// server-rx at its source, matrix-hit and server-tx at its
/// destination, all stamped with the payload length. Holds whenever no
/// session is graced (a replayed frame is delivered by the flush, which
/// journals nothing).
fn assert_golden_journal(o: &Observed) {
    for msg in o.delivered() {
        let Msg::Data {
            router,
            port,
            span,
            frame,
        } = msg
        else {
            unreachable!("delivered() yields data frames only");
        };
        let hops: Vec<(Hop, u32, u16, u32)> = o
            .journal
            .iter()
            .filter(|e| e.trace == span.trace)
            .map(|e| (e.hop, e.router, e.port, e.bytes))
            .collect();
        let len = frame.len() as u32;
        // Traffic flows one way: first registered router → second.
        assert_eq!(router.0, 1, "destination not patched");
        assert_eq!(
            hops,
            vec![
                (Hop::ServerRx, 0, port.0, len),
                (Hop::MatrixHit, router.0, port.0, len),
                (Hop::ServerTx, router.0, port.0, len),
            ],
            "journal of trace {:?}",
            span.trace
        );
    }
}

proptest! {
    /// Identical deliveries, spans, hop journal, taps, counters and
    /// quantiles between plain and compressed ingress, under
    /// impairment, mixed traffic, fault windows and a mid-run cut with
    /// rejoin.
    #[test]
    fn ingress_encodings_are_observably_identical(
        seed in any::<u64>(),
        impair in 0u8..2,
        frames in 1usize..40,
        frame_len in 0usize..300,
        step_us in 100u64..2_000,
        heartbeat_every in 0usize..5,
        fault_windows in 0usize..4,
        cut in any::<bool>(),
    ) {
        let scenario = Scenario {
            seed,
            impair,
            frames,
            frame_len,
            step_us,
            heartbeat_every,
            fault_windows,
            cut,
            colocated: false,
            compress_downstream: false,
        };
        let plain = run(&scenario, Ingress::Plain);
        let compressed = run(&scenario, Ingress::Compressed);
        prop_assert_eq!(&plain.rx_b, &compressed.rx_b, "frames delivered to b diverge");
        prop_assert_eq!(&plain.rx_a, &compressed.rx_a, "frames delivered to a diverge");
        prop_assert_eq!(&plain.journal, &compressed.journal, "hop journal diverges");
        prop_assert_eq!(&plain.taps, &compressed.taps, "capture taps diverge");
        prop_assert_eq!(&plain, &compressed);
        if !cut {
            assert_golden_journal(&plain);
            assert_golden_journal(&compressed);
        }
    }
}

/// A cut that lands mid-traffic really does exercise the replay path
/// for both ingress encodings: frames are held while the session is
/// graced and reach the rejoined endpoint afterwards.
#[test]
fn cut_and_rejoin_flushes_the_replay_buffer_for_both_ingress_encodings() {
    let scenario = Scenario {
        seed: 11,
        impair: 1,
        frames: 30,
        frame_len: 120,
        step_us: 1_000,
        heartbeat_every: 3,
        fault_windows: 0,
        cut: true,
        colocated: false,
        compress_downstream: false,
    };
    let plain = run(&scenario, Ingress::Plain);
    let compressed = run(&scenario, Ingress::Compressed);
    assert_eq!(plain, compressed);
    let delivered = plain.delivered().len() as u64;
    assert!(
        delivered > plain.frames_routed,
        "some frames must arrive via the replay flush: {delivered} delivered, {} sent live",
        plain.frames_routed
    );
}

#[test]
fn colocated_wire_rides_l1_bridge_and_matches_the_matrix_wire() {
    let matrix = Scenario {
        seed: 0xd1ff,
        impair: 1,
        frames: 50,
        frame_len: 64,
        step_us: 500,
        heartbeat_every: 0,
        fault_windows: 0,
        cut: false,
        colocated: false,
        compress_downstream: false,
    };
    let bridge = Scenario {
        colocated: true,
        ..matrix.clone()
    };
    let split = run(&matrix, Ingress::Plain);
    assert_eq!(
        split.frames_bridged, 0,
        "a cross-session wire has no bridge"
    );
    for ingress in [Ingress::Plain, Ingress::Compressed] {
        let colo = run(&bridge, ingress);
        assert!(
            colo.frames_bridged >= 50,
            "{ingress:?}: the co-located wire should ride the L1 bridge, got {}",
            colo.frames_bridged
        );
        assert!(colo.frames_routed >= 50, "frames must still relay");
        assert_eq!(
            colo.delivered(),
            split.delivered(),
            "{ingress:?}: L1-bridged delivery diverges from the matrix wire"
        );
        assert_eq!(colo.journal, split.journal);
        assert_eq!(
            (colo.frames_routed, colo.frames_unrouted, colo.bytes_relayed),
            (
                split.frames_routed,
                split.frames_unrouted,
                split.bytes_relayed
            )
        );
        assert_golden_journal(&colo);
    }
}

/// Delivered frames arrive with the destination endpoint patched in —
/// the in-place rewrite, not a stale source header.
#[test]
fn fastpath_patches_destination_in_place() {
    let scenario = Scenario {
        seed: 7,
        impair: 0,
        frames: 5,
        frame_len: 32,
        step_us: 500,
        heartbeat_every: 0,
        fault_windows: 0,
        cut: false,
        colocated: false,
        compress_downstream: false,
    };
    let observed = run(&scenario, Ingress::Plain);
    assert_eq!(observed.delivered().len(), 5);
    // Destination router is the second registered id, never the
    // source's — checked per frame alongside its hop journal.
    assert_golden_journal(&observed);
}

/// A compressed frame crosses the same Fig. 4 middle as a plain one:
/// `ServerRx → MatrixHit → ServerTx` stamped with one constant byte
/// count — the *expanded* payload's — and both capture taps see the
/// expanded payload, never the delta. The same holds with §4 switched
/// on toward the RIS as well, where the frame leaves compressed again.
#[test]
fn compressed_ingress_keeps_the_golden_hops_and_taps_the_expanded_payload() {
    let upstream_only = Scenario {
        seed: 15,
        impair: 0,
        frames: 24,
        frame_len: 180,
        step_us: 500,
        heartbeat_every: 4,
        fault_windows: 0,
        cut: false,
        colocated: false,
        compress_downstream: false,
    };
    let both_ways = Scenario {
        compress_downstream: true,
        ..upstream_only.clone()
    };
    let plain = run(&upstream_only, Ingress::Plain);
    for (scenario, ingress) in [
        (&upstream_only, Ingress::Compressed),
        (&both_ways, Ingress::Plain),
        (&both_ways, Ingress::Compressed),
    ] {
        let observed = run(scenario, ingress);
        assert_eq!(observed.delivered().len(), 24);
        assert_golden_journal(&observed);
        assert!(observed.journal.iter().all(|e| e.bytes == 180));
        // Per frame: FromPort at the source, ToPort at the destination,
        // both holding the frame as the device emitted it.
        let sent: Vec<&[u8]> = observed
            .delivered()
            .into_iter()
            .map(|m| match m {
                Msg::Data { frame, .. } => frame.as_slice(),
                _ => unreachable!("delivered() yields data frames only"),
            })
            .collect();
        for (router, dir) in [(0, CaptureDir::FromPort), (1, CaptureDir::ToPort)] {
            let seen: Vec<&[u8]> = observed
                .taps
                .iter()
                .filter(|t| t.router == RouterId(router))
                .map(|t| {
                    assert_eq!(t.dir, dir);
                    t.frame.as_slice()
                })
                .collect();
            assert_eq!(seen, sent, "{ingress:?}: {dir:?} tap on router {router}");
        }
        assert_eq!(observed, plain, "{ingress:?} / {scenario:?}");
    }
}
