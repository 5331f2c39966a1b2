//! Seeded chaos property test (fault-injection satellite): drive a
//! `MemTransport` link through randomized stall and partition windows
//! plus probabilistic loss, on the virtual clock, and assert the two
//! invariants the resilience work depends on:
//!
//! 1. **Accounting** — every frame handed to `send` is either delivered
//!    or sits in exactly one drop counter (impairment loss or partition
//!    drops). No frame vanishes uncounted, no frame is double-counted.
//! 2. **Order and uniqueness** — delivered frames arrive in send order
//!    with no duplicates (the link may drop, but never reorders or
//!    replays).
//!
//! Every run is a pure function of the proptest-chosen seeds: failures
//! replay exactly.

use proptest::prelude::*;
use rnl_net::time::{Duration, Instant};
use rnl_tunnel::impair::Impairment;
use rnl_tunnel::msg::{Msg, PortId, RouterId, Span};
use rnl_tunnel::transport::{mem_pair, mem_pair_perfect, Transport, TransportError};
use rnl_tunnel::{FaultKind, FaultPlan};

/// The sent sequence number rides in the frame payload.
fn frame_with_seq(seq: u32) -> Vec<u8> {
    let mut f = vec![0u8; 64];
    f[..4].copy_from_slice(&seq.to_be_bytes());
    f
}

fn seq_of(frame: &[u8]) -> u32 {
    u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]])
}

proptest! {
    #[test]
    fn chaos_link_accounts_for_every_frame(
        seed in 0u64..10_000,
        n in 20usize..120,
        loss_step in 0u32..3,
        nwin in 0usize..6,
    ) {
        let loss = f64::from(loss_step) * 0.1;
        // Constant delay (no jitter): the link may drop but must not
        // reorder, so delivered sequence numbers stay monotonic.
        let imp = Impairment {
            delay: Duration::from_millis(2),
            jitter: Duration::ZERO,
            loss,
        };
        let (mut a, mut b) = mem_pair(imp, Impairment::PERFECT, seed);
        let horizon = Duration::from_millis(n as u64);
        a.set_faults(FaultPlan::random(
            seed ^ 0x9e37_79b9,
            Instant::EPOCH,
            horizon,
            nwin,
            Duration::from_millis(25),
        ));

        let mut sent = 0u64;
        let mut delivered: Vec<u32> = Vec::new();
        for i in 0..n {
            let now = Instant::EPOCH + Duration::from_millis(i as u64);
            let msg = Msg::Data {
                router: RouterId(1),
                port: PortId(0),
                span: Span::NONE,
                frame: frame_with_seq(i as u32),
            };
            // No Cut windows are scheduled, so the link never dies and
            // send always accepts (stall holds, partition sheds).
            a.send(&msg, now).expect("non-cut chaos link accepts");
            sent += 1;
            for m in b.poll(now).expect("receiver healthy") {
                if let Msg::Data { frame, .. } = m {
                    delivered.push(seq_of(&frame));
                }
            }
        }
        // Drain: move past every fault window so stall buffers release
        // (the release re-enters the delay line), then past the link
        // delay so everything in flight lands.
        let end = Instant::EPOCH + horizon + Duration::from_millis(100);
        a.poll(end).expect("sender healthy");
        let settle = end + Duration::from_millis(50);
        a.poll(settle).expect("sender healthy");
        for m in b.poll(settle).expect("receiver healthy") {
            if let Msg::Data { frame, .. } = m {
                delivered.push(seq_of(&frame));
            }
        }
        prop_assert_eq!(a.stalled(), 0, "no frame left behind in a stall buffer");

        // Invariant 1: accounting. Everything sent is delivered or in
        // exactly one drop counter.
        let (_, impair_dropped) = a.impair_counters();
        prop_assert_eq!(
            sent,
            delivered.len() as u64 + impair_dropped + a.fault_drops(),
            "sent {} != delivered {} + loss {} + partition {}",
            sent,
            delivered.len(),
            impair_dropped,
            a.fault_drops()
        );

        // Invariant 2: in order, no duplicates.
        for w in delivered.windows(2) {
            prop_assert!(w[0] < w[1], "reordered or duplicated: {} then {}", w[0], w[1]);
        }
    }
}

proptest! {
    /// Mesh switchover chaos: drive a [`MeshPath`] pair through
    /// repeated cut windows (each forcing a `Direct → Relay` failover
    /// and a failback on heal) plus random stall/partition windows and
    /// probabilistic loss, and assert the zero-loss handoff invariant:
    /// every data frame offered to the path is either *accepted* onto
    /// the direct transport — where it is delivered, impairment-
    /// dropped, fault-dropped, or stalled, per the transport ledger —
    /// or *refused* so the caller relays it. No third outcome, no
    /// frame silently lost across any number of flips.
    #[test]
    fn mesh_switchover_accounts_for_every_frame(
        seed in 0u64..10_000,
        cuts in 1usize..4,
        cut_ms in 100u64..800,
        loss_step in 0u32..3,
        nwin in 0usize..5,
    ) {
        use rnl_obs::MetricsRegistry;
        use rnl_tunnel::mesh::{MeshPath, PathState};

        let loss = f64::from(loss_step) * 0.1;
        let imp = Impairment {
            delay: Duration::from_millis(2),
            jitter: Duration::ZERO,
            loss,
        };
        let (mut ta, tb) = mem_pair(imp, Impairment::PERFECT, seed);
        let horizon_ms = cuts as u64 * 2_000 + 2_000;

        // Explicit cut windows force the flips (random() never cuts);
        // random stall/partition windows ride along. Cuts are spaced
        // 2 s apart so probes heal the path between them.
        let mut plan = FaultPlan::random(
            seed ^ 0x6d65_7368,
            Instant::EPOCH,
            Duration::from_millis(horizon_ms),
            nwin,
            Duration::from_millis(25),
        );
        for i in 0..cuts {
            plan.schedule(
                FaultKind::Cut,
                Instant::EPOCH + Duration::from_millis(i as u64 * 2_000 + 500),
                Duration::from_millis(cut_ms),
            );
        }
        ta.set_faults(plan);

        let obs = MetricsRegistry::new();
        let t0 = Instant::EPOCH;
        let mut a = MeshPath::new(9, 0xbeef, Box::new(ta), seed, &obs, t0);
        let mut b = MeshPath::new(9, 0xbeef, Box::new(tb), seed ^ 1, &obs, t0);

        let mut offered = 0u64;
        let mut accepted: Vec<u32> = Vec::new();
        let mut relayed = 0u64;
        let mut delivered: Vec<u32> = Vec::new();
        let mut fail_overs = 0u64;
        let mut fail_backs = 0u64;
        let mut prev = a.state();
        for ms in (0..horizon_ms).step_by(10) {
            let now = Instant::EPOCH + Duration::from_millis(ms);
            let seq = (ms / 10) as u32;
            let msg = Msg::Data {
                router: RouterId(1),
                port: PortId(0),
                span: Span::NONE,
                frame: frame_with_seq(seq),
            };
            offered += 1;
            if a.send_data(&msg, now) {
                accepted.push(seq);
            } else {
                // Refused: not enqueued, the caller's relay carries it.
                relayed += 1;
            }
            a.tick(now);
            for m in b.tick(now) {
                if let Msg::Data { frame, .. } = m {
                    delivered.push(seq_of(&frame));
                }
            }
            match (prev, a.state()) {
                (PathState::Direct, PathState::Relay) => fail_overs += 1,
                (PathState::Relay, PathState::Direct) => fail_backs += 1,
                _ => {}
            }
            prev = a.state();
        }
        // Settle: past every fault window and the link delay, so
        // in-flight frames land and both ends heal back to Direct.
        for ms in [horizon_ms + 100, horizon_ms + 1_000, horizon_ms + 1_500] {
            let now = Instant::EPOCH + Duration::from_millis(ms);
            a.tick(now);
            for m in b.tick(now) {
                if let Msg::Data { frame, .. } = m {
                    delivered.push(seq_of(&frame));
                }
            }
        }

        // The handoff is total: accepted or refused-to-relay, nothing
        // else, and the path's own count agrees.
        prop_assert_eq!(offered, accepted.len() as u64 + relayed);
        prop_assert_eq!(a.data_sent(), accepted.len() as u64);
        prop_assert!(fail_overs >= cuts as u64, "every cut forces a failover");
        prop_assert!(fail_backs >= cuts as u64, "every heal fails back");
        prop_assert_eq!(a.state(), PathState::Direct);
        prop_assert_eq!(b.state(), PathState::Direct);

        // Transport ledger on each end: everything accepted onto the
        // peer transport (probes + data) is delivered, impairment-
        // dropped, fault-dropped, or stalled — counted exactly once.
        for (end, path) in [("a", &a), ("b", &b)] {
            let s = path.peer_stats();
            prop_assert_eq!(
                path.probes_sent() + path.data_sent(),
                s.impair_delivered + s.impair_dropped + s.fault_dropped + s.stalled,
                "{}: accepted frames must all be accounted: {:?}",
                end,
                s
            );
        }

        // Delivered data is a subset of accepted data, in send order,
        // no duplicates — a relayed (refused) frame never materializes
        // on the direct path.
        let accepted_set: std::collections::HashSet<u32> = accepted.iter().copied().collect();
        for seq in &delivered {
            prop_assert!(accepted_set.contains(seq), "{} was never accepted direct", seq);
        }
        for w in delivered.windows(2) {
            prop_assert!(w[0] < w[1], "reordered or duplicated: {} then {}", w[0], w[1]);
        }
    }
}

/// Deterministic cut-then-restore: a scheduled [`FaultKind::Cut`]
/// window takes the link down for its duration and the *same* endpoint
/// comes back when the window closes — no redial. Frames sent during
/// the outage fail loudly (`Closed`), frames sent after it flow.
#[test]
fn cut_window_restores_the_same_transport() {
    let t = |ms: u64| Instant::EPOCH + Duration::from_millis(ms);
    let (mut a, mut b) = mem_pair_perfect(77);
    let mut plan = FaultPlan::new();
    plan.schedule(FaultKind::Cut, t(100), Duration::from_millis(400));
    a.set_faults(plan);

    let msg = |seq: u32| Msg::Data {
        router: RouterId(1),
        port: PortId(0),
        span: Span::NONE,
        frame: frame_with_seq(seq),
    };
    a.send(&msg(1), t(50)).unwrap();
    assert_eq!(b.poll(t(50)).unwrap().len(), 1);

    // During the outage: down, and the caller hears about it.
    for ms in [100u64, 250, 499] {
        assert!(matches!(
            a.send(&msg(2), t(ms)),
            Err(TransportError::Closed)
        ));
        assert!(!a.is_connected());
    }

    // The window closed: same endpoints, traffic resumes in order.
    a.send(&msg(3), t(500)).unwrap();
    a.send(&msg(4), t(501)).unwrap();
    assert!(a.is_connected());
    let seqs: Vec<u32> = b
        .poll(t(501))
        .unwrap()
        .into_iter()
        .filter_map(|m| match m {
            Msg::Data { frame, .. } => Some(seq_of(&frame)),
            _ => None,
        })
        .collect();
    assert_eq!(seqs, vec![3, 4]);
}
