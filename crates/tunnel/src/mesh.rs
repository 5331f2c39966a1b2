//! The direct site-to-site data path and its supervised failover.
//!
//! The paper's §4 names the central relay as the data-plane bottleneck;
//! the mesh answers it without giving up the route server as control
//! plane. Per deployed wire the server negotiates a peer path (see
//! [`crate::msg::MeshOffer`]) and each endpoint runs one [`MeshPath`]:
//! a seeded, jittered prober on the virtual clock driving a
//! `Direct ↔ Relay` state machine.
//!
//! * **Direct** — data frames go straight to the peer RIS. Probes ride
//!   the same transport; silence longer than the miss window, a send
//!   error, or a disconnected peer fails the path over.
//! * **Relay** — the caller forwards through the route server instead
//!   (the pre-mesh path, which always works while the uplink does).
//!   Probing continues; the first probe heard after the failover is the
//!   heal signal, and the path fails back.
//!
//! Every transition is loss-free *in accounting*: a frame refused by
//! [`MeshPath::send_data`] was never enqueued (the caller relays it),
//! and a frame accepted is exactly one of delivered, impairment-dropped
//! or fault-dropped — the conservation law
//! [`crate::transport::TransportStats`] exposes and the chaos suite
//! asserts across repeated flips.
//!
//! Probe timing is the same seeded [`jittered`] draw the reconnect
//! supervisor and the shard trunks back off with, on the virtual clock:
//! the same seed replays the same probe schedule, which is what makes a
//! forced failover (an E17 fault plan cutting the peer path) a
//! deterministic, replayable experiment rather than a race.

use rnl_net::time::{Duration, Instant};
use rnl_obs::{Counter, Gauge, MetricsRegistry};

use crate::backoff::jittered;
use crate::msg::Msg;
use crate::transport::{Transport, TransportStats};

/// Which way a meshed wire's frames are flowing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathState {
    /// Site-to-site: frames bypass the route server.
    Direct,
    /// Fallback: frames go through the server relay while the peer
    /// path is unhealthy.
    Relay,
}

impl PathState {
    /// The metric label for this state.
    pub fn label(&self) -> &'static str {
        match self {
            PathState::Direct => "direct",
            PathState::Relay => "relay",
        }
    }
}

/// Why a path left `Direct`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReason {
    /// No probe (or data) heard within the miss window.
    ProbeMiss,
    /// A data send on the peer path was refused.
    SendError,
    /// The peer transport reported itself down (cut window, hangup).
    Fault,
    /// The session epoch rotated; the offer's secret is stale.
    EpochRotated,
}

impl FailReason {
    /// The metric label for this reason.
    pub fn label(&self) -> &'static str {
        match self {
            FailReason::ProbeMiss => "probe-miss",
            FailReason::SendError => "send-error",
            FailReason::Fault => "fault",
            FailReason::EpochRotated => "epoch-rotated",
        }
    }
}

/// Base probe interval; each gap is [`jittered`] ±20 % around it.
const PROBE_INTERVAL: Duration = Duration::from_millis(250);

/// Silence longer than this fails the path over: a dead direct path is
/// detected within one window (1 s of virtual time) of its last heard
/// probe — the bounded failover window of E24.
const MISS_WINDOW: Duration = Duration::from_secs(1);

/// Cached metric handles for one path, labelled by wire id. Handles are
/// get-or-create on the registry, so a re-offered wire (rotated epoch)
/// reuses the same series.
struct PathMetrics {
    state_direct: Gauge,
    state_relay: Gauge,
    fail_probe_miss: Counter,
    fail_send_error: Counter,
    fail_fault: Counter,
    fail_epoch: Counter,
    failbacks: Counter,
    direct_frames: Counter,
}

impl PathMetrics {
    fn new(obs: &MetricsRegistry, wire: u64) -> PathMetrics {
        let wire = wire.to_string();
        let fail = |reason: FailReason| {
            obs.counter(
                "rnl_mesh_failovers_total",
                &[("reason", reason.label()), ("wire", &wire)],
            )
        };
        PathMetrics {
            state_direct: obs.gauge(
                "rnl_mesh_path_state",
                &[("state", PathState::Direct.label()), ("wire", &wire)],
            ),
            state_relay: obs.gauge(
                "rnl_mesh_path_state",
                &[("state", PathState::Relay.label()), ("wire", &wire)],
            ),
            fail_probe_miss: fail(FailReason::ProbeMiss),
            fail_send_error: fail(FailReason::SendError),
            fail_fault: fail(FailReason::Fault),
            fail_epoch: fail(FailReason::EpochRotated),
            failbacks: obs.counter("rnl_mesh_failbacks_total", &[("wire", &wire)]),
            direct_frames: obs.counter("rnl_mesh_direct_frames_total", &[("wire", &wire)]),
        }
    }
}

/// One end of a negotiated peer path: the transport to the far RIS plus
/// the supervisor state that decides `Direct` vs `Relay` per tick.
pub struct MeshPath {
    wire: u64,
    secret: u64,
    peer: Box<dyn Transport>,
    state: PathState,
    rng: u64,
    next_probe: Instant,
    last_heard: Instant,
    /// Cleared at failover; set by the first probe/frame heard after.
    heard_since_failover: bool,
    probe_seq: u64,
    probes_sent: u64,
    probes_heard: u64,
    data_sent: u64,
    m: PathMetrics,
}

impl MeshPath {
    /// Install a freshly dialed peer path for `wire`, starting in
    /// `Direct` with a full miss window of grace (installation counts
    /// as having just heard the peer). `seed` drives the jittered probe
    /// schedule; metrics register on `obs` labelled by wire id.
    pub fn new(
        wire: u64,
        secret: u64,
        peer: Box<dyn Transport>,
        seed: u64,
        obs: &MetricsRegistry,
        now: Instant,
    ) -> MeshPath {
        let m = PathMetrics::new(obs, wire);
        m.state_direct.set(1.0);
        m.state_relay.set(0.0);
        let mut rng = rnl_obs::mix64((seed ^ wire).wrapping_add(rnl_obs::GOLDEN_GAMMA));
        let next_probe = now + jittered(PROBE_INTERVAL, &mut rng);
        MeshPath {
            wire,
            secret,
            peer,
            state: PathState::Direct,
            rng,
            next_probe,
            last_heard: now,
            heard_since_failover: true,
            probe_seq: 0,
            probes_sent: 0,
            probes_heard: 0,
            data_sent: 0,
            m,
        }
    }

    /// The wire this path serves.
    pub fn wire(&self) -> u64 {
        self.wire
    }

    /// Current forwarding choice.
    pub fn state(&self) -> PathState {
        self.state
    }

    /// Try to forward one data frame on the direct path. Returns true
    /// when the peer transport accepted it; false when the path is in
    /// `Relay` or the send was refused — in both cases the frame was
    /// *not* enqueued and the caller must forward it through the server
    /// relay, so no frame is ever lost in the handoff.
    pub fn send_data(&mut self, msg: &Msg, now: Instant) -> bool {
        if self.state != PathState::Direct {
            return false;
        }
        match self.peer.send(msg, now) {
            Ok(()) => {
                self.data_sent += 1;
                self.m.direct_frames.inc();
                true
            }
            Err(_) => {
                self.fail_over(FailReason::SendError);
                false
            }
        }
    }

    /// One supervision tick: send due probes, drain the peer transport,
    /// and run the state machine. Returns the data frames received on
    /// the direct path, for the caller to deliver to its devices.
    pub fn tick(&mut self, now: Instant) -> Vec<Msg> {
        while self.next_probe <= now {
            self.next_probe += jittered(PROBE_INTERVAL, &mut self.rng);
            self.probe_seq += 1;
            let probe = Msg::MeshProbe {
                wire: self.wire,
                secret: self.secret,
                seq: self.probe_seq,
            };
            match self.peer.send(&probe, now) {
                Ok(()) => self.probes_sent += 1,
                // A refused probe while Direct is a dead path; while
                // Relay it is just the outage continuing.
                Err(_) => self.fail_over(FailReason::Fault),
            }
        }
        let mut out = Vec::new();
        match self.peer.poll(now) {
            Ok(msgs) => {
                for msg in msgs {
                    match msg {
                        Msg::MeshProbe { wire, secret, .. }
                            if wire == self.wire && secret == self.secret =>
                        {
                            self.last_heard = now;
                            self.heard_since_failover = true;
                            self.probes_heard += 1;
                        }
                        m @ (Msg::Data { .. } | Msg::DataCompressed { .. }) => {
                            // Data is as good a liveness signal as a
                            // probe.
                            self.last_heard = now;
                            self.heard_since_failover = true;
                            out.push(m);
                        }
                        // Anything else on a peer path is protocol
                        // misuse; ignore rather than kill forwarding.
                        _ => {}
                    }
                }
            }
            Err(_) => self.fail_over(FailReason::Fault),
        }
        match self.state {
            PathState::Direct => {
                if !self.peer.is_connected() {
                    self.fail_over(FailReason::Fault);
                } else if now.since(self.last_heard) > MISS_WINDOW {
                    self.fail_over(FailReason::ProbeMiss);
                }
            }
            PathState::Relay => {
                if self.peer.is_connected() && self.heard_since_failover {
                    self.fail_back(now);
                }
            }
        }
        out
    }

    /// Leave `Direct` for the server relay. Idempotent: a path already
    /// relaying counts nothing, so each outage scores one failover
    /// however many symptoms it shows.
    pub fn fail_over(&mut self, reason: FailReason) {
        if self.state == PathState::Relay {
            return;
        }
        self.state = PathState::Relay;
        self.heard_since_failover = false;
        match reason {
            FailReason::ProbeMiss => self.m.fail_probe_miss.inc(),
            FailReason::SendError => self.m.fail_send_error.inc(),
            FailReason::Fault => self.m.fail_fault.inc(),
            FailReason::EpochRotated => self.m.fail_epoch.inc(),
        }
        self.m.state_direct.set(0.0);
        self.m.state_relay.set(1.0);
    }

    fn fail_back(&mut self, now: Instant) {
        self.state = PathState::Direct;
        self.last_heard = now;
        self.m.failbacks.inc();
        self.m.state_direct.set(1.0);
        self.m.state_relay.set(0.0);
    }

    /// Probes successfully handed to the peer transport.
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Probes heard from the peer (matching wire + secret only).
    pub fn probes_heard(&self) -> u64 {
        self.probes_heard
    }

    /// Data frames accepted onto the direct path.
    pub fn data_sent(&self) -> u64 {
        self.data_sent
    }

    /// The peer transport's send-direction accounting.
    pub fn peer_stats(&self) -> TransportStats {
        self.peer.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use crate::transport::mem_pair_perfect;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    fn pair(seed: u64, obs: &MetricsRegistry) -> (MeshPath, MeshPath) {
        let (a, b) = mem_pair_perfect(seed);
        let pa = MeshPath::new(7, 0xfeed, Box::new(a), 1, obs, t(0));
        let pb = MeshPath::new(7, 0xfeed, Box::new(b), 2, obs, t(0));
        (pa, pb)
    }

    #[test]
    fn healthy_path_stays_direct_and_carries_data() {
        let obs = MetricsRegistry::new();
        let (mut a, mut b) = pair(1, &obs);
        let msg = Msg::Data {
            router: crate::msg::RouterId(9),
            port: crate::msg::PortId(0),
            span: rnl_obs::Span::NONE,
            frame: vec![0xab; 60],
        };
        let mut delivered = 0;
        for ms in (0..5_000).step_by(10) {
            let now = t(ms);
            if ms % 100 == 0 {
                assert!(a.send_data(&msg, now), "healthy path must accept data");
            }
            let _ = a.tick(now);
            delivered += b.tick(now).len();
        }
        assert_eq!(a.state(), PathState::Direct);
        assert_eq!(b.state(), PathState::Direct);
        assert_eq!(delivered as u64, a.data_sent());
        assert!(a.probes_sent() > 10, "probes must flow");
        assert!(b.probes_heard() > 10, "probes must be heard");
    }

    #[test]
    fn cut_fails_over_within_the_miss_window_then_heals() {
        let obs = MetricsRegistry::new();
        let (a_end, b_end) = mem_pair_perfect(3);
        let mut faulted = a_end;
        let mut plan = FaultPlan::new();
        // Cut A's send direction (and its connectivity) for 2 s.
        plan.schedule(FaultKind::Cut, t(1_000), Duration::from_millis(2_000));
        faulted.set_faults(plan);
        let mut a = MeshPath::new(1, 5, Box::new(faulted), 1, &obs, t(0));
        let mut b = MeshPath::new(1, 5, Box::new(b_end), 2, &obs, t(0));
        let mut a_failover_at = None;
        let mut b_failover_at = None;
        for ms in (0..6_000).step_by(10) {
            let now = t(ms);
            let _ = a.tick(now);
            let _ = b.tick(now);
            if a.state() == PathState::Relay && a_failover_at.is_none() {
                a_failover_at = Some(ms);
            }
            if b.state() == PathState::Relay && b_failover_at.is_none() {
                b_failover_at = Some(ms);
            }
        }
        // A sees the cut immediately (its endpoint reports closed); B
        // sees silence and fails over within the miss window.
        let a_at = a_failover_at.expect("A must fail over");
        let b_at = b_failover_at.expect("B must fail over");
        assert!(a_at <= 1_010, "A failover at {a_at}ms");
        assert!(
            b_at <= 1_000 + MISS_WINDOW.as_millis() + PROBE_INTERVAL.as_millis(),
            "B failover at {b_at}ms exceeds the bounded window"
        );
        // After the window closes both ends hear probes again and fail
        // back.
        assert_eq!(a.state(), PathState::Direct, "A must fail back");
        assert_eq!(b.state(), PathState::Direct, "B must fail back");
    }

    #[test]
    fn relay_state_refuses_data_so_the_caller_relays() {
        let obs = MetricsRegistry::new();
        let (mut a, _b) = pair(9, &obs);
        a.fail_over(FailReason::EpochRotated);
        let msg = Msg::Data {
            router: crate::msg::RouterId(1),
            port: crate::msg::PortId(0),
            span: rnl_obs::Span::NONE,
            frame: vec![0; 60],
        };
        assert!(!a.send_data(&msg, t(10)));
        assert_eq!(a.data_sent(), 0, "refused frames are never enqueued");
    }

    #[test]
    fn stale_secret_probes_are_ignored() {
        let obs = MetricsRegistry::new();
        let (a_end, b_end) = mem_pair_perfect(11);
        // Same wire, different secrets: a stale path from a previous
        // epoch. Neither side may accept the other's probes.
        let mut a = MeshPath::new(4, 111, Box::new(a_end), 1, &obs, t(0));
        let mut b = MeshPath::new(4, 222, Box::new(b_end), 2, &obs, t(0));
        for ms in (0..3_000).step_by(10) {
            let _ = a.tick(t(ms));
            let _ = b.tick(t(ms));
        }
        assert_eq!(a.probes_heard(), 0);
        assert_eq!(b.probes_heard(), 0);
        // Nothing heard → both fail over on probe miss.
        assert_eq!(a.state(), PathState::Relay);
        assert_eq!(b.state(), PathState::Relay);
    }

    #[test]
    fn probe_schedule_is_seed_deterministic() {
        let run = |seed: u64| {
            let obs = MetricsRegistry::new();
            let (a_end, _b) = mem_pair_perfect(1);
            let mut a = MeshPath::new(2, 9, Box::new(a_end), seed, &obs, t(0));
            for ms in (0..2_000).step_by(10) {
                let _ = a.tick(t(ms));
            }
            a.probes_sent()
        };
        assert_eq!(run(5), run(5));
    }
}
