//! Supervised reconnection for a RIS.
//!
//! The paper keeps the tunnel up by fiat ("RIS initiates and maintains a
//! TCP connection to the route server") but says nothing about *how* a
//! PC behind a flaky consumer uplink maintains it. This module is that
//! loop: a [`Supervisor`] watches a [`Ris`], and when the tunnel dies it
//! redials through a [`Dialer`] on the shared [`Backoff`] schedule
//! (immediate first attempt, then 0.5 s doubling to 30 s, ±20 % jitter)
//! on the virtual clock — seeded, so a given flap schedule produces the
//! same attempt schedule every run. On success it drives
//! [`Ris::reconnect`], which rotates the session epoch, re-registers,
//! and heartbeats immediately, letting the server re-adopt a graced
//! session.
//!
//! Everything observable is a metric: attempts, successes, failures, the
//! backoff currently in force, and a histogram of outage durations
//! (uplink death → successful rejoin).

use rnl_net::time::{Duration, Instant};
use rnl_obs::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_US};
use rnl_tunnel::backoff::Backoff;
use rnl_tunnel::transport::{TcpTransport, Transport, TransportError};

use crate::{Ris, RisError};

/// Produces a fresh transport to the route server on demand. Abstracted
/// so tests and the simulated facade can dial in-memory pairs while the
/// binary dials TCP.
pub trait Dialer {
    /// Attempt one connection. A transport error here is an expected,
    /// retryable outcome (the server may simply be unreachable).
    fn dial(&mut self, now: Instant) -> Result<Box<dyn Transport>, TransportError>;
}

/// Dials the route server over TCP (the production path).
pub struct TcpDialer {
    /// Route-server address.
    pub addr: std::net::SocketAddr,
}

impl Dialer for TcpDialer {
    fn dial(&mut self, _now: Instant) -> Result<Box<dyn Transport>, TransportError> {
        Ok(Box::new(TcpTransport::connect(self.addr)?))
    }
}

/// Redial delay after the first failed dial of an outage; it doubles
/// per failure up to [`BACKOFF_CAP`], each wait jittered ±20 %.
const BACKOFF_BASE: Duration = Duration::from_millis(500);
/// Ceiling on the un-jittered redial delay.
const BACKOFF_CAP: Duration = Duration::from_secs(30);

/// Keepalive interval while the tunnel is healthy.
pub const DEFAULT_HEARTBEAT_EVERY: Duration = Duration::from_secs(10);

/// Drives a RIS's reconnect loop on the virtual clock.
pub struct Supervisor {
    backoff: Backoff,
    /// When the current outage began (None while healthy).
    outage_start: Option<Instant>,
    /// When the last heartbeat went out (None until the first healthy
    /// tick baselines the schedule).
    last_heartbeat: Option<Instant>,
    /// Failed dial attempts allowed per outage; `None` is unlimited.
    /// When the budget runs out the supervisor stops dialing — retries
    /// must not themselves become the overload.
    retry_budget: Option<u32>,
    /// Failures so far in the current outage.
    failed_attempts: u32,
    m_attempts: Counter,
    m_success: Counter,
    m_failures: Counter,
    m_backoff_ms: Gauge,
    m_outage_us: Histogram,
    m_budget_exhausted: Counter,
}

impl Supervisor {
    /// A supervisor whose redial jitter is seeded with `seed`. Metrics
    /// are registered on `registry` with `labels` (e.g.
    /// `[("site", pc_name)]`), so the reconnect counters surface
    /// wherever that registry is exported.
    pub fn new(seed: u64, registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Supervisor {
        Supervisor {
            backoff: Backoff::new(BACKOFF_BASE, BACKOFF_CAP, seed),
            outage_start: None,
            last_heartbeat: None,
            retry_budget: None,
            failed_attempts: 0,
            m_attempts: registry.counter("rnl_ris_reconnect_attempts_total", labels),
            m_success: registry.counter("rnl_ris_reconnect_success_total", labels),
            m_failures: registry.counter("rnl_ris_reconnect_failures_total", labels),
            m_backoff_ms: registry.gauge("rnl_ris_reconnect_backoff_ms", labels),
            m_outage_us: registry.histogram(
                "rnl_ris_outage_duration_us",
                labels,
                &LATENCY_BUCKETS_US,
            ),
            m_budget_exhausted: registry.counter("rnl_ris_retry_budget_exhausted_total", labels),
        }
    }

    /// Cap failed dial attempts per outage (`None` = unlimited, the
    /// default). The `ris` binary exposes this as `--retry-budget`.
    pub fn set_retry_budget(&mut self, budget: Option<u32>) {
        self.retry_budget = budget;
    }

    /// Whether the current outage has burned its whole retry budget (the
    /// supervisor has given up dialing; the operator decides what next).
    pub fn retry_budget_exhausted(&self) -> bool {
        self.retry_budget.is_some_and(|b| self.failed_attempts >= b)
    }

    /// Whether the supervisor currently believes the tunnel is down.
    pub fn in_outage(&self) -> bool {
        self.outage_start.is_some()
    }

    /// One supervision step: poll the RIS while healthy (sending a
    /// keepalive heartbeat whenever one is due); detect outages; when a
    /// (jittered, backed-off) attempt is due, dial and rejoin.
    ///
    /// Returns `Ok(true)` exactly when a reconnect completed this tick.
    /// Transport errors are absorbed into the outage state machine;
    /// application-level errors (unknown router, compression
    /// desynchronization) bubble up — supervision must not mask bugs.
    pub fn tick(
        &mut self,
        ris: &mut Ris,
        dialer: &mut dyn Dialer,
        now: Instant,
    ) -> Result<bool, RisError> {
        if ris.connected() {
            match ris.poll(now) {
                Ok(()) => {
                    self.maybe_heartbeat(ris, now);
                    return Ok(false);
                }
                Err(RisError::Transport(_)) => self.note_outage(now),
                Err(e) => return Err(e),
            }
        } else {
            self.note_outage(now);
        }
        if self.retry_budget_exhausted() || !self.backoff.due(now) {
            return Ok(false);
        }
        self.m_attempts.inc();
        let attempt = dialer
            .dial(now)
            .map_err(RisError::Transport)
            .and_then(|t| ris.reconnect(t, now));
        match attempt {
            Ok(()) => {
                self.m_success.inc();
                if let Some(started) = self.outage_start.take() {
                    self.m_outage_us.observe(now.since(started).as_micros());
                }
                self.backoff.succeed();
                self.failed_attempts = 0;
                self.m_backoff_ms.set(0.0);
                // `Ris::reconnect` heartbeats as part of re-registering,
                // so the keepalive schedule restarts from here.
                self.last_heartbeat = Some(now);
                Ok(true)
            }
            Err(RisError::Transport(_)) => {
                self.m_failures.inc();
                self.failed_attempts += 1;
                if self.retry_budget_exhausted() {
                    // Out of budget: stop dialing rather than add retry
                    // load to whatever is already wrong.
                    self.m_budget_exhausted.inc();
                    self.m_backoff_ms.set(0.0);
                    return Ok(false);
                }
                let wait = self.backoff.fail(now);
                self.m_backoff_ms.set(wait.as_micros() as f64 / 1_000.0);
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Send a keepalive when one is due. The first healthy tick only
    /// baselines the schedule (a connection made outside the supervisor
    /// has just registered, which proves liveness). A send failure here
    /// is an outage the next tick's poll will notice — not an error.
    fn maybe_heartbeat(&mut self, ris: &mut Ris, now: Instant) {
        match self.last_heartbeat {
            Some(last) if now.since(last) >= DEFAULT_HEARTBEAT_EVERY => {
                self.last_heartbeat = Some(now);
                let _ = ris.heartbeat(now);
            }
            Some(_) => {}
            None => self.last_heartbeat = Some(now),
        }
    }

    /// Record the start of an outage and schedule an *immediate* first
    /// attempt (backoff only kicks in after a failure).
    fn note_outage(&mut self, now: Instant) {
        if self.outage_start.is_none() {
            self.outage_start = Some(now);
            self.backoff.restart(now);
            self.failed_attempts = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnl_tunnel::transport::{mem_pair_perfect, ClosedTransport, MemTransport};

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    /// Supervision tick period of the outage tests.
    const TICK: Duration = Duration::from_millis(10);

    /// A dialer that fails until `up_at`, then hands out mem-pair ends
    /// (keeping the server sides so the link stays alive). Every dial
    /// instant is recorded.
    struct FlakyDialer {
        up_at: Instant,
        seed: u64,
        dials: Vec<Instant>,
        server_sides: Vec<MemTransport>,
    }

    impl FlakyDialer {
        fn up_at(up_at: Instant) -> FlakyDialer {
            FlakyDialer {
                up_at,
                seed: 100,
                dials: Vec::new(),
                server_sides: Vec::new(),
            }
        }

        fn never() -> FlakyDialer {
            FlakyDialer::up_at(t(u64::MAX / 2_000))
        }
    }

    impl Dialer for FlakyDialer {
        fn dial(&mut self, now: Instant) -> Result<Box<dyn Transport>, TransportError> {
            self.dials.push(now);
            if now < self.up_at {
                return Err(TransportError::Closed);
            }
            self.seed += 1;
            let (ris_side, server_side) = mem_pair_perfect(self.seed);
            self.server_sides.push(server_side);
            Ok(Box::new(ris_side))
        }
    }

    fn severed_ris() -> Ris {
        Ris::new("pc-sup", Box::new(ClosedTransport))
    }

    /// Tick a supervisor over a dead uplink for `for_`; the dialer holds
    /// the attempt instants.
    fn ride_outage(sup: &mut Supervisor, dialer: &mut FlakyDialer, from: Instant, for_: Duration) {
        let mut ris = severed_ris();
        let mut now = from;
        while now < from + for_ {
            sup.tick(&mut ris, dialer, now).unwrap();
            now += TICK;
        }
    }

    /// Assert each gap between consecutive dials is within the ±20 %
    /// band of its nominal delay (plus one tick of detection latency).
    fn assert_gaps(dials: &[Instant], nominal: &[Duration]) {
        assert!(dials.len() > nominal.len(), "too few dials: {dials:?}");
        for (pair, d) in dials.windows(2).zip(nominal) {
            let gap = pair[1].since(pair[0]).as_micros();
            let d = d.as_micros();
            assert!(
                gap >= d * 8 / 10 && gap < d * 12 / 10 + TICK.as_micros(),
                "gap {gap}us outside the jitter band of {d}us"
            );
        }
    }

    #[test]
    fn backoff_schedule_is_seed_deterministic() {
        let schedule = |seed: u64| -> Vec<Instant> {
            let registry = MetricsRegistry::new();
            let mut sup = Supervisor::new(seed, &registry, &[]);
            let mut dialer = FlakyDialer::never();
            ride_outage(&mut sup, &mut dialer, t(0), Duration::from_secs(20));
            dialer.dials
        };
        let a = schedule(42);
        assert!(a.len() >= 4, "not enough attempts observed: {a:?}");
        assert_eq!(a, schedule(42), "same seed must give the same schedule");
        assert_ne!(a, schedule(43), "different seeds should jitter differently");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let registry = MetricsRegistry::new();
        let mut sup = Supervisor::new(1, &registry, &[]);
        let mut dialer = FlakyDialer::never();
        ride_outage(&mut sup, &mut dialer, t(0), Duration::from_secs(120));
        // The first attempt is immediate; then 0.5 s, 1 s, … doubling
        // until the cap holds.
        assert_eq!(dialer.dials[0], t(0));
        let nominal: Vec<Duration> = (0..8)
            .map(|k| BACKOFF_BASE.saturating_mul(1 << k).min(BACKOFF_CAP))
            .collect();
        assert_eq!(nominal[6], BACKOFF_CAP);
        assert_gaps(&dialer.dials, &nominal);
        assert_eq!(
            registry
                .snapshot()
                .counter("rnl_ris_reconnect_failures_total", &[]),
            dialer.dials.len() as u64
        );
    }

    #[test]
    fn retry_budget_caps_attempts_per_outage() {
        let registry = MetricsRegistry::new();
        let mut sup = Supervisor::new(3, &registry, &[]);
        sup.set_retry_budget(Some(2));
        let mut dialer = FlakyDialer::never();
        ride_outage(&mut sup, &mut dialer, t(0), BACKOFF_CAP.saturating_mul(2));
        // Two failed dials, one backoff apart, burned the budget; the
        // supervisor gave up instead of adding retry load, and says so.
        assert_eq!(dialer.dials.len(), 2);
        assert_gaps(&dialer.dials, &[BACKOFF_BASE]);
        assert!(sup.retry_budget_exhausted());
        assert!(sup.in_outage());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rnl_ris_reconnect_failures_total", &[]), 2);
        assert_eq!(snap.counter("rnl_ris_retry_budget_exhausted_total", &[]), 1);
    }

    #[test]
    fn healthy_supervisor_heartbeats_on_schedule() {
        let every = DEFAULT_HEARTBEAT_EVERY.as_millis();
        let registry = MetricsRegistry::new();
        let mut sup = Supervisor::new(5, &registry, &[]);
        let (ris_side, mut server_side) = mem_pair_perfect(901);
        let mut ris = Ris::new("pc-hb", Box::new(ris_side));
        let mut dialer = FlakyDialer::never();
        // The first healthy tick baselines the schedule; nothing goes
        // out before a full interval has elapsed.
        sup.tick(&mut ris, &mut dialer, t(0)).unwrap();
        sup.tick(&mut ris, &mut dialer, t(every - 1)).unwrap();
        assert!(server_side.poll(t(every - 1)).unwrap().is_empty());
        // From then on: one beat per interval, however often tick runs.
        let mut beats = Vec::new();
        let mut now = t(every - 1);
        for _ in 0..2 * every / 100 {
            now += Duration::from_millis(100);
            sup.tick(&mut ris, &mut dialer, now).unwrap();
            for m in server_side.poll(now).unwrap() {
                if matches!(m, rnl_tunnel::msg::Msg::Heartbeat { .. }) {
                    beats.push(now.as_micros() / 1_000);
                }
            }
        }
        assert_eq!(
            beats,
            vec![every + 99, 2 * every + 99],
            "one beat per elapsed interval"
        );
        assert!(
            dialer.dials.is_empty(),
            "a healthy uplink is never redialed"
        );
    }

    #[test]
    fn recovery_rejoins_and_records_outage() {
        let registry = MetricsRegistry::new();
        let mut sup = Supervisor::new(7, &registry, &[]);
        let mut ris = severed_ris();
        let gen_before = ris.epoch().generation;
        let mut dialer = FlakyDialer::up_at(t(250));
        let mut now = t(0);
        let mut recovered_at = None;
        for _ in 0..200 {
            if sup.tick(&mut ris, &mut dialer, now).unwrap() {
                recovered_at = Some(now);
                break;
            }
            now += Duration::from_millis(10);
        }
        let recovered_at = recovered_at.expect("never recovered");
        assert!(recovered_at >= t(250));
        assert!(ris.connected());
        assert!(!sup.in_outage());
        assert!(ris.epoch().generation > gen_before, "epoch must rotate");
        // The new server side saw Register then an immediate Heartbeat.
        let server_side = dialer.server_sides.last_mut().expect("no link made");
        let msgs = server_side.poll(recovered_at).unwrap();
        assert!(
            matches!(&msgs[0], rnl_tunnel::msg::Msg::Register(info) if info.epoch.generation > gen_before)
        );
        assert!(
            msgs.iter()
                .any(|m| matches!(m, rnl_tunnel::msg::Msg::Heartbeat { .. })),
            "rejoin must heartbeat immediately: {msgs:?}"
        );
        let snap = registry.snapshot();
        assert!(snap.counter("rnl_ris_reconnect_attempts_total", &[]) >= 2);
        assert_eq!(snap.counter("rnl_ris_reconnect_success_total", &[]), 1);
        match snap.get("rnl_ris_outage_duration_us", &[]) {
            Some(rnl_obs::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert!(h.sum >= 250_000, "outage shorter than the downtime");
            }
            other => panic!("missing outage histogram: {other:?}"),
        }
    }
}
