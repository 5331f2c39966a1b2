//! Admission control and priority load shedding for the route server.
//!
//! The paper (§4) names the central route server as RNL's choke point:
//! every tunneled frame and every control operation funnels through it.
//! This module makes degradation under load a *deterministic policy*
//! instead of emergent behaviour:
//!
//! * Every operation is classified into a [`Tier`]. Data-plane relay and
//!   heartbeats outrank control ops for sessions with active
//!   deployments, which outrank best-effort ops (design edits, analyze,
//!   capture polls).
//! * A global token bucket with per-tier drain floors implements the
//!   high-water mark: best-effort ops may only draw the bucket down to
//!   half, deployed-session control ops down to an eighth, and tier-0
//!   relay is always admitted (it still drains the bucket, so a relay
//!   surge sheds control load first — exactly the priority the paper
//!   asks for).
//! * A per-principal token bucket bounds any single session's control
//!   churn so one misbehaving client cannot starve the rest.
//! * A refused op carries a deterministic `retry_after` computed from
//!   the token deficit, so clients back off just long enough.
//!
//! All arithmetic is integer microtokens on the virtual clock: admission
//! decisions are bit-for-bit reproducible from the op sequence alone.

use std::collections::BTreeMap;

use rnl_net::time::{Duration, Instant};
use rnl_obs::{mix64, GOLDEN_GAMMA};

/// Default global bucket: 50k op-tokens, refilled at 50k/s. Generous
/// enough that ordinary labs never shed; a storm has to outrun the
/// refill rate for a sustained interval to cross the high-water mark.
pub const DEFAULT_HWM_TOKENS: u64 = 50_000;

/// Default per-principal bucket: a single session gets a fifth of the
/// global budget before its own quota pushes back.
pub const DEFAULT_SESSION_TOKENS: u64 = 10_000;

/// Default per-op deadline budget (virtual time). Console round-trips
/// over the worst WAN impairment profile finish well inside this.
pub const DEFAULT_OP_DEADLINE: Duration = Duration::from_secs(5);

/// Flash round-trips rewrite device storage; they get a longer leash.
pub const FLASH_DEADLINE_MULTIPLIER: u32 = 4;

/// Priority tier of an operation. Lower value = higher priority = shed
/// last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Data-plane relay and heartbeats: never shed. Shedding relay
    /// would break deployed experiments, the one thing the lab exists
    /// to keep running.
    Relay = 0,
    /// Control ops for sessions with active deployments (deploy,
    /// teardown, reserve, console/flash on deployed routers).
    Deployed = 1,
    /// Best-effort ops: design edits, analyze, exports, listings,
    /// capture polls, metrics scrapes.
    BestEffort = 2,
}

impl Tier {
    /// Stable label used in `rnl_server_shed_total{tier=...}`.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Relay => "0",
            Tier::Deployed => "1",
            Tier::BestEffort => "2",
        }
    }
}

/// Operation class, used to pick a deadline budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Console command round-trip through a RIS.
    Console,
    /// Flash (config write) round-trip through a RIS.
    Flash,
    /// Everything else (answered from server state, no RIS round-trip).
    Control,
}

/// Tunable overload policy. All rates are tokens per virtual second;
/// every admitted op costs one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Global bucket capacity (the high-water mark).
    pub capacity: u64,
    /// Global bucket refill rate, tokens/s.
    pub refill_per_sec: u64,
    /// Per-principal bucket capacity.
    pub session_capacity: u64,
    /// Per-principal refill rate, tokens/s.
    pub session_refill_per_sec: u64,
    /// Deadline budget for [`OpClass::Control`] and [`OpClass::Console`].
    pub op_deadline: Duration,
}

impl Default for OverloadConfig {
    fn default() -> OverloadConfig {
        OverloadConfig {
            capacity: DEFAULT_HWM_TOKENS,
            refill_per_sec: DEFAULT_HWM_TOKENS,
            session_capacity: DEFAULT_SESSION_TOKENS,
            session_refill_per_sec: DEFAULT_SESSION_TOKENS,
            op_deadline: DEFAULT_OP_DEADLINE,
        }
    }
}

impl OverloadConfig {
    /// Deadline budget for one op of the given class.
    pub fn deadline_budget(&self, class: OpClass) -> Duration {
        match class {
            OpClass::Console | OpClass::Control => self.op_deadline,
            OpClass::Flash => Duration::from_micros(
                self.op_deadline
                    .as_micros()
                    .saturating_mul(u64::from(FLASH_DEADLINE_MULTIPLIER)),
            ),
        }
    }

    /// The deadline an op of `class` admitted at `now` must meet.
    pub fn deadline_for(&self, class: OpClass, now: Instant) -> Deadline {
        Deadline::after(now, self.deadline_budget(class))
    }
}

/// An absolute virtual-clock deadline attached to an in-flight op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` after `now`.
    pub fn after(now: Instant, budget: Duration) -> Deadline {
        Deadline { at: now + budget }
    }

    /// The absolute expiry instant.
    pub fn at(&self) -> Instant {
        self.at
    }

    /// True once the virtual clock has passed the deadline.
    pub fn expired(&self, now: Instant) -> bool {
        now.since(self.at).as_micros() > 0
    }

    /// Budget still remaining at `now` (zero once expired).
    pub fn remaining(&self, now: Instant) -> Duration {
        self.at.since(now)
    }
}

/// Why an op was shed; the `reason` label on `rnl_server_shed_total`.
pub const REASON_HWM: &str = "hwm";
/// See [`REASON_HWM`].
pub const REASON_SESSION_QUOTA: &str = "session-quota";

/// A shed verdict: which bucket refused and when to come back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// `"hwm"` (global bucket) or `"session-quota"` (per-principal).
    pub reason: &'static str,
    /// Deterministic back-off hint derived from the token deficit.
    pub retry_after: Duration,
}

/// One token bucket in integer microtokens (1 token = 1e6 microtokens).
/// With a refill rate of R tokens/s, the bucket gains exactly R
/// microtokens per virtual microsecond — no floats anywhere.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    level: u64,
    capacity: u64,
    rate: u64,
    last: Instant,
}

const MICRO: u64 = 1_000_000;

impl Bucket {
    fn new(capacity_tokens: u64, rate_per_sec: u64, now: Instant) -> Bucket {
        let capacity = capacity_tokens.saturating_mul(MICRO);
        Bucket {
            level: capacity,
            capacity,
            rate: rate_per_sec,
            last: now,
        }
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.since(self.last).as_micros();
        if elapsed > 0 {
            self.level = self
                .level
                .saturating_add(elapsed.saturating_mul(self.rate))
                .min(self.capacity);
            self.last = now;
        }
    }

    /// Take `cost` microtokens if doing so leaves at least `floor`
    /// microtokens in the bucket; otherwise report the deficit as a
    /// retry-after duration. `saturating` callers always succeed (the
    /// level just clamps at zero) — that is the tier-0 contract.
    fn take(&mut self, cost: u64, floor: u64, saturating: bool) -> Result<(), Duration> {
        if self.level >= floor.saturating_add(cost) {
            self.level -= cost;
            return Ok(());
        }
        if saturating {
            self.level = self.level.saturating_sub(cost);
            return Ok(());
        }
        let deficit = floor.saturating_add(cost) - self.level;
        // Microtokens arrive at `rate` per µs; round the wait up so a
        // client that honors it is never refused twice for the same
        // deficit.
        let wait_us = if self.rate == 0 {
            u64::MAX / 2
        } else {
            deficit.div_ceil(self.rate)
        };
        Err(Duration::from_micros(wait_us.max(1)))
    }
}

/// The priority-aware load shedder: one global bucket with per-tier
/// floors plus a lazily-created bucket per principal.
pub struct Shedder {
    cfg: OverloadConfig,
    global: Bucket,
    sessions: BTreeMap<String, Bucket>,
}

impl Shedder {
    /// A shedder with `cfg` policy, buckets full as of `now`.
    pub fn new(cfg: OverloadConfig, now: Instant) -> Shedder {
        Shedder {
            cfg,
            global: Bucket::new(cfg.capacity, cfg.refill_per_sec, now),
            sessions: BTreeMap::new(),
        }
    }

    /// The active policy.
    pub fn config(&self) -> OverloadConfig {
        self.cfg
    }

    /// Replace the policy (both buckets reset to full — a policy change
    /// is an operator action, not something that should instantly shed).
    pub fn set_config(&mut self, cfg: OverloadConfig, now: Instant) {
        self.cfg = cfg;
        self.global = Bucket::new(cfg.capacity, cfg.refill_per_sec, now);
        self.sessions.clear();
    }

    /// Drain floor the global bucket enforces for `tier`, in microtokens.
    fn floor(&self, tier: Tier) -> u64 {
        let cap = self.global.capacity;
        match tier {
            Tier::Relay => 0,
            Tier::Deployed => cap / 8,
            Tier::BestEffort => cap / 2,
        }
    }

    /// Admit or shed one op. Tier-0 is always admitted (the deduction
    /// still registers its load). Tier-1/2 first clear the global
    /// high-water mark, then their principal's quota.
    pub fn admit(&mut self, tier: Tier, principal: &str, now: Instant) -> Result<(), Shed> {
        self.global.refill(now);
        let floor = self.floor(tier);
        let saturating = tier == Tier::Relay;
        if let Err(retry_after) = self.global.take(MICRO, floor, saturating) {
            return Err(Shed {
                reason: REASON_HWM,
                retry_after,
            });
        }
        if tier == Tier::Relay {
            return Ok(());
        }
        let bucket = self
            .sessions
            .entry(principal.to_string())
            .or_insert_with(|| {
                Bucket::new(
                    self.cfg.session_capacity,
                    self.cfg.session_refill_per_sec,
                    now,
                )
            });
        bucket.refill(now);
        if let Err(retry_after) = bucket.take(MICRO, 0, false) {
            // The global token was already spent; hand it back so a shed
            // op costs the server nothing.
            self.global.level = self
                .global
                .level
                .saturating_add(MICRO)
                .min(self.global.capacity);
            return Err(Shed {
                reason: REASON_SESSION_QUOTA,
                retry_after,
            });
        }
        Ok(())
    }

    /// Current global bucket level in whole tokens (observability).
    pub fn tokens(&self) -> u64 {
        self.global.level / MICRO
    }

    /// Drop per-principal state for sessions that no longer exist.
    pub fn forget_principal(&mut self, principal: &str) {
        self.sessions.remove(principal);
    }
}

/// A deterministic chooser for seeded op storms: a splitmix64 stream
/// that picks uniformly from whatever option slice the harness supplies.
/// Lives here (not in the tests) so experiments and the nightly report
/// share one storm definition.
pub struct OpStorm {
    state: u64,
}

impl OpStorm {
    /// A storm stream derived from `seed`.
    pub fn new(seed: u64) -> OpStorm {
        OpStorm {
            state: seed.wrapping_add(GOLDEN_GAMMA),
        }
    }

    /// Next raw 64-bit draw (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Uniform draw in `0..n` (n must be nonzero; returns 0 otherwise).
    pub fn gen_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// Pick one option from a non-empty slice (first option if empty —
    /// the storm never panics).
    pub fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        if options.is_empty() {
            return "";
        }
        let i = self.gen_range(options.len() as u64) as usize;
        options[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    fn tight() -> OverloadConfig {
        OverloadConfig {
            capacity: 8,
            refill_per_sec: 8,
            session_capacity: 100,
            session_refill_per_sec: 100,
            op_deadline: Duration::from_secs(1),
        }
    }

    #[test]
    fn tier0_is_never_shed_even_empty() {
        let mut s = Shedder::new(tight(), t(0));
        for _ in 0..1_000 {
            s.admit(Tier::Relay, "pc", t(0)).unwrap();
        }
        assert_eq!(s.tokens(), 0);
        s.admit(Tier::Relay, "pc", t(0)).unwrap();
    }

    #[test]
    fn best_effort_sheds_at_half_and_deployed_at_eighth() {
        let mut s = Shedder::new(tight(), t(0));
        // capacity 8 → tier-2 floor 4, tier-1 floor 1.
        for _ in 0..4 {
            s.admit(Tier::BestEffort, "pc", t(0)).unwrap();
        }
        let shed = s.admit(Tier::BestEffort, "pc", t(0)).unwrap_err();
        assert_eq!(shed.reason, REASON_HWM);
        assert!(shed.retry_after > Duration::ZERO);
        // Deployed-session control still clears its lower floor…
        for _ in 0..3 {
            s.admit(Tier::Deployed, "pc", t(0)).unwrap();
        }
        // …until only the floor remains.
        let shed = s.admit(Tier::Deployed, "pc", t(0)).unwrap_err();
        assert_eq!(shed.reason, REASON_HWM);
        // Relay still flows.
        s.admit(Tier::Relay, "pc", t(0)).unwrap();
    }

    #[test]
    fn retry_after_is_exact_and_honoring_it_succeeds() {
        let mut s = Shedder::new(tight(), t(0));
        for _ in 0..4 {
            s.admit(Tier::BestEffort, "pc", t(0)).unwrap();
        }
        let shed = s.admit(Tier::BestEffort, "pc", t(0)).unwrap_err();
        // Deficit is exactly one token at 8 tokens/s → 125 ms.
        assert_eq!(shed.retry_after, Duration::from_millis(125));
        let later = t(0) + shed.retry_after;
        s.admit(Tier::BestEffort, "pc", later).unwrap();
    }

    #[test]
    fn session_quota_binds_one_principal_not_others() {
        let cfg = OverloadConfig {
            capacity: 1_000,
            refill_per_sec: 1_000,
            session_capacity: 3,
            session_refill_per_sec: 3,
            op_deadline: Duration::from_secs(1),
        };
        let mut s = Shedder::new(cfg, t(0));
        for _ in 0..3 {
            s.admit(Tier::BestEffort, "greedy", t(0)).unwrap();
        }
        let shed = s.admit(Tier::BestEffort, "greedy", t(0)).unwrap_err();
        assert_eq!(shed.reason, REASON_SESSION_QUOTA);
        // Another principal is untouched.
        s.admit(Tier::BestEffort, "polite", t(0)).unwrap();
        // And a session-quota shed refunds the global token.
        assert_eq!(s.tokens(), 1_000 - 4);
    }

    #[test]
    fn refill_restores_service_after_a_storm() {
        let mut s = Shedder::new(tight(), t(0));
        for _ in 0..4 {
            s.admit(Tier::BestEffort, "pc", t(0)).unwrap();
        }
        assert!(s.admit(Tier::BestEffort, "pc", t(0)).is_err());
        // After two virtual seconds the bucket is full again.
        s.admit(Tier::BestEffort, "pc", t(2_000)).unwrap();
        assert_eq!(s.tokens(), 7);
    }

    #[test]
    fn admission_sequence_is_deterministic() {
        let run = || {
            let mut s = Shedder::new(tight(), t(0));
            let mut log = Vec::new();
            for i in 0..50u64 {
                let now = t(i * 37);
                let tier = match i % 3 {
                    0 => Tier::Relay,
                    1 => Tier::Deployed,
                    _ => Tier::BestEffort,
                };
                log.push(match s.admit(tier, "pc", now) {
                    Ok(()) => 0,
                    Err(shed) => shed.retry_after.as_micros(),
                });
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deadline_expiry_is_strict() {
        let d = Deadline::after(t(100), Duration::from_millis(50));
        assert!(!d.expired(t(100)));
        assert!(!d.expired(t(150)));
        assert!(d.expired(t(151)));
        assert_eq!(d.remaining(t(120)), Duration::from_millis(30));
        assert_eq!(d.remaining(t(200)), Duration::ZERO);
    }

    #[test]
    fn flash_deadline_is_longer() {
        let cfg = OverloadConfig::default();
        assert_eq!(
            cfg.deadline_budget(OpClass::Flash).as_micros(),
            cfg.deadline_budget(OpClass::Console).as_micros() * 4
        );
    }

    #[test]
    fn storm_stream_is_seed_deterministic() {
        let draw = |seed| {
            let mut s = OpStorm::new(seed);
            (0..16).map(|_| s.gen_range(10)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut s = OpStorm::new(1);
        let ops = ["a", "b", "c"];
        for _ in 0..10 {
            assert!(ops.contains(&s.pick(&ops)));
        }
    }

    #[test]
    fn config_change_resets_buckets() {
        let mut s = Shedder::new(tight(), t(0));
        for _ in 0..4 {
            s.admit(Tier::BestEffort, "pc", t(0)).unwrap();
        }
        assert!(s.admit(Tier::BestEffort, "pc", t(0)).is_err());
        s.set_config(tight(), t(0));
        s.admit(Tier::BestEffort, "pc", t(0)).unwrap();
    }
}
