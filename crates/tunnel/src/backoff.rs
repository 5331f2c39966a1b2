//! The one redial schedule: "wait a jittered, growing delay, then try
//! again".
//!
//! Three loops keep the lab reachable and all three run on this module:
//! the RIS uplink supervisor (§2.2: the RIS dials *out* to the route
//! server and must keep doing so), the route-server federation's
//! inter-shard trunks, and the mesh's direct-path probes. Jitter is
//! drawn from a [`rnl_obs::mix64`] stream the caller seeds, so one seed
//! replays one schedule on the virtual clock.

use rnl_net::time::{Duration, Instant};
use rnl_obs::{mix64, GOLDEN_GAMMA};

/// `base` ±20 %, advancing the caller's jitter `state` by one draw. The
/// result lies in `[0.8·base, 1.2·base)` and is never zero.
pub fn jittered(base: Duration, state: &mut u64) -> Duration {
    *state = mix64(state.wrapping_add(GOLDEN_GAMMA));
    let base = base.as_micros().max(1);
    let lo = base.saturating_mul(80) / 100;
    let hi = base.saturating_mul(120) / 100;
    Duration::from_micros(lo.max(1) + *state % (hi - lo).max(1))
}

/// Jittered exponential backoff on the virtual clock. The first attempt
/// is immediate; each failure schedules the next one a jittered `delay`
/// away and doubles `delay` up to the cap; success parks the schedule
/// and resets the delay.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    /// Un-jittered delay the next failure schedules.
    delay: Duration,
    /// When the next attempt is due; `None` after a success.
    next: Option<Instant>,
    rng: u64,
}

impl Backoff {
    /// A schedule whose first attempt is due immediately.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            delay: base,
            next: Some(Instant::EPOCH),
            rng: seed,
        }
    }

    /// Whether an attempt is due at `now`.
    pub fn due(&self, now: Instant) -> bool {
        self.next.is_some_and(|at| now >= at)
    }

    /// Start over: the next attempt is due at `now`, and the delay is
    /// back at its base.
    pub fn restart(&mut self, now: Instant) {
        self.delay = self.base;
        self.next = Some(now);
    }

    /// The attempt succeeded: nothing is due until the next
    /// [`Backoff::restart`].
    pub fn succeed(&mut self) {
        self.delay = self.base;
        self.next = None;
    }

    /// The attempt at `now` failed: schedule the next one and return the
    /// jittered wait until it.
    pub fn fail(&mut self, now: Instant) -> Duration {
        let wait = jittered(self.delay, &mut self.rng);
        self.next = Some(now + wait);
        self.delay = self.delay.saturating_mul(2).min(self.cap);
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    const BASE: Duration = Duration::from_millis(100);
    const CAP: Duration = Duration::from_millis(800);

    /// The waits of `n` consecutive failures, each attempted exactly
    /// when due — the first at the epoch, since it is immediate.
    fn waits(seed: u64, n: usize) -> Vec<Duration> {
        let mut b = Backoff::new(BASE, CAP, seed);
        let mut now = t(0);
        (0..n)
            .map(|_| {
                assert!(b.due(now));
                let wait = b.fail(now);
                assert!(!b.due(now + (wait - Duration::from_micros(1))));
                now += wait;
                wait
            })
            .collect()
    }

    #[test]
    fn delays_double_to_the_cap_within_the_jitter_band() {
        let nominal = [100, 200, 400, 800, 800, 800];
        for (wait, ms) in waits(7, nominal.len()).into_iter().zip(nominal) {
            let us = wait.as_micros();
            let d = ms * 1_000;
            assert!(
                us >= d * 8 / 10 && us <= d * 12 / 10,
                "{us}us outside ±20% of {ms}ms"
            );
        }
    }

    #[test]
    fn success_parks_and_restart_resets() {
        let mut b = Backoff::new(BASE, CAP, 3);
        for _ in 0..4 {
            b.fail(t(0));
        }
        b.succeed();
        assert!(!b.due(t(1_000_000)), "nothing is due after a success");
        b.restart(t(50));
        assert!(b.due(t(50)));
        let wait = b.fail(t(50)).as_micros();
        assert!(
            (80_000..=120_000).contains(&wait),
            "delay not reset: {wait}"
        );
    }

    #[test]
    fn the_seed_is_the_schedule() {
        assert_eq!(waits(42, 8), waits(42, 8));
        assert_ne!(waits(42, 8), waits(43, 8));
    }

    /// `jittered` reproduces the mesh prober's gap sequence exactly: the
    /// first eight gaps of a 250 ms prober seeded `mix64((seed ^ wire) +
    /// γ)`, as the mesh path has always drawn them.
    #[test]
    fn jittered_reproduces_the_mesh_probe_gaps() {
        let cases: [(u64, u64, [u64; 8]); 2] = [
            (
                1,
                7,
                [
                    280_401, 210_691, 232_740, 287_776, 260_361, 253_608, 290_281, 214_381,
                ],
            ),
            (
                0xdead_beef,
                3,
                [
                    277_870, 260_093, 246_119, 227_749, 282_385, 251_583, 202_282, 232_133,
                ],
            ),
        ];
        for (seed, wire, gaps) in cases {
            let mut state = mix64((seed ^ wire).wrapping_add(GOLDEN_GAMMA));
            let got: Vec<u64> = (0..8)
                .map(|_| jittered(Duration::from_millis(250), &mut state).as_micros())
                .collect();
            assert_eq!(got, gaps, "seed {seed:#x} wire {wire}");
        }
    }
}
