//! The automated ("nightly") configuration-test harness (§3.2).
//!
//! "Similar to a nightly unit test commonly used in software
//! development, RNL enables these automated tests to be run regularly
//! whenever a topology or configuration change happens. In our example,
//! the policy violation could be caught during the nightly run after
//! the link addition, instead of waiting to be discovered after a
//! security breach."
//!
//! A [`NightlySuite`] is a list of [`PolicyProbe`]s. Each probe uses the
//! web-services primitives end to end: start a capture on the
//! observation port, inject a crafted packet at the injection port, run
//! the lab, and judge the captured traffic against the expectation
//! (reachability required, or reachability forbidden). The suite report
//! is "the log file in the morning".

use rnl_net::addr::MacAddr;
use rnl_net::build;
use rnl_net::time::Duration;
use rnl_obs::counter_deltas;
use rnl_tunnel::msg::{PortId, RouterId};
use std::net::Ipv4Addr;

use crate::{LabError, RemoteNetworkLabs};

/// What a probe asserts about the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The probe must arrive (connectivity requirement).
    Reachable,
    /// The probe must NOT arrive (security policy).
    Unreachable,
}

/// One automated connectivity/policy probe.
#[derive(Debug, Clone)]
pub struct PolicyProbe {
    /// Shown in the report.
    pub name: String,
    /// Port the crafted packet is injected into (delivered *to* the
    /// device as if it arrived on the wire), e.g. R1.1.
    pub inject_at: (RouterId, PortId),
    /// Destination MAC for the injected frame (the device that should
    /// route it — its interface MAC).
    pub dst_mac: MacAddr,
    /// Source MAC to forge (the "host" sending the probe).
    pub src_mac: MacAddr,
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    /// UDP destination port of the probe.
    pub dst_port: u16,
    /// Port monitored for the probe's arrival, e.g. R2.1.
    pub capture_at: (RouterId, PortId),
    /// What the policy says.
    pub expect: Expectation,
    /// Virtual time to let the probe propagate.
    pub wait: Duration,
}

/// A distinctive payload marker so captures can identify probe packets.
pub const PROBE_MARKER: &[u8] = b"RNL-NIGHTLY-PROBE";

impl PolicyProbe {
    /// Build the probe frame.
    fn frame(&self) -> Vec<u8> {
        build::udp_frame(
            self.src_mac,
            self.dst_mac,
            self.src_ip,
            self.dst_ip,
            30999,
            self.dst_port,
            PROBE_MARKER,
            64,
        )
    }
}

/// Outcome of one probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeResult {
    pub name: String,
    pub passed: bool,
    /// Human-readable explanation for the morning log.
    pub detail: String,
}

/// Outcome of a suite run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NightlyReport {
    pub results: Vec<ProbeResult>,
    /// Server counters that grew during the run, as
    /// (`name{labels}`, delta) pairs — what the run cost the relay path
    /// (frames routed/unrouted per reason, bytes, per-wire traffic).
    pub metrics: Vec<(String, u64)>,
    /// Pre-deploy static-analysis summaries, one line per saved design
    /// (`"<design>: <summary>"`), so the morning log also reports lint
    /// drift when a topology or configuration changed.
    pub lint: Vec<String>,
    /// Data-plane verification summary lines, one per saved design
    /// (`"<design>: <summary>; coverage <coverage summary>"`) followed
    /// by up to three `"<design> gap: …"` lines naming the top
    /// uncovered config stanzas — so untested routes and rules are
    /// visible run over run, and coverage deltas show up as diffs of
    /// the morning log.
    pub verify: Vec<String>,
    /// Resilience summary lines (session disconnects, re-adoptions,
    /// reaps, reconnect attempts, shed frames) — nonzero activity only,
    /// so a quiet night stays a quiet log.
    pub resilience: Vec<String>,
    /// Durability summary lines (journal appends, records replayed,
    /// torn tails, replay-buffer traffic) — nonzero activity only; a
    /// night without a crash or a journal stays silent.
    pub recovery: Vec<String>,
    /// Overload summary lines (ops shed per tier, deadline expiries,
    /// backlog-policy switches, exhausted retry budgets) — nonzero
    /// activity only; a night below the high-water mark stays silent.
    pub overload: Vec<String>,
    /// Performance summary lines: one per populated quantile series
    /// (p50/p99/max of relay latency, op round trips, wire latency)
    /// plus slow-op captures — nonzero activity only, like the other
    /// sections.
    pub perf: Vec<String>,
    /// Shard-federation summary lines (shard kills/recoveries, trunk
    /// reconnects and drops, cross-shard containment sheds) — nonzero
    /// activity only. Single-server runs report nothing;
    /// sharded rigs fill this via [`shard_section`] on the federation's
    /// registry.
    pub shard: Vec<String>,
    /// Mesh summary lines (wires meshed, offers/revokes, direct frames,
    /// failovers/failbacks, relay-fallback volume) — nonzero activity
    /// only; a relay-only night stays silent.
    pub mesh: Vec<String>,
}

impl NightlyReport {
    /// Whether every probe passed.
    pub fn all_passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }

    /// (passed, failed) counts.
    pub fn counts(&self) -> (usize, usize) {
        let passed = self.results.iter().filter(|r| r.passed).count();
        (passed, self.results.len() - passed)
    }

    /// The morning log.
    pub fn render(&self) -> String {
        let (passed, failed) = self.counts();
        let mut out = format!("nightly run: {passed} passed, {failed} failed\n");
        for r in &self.results {
            out.push_str(&format!(
                "  [{}] {} — {}\n",
                if r.passed { "PASS" } else { "FAIL" },
                r.name,
                r.detail
            ));
        }
        if !self.metrics.is_empty() {
            out.push_str("  metrics deltas:\n");
            for (series, delta) in &self.metrics {
                out.push_str(&format!("    {series} +{delta}\n"));
            }
        }
        if !self.lint.is_empty() {
            out.push_str("  pre-deploy analysis:\n");
            for line in &self.lint {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.verify.is_empty() {
            out.push_str("  verify:\n");
            for line in &self.verify {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.resilience.is_empty() {
            out.push_str("  resilience:\n");
            for line in &self.resilience {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.recovery.is_empty() {
            out.push_str("  durability:\n");
            for line in &self.recovery {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.overload.is_empty() {
            out.push_str("  overload:\n");
            for line in &self.overload {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.perf.is_empty() {
            out.push_str("  perf:\n");
            for line in &self.perf {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.shard.is_empty() {
            out.push_str("  shard:\n");
            for line in &self.shard {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if !self.mesh.is_empty() {
            out.push_str("  mesh:\n");
            for line in &self.mesh {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }
}

/// Mesh summary lines from a metrics registry — the server's, where
/// every path registers its per-wire series. Nonzero activity only: a
/// night with the mesh off (or no cross-session wires) stays silent.
pub fn mesh_section(obs: &rnl_obs::MetricsRegistry) -> Vec<String> {
    let mut lines = Vec::new();
    let wires = obs.gauge("rnl_mesh_wires", &[]).get();
    if wires > 0.0 {
        lines.push(format!("wires meshed: {wires}"));
    }
    for (name, label) in [
        ("rnl_mesh_offers_total", "paths offered"),
        ("rnl_mesh_revokes_total", "paths revoked"),
        ("rnl_mesh_direct_frames_total", "frames sent direct"),
        ("rnl_mesh_failovers_total", "failovers to relay"),
        ("rnl_mesh_failbacks_total", "failbacks to direct"),
        (
            "rnl_mesh_relay_fallback_frames_total",
            "relay-fallback frames",
        ),
    ] {
        let v = obs.counter_sum(name);
        if v > 0 {
            lines.push(format!("{label}: {v}"));
        }
    }
    lines
}

/// Shard-federation summary lines from a metrics registry — the
/// federation's own ([`rnl_server::shard::Federation::obs`]) for
/// sharded rigs. Nonzero activity only: a night with no shard faults or
/// trunk flaps stays silent, like every other section.
pub fn shard_section(obs: &rnl_obs::MetricsRegistry) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, label) in [
        ("rnl_server_shard_kills_total", "shards killed"),
        ("rnl_server_shard_recoveries_total", "shards recovered"),
        ("rnl_server_shard_trunk_frames_total", "trunk frames"),
        (
            "rnl_server_shard_trunk_reconnects_total",
            "trunk reconnects",
        ),
        (
            "rnl_server_shard_trunk_backlog_dropped_total",
            "trunk backlog drops",
        ),
        (
            "rnl_server_shard_trunk_fault_dropped_total",
            "trunk fault drops",
        ),
        (
            "rnl_server_shard_containment_sheds_total",
            "cross-shard frames shed",
        ),
    ] {
        let v = obs.counter_sum(name);
        if v > 0 {
            lines.push(format!("{label}: {v}"));
        }
    }
    lines
}

/// A list of probes run against one deployed lab.
#[derive(Debug, Clone, Default)]
pub struct NightlySuite {
    probes: Vec<PolicyProbe>,
}

impl NightlySuite {
    /// Empty suite.
    pub fn new() -> NightlySuite {
        NightlySuite::default()
    }

    /// Add a probe.
    pub fn add(&mut self, probe: PolicyProbe) -> &mut Self {
        self.probes.push(probe);
        self
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// True when the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// Run every probe against the deployed lab. The report captures
    /// the server counters that grew during the run alongside the
    /// pass/fail results.
    pub fn run(&self, labs: &mut RemoteNetworkLabs) -> Result<NightlyReport, LabError> {
        let before = labs.server_obs().snapshot();
        let mut results = Vec::with_capacity(self.probes.len());
        for probe in &self.probes {
            results.push(run_probe(labs, probe)?);
        }
        let metrics = counter_deltas(&before, &labs.server_obs().snapshot());
        // Re-analyze every saved design so the morning log flags lint
        // drift alongside probe failures.
        let names: Vec<String> = labs
            .server()
            .designs()
            .names()
            .map(str::to_string)
            .collect();
        let mut lint = Vec::with_capacity(names.len());
        // Also run the symbolic data-plane verifier: RNL05xx drift and
        // config-coverage gaps belong in the same morning log.
        let mut verify = Vec::new();
        for name in names {
            if let Ok(report) = labs.server().analyze_saved_design(&name) {
                lint.push(format!("{name}: {}", report.summary()));
            }
            if let Ok(outcome) = labs.server().verify_saved_design(&name) {
                verify.push(format!(
                    "{name}: {}; coverage {}",
                    outcome.report.summary(),
                    outcome.coverage.summary()
                ));
                for item in outcome.coverage.unused().take(3) {
                    verify.push(format!(
                        "{name} gap: {} {} `{}`",
                        item.key.device,
                        item.key.kind.label(),
                        item.label
                    ));
                }
            }
        }
        // Resilience counters: anything nonzero means sessions flapped
        // (or worse) during the night and belongs in the morning log.
        let obs = labs.server_obs();
        let mut resilience = Vec::new();
        for (name, label) in [
            ("rnl_server_session_disconnects_total", "disconnects"),
            ("rnl_server_session_readopted_total", "re-adopted"),
            ("rnl_server_session_reaped_total", "reaped"),
            ("rnl_server_register_imposter_total", "imposters rejected"),
            ("rnl_ris_reconnect_attempts_total", "reconnect attempts"),
            ("rnl_ris_reconnect_success_total", "reconnects succeeded"),
        ] {
            let v = obs.counter_sum(name);
            if v > 0 {
                resilience.push(format!("{label}: {v}"));
            }
        }
        let shed = obs.snapshot().counter(
            "rnl_server_frames_unrouted_total",
            &[("reason", "session-graced")],
        );
        if shed > 0 {
            resilience.push(format!("frames shed during grace: {shed}"));
        }
        // Durability counters, same idiom: a crash-free night with no
        // journal reports nothing here.
        let mut recovery = Vec::new();
        for (name, label) in [
            ("rnl_server_journal_appends_total", "journal appends"),
            ("rnl_server_journal_replayed_total", "records replayed"),
            ("rnl_server_journal_torn_total", "torn records truncated"),
            ("rnl_server_replay_queued_total", "frames queued for replay"),
            ("rnl_server_replay_flushed_total", "replayed frames flushed"),
        ] {
            let v = obs.counter_sum(name);
            if v > 0 {
                recovery.push(format!("{label}: {v}"));
            }
        }
        // Overload counters: sheds, deadline expiries, policy switches.
        // A night below the high-water mark reports nothing.
        let mut overload = Vec::new();
        let snap = obs.snapshot();
        for tier in ["0", "1", "2"] {
            for reason in ["hwm", "session-quota"] {
                let v = snap.counter(
                    "rnl_server_shed_total",
                    &[("tier", tier), ("reason", reason)],
                );
                if v > 0 {
                    overload.push(format!("tier-{tier} ops shed ({reason}): {v}"));
                }
            }
        }
        for (name, label) in [
            ("rnl_server_deadline_expired_total", "op deadlines expired"),
            ("rnl_server_backlog_policy_total", "backlog-policy switches"),
            (
                "rnl_ris_retry_budget_exhausted_total",
                "retry budgets exhausted",
            ),
        ] {
            let v = obs.counter_sum(name);
            if v > 0 {
                overload.push(format!("{label}: {v}"));
            }
        }
        // Perf: every populated quantile series on the server registry
        // (latency quantiles but not the wall-clock `rnl_perf_*_ns`
        // profiles, which are nondeterministic), plus slow-op captures.
        let mut perf = Vec::new();
        for point in &snap.metrics {
            if let rnl_obs::MetricValue::Quantile(q) = &point.value {
                if q.count == 0 || point.name.ends_with("_ns") {
                    continue;
                }
                perf.push(format!(
                    "{}: p50={} p99={} max={} (n={})",
                    point.series_id(),
                    q.quantile(0.5).unwrap_or(0),
                    q.quantile(0.99).unwrap_or(0),
                    q.max,
                    q.count
                ));
            }
        }
        let slow = obs.counter_sum("rnl_perf_slow_ops_total");
        if slow > 0 {
            perf.push(format!("slow ops captured: {slow}"));
        }
        // Shard section: single-server runs have no shard counters on
        // this registry, so the section stays silent here; sharded rigs
        // overwrite it from the federation's registry.
        let shard = shard_section(obs);
        // Mesh section: which wires skipped the relay tonight, and what
        // the supervisors did about the ones that could not.
        let mesh = mesh_section(obs);
        Ok(NightlyReport {
            results,
            metrics,
            lint,
            verify,
            resilience,
            recovery,
            overload,
            perf,
            shard,
            mesh,
        })
    }
}

/// Execute one probe: capture → inject → run → judge.
pub fn run_probe(
    labs: &mut RemoteNetworkLabs,
    probe: &PolicyProbe,
) -> Result<ProbeResult, LabError> {
    let (cap_router, cap_port) = probe.capture_at;
    labs.server_mut().captures_mut().clear(cap_router, cap_port);
    labs.server_mut().captures_mut().start(cap_router, cap_port);
    labs.inject(probe.inject_at.0, probe.inject_at.1, probe.frame())?;
    labs.run(probe.wait)?;

    // Did any frame carrying the probe marker cross the monitored wire?
    let arrived = labs
        .server()
        .captures()
        .captured(cap_router, cap_port)
        .iter()
        .any(|f| {
            f.frame
                .windows(PROBE_MARKER.len())
                .any(|w| w == PROBE_MARKER)
        });
    labs.server_mut().captures_mut().stop(cap_router, cap_port);

    let (passed, detail) = match (probe.expect, arrived) {
        (Expectation::Reachable, true) => (true, "probe arrived as required".to_string()),
        (Expectation::Reachable, false) => (
            false,
            "probe did not arrive (connectivity broken)".to_string(),
        ),
        (Expectation::Unreachable, false) => (true, "probe blocked as required".to_string()),
        (Expectation::Unreachable, true) => (
            false,
            "SECURITY POLICY VIOLATION: probe reached the forbidden subnet".to_string(),
        ),
    };
    Ok(ProbeResult {
        name: probe.name.clone(),
        passed,
        detail,
    })
}

/// The Fig. 6 probe: "generate a packet destined to subnet B on port
/// R1.1 … capture packets at port R2.1 to see if the packet has made
/// through."
pub fn fig6_probe(r1: RouterId, r2: RouterId, r1_mac: MacAddr, host_a_mac: MacAddr) -> PolicyProbe {
    PolicyProbe {
        name: "subnet A must not reach subnet B".to_string(),
        inject_at: (r1, PortId(0)),
        dst_mac: r1_mac,
        src_mac: host_a_mac,
        src_ip: crate::scenarios::FIG6_PROBE_SRC.parse().expect("valid"),
        dst_ip: crate::scenarios::FIG6_PROBE_DST.parse().expect("valid"),
        dst_port: 4321,
        capture_at: (r2, PortId(0)),
        expect: Expectation::Unreachable,
        wait: Duration::from_secs(3),
    }
}
