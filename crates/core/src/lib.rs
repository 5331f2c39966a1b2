//! # rnl-core — the Remote Network Labs public API
//!
//! This crate is the system of the paper assembled: a network cloud
//! from which "a user could request network equipment remotely and
//! connect them through a GUI or web services interface."
//! [`RemoteNetworkLabs`] owns one back-end route server and any number
//! of *sites* — geographically distributed interface PCs (RIS
//! instances), each fronting equipment and dialing in over its own
//! (optionally WAN-impaired) tunnel.
//!
//! The facade exposes the paper's full user journey:
//!
//! 1. **Join** — [`RemoteNetworkLabs::add_site`] +
//!    [`RemoteNetworkLabs::add_device`] + [`RemoteNetworkLabs::join_labs`]
//!    put equipment in the inventory (Fig. 3).
//! 2. **Design** — build a [`rnl_server::design::Design`] (or drive the
//!    JSON web-services API) connecting ports (Fig. 2).
//! 3. **Reserve & deploy** — the calendar gates
//!    [`RemoteNetworkLabs::deploy`], which installs the routing matrix
//!    (Fig. 4's forwarding state).
//! 4. **Test** — consoles ([`RemoteNetworkLabs::console`]), software
//!    packet generation/capture, and the [`nightly`] automated-test
//!    harness.
//! 5. **Tear down** — [`RemoteNetworkLabs::teardown`].
//!
//! Prebuilt labs for the paper's two worked examples live in
//! [`scenarios`]: the Fig. 5 FWSM failover lab and the Fig. 6 security
//! policy lab.

#![deny(unsafe_code)]

pub mod nightly;
pub mod scenarios;
pub mod shardlab;
pub mod terminal;

use std::collections::HashMap;

use rnl_device::device::Device;
use rnl_net::time::{Duration, Instant};
use rnl_obs::{lcg64, merge_trace, EventJournal, FrameEvent, MetricsRegistry, SlowOp, TraceId};
use rnl_ris::{Dialer, Ris, RisError, Supervisor};
use rnl_server::design::Design;
use rnl_server::journal::{CrashPoint, MemJournal, SharedStore};
use rnl_server::matrix::DeploymentId;
use rnl_server::reserve::ReservationId;
use rnl_server::web::{self, Request, Response};
use rnl_server::{RouteServer, ServerError};
use rnl_tunnel::faults::FaultPlan;
use rnl_tunnel::impair::Impairment;
use rnl_tunnel::msg::{PortId, RouterId};
use rnl_tunnel::transport::{mem_pair, Transport, TransportError, TransportMetrics};

/// Identifies a site (one interface PC) within the facade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(pub usize);

/// Facade-level failure.
#[derive(Debug)]
pub enum LabError {
    Server(ServerError),
    Ris(RisError),
    /// Site id out of range.
    UnknownSite(SiteId),
    /// A console exchange produced no reply within the polling budget.
    ConsoleTimeout(RouterId),
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Server(e) => write!(f, "server: {e}"),
            LabError::Ris(e) => write!(f, "ris: {e}"),
            LabError::UnknownSite(s) => write!(f, "unknown site {}", s.0),
            LabError::ConsoleTimeout(r) => write!(f, "no console reply from {r}"),
        }
    }
}

impl std::error::Error for LabError {}

impl From<ServerError> for LabError {
    fn from(e: ServerError) -> LabError {
        LabError::Server(e)
    }
}

impl From<RisError> for LabError {
    fn from(e: RisError) -> LabError {
        LabError::Ris(e)
    }
}

/// The default clock step used by the convenience runners: 10 ms of
/// virtual time per poll cycle.
pub const DEFAULT_STEP: Duration = Duration::from_millis(10);

/// The facades' one hint-wait rule: how long `api_with_retry` runs the
/// clock before re-sending a request answered with a retryable error
/// (`overloaded`, `shard-down`). The hint is capped at a second so a
/// pathological configuration (refill rate zero) cannot wedge the
/// clock, plus one step. `None` for every other response — success or
/// hard failure — since retrying those would only add load.
pub(crate) fn retry_wait(response: &Response) -> Option<Duration> {
    match response {
        Response::Error {
            retry_after_us: Some(us),
            ..
        } => Some(Duration::from_micros((*us).min(1_000_000)) + DEFAULT_STEP),
        _ => None,
    }
}

/// One interface PC inside the facade: its RIS, the supervisor that
/// keeps it joined across uplink outages, and the dialing profile the
/// facade uses to build replacement tunnels.
struct Site {
    ris: Ris,
    supervisor: Supervisor,
    /// WAN profile applied (both directions) to every dialed tunnel.
    impairment: Impairment,
    /// Fault schedule installed on the RIS side of every dialed tunnel
    /// (stalls, partitions, cuts on the virtual clock).
    faults: FaultPlan,
    /// Fault schedule installed on this site's end of every *mesh peer*
    /// transport the facade builds — the E17-style knob for cutting a
    /// direct path mid-storm and forcing relay fallback.
    mesh_faults: FaultPlan,
    pc_name: String,
    /// Scheduled uplink cuts: `(cut at, down for)`.
    pending_flaps: Vec<(Instant, Duration)>,
    /// While `Some`, dial attempts fail until the clock passes it.
    link_down_until: Option<Instant>,
}

/// Dials fresh in-memory tunnels for one facade site, attaching the
/// server side exactly like [`RemoteNetworkLabs::add_site_with_impairment`]
/// does — unless the site's link is administratively down (a flap in
/// progress), in which case the dial fails and the supervisor backs off.
struct FacadeDialer<'a> {
    server: &'a mut RouteServer,
    seed: &'a mut u64,
    impairment: Impairment,
    faults: &'a FaultPlan,
    pc_name: &'a str,
    link_down_until: Option<Instant>,
    /// The back end crashed and has not been recovered: nobody answers.
    server_down: bool,
}

impl Dialer for FacadeDialer<'_> {
    fn dial(&mut self, now: Instant) -> Result<Box<dyn Transport>, TransportError> {
        if self.server_down || self.link_down_until.is_some_and(|until| now < until) {
            return Err(TransportError::Closed);
        }
        *self.seed = lcg64(*self.seed);
        let (mut ris_side, mut server_side) =
            mem_pair(self.impairment, self.impairment, *self.seed);
        if !self.faults.is_empty() {
            ris_side.set_faults(self.faults.clone());
        }
        server_side.attach_metrics(TransportMetrics::from_registry(
            self.server.obs(),
            &[("site", self.pc_name)],
        ));
        self.server.attach(Box::new(server_side));
        Ok(Box::new(ris_side))
    }
}

/// The whole network cloud in one value: back end + sites.
pub struct RemoteNetworkLabs {
    server: RouteServer,
    sites: Vec<Site>,
    now: Instant,
    seed: u64,
    /// Shared backing store of the in-memory journal while durability
    /// is enabled — the only thing that survives [`Self::crash_server`].
    journal_store: Option<SharedStore>,
    /// True between [`Self::crash_server`] and [`Self::recover_server`]:
    /// the back end is down and every dial attempt is refused.
    server_down: bool,
    /// Half-paired mesh dials: wire id → the site index that asked
    /// first. The peer transport is built only once *both* endpoints
    /// have their offer (and thus their dial queued), so neither end
    /// probes into a void.
    pending_mesh: HashMap<u64, usize>,
}

impl Default for RemoteNetworkLabs {
    fn default() -> RemoteNetworkLabs {
        RemoteNetworkLabs::new()
    }
}

impl RemoteNetworkLabs {
    /// A fresh cloud with reservation enforcement on (it is a shared
    /// facility).
    pub fn new() -> RemoteNetworkLabs {
        RemoteNetworkLabs {
            server: RouteServer::new(),
            sites: Vec::new(),
            now: Instant::EPOCH,
            seed: 0x5eed,
            journal_store: None,
            server_down: false,
            pending_mesh: HashMap::new(),
        }
    }

    /// A cloud with reservation enforcement off — convenient for tests
    /// and experiments that are not about the calendar.
    pub fn new_unreserved() -> RemoteNetworkLabs {
        let mut labs = RemoteNetworkLabs::new();
        labs.server.set_enforce_reservations(false);
        labs
    }

    /// The virtual clock.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Direct access to the back end (inventory, calendar, captures…).
    pub fn server(&self) -> &RouteServer {
        &self.server
    }

    /// Mutable back-end access.
    pub fn server_mut(&mut self) -> &mut RouteServer {
        &mut self.server
    }

    /// Add a site with a perfect (same-rack) connection to the server.
    pub fn add_site(&mut self, pc_name: &str) -> SiteId {
        self.add_site_with_impairment(pc_name, Impairment::PERFECT)
    }

    /// Add a geographically remote site: its tunnel traffic suffers
    /// `impairment` in both directions (§3.5 / §4 delay-and-jitter).
    pub fn add_site_with_impairment(&mut self, pc_name: &str, impairment: Impairment) -> SiteId {
        self.add_site_with_faults(pc_name, impairment, FaultPlan::new())
    }

    /// Add a site whose uplink carries both a WAN impairment and a
    /// scheduled [`FaultPlan`] (stalls / partitions / cuts on the
    /// virtual clock). The plan is installed on the RIS side of every
    /// tunnel the site dials — including supervisor redials — so a
    /// scheduled stall reliably hits whichever tunnel is live when its
    /// window opens.
    pub fn add_site_with_faults(
        &mut self,
        pc_name: &str,
        impairment: Impairment,
        faults: FaultPlan,
    ) -> SiteId {
        self.seed = lcg64(self.seed);
        let (mut ris_side, mut server_side) = mem_pair(impairment, impairment, self.seed);
        if !faults.is_empty() {
            ris_side.set_faults(faults.clone());
        }
        // The server-side transport reports per-site codec sizes and
        // impairment delays into the server's registry.
        server_side.attach_metrics(TransportMetrics::from_registry(
            self.server.obs(),
            &[("site", pc_name)],
        ));
        self.server.attach(Box::new(server_side));
        // The supervisor's reconnect counters live on the server
        // registry so one scrape shows every site's resilience story.
        self.seed = lcg64(self.seed);
        let supervisor = Supervisor::new(self.seed, self.server.obs(), &[("site", pc_name)]);
        self.sites.push(Site {
            ris: Ris::new(pc_name, Box::new(ris_side)),
            supervisor,
            impairment,
            faults,
            mesh_faults: FaultPlan::new(),
            pc_name: pc_name.to_string(),
            pending_flaps: Vec::new(),
            link_down_until: None,
        });
        SiteId(self.sites.len() - 1)
    }

    /// Plug a device into a site; returns the RIS-local id.
    pub fn add_device(
        &mut self,
        site: SiteId,
        device: Box<dyn Device>,
        description: &str,
    ) -> Result<u32, LabError> {
        let site = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        Ok(site.ris.add_device(device, description))
    }

    /// Join a site to the labs and run the registration handshake to
    /// completion; returns the global ids assigned, in local-id order.
    pub fn join_labs(&mut self, site: SiteId) -> Result<Vec<RouterId>, LabError> {
        let now = self.now;
        let site_ref = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        site_ref.ris.join_labs(now)?;
        // Registration + ack may cross impaired links; allow a generous
        // virtual-time budget.
        for _ in 0..200 {
            self.step(DEFAULT_STEP)?;
            if self.sites[site.0].ris.registered() {
                break;
            }
        }
        let ris = &self.sites[site.0].ris;
        let mut ids = Vec::new();
        let mut local = 0;
        while let Some(id) = ris.router_id(local) {
            ids.push(id);
            local += 1;
        }
        Ok(ids)
    }

    /// Advance the virtual clock one step: trigger due flaps, supervise
    /// every site (poll while healthy, redial when due), poll the
    /// server, and poll the sites again (so server replies land within
    /// the step).
    pub fn step(&mut self, dt: Duration) -> Result<(), LabError> {
        self.now += dt;
        let now = self.now;
        for site in &mut self.sites {
            // Cut uplinks whose scheduled flap is due; the supervisor
            // redials once the link-down window passes.
            let mut i = 0;
            while i < site.pending_flaps.len() {
                if site.pending_flaps[i].0 <= now {
                    let (_, down_for) = site.pending_flaps.remove(i);
                    site.ris.sever();
                    let until = now + down_for;
                    site.link_down_until =
                        Some(site.link_down_until.map_or(until, |u| u.max(until)));
                } else {
                    i += 1;
                }
            }
            if site.link_down_until.is_some_and(|until| now >= until) {
                site.link_down_until = None;
            }
            let mut dialer = FacadeDialer {
                server: &mut self.server,
                seed: &mut self.seed,
                impairment: site.impairment,
                faults: &site.faults,
                pc_name: &site.pc_name,
                link_down_until: site.link_down_until,
                server_down: self.server_down,
            };
            site.supervisor.tick(&mut site.ris, &mut dialer, now)?;
        }
        self.server.poll(now);
        for site in &mut self.sites {
            // A transport death here is next step's supervision problem;
            // masking it would hide nothing (the server already graced
            // the session).
            match site.ris.poll(now) {
                Ok(()) | Err(RisError::Transport(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.server.poll(now);
        // Satisfy mesh dials queued by the RIS agents this step. The
        // facade plays the network: it builds the peer transport a real
        // deployment would get from a direct TCP dial.
        self.pair_mesh_dials(now);
        Ok(())
    }

    /// Pair queued mesh dials into peer transports. A wire's transport
    /// is built only once *both* endpoints have dialed (each dial
    /// implies its offer arrived), so the two paths install on the same
    /// step and neither end probes into a void. Each end gets its own
    /// site's WAN impairment outbound and its site's mesh fault plan.
    fn pair_mesh_dials(&mut self, now: Instant) {
        let mut dials: Vec<(usize, u64)> = Vec::new();
        for (i, site) in self.sites.iter_mut().enumerate() {
            for dial in site.ris.take_pending_mesh_dials() {
                dials.push((i, dial.wire));
            }
        }
        for (i, wire) in dials {
            match self.pending_mesh.remove(&wire) {
                Some(j) if j != i => {
                    let obs = self.server.obs().clone();
                    self.seed = lcg64(self.seed);
                    let pair_seed = self.seed;
                    let (lo, hi) = (j.min(i), j.max(i));
                    let (head, tail) = self.sites.split_at_mut(hi);
                    let (sl, sh) = (&mut head[lo], &mut tail[0]);
                    let (mut lo_end, mut hi_end) =
                        mem_pair(sl.impairment, sh.impairment, pair_seed);
                    if !sl.mesh_faults.is_empty() {
                        lo_end.set_faults(sl.mesh_faults.clone());
                    }
                    if !sh.mesh_faults.is_empty() {
                        hi_end.set_faults(sh.mesh_faults.clone());
                    }
                    sl.ris
                        .install_mesh_path(wire, Box::new(lo_end), pair_seed, &obs, now);
                    sh.ris.install_mesh_path(
                        wire,
                        Box::new(hi_end),
                        pair_seed.wrapping_add(1),
                        &obs,
                        now,
                    );
                }
                // A repeat dial from the same site (rotated secret while
                // the peer lags) just keeps waiting for the peer.
                _ => {
                    self.pending_mesh.insert(wire, i);
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Durability: journal, crash, recover
    // -----------------------------------------------------------------

    /// Turn on crash-safe persistence, backed by an in-memory journal
    /// whose store outlives the server. An initial snapshot of the
    /// current state commits immediately; from then on every mutation
    /// is journaled, so [`Self::crash_server`] followed by
    /// [`Self::recover_server`] restores the exact back-end state.
    pub fn enable_durability(&mut self) -> Result<(), LabError> {
        let journal = MemJournal::new();
        self.journal_store = Some(journal.store());
        let now = self.now;
        Ok(self.server.set_durability(Box::new(journal), now)?)
    }

    /// Arm (or disarm) a crash-injection point on the server's journal.
    pub fn arm_server_crash(&mut self, point: Option<CrashPoint>) {
        self.server.arm_crash(point);
    }

    /// Kill the back end. Everything in server memory — sessions,
    /// routing matrix, captures — is gone; only the journal store
    /// survives. Site tunnels die with it (their server ends drop), and
    /// every redial is refused until [`Self::recover_server`]. The
    /// stand-in server keeps the old configuration so recovery can
    /// re-apply it.
    pub fn crash_server(&mut self) {
        let enforce = self.server.reservations_enforced();
        let grace = self.server.grace_window();
        let compress = self.server.compress_downstream();
        let overload = self.server.overload_config();
        let mesh = self.server.mesh_enabled();
        self.server = RouteServer::new();
        self.server.set_enforce_reservations(enforce);
        self.server.set_grace_window(grace);
        self.server.set_compress_downstream(compress);
        self.server.set_overload_config(overload, self.now);
        self.server.set_mesh_enabled(mesh);
        // Half-paired dials reference the dead server's wire ids.
        self.pending_mesh.clear();
        self.server_down = true;
    }

    /// Bring the back end up from the journal: replay snapshot + tail,
    /// re-apply the configuration, and start accepting dials again. The
    /// sites' supervisors redial on their own; within the grace window
    /// their sessions re-adopt the recovered deployments.
    pub fn recover_server(&mut self) -> Result<(), LabError> {
        let Some(store) = self.journal_store.clone() else {
            return Err(LabError::Server(ServerError::Durability(
                "durability was never enabled".to_string(),
            )));
        };
        let enforce = self.server.reservations_enforced();
        let grace = self.server.grace_window();
        let compress = self.server.compress_downstream();
        let overload = self.server.overload_config();
        let mesh = self.server.mesh_enabled();
        let now = self.now;
        let mut server = RouteServer::recover(Box::new(MemJournal::attached(store)), now)?;
        server.set_enforce_reservations(enforce);
        server.set_grace_window(grace);
        server.set_compress_downstream(compress);
        server.set_overload_config(overload, now);
        server.set_mesh_enabled(mesh);
        self.server = server;
        self.server_down = false;
        Ok(())
    }

    /// Whether the back end is currently crashed (dials refused).
    pub fn server_down(&self) -> bool {
        self.server_down
    }

    // -----------------------------------------------------------------
    // Fault injection: uplink flaps
    // -----------------------------------------------------------------

    /// Cut a site's uplink now. The tunnel stays un-dialable for
    /// `down_for` of virtual time, after which the site's supervisor
    /// redials, rejoins with a rotated epoch, and (within the server's
    /// grace window) re-adopts its routers and deployments.
    pub fn flap_site(&mut self, site: SiteId, down_for: Duration) -> Result<(), LabError> {
        let now = self.now;
        let s = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        s.ris.sever();
        let until = now + down_for;
        s.link_down_until = Some(s.link_down_until.map_or(until, |u| u.max(until)));
        Ok(())
    }

    /// Schedule a flap: at virtual time `at`, the site's uplink is cut
    /// for `down_for`. Deterministic fault injection for experiments —
    /// flaps fire inside [`RemoteNetworkLabs::step`] on the shared
    /// clock, never from wall time.
    pub fn schedule_flap(
        &mut self,
        site: SiteId,
        at: Instant,
        down_for: Duration,
    ) -> Result<(), LabError> {
        let s = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        s.pending_flaps.push((at, down_for));
        Ok(())
    }

    /// Whether a site's supervisor is currently riding out an outage.
    pub fn site_in_outage(&self, site: SiteId) -> bool {
        self.sites
            .get(site.0)
            .is_some_and(|s| s.supervisor.in_outage())
    }

    /// Whether a site's tunnel is believed up right now.
    pub fn site_connected(&self, site: SiteId) -> bool {
        self.sites.get(site.0).is_some_and(|s| s.ris.connected())
    }

    /// Run the cloud for `duration` of virtual time in `DEFAULT_STEP`
    /// increments.
    pub fn run(&mut self, duration: Duration) -> Result<(), LabError> {
        self.run_with_step(duration, DEFAULT_STEP)
    }

    /// Run with a custom step.
    pub fn run_with_step(&mut self, duration: Duration, step: Duration) -> Result<(), LabError> {
        let end = self.now + duration;
        while self.now < end {
            self.step(step)?;
        }
        Ok(())
    }

    /// Enable RIS→server template compression for one site (§4).
    pub fn set_site_compression(&mut self, site: SiteId, on: bool) -> Result<(), LabError> {
        let site = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        site.ris.set_compression(on);
        Ok(())
    }

    /// Enable server→RIS template compression for relayed frames (§4).
    pub fn set_downstream_compression(&mut self, on: bool) {
        self.server.set_compress_downstream(on);
    }

    // -----------------------------------------------------------------
    // Mesh: the direct site-to-site data plane
    // -----------------------------------------------------------------

    /// Turn the direct site-to-site data plane on or off (the `--mesh`
    /// flag). Enabling offers a peer path for every cross-session wire
    /// of every live deployment; the sites dial each other on the next
    /// step and frames skip the relay while the paths stay healthy.
    pub fn set_mesh(&mut self, on: bool) {
        self.server.set_mesh_enabled(on);
    }

    /// Whether the mesh is on.
    pub fn mesh_enabled(&self) -> bool {
        self.server.mesh_enabled()
    }

    /// Install a fault schedule on `site`'s end of every mesh peer
    /// transport built from now on (stalls / partitions / cuts on the
    /// virtual clock). Set it *before* enabling the mesh or deploying,
    /// so the plan rides the transport from its first frame.
    pub fn set_site_mesh_faults(
        &mut self,
        site: SiteId,
        faults: FaultPlan,
    ) -> Result<(), LabError> {
        let s = self
            .sites
            .get_mut(site.0)
            .ok_or(LabError::UnknownSite(site))?;
        s.mesh_faults = faults;
        Ok(())
    }

    /// A site's mesh agent (path states, per-path accounting) — the
    /// read side experiments assert against.
    pub fn site_mesh(&self, site: SiteId) -> Option<&rnl_ris::MeshAgent> {
        self.sites.get(site.0).map(|s| s.ris.mesh())
    }

    /// Mutable access to a device behind a site (test instrumentation —
    /// the physical-lab equivalent of walking up to the box).
    pub fn device_mut(&mut self, site: SiteId, local_id: u32) -> Option<&mut dyn Device> {
        self.sites.get_mut(site.0)?.ris.device_mut(local_id)
    }

    // -----------------------------------------------------------------
    // Observability
    // -----------------------------------------------------------------

    /// The back end's metrics registry (relay counters, per-wire
    /// latency, per-site tunnel metrics).
    pub fn server_obs(&self) -> &MetricsRegistry {
        self.server.obs()
    }

    /// One site's metrics registry (per-NIC counters, compression
    /// ratio, destination-side wire latency).
    pub fn site_obs(&self, site: SiteId) -> Option<&MetricsRegistry> {
        self.sites.get(site.0).map(|s| s.ris.obs())
    }

    /// One site's frame-path journal.
    pub fn site_journal(&self, site: SiteId) -> Option<&EventJournal> {
        self.sites.get(site.0).map(|s| s.ris.journal())
    }

    /// The back end's slow-op flight recorder contents, oldest first:
    /// every relay / console / flash whose virtual-clock duration
    /// crossed its class threshold, each carrying the [`TraceId`] that
    /// [`Self::trace`] resolves to the full hop path.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.server.slow_ops()
    }

    /// Set the slow-op capture threshold (virtual µs) for one op class
    /// (`"relay"`, `"console"`, `"flash"`).
    pub fn set_slow_threshold(&mut self, class: &'static str, threshold_us: u64) {
        self.server.set_slow_threshold(class, threshold_us);
    }

    /// All events for one frame's TraceId, merged across the server and
    /// every site journal and ordered by virtual time — the Fig. 4
    /// hop-by-hop path (RIS rx → encode → server relay → matrix →
    /// RIS tx) reconstructed after the fact.
    pub fn trace(&self, trace: TraceId) -> Vec<FrameEvent> {
        let mut journals: Vec<&EventJournal> = vec![self.server.journal()];
        journals.extend(self.sites.iter().map(|s| s.ris.journal()));
        merge_trace(&journals, trace)
    }

    // -----------------------------------------------------------------
    // User journey: design / reserve / deploy / test / teardown
    // -----------------------------------------------------------------

    /// Save a design on the web server (journaled when durability is
    /// enabled, like every other web-surface mutation).
    pub fn save_design(&mut self, design: Design) {
        self.server.save_design(design);
    }

    /// Reserve all routers of a saved design.
    pub fn reserve(
        &mut self,
        user: &str,
        design: &str,
        start: Instant,
        end: Instant,
    ) -> Result<ReservationId, LabError> {
        Ok(self.server.reserve_design(user, design, start, end)?)
    }

    /// Deploy a saved design.
    pub fn deploy(&mut self, user: &str, design: &str) -> Result<DeploymentId, LabError> {
        let now = self.now;
        Ok(self.server.deploy(user, design, now)?)
    }

    /// Deploy an unsaved design.
    pub fn deploy_design(&mut self, user: &str, design: &Design) -> Result<DeploymentId, LabError> {
        let now = self.now;
        Ok(self.server.deploy_design(user, design, now)?)
    }

    /// Deploy a saved design with the static-analysis gate overridden.
    pub fn deploy_forced(&mut self, user: &str, design: &str) -> Result<DeploymentId, LabError> {
        let now = self.now;
        Ok(self.server.deploy_forced(user, design, now)?)
    }

    /// Deploy an unsaved design with the static-analysis gate
    /// overridden.
    pub fn deploy_design_forced(
        &mut self,
        user: &str,
        design: &Design,
    ) -> Result<DeploymentId, LabError> {
        let now = self.now;
        Ok(self.server.deploy_design_forced(user, design, now)?)
    }

    /// Run pre-deploy static analysis over a saved design.
    pub fn analyze_design(&self, design: &str) -> Result<rnl_server::lint::Report, LabError> {
        Ok(self.server.analyze_saved_design(design)?)
    }

    /// Run the symbolic data-plane verifier over a saved design:
    /// RNL05xx findings, host-pair reachability, and config coverage.
    pub fn verify_design(&self, design: &str) -> Result<rnl_server::lint::VerifyOutcome, LabError> {
        Ok(self.server.verify_saved_design(design)?)
    }

    /// Tear a deployment down.
    pub fn teardown(&mut self, id: DeploymentId) -> bool {
        self.server.teardown(id)
    }

    /// Send one console line and wait (in virtual time) for the reply —
    /// the facade's version of the §2.1 VT100 pane.
    pub fn console(&mut self, router: RouterId, line: &str) -> Result<String, LabError> {
        let now = self.now;
        self.server.console(router, line, now)?;
        for _ in 0..100 {
            self.step(DEFAULT_STEP)?;
            let replies = self.server.console_replies(router);
            if !replies.is_empty() {
                return Ok(replies.concat());
            }
        }
        Err(LabError::ConsoleTimeout(router))
    }

    /// Dump a router's running configuration over its console (§2.1
    /// auto-save). Returns the config text.
    pub fn dump_config(&mut self, router: RouterId) -> Result<String, LabError> {
        // Enter privileged mode, then dump. The replies for both lines
        // arrive together; keep the one that looks like a config.
        let now = self.now;
        self.server.console(router, "enable", now)?;
        let output = self.console(router, "show running-config")?;
        Ok(output
            .lines()
            .filter(|l| !l.is_empty())
            .collect::<Vec<_>>()
            .join("\n")
            + "\n")
    }

    /// Tune the back end's admission-control policy (global high-water
    /// mark, per-session quotas, op deadlines). Survives
    /// [`Self::crash_server`] / [`Self::recover_server`], like the other
    /// server configuration knobs.
    pub fn set_overload_config(&mut self, cfg: rnl_server::overload::OverloadConfig) {
        let now = self.now;
        self.server.set_overload_config(cfg, now);
    }

    /// One typed web-services call.
    pub fn api(&mut self, request: Request) -> Response {
        let now = self.now;
        web::handle(&mut self.server, request, now)
    }

    /// One typed web-services call with a client-side retry budget: an
    /// overload shed carrying a `retry_after` hint is retried after
    /// waiting out the hint on the virtual clock (capped at 1 s), at
    /// most `budget` times. Every other response returns immediately.
    pub fn api_with_retry(&mut self, request: Request, budget: u32) -> Result<Response, LabError> {
        let mut last = self.api(request.clone());
        for _ in 0..budget {
            let Some(wait) = retry_wait(&last) else { break };
            self.run(wait)?;
            last = self.api(request.clone());
        }
        Ok(last)
    }

    /// One JSON web-services call.
    pub fn api_json(&mut self, request: &str) -> String {
        let now = self.now;
        web::handle_json(&mut self.server, request, now)
    }

    /// Inject a frame into a port (generation module).
    pub fn inject(
        &mut self,
        router: RouterId,
        port: PortId,
        frame: Vec<u8>,
    ) -> Result<(), LabError> {
        let now = self.now;
        Ok(self.server.inject(router, port, frame, now)?)
    }

    /// Power a router on or off (failure injection, §3.1: "She can also
    /// shutdown one switch … to simulate a switch failure").
    pub fn set_power(&mut self, router: RouterId, on: bool) {
        let now = self.now;
        self.server.set_power(router, on, now);
    }

    /// Flash a firmware image and wait for the result.
    pub fn flash(&mut self, router: RouterId, version: &str) -> Result<(), LabError> {
        let now = self.now;
        self.server.flash(router, version, now);
        for _ in 0..100 {
            self.step(DEFAULT_STEP)?;
            let results = self.server.flash_results(router);
            if let Some((ok, message)) = results.into_iter().next() {
                if ok {
                    return Ok(());
                }
                return Err(LabError::Server(ServerError::Reservation(message)));
            }
        }
        Err(LabError::ConsoleTimeout(router))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnl_device::host::Host;

    fn host(name: &str, num: u32, ip: &str, gw: Option<&str>) -> Box<Host> {
        let mut h = Host::new(name, num);
        h.set_ip(ip.parse().unwrap());
        if let Some(gw) = gw {
            h.set_gateway(gw.parse().unwrap());
        }
        Box::new(h)
    }

    #[test]
    fn join_design_deploy_ping() {
        let mut labs = RemoteNetworkLabs::new_unreserved();
        let site = labs.add_site("pc1");
        labs.add_device(site, host("s1", 1, "10.0.0.1/24", None), "s1")
            .unwrap();
        labs.add_device(site, host("s2", 2, "10.0.0.2/24", None), "s2")
            .unwrap();
        let ids = labs.join_labs(site).unwrap();
        assert_eq!(ids.len(), 2);

        let mut design = Design::new("pair");
        design.add_device(ids[0]);
        design.add_device(ids[1]);
        design
            .connect((ids[0], PortId(0)), (ids[1], PortId(0)))
            .unwrap();
        labs.save_design(design);
        labs.deploy("alice", "pair").unwrap();

        labs.device_mut(site, 0)
            .unwrap()
            .console("ping 10.0.0.2 count 3", Instant::EPOCH);
        labs.run(Duration::from_secs(5)).unwrap();
        let out = labs.console(ids[0], "show ping").unwrap();
        assert!(out.contains("3 sent, 3 received"), "got: {out}");
    }

    #[test]
    fn reservations_enforced_by_default() {
        let mut labs = RemoteNetworkLabs::new();
        let site = labs.add_site("pc1");
        labs.add_device(site, host("s1", 1, "10.0.0.1/24", None), "s1")
            .unwrap();
        let ids = labs.join_labs(site).unwrap();
        let mut design = Design::new("solo");
        design.add_device(ids[0]);
        labs.save_design(design);
        assert!(labs.deploy("alice", "solo").is_err());
        let now = labs.now();
        labs.reserve("alice", "solo", now, now + Duration::from_secs(3600))
            .unwrap();
        labs.deploy("alice", "solo").unwrap();
    }

    #[test]
    fn remote_site_with_wan_impairment_still_works() {
        // §3.3 avoid-shipping: equipment joins from across the WAN.
        let mut labs = RemoteNetworkLabs::new_unreserved();
        let hq = labs.add_site("hq");
        let remote = labs.add_site_with_impairment("client-site", Impairment::wan());
        labs.add_device(hq, host("s1", 1, "10.0.0.1/24", None), "hq server")
            .unwrap();
        labs.add_device(remote, host("s2", 2, "10.0.0.2/24", None), "remote box")
            .unwrap();
        let a = labs.join_labs(hq).unwrap()[0];
        let b = labs.join_labs(remote).unwrap()[0];

        let mut design = Design::new("wan");
        design.add_device(a);
        design.add_device(b);
        design.connect((a, PortId(0)), (b, PortId(0))).unwrap();
        labs.save_design(design);
        labs.deploy("alice", "wan").unwrap();

        labs.device_mut(hq, 0)
            .unwrap()
            .console("ping 10.0.0.2 count 3", Instant::EPOCH);
        labs.run(Duration::from_secs(8)).unwrap();
        let out = labs.console(a, "show ping").unwrap();
        assert!(out.contains("3 received"), "got: {out}");
        // RTT must reflect the ~80 ms round trip through two impaired
        // directions.
        let site0 = labs.sites.get_mut(hq.0).unwrap();
        let _ = site0;
    }

    #[test]
    fn console_via_facade() {
        let mut labs = RemoteNetworkLabs::new_unreserved();
        let site = labs.add_site("pc1");
        labs.add_device(site, host("s1", 1, "10.9.0.1/16", None), "s1")
            .unwrap();
        let ids = labs.join_labs(site).unwrap();
        let out = labs.console(ids[0], "show ip").unwrap();
        assert!(out.contains("10.9.0.1/16"), "got: {out}");
    }

    #[test]
    fn api_json_end_to_end() {
        let mut labs = RemoteNetworkLabs::new_unreserved();
        let site = labs.add_site("pc1");
        labs.add_device(site, host("s1", 1, "10.0.0.1/24", None), "probe box")
            .unwrap();
        labs.join_labs(site).unwrap();
        let reply = labs.api_json(r#"{"op":"list_inventory"}"#);
        assert!(reply.contains("probe box"), "got: {reply}");
        assert!(reply.contains("\"online\":true"));
    }
}
