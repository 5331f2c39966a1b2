//! Route-server sharding and federation (§4, "Ongoing work").
//!
//! "To simplify implementation, we funnel all traffic through the
//! central route server in the initial release, so the route server can
//! easily become the bottleneck. To scale the route server, we are
//! looking into a distributed architecture for the next release. Since
//! the routing matrices between different users do not overlap, we can
//! have one route server per user."
//!
//! [`Federation`] is the fault-contained scale-out tier: sessions are
//! partitioned across `N` shards by consistent hash over the RIS
//! principal ([`HashRing`]), cross-shard wires relay over supervised
//! inter-shard trunks, and each shard owns its own journal so a crash
//! is recovered locally while siblings keep serving. Spanning
//! deployments, which no single shard's journal records, go to the
//! federation's own log in the same format. Partial failure
//! is *contained*: a dead trunk sheds only the cross-shard frames that
//! needed it (counted `reason="trunk-down"`), never intra-shard
//! traffic.
//!
//! (The share-nothing one-server-per-user throughput experiment, E9,
//! needs no type of its own: `rnl-bench`'s `server_scaling` workload
//! drives independent [`RouteServer`]s directly.)

use std::collections::BTreeMap;
use std::path::PathBuf;

use rnl_net::time::{Duration, Instant};
use rnl_obs::lcg64;
use rnl_obs::metrics::{Counter, Gauge, MetricsRegistry, Snapshot};
use rnl_tunnel::backoff::Backoff;
use rnl_tunnel::faults::{ShardFaultKind, ShardFaultPlan};
use rnl_tunnel::msg::{Msg, RegisterInfo, RouterId, SessionEpoch};
use rnl_tunnel::ring::HashRing;
use rnl_tunnel::transport::{mem_pair_perfect, FrameBatch, MemTransport, Transport};
use rnl_tunnel::wait::PollFd;

use crate::design::{Design, Link};
use crate::journal::{Durability, FileJournal, MemJournal, SharedStore};
use crate::snapshot::Op;
use crate::{DeploymentId, RouteServer, ServerError, SessionId};

/// Router-id range owned by each shard: shard `k` allocates global ids
/// in `[k * SHARD_ID_STRIDE, (k + 1) * SHARD_ID_STRIDE)`, so the owning
/// shard of any router is a pure function of its id — no directory
/// lookup on the relay path.
pub const SHARD_ID_STRIDE: u32 = 4096;

/// The shard whose id range contains `router`.
pub fn shard_of_router(router: RouterId) -> usize {
    (router.0 / SHARD_ID_STRIDE) as usize
}

/// The federation's own store under the `--state-dir` base: spanning
/// deployments and their cross-shard wires, which no single shard's
/// journal records.
const FED_DIR: &str = "federation";

/// Trunk redial schedule ([`Backoff`]): first attempt is immediate,
/// then delays grow `base * 2^n` up to `max`, each jittered ±20% so a
/// fleet of trunks re-dialing after a shared outage does not
/// thundering-herd.
const TRUNK_BACKOFF_BASE: Duration = Duration::from_millis(100);
const TRUNK_BACKOFF_MAX: Duration = Duration::from_secs(10);

/// Per-poll byte budget of a trunk (the bounded backlog); a frame that
/// would exceed it is dropped, newest first, and counted.
pub const DEFAULT_TRUNK_HWM: usize = 1 << 20;

/// Retry hint handed out when the owner shard is known but down and no
/// recovery deadline is scheduled; also the floor of every hint.
const DEFAULT_RETRY_AFTER: Duration = Duration::from_millis(10);

/// How long a shard whose journal replay failed stays down before the
/// next recovery attempt.
const REPLAY_RETRY: Duration = Duration::from_millis(100);

fn trunk_key(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// How shard journals are provisioned. In file mode the federation's
/// own log rides along; in mem mode the `Federation` value itself
/// survives shard kills, so it has nothing to make durable.
enum DurabilityMode {
    None,
    Mem,
    File(FileJournal),
}

/// One shard slot: the server (absent while the shard is down) plus the
/// durable handle that outlives it.
struct ShardSlot {
    server: Option<RouteServer>,
    /// Backing store of the in-memory journal — the only thing that
    /// survives [`Federation::kill_shard`] in mem-durability mode.
    store: Option<SharedStore>,
    /// Per-shard state directory in file-durability mode.
    state_dir: Option<PathBuf>,
    /// While `Some`, the shard auto-recovers when the clock passes it.
    down_until: Option<Instant>,
    m_up: Gauge,
    m_kills: Counter,
    m_recoveries: Counter,
    m_frames: Gauge,
}

/// A supervised inter-shard trunk: the transport pair cross-shard
/// frames ride, plus the state that re-establishes it after loss.
struct Trunk {
    a: usize,
    b: usize,
    /// `(end at shard a, end at shard b)`; `None` while down.
    link: Option<(MemTransport, MemTransport)>,
    /// Session identity: generation rotates on every (re)establish so a
    /// stale hello from a previous incarnation is detectable.
    token: u64,
    generation: u64,
    /// Highest hello generation accepted per end (`[at a, at b]`).
    peer_gen: [u64; 2],
    ever_connected: bool,
    /// While `Some`, redial attempts fail until the clock passes it.
    partitioned_until: Option<Instant>,
    /// Redial schedule, jitter seeded with `token`; parked while up.
    backoff: Backoff,
    /// Bytes sent this poll cycle, checked against [`DEFAULT_TRUNK_HWM`].
    sent_this_poll: usize,
    m_frames: Counter,
    m_reconnects: Counter,
    m_backlog_dropped: Counter,
    m_fault_dropped: Counter,
    m_stale_hellos: Counter,
}

impl Trunk {
    fn new(a: usize, b: usize, token: u64, obs: &MetricsRegistry) -> Trunk {
        let label = format!("{a}-{b}");
        let labels: &[(&str, &str)] = &[("trunk", label.as_str())];
        Trunk {
            a,
            b,
            link: None,
            token,
            generation: 0,
            peer_gen: [0, 0],
            ever_connected: false,
            partitioned_until: None,
            backoff: Backoff::new(TRUNK_BACKOFF_BASE, TRUNK_BACKOFF_MAX, token),
            sent_this_poll: 0,
            m_frames: obs.counter("rnl_server_shard_trunk_frames_total", labels),
            m_reconnects: obs.counter("rnl_server_shard_trunk_reconnects_total", labels),
            m_backlog_dropped: obs.counter("rnl_server_shard_trunk_backlog_dropped_total", labels),
            m_fault_dropped: obs.counter("rnl_server_shard_trunk_fault_dropped_total", labels),
            m_stale_hellos: obs.counter("rnl_server_shard_trunk_stale_hellos_total", labels),
        }
    }

    /// Tear the link down, draining and counting any in-flight data
    /// frames (they are lost with the link). The next redial attempt is
    /// immediate; backoff grows only on *failed* attempts.
    fn sever(&mut self, now: Instant) {
        let Some((mut end_a, mut end_b)) = self.link.take() else {
            return;
        };
        let mut scratch = FrameBatch::new();
        for end in [&mut end_a, &mut end_b] {
            if end.poll_into(now, &mut scratch).is_ok() {
                for i in 0..scratch.len() {
                    if scratch
                        .get(i)
                        .is_some_and(|body| Msg::peek_data(body).is_some())
                    {
                        self.m_fault_dropped.inc();
                    }
                }
            }
            scratch.clear();
        }
        self.backoff.restart(now);
    }

    /// Bring the trunk up: fresh transport pair, rotated epoch
    /// generation, and a registration hello in each direction so the
    /// far end can tell this incarnation from a stale one.
    fn establish(&mut self, seed: u64, now: Instant) {
        let (mut end_a, mut end_b) = mem_pair_perfect(seed);
        self.generation += 1;
        let epoch = SessionEpoch {
            token: self.token,
            generation: self.generation,
        };
        let hello = |from: usize, to: usize| {
            Msg::Register(RegisterInfo {
                pc_name: format!("trunk-{from}-{to}"),
                epoch,
                routers: Vec::new(),
            })
        };
        let _ = end_a.send(&hello(self.a, self.b), now);
        let _ = end_b.send(&hello(self.b, self.a), now);
        if self.ever_connected {
            self.m_reconnects.inc();
        }
        self.ever_connected = true;
        self.link = Some((end_a, end_b));
        self.backoff.succeed();
    }

    /// Forward one encoded frame over the trunk. `false` means the
    /// frame was not sent (trunk down or backlog overflow) — the caller
    /// sheds it on the source shard.
    fn forward(&mut self, src_shard: usize, body: &[u8], now: Instant) -> bool {
        if self.link.is_none() {
            return false;
        }
        if self.sent_this_poll.saturating_add(body.len()) > DEFAULT_TRUNK_HWM {
            self.m_backlog_dropped.inc();
            return false;
        }
        let mut failed = false;
        if let Some((end_a, end_b)) = self.link.as_mut() {
            let end = if src_shard == self.a { end_a } else { end_b };
            match end.send_raw(body, now) {
                Ok(()) => {
                    self.sent_this_poll += body.len();
                    self.m_frames.inc();
                }
                Err(_) => failed = true,
            }
        }
        if failed {
            self.sever(now);
            return false;
        }
        true
    }
}

/// A deployment that may span shards: the per-shard sub-deployments
/// plus the cross-shard links stitched over the trunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FedDeployment {
    /// `(shard, local deployment id)` per participating shard.
    pub parts: Vec<(usize, DeploymentId)>,
    /// Cross-shard links; a remote route is installed on both owning
    /// shards per link.
    pub cross: Vec<Link>,
}

/// A fault-contained route-server federation: `N` hash-partitioned
/// shards, supervised inter-shard trunks, per-shard journals, and a
/// seeded fault plan for kill/partition experiments.
///
/// Membership is fixed at construction: `routeserver --shards N` runs
/// exactly `N` shards for the life of the process. A killed shard keeps
/// its slot, its ring arcs and its id range, and comes back in place.
pub struct Federation {
    slots: Vec<ShardSlot>,
    ring: HashRing,
    trunks: BTreeMap<(usize, usize), Trunk>,
    obs: MetricsRegistry,
    faults: ShardFaultPlan,
    seed: u64,
    durability: DurabilityMode,
    grace_window: Option<Duration>,
    enforce_reservations: bool,
    next_fed_id: u64,
    fed_deployments: BTreeMap<u64, FedDeployment>,
    /// Fail-stop flag: the federation log could not record a spanning
    /// deploy or teardown.
    crashed: bool,
    batch: FrameBatch,
    /// The latest clock reading [`Federation::poll`] or
    /// [`Federation::kill_shard`] saw; retry hints count down from it.
    now: Instant,
    m_containment_sheds: Counter,
}

impl Federation {
    /// A federation of `n` shards (no durability yet; see
    /// [`Federation::enable_mem_durability`] /
    /// [`Federation::enable_file_durability`]). `seed` drives every
    /// random choice (trunk transports, backoff jitter) so two runs
    /// with the same seed are bit-identical.
    pub fn new(n: usize, seed: u64) -> Federation {
        let obs = MetricsRegistry::new();
        let mut fed = Federation {
            slots: Vec::new(),
            ring: HashRing::new(n),
            trunks: BTreeMap::new(),
            faults: ShardFaultPlan::new(),
            seed,
            durability: DurabilityMode::None,
            grace_window: None,
            enforce_reservations: false,
            next_fed_id: 1,
            fed_deployments: BTreeMap::new(),
            crashed: false,
            batch: FrameBatch::new(),
            now: Instant::EPOCH,
            m_containment_sheds: obs.counter("rnl_server_shard_containment_sheds_total", &[]),
            obs,
        };
        for k in 0..n {
            let slot = fed.make_slot(k);
            fed.slots.push(slot);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                fed.seed = lcg64(fed.seed);
                let trunk = Trunk::new(a, b, fed.seed, &fed.obs);
                fed.trunks.insert((a, b), trunk);
            }
        }
        fed
    }

    fn make_slot(&mut self, k: usize) -> ShardSlot {
        let mut server = RouteServer::new();
        server.set_router_id_base(k as u32 * SHARD_ID_STRIDE);
        server.set_enforce_reservations(self.enforce_reservations);
        if let Some(window) = self.grace_window {
            server.set_grace_window(window);
        }
        let label = k.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        let slot = ShardSlot {
            server: Some(server),
            store: None,
            state_dir: None,
            down_until: None,
            m_up: self.obs.gauge("rnl_server_shard_up", labels),
            m_kills: self.obs.counter("rnl_server_shard_kills_total", labels),
            m_recoveries: self
                .obs
                .counter("rnl_server_shard_recoveries_total", labels),
            m_frames: self.obs.gauge("rnl_server_shard_frames_total", labels),
        };
        slot.m_up.set(1.0);
        slot
    }

    // -- configuration ------------------------------------------------

    /// Give every shard its own in-memory journal (the backing store
    /// survives [`Federation::kill_shard`], so recovery is crash-local
    /// and real).
    pub fn enable_mem_durability(&mut self, now: Instant) -> Result<(), ServerError> {
        for slot in &mut self.slots {
            let journal = MemJournal::new();
            slot.store = Some(journal.store());
            if let Some(server) = slot.server.as_mut() {
                server.set_durability(Box::new(journal), now)?;
            }
        }
        self.durability = DurabilityMode::Mem;
        Ok(())
    }

    /// Give every shard its own on-disk journal under
    /// `base/shard-<k>/` — the `--state-dir` layout of the sharded
    /// `routeserver` binary. `base/federation/` holds the federation's
    /// own log (spanning deployments and their cross-shard wires); it is
    /// replayed and compacted here, after every shard has replayed its
    /// own journal, so a whole-process restart restores the trunk
    /// half-wires that no single shard journals.
    pub fn enable_file_durability(
        &mut self,
        base: impl Into<PathBuf>,
        now: Instant,
    ) -> Result<(), ServerError> {
        let base = base.into();
        for (k, slot) in self.slots.iter_mut().enumerate() {
            let dir = base.join(format!("shard-{k}"));
            let journal = FileJournal::open(&dir)?;
            // Boot through recovery, never over it: an empty directory
            // replays nothing and is a fresh start with a journal
            // installed; a prior life's directory replays snapshot +
            // tail back to the pre-crash shard state. (Installing a
            // journal into the fresh server instead would snapshot the
            // empty state over whatever the directory held.)
            let mut server = RouteServer::recover(Box::new(journal), now)?;
            server.set_router_id_base(k as u32 * SHARD_ID_STRIDE);
            server.set_enforce_reservations(self.enforce_reservations);
            if let Some(window) = self.grace_window {
                server.set_grace_window(window);
            }
            slot.state_dir = Some(dir);
            slot.server = Some(server);
        }
        let mut log = FileJournal::open(base.join(FED_DIR))?;
        for record in log.load()?.records {
            match Op::decode(&record)? {
                Op::FedDeploy { id, deployment } => {
                    self.next_fed_id = self.next_fed_id.max(id + 1);
                    self.fed_deployments.insert(id, deployment);
                }
                Op::FedTeardown { id } => {
                    self.fed_deployments.remove(&id);
                }
                Op::Watermarks {
                    next_federation, ..
                } => self.next_fed_id = self.next_fed_id.max(next_federation),
                _ => {}
            }
        }
        // Compact at boot, as a route server's recovery does.
        let records: Vec<Vec<u8>> = self
            .fed_deployments
            .iter()
            .map(|(&id, deployment)| Op::FedDeploy {
                id,
                deployment: deployment.clone(),
            })
            .chain([Op::Watermarks {
                next_session: 0,
                next_router: 0,
                next_reservation: 0,
                next_deployment: 0,
                next_federation: self.next_fed_id,
            }])
            .map(|op| op.encode())
            .collect();
        log.write_snapshot(&records)?;
        self.durability = DurabilityMode::File(log);
        self.reinstall_remote_routes();
        Ok(())
    }

    /// Journal one federation record before it takes effect (file mode
    /// only). Spanning deploys are rare control-plane ops, so every
    /// append pays a full sync. A failed append fail-stops the
    /// federation, as a failed append does a single route server.
    fn fed_log_append(&mut self, op: &Op) -> Result<(), ServerError> {
        let DurabilityMode::File(log) = &mut self.durability else {
            return Ok(());
        };
        log.append(&op.encode()).map(drop).map_err(|e| {
            self.crashed = true;
            ServerError::from(e)
        })
    }

    /// Whether a federation-log append failed. A crashed federation must
    /// be discarded and rebuilt from its state directory.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Re-install every live shard's half of every cross-shard wire
    /// from the (replayed) federation deployments.
    fn reinstall_remote_routes(&mut self) {
        for fed in self.fed_deployments.values() {
            for &(from, to) in &fed.cross {
                for (local, remote) in [(from, to), (to, from)] {
                    let shard = shard_of_router(local.0);
                    if let Some(server) = self.slots.get_mut(shard).and_then(|s| s.server.as_mut())
                    {
                        server.add_remote_route(local, remote);
                    }
                }
            }
        }
    }

    /// Flap-grace window applied to every shard, and re-applied when a
    /// killed shard recovers.
    pub fn set_grace_window(&mut self, window: Duration) {
        self.grace_window = Some(window);
        for slot in &mut self.slots {
            if let Some(server) = slot.server.as_mut() {
                server.set_grace_window(window);
            }
        }
    }

    /// Reservation enforcement on every shard. Spanning deploys place
    /// their per-shard parts with the forced path, so the calendar is
    /// only authoritative for single-shard deployments.
    pub fn set_enforce_reservations(&mut self, on: bool) {
        self.enforce_reservations = on;
        for slot in &mut self.slots {
            if let Some(server) = slot.server.as_mut() {
                server.set_enforce_reservations(on);
            }
        }
    }

    /// Install a seeded shard-fault schedule; events fire inside
    /// [`Federation::poll`] when the virtual clock passes them.
    pub fn set_fault_plan(&mut self, plan: ShardFaultPlan) {
        self.faults = plan;
    }

    // -- introspection ------------------------------------------------

    /// Federation-level metrics (per-shard liveness, trunk health,
    /// containment sheds).
    pub fn obs(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// One exposition page for the whole federation: the federation
    /// registry merged with every live shard's server registry, the
    /// latter tagged `shard="k"` so per-shard relay/session/journal
    /// series stay distinct. A down shard contributes nothing until it
    /// recovers — same containment story as the broadcast front tier.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut merged = self.obs.snapshot();
        for (k, slot) in self.slots.iter().enumerate() {
            let Some(server) = slot.server.as_ref() else {
                continue;
            };
            let shard = k.to_string();
            for mut point in server.obs().snapshot().metrics {
                point.labels.push(("shard".to_string(), shard.clone()));
                point.labels.sort();
                merged.metrics.push(point);
            }
        }
        merged
            .metrics
            .sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        merged
    }

    /// Number of shard slots (including down ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the federation has no shards.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The shard owning `principal` (a RIS `pc_name`, or a design or
    /// user name on the web surface).
    pub fn shard_of_principal(&self, principal: &str) -> Option<usize> {
        self.ring.shard_of(principal)
    }

    /// Is this shard currently serving?
    pub fn is_up(&self, shard: usize) -> bool {
        self.slots.get(shard).is_some_and(|s| s.server.is_some())
    }

    /// Read access to a shard's server.
    pub fn server(&self, shard: usize) -> Option<&RouteServer> {
        self.slots.get(shard).and_then(|s| s.server.as_ref())
    }

    /// Mutable access to a shard's server, or a structured retryable
    /// [`ServerError::ShardDown`] naming when to come back.
    pub fn server_mut(&mut self, shard: usize) -> Result<&mut RouteServer, ServerError> {
        let retry_after = self.retry_hint(shard);
        match self.slots.get_mut(shard).and_then(|s| s.server.as_mut()) {
            Some(server) => Ok(server),
            None => Err(ServerError::ShardDown { shard, retry_after }),
        }
    }

    /// How long a caller should wait before retrying an op against
    /// `shard`: until its scheduled recovery if one is pending, else a
    /// small default (which also floors the countdown).
    pub fn retry_hint(&self, shard: usize) -> Duration {
        let left = match self.slots.get(shard).and_then(|s| s.down_until) {
            Some(until) => until.since(self.now),
            None => Duration::ZERO,
        };
        left.max(DEFAULT_RETRY_AFTER)
    }

    // -- session attachment -------------------------------------------

    /// Attach a dialed transport to `shard` (the caller routed the dial
    /// via [`Federation::shard_of_principal`]). Fails with a retryable
    /// [`ServerError::ShardDown`] while the shard is down.
    pub fn attach_to(
        &mut self,
        shard: usize,
        transport: Box<dyn Transport>,
    ) -> Result<SessionId, ServerError> {
        Ok(self.server_mut(shard)?.attach(transport))
    }

    // -- fault injection ----------------------------------------------

    /// Kill a shard: its server (and every session transport it holds)
    /// is dropped on the spot, trunks touching it are severed, and —
    /// when `down_for` is set — the shard auto-recovers from its own
    /// journal once the clock passes `now + down_for`.
    pub fn kill_shard(&mut self, shard: usize, down_for: Option<Duration>, now: Instant) {
        self.now = now;
        let Some(slot) = self.slots.get_mut(shard) else {
            return;
        };
        if slot.server.take().is_none() {
            return;
        }
        slot.down_until = down_for.map(|d| now + d);
        slot.m_kills.inc();
        slot.m_up.set(0.0);
        let keys: Vec<(usize, usize)> = self
            .trunks
            .keys()
            .copied()
            .filter(|&(a, b)| a == shard || b == shard)
            .collect();
        for key in keys {
            if let Some(trunk) = self.trunks.get_mut(&key) {
                trunk.sever(now);
            }
        }
    }

    /// Sever the trunk between `a` and `b` and hold it down for `len`:
    /// redial attempts fail (with backoff) until the window passes.
    /// Only cross-shard frames between the two shards are affected.
    pub fn partition_trunk(&mut self, a: usize, b: usize, len: Duration, now: Instant) {
        if let Some(trunk) = self.trunks.get_mut(&trunk_key(a, b)) {
            trunk.partitioned_until = Some(now + len);
            trunk.sever(now);
        }
    }

    /// Bring a killed shard back by replaying its own journal
    /// (snapshot + tail), then re-arming federation-owned state the WAL
    /// does not carry: config knobs, the id base, and remote routes for
    /// cross-shard links of spanning deployments.
    pub fn recover_shard(&mut self, shard: usize, now: Instant) -> Result<(), ServerError> {
        let base = shard as u32 * SHARD_ID_STRIDE;
        let journal: Option<Box<dyn Durability>> = {
            let Some(slot) = self.slots.get(shard) else {
                return Ok(());
            };
            if slot.server.is_some() {
                return Ok(());
            }
            match &self.durability {
                DurabilityMode::Mem => slot.store.as_ref().map(|store| {
                    Box::new(MemJournal::attached(store.clone())) as Box<dyn Durability>
                }),
                DurabilityMode::File(_) => match &slot.state_dir {
                    Some(dir) => {
                        Some(Box::new(FileJournal::open(dir.clone())?) as Box<dyn Durability>)
                    }
                    None => None,
                },
                DurabilityMode::None => None,
            }
        };
        let mut server = match journal {
            Some(journal) => RouteServer::recover(journal, now)?,
            // Without durability there is nothing to replay: the shard
            // comes back empty (sessions re-register via supervisors).
            None => RouteServer::new(),
        };
        server.set_router_id_base(base);
        server.set_enforce_reservations(self.enforce_reservations);
        if let Some(window) = self.grace_window {
            server.set_grace_window(window);
        }
        // Remote routes are federation state, not journaled per shard:
        // re-install the recovered shard's half of every cross link.
        for fed in self.fed_deployments.values() {
            for &(from, to) in &fed.cross {
                if shard_of_router(from.0) == shard {
                    server.add_remote_route(from, to);
                }
                if shard_of_router(to.0) == shard {
                    server.add_remote_route(to, from);
                }
            }
        }
        if let Some(slot) = self.slots.get_mut(shard) {
            slot.server = Some(server);
            slot.down_until = None;
            slot.m_recoveries.inc();
            slot.m_up.set(1.0);
        }
        // The shard is back: trunks touching it may redial immediately.
        for (&(a, b), trunk) in self.trunks.iter_mut() {
            if (a == shard || b == shard) && trunk.link.is_none() {
                trunk.backoff.restart(now);
            }
        }
        Ok(())
    }

    // -- the poll loop ------------------------------------------------

    /// [`RouteServer::wait_fds`] over every live shard. Trunks are
    /// in-process and pumped by [`Federation::poll`] itself, so session
    /// sockets are all there is to wait on.
    pub fn wait_fds(&self, fds: &mut Vec<PollFd>) {
        for slot in &self.slots {
            if let Some(server) = slot.server.as_ref() {
                server.wait_fds(fds);
            }
        }
    }

    /// One federation tick: fire due fault events, auto-recover shards
    /// whose down-window passed, supervise trunks (redial with jittered
    /// backoff), poll every live shard, pump cross-shard frames over
    /// the trunks (shedding — counted — what a down trunk cannot
    /// carry).
    pub fn poll(&mut self, now: Instant) {
        self.now = now;
        for event in self.faults.take_due(now) {
            match event.kind {
                ShardFaultKind::KillShard { shard, down_for } => {
                    self.kill_shard(shard, Some(down_for), now);
                }
                ShardFaultKind::PartitionTrunk { a, b, len } => {
                    self.partition_trunk(a, b, len, now);
                }
            }
        }
        for k in 0..self.slots.len() {
            let due = self.slots[k]
                .server
                .is_none()
                .then(|| self.slots[k].down_until)
                .flatten()
                .is_some_and(|until| now >= until);
            if due && self.recover_shard(k, now).is_err() {
                // Journal replay failed; push the retry out instead of
                // spinning on it every tick.
                if let Some(slot) = self.slots.get_mut(k) {
                    slot.down_until = Some(now + REPLAY_RETRY);
                }
            }
        }
        self.supervise_trunks(now);
        for slot in &mut self.slots {
            if let Some(server) = slot.server.as_mut() {
                server.poll(now);
            }
        }
        self.pump_out(now);
        self.pump_in(now);
        for slot in &self.slots {
            if let Some(server) = slot.server.as_ref() {
                slot.m_frames.set(server.stats().frames_routed as f64);
            }
        }
    }

    fn supervise_trunks(&mut self, now: Instant) {
        let keys: Vec<(usize, usize)> = self.trunks.keys().copied().collect();
        for key in keys {
            let (a, b) = key;
            let both_up = self.is_up(a) && self.is_up(b);
            // Advance the seed every iteration (used or not) so the
            // stream stays aligned across runs regardless of outcomes.
            self.seed = lcg64(self.seed);
            let seed = self.seed;
            let Some(trunk) = self.trunks.get_mut(&key) else {
                continue;
            };
            trunk.sent_this_poll = 0;
            if trunk.link.is_some() {
                if !both_up {
                    trunk.sever(now);
                }
                continue;
            }
            if !trunk.backoff.due(now) {
                continue;
            }
            let partitioned = trunk.partitioned_until.is_some_and(|until| now < until);
            if both_up && !partitioned {
                trunk.establish(seed, now);
            } else {
                // Endpoint down or partition in force: back off.
                trunk.backoff.fail(now);
            }
        }
    }

    /// Drain each live shard's trunk outbox and forward the frames over
    /// the owning trunk. Anything that cannot be carried — trunk down,
    /// backlog overflow, destination shard unknown — is shed on the
    /// *source* shard, counted `reason="trunk-down"`; intra-shard relay
    /// never passes through here, so containment is structural.
    fn pump_out(&mut self, now: Instant) {
        for s in 0..self.slots.len() {
            let frames = match self.slots[s].server.as_mut() {
                Some(server) => server.take_trunk_outbox(),
                None => continue,
            };
            for frame in frames {
                let dst = shard_of_router(frame.dst_router);
                let carried = dst != s
                    && dst < self.slots.len()
                    && self
                        .trunks
                        .get_mut(&trunk_key(s, dst))
                        .is_some_and(|trunk| trunk.forward(s, &frame.body, now));
                if !carried {
                    if let Some(server) = self.slots[s].server.as_mut() {
                        server.shed_trunk_frame(frame.dst_router, now);
                    }
                    self.m_containment_sheds.inc();
                }
            }
        }
    }

    /// Poll both ends of every live trunk and deliver inbound frames
    /// into the shard that owns that end. Data frames go straight to
    /// [`RouteServer::deliver_remote`]; registration hellos rotate the
    /// trunk's accepted peer generation (stale incarnations are counted
    /// and ignored).
    fn pump_in(&mut self, now: Instant) {
        let keys: Vec<(usize, usize)> = self.trunks.keys().copied().collect();
        for key in keys {
            for side in 0..2 {
                let into = if side == 0 { key.0 } else { key.1 };
                let mut batch = std::mem::take(&mut self.batch);
                batch.clear();
                let polled = {
                    let Some(trunk) = self.trunks.get_mut(&key) else {
                        self.batch = batch;
                        continue;
                    };
                    match trunk.link.as_mut() {
                        Some((end_a, end_b)) => {
                            let end = if side == 0 { end_a } else { end_b };
                            end.poll_into(now, &mut batch).is_ok()
                        }
                        None => false,
                    }
                };
                if !polled {
                    self.batch = batch;
                    continue;
                }
                let mut hellos: Vec<u64> = Vec::new();
                let mut undeliverable = 0u64;
                for i in 0..batch.len() {
                    let Some(body) = batch.get(i) else { continue };
                    if Msg::peek_data(body).is_some() {
                        let delivered = self.slots.get_mut(into).and_then(|slot| {
                            slot.server
                                .as_mut()
                                .map(|server| server.deliver_remote(body, now))
                        });
                        if delivered.is_none() {
                            // The destination shard died after the
                            // frame entered the trunk: lost with it.
                            undeliverable += 1;
                        }
                    } else if let Ok(Msg::Register(info)) = Msg::decode(body) {
                        hellos.push(info.epoch.generation);
                    }
                }
                if let Some(trunk) = self.trunks.get_mut(&key) {
                    trunk.m_fault_dropped.add(undeliverable);
                    for generation in hellos {
                        if generation > trunk.peer_gen[side] {
                            trunk.peer_gen[side] = generation;
                        } else {
                            trunk.m_stale_hellos.inc();
                        }
                    }
                }
                self.batch = batch;
            }
        }
    }

    // -- spanning deployments -----------------------------------------

    /// Deploy a saved design whose devices may live on several shards.
    /// The full design is linted on its home shard, split into
    /// per-shard sub-designs placed with the forced path, and every
    /// cross-shard link gets a remote route on both owners so the relay
    /// hot path re-addresses matrix misses onto the trunk. Returns a
    /// federation-level deployment id for [`Federation::teardown_fed`].
    pub fn deploy_spanning(
        &mut self,
        user: &str,
        design_name: &str,
        force: bool,
        now: Instant,
    ) -> Result<u64, ServerError> {
        let home = self
            .shard_of_principal(design_name)
            .ok_or(ServerError::ShardDown {
                shard: 0,
                retry_after: DEFAULT_RETRY_AFTER,
            })?;
        let design: Design = {
            let server = self.server_mut(home)?;
            server
                .designs()
                .load(design_name)
                .cloned()
                .ok_or_else(|| ServerError::UnknownDesign(design_name.to_string()))?
        };
        let mut groups: BTreeMap<usize, Vec<RouterId>> = BTreeMap::new();
        for router in design.devices() {
            groups
                .entry(shard_of_router(router))
                .or_default()
                .push(router);
        }
        for &s in groups.keys() {
            if !self.is_up(s) {
                return Err(ServerError::ShardDown {
                    shard: s,
                    retry_after: self.retry_hint(s),
                });
            }
        }
        // Single-shard home deployment keeps full fidelity (calendar
        // enforcement, full-design lint, saved-design path).
        if groups.len() == 1 && groups.contains_key(&home) {
            let server = self.server_mut(home)?;
            let part = if force {
                server.deploy_forced(user, design_name, now)?
            } else {
                server.deploy(user, design_name, now)?
            };
            return self.commit_fed(FedDeployment {
                parts: vec![(home, part)],
                cross: Vec::new(),
            });
        }
        let mut local_links: BTreeMap<usize, Vec<Link>> = BTreeMap::new();
        let mut cross = Vec::new();
        for &link in design.links() {
            let (end_a, end_b) = link;
            let (sa, sb) = (shard_of_router(end_a.0), shard_of_router(end_b.0));
            if sa == sb {
                local_links.entry(sa).or_default().push(link);
            } else {
                cross.push(link);
            }
        }
        let mut parts: Vec<(usize, DeploymentId)> = Vec::new();
        for (&s, routers) in &groups {
            let mut sub = Design::new(&format!("{design_name}@shard{s}"));
            for &router in routers {
                sub.add_device(router);
            }
            if let Some(links) = local_links.get(&s) {
                for &(end_a, end_b) in links {
                    sub.connect(end_a, end_b)?;
                }
            }
            // The full design spans inventories, so the lint gate runs
            // per shard: each sub-design against the inventory and
            // saved configs of the shard that will host it.
            let placed = match self.server_mut(s) {
                Ok(server) => {
                    if !force {
                        let report = server.analyze_design(&sub);
                        if report.count(rnl_analysis::Severity::Error) > 0 {
                            Err(ServerError::Lint(report.render()))
                        } else {
                            server.deploy_design_forced(user, &sub, now)
                        }
                    } else {
                        server.deploy_design_forced(user, &sub, now)
                    }
                }
                Err(e) => Err(e),
            };
            match placed {
                Ok(part) => parts.push((s, part)),
                Err(e) => {
                    self.roll_back(&parts);
                    return Err(e);
                }
            }
        }
        self.commit_fed(FedDeployment { parts, cross })
    }

    /// Journal a placed spanning deployment, then stitch its cross-shard
    /// wires and register it. Its id is spent even if the append fails,
    /// since the record may have reached the disk.
    fn commit_fed(&mut self, deployment: FedDeployment) -> Result<u64, ServerError> {
        let id = self.next_fed_id;
        self.next_fed_id += 1;
        let op = Op::FedDeploy {
            id,
            deployment: deployment.clone(),
        };
        if let Err(e) = self.fed_log_append(&op) {
            self.roll_back(&deployment.parts);
            return Err(e);
        }
        for &(end_a, end_b) in &deployment.cross {
            let (sa, sb) = (shard_of_router(end_a.0), shard_of_router(end_b.0));
            if let Ok(server) = self.server_mut(sa) {
                server.add_remote_route(end_a, end_b);
            }
            if let Ok(server) = self.server_mut(sb) {
                server.add_remote_route(end_b, end_a);
            }
        }
        self.fed_deployments.insert(id, deployment);
        Ok(id)
    }

    /// Tear down the parts of a spanning deployment that never
    /// registered, so a half-placed one never lingers.
    fn roll_back(&mut self, parts: &[(usize, DeploymentId)]) {
        for &(shard, part) in parts {
            if let Some(server) = self.slots.get_mut(shard).and_then(|s| s.server.as_mut()) {
                server.teardown(part);
            }
        }
    }

    /// Tear down a federation-level deployment: remove its remote
    /// routes, then its per-shard parts. Every involved shard must be
    /// up — otherwise nothing is touched and the caller gets a
    /// retryable [`ServerError::ShardDown`].
    pub fn teardown_fed(&mut self, id: u64, now: Instant) -> Result<bool, ServerError> {
        let _ = now;
        let Some(fed) = self.fed_deployments.get(&id).cloned() else {
            return Ok(false);
        };
        for &(shard, _) in &fed.parts {
            if !self.is_up(shard) {
                return Err(ServerError::ShardDown {
                    shard,
                    retry_after: self.retry_hint(shard),
                });
            }
        }
        self.fed_log_append(&Op::FedTeardown { id })?;
        for &(from, to) in &fed.cross {
            if let Ok(server) = self.server_mut(shard_of_router(from.0)) {
                server.remove_remote_route(from);
            }
            if let Ok(server) = self.server_mut(shard_of_router(to.0)) {
                server.remove_remote_route(to);
            }
        }
        let mut all = true;
        for &(shard, part) in &fed.parts {
            match self.server_mut(shard) {
                Ok(server) => {
                    all &= server.teardown(part);
                }
                Err(_) => all = false,
            }
        }
        self.fed_deployments.remove(&id);
        Ok(all)
    }

    /// The registered federation deployment, if any.
    pub fn fed_deployment(&self, id: u64) -> Option<&FedDeployment> {
        self.fed_deployments.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Design;
    use rnl_device::host::Host;
    use rnl_ris::Ris;
    use rnl_tunnel::msg::PortId;
    use rnl_tunnel::transport::mem_pair_perfect;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    /// A federation whose shard-0 and shard-1 each host one half of a
    /// cross-shard pair design. Returns `(fed, ris0, ris1, fed_id)`.
    fn cross_shard_rig(seed: u64) -> (Federation, Ris, Ris, u64) {
        let mut fed = Federation::new(2, seed);
        fed.enable_mem_durability(t(0)).unwrap();
        let (ris0, ris1) = save_span_design(&mut fed, seed);
        let fed_id = fed.deploy_spanning("user", "span", false, t(0)).unwrap();
        (fed, ris0, ris1, fed_id)
    }

    /// Register one single-host RIS on each of shards 0 and 1, and save
    /// the design "span" wiring the two hosts together on its home
    /// shard.
    fn save_span_design(fed: &mut Federation, seed: u64) -> (Ris, Ris) {
        let mut rises = Vec::new();
        for k in 0..2usize {
            let (ris_side, server_side) = mem_pair_perfect(seed + 10 + k as u64);
            fed.attach_to(k, Box::new(server_side)).unwrap();
            let mut ris = Ris::new(&format!("pc-{k}"), Box::new(ris_side));
            let mut host = Host::new("h", 7);
            host.set_ip(format!("10.0.0.{}/24", k + 1).parse().unwrap());
            ris.add_device(Box::new(host), "host");
            ris.join_labs(t(0)).unwrap();
            fed.poll(t(0));
            ris.poll(t(0)).unwrap();
            rises.push(ris);
        }
        let r0 = rises[0].router_id(0).unwrap();
        let r1 = rises[1].router_id(0).unwrap();
        assert_eq!(shard_of_router(r0), 0);
        assert_eq!(shard_of_router(r1), 1);
        let mut d = Design::new("span");
        d.add_device(r0);
        d.add_device(r1);
        d.connect((r0, PortId(0)), (r1, PortId(0))).unwrap();
        // Save on the design's home shard; callers deploy through the
        // federation.
        let home = fed.shard_of_principal("span").unwrap();
        fed.server_mut(home).unwrap().save_design(d);
        let mut it = rises.into_iter();
        (it.next().unwrap(), it.next().unwrap())
    }

    fn drive(fed: &mut Federation, ris0: &mut Ris, ris1: &mut Ris, from_ms: u64, to_ms: u64) {
        for ms in (from_ms..to_ms).step_by(10) {
            let _ = ris0.poll(t(ms));
            let _ = ris1.poll(t(ms));
            fed.poll(t(ms));
            let _ = ris0.poll(t(ms));
            let _ = ris1.poll(t(ms));
        }
    }

    #[test]
    fn cross_shard_ping_rides_the_trunk() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed);
        ris0.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 3", t(0));
        drive(&mut fed, &mut ris0, &mut ris1, 10, 5000);
        let out = ris0.device_mut(0).unwrap().console("show ping", t(5000));
        assert!(out.contains("3 received"), "cross-shard ping: {out}");
        // Frames crossed shards over the trunk, both directions.
        let s0 = fed.server(0).unwrap();
        let s1 = fed.server(1).unwrap();
        assert!(s0.obs().counter_sum("rnl_server_trunk_frames_total") > 0);
        assert!(s1.obs().counter_sum("rnl_server_trunk_frames_total") > 0);
        assert!(fed.obs().counter_sum("rnl_server_shard_trunk_frames_total") >= 6);
    }

    #[test]
    fn trunk_partition_sheds_only_cross_shard_frames() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed2);
        // Sever the trunk for good (longer than the test horizon).
        fed.partition_trunk(0, 1, Duration::from_secs(600), t(10));
        ris0.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 2", t(10));
        drive(&mut fed, &mut ris0, &mut ris1, 20, 3000);
        let out = ris0.device_mut(0).unwrap().console("show ping", t(3000));
        assert!(out.contains("0 received"), "partitioned ping: {out}");
        // The sheds are counted with the trunk-down reason on the
        // source shard, and at the federation level.
        let s0 = fed.server(0).unwrap();
        assert!(
            s0.obs().snapshot().counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "trunk-down")]
            ) > 0
        );
        assert!(
            fed.obs()
                .counter_sum("rnl_server_shard_containment_sheds_total")
                > 0
        );
    }

    #[test]
    fn trunk_reconnects_with_backoff_after_partition() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed3);
        fed.partition_trunk(0, 1, Duration::from_millis(500), t(10));
        drive(&mut fed, &mut ris0, &mut ris1, 20, 3000);
        // The trunk came back after the window and counted a reconnect.
        assert!(
            fed.obs()
                .counter_sum("rnl_server_shard_trunk_reconnects_total")
                >= 1
        );
        // And traffic flows again end to end.
        ris0.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 2", t(3000));
        drive(&mut fed, &mut ris0, &mut ris1, 3010, 8000);
        let out = ris0.device_mut(0).unwrap().console("show ping", t(8000));
        assert!(out.contains("2 received"), "post-heal ping: {out}");
    }

    #[test]
    fn killed_shard_recovers_from_its_own_journal() {
        let (mut fed, mut ris0, mut ris1, fed_id) = cross_shard_rig(0xfed4);
        fed.set_grace_window(Duration::from_secs(60));
        drive(&mut fed, &mut ris0, &mut ris1, 10, 200);
        fed.kill_shard(1, Some(Duration::from_millis(300)), t(200));
        assert!(!fed.is_up(1));
        assert!(fed.is_up(0));
        // Ops against the dead shard get a structured retryable error.
        match fed.server_mut(1) {
            Err(ServerError::ShardDown { shard, retry_after }) => {
                assert_eq!(shard, 1);
                assert!(retry_after.as_micros() > 0);
            }
            _ => unreachable!("expected ShardDown"),
        }
        // The clock passes the down window: poll auto-recovers it.
        drive(&mut fed, &mut ris0, &mut ris1, 210, 1000);
        assert!(fed.is_up(1));
        assert_eq!(
            fed.obs().counter_sum("rnl_server_shard_recoveries_total"),
            1
        );
        // The recovered shard still holds its half of the deployment
        // and its remote route (re-armed by the federation).
        let part = fed
            .fed_deployment(fed_id)
            .unwrap()
            .parts
            .iter()
            .find(|(s, _)| *s == 1)
            .copied()
            .unwrap();
        let s1 = fed.server(1).unwrap();
        assert!(s1.matrix().links_of(part.1).is_some());
        let cross = fed.fed_deployment(fed_id).unwrap().cross.clone();
        let (from, to) = cross[0];
        assert_eq!(fed.server(1).unwrap().remote_route(to), Some(from));
    }

    #[test]
    fn retry_hint_counts_down_to_the_scheduled_recovery() {
        let mut fed = Federation::new(2, 0xfed7);
        fed.kill_shard(1, Some(Duration::from_secs(2)), t(100));
        assert!(fed.retry_hint(1) >= Duration::from_millis(1_900));
        for ms in (110..=1_600).step_by(10) {
            fed.poll(t(ms));
        }
        let hint = fed.retry_hint(1);
        assert!(
            (450..=550).contains(&hint.as_millis()),
            "hint 1.5 s into a 2 s outage: {hint}"
        );
        match fed.server_mut(1) {
            Err(ServerError::ShardDown { retry_after, .. }) => assert_eq!(retry_after, hint),
            _ => unreachable!("expected ShardDown"),
        }
        // No scheduled recovery: the hint is the small default.
        fed.kill_shard(0, None, t(1_600));
        assert_eq!(fed.retry_hint(0), DEFAULT_RETRY_AFTER);
    }

    #[test]
    fn fault_plan_fires_inside_poll() {
        let (mut fed, mut ris0, mut ris1, _) = cross_shard_rig(0xfed6);
        let mut plan = ShardFaultPlan::new();
        plan.schedule_kill(1, t(100), Duration::from_millis(200));
        fed.set_fault_plan(plan);
        drive(&mut fed, &mut ris0, &mut ris1, 10, 150);
        assert!(!fed.is_up(1), "scheduled kill did not fire");
        drive(&mut fed, &mut ris0, &mut ris1, 150, 1000);
        assert!(fed.is_up(1), "scheduled kill did not auto-recover");
        assert_eq!(fed.obs().counter_sum("rnl_server_shard_kills_total"), 1);
    }

    #[test]
    fn fed_journal_restores_cross_wires_after_full_restart() {
        let dir = std::env::temp_dir().join(format!(
            "rnl-fed-journal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // First life: a file-durable federation with one spanning
        // deployment, then the whole process "exits" (fed is dropped).
        let (fed_id, r0, r1);
        {
            let mut fed = Federation::new(2, 0xfeed);
            fed.set_enforce_reservations(false);
            fed.enable_file_durability(&dir, t(0)).unwrap();
            let mut rises = Vec::new();
            for k in 0..2usize {
                let (ris_side, server_side) = mem_pair_perfect(0xfeed + 10 + k as u64);
                fed.attach_to(k, Box::new(server_side)).unwrap();
                let mut ris = Ris::new(&format!("pc-{k}"), Box::new(ris_side));
                let mut host = Host::new("h", 7);
                host.set_ip(format!("10.0.0.{}/24", k + 1).parse().unwrap());
                ris.add_device(Box::new(host), "host");
                ris.join_labs(t(0)).unwrap();
                fed.poll(t(0));
                ris.poll(t(0)).unwrap();
                rises.push(ris);
            }
            r0 = rises[0].router_id(0).unwrap();
            r1 = rises[1].router_id(0).unwrap();
            let mut d = Design::new("span");
            d.add_device(r0);
            d.add_device(r1);
            d.connect((r0, PortId(0)), (r1, PortId(0))).unwrap();
            let home = fed.shard_of_principal("span").unwrap();
            fed.server_mut(home).unwrap().save_design(d);
            fed_id = fed.deploy_spanning("user", "span", false, t(0)).unwrap();
        }
        // Second life: a fresh federation over the same state dir.
        // Shard journals restore the per-shard halves; the federation
        // journal restores the deployment and its cross-shard wires.
        let mut fed = Federation::new(2, 0xfeed);
        fed.set_enforce_reservations(false);
        fed.enable_file_durability(&dir, t(60_000)).unwrap();
        let deployment = fed.fed_deployment(fed_id).expect("fed journal replayed");
        assert_eq!(deployment.cross.len(), 1);
        assert_eq!(
            fed.server(0).unwrap().remote_route((r0, PortId(0))),
            Some((r1, PortId(0))),
            "shard 0 half-wire reinstalled"
        );
        assert_eq!(
            fed.server(1).unwrap().remote_route((r1, PortId(0))),
            Some((r0, PortId(0))),
            "shard 1 half-wire reinstalled"
        );
        // A pre-restart deployment id remains tearable, and the
        // teardown removes both half-wires again.
        assert!(fed.teardown_fed(fed_id, t(60_000)).unwrap());
        assert_eq!(fed.server(0).unwrap().remote_route((r0, PortId(0))), None);
        assert!(fed.fed_deployment(fed_id).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A federation-log append that fails refuses the deploy and
    /// fail-stops the federation, rather than answering ok with nothing
    /// on disk; the parts already placed on the shards are rolled back.
    #[test]
    fn failed_fed_append_refuses_the_deploy() {
        let dir = std::env::temp_dir().join(format!(
            "rnl-fed-append-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut fed = Federation::new(2, 0xfa11);
        fed.enable_file_durability(&dir, t(0)).unwrap();
        let _sites = save_span_design(&mut fed, 0xfa11);
        // A directory where the federation journal should be: every
        // append now fails.
        let journal = dir.join(FED_DIR).join("journal.rnl");
        let _ = std::fs::remove_file(&journal);
        std::fs::create_dir_all(&journal).unwrap();
        let deployed = fed.deploy_spanning("user", "span", false, t(0));
        assert!(
            matches!(deployed, Err(ServerError::Durability(_))),
            "{deployed:?}"
        );
        assert!(fed.crashed());
        for k in 0..2 {
            assert_eq!(fed.server(k).unwrap().deployments().count(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_snapshot_merges_every_live_shard() {
        let mut fed = Federation::new(2, 7);
        let snap = fed.metrics_snapshot();
        // Federation-level series come through untagged…
        assert!(snap.get("rnl_server_shard_up", &[("shard", "0")]).is_some());
        // …and each shard's own registry is tagged with its id.
        for shard in ["0", "1"] {
            assert!(
                snap.get("rnl_server_frames_routed_total", &[("shard", shard)])
                    .is_some(),
                "missing per-server series for shard {shard}"
            );
        }
        // A down shard drops out of the page until it recovers.
        fed.kill_shard(0, None, t(0));
        let snap = fed.metrics_snapshot();
        assert!(snap
            .get("rnl_server_frames_routed_total", &[("shard", "0")])
            .is_none());
        assert!(snap
            .get("rnl_server_frames_routed_total", &[("shard", "1")])
            .is_some());
    }
}
