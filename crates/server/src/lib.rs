//! # rnl-server — the RNL back end (web server + route server)
//!
//! "The central back-end server at netlabs.accenture.com is responsible
//! for coordinating all communications in RNL. It has two roles: web
//! server and route server. The web server is responsible for
//! communicating with a user's browser during a design session … The
//! route server is responsible for routing packets from one router port
//! to another based on the user design." (§2)
//!
//! [`RouteServer`] is both roles in one process (as in the paper's
//! initial release): it accepts RIS sessions, assigns unique router and
//! port ids, keeps the [`inventory::Inventory`], stores
//! [`design::Design`]s, enforces the [`reserve::Calendar`], installs
//! deployments into the [`matrix::RoutingMatrix`], relays every data
//! frame along the Fig. 4 path, taps monitored ports into the
//! [`capture::CaptureHub`], and proxies console/power/firmware
//! management. The [`web`] module exposes the same operations as the
//! paper's web-services API (JSON in, JSON out); [`shard`] provides the
//! §4 per-user route-server scaling.

#![deny(unsafe_code)]

pub mod capture;
pub mod design;
pub mod generate;
pub mod inventory;
pub mod journal;
pub mod json;
pub mod lint;
pub mod matrix;
pub mod mesh;
pub mod overload;
mod relay;
pub mod reserve;
pub mod shard;
pub mod snapshot;
pub mod web;

use std::collections::{BTreeMap, HashMap, VecDeque};

use rnl_l1switch::{L1Switch, PortIndexer};
use rnl_net::time::{Duration, Instant};
use rnl_obs::{
    Counter, EventJournal, FlightRecorder, FrameEvent, Gauge, Histogram, Hop, MetricsRegistry,
    MissReason, PerfPoint, Quantile, SlowOp, Span, TraceId, LATENCY_BUCKETS_US,
};
use rnl_tunnel::compress::{CompressError, Compressor, Decompressor};
use rnl_tunnel::msg::{Assignment, MeshOffer, Msg, PortId, RouterId, SessionEpoch};
use rnl_tunnel::transport::{
    ClosedTransport, FrameBatch, OverflowPolicy, Transport, TransportError, DEFAULT_TX_HWM,
};
use rnl_tunnel::wait::PollFd;

use capture::{CaptureDir, CaptureHub};
use design::{Design, DesignError, DesignStore};
use generate::{Generator, StreamConfig, StreamId};
use inventory::{Inventory, InventoryRecord, SessionId};
use journal::{CrashPoint, Durability, JournalError};
use json::Json;
use matrix::{DeploymentId, MatrixError, RoutingMatrix};
use mesh::MeshControl;
use overload::{Deadline, OverloadConfig, Shedder, Tier};
use reserve::{Calendar, Reservation, ReservationId, ReserveError};
use snapshot::Op;

/// Route-server failure.
#[derive(Debug)]
pub enum ServerError {
    /// A session's transport failed (the session is dropped).
    Transport(TransportError),
    /// Deployment refused by the matrix (router busy).
    Matrix(MatrixError),
    /// Deployment refused by the calendar.
    Reservation(String),
    /// The design is structurally invalid.
    Design(DesignError),
    /// A referenced design does not exist.
    UnknownDesign(String),
    /// A referenced router is not in the inventory (or offline).
    UnknownRouter(RouterId),
    /// Compressed stream desynchronization.
    Compression(CompressError),
    /// Pre-deploy static analysis found Error-severity diagnostics (the
    /// string is the rendered report). Deploy with force to override.
    Lint(String),
    /// The write-ahead journal failed (append, snapshot, or recovery).
    Durability(String),
    /// The server is above its high-water mark and shed this op; the
    /// client should retry no sooner than `retry_after`.
    Overloaded {
        /// Deterministic back-off hint from the load shedder.
        retry_after: Duration,
    },
    /// The op's deadline budget expired before its RIS round-trip
    /// completed.
    DeadlineExceeded,
    /// The shard owning the op's principal is down (crashed or
    /// mid-recovery); siblings keep serving. Retryable after
    /// `retry_after` — by then the shard has typically replayed its WAL.
    ShardDown {
        /// The unavailable shard.
        shard: usize,
        /// Deterministic back-off hint covering the expected recovery.
        retry_after: Duration,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Transport(e) => write!(f, "transport: {e}"),
            ServerError::Matrix(e) => write!(f, "matrix: {e}"),
            ServerError::Reservation(m) => write!(f, "reservation: {m}"),
            ServerError::Design(e) => write!(f, "design: {e}"),
            ServerError::UnknownDesign(n) => write!(f, "unknown design {n:?}"),
            ServerError::UnknownRouter(r) => write!(f, "unknown router {r}"),
            ServerError::Compression(e) => write!(f, "compression: {e}"),
            ServerError::Lint(report) => write!(f, "rejected by pre-deploy analysis:\n{report}"),
            ServerError::Durability(m) => write!(f, "durability: {m}"),
            ServerError::Overloaded { retry_after } => {
                write!(f, "overloaded; retry after {}us", retry_after.as_micros())
            }
            ServerError::DeadlineExceeded => write!(f, "operation deadline exceeded"),
            ServerError::ShardDown { shard, retry_after } => write!(
                f,
                "shard {shard} down; retry after {}us",
                retry_after.as_micros()
            ),
        }
    }
}

impl ServerError {
    /// Stable machine-readable code for the web API's JSON error shape.
    /// Codes are part of the wire contract: never renamed, only added.
    pub fn code(&self) -> &'static str {
        match self {
            ServerError::Transport(_) => "transport",
            ServerError::Matrix(_) => "matrix",
            ServerError::Reservation(_) => "reservation",
            ServerError::Design(_) => "design",
            ServerError::UnknownDesign(_) => "unknown-design",
            ServerError::UnknownRouter(_) => "unknown-router",
            ServerError::Compression(_) => "compression",
            ServerError::Lint(_) => "lint",
            ServerError::Durability(_) => "durability",
            ServerError::Overloaded { .. } => "overloaded",
            ServerError::DeadlineExceeded => "deadline-exceeded",
            ServerError::ShardDown { .. } => "shard-down",
        }
    }
}

impl std::error::Error for ServerError {}

impl From<JournalError> for ServerError {
    fn from(e: JournalError) -> ServerError {
        ServerError::Durability(e.to_string())
    }
}

impl From<MatrixError> for ServerError {
    fn from(e: MatrixError) -> ServerError {
        ServerError::Matrix(e)
    }
}

impl From<DesignError> for ServerError {
    fn from(e: DesignError) -> ServerError {
        ServerError::Design(e)
    }
}

impl From<ReserveError> for ServerError {
    fn from(e: ReserveError) -> ServerError {
        ServerError::Reservation(e.to_string())
    }
}

/// Counters for the experiments (E4, E9). A point-in-time view computed
/// from the server's [`MetricsRegistry`]; the registry is the single
/// source of truth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Frames relayed port-to-port through the matrix.
    pub frames_routed: u64,
    /// Frames arriving on ports with no matrix entry (unwired — dropped
    /// exactly as an unplugged cable drops them), summed over every
    /// `reason` label of `rnl_server_frames_unrouted_total`.
    pub frames_unrouted: u64,
    /// Payload bytes relayed.
    pub bytes_relayed: u64,
    /// Frames injected by the generation module.
    pub frames_injected: u64,
}

/// Cached metric handles for one matrix wire (source port → destination
/// port). Handles are `Arc`-shared with the registry, so updates here
/// are lock-free.
#[derive(Clone)]
struct WireMetrics {
    frames: Counter,
    bytes: Counter,
    latency_us: Histogram,
}

/// Record of one live deployment.
#[derive(Debug, Clone)]
pub struct DeploymentRecord {
    pub id: DeploymentId,
    pub user: String,
    pub design_name: String,
    pub routers: Vec<RouterId>,
}

/// Grace applied to a disconnected session before it is reaped. Long
/// enough for a supervised RIS to ride out a router reboot or an ISP
/// blip; short enough that genuinely dead hardware frees its
/// reservation promptly.
pub const DEFAULT_GRACE_WINDOW: Duration = Duration::from_secs(10);

/// Default cap on a graced session's replay buffer, in accounted bytes.
/// `set_replay_cap(0)` disables queueing (frames are shed immediately).
pub const DEFAULT_REPLAY_CAP: usize = 256 * 1024;

/// Default interval between compacting snapshots when a journal is
/// installed.
pub const DEFAULT_SNAPSHOT_EVERY: Duration = Duration::from_secs(30);

/// Default virtual-µs threshold above which a relayed frame's upstream
/// latency lands in the slow-op flight recorder. 50 ms is an order of
/// magnitude beyond any healthy impaired link in the test matrix.
pub const DEFAULT_SLOW_RELAY_US: u64 = 50_000;

/// Default slow threshold for a console round-trip (virtual µs).
pub const DEFAULT_SLOW_CONSOLE_US: u64 = 500_000;

/// Default slow threshold for a flash round-trip (virtual µs): flash is
/// legitimately slow, so only multi-second stalls are captured.
pub const DEFAULT_SLOW_FLASH_US: u64 = 5_000_000;

struct Session {
    transport: Box<dyn Transport>,
    pc_name: Option<String>,
    alive: bool,
    /// The epoch the RIS registered with; proves a later rejoin comes
    /// from the same instance (token) and is newer (generation).
    epoch: Option<SessionEpoch>,
    /// When the transport died, starting the flap-grace window. `None`
    /// while healthy.
    graced_at: Option<Instant>,
    /// Data frames held while graced, replayed in order if the session
    /// is re-adopted.
    replay: VecDeque<Msg>,
    /// Accounted bytes in `replay` (capped by the server's replay cap).
    replay_bytes: usize,
    /// Transport backlog policy currently applied, derived from the
    /// session's deployment priority (Disconnect for sessions fronting
    /// deployed wires — fail fast and re-adopt under grace; DropNewest
    /// for idle sessions).
    backlog_policy: OverflowPolicy,
}

/// What became of a frame handed to [`RouteServer::send_to_router`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendOutcome {
    /// Accepted by the destination session's transport.
    Sent,
    /// The destination session is in its flap-grace window; the frame
    /// was shed, not errored.
    Graced,
    /// The destination session is graced but the frame was held in its
    /// replay buffer for in-order delivery at re-adoption.
    Queued,
    /// No live session fronts the router.
    Gone,
}

/// The back-end server. Single-threaded and poll-driven; wrap it in a
/// thread with a real clock for TCP deployments (see the examples).
pub struct RouteServer {
    sessions: BTreeMap<SessionId, Session>,
    next_session: u64,
    inventory: Inventory,
    matrix: RoutingMatrix,
    calendar: Calendar,
    designs: DesignStore,
    captures: CaptureHub,
    deployments: HashMap<DeploymentId, DeploymentRecord>,
    /// Console output per router, drained by the facade.
    console_mail: HashMap<RouterId, Vec<String>>,
    /// Flash results per router.
    flash_mail: HashMap<RouterId, Vec<(bool, String)>>,
    /// Decoders for RIS→server compressed streams.
    decompressors: HashMap<(RouterId, PortId), Decompressor>,
    /// Encoders for server→RIS compressed streams (when downstream
    /// compression is on).
    compressors: HashMap<(RouterId, PortId), Compressor>,
    /// Compress relayed frames toward the RIS (§4; off by default).
    compress_downstream: bool,
    /// Reusable `Msg::Data` body a compressed ingress frame is expanded
    /// into before it is relayed.
    expand_scratch: Vec<u8>,
    /// Reusable `Msg::DataCompressed` body downstream compression
    /// encodes into.
    compress_scratch: Vec<u8>,
    /// The §2.3 traffic-generation module.
    generator: Generator,
    /// Whether deploy requires a covering reservation. On by default —
    /// this is a shared facility; tests may relax it.
    enforce_reservations: bool,
    /// All server metrics live here; [`ServerStats`] is a view of it.
    obs: MetricsRegistry,
    /// Bounded ring of traced frame events (Fig. 4 hops).
    journal: EventJournal,
    /// Cached handles for the hot relay path, keyed by source port.
    wire_metrics: HashMap<(RouterId, PortId), WireMetrics>,
    /// Reusable receive batch for the zero-copy poll path; taken out of
    /// the server for the duration of a poll and put back after, so its
    /// buffers keep their capacity across ticks.
    batch: FrameBatch,
    /// Reusable session-id scratch for the poll loop.
    poll_ids: Vec<SessionId>,
    /// Reusable scratch for the per-poll backlog-policy derivation.
    deployed_ids: Vec<SessionId>,
    /// The Fig. 7 L1 matrix switch, folded into the general relay: a
    /// wire whose endpoints both front the *same* RIS session is
    /// bridged here at deploy, so its frames resolve in two array reads
    /// without consulting the routing matrix at all.
    l1: L1Switch,
    /// Compact endpoint index for the L1 panel.
    l1_index: PortIndexer,
    /// Bridged panel ports per deployment, unpatched at teardown.
    l1_bridges: HashMap<DeploymentId, Vec<usize>>,
    m_frames_bridged: Counter,
    /// Cached per-deployment relay counters.
    deployment_frames: HashMap<DeploymentId, Counter>,
    /// How long a disconnected session keeps its inventory, matrix
    /// entries and reservation before being reaped.
    grace_window: Duration,
    /// The write-ahead journal, when durability is enabled. Named `wal`
    /// because `journal` is the obs frame-event ring above.
    wal: Option<Box<dyn Durability>>,
    /// Interval between compacting snapshots.
    snapshot_every: Duration,
    /// When the last snapshot committed.
    last_snapshot: Option<Instant>,
    /// Fail-stop flag: a journal append or snapshot failed, so further
    /// mutations could not be recovered. The host process should exit
    /// and restart through [`RouteServer::recover`].
    crashed: bool,
    /// Byte cap per graced session's replay buffer (0 disables).
    replay_cap: usize,
    /// The priority-aware admission controller for web ops; relay
    /// traffic registers its load here too so a frame surge sheds
    /// control ops first.
    shedder: Shedder,
    /// Outstanding console round-trips awaiting a reply: when each was
    /// issued (for the round-trip quantile) and the deadline it must
    /// meet.
    console_pending: HashMap<RouterId, (Instant, Deadline)>,
    /// Outstanding flash round-trips awaiting a result.
    flash_pending: HashMap<RouterId, (Instant, Deadline)>,
    /// Wall-clock profiling points for the hot paths (`rnl_perf_*_ns`).
    /// Profiling only — never part of deterministic bench output.
    p_relay: PerfPoint,
    p_journal_append: PerfPoint,
    p_journal_fsync: PerfPoint,
    p_web_control: PerfPoint,
    p_web_console: PerfPoint,
    p_web_flash: PerfPoint,
    /// Virtual-clock latency quantiles (deterministic).
    m_relay_latency_q: Quantile,
    m_op_console_q: Quantile,
    m_op_flash_q: Quantile,
    /// Slow-op flight recorder plus per-class capture counters.
    recorder: FlightRecorder,
    m_slow_relay: Counter,
    m_slow_console: Counter,
    m_slow_flash: Counter,
    m_frames_routed: Counter,
    m_bytes_relayed: Counter,
    m_frames_injected: Counter,
    m_unrouted_no_matrix: Counter,
    m_unrouted_no_session: Counter,
    m_unrouted_graced: Counter,
    m_unrouted_decode: Counter,
    m_session_disconnects: Counter,
    m_sessions_readopted: Counter,
    m_sessions_reaped: Counter,
    m_register_imposters: Counter,
    m_sessions_graced: Gauge,
    m_session_recovery_us: Histogram,
    m_journal_appends: Counter,
    m_journal_bytes: Counter,
    m_journal_replayed: Counter,
    m_journal_torn: Counter,
    m_replay_queued: Counter,
    m_replay_flushed: Counter,
    m_recovery_seconds: Gauge,
    m_snapshot_age: Gauge,
    m_deadline_expired: Counter,
    /// Cross-shard wiring: local (router, port) endpoints whose far end
    /// lives on another shard. Consulted only on a matrix miss, so the
    /// intra-shard fast path pays nothing for federation.
    remote_routes: HashMap<(RouterId, PortId), (RouterId, PortId)>,
    /// Encoded, destination-patched frames bound for other shards; the
    /// federation drains this each poll and forwards over the trunk.
    trunk_outbox: Vec<TrunkFrame>,
    m_trunk_out: Counter,
    m_trunk_in: Counter,
    m_unrouted_trunk: Counter,
    /// Mesh control plane: which wires have a direct peer path and the
    /// epoch-scoped secrets that authenticate them.
    mesh: MeshControl,
    /// Mesh control messages (offers, revokes) awaiting the next poll,
    /// so paths without a `now` in hand (teardown, reap) can still
    /// revoke deterministically on the virtual clock.
    mesh_outbox: Vec<(RouterId, Msg)>,
    m_mesh_offers: Counter,
    m_mesh_revokes: Counter,
    /// Frames that crossed the relay for a *meshed* wire — the
    /// fallback volume. Near zero while direct paths are healthy.
    m_mesh_relay_fallback: Counter,
    m_mesh_wires: Gauge,
}

/// A cross-shard frame captured off the relay path: a fully encoded,
/// destination-patched data message awaiting trunk forwarding. The
/// federation resolves the owning shard from `dst_router` (shards
/// allocate router ids in disjoint ranges) and hands `body` to
/// [`rnl_tunnel::transport::Transport::send_raw`] — the relay stays
/// zero-decode end to end.
#[derive(Debug, Clone)]
pub struct TrunkFrame {
    /// The remote destination router.
    pub dst_router: RouterId,
    /// The encoded `Msg::Data` body, destination already patched.
    pub body: Vec<u8>,
}

impl Default for RouteServer {
    fn default() -> RouteServer {
        RouteServer::new()
    }
}

impl RouteServer {
    /// A fresh server with an empty inventory.
    pub fn new() -> RouteServer {
        let obs = MetricsRegistry::new();
        let unrouted = |reason: MissReason| {
            obs.counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", reason.label())],
            )
        };
        RouteServer {
            m_frames_routed: obs.counter("rnl_server_frames_routed_total", &[]),
            m_frames_bridged: obs.counter("rnl_server_frames_bridged_total", &[]),
            m_bytes_relayed: obs.counter("rnl_server_bytes_relayed_total", &[]),
            m_frames_injected: obs.counter("rnl_server_frames_injected_total", &[]),
            m_unrouted_no_matrix: unrouted(MissReason::NoMatrixEntry),
            m_unrouted_no_session: unrouted(MissReason::NoSession),
            m_unrouted_graced: unrouted(MissReason::SessionGraced),
            m_unrouted_decode: unrouted(MissReason::DecodeError),
            m_unrouted_trunk: unrouted(MissReason::TrunkDown),
            m_trunk_out: obs.counter("rnl_server_trunk_frames_total", &[("dir", "out")]),
            m_trunk_in: obs.counter("rnl_server_trunk_frames_total", &[("dir", "in")]),
            mesh: MeshControl::new(0x6d65_7368),
            mesh_outbox: Vec::new(),
            m_mesh_offers: obs.counter("rnl_mesh_offers_total", &[]),
            m_mesh_revokes: obs.counter("rnl_mesh_revokes_total", &[]),
            m_mesh_relay_fallback: obs.counter("rnl_mesh_relay_fallback_frames_total", &[]),
            m_mesh_wires: obs.gauge("rnl_mesh_wires", &[]),
            remote_routes: HashMap::new(),
            trunk_outbox: Vec::new(),
            m_session_disconnects: obs.counter("rnl_server_session_disconnects_total", &[]),
            m_sessions_readopted: obs.counter("rnl_server_session_readopted_total", &[]),
            m_sessions_reaped: obs.counter("rnl_server_session_reaped_total", &[]),
            m_register_imposters: obs.counter("rnl_server_register_imposter_total", &[]),
            m_sessions_graced: obs.gauge("rnl_server_sessions_graced", &[]),
            m_session_recovery_us: obs.histogram(
                "rnl_server_session_recovery_us",
                &[],
                &LATENCY_BUCKETS_US,
            ),
            m_journal_appends: obs.counter("rnl_server_journal_appends_total", &[]),
            m_journal_bytes: obs.counter("rnl_server_journal_bytes_total", &[]),
            m_journal_replayed: obs.counter("rnl_server_journal_replayed_total", &[]),
            m_journal_torn: obs.counter("rnl_server_journal_torn_total", &[]),
            m_replay_queued: obs.counter("rnl_server_replay_queued_total", &[]),
            m_replay_flushed: obs.counter("rnl_server_replay_flushed_total", &[]),
            m_recovery_seconds: obs.gauge("rnl_server_recovery_duration_seconds", &[]),
            m_snapshot_age: obs.gauge("rnl_server_snapshot_age_seconds", &[]),
            m_deadline_expired: obs.counter("rnl_server_deadline_expired_total", &[]),
            p_relay: PerfPoint::new(&obs, "server_relay", &["decode", "matrix", "encode"]),
            p_journal_append: PerfPoint::new(&obs, "journal_append", &[]),
            p_journal_fsync: PerfPoint::new(&obs, "journal_fsync", &[]),
            p_web_control: PerfPoint::new(&obs, "web_op_control", &["admit", "dispatch"]),
            p_web_console: PerfPoint::new(&obs, "web_op_console", &["admit", "dispatch"]),
            p_web_flash: PerfPoint::new(&obs, "web_op_flash", &["admit", "dispatch"]),
            m_relay_latency_q: obs.quantile("rnl_server_relay_latency_us_quantile", &[]),
            m_op_console_q: obs.quantile("rnl_server_op_us_quantile", &[("class", "console")]),
            m_op_flash_q: obs.quantile("rnl_server_op_us_quantile", &[("class", "flash")]),
            recorder: {
                let rec = FlightRecorder::default();
                rec.set_threshold("relay", DEFAULT_SLOW_RELAY_US);
                rec.set_threshold("console", DEFAULT_SLOW_CONSOLE_US);
                rec.set_threshold("flash", DEFAULT_SLOW_FLASH_US);
                rec
            },
            m_slow_relay: obs.counter("rnl_perf_slow_ops_total", &[("class", "relay")]),
            m_slow_console: obs.counter("rnl_perf_slow_ops_total", &[("class", "console")]),
            m_slow_flash: obs.counter("rnl_perf_slow_ops_total", &[("class", "flash")]),
            shedder: Shedder::new(OverloadConfig::default(), Instant::EPOCH),
            console_pending: HashMap::new(),
            flash_pending: HashMap::new(),
            grace_window: DEFAULT_GRACE_WINDOW,
            wal: None,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            last_snapshot: None,
            crashed: false,
            replay_cap: DEFAULT_REPLAY_CAP,
            obs,
            journal: EventJournal::new(4096),
            wire_metrics: HashMap::new(),
            batch: FrameBatch::new(),
            poll_ids: Vec::new(),
            deployed_ids: Vec::new(),
            l1: L1Switch::new(0),
            l1_index: PortIndexer::new(),
            l1_bridges: HashMap::new(),
            deployment_frames: HashMap::new(),
            sessions: BTreeMap::new(),
            next_session: 0,
            inventory: Inventory::new(),
            matrix: RoutingMatrix::new(),
            calendar: Calendar::new(),
            designs: DesignStore::new(),
            captures: CaptureHub::default(),
            deployments: HashMap::new(),
            console_mail: HashMap::new(),
            flash_mail: HashMap::new(),
            decompressors: HashMap::new(),
            compressors: HashMap::new(),
            compress_downstream: false,
            expand_scratch: Vec::new(),
            compress_scratch: Vec::new(),
            generator: Generator::new(),
            enforce_reservations: true,
        }
    }

    /// Relax or enforce the reservation check at deploy time.
    pub fn set_enforce_reservations(&mut self, on: bool) {
        self.enforce_reservations = on;
    }

    /// Compress relayed frames on the server→RIS leg (§4's bandwidth
    /// mitigation; the RIS transparently decompresses).
    pub fn set_compress_downstream(&mut self, on: bool) {
        self.compress_downstream = on;
    }

    /// Frames forwarded over the Fig. 7 L1 bridge instead of the
    /// routing matrix (a subset of `frames_routed`).
    pub fn frames_bridged(&self) -> u64 {
        self.m_frames_bridged.get()
    }

    /// Configure the flap-grace window (how long a disconnected session
    /// keeps its deployment before being reaped).
    pub fn set_grace_window(&mut self, window: Duration) {
        self.grace_window = window;
    }

    /// The configured flap-grace window.
    pub fn grace_window(&self) -> Duration {
        self.grace_window
    }

    /// Whether deploys currently require a covering reservation (the
    /// facade re-applies this across a crash — it is config, not state).
    pub fn reservations_enforced(&self) -> bool {
        self.enforce_reservations
    }

    /// Whether the server→RIS leg is compressed.
    pub fn compress_downstream(&self) -> bool {
        self.compress_downstream
    }

    /// Cap the per-session replay buffer (bytes). `0` disables
    /// queueing: frames toward a graced session are shed immediately,
    /// the pre-durability behavior.
    pub fn set_replay_cap(&mut self, bytes: usize) {
        self.replay_cap = bytes;
    }

    /// Configure the interval between compacting snapshots.
    pub fn set_snapshot_every(&mut self, every: Duration) {
        self.snapshot_every = every;
    }

    // -----------------------------------------------------------------
    // Overload policy: admission control, load shedding, deadlines
    // -----------------------------------------------------------------

    /// Replace the overload policy (high-water mark, per-session quota,
    /// op deadlines). Buckets reset to full. Config, not state: the
    /// facade re-applies it across a crash.
    pub fn set_overload_config(&mut self, cfg: OverloadConfig, now: Instant) {
        self.shedder.set_config(cfg, now);
    }

    /// The active overload policy.
    pub fn overload_config(&self) -> OverloadConfig {
        self.shedder.config()
    }

    /// Admit one op of `tier` on behalf of `principal`, or shed it with
    /// a retryable [`ServerError::Overloaded`]. Sheds are counted under
    /// `rnl_server_shed_total{tier,reason}`.
    pub fn admit(&mut self, tier: Tier, principal: &str, now: Instant) -> Result<(), ServerError> {
        match self.shedder.admit(tier, principal, now) {
            Ok(()) => Ok(()),
            Err(shed) => {
                self.obs
                    .counter(
                        "rnl_server_shed_total",
                        &[("tier", tier.label()), ("reason", shed.reason)],
                    )
                    .inc();
                Err(ServerError::Overloaded {
                    retry_after: shed.retry_after,
                })
            }
        }
    }

    /// Register tier-0 load (a relayed frame or heartbeat). Never sheds
    /// — relay is the one thing the lab exists to keep running — but
    /// the deduction makes a frame surge shed control ops first. Relay
    /// admission only draws on the *global* bucket ([`Shedder::admit`]
    /// returns before the per-principal bucket), so the hot path never
    /// clones the session's pc-name.
    fn admit_relay(&mut self, now: Instant) {
        let _ = self.admit(Tier::Relay, "", now);
    }

    /// Derive each session's transport backlog policy from its
    /// deployment priority: sessions fronting deployed wires fail fast
    /// (`Disconnect` at the HWM, re-adopting under flap grace) while
    /// idle sessions quietly shed their newest frames. Policy changes
    /// count under `rnl_server_backlog_policy_total{policy}`.
    fn apply_backlog_policies(&mut self) {
        // Reusable scratch: this runs every poll, so it must not
        // allocate once its capacity has settled.
        let mut deployed = std::mem::take(&mut self.deployed_ids);
        deployed.clear();
        for d in self.deployments.values() {
            for &router in &d.routers {
                if let Some(sid) = self.inventory.session_of(router) {
                    deployed.push(sid);
                }
            }
        }
        for (sid, session) in self.sessions.iter_mut() {
            let want = if deployed.contains(sid) {
                OverflowPolicy::Disconnect
            } else {
                OverflowPolicy::DropNewest
            };
            if session.backlog_policy != want {
                session.backlog_policy = want;
                session.transport.set_backlog_policy(DEFAULT_TX_HWM, want);
                let label = match want {
                    OverflowPolicy::Disconnect => "disconnect",
                    OverflowPolicy::DropNewest => "drop-newest",
                };
                self.obs
                    .counter("rnl_server_backlog_policy_total", &[("policy", label)])
                    .inc();
            }
        }
        self.deployed_ids = deployed;
    }

    // -----------------------------------------------------------------
    // Durability: write-ahead journal, snapshots, crash recovery
    // -----------------------------------------------------------------

    /// Install a write-ahead journal and commit an initial snapshot of
    /// the current state. Every subsequent state mutation is journaled;
    /// [`RouteServer::recover`] replays snapshot + tail after a crash.
    pub fn set_durability(
        &mut self,
        wal: Box<dyn Durability>,
        now: Instant,
    ) -> Result<(), ServerError> {
        self.wal = Some(wal);
        self.snapshot_now(now)
    }

    /// Arm (or disarm, with `None`) a crash-injection point on the
    /// installed journal. Test harness hook: the next matching journal
    /// operation fails exactly there, once.
    pub fn arm_crash(&mut self, point: Option<CrashPoint>) {
        if let Some(wal) = self.wal.as_mut() {
            wal.arm_crash(point);
        }
    }

    /// Whether the server fail-stopped because the journal could not
    /// record a mutation. A crashed server must be discarded and
    /// rebuilt through [`RouteServer::recover`].
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Commit a compacting snapshot now: the durable state's ops replace
    /// the snapshot file and the journal tail is truncated. No-op
    /// without a journal.
    pub fn snapshot_now(&mut self, now: Instant) -> Result<(), ServerError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let records: Vec<Vec<u8>> = self.durable_ops().iter().map(Op::encode).collect();
        let written = self
            .wal
            .as_mut()
            .map_or(Ok(()), |wal| wal.write_snapshot(&records));
        match written {
            Ok(()) => {
                self.last_snapshot = Some(now);
                Ok(())
            }
            Err(e) => {
                self.crashed = true;
                Err(ServerError::Durability(e.to_string()))
            }
        }
    }

    /// The snapshot payload: the durable state as the JSON array of the
    /// ops that rebuild it — what a snapshot persists and what recovery
    /// reconstructs, byte for byte.
    pub fn durable_state(&self) -> Json {
        Json::Arr(self.durable_ops().iter().map(Op::to_json).collect())
    }

    /// The shortest op sequence that rebuilds the durable state: one
    /// `Session` per registered session with the inventory records it
    /// fronts, then reservations, saved designs and deployments, each in
    /// id (or name) order, then the id counters.
    fn durable_ops(&self) -> Vec<Op> {
        let mut ops: Vec<Op> = self
            .sessions
            .iter()
            .filter_map(|(sid, s)| match (&s.pc_name, s.epoch) {
                (Some(pc), Some(epoch)) => Some(Op::Session {
                    sid: *sid,
                    pc_name: pc.clone(),
                    epoch,
                    replaces: None,
                    routers: self
                        .inventory
                        .list()
                        .filter(|r| r.session == *sid)
                        .map(|r| (r.id, r.info.clone()))
                        .collect(),
                }),
                // A session that never registered has nothing durable.
                _ => None,
            })
            .collect();
        ops.extend(self.calendar.iter().map(|r| Op::Reserve {
            id: r.id,
            user: r.user.clone(),
            routers: r.routers.clone(),
            start: r.start,
            end: r.end,
        }));
        ops.extend(
            self.designs
                .names()
                .filter_map(|name| self.designs.load(name))
                .map(|d| Op::SaveDesign {
                    design: d.to_json(),
                }),
        );
        let mut deployments: Vec<&DeploymentRecord> = self.deployments.values().collect();
        deployments.sort_by_key(|d| d.id);
        ops.extend(deployments.into_iter().map(|d| {
            Op::Deploy {
                id: d.id,
                user: d.user.clone(),
                design_name: d.design_name.clone(),
                routers: d.routers.clone(),
                links: self
                    .matrix
                    .links_of(d.id)
                    .map(|links| links.to_vec())
                    .unwrap_or_default(),
            }
        }));
        ops.push(Op::Watermarks {
            next_session: self.next_session,
            next_router: self.inventory.next_id(),
            next_reservation: self.calendar.next_id(),
            next_deployment: self.matrix.next_id(),
            next_federation: 0,
        });
        ops
    }

    /// Append one mutation to the journal. The mutation has already
    /// been applied (redo logging); on append failure the server
    /// fail-stops rather than continue with unrecoverable state.
    fn wal_append(&mut self, op: &Op) {
        if self.wal.is_none() {
            return;
        }
        let perf = self.p_journal_append.scope();
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let outcome = wal.append(&op.encode());
        perf.finish();
        match outcome {
            Ok(written) => {
                self.m_journal_appends.inc();
                self.m_journal_bytes.add(written as u64);
            }
            Err(_) => {
                self.crashed = true;
            }
        }
    }

    /// Rebuild a server from a journal: replay the snapshot's ops, then
    /// the tail's, and start every recovered session in its grace window
    /// so re-registering RIS supervisors re-adopt their hardware onto
    /// the recovered matrix. Torn trailing records are truncated and
    /// counted, never fatal; a corrupt *snapshot* is fatal (that is
    /// disk corruption, not a crash).
    pub fn recover(mut wal: Box<dyn Durability>, now: Instant) -> Result<RouteServer, ServerError> {
        let started = std::time::Instant::now();
        let recovered = wal.load()?;
        let mut server = RouteServer::new();
        server.m_journal_torn.add(recovered.torn);
        for (i, record) in recovered.records.iter().enumerate() {
            server.apply_op(Op::decode(record)?, now);
            if i >= recovered.snapshot_records {
                server.m_journal_replayed.inc();
            }
        }
        server.note_graced();
        server.wal = Some(wal);
        // Compact immediately: the replayed tail folds into a fresh
        // snapshot, so a second crash replays from here.
        server.snapshot_now(now)?;
        server
            .m_recovery_seconds
            .set(started.elapsed().as_secs_f64());
        Ok(server)
    }

    /// Insert a recovered session as a graced placeholder: dead
    /// transport, journaled identity. The ordinary re-adoption path in
    /// `handle_msg` picks it up when its RIS redials, exactly as after
    /// a live flap.
    fn seed_session(&mut self, sid: SessionId, pc_name: String, epoch: SessionEpoch, now: Instant) {
        self.next_session = self.next_session.max(sid.0 + 1);
        self.sessions.insert(
            sid,
            Session {
                transport: Box::new(ClosedTransport),
                pc_name: Some(pc_name),
                alive: false,
                epoch: Some(epoch),
                graced_at: Some(now),
                replay: VecDeque::new(),
                replay_bytes: 0,
                backlog_policy: OverflowPolicy::DropNewest,
            },
        );
    }

    /// Re-apply one journaled mutation during recovery. Mirrors the
    /// live mutation paths but never journals, never touches
    /// transports, and is idempotent where the live path was (reap
    /// after teardown, cancel of a cancelled id).
    fn apply_op(&mut self, op: Op, now: Instant) {
        match op {
            Op::Session {
                sid,
                pc_name,
                epoch,
                replaces,
                routers,
            } => {
                for (id, info) in routers {
                    self.inventory.restore(InventoryRecord {
                        id,
                        session: sid,
                        pc_name: pc_name.clone(),
                        info,
                        last_seen: now,
                    });
                }
                if let Some(old) = replaces {
                    let leftover = self.inventory.remove_session(old);
                    for router in leftover {
                        if let Some(dep) = self.matrix.owner_of(router) {
                            self.deployments.remove(&dep);
                            self.matrix.teardown(dep);
                        }
                    }
                    self.sessions.remove(&old);
                }
                self.seed_session(sid, pc_name, epoch, now);
            }
            Op::Reap { sid } => {
                self.sessions.remove(&sid);
                let gone = self.inventory.remove_session(sid);
                for router in gone {
                    if let Some(dep) = self.matrix.owner_of(router) {
                        self.deployments.remove(&dep);
                        self.matrix.teardown(dep);
                    }
                }
            }
            Op::Reserve {
                id,
                user,
                routers,
                start,
                end,
            } => {
                self.calendar.restore(Reservation {
                    id,
                    user,
                    routers,
                    start,
                    end,
                });
            }
            Op::Cancel { id } => {
                self.calendar.cancel(id);
            }
            Op::Deploy {
                id,
                user,
                design_name,
                routers,
                links,
            } => {
                self.matrix.restore(id, &routers, &links);
                self.deployments.insert(
                    id,
                    DeploymentRecord {
                        id,
                        user,
                        design_name,
                        routers,
                    },
                );
            }
            Op::Teardown { id } => {
                self.deployments.remove(&id);
                self.matrix.teardown(id);
            }
            Op::SaveDesign { design } => {
                // A design that journaled but no longer parses is disk
                // corruption of one artifact, not a reason to refuse the
                // whole recovery.
                if let Ok(design) = Design::from_json(&design) {
                    self.designs.save(design);
                }
            }
            Op::DeleteDesign { name } => {
                self.designs.delete(&name);
            }
            Op::Watermarks {
                next_session,
                next_router,
                next_reservation,
                next_deployment,
                next_federation: _,
            } => {
                self.next_session = self.next_session.max(next_session);
                self.inventory.set_next_id(next_router);
                self.calendar.set_next_id(next_reservation);
                self.matrix.set_next_id(next_deployment);
            }
            // Federation records live in the federation's own log.
            Op::FedDeploy { .. } | Op::FedTeardown { .. } => {}
        }
    }

    /// Counters, computed from the metrics registry.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            frames_routed: self.m_frames_routed.get(),
            frames_unrouted: self.obs.counter_sum("rnl_server_frames_unrouted_total"),
            bytes_relayed: self.m_bytes_relayed.get(),
            frames_injected: self.m_frames_injected.get(),
        }
    }

    /// The server's metrics registry. Cloning shares the underlying
    /// storage, so exposition threads can snapshot it concurrently.
    pub fn obs(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// The frame-path event journal (server-side hops).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The slow-op flight recorder.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Currently captured slow ops, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.recorder.snapshot()
    }

    /// Override the slow threshold for an op class (`relay`, `console`,
    /// `flash`), in virtual µs.
    pub fn set_slow_threshold(&mut self, class: &'static str, threshold_us: u64) {
        self.recorder.set_threshold(class, threshold_us);
    }

    /// The profiling point for a web-op class (used by the web API to
    /// time admit → dispatch per class).
    pub fn web_perf(&self, class: overload::OpClass) -> &PerfPoint {
        match class {
            overload::OpClass::Console => &self.p_web_console,
            overload::OpClass::Flash => &self.p_web_flash,
            overload::OpClass::Control => &self.p_web_control,
        }
    }

    /// The inventory (the Fig. 2 left column).
    pub fn inventory(&self) -> &Inventory {
        &self.inventory
    }

    /// The reservation calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// The design store.
    pub fn designs(&self) -> &DesignStore {
        &self.designs
    }

    /// Mutable design-store access. Raw: mutations made here are NOT
    /// journaled — use [`RouteServer::save_design`] /
    /// [`RouteServer::delete_design`] when durability matters.
    pub fn designs_mut(&mut self) -> &mut DesignStore {
        &mut self.designs
    }

    /// Save (overwrite) a design, journaled: with `--state-dir` on, the
    /// design survives a crash like every other web-API mutation.
    pub fn save_design(&mut self, design: Design) {
        let journaled = design.to_json();
        self.designs.save(design);
        self.wal_append(&Op::SaveDesign { design: journaled });
    }

    /// Delete a design, journaled.
    pub fn delete_design(&mut self, name: &str) -> bool {
        let deleted = self.designs.delete(name);
        if deleted {
            self.wal_append(&Op::DeleteDesign {
                name: name.to_string(),
            });
        }
        deleted
    }

    /// Re-journal a saved design after an in-place mutation (design
    /// edits through the web API mutate via `load_mut`, then commit the
    /// result here). No-op for unknown names.
    pub fn journal_saved_design(&mut self, name: &str) {
        if let Some(design) = self.designs.load(name) {
            let journaled = design.to_json();
            self.wal_append(&Op::SaveDesign { design: journaled });
        }
    }

    /// The capture hub.
    pub fn captures(&self) -> &CaptureHub {
        &self.captures
    }

    /// Mutable capture hub (start/stop monitoring).
    pub fn captures_mut(&mut self) -> &mut CaptureHub {
        &mut self.captures
    }

    /// Live deployments.
    pub fn deployments(&self) -> impl Iterator<Item = &DeploymentRecord> {
        self.deployments.values()
    }

    /// Accept a new RIS connection.
    pub fn attach(&mut self, transport: Box<dyn Transport>) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(
            id,
            Session {
                transport,
                pc_name: None,
                alive: true,
                epoch: None,
                graced_at: None,
                replay: VecDeque::new(),
                replay_bytes: 0,
                backlog_policy: OverflowPolicy::DropNewest,
            },
        );
        id
    }

    /// Append what a blocking caller should wait on between polls: one
    /// entry per live session whose transport has a descriptor (write
    /// interest included while its backlog is pending). Graced and dead
    /// sessions contribute nothing; they are timer work.
    pub fn wait_fds(&self, fds: &mut Vec<PollFd>) {
        fds.extend(
            self.sessions
                .values()
                .filter(|s| s.alive && s.graced_at.is_none())
                .filter_map(|s| s.transport.wait_fd()),
        );
    }

    /// One poll cycle: drain every session, relay data, apply
    /// registrations, collect mailboxes, grace newly-dead sessions, and
    /// reap sessions whose grace expired.
    pub fn poll(&mut self, now: Instant) {
        // Mesh control traffic queued since the last poll (offers from
        // deploys and re-adoptions, revokes from teardowns) goes out
        // first, on this poll's virtual timestamp.
        if !self.mesh_outbox.is_empty() {
            let outbox = std::mem::take(&mut self.mesh_outbox);
            for (router, msg) in outbox {
                self.send_to_router(router, msg, now);
            }
        }
        self.poll_sessions_batched(now);
        // Emit due generator traffic into its target ports.
        for (router, port, frame) in self.generator.poll(now) {
            // Streams whose router vanished just stop producing effect.
            let _ = self.inject(router, port, frame, now);
        }
        // Newly-dead sessions enter the flap grace window rather than
        // being reaped at first disconnect: the inventory, matrix and
        // reservation stay intact while the RIS supervisor redials.
        let disconnected: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.graced_at.is_none() && (!s.alive || !s.transport.is_connected()))
            .map(|(id, _)| *id)
            .collect();
        for sid in disconnected {
            self.enter_grace(sid, now);
        }
        // Grace expiry: the session is not coming back; reap it and free
        // its hardware.
        let expired: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.graced_at
                    .is_some_and(|at| now.since(at) > self.grace_window)
            })
            .map(|(id, _)| *id)
            .collect();
        for sid in expired {
            self.reap_session(sid);
        }
        // Periodic compaction: fold the journal tail into a fresh
        // snapshot and publish how stale the snapshot is.
        if self.wal.is_some() && !self.crashed {
            let due = match self.last_snapshot {
                None => true,
                Some(at) => now.since(at) >= self.snapshot_every,
            };
            if due {
                // Failure fail-stops via `crashed`; nothing to do here.
                let _ = self.snapshot_now(now);
            }
            if let Some(at) = self.last_snapshot {
                self.m_snapshot_age
                    .set(now.since(at).as_micros() as f64 / 1e6);
            }
        }
        // Re-derive per-session backlog policy from deployment priority
        // (deploys, teardowns and re-adoptions all change it).
        self.apply_backlog_policies();
        // Group commit: sync everything appended this poll in one go.
        // With the default `FsyncPolicy::EveryAppend` this is a no-op.
        if self.wal.is_some() && !self.crashed {
            let perf = self.p_journal_fsync.scope();
            if let Some(wal) = self.wal.as_mut() {
                if wal.flush().is_err() {
                    self.crashed = true;
                }
            }
            perf.finish();
        }
    }

    /// The batched session drain: each transport appends its
    /// deliverable frames into the reusable [`FrameBatch`] in one call,
    /// data frames relay as borrowed bytes, and every touched transport
    /// is flushed once at the end of its burst instead of per message.
    fn poll_sessions_batched(&mut self, now: Instant) {
        // Both scratch buffers move out of `self` for the loop (the
        // handlers re-borrow `self` freely) and back in afterwards, so
        // their capacity survives across ticks.
        let mut ids = std::mem::take(&mut self.poll_ids);
        let mut batch = std::mem::take(&mut self.batch);
        ids.clear();
        ids.extend(self.sessions.keys().copied());
        for &sid in &ids {
            batch.clear();
            let appended = match self.sessions.get_mut(&sid) {
                Some(session) if session.alive => {
                    match session.transport.poll_into(now, &mut batch) {
                        Ok(n) => n,
                        Err(_) => {
                            session.alive = false;
                            0
                        }
                    }
                }
                _ => 0,
            };
            if appended == 0 {
                continue;
            }
            self.inventory.touch_session(sid, now);
            for i in 0..batch.len() {
                self.handle_frame(sid, &mut batch, i, now);
            }
        }
        // One flush per live transport per tick: the relay burst above
        // enqueued raw frames without pushing them to the wire.
        for &sid in &ids {
            if let Some(session) = self.sessions.get_mut(&sid) {
                if session.alive && session.transport.flush(now).is_err() {
                    session.alive = false;
                }
            }
        }
        batch.clear();
        self.batch = batch;
        self.poll_ids = ids;
    }

    /// Dispatch one received frame: a data frame, plain or compressed,
    /// is relayed from the bytes it arrived in; everything else takes
    /// the owned decode and [`RouteServer::handle_msg`]. A frame that
    /// fails the owned decode is a protocol error and kills the session.
    fn handle_frame(&mut self, sid: SessionId, batch: &mut FrameBatch, i: usize, now: Instant) {
        let Some(body) = batch.get_mut(i) else {
            return;
        };
        if self.relay_body(body, now) {
            return;
        }
        match Msg::decode(body) {
            Ok(msg) => self.handle_msg(sid, msg, now),
            Err(_) => {
                if let Some(session) = self.sessions.get_mut(&sid) {
                    session.alive = false;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Federation hooks: cross-shard wires, trunk outbox, id ranges
    // -----------------------------------------------------------------

    /// Install a cross-shard half-wire: frames arriving on the local
    /// `from` endpoint are re-addressed to the remote `to` endpoint and
    /// queued for the inter-shard trunk. The far shard installs the
    /// mirror route for the reverse direction.
    pub fn add_remote_route(&mut self, from: (RouterId, PortId), to: (RouterId, PortId)) {
        self.remote_routes.insert(from, to);
    }

    /// Remove a cross-shard half-wire (teardown of a spanning
    /// deployment).
    pub fn remove_remote_route(&mut self, from: (RouterId, PortId)) {
        self.remote_routes.remove(&from);
    }

    /// The remote far end of a local endpoint, if any.
    pub fn remote_route(&self, from: (RouterId, PortId)) -> Option<(RouterId, PortId)> {
        self.remote_routes.get(&from).copied()
    }

    /// Drain the frames queued for other shards this poll. The
    /// federation forwards each over the owning trunk — or sheds it as
    /// `reason="trunk-down"` via [`RouteServer::shed_trunk_frame`].
    pub fn take_trunk_outbox(&mut self) -> Vec<TrunkFrame> {
        std::mem::take(&mut self.trunk_outbox)
    }

    /// Count one cross-shard frame shed because its trunk was down.
    /// Only cross-shard frames ever carry this reason: intra-shard
    /// relay never touches a trunk.
    pub fn shed_trunk_frame(&mut self, dst_router: RouterId, now: Instant) {
        self.frame_unrouted(
            dst_router,
            PortId(0),
            MissReason::TrunkDown,
            TraceId::NONE,
            now,
        );
    }

    /// Start this shard's router-id allocation at `base`, so shards
    /// allocate in disjoint ranges and a `RouterId` alone names its
    /// owning shard. Idempotent and monotonic (never lowers the
    /// counter); re-applied after recovery.
    pub fn set_router_id_base(&mut self, base: u32) {
        self.inventory.set_next_id(base);
    }

    /// Mark a session disconnected and start its grace window. Frames
    /// routed to its routers are shed (counted as `session-graced`)
    /// until it is re-adopted or reaped.
    fn enter_grace(&mut self, sid: SessionId, now: Instant) {
        if let Some(session) = self.sessions.get_mut(&sid) {
            session.alive = false;
            session.graced_at = Some(now);
            self.m_session_disconnects.inc();
            self.note_graced();
        }
    }

    /// Reap a session whose grace expired: remove its routers from the
    /// inventory, tear down any deployment that used them, and purge
    /// per-router state.
    fn reap_session(&mut self, sid: SessionId) {
        if let Some(session) = self.sessions.remove(&sid) {
            // The replay buffer dies with the session: those frames
            // were ultimately shed, count them as such.
            if !session.replay.is_empty() {
                self.m_unrouted_graced.add(session.replay.len() as u64);
            }
            // Its admission quota dies with it too.
            if let Some(pc) = &session.pc_name {
                self.shedder.forget_principal(pc);
            }
        }
        let gone = self.inventory.remove_session(sid);
        self.purge_routers(&gone);
        self.m_sessions_reaped.inc();
        self.note_graced();
        self.wal_append(&Op::Reap { sid });
    }

    /// Tear down deployments owning `routers` and drop their per-router
    /// server-side state.
    fn purge_routers(&mut self, routers: &[RouterId]) {
        for &router in routers {
            if let Some(dep) = self.matrix.owner_of(router) {
                self.teardown(dep);
            }
            self.console_mail.remove(&router);
            self.flash_mail.remove(&router);
            self.console_pending.remove(&router);
            self.flash_pending.remove(&router);
            self.compressors.retain(|(r, _), _| *r != router);
            self.decompressors.retain(|(r, _), _| *r != router);
        }
    }

    fn note_graced(&self) {
        let graced = self
            .sessions
            .values()
            .filter(|s| s.graced_at.is_some())
            .count();
        self.m_sessions_graced.set(graced as f64);
    }

    fn handle_msg(&mut self, sid: SessionId, msg: Msg, now: Instant) {
        match msg {
            Msg::Register(info) => {
                // Is this a rejoin of a graced session for the same PC?
                // The epoch decides: same token and a strictly higher
                // generation is the session coming back; anything else
                // claiming a graced PC's name is an imposter and gets a
                // fresh registration instead of the old hardware.
                let graced = self
                    .sessions
                    .iter()
                    .find(|(id, s)| {
                        **id != sid
                            && s.graced_at.is_some()
                            && s.pc_name.as_deref() == Some(info.pc_name.as_str())
                    })
                    .map(|(id, s)| (*id, s.epoch, s.graced_at));
                let readopt = match graced {
                    Some((old_sid, Some(old_epoch), graced_at))
                        if info.epoch.token == old_epoch.token
                            && info.epoch.generation > old_epoch.generation =>
                    {
                        Some((old_sid, graced_at))
                    }
                    Some(_) => {
                        self.m_register_imposters.inc();
                        None
                    }
                    None => None,
                };
                let pc_name = info.pc_name.clone();
                let epoch = info.epoch;
                let mut adopted: Vec<RouterId> = Vec::new();
                let mut assignments = Vec::new();
                let mut journal_routers: Vec<(RouterId, rnl_tunnel::msg::RouterInfo)> = Vec::new();
                let mut replaces = None;
                let mut pending_replay: Vec<Msg> = Vec::new();
                if let Some((old_sid, graced_at)) = readopt {
                    replaces = Some(old_sid);
                    for router in info.routers {
                        let local_id = router.local_id;
                        let id = match self.inventory.rebind(old_sid, sid, &router, now) {
                            Some(id) => id,
                            // New hardware on the rejoined RIS.
                            None => self.inventory.register(sid, &pc_name, router.clone(), now),
                        };
                        // Compression rings restart from scratch on the
                        // new connection; a stale ring would desync.
                        self.compressors.retain(|(r, _), _| *r != id);
                        self.decompressors.retain(|(r, _), _| *r != id);
                        journal_routers.push((id, router));
                        adopted.push(id);
                        assignments.push(Assignment {
                            local_id,
                            router: id,
                        });
                    }
                    // Frames held for the graced session flush to the
                    // rejoined one, after the RegisterAck below.
                    if let Some(old) = self.sessions.get_mut(&old_sid) {
                        pending_replay = old.replay.drain(..).collect();
                        old.replay_bytes = 0;
                    }
                    // Routers the rejoin no longer fronts are gone for
                    // good: free them and their deployments.
                    let leftover = self.inventory.remove_session(old_sid);
                    self.purge_routers(&leftover);
                    self.sessions.remove(&old_sid);
                    self.m_sessions_readopted.inc();
                    if let Some(at) = graced_at {
                        self.m_session_recovery_us
                            .observe(now.since(at).as_micros());
                    }
                    self.note_graced();
                } else {
                    for router in info.routers {
                        let local_id = router.local_id;
                        let id = self.inventory.register(sid, &pc_name, router.clone(), now);
                        journal_routers.push((id, router));
                        assignments.push(Assignment {
                            local_id,
                            router: id,
                        });
                    }
                }
                if let Some(session) = self.sessions.get_mut(&sid) {
                    session.pc_name = Some(pc_name.clone());
                    session.epoch = Some(epoch);
                    let _ = session.transport.send(&Msg::RegisterAck(assignments), now);
                }
                self.wal_append(&Op::Session {
                    sid,
                    pc_name,
                    epoch,
                    replaces,
                    routers: journal_routers,
                });
                if !pending_replay.is_empty() {
                    self.flush_replay(sid, pending_replay, now);
                }
                // The rejoined session's epoch is new, so its mesh
                // secrets are stale on both ends: rotate and re-offer.
                if !adopted.is_empty() {
                    self.reoffer_mesh_for_routers(&adopted);
                }
            }
            Msg::ConsoleReply { router, output } => {
                // The round-trip completed; its deadline is met. Feed
                // the issue-to-reply gap into the console quantile.
                if let Some((issued, _)) = self.console_pending.remove(&router) {
                    self.observe_op_round_trip("console", router, issued, now);
                }
                self.console_mail.entry(router).or_default().push(output);
            }
            Msg::FlashResult {
                router,
                ok,
                message,
            } => {
                if let Some((issued, _)) = self.flash_pending.remove(&router) {
                    self.observe_op_round_trip("flash", router, issued, now);
                }
                self.flash_mail
                    .entry(router)
                    .or_default()
                    .push((ok, message));
            }
            Msg::Heartbeat { .. } => {
                self.admit_relay(now);
                self.inventory.touch_session(sid, now);
            }
            // Data frames never get this far: `handle_frame` relays
            // every well-formed one from its encoded body, and a
            // malformed one fails the owned decode.
            Msg::Data { .. } | Msg::DataCompressed { .. } => {}
            // Server-to-RIS messages arriving upstream are ignored, as
            // are mesh messages — those travel peer-to-peer, never up
            // the tunnel.
            Msg::RegisterAck(_)
            | Msg::Console { .. }
            | Msg::SetPower { .. }
            | Msg::SetLink { .. }
            | Msg::Flash { .. }
            | Msg::MeshOffer(_)
            | Msg::MeshRevoke { .. }
            | Msg::MeshProbe { .. } => {}
        }
    }

    /// The one place an unroutable frame is counted, whatever the
    /// reason: the counter carries a `reason` label and the journal
    /// gets a [`Hop::MatrixMiss`] so traces show where frames died.
    fn frame_unrouted(
        &mut self,
        router: RouterId,
        port: PortId,
        reason: MissReason,
        trace: TraceId,
        now: Instant,
    ) {
        match reason {
            MissReason::NoMatrixEntry => self.m_unrouted_no_matrix.inc(),
            MissReason::NoSession => self.m_unrouted_no_session.inc(),
            MissReason::SessionGraced => self.m_unrouted_graced.inc(),
            MissReason::DecodeError => self.m_unrouted_decode.inc(),
            MissReason::TrunkDown => self.m_unrouted_trunk.inc(),
        }
        self.journal.record(FrameEvent {
            trace,
            t_us: now.as_micros(),
            hop: Hop::MatrixMiss(reason),
            router: router.0,
            port: port.0,
            bytes: 0,
        });
    }

    /// Record a completed control-plane round-trip (console/flash) into
    /// its virtual-latency quantile and, when it crossed the class
    /// threshold, the flight recorder. Round-trips carry no frame
    /// trace, so the slow-op entry joins on router id instead.
    fn observe_op_round_trip(
        &mut self,
        class: &'static str,
        router: RouterId,
        issued: Instant,
        now: Instant,
    ) {
        let rt_us = now.since(issued).as_micros();
        let (quantile, slow_counter) = if class == "console" {
            (&self.m_op_console_q, &self.m_slow_console)
        } else {
            (&self.m_op_flash_q, &self.m_slow_flash)
        };
        quantile.observe(rt_us);
        let captured = self.recorder.record_if_slow(SlowOp {
            class,
            trace: TraceId::NONE,
            router: router.0,
            port: 0,
            at_us: now.as_micros(),
            total_us: rt_us,
            phases: vec![("round-trip", rt_us)],
        });
        if captured {
            slow_counter.inc();
        }
    }

    fn send_to_router(&mut self, router: RouterId, msg: Msg, now: Instant) -> SendOutcome {
        let Some(sid) = self.inventory.session_of(router) else {
            return SendOutcome::Gone;
        };
        let cap = self.replay_cap;
        let queued = self.m_replay_queued.clone();
        let Some(session) = self.sessions.get_mut(&sid) else {
            return SendOutcome::Gone;
        };
        if session.graced_at.is_some() || !session.alive {
            return Self::hold_for_replay(session, cap, &queued, msg);
        }
        match session.transport.send(&msg, now) {
            Ok(()) => SendOutcome::Sent,
            Err(_) => SendOutcome::Gone,
        }
    }

    /// A graced session's transport is dead but the session is expected
    /// back: hold data frames for in-order replay at re-adoption (up to
    /// the replay cap), shed everything else quietly rather than
    /// treating it as a routing error.
    fn hold_for_replay(
        session: &mut Session,
        cap: usize,
        queued: &Counter,
        msg: Msg,
    ) -> SendOutcome {
        let cost = match &msg {
            Msg::Data { frame, .. } => Some(32 + frame.len()),
            Msg::DataCompressed { encoded, .. } => Some(32 + encoded.len()),
            // Console pushes, power and link toggles are stale by the
            // time the session is back; never replayed.
            _ => None,
        };
        if let Some(cost) = cost {
            if cap > 0 && session.replay_bytes + cost <= cap {
                session.replay_bytes += cost;
                session.replay.push_back(msg);
                queued.inc();
                return SendOutcome::Queued;
            }
        }
        SendOutcome::Graced
    }

    /// Deliver a re-adopted session's held frames in order. A send
    /// failure sheds the rest — the session just flapped again.
    fn flush_replay(&mut self, sid: SessionId, queued: Vec<Msg>, now: Instant) {
        // Pre-cloned handles: `session` mutably borrows `self.sessions`
        // for the whole loop.
        let flushed = self.m_replay_flushed.clone();
        let shed = self.m_unrouted_graced.clone();
        let Some(session) = self.sessions.get_mut(&sid) else {
            shed.add(queued.len() as u64);
            return;
        };
        let mut remaining = queued.into_iter();
        while let Some(msg) = remaining.next() {
            match session.transport.send(&msg, now) {
                Ok(()) => flushed.inc(),
                Err(_) => {
                    shed.add(1 + remaining.len() as u64);
                    break;
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Reservation / deployment lifecycle
    // -----------------------------------------------------------------

    /// Book the routers of a saved design.
    pub fn reserve_design(
        &mut self,
        user: &str,
        design_name: &str,
        start: Instant,
        end: Instant,
    ) -> Result<ReservationId, ServerError> {
        let design = self
            .designs
            .load(design_name)
            .ok_or_else(|| ServerError::UnknownDesign(design_name.to_string()))?;
        let routers: Vec<RouterId> = design.devices().collect();
        let id = self.calendar.reserve(user, &routers, start, end)?;
        self.wal_append(&Op::Reserve {
            id,
            user: user.to_string(),
            routers,
            start,
            end,
        });
        Ok(id)
    }

    /// Cancel a reservation (journaled; prefer this over mutating the
    /// calendar directly when durability is on).
    pub fn cancel_reservation(&mut self, id: ReservationId) -> bool {
        let cancelled = self.calendar.cancel(id);
        if cancelled {
            self.wal_append(&Op::Cancel { id });
        }
        cancelled
    }

    /// Run the pre-deploy static analyzer over a design against this
    /// server's inventory, recording analyzer metrics.
    pub fn analyze_design(&self, design: &Design) -> rnl_analysis::Report {
        let report = lint::analyze_design(design, Some(&self.inventory));
        self.obs.counter("rnl_server_lint_runs_total", &[]).inc();
        for severity in [
            rnl_analysis::Severity::Error,
            rnl_analysis::Severity::Warning,
            rnl_analysis::Severity::Info,
        ] {
            let n = report.count(severity) as u64;
            if n > 0 {
                self.obs
                    .counter(
                        "rnl_server_lint_findings_total",
                        &[("severity", severity.label())],
                    )
                    .add(n);
            }
        }
        report
    }

    /// Analyze a saved design by name.
    pub fn analyze_saved_design(
        &self,
        design_name: &str,
    ) -> Result<rnl_analysis::Report, ServerError> {
        let design = self
            .designs
            .load(design_name)
            .ok_or_else(|| ServerError::UnknownDesign(design_name.to_string()))?;
        Ok(self.analyze_design(design))
    }

    /// Run the symbolic data-plane verifier over a design against this
    /// server's inventory, recording verifier metrics.
    pub fn verify_design(&self, design: &Design) -> rnl_analysis::VerifyOutcome {
        let outcome = lint::verify_design(design, Some(&self.inventory));
        self.obs.counter("rnl_server_verify_runs_total", &[]).inc();
        for severity in [
            rnl_analysis::Severity::Error,
            rnl_analysis::Severity::Warning,
            rnl_analysis::Severity::Info,
        ] {
            let n = outcome.report.count(severity) as u64;
            if n > 0 {
                self.obs
                    .counter(
                        "rnl_server_verify_findings_total",
                        &[("severity", severity.label())],
                    )
                    .add(n);
            }
        }
        outcome
    }

    /// Verify a saved design by name.
    pub fn verify_saved_design(
        &self,
        design_name: &str,
    ) -> Result<rnl_analysis::VerifyOutcome, ServerError> {
        let design = self
            .designs
            .load(design_name)
            .ok_or_else(|| ServerError::UnknownDesign(design_name.to_string()))?;
        Ok(self.verify_design(design))
    }

    /// Deploy a saved design: validate, check the reservation, install
    /// the routing matrix, and auto-restore saved configurations.
    /// Rejected if static analysis reports Error-severity findings; use
    /// [`RouteServer::deploy_forced`] to override.
    pub fn deploy(
        &mut self,
        user: &str,
        design_name: &str,
        now: Instant,
    ) -> Result<DeploymentId, ServerError> {
        self.deploy_with_force(user, design_name, now, false)
    }

    /// [`RouteServer::deploy`] with the analysis gate overridden.
    pub fn deploy_forced(
        &mut self,
        user: &str,
        design_name: &str,
        now: Instant,
    ) -> Result<DeploymentId, ServerError> {
        self.deploy_with_force(user, design_name, now, true)
    }

    fn deploy_with_force(
        &mut self,
        user: &str,
        design_name: &str,
        now: Instant,
        force: bool,
    ) -> Result<DeploymentId, ServerError> {
        let design = self
            .designs
            .load(design_name)
            .ok_or_else(|| ServerError::UnknownDesign(design_name.to_string()))?
            .clone();
        self.deploy_design_with_force(user, &design, now, force)
    }

    /// Deploy an unsaved design directly (same analysis gate as
    /// [`RouteServer::deploy`]).
    pub fn deploy_design(
        &mut self,
        user: &str,
        design: &Design,
        now: Instant,
    ) -> Result<DeploymentId, ServerError> {
        self.deploy_design_with_force(user, design, now, false)
    }

    /// [`RouteServer::deploy_design`] with the analysis gate overridden.
    pub fn deploy_design_forced(
        &mut self,
        user: &str,
        design: &Design,
        now: Instant,
    ) -> Result<DeploymentId, ServerError> {
        self.deploy_design_with_force(user, design, now, true)
    }

    fn deploy_design_with_force(
        &mut self,
        user: &str,
        design: &Design,
        now: Instant,
        force: bool,
    ) -> Result<DeploymentId, ServerError> {
        design.validate()?;
        // Pre-deploy static analysis: Error findings block unless
        // forced ("shift the cost of a bad configuration from lab time
        // to design time").
        let report = self.analyze_design(design);
        if report.has_errors() && !force {
            self.obs
                .counter("rnl_server_lint_deploys_rejected_total", &[])
                .inc();
            return Err(ServerError::Lint(report.render()));
        }
        let routers: Vec<RouterId> = design.devices().collect();
        for &router in &routers {
            if self.inventory.get(router).is_none() {
                return Err(ServerError::UnknownRouter(router));
            }
        }
        if self.enforce_reservations && !self.calendar.covers(user, &routers, now) {
            return Err(ServerError::Reservation(format!(
                "user {user:?} holds no reservation covering all routers now"
            )));
        }
        let id = self.matrix.deploy(&routers, design.links())?;
        // Fig. 7 promoted into the general relay: wires whose endpoints
        // both front the same RIS session are bridged on the L1 panel,
        // so their frames skip even the dense matrix probe. Recovery
        // rebuilds deployments via `matrix.restore` without bridges —
        // the bridge is an accelerator, never routing truth.
        self.bridge_colocated(id, design.links());
        // Cross-session wires get a direct-path offer when the mesh is
        // on; frames skip the relay entirely once both ends dial.
        self.offer_deployment_mesh(id);
        self.deployments.insert(
            id,
            DeploymentRecord {
                id,
                user: user.to_string(),
                design_name: design.name.clone(),
                routers: routers.clone(),
            },
        );
        self.wal_append(&Op::Deploy {
            id,
            user: user.to_string(),
            design_name: design.name.clone(),
            routers: routers.clone(),
            links: design.links().to_vec(),
        });
        // Auto-restore saved configurations ("If a router configuration
        // is saved, when the users deploy the design, the configuration
        // file is loaded automatically").
        for &router in &routers {
            if let Some(config) = design.saved_config(router) {
                let config = config.to_string();
                self.restore_config(router, &config, now);
            }
        }
        Ok(id)
    }

    /// Bridge every co-located wire of a fresh deployment on the L1
    /// panel. Endpoint indices intern once per (router, port) ever seen
    /// — router ids are never reused, so stale entries cannot alias.
    fn bridge_colocated(&mut self, id: DeploymentId, links: &[design::Link]) {
        let mut bridged: Vec<usize> = Vec::new();
        for &((ar, ap), (br, bp)) in links {
            match (self.inventory.session_of(ar), self.inventory.session_of(br)) {
                (Some(sa), Some(sb)) if sa == sb => {}
                _ => continue,
            }
            let ia = self.l1_index.intern(ar.0, ap.0);
            let ib = self.l1_index.intern(br.0, bp.0);
            self.l1.ensure_ports(self.l1_index.len());
            if self.l1.bridge(ia, ib).is_ok() {
                // Unpatching either end clears both; hold one.
                bridged.push(ia);
            }
        }
        if !bridged.is_empty() {
            self.l1_bridges.insert(id, bridged);
        }
    }

    /// Tear a deployment down, freeing its routers.
    pub fn teardown(&mut self, id: DeploymentId) -> bool {
        if let Some(bridged) = self.l1_bridges.remove(&id) {
            for idx in bridged {
                let _ = self.l1.unpatch(idx);
            }
        }
        let revoked = self.mesh.remove_dep(id);
        if !revoked.is_empty() {
            self.revoke_mesh_wires(revoked);
        }
        // The relay's cached metric handles go with the wires they
        // count: a later deployment may wire the same port to another
        // far end, and must register under its own `wire` label.
        self.deployment_frames.remove(&id);
        for &(a, b) in self.matrix.links_of(id).unwrap_or(&[]) {
            self.wire_metrics.remove(&a);
            self.wire_metrics.remove(&b);
        }
        let had_record = self.deployments.remove(&id).is_some();
        let torn = self.matrix.teardown(id);
        if had_record || torn {
            self.wal_append(&Op::Teardown { id });
        }
        torn
    }

    /// The matrix (read access for assertions).
    pub fn matrix(&self) -> &RoutingMatrix {
        &self.matrix
    }

    // -----------------------------------------------------------------
    // Mesh negotiation: the direct site-to-site data plane
    // -----------------------------------------------------------------

    /// Turn the mesh on or off. Enabling sweeps every live deployment
    /// and offers a direct path for each cross-session wire; disabling
    /// revokes every offered wire, putting all frames back through the
    /// relay.
    pub fn set_mesh_enabled(&mut self, on: bool) {
        if on == self.mesh.enabled() {
            return;
        }
        self.mesh.set_enabled(on);
        if on {
            let mut ids: Vec<DeploymentId> = self.deployments.keys().copied().collect();
            ids.sort_by_key(|d| d.0);
            for id in ids {
                self.offer_deployment_mesh(id);
            }
        } else {
            let wires = self.mesh.drain_all();
            self.revoke_mesh_wires(wires);
        }
    }

    /// Whether mesh negotiation is on.
    pub fn mesh_enabled(&self) -> bool {
        self.mesh.enabled()
    }

    /// How many wires currently have a direct-path offer outstanding.
    pub fn mesh_wire_count(&self) -> usize {
        self.mesh.len()
    }

    /// Frames that crossed the relay for meshed wires (the fallback
    /// volume — near zero while direct paths are healthy).
    pub fn mesh_relay_fallback_frames(&self) -> u64 {
        self.m_mesh_relay_fallback.get()
    }

    /// Offer a direct path for every cross-session wire of `id`.
    /// Co-located wires stay on the L1 bridge; wires with a graced or
    /// anonymous endpoint stay on the relay until re-adoption re-offers
    /// them.
    fn offer_deployment_mesh(&mut self, id: DeploymentId) {
        if !self.mesh.enabled() {
            return;
        }
        let Some(links) = self.matrix.links_of(id) else {
            return;
        };
        let links: Vec<design::Link> = links.to_vec();
        for ((ar, ap), (br, bp)) in links {
            let a = (ar, ap);
            let b = (br, bp);
            if self.mesh.wire_for_port(a).is_some() {
                continue;
            }
            let (sa, sb) = match (self.inventory.session_of(ar), self.inventory.session_of(br)) {
                (Some(sa), Some(sb)) => (sa, sb),
                _ => continue,
            };
            if sa == sb {
                continue;
            }
            let pc_a = self.sessions.get(&sa).and_then(|s| s.pc_name.clone());
            let pc_b = self.sessions.get(&sb).and_then(|s| s.pc_name.clone());
            let (Some(pc_a), Some(pc_b)) = (pc_a, pc_b) else {
                continue;
            };
            let (wire, secret) = self.mesh.allocate(id, a, b);
            self.queue_mesh_offer(wire, secret, a, b, pc_b);
            self.queue_mesh_offer(wire, secret, b, a, pc_a);
        }
        self.m_mesh_wires.set(self.mesh.len() as f64);
    }

    /// Queue one endpoint's offer on the mesh outbox (sent next poll).
    fn queue_mesh_offer(
        &mut self,
        wire: u64,
        secret: u64,
        local: (RouterId, PortId),
        peer: (RouterId, PortId),
        peer_pc: String,
    ) {
        self.mesh_outbox.push((
            local.0,
            Msg::MeshOffer(MeshOffer {
                wire,
                secret,
                local_router: local.0,
                local_port: local.1,
                peer_router: peer.0,
                peer_port: peer.1,
                peer_pc,
            }),
        ));
        self.m_mesh_offers.inc();
    }

    /// Queue revocations for wires already removed from the control.
    fn revoke_mesh_wires(&mut self, wires: Vec<mesh::MeshWire>) {
        for w in wires {
            self.mesh_outbox
                .push((w.a.0, Msg::MeshRevoke { wire: w.id }));
            self.mesh_outbox
                .push((w.b.0, Msg::MeshRevoke { wire: w.id }));
            self.m_mesh_revokes.add(2);
        }
        self.m_mesh_wires.set(self.mesh.len() as f64);
    }

    /// A session re-adopted: every mesh secret it held is scoped to the
    /// dead epoch. Rotate and re-offer (to both ends — the peer must
    /// learn the new secret too) every wire touching its routers.
    fn reoffer_mesh_for_routers(&mut self, routers: &[RouterId]) {
        if !self.mesh.enabled() || self.mesh.is_empty() {
            return;
        }
        for id in self.mesh.wires_touching(routers) {
            let Some(secret) = self.mesh.rotate(id) else {
                continue;
            };
            let Some(w) = self.mesh.wire(id) else {
                continue;
            };
            let (a, b) = (w.a, w.b);
            let pc_a = self
                .inventory
                .session_of(a.0)
                .and_then(|sid| self.sessions.get(&sid))
                .and_then(|s| s.pc_name.clone());
            let pc_b = self
                .inventory
                .session_of(b.0)
                .and_then(|sid| self.sessions.get(&sid))
                .and_then(|s| s.pc_name.clone());
            let (Some(pc_a), Some(pc_b)) = (pc_a, pc_b) else {
                continue;
            };
            self.queue_mesh_offer(id, secret, a, b, pc_b);
            self.queue_mesh_offer(id, secret, b, a, pc_a);
        }
    }

    // -----------------------------------------------------------------
    // Console, power, firmware
    // -----------------------------------------------------------------

    /// Send one console line to a router (the VT100 pane of §2.1).
    pub fn console(
        &mut self,
        router: RouterId,
        line: &str,
        now: Instant,
    ) -> Result<(), ServerError> {
        if self.inventory.get(router).is_none() {
            return Err(ServerError::UnknownRouter(router));
        }
        self.send_to_router(
            router,
            Msg::Console {
                router,
                line: line.to_string(),
            },
            now,
        );
        Ok(())
    }

    /// Drain collected console output for a router.
    pub fn console_replies(&mut self, router: RouterId) -> Vec<String> {
        self.console_mail.remove(&router).unwrap_or_default()
    }

    /// [`RouteServer::console`] with a deadline budget attached to the
    /// round-trip: if no reply arrives before `deadline`, the next
    /// [`RouteServer::console_replies_deadlined`] poll reports
    /// [`ServerError::DeadlineExceeded`] instead of hanging forever.
    pub fn console_with_deadline(
        &mut self,
        router: RouterId,
        line: &str,
        now: Instant,
        deadline: Deadline,
    ) -> Result<(), ServerError> {
        if deadline.expired(now) {
            self.m_deadline_expired.inc();
            return Err(ServerError::DeadlineExceeded);
        }
        self.console(router, line, now)?;
        self.console_pending.insert(router, (now, deadline));
        Ok(())
    }

    /// Drain console output, honoring any outstanding round-trip
    /// deadline: an empty mailbox past the deadline is a structured
    /// failure, not an indefinite wait.
    pub fn console_replies_deadlined(
        &mut self,
        router: RouterId,
        now: Instant,
    ) -> Result<Vec<String>, ServerError> {
        let replies = self.console_replies(router);
        if !replies.is_empty() {
            self.console_pending.remove(&router);
            return Ok(replies);
        }
        match self.console_pending.get(&router) {
            Some((_, deadline)) if deadline.expired(now) => {
                self.console_pending.remove(&router);
                self.m_deadline_expired.inc();
                Err(ServerError::DeadlineExceeded)
            }
            _ => Ok(Vec::new()),
        }
    }

    /// Replay a configuration dump onto a router's console.
    pub fn restore_config(&mut self, router: RouterId, config: &str, now: Instant) {
        self.send_to_router(
            router,
            Msg::Console {
                router,
                line: "enable".to_string(),
            },
            now,
        );
        self.send_to_router(
            router,
            Msg::Console {
                router,
                line: "configure terminal".to_string(),
            },
            now,
        );
        for line in config.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('!') {
                continue;
            }
            self.send_to_router(
                router,
                Msg::Console {
                    router,
                    line: line.to_string(),
                },
                now,
            );
        }
        self.send_to_router(
            router,
            Msg::Console {
                router,
                line: "end".to_string(),
            },
            now,
        );
    }

    /// Ask a router for its running configuration (the §2.1 auto-dump;
    /// the reply lands in [`RouteServer::console_replies`]).
    pub fn request_config_dump(&mut self, router: RouterId, now: Instant) {
        self.send_to_router(
            router,
            Msg::Console {
                router,
                line: "enable".to_string(),
            },
            now,
        );
        self.send_to_router(
            router,
            Msg::Console {
                router,
                line: "show running-config".to_string(),
            },
            now,
        );
    }

    /// Power a router on/off. Carrier follows power: every port of the
    /// router that is wired in the matrix has its far end's link state
    /// updated too, exactly as the far NIC would see the light go out
    /// when a physical box loses power.
    pub fn set_power(&mut self, router: RouterId, on: bool, now: Instant) {
        self.send_to_router(router, Msg::SetPower { router, on }, now);
        let peers: Vec<(RouterId, PortId)> = self
            .inventory
            .get(router)
            .map(|rec| {
                (0..rec.info.ports.len() as u16)
                    .filter_map(|p| self.matrix.lookup((router, PortId(p))))
                    .collect()
            })
            .unwrap_or_default();
        for (peer_router, peer_port) in peers {
            self.set_link(peer_router, peer_port, on, now);
        }
    }

    /// Connect/disconnect a port's virtual cable.
    pub fn set_link(&mut self, router: RouterId, port: PortId, up: bool, now: Instant) {
        self.send_to_router(router, Msg::SetLink { router, port, up }, now);
    }

    /// Flash a firmware image.
    pub fn flash(&mut self, router: RouterId, version: &str, now: Instant) {
        self.send_to_router(
            router,
            Msg::Flash {
                router,
                version: version.to_string(),
            },
            now,
        );
    }

    /// Drain flash results for a router.
    pub fn flash_results(&mut self, router: RouterId) -> Vec<(bool, String)> {
        self.flash_mail.remove(&router).unwrap_or_default()
    }

    /// [`RouteServer::flash`] with a deadline budget on the round-trip
    /// (flash gets the longer [`overload::FLASH_DEADLINE_MULTIPLIER`]
    /// budget — see [`OverloadConfig::deadline_budget`]).
    pub fn flash_with_deadline(
        &mut self,
        router: RouterId,
        version: &str,
        now: Instant,
        deadline: Deadline,
    ) -> Result<(), ServerError> {
        if deadline.expired(now) {
            self.m_deadline_expired.inc();
            return Err(ServerError::DeadlineExceeded);
        }
        self.flash(router, version, now);
        self.flash_pending.insert(router, (now, deadline));
        Ok(())
    }

    /// Drain flash results, honoring any outstanding round-trip
    /// deadline.
    pub fn flash_results_deadlined(
        &mut self,
        router: RouterId,
        now: Instant,
    ) -> Result<Vec<(bool, String)>, ServerError> {
        let results = self.flash_results(router);
        if !results.is_empty() {
            self.flash_pending.remove(&router);
            return Ok(results);
        }
        match self.flash_pending.get(&router) {
            Some((_, deadline)) if deadline.expired(now) => {
                self.flash_pending.remove(&router);
                self.m_deadline_expired.inc();
                Err(ServerError::DeadlineExceeded)
            }
            _ => Ok(Vec::new()),
        }
    }

    // -----------------------------------------------------------------
    // Traffic generation
    // -----------------------------------------------------------------

    /// Start a generated stream into a router port; frames flow on
    /// subsequent polls.
    pub fn start_stream(
        &mut self,
        config: StreamConfig,
        now: Instant,
    ) -> Result<StreamId, ServerError> {
        if self.inventory.get(config.router).is_none() {
            return Err(ServerError::UnknownRouter(config.router));
        }
        Ok(self.generator.start(config, now))
    }

    /// Stop a stream.
    pub fn stop_stream(&mut self, id: StreamId) -> bool {
        self.generator.stop(id)
    }

    /// Packets sent so far on a live stream.
    pub fn stream_sent(&self, id: StreamId) -> Option<u64> {
        self.generator.sent(id)
    }

    /// Inject a generated frame into one router port ("it can generate
    /// traffic in only one direction, i.e., even though two ports are
    /// connected in the test lab, only one port sees the generated
    /// traffic").
    pub fn inject(
        &mut self,
        router: RouterId,
        port: PortId,
        frame: Vec<u8>,
        now: Instant,
    ) -> Result<(), ServerError> {
        if self.inventory.get(router).is_none() {
            return Err(ServerError::UnknownRouter(router));
        }
        self.captures
            .tap(router, port, CaptureDir::ToPort, &frame, now);
        self.m_frames_injected.inc();
        self.send_to_router(
            router,
            Msg::Data {
                router,
                port,
                span: Span::NONE,
                frame,
            },
            now,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnl_device::host::Host;
    use rnl_net::time::Duration;
    use rnl_ris::Ris;
    use rnl_tunnel::transport::mem_pair_perfect;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    fn host(name: &str, num: u32, ip: &str, gw: Option<&str>) -> Box<Host> {
        let mut h = Host::new(name, num);
        h.set_ip(ip.parse().unwrap());
        if let Some(gw) = gw {
            h.set_gateway(gw.parse().unwrap());
        }
        Box::new(h)
    }

    /// Server + one RIS fronting two hosts on the same subnet,
    /// registered and deployed port-to-port without reservations.
    fn two_host_lab() -> (RouteServer, Ris, RouterId, RouterId) {
        let mut server = RouteServer::new();
        server.set_enforce_reservations(false);
        let (ris_side, server_side) = mem_pair_perfect(11);
        server.attach(Box::new(server_side));
        let mut ris = Ris::new("pc1", Box::new(ris_side));
        ris.add_device(host("s1", 21, "10.0.0.1/24", None), "server s1");
        ris.add_device(host("s2", 22, "10.0.0.2/24", None), "server s2");
        ris.join_labs(t(0)).unwrap();
        server.poll(t(0));
        ris.poll(t(0)).unwrap();
        let r1 = ris.router_id(0).unwrap();
        let r2 = ris.router_id(1).unwrap();

        let mut design = Design::new("pair");
        design.add_device(r1);
        design.add_device(r2);
        design.connect((r1, PortId(0)), (r2, PortId(0))).unwrap();
        server.deploy_design("alice", &design, t(0)).unwrap();
        (server, ris, r1, r2)
    }

    /// Run server+RIS poll cycles over a time range.
    fn run(server: &mut RouteServer, ris: &mut Ris, from_ms: u64, to_ms: u64, step_ms: u64) {
        let mut ms = from_ms;
        while ms <= to_ms {
            ris.poll(t(ms)).unwrap();
            server.poll(t(ms));
            // Second RIS poll so server replies land promptly.
            ris.poll(t(ms)).unwrap();
            ms += step_ms;
        }
    }

    #[test]
    fn registration_populates_inventory() {
        let (server, _ris, r1, r2) = two_host_lab();
        assert_eq!(server.inventory().len(), 2);
        assert_eq!(server.inventory().get(r1).unwrap().pc_name, "pc1");
        assert_eq!(
            server.inventory().get(r2).unwrap().info.description,
            "server s2"
        );
    }

    #[test]
    fn ping_flows_through_the_routing_matrix() {
        let (mut server, mut ris, _r1, _r2) = two_host_lab();
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 3", t(0));
        run(&mut server, &mut ris, 0, 5000, 100);
        let out = ris.device_mut(0).unwrap().console("show ping", t(5000));
        assert!(out.contains("3 sent, 3 received"), "got: {out}");
        assert!(server.stats().frames_routed >= 6, "{:?}", server.stats());
    }

    #[test]
    fn teardown_cuts_the_wire() {
        let (mut server, mut ris, _r1, _r2) = two_host_lab();
        let id = server.deployments().next().unwrap().id;
        assert!(server.teardown(id));
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 2", t(0));
        run(&mut server, &mut ris, 0, 3000, 100);
        let out = ris.device_mut(0).unwrap().console("show ping", t(3000));
        assert!(out.contains("0 received"), "got: {out}");
        assert!(server.stats().frames_unrouted > 0);
    }

    /// Regression: every unrouted frame is counted exactly once, in one
    /// place, with a `reason` label — previously three call sites bumped
    /// a bare counter and the causes were indistinguishable.
    #[test]
    fn unrouted_frames_carry_a_reason_label() {
        let (mut server, mut ris, _r1, _r2) = two_host_lab();
        let id = server.deployments().next().unwrap().id;
        server.teardown(id);
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 2", t(0));
        run(&mut server, &mut ris, 0, 3000, 100);
        let snap = server.obs().snapshot();
        let no_matrix = snap.counter(
            "rnl_server_frames_unrouted_total",
            &[("reason", "no-matrix-entry")],
        );
        assert!(
            no_matrix > 0,
            "torn-down wire drops count as no-matrix-entry"
        );
        // The aggregate view equals the per-reason sum: nothing is
        // double-counted and nothing bypasses the labelled counter.
        assert_eq!(server.stats().frames_unrouted, no_matrix);
        assert_eq!(
            snap.counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "no-session")]
            ),
            0
        );
    }

    /// Regression: a desynchronized compressed stream is counted as
    /// `reason="decode-error"`, not lumped in with matrix misses.
    #[test]
    fn decode_errors_are_their_own_unrouted_reason() {
        let (mut server, _ris, r1, _r2) = two_host_lab();
        let sid = server.sessions.keys().copied().next().unwrap();
        let mut body = Msg::DataCompressed {
            router: r1,
            port: PortId(0),
            span: Span::NONE,
            encoded: vec![9, 1, 2],
        }
        .encode();
        assert!(server.relay_body(&mut body, t(10)));
        assert!(server.sessions[&sid].alive, "the session survives");
        let snap = server.obs().snapshot();
        assert_eq!(
            snap.counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "decode-error")]
            ),
            1
        );
        assert_eq!(server.stats().frames_unrouted, 1);
    }

    /// Regression: the relay's cached metric handles outlived their
    /// deployment. `wire_metrics` is keyed by the source port and was
    /// never invalidated, so a port re-wired to another far end kept
    /// counting under the first wire's label; `deployment_frames`
    /// leaked one counter handle per deploy/teardown cycle.
    #[test]
    fn relay_caches_die_with_their_deployment() {
        let mut server = RouteServer::new();
        server.set_enforce_reservations(false);
        let (ris_side, server_side) = mem_pair_perfect(13);
        server.attach(Box::new(server_side));
        let mut ris = Ris::new("pc1", Box::new(ris_side));
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            ris.add_device(host(name, 31 + i as u32, "10.0.0.1/24", None), name);
        }
        ris.join_labs(t(0)).unwrap();
        server.poll(t(0));
        ris.poll(t(0)).unwrap();
        let [a, b, c] = [0, 1, 2].map(|i| ris.router_id(i).unwrap());

        // Deploy a:0–`far`:0, relay one frame from a:0, tear down.
        fn cycle(server: &mut RouteServer, a: RouterId, far: RouterId) {
            let mut design = Design::new("cycle");
            design.add_device(a);
            design.add_device(far);
            design.connect((a, PortId(0)), (far, PortId(0))).unwrap();
            let id = server.deploy_design("alice", &design, t(1)).unwrap();
            let mut body = Msg::Data {
                router: a,
                port: PortId(0),
                span: Span::NONE,
                frame: vec![0x5a; 64],
            }
            .encode();
            assert!(server.relay_body(&mut body, t(1)));
            assert_eq!(server.deployment_frames.len(), 1);
            assert_eq!(server.wire_metrics.len(), 1);
            assert!(server.teardown(id));
        }
        let wire_frames = |server: &RouteServer, far: RouterId| {
            let wire = format!("r{}p0-r{}p0", a.0, far.0);
            server
                .obs()
                .snapshot()
                .counter("rnl_server_wire_frames_total", &[("wire", &wire)])
        };

        cycle(&mut server, a, b);
        cycle(&mut server, a, c);
        assert_eq!(wire_frames(&server, b), 1);
        assert_eq!(wire_frames(&server, c), 1, "counted under the new wire");

        for _ in 0..1_000 {
            cycle(&mut server, a, b);
        }
        assert!(server.deployment_frames.is_empty());
        assert!(server.wire_metrics.is_empty());
        assert_eq!(wire_frames(&server, b), 1_001);
        assert_eq!(server.stats().frames_routed, 1_002);
    }

    #[test]
    fn reservations_gate_deploys() {
        let mut server = RouteServer::new();
        let (ris_side, server_side) = mem_pair_perfect(12);
        server.attach(Box::new(server_side));
        let mut ris = Ris::new("pc1", Box::new(ris_side));
        ris.add_device(host("s1", 21, "10.0.0.1/24", None), "s1");
        ris.join_labs(t(0)).unwrap();
        server.poll(t(0));
        ris.poll(t(0)).unwrap();
        let r1 = ris.router_id(0).unwrap();

        let mut design = Design::new("solo");
        design.add_device(r1);
        server.designs_mut().save(design.clone());

        // No reservation: refused.
        assert!(matches!(
            server.deploy("alice", "solo", t(1000)),
            Err(ServerError::Reservation(_))
        ));
        // Reserve, deploy inside the window.
        server
            .reserve_design("alice", "solo", t(0), t(10_000))
            .unwrap();
        let id = server.deploy("alice", "solo", t(1000)).unwrap();
        // Another user cannot deploy the same router even with the
        // matrix free — mutual exclusion via the matrix.
        server.teardown(id);
        assert!(matches!(
            server.deploy("bob", "solo", t(2000)),
            Err(ServerError::Reservation(_))
        ));
    }

    #[test]
    fn capture_sees_both_directions() {
        let (mut server, mut ris, r1, r2) = two_host_lab();
        server.captures_mut().start(r2, PortId(0));
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 1", t(0));
        run(&mut server, &mut ris, 0, 2000, 100);
        let captured = server.captures().captured(r2, PortId(0));
        assert!(!captured.is_empty());
        let to_port = captured
            .iter()
            .filter(|f| f.dir == CaptureDir::ToPort)
            .count();
        let from_port = captured
            .iter()
            .filter(|f| f.dir == CaptureDir::FromPort)
            .count();
        assert!(to_port >= 1, "request/ARP toward the port");
        assert!(from_port >= 1, "reply/ARP from the port");
        let _ = r1;
    }

    #[test]
    fn console_roundtrip_through_server() {
        let (mut server, mut ris, r1, _) = two_host_lab();
        server.console(r1, "show ip", t(0)).unwrap();
        run(&mut server, &mut ris, 0, 200, 100);
        let replies = server.console_replies(r1);
        assert!(
            replies.iter().any(|r| r.contains("10.0.0.1/24")),
            "{replies:?}"
        );
    }

    #[test]
    fn injection_reaches_only_the_target_port() {
        let (mut server, mut ris, _r1, r2) = two_host_lab();
        // Build a UDP probe addressed to s2.
        let s2_mac = rnl_net::addr::MacAddr::derived(22, 0);
        let frame = rnl_net::build::udp_frame(
            rnl_net::addr::MacAddr([2, 0xee, 0, 0, 0, 1]),
            s2_mac,
            "10.0.0.250".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            5555,
            6666,
            b"generated",
            64,
        );
        server.inject(r2, PortId(0), frame, t(0)).unwrap();
        run(&mut server, &mut ris, 0, 200, 100);
        let received = ris.device_mut(1).unwrap().console("show received", t(200));
        assert!(
            received.contains(":6666"),
            "s2 should see the probe: {received}"
        );
        let s1_received = ris.device_mut(0).unwrap().console("show received", t(200));
        assert!(
            !s1_received.contains("6666"),
            "only one port sees generated traffic"
        );
    }

    #[test]
    fn unknown_router_operations_fail() {
        let mut server = RouteServer::new();
        assert!(matches!(
            server.console(RouterId(99), "enable", t(0)),
            Err(ServerError::UnknownRouter(_))
        ));
        assert!(matches!(
            server.inject(RouterId(99), PortId(0), vec![0; 60], t(0)),
            Err(ServerError::UnknownRouter(_))
        ));
    }

    #[test]
    fn deploying_busy_routers_fails() {
        let (mut server, _ris, r1, r2) = two_host_lab();
        let mut design2 = Design::new("second");
        design2.add_device(r1);
        design2.add_device(r2);
        assert!(matches!(
            server.deploy_design("bob", &design2, t(0)),
            Err(ServerError::Matrix(MatrixError::RouterBusy { .. }))
        ));
    }

    fn graced_gauge(server: &RouteServer) -> f64 {
        let snap = server.obs().snapshot();
        match snap.get("rnl_server_sessions_graced", &[]) {
            Some(rnl_obs::MetricValue::Gauge(g)) => *g,
            other => panic!("missing sessions_graced gauge: {other:?}"),
        }
    }

    #[test]
    fn disconnect_graces_rather_than_reaps() {
        let (mut server, mut ris, _r1, _r2) = two_host_lab();
        let dep = server.deployments().next().unwrap().id;
        ris.sever();
        server.poll(t(1000));
        // Inventory, matrix and deployment survive the disconnect.
        assert_eq!(server.inventory().len(), 2);
        assert!(server.deployments().any(|d| d.id == dep));
        assert_eq!(graced_gauge(&server), 1.0);
        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("rnl_server_session_disconnects_total", &[]), 1);
        assert_eq!(snap.counter("rnl_server_session_reaped_total", &[]), 0);
    }

    #[test]
    fn rejoin_within_grace_readopts_router_ids_and_deployment() {
        let (mut server, mut ris, r1, r2) = two_host_lab();
        let dep = server.deployments().next().unwrap().id;
        ris.sever();
        server.poll(t(1000));
        // Rejoin well inside the default 10 s grace window.
        let (ris_side, server_side) = mem_pair_perfect(13);
        server.attach(Box::new(server_side));
        ris.reconnect(Box::new(ris_side), t(2000)).unwrap();
        server.poll(t(2000));
        ris.poll(t(2000)).unwrap();
        // Same global ids: the matrix and deployment never noticed.
        assert_eq!(ris.router_id(0), Some(r1));
        assert_eq!(ris.router_id(1), Some(r2));
        assert_eq!(server.inventory().len(), 2);
        assert!(server.deployments().any(|d| d.id == dep));
        assert_eq!(graced_gauge(&server), 0.0);
        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("rnl_server_session_readopted_total", &[]), 1);
        assert_eq!(snap.counter("rnl_server_session_reaped_total", &[]), 0);
        // Traffic flows again over the re-adopted session.
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 3", t(2000));
        run(&mut server, &mut ris, 2000, 7000, 100);
        let out = ris.device_mut(0).unwrap().console("show ping", t(7000));
        assert!(out.contains("3 sent, 3 received"), "got: {out}");
    }

    #[test]
    fn grace_expiry_reaps_session_and_deployment() {
        let (mut server, mut ris, _r1, _r2) = two_host_lab();
        ris.sever();
        server.poll(t(1000));
        assert_eq!(graced_gauge(&server), 1.0);
        // Past the 10 s default window the session is gone for good.
        server.poll(t(12_000));
        assert!(server.inventory().is_empty());
        assert_eq!(server.deployments().count(), 0);
        assert_eq!(graced_gauge(&server), 0.0);
        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("rnl_server_session_reaped_total", &[]), 1);
    }

    #[test]
    fn imposter_with_wrong_epoch_cannot_steal_graced_hardware() {
        let (mut server, mut ris, r1, r2) = two_host_lab();
        ris.sever();
        server.poll(t(1000));
        // A different RIS instance claims the same PC name. Its epoch
        // token cannot match, so it registers as new hardware.
        let (imp_side, server_side) = mem_pair_perfect(17);
        server.attach(Box::new(server_side));
        let mut imposter = Ris::new("pc1", Box::new(imp_side));
        imposter.add_device(host("x1", 31, "10.0.9.1/24", None), "server x1");
        imposter.join_labs(t(2000)).unwrap();
        server.poll(t(2000));
        imposter.poll(t(2000)).unwrap();
        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("rnl_server_register_imposter_total", &[]), 1);
        assert_eq!(snap.counter("rnl_server_session_readopted_total", &[]), 0);
        // Fresh id; the graced routers are untouched and still graced.
        let new_id = imposter.router_id(0).unwrap();
        assert!(new_id != r1 && new_id != r2);
        assert_eq!(server.inventory().len(), 3);
        assert_eq!(graced_gauge(&server), 1.0);
    }

    /// Server + two RIS sessions (one host each) joined by one cross
    /// wire — the flap/replay tests all start here.
    fn cross_ris_lab() -> (RouteServer, Ris, Ris, RouterId, RouterId) {
        let mut server = RouteServer::new();
        server.set_enforce_reservations(false);
        let (a_side, sa) = mem_pair_perfect(19);
        server.attach(Box::new(sa));
        let mut ris_a = Ris::new("pca", Box::new(a_side));
        ris_a.add_device(host("s1", 41, "10.0.1.1/24", None), "server s1");
        ris_a.join_labs(t(0)).unwrap();
        let (b_side, sb) = mem_pair_perfect(23);
        server.attach(Box::new(sb));
        let mut ris_b = Ris::new("pcb", Box::new(b_side));
        ris_b.add_device(host("s2", 42, "10.0.1.2/24", None), "server s2");
        ris_b.join_labs(t(0)).unwrap();
        server.poll(t(0));
        ris_a.poll(t(0)).unwrap();
        ris_b.poll(t(0)).unwrap();
        let r1 = ris_a.router_id(0).unwrap();
        let r2 = ris_b.router_id(0).unwrap();
        let mut design = Design::new("cross");
        design.add_device(r1);
        design.add_device(r2);
        design.connect((r1, PortId(0)), (r2, PortId(0))).unwrap();
        server.deploy_design("alice", &design, t(0)).unwrap();
        (server, ris_a, ris_b, r1, r2)
    }

    #[test]
    fn frames_to_graced_session_shed_as_session_graced() {
        // Two RIS sessions, one wire across them; the far side flaps.
        // Replay buffering off: this test pins the pure shed path.
        let (mut server, mut ris_a, mut ris_b, _r1, _r2) = cross_ris_lab();
        server.set_replay_cap(0);
        let dep = server.deployments().next().unwrap().id;

        ris_b.sever();
        server.poll(t(100));
        ris_a
            .device_mut(0)
            .unwrap()
            .console("ping 10.0.1.2 count 2", t(100));
        let mut ms = 100;
        while ms <= 3000 {
            ris_a.poll(t(ms)).unwrap();
            server.poll(t(ms));
            ms += 100;
        }
        let snap = server.obs().snapshot();
        let shed = snap.counter(
            "rnl_server_frames_unrouted_total",
            &[("reason", "session-graced")],
        );
        assert!(shed > 0, "frames to the graced session are shed");
        assert_eq!(
            snap.counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "no-session")],
            ),
            0,
            "a graced session is not a routing error"
        );
        // The wire itself stays deployed throughout.
        assert!(server.deployments().any(|d| d.id == dep));
    }

    /// Two-RIS cross wire like the shed test, but with the replay
    /// buffer on: frames toward the flapped side are queued, then
    /// flushed in order when it rejoins — not lost.
    #[test]
    fn frames_to_graced_session_queue_and_flush_on_rejoin() {
        let (mut server, mut ris_a, mut ris_b, _r1, _r2) = cross_ris_lab();

        ris_b.sever();
        server.poll(t(100));
        ris_a
            .device_mut(0)
            .unwrap()
            .console("ping 10.0.1.2 count 2", t(100));
        let mut ms = 100;
        while ms <= 2000 {
            ris_a.poll(t(ms)).unwrap();
            server.poll(t(ms));
            ms += 100;
        }
        let snap = server.obs().snapshot();
        let queued = snap.counter("rnl_server_replay_queued_total", &[]);
        assert!(queued > 0, "frames toward the graced session are held");
        assert_eq!(
            snap.counter(
                "rnl_server_frames_unrouted_total",
                &[("reason", "session-graced")],
            ),
            0,
            "under the cap nothing is shed"
        );

        // Rejoin inside the grace window; the queue flushes in order.
        let (b_side2, sb2) = mem_pair_perfect(29);
        server.attach(Box::new(sb2));
        ris_b.reconnect(Box::new(b_side2), t(2100)).unwrap();
        server.poll(t(2100));
        ris_b.poll(t(2100)).unwrap();
        let snap = server.obs().snapshot();
        assert_eq!(
            snap.counter("rnl_server_replay_flushed_total", &[]),
            queued,
            "every held frame was delivered at re-adoption"
        );
        // The replayed ping requests reach s2 and are answered: the
        // ping completes even though it started during the outage.
        run(&mut server, &mut ris_b, 2100, 2500, 100);
        run(&mut server, &mut ris_a, 2500, 4000, 100);
        let out = ris_a.device_mut(0).unwrap().console("show ping", t(4000));
        assert!(out.contains("received"), "got: {out}");
    }

    /// A replay cap of one small frame means the queue overflows:
    /// overflow frames are shed (counted `session-graced`) exactly as
    /// with buffering off.
    #[test]
    fn replay_buffer_overflow_sheds_beyond_the_cap() {
        let (mut server, mut ris_a, mut ris_b, _r1, _r2) = cross_ris_lab();
        server.set_replay_cap(100); // roughly one ARP-sized frame
        ris_b.sever();
        server.poll(t(100));
        ris_a
            .device_mut(0)
            .unwrap()
            .console("ping 10.0.1.2 count 3", t(100));
        let mut ms = 100;
        while ms <= 3000 {
            ris_a.poll(t(ms)).unwrap();
            server.poll(t(ms));
            ms += 100;
        }
        let snap = server.obs().snapshot();
        let queued = snap.counter("rnl_server_replay_queued_total", &[]);
        let shed = snap.counter(
            "rnl_server_frames_unrouted_total",
            &[("reason", "session-graced")],
        );
        assert!(queued >= 1, "the cap admits the first frame: {queued}");
        assert!(shed >= 1, "overflow is shed: {shed}");
        let _ = ris_b;
    }

    /// Durable-state snapshot → recover yields byte-identical state and
    /// graced placeholder sessions that re-adopt.
    #[test]
    fn crash_and_recover_preserves_state_and_readopts() {
        use journal::MemJournal;

        let (mut server, mut ris, r1, r2) = two_host_lab();
        let store = {
            let wal = MemJournal::new();
            let store = wal.store();
            server.set_durability(Box::new(wal), t(0)).unwrap();
            store
        };
        // A post-snapshot journaled mutation that must come back via
        // the journal tail.
        let mut probe = Design::new("probe");
        probe.add_device(r1);
        server.designs_mut().save(probe);
        server
            .reserve_design("alice", "probe", t(50_000), t(60_000))
            .unwrap();
        drop(server); // crash: everything volatile is gone

        let mut server =
            RouteServer::recover(Box::new(MemJournal::attached(store)), t(1000)).unwrap();
        server.set_enforce_reservations(false);
        assert_eq!(server.inventory().len(), 2);
        assert_eq!(server.deployments().count(), 1);
        assert_eq!(server.calendar().len(), 1, "tail reservation replayed");
        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("rnl_server_journal_replayed_total", &[]), 1);
        // The RIS supervisor redials; the recovered placeholder session
        // is re-adopted and traffic flows over the same global ids.
        let (ris_side, server_side) = mem_pair_perfect(31);
        server.attach(Box::new(server_side));
        ris.reconnect(Box::new(ris_side), t(1100)).unwrap();
        server.poll(t(1100));
        ris.poll(t(1100)).unwrap();
        assert_eq!(ris.router_id(0), Some(r1));
        assert_eq!(ris.router_id(1), Some(r2));
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.2 count 3", t(1200));
        run(&mut server, &mut ris, 1200, 6000, 100);
        let out = ris.device_mut(0).unwrap().console("show ping", t(6000));
        assert!(out.contains("3 sent, 3 received"), "got: {out}");
    }
}
