//! # rnl-ris — the Router Interface Software
//!
//! "There is a piece of software running on each PC sitting in front of
//! a router. … It has two jobs: capturing the physical configuration
//! information and route packets to/from the router ports and the
//! back-end server." (§2.2)
//!
//! A [`Ris`] owns the devices plugged into its (virtual) NICs, the
//! Fig.-3-style port mapping describing them, and one [`Transport`] to
//! the route server. After [`Ris::join_labs`] it enters packet-forwarding
//! mode: every frame a device emits is wrapped in a [`Msg::Data`] (or
//! [`Msg::DataCompressed`]) carrying the server-assigned router and port
//! ids; every data message arriving from the server is unwrapped and
//! delivered to the matching device port. Console, power, link and
//! firmware management ride the same connection.
//!
//! The RIS never accepts inbound connections — it dials the route server
//! and keeps that TCP session open, which is what lets equipment behind
//! corporate firewalls join the labs.

#![deny(unsafe_code)]

pub mod config;
pub mod mapping;
pub mod mesh;
pub mod supervisor;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use rnl_device::device::{Device, LinkState};
use rnl_net::time::Instant;
use rnl_obs::{
    fnv1a64, mix64, Counter, EventJournal, FrameEvent, Gauge, Histogram, Hop, MetricsRegistry,
    PerfPoint, Quantile, Span, TraceIdGen, GOLDEN_GAMMA, LATENCY_BUCKETS_US,
};
use rnl_tunnel::compress::{Compressor, Decompressor};
use rnl_tunnel::msg::{Msg, PortId, RegisterInfo, RouterId, RouterInfo, SessionEpoch};
use rnl_tunnel::transport::{ClosedTransport, Transport, TransportError};
use rnl_tunnel::wait::PollFd;

pub use mapping::auto_mapping;
pub use mesh::{MeshAgent, MeshDial};
pub use supervisor::{Dialer, Supervisor, TcpDialer};

/// Process-wide salt so two RIS instances with the same `pc_name` still
/// get distinct session tokens (deterministic in creation order).
static TOKEN_SALT: AtomicU64 = AtomicU64::new(0);

fn splitmix64(z: u64) -> u64 {
    mix64(z.wrapping_add(GOLDEN_GAMMA))
}

/// Derive this instance's session token: FNV-1a over the PC name, mixed
/// with the process-wide salt. The token identifies the *instance*
/// across reconnects; the epoch generation counts the reconnects.
fn session_token(pc_name: &str) -> u64 {
    let salt = splitmix64(TOKEN_SALT.fetch_add(1, Ordering::Relaxed));
    splitmix64(fnv1a64(pc_name.as_bytes()) ^ salt)
}

/// RIS failure.
#[derive(Debug)]
pub enum RisError {
    /// The tunnel failed.
    Transport(TransportError),
    /// A data/management message referenced a router this RIS does not
    /// front.
    UnknownRouter(RouterId),
    /// A compressed frame failed to decode (stream desynchronization).
    Compression(rnl_tunnel::compress::CompressError),
}

impl std::fmt::Display for RisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RisError::Transport(e) => write!(f, "transport: {e}"),
            RisError::UnknownRouter(id) => write!(f, "unknown router {id}"),
            RisError::Compression(e) => write!(f, "compression: {e}"),
        }
    }
}

impl std::error::Error for RisError {}

impl From<TransportError> for RisError {
    fn from(e: TransportError) -> RisError {
        RisError::Transport(e)
    }
}

/// Counters, for the experiments and `show`-style introspection. A
/// point-in-time view computed from the RIS's [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RisStats {
    /// Frames captured from device ports and sent to the server.
    pub frames_up: u64,
    /// Frames received from the server and replayed into device ports.
    pub frames_down: u64,
    /// Console lines proxied.
    pub console_lines: u64,
    /// Bytes sent up (after compression, when enabled).
    pub bytes_up: u64,
}

struct RisDevice {
    device: Box<dyn Device>,
    info: RouterInfo,
}

/// Cached per-NIC counter handles (one pair per fronted port).
#[derive(Clone)]
struct NicMetrics {
    frames_up: Counter,
    frames_down: Counter,
}

/// One interface PC fronting one or more devices.
pub struct Ris {
    pc_name: String,
    devices: Vec<RisDevice>,
    transport: Box<dyn Transport>,
    /// local id → server-assigned global id.
    assignments: HashMap<u32, RouterId>,
    /// global id → device index.
    reverse: HashMap<RouterId, usize>,
    /// Compress upstream data frames (§4).
    compression: bool,
    compressors: HashMap<(RouterId, PortId), Compressor>,
    decompressors: HashMap<(RouterId, PortId), Decompressor>,
    /// Reusable buffers for the compressed encoding of an upstream
    /// frame and the expansion of a downstream one.
    compress_scratch: Vec<u8>,
    expand_scratch: Vec<u8>,
    heartbeat_seq: u64,
    /// Identifies this instance (token) and its reconnect count
    /// (generation) to the server, so a rejoin can be told apart from an
    /// imposter claiming the same PC name.
    epoch: SessionEpoch,
    /// All RIS metrics live here; [`RisStats`] is a view of it.
    obs: MetricsRegistry,
    /// Bounded ring of traced frame events (RIS-side hops).
    journal: EventJournal,
    /// Stamps a fresh [`rnl_obs::TraceId`] on every captured frame.
    trace_gen: TraceIdGen,
    /// Per-NIC handles, keyed by (local device id, port index).
    nic_metrics: HashMap<(u32, u16), NicMetrics>,
    /// Direct peer paths for meshed wires (offers, dial queue, per-wire
    /// `Direct ↔ Relay` supervisors).
    mesh: mesh::MeshAgent,
    m_frames_up: Counter,
    m_frames_down: Counter,
    m_console_lines: Counter,
    m_bytes_up: Counter,
    m_comp_in: Counter,
    m_comp_out: Counter,
    m_comp_ratio: Gauge,
    m_wire_latency: Histogram,
    /// End-to-end wire latency as a streaming quantile (virtual µs).
    m_wire_latency_q: Quantile,
    /// Wall-clock profiling of the capture → encode → send forward path.
    p_forward: PerfPoint,
}

impl Ris {
    /// A RIS with no devices yet, holding an un-joined connection.
    pub fn new(pc_name: &str, transport: Box<dyn Transport>) -> Ris {
        let obs = MetricsRegistry::new();
        Ris {
            m_frames_up: obs.counter("rnl_ris_frames_up_total", &[]),
            m_frames_down: obs.counter("rnl_ris_frames_down_total", &[]),
            m_console_lines: obs.counter("rnl_ris_console_lines_total", &[]),
            m_bytes_up: obs.counter("rnl_ris_bytes_up_total", &[]),
            m_comp_in: obs.counter("rnl_ris_compress_bytes_in_total", &[]),
            m_comp_out: obs.counter("rnl_ris_compress_bytes_out_total", &[]),
            m_comp_ratio: obs.gauge("rnl_ris_compression_ratio", &[]),
            m_wire_latency: obs.histogram("rnl_ris_wire_latency_us", &[], &LATENCY_BUCKETS_US),
            m_wire_latency_q: obs.quantile("rnl_ris_wire_latency_us_quantile", &[]),
            p_forward: PerfPoint::new(&obs, "ris_forward", &["encode"]),
            obs,
            journal: EventJournal::new(4096),
            trace_gen: TraceIdGen::new(pc_name),
            nic_metrics: HashMap::new(),
            mesh: mesh::MeshAgent::new(),
            pc_name: pc_name.to_string(),
            devices: Vec::new(),
            transport,
            assignments: HashMap::new(),
            reverse: HashMap::new(),
            compression: false,
            compressors: HashMap::new(),
            decompressors: HashMap::new(),
            compress_scratch: Vec::new(),
            expand_scratch: Vec::new(),
            heartbeat_seq: 0,
            epoch: SessionEpoch {
                token: session_token(pc_name),
                generation: 1,
            },
        }
    }

    /// Plug a device into this PC. `description` is what the inventory
    /// shows; the port mapping (NIC names, image regions) is derived
    /// automatically — the equivalent of the lab manager filling in
    /// Fig. 3. Returns the RIS-local id.
    pub fn add_device(&mut self, device: Box<dyn Device>, description: &str) -> u32 {
        let local_id = self.devices.len() as u32;
        let info = mapping::auto_mapping(local_id, device.as_ref(), description);
        self.devices.push(RisDevice { device, info });
        local_id
    }

    /// Enable upstream template compression.
    pub fn set_compression(&mut self, on: bool) {
        self.compression = on;
    }

    /// Counters, computed from the metrics registry.
    pub fn stats(&self) -> RisStats {
        RisStats {
            frames_up: self.m_frames_up.get(),
            frames_down: self.m_frames_down.get(),
            console_lines: self.m_console_lines.get(),
            bytes_up: self.m_bytes_up.get(),
        }
    }

    /// The RIS's metrics registry (per-NIC counters, compression ratio,
    /// destination-side wire latency).
    pub fn obs(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// The frame-path event journal (RIS-side hops).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Whether registration completed.
    pub fn registered(&self) -> bool {
        !self.assignments.is_empty()
    }

    /// The server-assigned id for a local device, once registered.
    pub fn router_id(&self, local_id: u32) -> Option<RouterId> {
        self.assignments.get(&local_id).copied()
    }

    /// Direct access to a fronted device (inspection in tests; a real
    /// deployment would not have this, but a simulated lab does).
    pub fn device_mut(&mut self, local_id: u32) -> Option<&mut dyn Device> {
        match self.devices.get_mut(local_id as usize) {
            Some(d) => Some(d.device.as_mut()),
            None => None,
        }
    }

    /// Immutable access to a fronted device.
    pub fn device(&self, local_id: u32) -> Option<&dyn Device> {
        match self.devices.get(local_id as usize) {
            Some(d) => Some(d.device.as_ref()),
            None => None,
        }
    }

    /// Send the registration ("Join Labs", §2.2). The server answers
    /// with a [`Msg::RegisterAck`] processed by [`Ris::poll`].
    pub fn join_labs(&mut self, now: Instant) -> Result<(), RisError> {
        let info = RegisterInfo {
            pc_name: self.pc_name.clone(),
            epoch: self.epoch,
            routers: self.devices.iter().map(|d| d.info.clone()).collect(),
        };
        self.transport.send(&Msg::Register(info), now)?;
        Ok(())
    }

    /// One poll cycle: drain the tunnel, apply management and data
    /// messages, tick every device, forward emissions upstream.
    pub fn poll(&mut self, now: Instant) -> Result<(), RisError> {
        for msg in self.transport.poll(now)? {
            self.handle_msg(msg, now)?;
        }
        // Tick every mesh path (probes + state machine) and deliver the
        // frames that arrived site-to-site. A frame referencing a
        // router this RIS no longer fronts (a stale in-flight direct
        // frame straddling an epoch rotation) is skipped, not fatal.
        for msg in self.mesh.tick(now) {
            if let Msg::Data {
                router,
                port,
                span,
                frame,
            } = msg
            {
                match self.deliver(router, port, span, &frame, now) {
                    Ok(()) | Err(RisError::UnknownRouter(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        // Tick devices and capture their transmissions.
        for idx in 0..self.devices.len() {
            let emissions = self.devices[idx].device.tick(now);
            let local_id = self.devices[idx].info.local_id;
            for e in emissions {
                self.capture_and_send(local_id, e.port, e.frame, now)?;
            }
        }
        Ok(())
    }

    /// Append what a blocking caller should wait on between polls: the
    /// uplink's descriptor, if it has one. A disconnected RIS appends
    /// nothing and its caller's tick paces the redial.
    pub fn wait_fds(&self, fds: &mut Vec<PollFd>) {
        fds.extend(self.transport.wait_fd());
    }

    /// Replace a dead transport and re-join the labs ("RIS initiates
    /// and maintains a TCP connection to the route server"): previous id
    /// assignments are discarded — the server hands out fresh unique ids
    /// on re-registration (or re-adopts a graced session's ids when the
    /// epoch proves it is the same instance) — and per-stream
    /// compression state resets so the new session starts synchronized.
    /// The epoch generation rotates, and an immediate heartbeat rides
    /// behind the registration so the server's last-activity stamp is
    /// fresh the moment the rejoin lands, not a full heartbeat interval
    /// later.
    pub fn reconnect(
        &mut self,
        transport: Box<dyn Transport>,
        now: Instant,
    ) -> Result<(), RisError> {
        self.transport = transport;
        self.assignments.clear();
        self.reverse.clear();
        self.compressors.clear();
        self.decompressors.clear();
        // Mesh secrets are epoch-scoped: every live path scores an
        // `epoch-rotated` failover and drops. The server re-offers
        // with fresh secrets once the rejoin is adopted.
        self.mesh.clear_for_epoch();
        self.epoch.generation += 1;
        self.join_labs(now)?;
        self.heartbeat(now)
    }

    /// Drop the transport (the uplink died or is being abandoned): the
    /// RIS holds a permanently-closed placeholder until a supervisor
    /// dials a replacement.
    pub fn sever(&mut self) {
        self.transport = Box::new(ClosedTransport);
    }

    /// Whether the tunnel is still believed up.
    pub fn connected(&self) -> bool {
        self.transport.is_connected()
    }

    /// This instance's session epoch (token + reconnect generation).
    pub fn epoch(&self) -> SessionEpoch {
        self.epoch
    }

    /// Send a heartbeat (liveness for the server's inventory), stamped
    /// with the current epoch generation.
    pub fn heartbeat(&mut self, now: Instant) -> Result<(), RisError> {
        self.heartbeat_seq += 1;
        self.transport.send(
            &Msg::Heartbeat {
                seq: self.heartbeat_seq,
                epoch: self.epoch.generation,
            },
            now,
        )?;
        Ok(())
    }

    fn handle_msg(&mut self, msg: Msg, now: Instant) -> Result<(), RisError> {
        match msg {
            Msg::RegisterAck(assignments) => {
                for a in assignments {
                    self.assignments.insert(a.local_id, a.router);
                    self.reverse.insert(a.router, a.local_id as usize);
                }
            }
            Msg::Data {
                router,
                port,
                span,
                frame,
            } => {
                self.deliver(router, port, span, &frame, now)?;
            }
            Msg::DataCompressed {
                router,
                port,
                span,
                encoded,
            } => {
                // The scratch moves out of `self` while `deliver`
                // borrows it whole, and back in with its capacity.
                let mut frame = std::mem::take(&mut self.expand_scratch);
                frame.clear();
                let delivered = self
                    .decompressors
                    .entry((router, port))
                    .or_default()
                    .decode_into(&encoded, &mut frame)
                    .map_err(RisError::Compression)
                    .and_then(|()| self.deliver(router, port, span, &frame, now));
                self.expand_scratch = frame;
                delivered?;
            }
            Msg::Console { router, line } => {
                let idx = self.device_index(router)?;
                let output = self.devices[idx].device.console(&line, now);
                self.m_console_lines.inc();
                self.transport
                    .send(&Msg::ConsoleReply { router, output }, now)?;
            }
            Msg::SetPower { router, on } => {
                let idx = self.device_index(router)?;
                self.devices[idx].device.set_power(on, now);
            }
            Msg::SetLink { router, port, up } => {
                let idx = self.device_index(router)?;
                let state = if up { LinkState::Up } else { LinkState::Down };
                self.devices[idx]
                    .device
                    .set_link_state(port.0 as usize, state, now);
            }
            Msg::Flash { router, version } => {
                let idx = self.device_index(router)?;
                let result = self.devices[idx].device.flash_firmware(&version, now);
                let (ok, message) = match result {
                    Ok(()) => (true, String::new()),
                    Err(e) => (false, e.to_string()),
                };
                self.transport.send(
                    &Msg::FlashResult {
                        router,
                        ok,
                        message,
                    },
                    now,
                )?;
            }
            Msg::MeshOffer(offer) => {
                self.mesh.offer(offer);
            }
            Msg::MeshRevoke { wire } => {
                self.mesh.revoke(wire);
            }
            // Upstream-only messages arriving here are protocol misuse;
            // ignore rather than kill the forwarding loop. Probes only
            // make sense on a peer path, never on the uplink.
            Msg::Register(_) | Msg::ConsoleReply { .. } | Msg::FlashResult { .. } => {}
            Msg::Heartbeat { .. } | Msg::MeshProbe { .. } => {}
        }
        Ok(())
    }

    fn device_index(&self, router: RouterId) -> Result<usize, RisError> {
        self.reverse
            .get(&router)
            .copied()
            .ok_or(RisError::UnknownRouter(router))
    }

    /// Cheap `Arc`-clones of the per-NIC counters, labelled with the
    /// Fig.-3 NIC name, registering them on first use of the port.
    fn nic_metrics_for(&mut self, idx: usize, port: u16) -> NicMetrics {
        let local_id = self.devices[idx].info.local_id;
        if let Some(m) = self.nic_metrics.get(&(local_id, port)) {
            return m.clone();
        }
        let nic = self.devices[idx]
            .info
            .ports
            .get(port as usize)
            .map(|p| p.nic.clone())
            .unwrap_or_else(|| format!("d{local_id}p{port}"));
        let labels = [("nic", nic.as_str())];
        let m = NicMetrics {
            frames_up: self.obs.counter("rnl_ris_nic_frames_up_total", &labels),
            frames_down: self.obs.counter("rnl_ris_nic_frames_down_total", &labels),
        };
        self.nic_metrics.insert((local_id, port), m.clone());
        m
    }

    /// Unwrap a frame from the server and replay it into the device port
    /// ("RIS unwraps the packet and sends it to the destination port").
    fn deliver(
        &mut self,
        router: RouterId,
        port: PortId,
        span: Span,
        frame: &[u8],
        now: Instant,
    ) -> Result<(), RisError> {
        let idx = self.device_index(router)?;
        self.m_frames_down.inc();
        self.nic_metrics_for(idx, port.0).frames_down.inc();
        self.journal.record(FrameEvent {
            trace: span.trace,
            t_us: now.as_micros(),
            hop: Hop::RisTx,
            router: router.0,
            port: port.0,
            bytes: frame.len() as u32,
        });
        if span.is_some() {
            // End-to-end wire latency: source-RIS ingress stamp →
            // destination-RIS delivery, on the shared virtual clock.
            let latency_us = now.as_micros().saturating_sub(span.origin_us);
            self.m_wire_latency.observe(latency_us);
            self.m_wire_latency_q.observe(latency_us);
        }
        let emissions = self.devices[idx]
            .device
            .on_frame(port.0 as usize, frame, now);
        let local_id = self.devices[idx].info.local_id;
        for e in emissions {
            self.capture_and_send(local_id, e.port, e.frame, now)?;
        }
        Ok(())
    }

    /// Wrap a captured frame with its unique ids and send it upstream.
    fn capture_and_send(
        &mut self,
        local_id: u32,
        port: usize,
        frame: Vec<u8>,
        now: Instant,
    ) -> Result<(), RisError> {
        // Frames captured before registration completes are dropped, as
        // libpcap frames before the tunnel exists would be.
        let Some(&router) = self.assignments.get(&local_id) else {
            return Ok(());
        };
        let mut perf = self.p_forward.scope();
        let port = PortId(port as u16);
        // Stamp the frame at ingress: this TraceId rides the tunnel all
        // the way to the destination RIS (Fig. 4), so journals across
        // the stack can reconstruct the hop-by-hop path.
        let span = Span {
            trace: self.trace_gen.allocate(),
            origin_us: now.as_micros(),
        };
        let idx = self
            .reverse
            .get(&router)
            .copied()
            .unwrap_or(local_id as usize);
        self.nic_metrics_for(idx, port.0).frames_up.inc();
        self.journal.record(FrameEvent {
            trace: span.trace,
            t_us: now.as_micros(),
            hop: Hop::RisRx,
            router: router.0,
            port: port.0,
            bytes: frame.len() as u32,
        });
        // Meshed wire in `Direct`: forward straight to the peer RIS,
        // destination rewritten to the far end so the peer delivers it
        // exactly like a relayed frame. A refused send (path relaying,
        // or cut mid-handoff) falls through to the uplink below — the
        // frame is never dropped in the transition.
        let frame = match self.mesh.route_for(router, port) {
            Some((wire, peer_router, peer_port)) => {
                let frame_len = frame.len();
                let msg = Msg::Data {
                    router: peer_router,
                    port: peer_port,
                    span,
                    frame,
                };
                if self.mesh.send_direct(wire, &msg, now) {
                    self.m_bytes_up.add(frame_len as u64);
                    self.journal.record(FrameEvent {
                        trace: span.trace,
                        t_us: now.as_micros(),
                        hop: Hop::Encode,
                        router: router.0,
                        port: port.0,
                        bytes: frame_len as u32,
                    });
                    perf.mark("encode");
                    self.m_frames_up.inc();
                    return Ok(());
                }
                let Msg::Data { frame, .. } = msg else {
                    return Ok(());
                };
                frame
            }
            None => frame,
        };
        let frame_len = frame.len();
        let msg = if self.compression {
            // Encoded into the buffer the previous frame's message gave
            // back: no allocation once it has grown to the traffic.
            let mut encoded = std::mem::take(&mut self.compress_scratch);
            encoded.clear();
            self.compressors
                .entry((router, port))
                .or_default()
                .encode_into(&frame, &mut encoded);
            self.m_bytes_up.add(encoded.len() as u64);
            self.m_comp_in.add(frame_len as u64);
            self.m_comp_out.add(encoded.len() as u64);
            // Aggregate ratio across every upstream compressed stream.
            let (bytes_in, bytes_out) = (self.m_comp_in.get(), self.m_comp_out.get());
            if bytes_out > 0 {
                self.m_comp_ratio.set(bytes_in as f64 / bytes_out as f64);
            }
            self.journal.record(FrameEvent {
                trace: span.trace,
                t_us: now.as_micros(),
                hop: Hop::Encode,
                router: router.0,
                port: port.0,
                bytes: encoded.len() as u32,
            });
            Msg::DataCompressed {
                router,
                port,
                span,
                encoded,
            }
        } else {
            self.m_bytes_up.add(frame_len as u64);
            self.journal.record(FrameEvent {
                trace: span.trace,
                t_us: now.as_micros(),
                hop: Hop::Encode,
                router: router.0,
                port: port.0,
                bytes: frame_len as u32,
            });
            Msg::Data {
                router,
                port,
                span,
                frame,
            }
        };
        perf.mark("encode");
        self.m_frames_up.inc();
        let sent = self.transport.send(&msg, now);
        if let Msg::DataCompressed { encoded, .. } = msg {
            self.compress_scratch = encoded;
        }
        sent?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Mesh: direct peer paths
    // -----------------------------------------------------------------

    /// Drain the mesh dial queue: one entry per [`Msg::MeshOffer`] the
    /// server sent whose peer path is not yet dialed. The host (facade
    /// or a TCP deployment's dial loop) satisfies each dial and hands
    /// the transport back via [`Ris::install_mesh_path`].
    pub fn take_pending_mesh_dials(&mut self) -> Vec<mesh::MeshDial> {
        self.mesh.take_pending()
    }

    /// Install a dialed peer transport for a meshed wire. `obs` is the
    /// registry the path's `rnl_mesh_*` series register on — the host
    /// passes the route server's so one scrape covers every wire.
    pub fn install_mesh_path(
        &mut self,
        wire: u64,
        peer: Box<dyn Transport>,
        seed: u64,
        obs: &MetricsRegistry,
        now: Instant,
    ) {
        self.mesh.install(wire, peer, seed, obs, now);
    }

    /// The mesh agent (path states and accounting, for assertions).
    pub fn mesh(&self) -> &mesh::MeshAgent {
        &self.mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnl_device::host::Host;
    use rnl_net::time::Duration;
    use rnl_tunnel::msg::Assignment;
    use rnl_tunnel::transport::mem_pair_perfect;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    fn host(name: &str, num: u32, ip: &str) -> Box<Host> {
        let mut h = Host::new(name, num);
        h.set_ip(ip.parse().unwrap());
        Box::new(h)
    }

    /// A RIS with one host, joined and acked as RouterId(100).
    fn joined_ris() -> (Ris, rnl_tunnel::transport::MemTransport) {
        let (ris_side, mut server_side) = mem_pair_perfect(1);
        let mut ris = Ris::new("pc1", Box::new(ris_side));
        ris.add_device(host("s1", 10, "10.0.0.1/24"), "test server");
        ris.join_labs(t(0)).unwrap();
        // Server receives the registration…
        let msgs = server_side.poll(t(0)).unwrap();
        assert!(matches!(&msgs[0], Msg::Register(info) if info.pc_name == "pc1"));
        // …and acks.
        server_side
            .send(
                &Msg::RegisterAck(vec![Assignment {
                    local_id: 0,
                    router: RouterId(100),
                }]),
                t(0),
            )
            .unwrap();
        ris.poll(t(0)).unwrap();
        assert!(ris.registered());
        (ris, server_side)
    }

    #[test]
    fn registration_includes_port_mapping() {
        let (ris_side, mut server_side) = mem_pair_perfect(2);
        let mut ris = Ris::new("pc1", Box::new(ris_side));
        ris.add_device(host("s1", 10, "10.0.0.1/24"), "probe server");
        ris.join_labs(t(0)).unwrap();
        match &server_side.poll(t(0)).unwrap()[0] {
            Msg::Register(info) => {
                assert_eq!(info.routers.len(), 1);
                let r = &info.routers[0];
                assert_eq!(r.description, "probe server");
                assert_eq!(r.model, "Linux Server");
                assert_eq!(r.ports.len(), 1);
                assert!(!r.ports[0].nic.is_empty());
            }
            other => panic!("expected Register, got {other:?}"),
        }
    }

    #[test]
    fn frames_from_server_reach_the_device_and_replies_return() {
        let (mut ris, mut server_side) = joined_ris();
        // The server injects an ARP request for the host's address.
        let arp = rnl_net::build::arp_request(
            rnl_net::addr::MacAddr([2, 9, 9, 9, 9, 9]),
            "10.0.0.2".parse().unwrap(),
            "10.0.0.1".parse().unwrap(),
        );
        server_side
            .send(
                &Msg::Data {
                    router: RouterId(100),
                    port: PortId(0),
                    span: Span::NONE,
                    frame: arp,
                },
                t(1),
            )
            .unwrap();
        ris.poll(t(1)).unwrap();
        // The host's ARP reply comes back wrapped with the right ids.
        let up = server_side.poll(t(1)).unwrap();
        assert_eq!(up.len(), 1);
        match &up[0] {
            Msg::Data {
                router,
                port,
                span,
                frame,
            } => {
                assert_eq!(*router, RouterId(100));
                assert!(span.trace.is_some(), "upstream frames carry a trace id");
                assert_eq!(*port, PortId(0));
                assert!(matches!(
                    rnl_net::build::classify(frame).unwrap().1,
                    rnl_net::build::Classified::Arp(_)
                ));
            }
            other => panic!("expected Data, got {other:?}"),
        }
        assert_eq!(ris.stats().frames_down, 1);
        assert_eq!(ris.stats().frames_up, 1);
    }

    #[test]
    fn console_proxying() {
        let (mut ris, mut server_side) = joined_ris();
        server_side
            .send(
                &Msg::Console {
                    router: RouterId(100),
                    line: "show ip".to_string(),
                },
                t(1),
            )
            .unwrap();
        ris.poll(t(1)).unwrap();
        match &server_side.poll(t(1)).unwrap()[0] {
            Msg::ConsoleReply { router, output } => {
                assert_eq!(*router, RouterId(100));
                assert!(output.contains("10.0.0.1/24"), "got: {output}");
            }
            other => panic!("expected ConsoleReply, got {other:?}"),
        }
    }

    #[test]
    fn power_and_link_management() {
        let (mut ris, mut server_side) = joined_ris();
        server_side
            .send(
                &Msg::SetPower {
                    router: RouterId(100),
                    on: false,
                },
                t(1),
            )
            .unwrap();
        ris.poll(t(1)).unwrap();
        assert!(!ris.device(0).unwrap().powered());
        server_side
            .send(
                &Msg::SetPower {
                    router: RouterId(100),
                    on: true,
                },
                t(2),
            )
            .unwrap();
        server_side
            .send(
                &Msg::SetLink {
                    router: RouterId(100),
                    port: PortId(0),
                    up: false,
                },
                t(2),
            )
            .unwrap();
        ris.poll(t(2)).unwrap();
        assert!(ris.device(0).unwrap().powered());
        assert_eq!(ris.device(0).unwrap().link_state(0), LinkState::Down);
    }

    #[test]
    fn flash_reports_result() {
        let (mut ris, mut server_side) = joined_ris();
        // Hosts reject flashing; the error must surface as FlashResult.
        server_side
            .send(
                &Msg::Flash {
                    router: RouterId(100),
                    version: "2.0".to_string(),
                },
                t(1),
            )
            .unwrap();
        ris.poll(t(1)).unwrap();
        match &server_side.poll(t(1)).unwrap()[0] {
            Msg::FlashResult { ok, message, .. } => {
                assert!(!ok);
                assert!(message.contains("2.0"));
            }
            other => panic!("expected FlashResult, got {other:?}"),
        }
    }

    #[test]
    fn data_for_unknown_router_is_an_error() {
        let (mut ris, mut server_side) = joined_ris();
        server_side
            .send(
                &Msg::Data {
                    router: RouterId(999),
                    port: PortId(0),
                    span: Span::NONE,
                    frame: vec![0; 60],
                },
                t(1),
            )
            .unwrap();
        assert!(matches!(
            ris.poll(t(1)),
            Err(RisError::UnknownRouter(RouterId(999)))
        ));
    }

    #[test]
    fn compressed_upstream_when_enabled() {
        let (mut ris, mut server_side) = joined_ris();
        ris.set_compression(true);
        // Make the host emit: ping an unresolvable address → ARP
        // requests each second (template-like repetition).
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.9 count 5", t(1));
        for ms in [1000u64, 2000, 3000, 4000, 5000] {
            ris.poll(t(ms)).unwrap();
        }
        let ups = server_side.poll(t(5000)).unwrap();
        assert!(!ups.is_empty());
        assert!(
            ups.iter().all(|m| matches!(m, Msg::DataCompressed { .. })),
            "all upstream frames should be compressed"
        );
        // Later identical ARPs compress well below frame size.
        match ups.last().unwrap() {
            Msg::DataCompressed { encoded, .. } => {
                assert!(
                    encoded.len() < 30,
                    "repeat ARP should be tiny: {}",
                    encoded.len()
                )
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn frames_before_registration_are_dropped() {
        let (ris_side, mut server_side) = mem_pair_perfect(3);
        let mut ris = Ris::new("pc1", Box::new(ris_side));
        ris.add_device(host("s1", 10, "10.0.0.1/24"), "server");
        // Not joined: device activity produces no upstream data.
        ris.device_mut(0)
            .unwrap()
            .console("ping 10.0.0.9 count 1", t(0));
        ris.poll(t(1000)).unwrap();
        assert!(server_side.poll(t(1000)).unwrap().is_empty());
        assert_eq!(ris.stats().frames_up, 0);
    }
}

#[cfg(test)]
mod reconnect_tests {
    use super::*;
    use rnl_device::host::Host;
    use rnl_net::time::Duration;
    use rnl_tunnel::msg::Assignment;
    use rnl_tunnel::transport::mem_pair_perfect;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    #[test]
    fn reconnect_rejoins_with_fresh_ids() {
        let (ris_side, mut server_side) = mem_pair_perfect(77);
        let mut ris = Ris::new("pc", Box::new(ris_side));
        let mut h = Host::new("h", 1);
        h.set_ip("10.0.0.1/24".parse().unwrap());
        ris.add_device(Box::new(h), "host");
        ris.join_labs(t(0)).unwrap();
        let _ = server_side.poll(t(0)).unwrap();
        server_side
            .send(
                &Msg::RegisterAck(vec![Assignment {
                    local_id: 0,
                    router: RouterId(5),
                }]),
                t(0),
            )
            .unwrap();
        ris.poll(t(0)).unwrap();
        assert_eq!(ris.router_id(0), Some(RouterId(5)));

        // The uplink dies; a new transport pair replaces it.
        let (new_ris_side, mut new_server_side) = mem_pair_perfect(78);
        ris.reconnect(Box::new(new_ris_side), t(1000)).unwrap();
        assert!(!ris.registered(), "old ids must be forgotten");
        // The new server side sees a fresh registration…
        let msgs = new_server_side.poll(t(1000)).unwrap();
        assert!(matches!(&msgs[0], Msg::Register(_)));
        // …and its ack installs new ids.
        new_server_side
            .send(
                &Msg::RegisterAck(vec![Assignment {
                    local_id: 0,
                    router: RouterId(42),
                }]),
                t(1000),
            )
            .unwrap();
        ris.poll(t(1000)).unwrap();
        assert_eq!(ris.router_id(0), Some(RouterId(42)));
    }
}
