//! The Fig. 4 relay — the one routine every L2 frame of every lab
//! crosses ("we funnel all traffic through the central route server",
//! §4).
//!
//! Every data frame takes the same steps through [`RouteServer::relay`]:
//!
//! ```text
//! server-rx hop + FromPort tap
//!   → resolve the far end (L1 bridge → dense matrix → remote routes)
//!   → matrix-hit hop + ToPort tap
//!   → accounting (bytes, per-wire series, latency quantile, slow-op
//!     pre-check, per-deployment counter, mesh relay-fallback)
//!   → egress
//!   → settle the send outcome (server-tx hop, or unrouted + reason)
//! ```
//!
//! The frame travels through all of it as one encoded `Msg::Data`
//! body that the relay borrows and patches in place. An uncompressed
//! frame is already that, in the receive batch; a template-compressed
//! one (§4) is first expanded into a server-owned scratch that carries
//! the same header. Neither costs an allocation once the buffers have
//! grown to the traffic.

use rnl_l1switch::{L1Output, PortTarget};
use rnl_net::time::Instant;
use rnl_obs::{FrameEvent, Hop, MissReason, PerfScope, SlowOp, Span, LATENCY_BUCKETS_US};
use rnl_tunnel::msg::{Msg, PortId, RouterId, DATA_HEADER};

use crate::capture::CaptureDir;
use crate::{RouteServer, SendOutcome, TrunkFrame, WireMetrics};

/// A (router, port) wire endpoint.
type Endpoint = (RouterId, PortId);

impl RouteServer {
    /// Relay a received body if it is a well-formed data frame, plain
    /// or compressed. Returns `false` (body untouched) for anything
    /// else; the caller then takes the owned decode, which reports
    /// exactly the errors a malformed data body deserves.
    pub(super) fn relay_body(&mut self, body: &mut [u8], now: Instant) -> bool {
        if let Some(data) = Msg::peek_data(body) {
            let (src, span) = ((data.router, data.port), data.span);
            let mut perf = self.p_relay.scope();
            perf.mark("decode"); // borrowed header peek: decode is ~free
            self.admit_relay(now);
            self.relay(src, span, body, now, perf);
            return true;
        }
        let Some(data) = Msg::peek_data_compressed(body) else {
            return false;
        };
        let (src, span) = ((data.router, data.port), data.span);
        let mut perf = self.p_relay.scope();
        self.admit_relay(now);
        // The scratch moves out of `self` for the relay (which borrows
        // `self` whole) and back in afterwards with its capacity.
        let mut expanded = std::mem::take(&mut self.expand_scratch);
        let mut decoded = Ok(());
        let decompressor = self.decompressors.entry(src).or_default();
        Msg::encode_data_into(&mut expanded, false, src, span, |out| {
            decoded = decompressor.decode_into(data.payload, out);
        });
        match decoded {
            Ok(()) => {
                perf.mark("decode");
                self.relay(src, span, &mut expanded, now, perf);
            }
            // A desynchronized stream is a session-level fault; count
            // the frame as unroutable and move on.
            Err(_) => self.frame_unrouted(src.0, src.1, MissReason::DecodeError, span.trace, now),
        }
        self.expand_scratch = expanded;
        true
    }

    /// The Fig. 4 packet path: unwrap → matrix lookup → wrap → forward.
    /// `body` is the frame as an encoded `Msg::Data`, still addressed
    /// from `src`. `perf` is the relay profiling scope opened at
    /// receipt (its `decode` phase already marked); this marks `matrix`
    /// and `encode` and the total is recorded when it drops.
    fn relay(
        &mut self,
        src: Endpoint,
        span: Span,
        body: &mut [u8],
        now: Instant,
        mut perf: PerfScope,
    ) {
        let payload = body.get(DATA_HEADER..).unwrap_or(&[]);
        let bytes = payload.len() as u64;
        self.record_hop(Hop::ServerRx, src, span, bytes, now);
        self.captures
            .tap(src.0, src.1, CaptureDir::FromPort, payload, now);
        // The remote routes are consulted only on a local miss, so
        // intra-shard traffic pays nothing for federation.
        let local = self.bridged(src).or_else(|| self.matrix.lookup(src));
        let Some(dst) = local.or_else(|| self.remote_routes.get(&src).copied()) else {
            self.frame_unrouted(src.0, src.1, MissReason::NoMatrixEntry, span.trace, now);
            return;
        };
        self.record_hop(Hop::MatrixHit, dst, span, bytes, now);
        if local.is_none() {
            // Cross-shard wire: re-address the frame and hand it to the
            // trunk outbox — the one buffer the trunk must own. The
            // shard that fronts `dst` taps, sends and settles it in
            // `deliver_remote`.
            self.m_trunk_out.inc();
            let _ = Msg::patch_data_dest(body, dst.0, dst.1);
            self.trunk_outbox.push(TrunkFrame {
                dst_router: dst.0,
                body: body.to_vec(),
            });
            return;
        }
        self.captures
            .tap(dst.0, dst.1, CaptureDir::ToPort, payload, now);
        perf.mark("matrix");
        self.account(src, dst, span, bytes, now);
        let outcome = if self.compress_downstream {
            // §4 toward the RIS: the payload is encoded straight into a
            // second scratch that already carries the outgoing header.
            let mut wrapped = std::mem::take(&mut self.compress_scratch);
            let compressor = self.compressors.entry(dst).or_default();
            Msg::encode_data_into(&mut wrapped, true, dst, span, |out| {
                compressor.encode_into(payload, out);
            });
            perf.mark("encode");
            let outcome = self.send_raw_to_router(dst.0, &wrapped, now);
            self.compress_scratch = wrapped;
            outcome
        } else {
            let _ = Msg::patch_data_dest(body, dst.0, dst.1);
            perf.mark("encode"); // in-place patch: encode never copies
            self.send_raw_to_router(dst.0, body, now)
        };
        self.settle(outcome, dst, span, bytes, now);
    }

    /// Deliver a frame that arrived over an inter-shard trunk into the
    /// local session fronting its destination router — the tail of
    /// the relay routine, run on the shard that owns the far end.
    /// Returns `true` when the frame was sent (or held for replay by a
    /// graced session); sheds are counted exactly like local misses.
    pub fn deliver_remote(&mut self, body: &[u8], now: Instant) -> bool {
        self.m_trunk_in.inc();
        let Some(data) = Msg::peek_data(body) else {
            return false;
        };
        let (dst, span) = ((data.router, data.port), data.span);
        let bytes = data.payload.len() as u64;
        self.captures
            .tap(dst.0, dst.1, CaptureDir::ToPort, data.payload, now);
        let outcome = self.send_raw_to_router(dst.0, body, now);
        if outcome == SendOutcome::Sent {
            self.m_bytes_relayed.add(bytes);
        }
        self.settle(outcome, dst, span, bytes, now);
        matches!(outcome, SendOutcome::Sent | SendOutcome::Queued)
    }

    /// Fig. 7 bypass: a co-located wire bridged on the L1 panel
    /// resolves its far end in two array reads. `target` (not
    /// `ingress`) probes first so a torn-down bridge falls through to
    /// the matrix without counting a drop.
    fn bridged(&mut self, src: Endpoint) -> Option<Endpoint> {
        let idx = self.l1_index.get(src.0 .0, src.1 .0)?;
        let Some(PortTarget::Port(other)) = self.l1.target(idx) else {
            return None;
        };
        if self.l1.ingress(idx) == L1Output::Port(other) {
            self.m_frames_bridged.inc();
        }
        self.l1_index
            .endpoint(other)
            .map(|(r, p)| (RouterId(r), PortId(p)))
    }

    /// Book one frame that resolved to a local far end.
    fn account(&mut self, src: Endpoint, dst: Endpoint, span: Span, bytes: u64, now: Instant) {
        // A meshed wire's frame on the relay is the fallback path in
        // action — count it so "direct" is provable from one scrape.
        if self.mesh.is_meshed(src) {
            self.m_mesh_relay_fallback.inc();
        }
        self.m_bytes_relayed.add(bytes);
        let wire = self.wire_metrics_for(src, dst);
        wire.frames.inc();
        wire.bytes.add(bytes);
        if span.is_some() {
            // Upstream leg latency: RIS ingress stamp → relay, on the
            // shared virtual clock.
            let latency_us = now.as_micros().saturating_sub(span.origin_us);
            wire.latency_us.observe(latency_us);
            self.m_relay_latency_q.observe(latency_us);
            // Threshold pre-check: building a `SlowOp` allocates its
            // phase vector, so only ops that will be captured pay it.
            if self
                .recorder
                .threshold("relay")
                .is_some_and(|t| latency_us >= t)
            {
                let captured = self.recorder.record_if_slow(SlowOp {
                    class: "relay",
                    trace: span.trace,
                    router: dst.0 .0,
                    port: dst.1 .0,
                    at_us: now.as_micros(),
                    total_us: latency_us,
                    phases: vec![("tunnel-upstream", latency_us)],
                });
                if captured {
                    self.m_slow_relay.inc();
                }
            }
        }
        if let Some(dep) = self.matrix.owner_of(src.0) {
            let obs = &self.obs;
            self.deployment_frames
                .entry(dep)
                .or_insert_with(|| {
                    obs.counter(
                        "rnl_server_deployment_frames_total",
                        &[("deployment", &dep.0.to_string())],
                    )
                })
                .inc();
        }
    }

    /// Close a frame's books once its send outcome is known.
    fn settle(
        &mut self,
        outcome: SendOutcome,
        dst: Endpoint,
        span: Span,
        bytes: u64,
        now: Instant,
    ) {
        match outcome {
            SendOutcome::Sent => {
                self.m_frames_routed.inc();
                self.record_hop(Hop::ServerTx, dst, span, bytes, now);
            }
            SendOutcome::Graced => {
                self.frame_unrouted(dst.0, dst.1, MissReason::SessionGraced, span.trace, now);
            }
            // Held in the replay buffer: neither routed nor unrouted
            // yet; `rnl_server_replay_queued_total` and the flush/shed
            // counters settle its fate.
            SendOutcome::Queued => {}
            SendOutcome::Gone => {
                self.frame_unrouted(dst.0, dst.1, MissReason::NoSession, span.trace, now);
            }
        }
    }

    /// Journal one hop of a traced frame. `bytes` is the L2 payload
    /// length on every hop, so a trace reads one constant size.
    fn record_hop(&self, hop: Hop, (router, port): Endpoint, span: Span, bytes: u64, now: Instant) {
        self.journal.record(FrameEvent {
            trace: span.trace,
            t_us: now.as_micros(),
            hop,
            router: router.0,
            port: port.0,
            bytes: bytes as u32,
        });
    }

    /// [`RouteServer::send_to_router`] for an already-encoded body: the
    /// live-session path forwards the bytes as-is via `send_raw`;
    /// graced sessions fall back to the owned decode so the replay
    /// buffer keeps holding [`Msg`]s.
    fn send_raw_to_router(&mut self, router: RouterId, body: &[u8], now: Instant) -> SendOutcome {
        let Some(sid) = self.inventory.session_of(router) else {
            return SendOutcome::Gone;
        };
        let cap = self.replay_cap;
        let queued = self.m_replay_queued.clone();
        let Some(session) = self.sessions.get_mut(&sid) else {
            return SendOutcome::Gone;
        };
        if session.graced_at.is_some() || !session.alive {
            let Ok(msg) = Msg::decode(body) else {
                return SendOutcome::Gone;
            };
            return Self::hold_for_replay(session, cap, &queued, msg);
        }
        match session.transport.send_raw(body, now) {
            Ok(()) => SendOutcome::Sent,
            Err(_) => SendOutcome::Gone,
        }
    }

    /// Cheap `Arc`-clones of the per-wire handles, registering them on
    /// first sight of the wire.
    fn wire_metrics_for(&mut self, src: Endpoint, dst: Endpoint) -> WireMetrics {
        if let Some(m) = self.wire_metrics.get(&src) {
            return m.clone();
        }
        let wire = format!("r{}p{}-r{}p{}", src.0 .0, src.1 .0, dst.0 .0, dst.1 .0);
        let labels = [("wire", wire.as_str())];
        let m = WireMetrics {
            frames: self.obs.counter("rnl_server_wire_frames_total", &labels),
            bytes: self.obs.counter("rnl_server_wire_bytes_total", &labels),
            latency_us: self.obs.histogram(
                "rnl_server_wire_latency_us",
                &labels,
                &LATENCY_BUCKETS_US,
            ),
        };
        self.wire_metrics.insert(src, m.clone());
        m
    }
}
