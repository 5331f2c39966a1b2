//! The RIS-side mesh agent: offers, peer paths, and the per-wire
//! forwarding choice.
//!
//! The route server stays the control plane — it decides *which* wires
//! get a direct path and hands each endpoint a [`MeshOffer`]. The agent
//! stores the offer, asks its host to dial the peer (the RIS never
//! accepts inbound connections, so the dial is delegated exactly like
//! the uplink dial is), and once a transport is installed runs one
//! [`MeshPath`] per wire. [`crate::Ris::poll`] ticks every path;
//! `capture_and_send` consults [`MeshAgent::route_for`] to pick direct
//! vs relay per frame.
//!
//! On epoch rotation (uplink reconnect) every path and offer is
//! dropped: the secrets are scoped to the session epoch, and the server
//! re-offers with fresh ones after re-adoption.

use std::collections::HashMap;

use rnl_net::time::Instant;
use rnl_obs::MetricsRegistry;
use rnl_tunnel::mesh::{FailReason, MeshPath, PathState};
use rnl_tunnel::msg::{MeshOffer, Msg, PortId, RouterId};
use rnl_tunnel::transport::Transport;

/// A dial request the agent's host must satisfy: connect to `peer_pc`
/// and hand the transport back via [`MeshAgent::install`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshDial {
    pub wire: u64,
    pub secret: u64,
    pub peer_pc: String,
}

/// All mesh state for one RIS.
#[derive(Default)]
pub struct MeshAgent {
    /// Current offer per wire (the secret in force).
    offers: HashMap<u64, MeshOffer>,
    /// Live peer paths per wire.
    paths: HashMap<u64, MeshPath>,
    /// Local (router, port) → wire, the per-frame forwarding lookup.
    by_port: HashMap<(RouterId, PortId), u64>,
    /// Dials awaiting the host (drained by [`MeshAgent::take_pending`]).
    pending: Vec<MeshDial>,
}

impl MeshAgent {
    /// An agent with no offers.
    pub fn new() -> MeshAgent {
        MeshAgent::default()
    }

    /// Accept (or refresh) an offer. A superseded path for the same
    /// wire — a previous epoch's secret — is torn down; the replacement
    /// dial goes on the pending queue.
    pub fn offer(&mut self, offer: MeshOffer) {
        if let Some(old) = self.paths.remove(&offer.wire) {
            drop(old);
        }
        self.by_port
            .insert((offer.local_router, offer.local_port), offer.wire);
        self.pending.push(MeshDial {
            wire: offer.wire,
            secret: offer.secret,
            peer_pc: offer.peer_pc.clone(),
        });
        self.offers.insert(offer.wire, offer);
    }

    /// Withdraw a wire's direct path (teardown / reap): frames go back
    /// through the relay permanently.
    pub fn revoke(&mut self, wire: u64) {
        self.offers.remove(&wire);
        self.paths.remove(&wire);
        self.by_port.retain(|_, w| *w != wire);
        self.pending.retain(|d| d.wire != wire);
    }

    /// Drain the dial queue for the host to satisfy.
    pub fn take_pending(&mut self) -> Vec<MeshDial> {
        std::mem::take(&mut self.pending)
    }

    /// Install a dialed peer transport for `wire`, creating its path.
    /// Ignored when the offer was revoked (or superseded) while the
    /// dial was in flight. Path metrics register on `obs` — the host
    /// passes the server registry so one scrape shows every wire.
    pub fn install(
        &mut self,
        wire: u64,
        peer: Box<dyn Transport>,
        seed: u64,
        obs: &MetricsRegistry,
        now: Instant,
    ) {
        let Some(offer) = self.offers.get(&wire) else {
            return;
        };
        self.paths.insert(
            wire,
            MeshPath::new(wire, offer.secret, peer, seed, obs, now),
        );
    }

    /// The direct route for a locally captured frame, when its port
    /// fronts a meshed wire with a live path: `(wire, remote router,
    /// remote port)` — the destination a direct frame must carry so the
    /// peer RIS delivers it like any relayed frame.
    pub fn route_for(&self, router: RouterId, port: PortId) -> Option<(u64, RouterId, PortId)> {
        let wire = *self.by_port.get(&(router, port))?;
        if !self.paths.contains_key(&wire) {
            return None;
        }
        let offer = self.offers.get(&wire)?;
        Some((wire, offer.peer_router, offer.peer_port))
    }

    /// Forward one data frame on a wire's direct path. False when there
    /// is no live path, the path is relaying, or the send was refused —
    /// the frame was not enqueued and the caller must relay it.
    pub fn send_direct(&mut self, wire: u64, msg: &Msg, now: Instant) -> bool {
        match self.paths.get_mut(&wire) {
            Some(path) => path.send_data(msg, now),
            None => false,
        }
    }

    /// Tick every path: probes out, state machines stepped. Returns the
    /// data frames received on direct paths, for the host to deliver.
    pub fn tick(&mut self, now: Instant) -> Vec<Msg> {
        let mut out = Vec::new();
        for path in self.paths.values_mut() {
            out.extend(path.tick(now));
        }
        out
    }

    /// The session epoch rotated: every secret is stale. Each live path
    /// scores an `epoch-rotated` failover (its frames are relaying from
    /// this instant), then all mesh state drops — the server re-offers
    /// with fresh secrets after re-adoption.
    pub fn clear_for_epoch(&mut self) {
        for path in self.paths.values_mut() {
            path.fail_over(FailReason::EpochRotated);
        }
        self.paths.clear();
        self.offers.clear();
        self.by_port.clear();
        self.pending.clear();
    }

    /// A wire's current path state (None when no path is installed).
    pub fn path_state(&self, wire: u64) -> Option<PathState> {
        self.paths.get(&wire).map(MeshPath::state)
    }

    /// Live paths, for accounting assertions.
    pub fn paths(&self) -> impl Iterator<Item = &MeshPath> {
        self.paths.values()
    }

    /// Whether any wire currently has an offer.
    pub fn is_empty(&self) -> bool {
        self.offers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnl_net::time::Duration;
    use rnl_tunnel::transport::mem_pair_perfect;

    fn t(ms: u64) -> Instant {
        Instant::EPOCH + Duration::from_millis(ms)
    }

    fn offer(wire: u64, secret: u64) -> MeshOffer {
        MeshOffer {
            wire,
            secret,
            local_router: RouterId(1),
            local_port: PortId(0),
            peer_router: RouterId(2),
            peer_port: PortId(0),
            peer_pc: "peer".to_string(),
        }
    }

    #[test]
    fn offer_queues_a_dial_and_install_creates_the_path() {
        let obs = MetricsRegistry::new();
        let mut agent = MeshAgent::new();
        agent.offer(offer(7, 42));
        let dials = agent.take_pending();
        assert_eq!(dials.len(), 1);
        assert_eq!(dials[0].wire, 7);
        assert_eq!(dials[0].peer_pc, "peer");
        assert!(agent.take_pending().is_empty(), "queue drains once");
        assert!(agent.route_for(RouterId(1), PortId(0)).is_none());
        let (a, _b) = mem_pair_perfect(1);
        agent.install(7, Box::new(a), 1, &obs, t(0));
        assert_eq!(
            agent.route_for(RouterId(1), PortId(0)),
            Some((7, RouterId(2), PortId(0)))
        );
        assert_eq!(agent.path_state(7), Some(PathState::Direct));
    }

    #[test]
    fn revoke_removes_route_and_path() {
        let obs = MetricsRegistry::new();
        let mut agent = MeshAgent::new();
        agent.offer(offer(7, 42));
        let (a, _b) = mem_pair_perfect(2);
        agent.install(7, Box::new(a), 1, &obs, t(0));
        agent.revoke(7);
        assert!(agent.route_for(RouterId(1), PortId(0)).is_none());
        assert!(agent.path_state(7).is_none());
        assert!(agent.is_empty());
    }

    #[test]
    fn install_after_revoke_is_ignored() {
        let obs = MetricsRegistry::new();
        let mut agent = MeshAgent::new();
        agent.offer(offer(3, 9));
        agent.revoke(3);
        let (a, _b) = mem_pair_perfect(3);
        agent.install(3, Box::new(a), 1, &obs, t(0));
        assert!(agent.path_state(3).is_none());
    }

    #[test]
    fn epoch_rotation_clears_everything() {
        let obs = MetricsRegistry::new();
        let mut agent = MeshAgent::new();
        agent.offer(offer(5, 1));
        let (a, _b) = mem_pair_perfect(4);
        agent.install(5, Box::new(a), 1, &obs, t(0));
        agent.clear_for_epoch();
        assert!(agent.is_empty());
        assert!(agent.path_state(5).is_none());
        // The epoch-rotated failover was counted on the server-shared
        // registry before the path dropped.
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter(
                "rnl_mesh_failovers_total",
                &[("reason", "epoch-rotated"), ("wire", "5")]
            ),
            1
        );
    }
}
