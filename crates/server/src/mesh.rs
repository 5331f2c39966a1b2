//! Server-side mesh control: which wires get a direct peer path, and
//! the epoch-scoped secrets that authenticate them.
//!
//! The route server stays the control plane (§2.2 keeps every RIS
//! dialing *out* to the server) — but once two sites are adopted, the
//! relay is a detour the data plane does not have to take. When meshing
//! is enabled the server walks each deployment's wires and, for every
//! wire whose endpoints front *different* sessions, allocates a
//! [`MeshWire`]: a wire id plus a fresh secret, offered to both
//! endpoints so they can dial each other directly. The secret is scoped
//! to the session epoch — a rejoin rotates it, so a stale peer path
//! can never carry frames into a new epoch.
//!
//! This module owns only bookkeeping (allocation, rotation, teardown);
//! the offers themselves travel through
//! [`crate::RouteServer`]'s mesh outbox so they ride the same
//! transports, grace handling and replay buffers as every other
//! control message.

use std::collections::HashMap;

use crate::matrix::DeploymentId;
use rnl_tunnel::msg::{PortId, RouterId};

/// One wire the server has promoted to a direct path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshWire {
    /// Server-allocated wire id, unique for the server's lifetime.
    pub id: u64,
    /// The deployment the wire belongs to; teardown revokes it.
    pub dep: DeploymentId,
    /// One endpoint.
    pub a: (RouterId, PortId),
    /// The other endpoint.
    pub b: (RouterId, PortId),
    /// The epoch-scoped shared secret both ends must present in
    /// probes. Rotated whenever either endpoint's session re-adopts.
    pub secret: u64,
}

/// All mesh bookkeeping for one route server.
pub struct MeshControl {
    enabled: bool,
    next_wire: u64,
    /// splitmix64 state for secret generation — deterministic, so
    /// experiments replay bit-for-bit.
    rng: u64,
    wires: HashMap<u64, MeshWire>,
    /// Endpoint → wire id, the relay-fallback lookup.
    by_port: HashMap<(RouterId, PortId), u64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(rnl_obs::GOLDEN_GAMMA);
    rnl_obs::mix64(*state)
}

impl MeshControl {
    /// Disabled control with a deterministic secret stream.
    pub fn new(seed: u64) -> MeshControl {
        MeshControl {
            enabled: false,
            next_wire: 1,
            rng: seed,
            wires: HashMap::new(),
            by_port: HashMap::new(),
        }
    }

    /// Whether meshing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Flip the master switch (the caller sweeps or revokes).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Allocate a wire id and secret for a cross-session link. Returns
    /// `(wire id, secret)`.
    pub fn allocate(
        &mut self,
        dep: DeploymentId,
        a: (RouterId, PortId),
        b: (RouterId, PortId),
    ) -> (u64, u64) {
        let id = self.next_wire;
        self.next_wire += 1;
        let secret = splitmix64(&mut self.rng);
        self.by_port.insert(a, id);
        self.by_port.insert(b, id);
        self.wires.insert(
            id,
            MeshWire {
                id,
                dep,
                a,
                b,
                secret,
            },
        );
        (id, secret)
    }

    /// Rotate a wire's secret (epoch change on either end). Returns the
    /// new secret, or `None` for an unknown wire.
    pub fn rotate(&mut self, wire: u64) -> Option<u64> {
        let secret = splitmix64(&mut self.rng);
        let w = self.wires.get_mut(&wire)?;
        w.secret = secret;
        Some(secret)
    }

    /// Whether an endpoint fronts a meshed wire — the relay-fallback
    /// accounting probe, so it short-circuits on the common empty case.
    pub fn is_meshed(&self, port: (RouterId, PortId)) -> bool {
        !self.by_port.is_empty() && self.by_port.contains_key(&port)
    }

    /// The wire id an endpoint belongs to, if any.
    pub fn wire_for_port(&self, port: (RouterId, PortId)) -> Option<u64> {
        self.by_port.get(&port).copied()
    }

    /// Drop every wire of a deployment, returning them for revocation.
    pub fn remove_dep(&mut self, dep: DeploymentId) -> Vec<MeshWire> {
        let ids: Vec<u64> = self
            .wires
            .values()
            .filter(|w| w.dep == dep)
            .map(|w| w.id)
            .collect();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(w) = self.wires.remove(&id) {
                self.by_port.remove(&w.a);
                self.by_port.remove(&w.b);
                out.push(w);
            }
        }
        out
    }

    /// Drop every wire (mesh disabled), returning them for revocation.
    pub fn drain_all(&mut self) -> Vec<MeshWire> {
        self.by_port.clear();
        let mut out: Vec<MeshWire> = self.wires.drain().map(|(_, w)| w).collect();
        out.sort_by_key(|w| w.id);
        out
    }

    /// Wire ids touching any of `routers` (for re-offer on re-adoption).
    pub fn wires_touching(&self, routers: &[RouterId]) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .wires
            .values()
            .filter(|w| routers.contains(&w.a.0) || routers.contains(&w.b.0))
            .map(|w| w.id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// A wire by id.
    pub fn wire(&self, id: u64) -> Option<&MeshWire> {
        self.wires.get(&id)
    }

    /// How many wires are meshed right now.
    pub fn len(&self) -> usize {
        self.wires.len()
    }

    /// Whether no wires are meshed.
    pub fn is_empty(&self) -> bool {
        self.wires.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(r: u32, p: u16) -> (RouterId, PortId) {
        (RouterId(r), PortId(p))
    }

    #[test]
    fn allocate_rotate_and_remove() {
        let mut mc = MeshControl::new(7);
        let dep = DeploymentId(1);
        let (id, secret) = mc.allocate(dep, ep(1, 0), ep(2, 0));
        assert_eq!(mc.len(), 1);
        assert!(mc.is_meshed(ep(1, 0)));
        assert!(mc.is_meshed(ep(2, 0)));
        assert!(!mc.is_meshed(ep(3, 0)));
        assert_eq!(mc.wire_for_port(ep(2, 0)), Some(id));
        let rotated = mc.rotate(id).unwrap();
        assert_ne!(rotated, secret, "rotation mints a fresh secret");
        assert_eq!(mc.wire(id).unwrap().secret, rotated);
        let removed = mc.remove_dep(dep);
        assert_eq!(removed.len(), 1);
        assert!(mc.is_empty());
        assert!(!mc.is_meshed(ep(1, 0)));
    }

    #[test]
    fn secrets_are_seed_deterministic() {
        let mut a = MeshControl::new(42);
        let mut b = MeshControl::new(42);
        let (_, sa) = a.allocate(DeploymentId(1), ep(1, 0), ep(2, 0));
        let (_, sb) = b.allocate(DeploymentId(1), ep(1, 0), ep(2, 0));
        assert_eq!(sa, sb);
        let mut c = MeshControl::new(43);
        let (_, sc) = c.allocate(DeploymentId(1), ep(1, 0), ep(2, 0));
        assert_ne!(sa, sc);
    }

    #[test]
    fn wires_touching_finds_either_end() {
        let mut mc = MeshControl::new(1);
        let (w1, _) = mc.allocate(DeploymentId(1), ep(1, 0), ep(2, 0));
        let (w2, _) = mc.allocate(DeploymentId(1), ep(3, 0), ep(4, 0));
        assert_eq!(mc.wires_touching(&[RouterId(2)]), vec![w1]);
        assert_eq!(mc.wires_touching(&[RouterId(3)]), vec![w2]);
        assert_eq!(mc.wires_touching(&[RouterId(2), RouterId(4)]), vec![w1, w2]);
        assert!(mc.wires_touching(&[RouterId(9)]).is_empty());
    }
}
