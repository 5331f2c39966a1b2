//! # rnl-l1switch — a programmable layer-1 cross-connect
//!
//! The §4/Fig. 7 performance-testing aid: "For equipment located at the
//! same physical location, we can add a layer 1 switch, such as MRV's
//! Media Cross Connect product, to provide full link bandwidth. … During
//! performance testing (selectable by user), the layer 1 switch can be
//! programmed to directly bridge the two ports. Alternatively, the layer
//! 1 switch could connect the router port to RIS, which is in turn
//! connected to the Internet."
//!
//! An [`L1Switch`] is a pure patch panel: each device-facing port is
//! either cross-connected to another device port (the full-bandwidth
//! direct bridge) or patched through to an uplink (a RIS NIC). It never
//! inspects frames — layer 1 has no opinions about bits — so the only
//! observable differences from a cable are the counters.

#![deny(unsafe_code)]

use std::collections::HashMap;

/// Where a device-facing port is currently patched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortTarget {
    /// Not patched; frames are dropped (dark fiber).
    Dark,
    /// Directly bridged to another device port.
    Port(usize),
    /// Patched through to RIS uplink `n`.
    Uplink(usize),
}

/// Where a frame entering the switch leaves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L1Output {
    /// Out another device port (the direct bridge).
    Port(usize),
    /// Out an uplink toward the RIS.
    Uplink(usize),
    /// Nowhere — the ingress port is dark.
    Dropped,
}

/// Programming failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Error {
    /// Port index out of range.
    InvalidPort(usize),
    /// The port is already patched; unpatch first.
    PortBusy(usize),
    /// A port cannot be bridged to itself.
    SelfBridge(usize),
}

impl std::fmt::Display for L1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            L1Error::InvalidPort(p) => write!(f, "invalid port {p}"),
            L1Error::PortBusy(p) => write!(f, "port {p} is already patched"),
            L1Error::SelfBridge(p) => write!(f, "port {p} cannot bridge to itself"),
        }
    }
}

impl std::error::Error for L1Error {}

/// Counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Frames bridged port-to-port.
    pub bridged: u64,
    /// Frames sent to/accepted from uplinks.
    pub uplinked: u64,
    /// Frames dropped on dark ports.
    pub dropped: u64,
}

/// The cross-connect.
#[derive(Debug)]
pub struct L1Switch {
    targets: Vec<PortTarget>,
    /// Reverse map: uplink → device port.
    uplink_to_port: HashMap<usize, usize>,
    stats: L1Stats,
}

impl L1Switch {
    /// A switch with `num_ports` device-facing ports, all dark.
    pub fn new(num_ports: usize) -> L1Switch {
        L1Switch {
            targets: vec![PortTarget::Dark; num_ports],
            uplink_to_port: HashMap::new(),
            stats: L1Stats::default(),
        }
    }

    /// Grow the panel to at least `n` device-facing ports (new ports
    /// dark). Lets an embedding route server add cross-connect capacity
    /// as co-located wires are deployed, instead of sizing up front.
    pub fn ensure_ports(&mut self, n: usize) {
        if self.targets.len() < n {
            self.targets.resize(n, PortTarget::Dark);
        }
    }

    /// Number of device-facing ports.
    pub fn num_ports(&self) -> usize {
        self.targets.len()
    }

    /// Current patch target of a port.
    pub fn target(&self, port: usize) -> Option<PortTarget> {
        self.targets.get(port).copied()
    }

    /// Counters.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }

    fn check(&self, port: usize) -> Result<(), L1Error> {
        if port >= self.targets.len() {
            return Err(L1Error::InvalidPort(port));
        }
        Ok(())
    }

    /// Program the direct bridge between two ports — the full-bandwidth
    /// performance-testing path.
    pub fn bridge(&mut self, a: usize, b: usize) -> Result<(), L1Error> {
        self.check(a)?;
        self.check(b)?;
        if a == b {
            return Err(L1Error::SelfBridge(a));
        }
        for p in [a, b] {
            if self.targets[p] != PortTarget::Dark {
                return Err(L1Error::PortBusy(p));
            }
        }
        self.targets[a] = PortTarget::Port(b);
        self.targets[b] = PortTarget::Port(a);
        Ok(())
    }

    /// Patch a device port through to a RIS uplink — the tunnel path.
    pub fn patch_to_uplink(&mut self, port: usize, uplink: usize) -> Result<(), L1Error> {
        self.check(port)?;
        if self.targets[port] != PortTarget::Dark {
            return Err(L1Error::PortBusy(port));
        }
        if self.uplink_to_port.contains_key(&uplink) {
            return Err(L1Error::PortBusy(port));
        }
        self.targets[port] = PortTarget::Uplink(uplink);
        self.uplink_to_port.insert(uplink, port);
        Ok(())
    }

    /// Unpatch a port (and its partner, for bridges).
    pub fn unpatch(&mut self, port: usize) -> Result<(), L1Error> {
        self.check(port)?;
        match self.targets[port] {
            PortTarget::Dark => {}
            PortTarget::Port(other) => {
                self.targets[other] = PortTarget::Dark;
                self.targets[port] = PortTarget::Dark;
            }
            PortTarget::Uplink(uplink) => {
                self.uplink_to_port.remove(&uplink);
                self.targets[port] = PortTarget::Dark;
            }
        }
        Ok(())
    }

    /// A frame enters a device-facing port; where does it leave?
    /// The frame itself is untouched — this is layer 1.
    pub fn ingress(&mut self, port: usize) -> L1Output {
        match self.targets.get(port) {
            Some(PortTarget::Port(other)) => {
                self.stats.bridged += 1;
                L1Output::Port(*other)
            }
            Some(PortTarget::Uplink(uplink)) => {
                self.stats.uplinked += 1;
                L1Output::Uplink(*uplink)
            }
            _ => {
                self.stats.dropped += 1;
                L1Output::Dropped
            }
        }
    }

    /// A frame arrives from a RIS uplink; which device port does it
    /// leave on?
    pub fn from_uplink(&mut self, uplink: usize) -> L1Output {
        match self.uplink_to_port.get(&uplink) {
            Some(&port) => {
                self.stats.uplinked += 1;
                L1Output::Port(port)
            }
            None => {
                self.stats.dropped += 1;
                L1Output::Dropped
            }
        }
    }
}

/// Maps tunnel-level `(router, port)` endpoints to the compact device
/// port indices an [`L1Switch`] is programmed with, both directions.
///
/// This is the piece that promotes the Fig.-7 bypass into the route
/// server's general relay path: the server interns each endpoint of a
/// co-located wire at deploy time, and on the packet path probes the
/// dense two-level table (router id, then port id — no hashing, no
/// allocation) to find the switch port a frame enters on.
#[derive(Debug, Default)]
pub struct PortIndexer {
    /// `by_router[router][port]` → compact switch-port index.
    by_router: Vec<Vec<Option<u32>>>,
    /// Compact index → the endpoint it stands for.
    reverse: Vec<(u32, u16)>,
}

impl PortIndexer {
    /// Empty indexer.
    pub fn new() -> PortIndexer {
        PortIndexer::default()
    }

    /// The compact index for an endpoint, assigning the next free one on
    /// first sight (deploy-time only; the packet path uses
    /// [`PortIndexer::get`]).
    pub fn intern(&mut self, router: u32, port: u16) -> usize {
        if let Some(idx) = self.get(router, port) {
            return idx;
        }
        let idx = self.reverse.len();
        self.reverse.push((router, port));
        let r = router as usize;
        if self.by_router.len() <= r {
            self.by_router.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.by_router[r];
        let p = port as usize;
        if row.len() <= p {
            row.resize(p + 1, None);
        }
        row[p] = Some(idx as u32);
        idx
    }

    /// Packet-path probe: the compact index of an endpoint, if it was
    /// ever interned. Two array reads, never allocates.
    #[inline]
    pub fn get(&self, router: u32, port: u16) -> Option<usize> {
        let idx = (*self.by_router.get(router as usize)?.get(port as usize)?)?;
        Some(idx as usize)
    }

    /// The endpoint behind a compact index.
    #[inline]
    pub fn endpoint(&self, idx: usize) -> Option<(u32, u16)> {
        self.reverse.get(idx).copied()
    }

    /// Endpoints interned so far.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True when nothing was interned.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_bridge_is_symmetric() {
        let mut sw = L1Switch::new(4);
        sw.bridge(0, 2).unwrap();
        assert_eq!(sw.ingress(0), L1Output::Port(2));
        assert_eq!(sw.ingress(2), L1Output::Port(0));
        assert_eq!(sw.stats().bridged, 2);
    }

    #[test]
    fn uplink_patch_roundtrip() {
        let mut sw = L1Switch::new(2);
        sw.patch_to_uplink(1, 7).unwrap();
        assert_eq!(sw.ingress(1), L1Output::Uplink(7));
        assert_eq!(sw.from_uplink(7), L1Output::Port(1));
        assert_eq!(sw.stats().uplinked, 2);
    }

    #[test]
    fn dark_ports_drop() {
        let mut sw = L1Switch::new(2);
        assert_eq!(sw.ingress(0), L1Output::Dropped);
        assert_eq!(sw.from_uplink(9), L1Output::Dropped);
        assert_eq!(sw.stats().dropped, 2);
    }

    #[test]
    fn programming_errors() {
        let mut sw = L1Switch::new(3);
        assert_eq!(sw.bridge(0, 0), Err(L1Error::SelfBridge(0)));
        assert_eq!(sw.bridge(0, 9), Err(L1Error::InvalidPort(9)));
        sw.bridge(0, 1).unwrap();
        assert_eq!(sw.bridge(0, 2), Err(L1Error::PortBusy(0)));
        assert_eq!(sw.patch_to_uplink(1, 0), Err(L1Error::PortBusy(1)));
    }

    #[test]
    fn repatching_between_modes() {
        // The user-selectable switchover of Fig. 7: tunnel mode for
        // configuration testing, direct bridge for performance runs.
        let mut sw = L1Switch::new(2);
        sw.patch_to_uplink(0, 0).unwrap();
        sw.patch_to_uplink(1, 1).unwrap();
        // Switch to performance mode.
        sw.unpatch(0).unwrap();
        sw.unpatch(1).unwrap();
        sw.bridge(0, 1).unwrap();
        assert_eq!(sw.ingress(0), L1Output::Port(1));
        // And back.
        sw.unpatch(0).unwrap();
        assert_eq!(sw.target(1), Some(PortTarget::Dark));
        sw.patch_to_uplink(0, 0).unwrap();
        assert_eq!(sw.ingress(0), L1Output::Uplink(0));
    }

    #[test]
    fn ensure_ports_grows_dark() {
        let mut sw = L1Switch::new(1);
        assert_eq!(sw.bridge(0, 3), Err(L1Error::InvalidPort(3)));
        sw.ensure_ports(4);
        assert_eq!(sw.num_ports(), 4);
        assert_eq!(sw.target(3), Some(PortTarget::Dark));
        sw.bridge(0, 3).unwrap();
        // Never shrinks.
        sw.ensure_ports(2);
        assert_eq!(sw.num_ports(), 4);
        assert_eq!(sw.ingress(3), L1Output::Port(0));
    }

    #[test]
    fn port_indexer_interns_and_probes() {
        let mut ix = PortIndexer::new();
        assert!(ix.is_empty());
        let a = ix.intern(7, 2);
        let b = ix.intern(9, 0);
        assert_ne!(a, b);
        // Idempotent.
        assert_eq!(ix.intern(7, 2), a);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.get(7, 2), Some(a));
        assert_eq!(ix.get(9, 0), Some(b));
        assert_eq!(ix.get(7, 3), None);
        assert_eq!(ix.get(1000, 0), None);
        assert_eq!(ix.endpoint(a), Some((7, 2)));
        assert_eq!(ix.endpoint(b), Some((9, 0)));
        assert_eq!(ix.endpoint(99), None);
    }

    #[test]
    fn indexer_drives_switch_bridging() {
        // The server-side pattern: intern both endpoints of a co-located
        // wire, grow the panel, program the bridge, then resolve frames
        // through index → ingress → endpoint.
        let mut ix = PortIndexer::new();
        let mut sw = L1Switch::new(0);
        let a = ix.intern(3, 1);
        let b = ix.intern(4, 0);
        sw.ensure_ports(ix.len());
        sw.bridge(a, b).unwrap();
        let entered = ix.get(3, 1).unwrap();
        match sw.ingress(entered) {
            L1Output::Port(out) => assert_eq!(ix.endpoint(out), Some((4, 0))),
            other => panic!("expected bridge, got {other:?}"),
        }
        assert_eq!(sw.stats().bridged, 1);
    }
}
