//! # rnl-tunnel — wire virtualization for Remote Network Labs
//!
//! The paper's central mechanism: "We capture all packets coming from the
//! port, wrap the complete packet in an IP packet which includes the
//! port's and router's unique id and sends the packet to the route
//! server" (§2.2). This crate owns that tunnel:
//!
//! * [`msg`] — the message vocabulary exchanged between a Router
//!   Interface Software instance and the route server: registration
//!   (Fig. 3's port mapping travels here), captured-frame data messages,
//!   console and management traffic, heartbeats.
//! * [`codec`] — the explicit binary wire format with length-prefixed
//!   framing, usable over any byte stream.
//! * [`transport`] — how messages move: a real TCP transport (RIS always
//!   dials out, so equipment behind corporate firewalls can join, §2.2)
//!   and a deterministic in-memory transport for tests and experiments.
//! * [`impair`] — WAN delay/jitter/loss injection (§3.5: "RNL can inject
//!   delay and jitter to simulate any wide area links").
//! * [`faults`] — deterministic, virtual-time fault schedules (stalls,
//!   partitions, cuts) for reproducing tunnel churn in tests.
//! * [`compress`] — template packet compression (§4: "By exploiting the
//!   similarities across packets, we could achieve a high compression
//!   ratio").
//! * [`ring`] — the consistent-hash ring mapping principals to
//!   route-server shards (§4: one route server per user, generalized).
//! * [`wait`] — the readiness wait (`poll(2)` + a cross-thread waker)
//!   the deployable `routeserver` and `ris` loops block in.
//! * [`backoff`] — the one seeded, jittered redial schedule behind the
//!   RIS uplink supervisor, the inter-shard trunks and the mesh probes.

#![deny(unsafe_code)]

pub mod backoff;
pub mod codec;
pub mod compress;
pub mod faults;
pub mod impair;
pub mod mesh;
pub mod msg;
pub mod ring;
pub mod transport;
pub mod wait;

pub use faults::{
    FaultKind, FaultPlan, FaultWindow, ShardFaultEvent, ShardFaultKind, ShardFaultPlan,
};
pub use msg::{Msg, PortId, RouterId};
pub use ring::HashRing;
pub use transport::{
    ClosedTransport, MemTransport, OverflowPolicy, TcpTransport, Transport, TransportError,
};
