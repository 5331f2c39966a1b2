//! # rnl — Remote Network Labs
//!
//! A Rust reproduction of *"Remote Network Labs: An On-Demand Network
//! Cloud for Configuration Testing"* (Liu & Orban, WREN'09 / ACM CCR
//! Jan 2010): an on-demand cloud of network equipment, stitched into
//! arbitrary test topologies by tunneling complete layer-2 frames
//! through a central route server.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`net`] — frame/packet substrate (Ethernet, 802.1Q, ARP, IPv4,
//!   ICMP, UDP, TCP, STP BPDUs).
//! * [`device`] — simulated equipment: switches (with FWSM failover),
//!   routers, hosts, traffic generators, all with IOS-style consoles and
//!   flashable firmware.
//! * [`analysis`] — the pre-deploy static analyzer (rnl-lint) and the
//!   symbolic data-plane verifier (rnl-verify) with config coverage.
//! * [`tunnel`] — wire virtualization: tunnel protocol, transports, WAN
//!   impairment, template compression.
//! * [`obs`] — observability: metrics registry, frame-path tracing,
//!   event journal, Prometheus exposition.
//! * [`ris`] — the Router Interface Software fronting each device.
//! * [`server`] — the back end: inventory, designs, reservations,
//!   routing matrix, capture/generation, web-services API, sharding.
//! * [`l1switch`] — the Fig. 7 layer-1 cross-connect.
//! * [`core`] — the public facade: [`core::RemoteNetworkLabs`], the
//!   nightly-test harness, and the prebuilt Fig. 5 / Fig. 6 labs.
//!
//! Start with `examples/quickstart.rs`.

#![deny(unsafe_code)]

pub use rnl_analysis as analysis;
pub use rnl_core as core;
pub use rnl_device as device;
pub use rnl_l1switch as l1switch;
pub use rnl_net as net;
pub use rnl_obs as obs;
pub use rnl_ris as ris;
pub use rnl_server as server;
pub use rnl_tunnel as tunnel;

pub use rnl_core::{LabError, RemoteNetworkLabs, SiteId};
