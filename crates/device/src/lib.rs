//! # rnl-device — simulated network equipment for Remote Network Labs
//!
//! The paper's RNL fronts *real, physical* routers, switches and firewalls
//! with commodity PCs. This crate is the substitution for that hardware
//! (see DESIGN.md §2): deterministic device simulators that present the
//! same contract a physical box presents to RNL —
//!
//! * numbered ports that emit and consume complete layer-2 frames
//!   (including control traffic such as STP BPDUs),
//! * a serial console speaking an IOS-style CLI, from which configurations
//!   can be dumped (`show running-config`) and restored (replaying config
//!   lines), and
//! * flashable firmware whose version changes observable behaviour, since
//!   "each [firmware version] behaves slightly different" is one of the
//!   paper's core motivations.
//!
//! Devices are *poll-based state machines*: the owner (a test harness or a
//! `rnl-ris` instance) calls [`Device::on_frame`] when a frame arrives on a
//! port and [`Device::tick`] to advance timers on the virtual clock. They
//! never block, never spawn threads, and never read wall-clock time, so
//! every lab run is reproducible.
//!
//! Device models provided:
//!
//! * [`switch::Switch`] — an L2 switch with per-VLAN access/trunk ports,
//!   MAC learning, and 802.1D spanning tree; optionally hosting an
//!   [`fwsm::Fwsm`] firewall service module with active/standby failover
//!   (the Catalyst-6500-with-FWSM of the paper's Fig. 5).
//! * [`router::Router`] — an L3 router with static routes, ARP, ICMP and
//!   numbered access lists (the R1–R4 of Fig. 6).
//! * [`host::Host`] — a server endpoint that can ping and send probes
//!   (the S1/S2 of Fig. 5).
//! * [`traffgen::TrafficGen`] — an IXIA-style template traffic generator.

#![deny(unsafe_code)]

pub mod acl;
pub mod cli;
pub mod confparse;
pub mod device;
pub mod firmware;
pub mod fwsm;
pub mod harness;
pub mod host;
pub mod logical;
pub mod mac_table;
pub mod rip;
pub mod router;
pub mod stp;
pub mod switch;
pub mod traffgen;

pub use device::{Device, DeviceError, Emission, LinkState, PortIndex};
pub use harness::LabHarness;
