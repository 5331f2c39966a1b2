//! # rnl-net — frame and packet substrate for Remote Network Labs
//!
//! RNL's key mechanism is *wire virtualization*: the complete layer-2 frame
//! emitted by a router port is captured, tunneled through the route server,
//! and replayed bit-exact at the far port. Everything above layer 1 must
//! survive — including control traffic such as spanning-tree BPDUs and
//! VLAN-tagged frames — so the substrate works on raw frames and provides
//! typed views over them.
//!
//! The crate follows the smoltcp idiom:
//!
//! * [`ethernet::Frame`], [`ipv4::Packet`], … are zero-copy *view* types
//!   wrapping any `AsRef<[u8]>` buffer, with `new_checked` constructors that
//!   validate lengths before any accessor can panic.
//! * [`ethernet::Repr`], [`ipv4::Repr`], … are owned *representation*
//!   structs with `parse` / `emit` round-trips, used when building frames.
//!
//! No allocation is required to parse; building uses caller-provided
//! buffers or the [`build`] convenience constructors which allocate `Vec`s.

#![deny(unsafe_code)]

pub mod addr;
pub mod arp;
pub mod bpdu;
pub mod build;
pub mod checksum;
pub mod error;
pub mod ethernet;
pub mod fhp;
pub mod icmp;
pub mod ipv4;
pub mod rip;
pub mod tcp;
pub mod time;
pub mod udp;
pub mod vlan;

pub use addr::{Cidr, EtherType, MacAddr};
pub use error::{Error, Result};
