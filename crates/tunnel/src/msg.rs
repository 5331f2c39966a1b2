//! The RIS ↔ route-server message vocabulary and its binary encoding.
//!
//! Every message is encoded to an explicit, versioned binary layout: a
//! one-byte type tag followed by type-specific fields, all integers
//! big-endian, strings and byte blobs length-prefixed. The layout is
//! hand-rolled (rather than derived) because it *is* the protocol the
//! paper describes — the thing a third-party RIS implementation would
//! interoperate with.

use crate::codec::{Reader, Writer};

pub use rnl_obs::{Span, TraceId};

/// Globally unique id the route server assigns to a router (§2.2: "The
/// route server will assign a unique id to each router").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub u32);

/// Port index within a router; combined with [`RouterId`] it uniquely
/// identifies the port when communicating with the route server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The rectangle on the router's picture that maps to a port (Fig. 3:
/// "The lab manager can define the active region by simply drawing a
/// rectangle on the router image").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImageRegion {
    pub x: u16,
    pub y: u16,
    pub w: u16,
    pub h: u16,
}

/// Everything a lab manager specifies about one port (§2.2's three
/// required items).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortInfo {
    /// "A description of what the port is", shown on hover.
    pub description: String,
    /// "The network interface adapter the router port is connected to."
    pub nic: String,
    /// The clickable region on the router image.
    pub region: ImageRegion,
}

/// A router as described in the RIS configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterInfo {
    /// RIS-local identifier; the server maps it to a global [`RouterId`].
    pub local_id: u32,
    /// Inventory description ("what kind of equipment it is").
    pub description: String,
    /// Device model string.
    pub model: String,
    /// Name of the back-panel picture used in the web UI.
    pub image: String,
    pub ports: Vec<PortInfo>,
    /// COM port the console is wired to, when console access exists.
    pub console_com: Option<String>,
}

/// The session identity a RIS presents across reconnects. The `token`
/// is a stable per-process secret proving a re-registration comes from
/// the same RIS that owned the graced session (and not an imposter
/// reusing the PC name); the `generation` is bumped on every reconnect
/// so the server can order rejoins and discard stale replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionEpoch {
    /// Stable per-RIS-instance secret.
    pub token: u64,
    /// Reconnect count; strictly increases across rejoins.
    pub generation: u64,
}

/// A direct-path grant for one deployed wire: the route server (which
/// stays the control plane) hands each endpoint RIS the far end's
/// identity plus an epoch-scoped shared secret. Frames forwarded on
/// the direct path carry the *remote* (router, port) so the receiving
/// RIS delivers them exactly as it would a server-relayed frame; the
/// secret gates probe acceptance so a stale path from a previous epoch
/// cannot masquerade as healthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshOffer {
    /// Server-assigned wire id, unique across the deployment's life.
    pub wire: u64,
    /// Epoch-scoped key; rotated whenever either session re-registers.
    pub secret: u64,
    /// This RIS's end of the wire.
    pub local_router: RouterId,
    pub local_port: PortId,
    /// The far end, used as the destination of direct data frames.
    pub peer_router: RouterId,
    pub peer_port: PortId,
    /// The peer site's PC name — the "address" a RIS dials.
    pub peer_pc: String,
}

/// The registration a RIS submits when the lab manager clicks
/// "Join Labs".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterInfo {
    /// Identifies the interface PC.
    pub pc_name: String,
    /// Session identity across reconnects (rejoin vs. imposter).
    pub epoch: SessionEpoch,
    pub routers: Vec<RouterInfo>,
}

/// Server reply to registration: global id per RIS-local router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    pub local_id: u32,
    pub router: RouterId,
}

/// A message on the RIS ↔ route-server tunnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// RIS → server: join the labs.
    Register(RegisterInfo),
    /// Server → RIS: ids assigned.
    RegisterAck(Vec<Assignment>),
    /// A complete captured L2 frame, either direction. `span` carries
    /// the frame's trace identity and virtual origin timestamp
    /// ([`Span::NONE`] when untraced), so per-wire latency and the full
    /// hop path can be reconstructed downstream.
    Data {
        router: RouterId,
        port: PortId,
        span: Span,
        frame: Vec<u8>,
    },
    /// A template-compressed frame (see [`crate::compress`]). The stream
    /// is identified by (router, port); both sides keep a synchronized
    /// template ring per stream.
    DataCompressed {
        router: RouterId,
        port: PortId,
        span: Span,
        encoded: Vec<u8>,
    },
    /// Server → RIS: one console line for a router.
    Console { router: RouterId, line: String },
    /// RIS → server: console output.
    ConsoleReply { router: RouterId, output: String },
    /// Server → RIS: power a router on/off (lab deploy/teardown and
    /// failure injection).
    SetPower { router: RouterId, on: bool },
    /// Server → RIS: connect/disconnect the virtual cable on a port.
    SetLink {
        router: RouterId,
        port: PortId,
        up: bool,
    },
    /// Server → RIS: flash a firmware image.
    Flash { router: RouterId, version: String },
    /// RIS → server: result of a flash request.
    FlashResult {
        router: RouterId,
        ok: bool,
        message: String,
    },
    /// Liveness, either direction. RIS→server heartbeats carry the
    /// sender's current epoch generation so the server's liveness
    /// bookkeeping can ignore beats from a superseded connection.
    Heartbeat { seq: u64, epoch: u64 },
    /// Server → RIS: negotiate a direct peer path for one deployed
    /// wire (see [`MeshOffer`]).
    MeshOffer(MeshOffer),
    /// Server → RIS: the direct path for `wire` is withdrawn (teardown
    /// or reap); frames go back through the relay.
    MeshRevoke { wire: u64 },
    /// RIS ↔ RIS, on the peer path only: seeded jittered liveness
    /// probe. The receiver accepts it as a health signal only when the
    /// secret matches its current [`MeshOffer`] for the wire.
    MeshProbe { wire: u64, secret: u64, seq: u64 },
}

/// Error decoding a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes.
    Truncated,
    /// Unknown type tag or invalid field.
    Malformed,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::Malformed => write!(f, "message malformed"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Error building a wire message on the *sender's* side. Previously an
/// oversize body encoded fine locally and then killed the peer's
/// connection as `Malformed` on receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The encoded body exceeds [`crate::codec::MAX_FRAME`], or a blob's
    /// length overflowed its u32 prefix.
    Oversize {
        /// Encoded body length (or `usize::MAX` when a blob length
        /// overflowed before the body size was known).
        len: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Oversize { len } => {
                write!(f, "message body of {len} bytes exceeds the frame limit")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

mod tag {
    pub const REGISTER: u8 = 1;
    pub const REGISTER_ACK: u8 = 2;
    pub const DATA: u8 = 3;
    pub const DATA_COMPRESSED: u8 = 4;
    pub const CONSOLE: u8 = 5;
    pub const CONSOLE_REPLY: u8 = 6;
    pub const SET_POWER: u8 = 7;
    pub const SET_LINK: u8 = 8;
    pub const FLASH: u8 = 9;
    pub const FLASH_RESULT: u8 = 10;
    pub const HEARTBEAT: u8 = 11;
    pub const MESH_OFFER: u8 = 12;
    pub const MESH_REVOKE: u8 = 13;
    pub const MESH_PROBE: u8 = 14;
}

/// Fixed `Data` body header: tag(1) + router(4) + port(2) + trace(8) +
/// origin_us(8) + payload length prefix(4). The destination fields sit
/// at stable offsets, which is what lets the relay patch a frame's
/// destination in place ([`Msg::patch_data_dest`]) without re-encoding.
pub const DATA_HEADER: usize = 27;

/// Borrowed view of a [`Msg::Data`] frame body — the zero-copy decode
/// the relay fast path runs instead of materializing an owned
/// [`Msg::Data`] with its payload `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRef<'a> {
    pub router: RouterId,
    pub port: PortId,
    pub span: Span,
    pub payload: &'a [u8],
}

impl Msg {
    /// Borrowed decode of a `Data` body. Returns `None` for any other
    /// tag *and* for a malformed `Data` body (wrong header length or a
    /// payload length prefix that does not match the remaining bytes),
    /// so a fast path that falls back to [`Msg::decode`] on `None`
    /// reports exactly the errors the owned decode would.
    pub fn peek_data(body: &[u8]) -> Option<DataRef<'_>> {
        Self::peek_tagged(body, tag::DATA)
    }

    /// [`Msg::peek_data`] for a `DataCompressed` body — the same header
    /// at the same offsets; `payload` is the template-compressed
    /// encoding, not the frame.
    pub fn peek_data_compressed(body: &[u8]) -> Option<DataRef<'_>> {
        Self::peek_tagged(body, tag::DATA_COMPRESSED)
    }

    fn peek_tagged(body: &[u8], tag: u8) -> Option<DataRef<'_>> {
        if body.len() < DATA_HEADER || body[0] != tag {
            return None;
        }
        let len = u32::from_be_bytes([body[23], body[24], body[25], body[26]]) as usize;
        if body.len() - DATA_HEADER != len {
            return None;
        }
        Some(DataRef {
            router: RouterId(u32::from_be_bytes([body[1], body[2], body[3], body[4]])),
            port: PortId(u16::from_be_bytes([body[5], body[6]])),
            span: Span {
                trace: TraceId(u64::from_be_bytes([
                    body[7], body[8], body[9], body[10], body[11], body[12], body[13], body[14],
                ])),
                origin_us: u64::from_be_bytes([
                    body[15], body[16], body[17], body[18], body[19], body[20], body[21], body[22],
                ]),
            },
            payload: &body[DATA_HEADER..],
        })
    }

    /// Build an encoded `Data` body (`DataCompressed` when `compressed`)
    /// in `out`, replacing what it held and keeping its capacity:
    /// `payload` appends the payload bytes after the header, and the
    /// length prefix is written once their count is known — the
    /// relay's way to produce [`Msg::encode`]'s bytes without a
    /// [`Msg`].
    pub fn encode_data_into(
        out: &mut Vec<u8>,
        compressed: bool,
        (router, port): (RouterId, PortId),
        span: Span,
        payload: impl FnOnce(&mut Vec<u8>),
    ) {
        out.clear();
        out.push(if compressed {
            tag::DATA_COMPRESSED
        } else {
            tag::DATA
        });
        out.extend_from_slice(&router.0.to_be_bytes());
        out.extend_from_slice(&port.0.to_be_bytes());
        out.extend_from_slice(&span.trace.0.to_be_bytes());
        out.extend_from_slice(&span.origin_us.to_be_bytes());
        out.extend_from_slice(&[0; 4]);
        payload(out);
        // A payload past the u32 prefix cannot be framed either way
        // (`codec::MAX_FRAME` is far below it): saturate, so the
        // receiver's length check rejects the body.
        let len = u32::try_from(out.len() - DATA_HEADER).unwrap_or(u32::MAX);
        out[DATA_HEADER - 4..DATA_HEADER].copy_from_slice(&len.to_be_bytes());
    }

    /// Rewrite the destination router/port of a `Data` or
    /// `DataCompressed` body in place. Both layouts share the same
    /// leading offsets and the frame length is unchanged, so a relayed
    /// frame can be forwarded as the very bytes it arrived in. Returns
    /// false (body untouched) when the body is not a data frame.
    pub fn patch_data_dest(body: &mut [u8], router: RouterId, port: PortId) -> bool {
        if body.len() < DATA_HEADER || (body[0] != tag::DATA && body[0] != tag::DATA_COMPRESSED) {
            return false;
        }
        body[1..5].copy_from_slice(&router.0.to_be_bytes());
        body[5..7].copy_from_slice(&port.0.to_be_bytes());
        true
    }
}

impl Msg {
    /// Encode into a byte vector (without the outer length prefix, which
    /// [`crate::codec::FrameCodec`] adds). Infallible for bounded
    /// inputs; [`Msg::encode_checked`] adds the oversize guards.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_inner()
    }

    fn encode_into(&self, w: &mut Writer) {
        match self {
            Msg::Register(info) => {
                w.u8(tag::REGISTER);
                w.string(&info.pc_name);
                w.u64(info.epoch.token);
                w.u64(info.epoch.generation);
                w.u16(info.routers.len() as u16);
                for r in &info.routers {
                    w.u32(r.local_id);
                    w.string(&r.description);
                    w.string(&r.model);
                    w.string(&r.image);
                    w.u16(r.ports.len() as u16);
                    for p in &r.ports {
                        w.string(&p.description);
                        w.string(&p.nic);
                        w.u16(p.region.x);
                        w.u16(p.region.y);
                        w.u16(p.region.w);
                        w.u16(p.region.h);
                    }
                    match &r.console_com {
                        Some(com) => {
                            w.u8(1);
                            w.string(com);
                        }
                        None => w.u8(0),
                    }
                }
            }
            Msg::RegisterAck(assignments) => {
                w.u8(tag::REGISTER_ACK);
                w.u16(assignments.len() as u16);
                for a in assignments {
                    w.u32(a.local_id);
                    w.u32(a.router.0);
                }
            }
            Msg::Data {
                router,
                port,
                span,
                frame,
            } => {
                w.u8(tag::DATA);
                w.u32(router.0);
                w.u16(port.0);
                w.u64(span.trace.0);
                w.u64(span.origin_us);
                w.bytes(frame);
            }
            Msg::DataCompressed {
                router,
                port,
                span,
                encoded,
            } => {
                w.u8(tag::DATA_COMPRESSED);
                w.u32(router.0);
                w.u16(port.0);
                w.u64(span.trace.0);
                w.u64(span.origin_us);
                w.bytes(encoded);
            }
            Msg::Console { router, line } => {
                w.u8(tag::CONSOLE);
                w.u32(router.0);
                w.string(line);
            }
            Msg::ConsoleReply { router, output } => {
                w.u8(tag::CONSOLE_REPLY);
                w.u32(router.0);
                w.string(output);
            }
            Msg::SetPower { router, on } => {
                w.u8(tag::SET_POWER);
                w.u32(router.0);
                w.u8(u8::from(*on));
            }
            Msg::SetLink { router, port, up } => {
                w.u8(tag::SET_LINK);
                w.u32(router.0);
                w.u16(port.0);
                w.u8(u8::from(*up));
            }
            Msg::Flash { router, version } => {
                w.u8(tag::FLASH);
                w.u32(router.0);
                w.string(version);
            }
            Msg::FlashResult {
                router,
                ok,
                message,
            } => {
                w.u8(tag::FLASH_RESULT);
                w.u32(router.0);
                w.u8(u8::from(*ok));
                w.string(message);
            }
            Msg::Heartbeat { seq, epoch } => {
                w.u8(tag::HEARTBEAT);
                w.u64(*seq);
                w.u64(*epoch);
            }
            Msg::MeshOffer(offer) => {
                w.u8(tag::MESH_OFFER);
                w.u64(offer.wire);
                w.u64(offer.secret);
                w.u32(offer.local_router.0);
                w.u16(offer.local_port.0);
                w.u32(offer.peer_router.0);
                w.u16(offer.peer_port.0);
                w.string(&offer.peer_pc);
            }
            Msg::MeshRevoke { wire } => {
                w.u8(tag::MESH_REVOKE);
                w.u64(*wire);
            }
            Msg::MeshProbe { wire, secret, seq } => {
                w.u8(tag::MESH_PROBE);
                w.u64(*wire);
                w.u64(*secret);
                w.u64(*seq);
            }
        }
    }

    /// [`Msg::encode`] with the sender-side size guards: fails when a
    /// blob overflowed its u32 length prefix or the body exceeds
    /// [`crate::codec::MAX_FRAME`]. This is what
    /// [`crate::codec::FrameCodec::encode`] frames.
    pub fn encode_checked(&self) -> Result<Vec<u8>, EncodeError> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        if w.overflowed() {
            return Err(EncodeError::Oversize { len: usize::MAX });
        }
        let body = w.into_inner();
        if body.len() > crate::codec::MAX_FRAME {
            return Err(EncodeError::Oversize { len: body.len() });
        }
        Ok(body)
    }

    /// Decode a message from exactly the bytes produced by
    /// [`Msg::encode`]. Trailing bytes are rejected.
    pub fn decode(data: &[u8]) -> Result<Msg, DecodeError> {
        let mut r = Reader::new(data);
        let msg = match r.u8()? {
            tag::REGISTER => {
                let pc_name = r.string()?;
                let epoch = SessionEpoch {
                    token: r.u64()?,
                    generation: r.u64()?,
                };
                let n = r.u16()?;
                let mut routers = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let local_id = r.u32()?;
                    let description = r.string()?;
                    let model = r.string()?;
                    let image = r.string()?;
                    let np = r.u16()?;
                    let mut ports = Vec::with_capacity(np as usize);
                    for _ in 0..np {
                        ports.push(PortInfo {
                            description: r.string()?,
                            nic: r.string()?,
                            region: ImageRegion {
                                x: r.u16()?,
                                y: r.u16()?,
                                w: r.u16()?,
                                h: r.u16()?,
                            },
                        });
                    }
                    let console_com = match r.u8()? {
                        0 => None,
                        1 => Some(r.string()?),
                        _ => return Err(DecodeError::Malformed),
                    };
                    routers.push(RouterInfo {
                        local_id,
                        description,
                        model,
                        image,
                        ports,
                        console_com,
                    });
                }
                Msg::Register(RegisterInfo {
                    pc_name,
                    epoch,
                    routers,
                })
            }
            tag::REGISTER_ACK => {
                let n = r.u16()?;
                let mut assignments = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    assignments.push(Assignment {
                        local_id: r.u32()?,
                        router: RouterId(r.u32()?),
                    });
                }
                Msg::RegisterAck(assignments)
            }
            tag::DATA => Msg::Data {
                router: RouterId(r.u32()?),
                port: PortId(r.u16()?),
                span: Span {
                    trace: TraceId(r.u64()?),
                    origin_us: r.u64()?,
                },
                frame: r.bytes()?,
            },
            tag::DATA_COMPRESSED => Msg::DataCompressed {
                router: RouterId(r.u32()?),
                port: PortId(r.u16()?),
                span: Span {
                    trace: TraceId(r.u64()?),
                    origin_us: r.u64()?,
                },
                encoded: r.bytes()?,
            },
            tag::CONSOLE => Msg::Console {
                router: RouterId(r.u32()?),
                line: r.string()?,
            },
            tag::CONSOLE_REPLY => Msg::ConsoleReply {
                router: RouterId(r.u32()?),
                output: r.string()?,
            },
            tag::SET_POWER => Msg::SetPower {
                router: RouterId(r.u32()?),
                on: r.u8()? != 0,
            },
            tag::SET_LINK => Msg::SetLink {
                router: RouterId(r.u32()?),
                port: PortId(r.u16()?),
                up: r.u8()? != 0,
            },
            tag::FLASH => Msg::Flash {
                router: RouterId(r.u32()?),
                version: r.string()?,
            },
            tag::FLASH_RESULT => Msg::FlashResult {
                router: RouterId(r.u32()?),
                ok: r.u8()? != 0,
                message: r.string()?,
            },
            tag::HEARTBEAT => Msg::Heartbeat {
                seq: r.u64()?,
                epoch: r.u64()?,
            },
            tag::MESH_OFFER => Msg::MeshOffer(MeshOffer {
                wire: r.u64()?,
                secret: r.u64()?,
                local_router: RouterId(r.u32()?),
                local_port: PortId(r.u16()?),
                peer_router: RouterId(r.u32()?),
                peer_port: PortId(r.u16()?),
                peer_pc: r.string()?,
            }),
            tag::MESH_REVOKE => Msg::MeshRevoke { wire: r.u64()? },
            tag::MESH_PROBE => Msg::MeshProbe {
                wire: r.u64()?,
                secret: r.u64()?,
                seq: r.u64()?,
            },
            _ => return Err(DecodeError::Malformed),
        };
        if !r.is_empty() {
            return Err(DecodeError::Malformed);
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let bytes = msg.encode();
        assert_eq!(Msg::decode(&bytes).unwrap(), msg);
    }

    fn sample_register() -> Msg {
        Msg::Register(RegisterInfo {
            pc_name: "lab-pc-7".to_string(),
            epoch: SessionEpoch {
                token: 0xfeed_f00d_dead_beef,
                generation: 3,
            },
            routers: vec![RouterInfo {
                local_id: 3,
                description: "Catalyst 6500 with FWSM".to_string(),
                model: "Catalyst 6500".to_string(),
                image: "cat6500-back.png".to_string(),
                ports: vec![
                    PortInfo {
                        description: "GigabitEthernet1/1".to_string(),
                        nic: "eth1".to_string(),
                        region: ImageRegion {
                            x: 10,
                            y: 20,
                            w: 30,
                            h: 15,
                        },
                    },
                    PortInfo {
                        description: "GigabitEthernet1/2".to_string(),
                        nic: "eth2".to_string(),
                        region: ImageRegion {
                            x: 45,
                            y: 20,
                            w: 30,
                            h: 15,
                        },
                    },
                ],
                console_com: Some("COM1".to_string()),
            }],
        })
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(sample_register());
        roundtrip(Msg::RegisterAck(vec![
            Assignment {
                local_id: 3,
                router: RouterId(17),
            },
            Assignment {
                local_id: 4,
                router: RouterId(18),
            },
        ]));
        roundtrip(Msg::Data {
            router: RouterId(1),
            port: PortId(2),
            span: Span::NONE,
            frame: vec![0xab; 60],
        });
        roundtrip(Msg::Data {
            router: RouterId(1),
            port: PortId(2),
            span: Span {
                trace: TraceId(0xdead_beef_0000_0001),
                origin_us: 123_456,
            },
            frame: vec![0xab; 60],
        });
        roundtrip(Msg::DataCompressed {
            router: RouterId(1),
            port: PortId(2),
            span: Span {
                trace: TraceId(42),
                origin_us: 7,
            },
            encoded: vec![1, 2, 3],
        });
        roundtrip(Msg::Console {
            router: RouterId(9),
            line: "show running-config".to_string(),
        });
        roundtrip(Msg::ConsoleReply {
            router: RouterId(9),
            output: "hostname r9\n".to_string(),
        });
        roundtrip(Msg::SetPower {
            router: RouterId(5),
            on: false,
        });
        roundtrip(Msg::SetLink {
            router: RouterId(5),
            port: PortId(1),
            up: true,
        });
        roundtrip(Msg::Flash {
            router: RouterId(2),
            version: "12.2(18)SXF".to_string(),
        });
        roundtrip(Msg::FlashResult {
            router: RouterId(2),
            ok: false,
            message: "unknown image".to_string(),
        });
        roundtrip(Msg::Heartbeat {
            seq: u64::MAX,
            epoch: 17,
        });
        roundtrip(Msg::MeshOffer(MeshOffer {
            wire: 3,
            secret: 0xcafe_f00d_dead_beef,
            local_router: RouterId(7),
            local_port: PortId(1),
            peer_router: RouterId(9),
            peer_port: PortId(0),
            peer_pc: "edge-pc".to_string(),
        }));
        roundtrip(Msg::MeshRevoke { wire: 3 });
        roundtrip(Msg::MeshProbe {
            wire: 3,
            secret: 42,
            seq: u64::MAX,
        });
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Msg::Heartbeat { seq: 7, epoch: 0 }.encode();
        bytes.push(0);
        assert_eq!(Msg::decode(&bytes), Err(DecodeError::Malformed));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = sample_register().encode();
        for cut in 0..bytes.len() {
            assert!(
                Msg::decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Msg::decode(&[0xff]), Err(DecodeError::Malformed));
        assert_eq!(Msg::decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn peek_data_matches_owned_decode() {
        let msg = Msg::Data {
            router: RouterId(0x01020304),
            port: PortId(0x0506),
            span: Span {
                trace: TraceId(0xdead_beef_cafe_f00d),
                origin_us: 123_456,
            },
            frame: vec![0xab; 60],
        };
        let body = msg.encode();
        let peeked = Msg::peek_data(&body).expect("data body peeks");
        let Msg::Data {
            router,
            port,
            span,
            frame,
        } = Msg::decode(&body).unwrap()
        else {
            panic!("decode changed variant");
        };
        assert_eq!(peeked.router, router);
        assert_eq!(peeked.port, port);
        assert_eq!(peeked.span, span);
        assert_eq!(peeked.payload, &frame[..]);
    }

    #[test]
    fn peek_data_rejects_non_data_and_malformed() {
        assert!(Msg::peek_data(&Msg::Heartbeat { seq: 1, epoch: 0 }.encode()).is_none());
        assert!(Msg::peek_data(
            &Msg::DataCompressed {
                router: RouterId(1),
                port: PortId(2),
                span: Span::NONE,
                encoded: vec![1, 2, 3],
            }
            .encode()
        )
        .is_none());
        let mut body = Msg::Data {
            router: RouterId(1),
            port: PortId(2),
            span: Span::NONE,
            frame: vec![9; 16],
        }
        .encode();
        // Trailing garbage breaks the length/body agreement, exactly
        // what Msg::decode rejects as Malformed.
        body.push(0);
        assert!(Msg::peek_data(&body).is_none());
        assert!(Msg::decode(&body).is_err());
        assert!(Msg::peek_data(&body[..DATA_HEADER - 1]).is_none());
    }

    #[test]
    fn encode_data_into_matches_the_owned_encode() {
        let span = Span {
            trace: TraceId(0xfeed),
            origin_us: 77,
        };
        // Stale contents and capacity from a previous, longer frame.
        let mut out = vec![0xEE; 300];
        for payload in [&b""[..], &[1, 2, 3, 4, 5][..]] {
            let write = |out: &mut Vec<u8>| out.extend_from_slice(payload);
            Msg::encode_data_into(&mut out, false, (RouterId(9), PortId(2)), span, write);
            let owned = Msg::Data {
                router: RouterId(9),
                port: PortId(2),
                span,
                frame: payload.to_vec(),
            };
            assert_eq!(out, owned.encode());
            Msg::encode_data_into(&mut out, true, (RouterId(9), PortId(2)), span, write);
            let owned = Msg::DataCompressed {
                router: RouterId(9),
                port: PortId(2),
                span,
                encoded: payload.to_vec(),
            };
            assert_eq!(out, owned.encode());
            let view = Msg::peek_data_compressed(&out).unwrap();
            assert_eq!(
                (view.router, view.port, view.span),
                (RouterId(9), PortId(2), span)
            );
            assert_eq!(view.payload, payload);
            assert!(Msg::peek_data(&out).is_none());
        }
    }

    #[test]
    fn patch_data_dest_rewrites_in_place() {
        for msg in [
            Msg::Data {
                router: RouterId(1),
                port: PortId(2),
                span: Span {
                    trace: TraceId(7),
                    origin_us: 99,
                },
                frame: vec![0x55; 40],
            },
            Msg::DataCompressed {
                router: RouterId(1),
                port: PortId(2),
                span: Span {
                    trace: TraceId(7),
                    origin_us: 99,
                },
                encoded: vec![0x55; 40],
            },
        ] {
            let mut body = msg.encode();
            let before_len = body.len();
            assert!(Msg::patch_data_dest(&mut body, RouterId(9), PortId(3)));
            assert_eq!(body.len(), before_len);
            match Msg::decode(&body).unwrap() {
                Msg::Data {
                    router, port, span, ..
                }
                | Msg::DataCompressed {
                    router, port, span, ..
                } => {
                    assert_eq!(router, RouterId(9));
                    assert_eq!(port, PortId(3));
                    // Span and payload untouched.
                    assert_eq!(span.trace, TraceId(7));
                    assert_eq!(span.origin_us, 99);
                }
                other => panic!("unexpected variant {other:?}"),
            }
        }
        let mut not_data = Msg::Heartbeat { seq: 1, epoch: 0 }.encode();
        assert!(!Msg::patch_data_dest(&mut not_data, RouterId(9), PortId(3)));
    }

    #[test]
    fn encode_checked_guards_oversize() {
        let ok = Msg::Heartbeat { seq: 1, epoch: 0 };
        assert_eq!(ok.encode_checked().unwrap(), ok.encode());
        let over = Msg::Data {
            router: RouterId(1),
            port: PortId(0),
            span: Span::NONE,
            frame: vec![0; crate::codec::MAX_FRAME + 1],
        };
        assert!(matches!(
            over.encode_checked(),
            Err(EncodeError::Oversize { .. })
        ));
    }
}
