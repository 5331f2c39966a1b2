//! Property tests for the tunnel: message codec identity, framing under
//! arbitrary chunking, and compressor/decompressor synchronization on
//! arbitrary frame streams.

use proptest::prelude::*;
use rnl_tunnel::codec::FrameCodec;
use rnl_tunnel::compress::{Compressor, Decompressor};
use rnl_tunnel::msg::{
    Assignment, Msg, PortId, RegisterInfo, RouterId, RouterInfo, SessionEpoch, Span, TraceId,
};

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u16>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..512)
        )
            .prop_map(|(r, p, trace, origin, frame)| Msg::Data {
                router: RouterId(r),
                port: PortId(p),
                span: Span {
                    trace: TraceId(trace),
                    origin_us: origin
                },
                frame
            }),
        (any::<u32>(), "[ -~]{0,64}").prop_map(|(r, line)| Msg::Console {
            router: RouterId(r),
            line
        }),
        (any::<u32>(), "[ -~]{0,128}").prop_map(|(r, output)| Msg::ConsoleReply {
            router: RouterId(r),
            output
        }),
        (any::<u32>(), any::<bool>()).prop_map(|(r, on)| Msg::SetPower {
            router: RouterId(r),
            on
        }),
        (any::<u32>(), any::<u16>(), any::<bool>()).prop_map(|(r, p, up)| Msg::SetLink {
            router: RouterId(r),
            port: PortId(p),
            up
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(seq, epoch)| Msg::Heartbeat { seq, epoch }),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..8).prop_map(|v| {
            Msg::RegisterAck(
                v.into_iter()
                    .map(|(l, g)| Assignment {
                        local_id: l,
                        router: RouterId(g),
                    })
                    .collect(),
            )
        }),
        (
            "[ -~]{0,32}",
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u32>(), 0..4)
        )
            .prop_map(|(pc_name, token, generation, ids)| {
                Msg::Register(RegisterInfo {
                    pc_name,
                    epoch: SessionEpoch { token, generation },
                    routers: ids
                        .into_iter()
                        .map(|id| RouterInfo {
                            local_id: id,
                            description: format!("router {id}"),
                            model: "7200".to_string(),
                            image: "r.png".to_string(),
                            ports: vec![],
                            console_com: None,
                        })
                        .collect(),
                })
            }),
    ]
}

proptest! {
    #[test]
    fn msg_encode_decode_identity(msg in arb_msg()) {
        prop_assert_eq!(Msg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn msg_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Msg::decode(&bytes);
    }

    #[test]
    fn framing_survives_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_msg(), 1..8),
        chunk_sizes in proptest::collection::vec(1usize..64, 1..64),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&FrameCodec::encode(m).unwrap());
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        let mut pos = 0;
        let mut chunk_iter = chunk_sizes.iter().cycle();
        while pos < wire.len() {
            let take = (*chunk_iter.next().unwrap()).min(wire.len() - pos);
            codec.feed(&wire[pos..pos + take]);
            pos += take;
            while let Some(m) = codec.next_msg().unwrap() {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    #[test]
    fn compressor_decompressor_stay_synchronized(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 14..256), 1..32)
    ) {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for frame in &frames {
            let encoded = enc.encode(frame);
            prop_assert_eq!(&dec.decode(&encoded).unwrap(), frame);
        }
    }

    /// Whatever the bytes and whatever the ring holds: `Err`, never a
    /// panic, and a rejected frame leaves the caller's buffer as it
    /// was. (That the ring is left alone too is checked where it can be
    /// seen, in `compress.rs`'s `decode_into_rejects_without_side_effects`.)
    #[test]
    fn decompressor_never_panics(
        warm in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..12),
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for frame in &warm {
            prop_assert_eq!(&dec.decode(&enc.encode(frame)).unwrap(), frame);
        }
        let _ = Decompressor::new().decode(&bytes);
        let mut out = b"kept".to_vec();
        if dec.decode_into(&bytes, &mut out).is_err() {
            prop_assert_eq!(&out, b"kept");
        }
    }
}
