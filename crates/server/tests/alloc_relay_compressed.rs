//! The §4 half of `alloc_relay.rs`: a template-compressed frame costs
//! the relay what a plain one does — **zero steady-state heap
//! allocations per frame** through [`RouteServer::poll`], both when it
//! leaves as plain `Data` and when the server compresses it again
//! toward the RIS.
//!
//! Own file, single test: the allocator count is process-global.

mod common;

use rnl_obs::{Span, TraceIdGen};
use rnl_server::RouteServer;
use rnl_tunnel::compress::Compressor;
use rnl_tunnel::msg::{Msg, PortId, RouterId};

/// `total` compressed data frames from router 0 port 0: a 1500 B
/// template with a changing 20-byte stamp (wallbench's `relay_bulk`
/// probe), so all but the first are deltas against the ring.
fn compressed_stream(total: usize) -> Vec<Vec<u8>> {
    let mut gen = TraceIdGen::new("alloc");
    let mut compressor = Compressor::new();
    let mut frame = vec![0x42u8; 1500];
    (0..total as u64)
        .map(|seq| {
            for (i, b) in frame[42..62].iter_mut().enumerate() {
                *b = (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 8 * 8)) as u8;
            }
            Msg::DataCompressed {
                router: RouterId(0),
                port: PortId(0),
                span: Span {
                    trace: gen.allocate(),
                    origin_us: 0,
                },
                encoded: compressor.encode(&frame),
            }
            .encode()
        })
        .collect()
}

#[test]
fn steady_state_compressed_relay_allocates_nothing_per_frame() {
    const TOTAL: usize = 10_000;
    const WINDOW: u64 = 256;

    for downstream in [false, true] {
        let mut rig = common::warmed_rig(compressed_stream(TOTAL), |server: &mut RouteServer| {
            server.set_compress_downstream(downstream)
        });
        let (relayed, allocations) = rig.relay(WINDOW);
        assert_eq!(
            allocations, 0,
            "compress_downstream={downstream}: steady-state relay allocated \
             {allocations} times over {relayed} frames"
        );
        let stats = rig.server.stats();
        assert!(stats.frames_routed >= common::WARM + WINDOW);
        assert_eq!(stats.frames_unrouted, 0, "every delta found its template");
        assert_eq!(stats.bytes_relayed, stats.frames_routed * 1500);
    }
}
