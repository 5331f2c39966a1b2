//! Proves the tentpole claim: steady-state relay through
//! [`RouteServer::poll`] performs **zero per-frame heap allocations**.
//!
//! After a warm-up long enough for every scratch buffer, metric
//! series, quantile level and journal ring to reach capacity, relaying
//! a further burst of frames must not allocate at all. The counting
//! allocator and the scripted transports are in `common`.
//!
//! This file deliberately holds a single test: the allocator count is
//! process-global, and a concurrent test thread would pollute it.

mod common;

use rnl_obs::{Span, TraceIdGen};
use rnl_tunnel::msg::{Msg, PortId, RouterId};

#[test]
fn steady_state_relay_allocates_nothing_per_frame() {
    const TOTAL: usize = 10_000;
    const WINDOW: u64 = 256;

    let mut gen = TraceIdGen::new("alloc");
    let payload = vec![0x42u8; 256];
    let frames = (0..TOTAL)
        .map(|_| {
            Msg::Data {
                router: RouterId(0),
                port: PortId(0),
                span: Span {
                    trace: gen.allocate(),
                    origin_us: 0,
                },
                frame: payload.clone(),
            }
            .encode()
        })
        .collect();
    let mut rig = common::warmed_rig(frames, |_| {});

    let (relayed, allocations) = rig.relay(WINDOW);
    assert_eq!(
        allocations, 0,
        "steady-state relay allocated {allocations} times over {relayed} frames"
    );
    // And the frames really took the zero-copy path end to end.
    assert!(rig.server.stats().frames_routed >= common::WARM + WINDOW);
}
