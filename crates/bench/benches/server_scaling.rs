//! Experiment E9 — §4 route-server scaling.
//!
//! "We funnel all traffic through the central route server in the
//! initial release, so the route server can easily become the
//! bottleneck. To scale the route server … since the routing matrices
//! between different users do not overlap, we can have one route server
//! per user."
//!
//! Measured: wall-clock time for every one of {1, 2, 4, 8} concurrent
//! labs to relay a fixed number of frames, when (a) all labs funnel
//! through ONE route server on one thread, vs (b) one route-server
//! shard per lab, each on its own thread. The shape to reproduce: the
//! central funnel's time grows ~linearly with lab count; shards stay
//! near-flat until cores run out.
//!
//! NOTE: on a single-core host (such as the container this repository
//! was developed in) the shard threads serialize, so both curves grow
//! linearly and the comparison degenerates to "equal total work, no
//! contention penalty". The per-user servers are separate values with
//! no shared state, so isolation holds by construction; the wall-clock
//! speedup needs real cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rnl_bench::{bench_frame, MultiRelayRig, RelayRig};

const ROUNDS: usize = 400;
const LAB_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn run_central(k: usize, frame: &[u8]) {
    let mut rig = MultiRelayRig::new(k, 500);
    rig.pump(ROUNDS, frame);
}

fn run_sharded(k: usize, frame: &[u8]) {
    let handles: Vec<std::thread::JoinHandle<()>> = (0..k)
        .map(|i| {
            let frame = frame.to_vec();
            std::thread::spawn(move || {
                let mut rig = RelayRig::new(600 + i as u64);
                for _ in 0..ROUNDS {
                    rig.relay_one(&frame);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("shard");
    }
}

fn scaling(c: &mut Criterion) {
    let frame = bench_frame(512);
    let mut group = c.benchmark_group("route_server_scaling");
    for k in LAB_COUNTS {
        group.throughput(Throughput::Elements((ROUNDS * k) as u64));
        group.bench_with_input(BenchmarkId::new("central_funnel", k), &k, |b, &k| {
            b.iter(|| run_central(std::hint::black_box(k), &frame));
        });
        group.bench_with_input(BenchmarkId::new("per_user_shards", k), &k, |b, &k| {
            b.iter(|| run_sharded(std::hint::black_box(k), &frame));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = scaling
}
criterion_main!(benches);
