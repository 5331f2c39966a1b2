//! Experiment E8 — §4 template packet compression, as a layer bench.
//!
//! "Performance testing packets often look similar to one another. …
//! By exploiting the similarities across packets, we could achieve a
//! high compression ratio."
//!
//! Measured, per frame and in steady state (ring full, buffers grown):
//! nanoseconds and heap allocations for `encode_into` and `decode_into`
//! — the calls the RIS and the relay make — at 64/512/1500 B on
//! (a) template traffic: one valid UDP frame whose bytes 42..62 carry a
//! changing 20-byte stamp, exactly what wallbench's probe sends on
//! `relay_bulk`, so `compress_encode/template_1500` here and
//! `tunnel.compress.encode_ns` there describe the same input (that
//! metric times the allocating `encode` wrapper: one `Vec` more); and
//! (b) incompressible random traffic. The shape: template traffic
//! encodes to a few dozen bytes whatever the frame size, for about the
//! cost of one pass over the frame; random traffic passes through at
//! ~1× with one byte of overhead after a costing pass per ring slot.
//! Neither allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rnl_device::traffgen::{StreamSpec, TrafficGen};
use rnl_net::addr::MacAddr;
use rnl_net::time::Duration;
use rnl_tunnel::compress::{Compressor, Decompressor};

/// The E22 counting allocator (`crates/server/tests/common`): every
/// allocation and reallocation in the process bumps one counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Frames per stream: 32 ring generations, so a pass is steady state.
const STREAM: usize = 256;

/// `STREAM` frames of `len` bytes that differ in a 20-byte stamp.
fn template_stream(len: usize) -> Vec<Vec<u8>> {
    let spec = StreamSpec {
        name: "bench".to_string(),
        port: 0,
        dst_mac: MacAddr::derived(9, 0),
        src_ip: "10.0.0.1".parse().expect("valid"),
        dst_ip: "10.0.0.2".parse().expect("valid"),
        src_port: 7000,
        dst_port: 7001,
        payload_len: len - 42,
        count: 1,
        interval: Duration::from_micros(1),
    };
    let template = TrafficGen::frame_for(&spec, MacAddr::derived(8, 0), 0);
    assert_eq!(template.len(), len);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    (0..STREAM)
        .map(|_| {
            let mut frame = template.clone();
            for b in &mut frame[42..62] {
                *b = rng.gen();
            }
            frame
        })
        .collect()
}

fn random_stream(len: usize) -> Vec<Vec<u8>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    (0..STREAM)
        .map(|_| (0..len).map(|_| rng.gen()).collect())
        .collect()
}

fn streams() -> Vec<(String, Vec<Vec<u8>>)> {
    let mut out = Vec::new();
    for len in [64, 512, 1500] {
        out.push((format!("template_{len}"), template_stream(len)));
        out.push((format!("random_{len}"), random_stream(len)));
    }
    out
}

/// Allocations per call of `step` over one pass of the stream.
fn allocs_per_frame(mut step: impl FnMut()) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..STREAM {
        step();
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / STREAM as f64
}

fn report_allocs(group: &str, label: &str, allocs: f64) {
    println!(
        "{:<50} {allocs:>12.2} allocs/frame",
        format!("{group}/{label}")
    );
}

fn encode_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_encode");
    for (label, frames) in streams() {
        let mut enc = Compressor::new();
        let mut out = Vec::new();
        let mut next = 0;
        let mut encode = || {
            out.clear();
            enc.encode_into(std::hint::black_box(&frames[next % STREAM]), &mut out);
            next += 1;
            std::hint::black_box(out.len());
        };
        group.bench_function(BenchmarkId::from_parameter(&label), |b| b.iter(&mut encode));
        report_allocs("compress_encode", &label, allocs_per_frame(&mut encode));
    }
    group.finish();
}

fn decode_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_decode");
    for (label, frames) in streams() {
        // The stream wraps, so its encoding must too: encode two
        // passes and replay the second, whose every delta refers to a
        // ring the decoder holds at that point of any later pass.
        let mut enc = Compressor::new();
        let encoded: Vec<Vec<u8>> = (0..2 * STREAM)
            .map(|i| enc.encode(&frames[i % STREAM]))
            .skip(STREAM)
            .collect();
        let mut dec = Decompressor::new();
        for frame in &frames {
            dec.decode(&Compressor::new().encode(frame))
                .expect("literal");
        }
        for (bytes, frame) in encoded.iter().zip(&frames) {
            assert_eq!(&dec.decode(bytes).expect("in sync"), frame);
        }
        let mut out = Vec::new();
        let mut next = 0;
        let mut decode = || {
            out.clear();
            dec.decode_into(std::hint::black_box(&encoded[next % STREAM]), &mut out)
                .expect("in sync");
            next += 1;
            std::hint::black_box(out.len());
        };
        group.bench_function(BenchmarkId::from_parameter(&label), |b| b.iter(&mut decode));
        report_allocs("compress_decode", &label, allocs_per_frame(&mut decode));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(300));
    targets = encode_cost, decode_cost
}
criterion_main!(benches);
