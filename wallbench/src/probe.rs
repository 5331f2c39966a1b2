//! The measuring instrument: a probe *wire* made of two
//! [`rnl_device::device::Device`] implementations, a [`Source`] fronted
//! by one RIS and a [`Sink`] fronted by another, sharing one [`Wire`].
//!
//! The source stamps a sequence number and the frame's *due* time into
//! a valid UDP-in-IPv4-in-Ethernet frame; the sink checks every
//! delivered frame byte for byte, in order, exactly once, and records
//! `arrival − due` on the same monotonic clock. Open-loop latency is
//! therefore timed from when a frame should have left, so a stall in
//! the generator or the relay charges every frame it delays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use rnl_device::device::{Device, DeviceError, Emission, LinkState, PortIndex};
use rnl_net::addr::MacAddr;
use rnl_net::time::Instant;

use crate::trace::{SpanName, Tracer};

/// Monotonic wall clock shared by generator, probes and span recorder.
#[derive(Debug, Clone, Copy)]
pub struct Clock(std::time::Instant);

impl Clock {
    pub fn start() -> Clock {
        Clock(std::time::Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// The same instant on the µs virtual-time scale the RNL crates
    /// take (the binaries map wall time to it 1:1 as well).
    pub fn now(&self) -> Instant {
        Instant::from_micros(self.ns() / 1_000)
    }
}

/// SplitMix64: every benchmark input derives from `--seed` through it.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Ethernet + IPv4 + UDP headers: the stamp sits right behind them.
const STAMP_AT: usize = 14 + 20 + 8;
/// seq (8) + due ns (8) + check (4).
const STAMP_LEN: usize = 20;
const STAMP_MAGIC: u64 = 0x776c_6265_6e63_6821;
/// Smallest probe frame: headers + stamp, padded to the Ethernet minimum.
pub const MIN_FRAME: usize = 64;
/// Frames a source emits per `tick` at most, so one poll of the RIS
/// never monopolises the generator loop after a stall.
const MAX_BURST: usize = 256;

/// A probe frame of `len` bytes whose fill derives from `seed`. All
/// frames of one wire share it except for the stamp, which is what
/// makes the 1500 B workload "template-similar" for the compressor.
pub fn template(len: usize, seed: u64) -> Vec<u8> {
    assert!(len >= MIN_FRAME, "probe frames are at least {MIN_FRAME} B");
    let mut rng = SplitMix(seed);
    let payload: Vec<u8> = (0..len - STAMP_AT).map(|_| rng.next() as u8).collect();
    let mut frame = rnl_net::build::udp_frame(
        MacAddr::derived(0xb0b0, 0),
        MacAddr::derived(0xb0b1, 0),
        "10.99.0.1".parse().expect("literal address"),
        "10.99.0.2".parse().expect("literal address"),
        7,
        7,
        &payload,
        64,
    );
    // The stamp changes per frame; a zero UDP checksum means "not
    // computed" in IPv4, which keeps every stamped frame valid.
    frame[STAMP_AT - 2] = 0;
    frame[STAMP_AT - 1] = 0;
    frame
}

fn stamp(frame: &mut [u8], seq: u64, due_ns: u64) {
    let s = &mut frame[STAMP_AT..STAMP_AT + STAMP_LEN];
    s[..8].copy_from_slice(&seq.to_be_bytes());
    s[8..16].copy_from_slice(&due_ns.to_be_bytes());
    let check = (seq ^ due_ns ^ STAMP_MAGIC) as u32;
    s[16..].copy_from_slice(&check.to_be_bytes());
}

/// How the source is being driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drive {
    Idle,
    /// Open loop: frame `k` of the phase is due at `start + k·period`,
    /// whatever happened to the frames before it.
    Open {
        start_ns: u64,
        period_ns: u64,
        end_ns: u64,
        k: u64,
    },
    /// Closed loop: keep `in_flight` frames between source and sink.
    Closed {
        in_flight: u64,
        end_ns: u64,
    },
    /// Emit exactly this many frames, now.
    Count(u64),
}

struct SourceState {
    drive: Drive,
    template: Vec<u8>,
    next_seq: u64,
    /// Open-loop emission lateness (`emit − due`, ns) of this phase.
    late_ns: Vec<u32>,
}

/// One timed phase as the sink saw it, cut into equal windows by the
/// frames' due times.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    pub start_ns: u64,
    pub window_ns: u64,
    /// `arrival − due` in ns, per window.
    pub windows: Vec<Vec<u32>>,
}

struct SinkState {
    template: Vec<u8>,
    expected_seq: u64,
    mismatched: u64,
    first_mismatch: Option<String>,
    phase: Option<PhaseLog>,
}

/// State shared by the two ends of one probe wire and the benchmark.
pub struct Wire {
    clock: Clock,
    /// When set, the two ends open `gen.source` / `gen.sink` spans, so
    /// the RIS poll around them can subtract the probe's own time.
    tracer: Option<(Arc<Tracer>, SpanName, SpanName)>,
    /// Frames the sink verified; the closed-loop source reads it.
    delivered: AtomicU64,
    source: Mutex<SourceState>,
    sink: Mutex<SinkState>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Single-threaded benchmark: a poisoned lock means a probe method
    // panicked, and the panic is what should surface.
    m.lock().expect("probe state poisoned by an earlier panic")
}

impl Wire {
    pub fn new(
        clock: Clock,
        frame_len: usize,
        seed: u64,
        tracer: Option<&Arc<Tracer>>,
    ) -> Arc<Wire> {
        let template = template(frame_len, seed);
        Arc::new(Wire {
            clock,
            tracer: tracer.map(|t| (Arc::clone(t), t.name("gen.source"), t.name("gen.sink"))),
            delivered: AtomicU64::new(0),
            source: Mutex::new(SourceState {
                drive: Drive::Idle,
                template: template.clone(),
                next_seq: 0,
                late_ns: Vec::new(),
            }),
            sink: Mutex::new(SinkState {
                template,
                expected_seq: 0,
                mismatched: 0,
                first_mismatch: None,
                phase: None,
            }),
        })
    }

    /// The two devices to plug into the two RISes.
    pub fn ends(self: &Arc<Wire>, name: &str) -> (Box<dyn Device>, Box<dyn Device>) {
        (
            Box::new(Source {
                hostname: format!("{name}-src"),
                wire: Arc::clone(self),
            }),
            Box::new(Sink {
                hostname: format!("{name}-sink"),
                wire: Arc::clone(self),
            }),
        )
    }

    fn begin_phase(&self, start_ns: u64, end_ns: u64, windows: usize) {
        let window_ns = ((end_ns - start_ns) / windows as u64).max(1);
        lock(&self.sink).phase = Some(PhaseLog {
            start_ns,
            window_ns,
            windows: vec![Vec::new(); windows],
        });
        lock(&self.source).late_ns.clear();
    }

    /// Start an open-loop phase of `secs` seconds at `fps` frames/s,
    /// logged in `windows` equal windows. Returns the phase end (ns).
    pub fn start_open(&self, fps: u64, secs: f64, windows: usize) -> u64 {
        let start_ns = self.clock.ns();
        let end_ns = start_ns + (secs * 1e9) as u64;
        self.begin_phase(start_ns, end_ns, windows);
        lock(&self.source).drive = Drive::Open {
            start_ns,
            period_ns: 1_000_000_000 / fps,
            end_ns,
            k: 0,
        };
        end_ns
    }

    /// Start a closed-loop phase keeping `in_flight` frames outstanding.
    pub fn start_closed(&self, in_flight: u64, secs: f64, windows: usize) -> u64 {
        let start_ns = self.clock.ns();
        let end_ns = start_ns + (secs * 1e9) as u64;
        self.begin_phase(start_ns, end_ns, windows);
        lock(&self.source).drive = Drive::Closed { in_flight, end_ns };
        end_ns
    }

    /// Emit `n` frames on the source's next tick (no phase log).
    pub fn send_now(&self, n: u64) {
        lock(&self.source).drive = Drive::Count(n);
    }

    pub fn stop(&self) {
        lock(&self.source).drive = Drive::Idle;
    }

    /// Whether the source has nothing left to emit (an open-loop phase
    /// goes idle once its last due time has passed).
    pub fn idle(&self) -> bool {
        lock(&self.source).drive == Drive::Idle
    }

    /// Frames the source has emitted so far.
    pub fn sent(&self) -> u64 {
        lock(&self.source).next_seq
    }

    /// Frames the sink has verified so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Frames the sink rejected (corrupt, reordered, duplicated or
    /// following a gap), with the first rejection described.
    pub fn mismatched(&self) -> (u64, Option<String>) {
        let sink = lock(&self.sink);
        (sink.mismatched, sink.first_mismatch.clone())
    }

    /// Take the finished phase's latency windows and the source's
    /// lateness samples.
    pub fn take_phase(&self) -> (PhaseLog, Vec<u32>) {
        let log = lock(&self.sink).phase.take().unwrap_or_default();
        let late = std::mem::take(&mut lock(&self.source).late_ns);
        (log, late)
    }
}

/// The sending end of a probe wire.
pub struct Source {
    hostname: String,
    wire: Arc<Wire>,
}

/// The receiving, verifying end of a probe wire.
pub struct Sink {
    hostname: String,
    wire: Arc<Wire>,
}

fn emit(state: &mut SourceState, due_ns: u64, out: &mut Vec<Emission>) {
    let mut frame = state.template.clone();
    stamp(&mut frame, state.next_seq, due_ns);
    state.next_seq += 1;
    out.push(Emission::new(0, frame));
}

impl Source {
    fn due_frames(&self) -> Vec<Emission> {
        let mut out = Vec::new();
        let mut state = lock(&self.wire.source);
        let now = self.wire.clock.ns();
        match state.drive {
            Drive::Idle => {}
            Drive::Open {
                start_ns,
                period_ns,
                end_ns,
                mut k,
            } => {
                while out.len() < MAX_BURST {
                    let due = start_ns + k * period_ns;
                    if due > now || due >= end_ns {
                        break;
                    }
                    emit(&mut state, due, &mut out);
                    state
                        .late_ns
                        .push((now - due).min(u64::from(u32::MAX)) as u32);
                    k += 1;
                }
                state.drive = if start_ns + k * period_ns >= end_ns {
                    Drive::Idle
                } else {
                    Drive::Open {
                        start_ns,
                        period_ns,
                        end_ns,
                        k,
                    }
                };
            }
            Drive::Closed { in_flight, end_ns } => {
                if now >= end_ns {
                    state.drive = Drive::Idle;
                } else {
                    let delivered = self.wire.delivered.load(Ordering::Relaxed);
                    while out.len() < MAX_BURST && state.next_seq - delivered < in_flight {
                        emit(&mut state, now, &mut out);
                    }
                }
            }
            Drive::Count(n) => {
                for _ in 0..n {
                    emit(&mut state, now, &mut out);
                }
                state.drive = Drive::Idle;
            }
        }
        out
    }
}

impl Sink {
    fn verify(&self, frame: &[u8]) {
        let now = self.wire.clock.ns();
        let mut guard = lock(&self.wire.sink);
        let state = &mut *guard;
        let t = &state.template;
        let intact = frame.len() == t.len()
            && frame[..STAMP_AT] == t[..STAMP_AT]
            && frame[STAMP_AT + STAMP_LEN..] == t[STAMP_AT + STAMP_LEN..];
        let s = frame
            .get(STAMP_AT..STAMP_AT + STAMP_LEN)
            .unwrap_or(&[0; STAMP_LEN]);
        let seq = u64::from_be_bytes(s[..8].try_into().expect("8-byte slice"));
        let due = u64::from_be_bytes(s[8..16].try_into().expect("8-byte slice"));
        let check = u32::from_be_bytes(s[16..].try_into().expect("4-byte slice"));
        if !intact || check != (seq ^ due ^ STAMP_MAGIC) as u32 || seq != state.expected_seq {
            state.mismatched += 1;
            if state.first_mismatch.is_none() {
                state.first_mismatch = Some(format!(
                    "{}: got seq {seq} (expected {}), bytes intact: {intact}, len {}",
                    self.hostname,
                    state.expected_seq,
                    frame.len()
                ));
            }
            // Resynchronise past a gap so one loss is one mismatch, not
            // a mismatch for every frame behind it.
            if intact && seq > state.expected_seq {
                state.expected_seq = seq + 1;
            }
            return;
        }
        state.expected_seq += 1;
        if let Some(phase) = state.phase.as_mut() {
            let w = (due.saturating_sub(phase.start_ns) / phase.window_ns) as usize;
            if let Some(window) = phase.windows.get_mut(w) {
                window.push(now.saturating_sub(due).min(u64::from(u32::MAX)) as u32);
            }
        }
        self.wire.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

/// The management surface both ends share: one always-up port, always
/// powered, nothing to flash.
macro_rules! probe_device {
    () => {
        fn model(&self) -> &str {
            "wallbench probe"
        }
        fn hostname(&self) -> &str {
            &self.hostname
        }
        fn num_ports(&self) -> usize {
            1
        }
        fn powered(&self) -> bool {
            true
        }
        fn set_power(&mut self, _on: bool, _now: Instant) {}
        fn link_state(&self, _port: PortIndex) -> LinkState {
            LinkState::Up
        }
        fn set_link_state(&mut self, _port: PortIndex, _state: LinkState, _now: Instant) {}
        fn console(&mut self, line: &str, _now: Instant) -> String {
            format!("{}: {line}\n", self.hostname)
        }
        fn firmware(&self) -> String {
            "probe-1".to_string()
        }
        fn flash_firmware(&mut self, version: &str, _now: Instant) -> Result<(), DeviceError> {
            Err(DeviceError::UnknownFirmware(version.to_string()))
        }
    };
}

impl Device for Source {
    probe_device!();

    fn on_frame(&mut self, _port: PortIndex, _frame: &[u8], _now: Instant) -> Vec<Emission> {
        Vec::new()
    }

    fn tick(&mut self, _now: Instant) -> Vec<Emission> {
        match &self.wire.tracer {
            Some((tracer, source, _)) => tracer.span(*source, || self.due_frames()),
            None => self.due_frames(),
        }
    }
}

impl Device for Sink {
    probe_device!();

    fn on_frame(&mut self, _port: PortIndex, frame: &[u8], _now: Instant) -> Vec<Emission> {
        match &self.wire.tracer {
            Some((tracer, _, sink)) => tracer.span(*sink, || self.verify(frame)),
            None => self.verify(frame),
        }
        Vec::new()
    }

    fn tick(&mut self, _now: Instant) -> Vec<Emission> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire() -> (Arc<Wire>, Box<dyn Device>, Box<dyn Device>) {
        let w = Wire::new(Clock::start(), 64, 1, None);
        let (src, sink) = w.ends("t");
        (w, src, sink)
    }

    #[test]
    fn template_is_a_valid_frame_of_the_asked_length() {
        for len in [64, 1500] {
            let t = template(len, 9);
            assert_eq!(t.len(), len);
            assert!(rnl_net::build::classify(&t).is_ok());
        }
        assert_ne!(template(1500, 1), template(1500, 2));
        assert_eq!(template(1500, 1), template(1500, 1));
    }

    #[test]
    fn in_order_frames_verify_and_count() {
        let (w, mut src, mut sink) = wire();
        w.send_now(3);
        let frames = src.tick(Instant::EPOCH);
        assert_eq!(frames.len(), 3);
        for e in &frames {
            sink.on_frame(0, &e.frame, Instant::EPOCH);
        }
        assert_eq!((w.sent(), w.delivered()), (3, 3));
        assert_eq!(w.mismatched().0, 0);
    }

    #[test]
    fn corruption_duplication_and_reordering_are_rejected() {
        let (w, mut src, mut sink) = wire();
        w.send_now(4);
        let frames = src.tick(Instant::EPOCH);
        let mut corrupt = frames[0].frame.clone();
        *corrupt.last_mut().unwrap() ^= 1;
        sink.on_frame(0, &corrupt, Instant::EPOCH);
        sink.on_frame(0, &frames[0].frame, Instant::EPOCH);
        sink.on_frame(0, &frames[0].frame, Instant::EPOCH); // duplicate
        sink.on_frame(0, &frames[2].frame, Instant::EPOCH); // gap
        sink.on_frame(0, &frames[1].frame, Instant::EPOCH); // late
        sink.on_frame(0, &frames[3].frame, Instant::EPOCH);
        assert_eq!(w.delivered(), 2);
        assert_eq!(w.mismatched().0, 4);
    }

    #[test]
    fn closed_loop_keeps_the_window_full() {
        let (w, mut src, mut sink) = wire();
        w.start_closed(8, 10.0, 2);
        let first = src.tick(Instant::EPOCH);
        assert_eq!(first.len(), 8);
        assert!(src.tick(Instant::EPOCH).is_empty());
        sink.on_frame(0, &first[0].frame, Instant::EPOCH);
        assert_eq!(src.tick(Instant::EPOCH).len(), 1);
    }

    #[test]
    fn open_loop_stamps_due_times_on_schedule() {
        let (w, mut src, mut sink) = wire();
        w.start_open(1_000, 0.02, 2);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let frames = src.tick(Instant::EPOCH);
        assert_eq!(frames.len(), 20, "every frame due in 20 ms at 1 kfps");
        for e in &frames {
            sink.on_frame(0, &e.frame, Instant::EPOCH);
        }
        let (log, late) = w.take_phase();
        assert_eq!(late.len(), 20);
        assert_eq!(log.windows.iter().map(Vec::len).sum::<usize>(), 20);
        assert_eq!(log.windows[0].len(), 10);
        // Latency counts from the due time, so the sleep shows in it.
        assert!(log.windows[0][0] >= 10_000_000);
    }
}
