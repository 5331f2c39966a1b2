//! Template packet compression (§4 of the paper).
//!
//! "Performance testing packets often look similar to one another. They
//! are often generated from the same template, where each packet may
//! have a slight different marking, for example, having a different
//! sequence number. By exploiting the similarities across packets, we
//! could achieve a high compression ratio."
//!
//! The encoder keeps a small ring of recently seen frames per stream.
//! Each new frame is diffed against every same-length frame in the ring;
//! if the densest match patches in fewer bytes than a literal, the frame
//! is sent as `(base index, byte patches)`. The decoder keeps an
//! identical ring (appending every decoded frame), so the two stay
//! synchronized as long as the stream is lossless and ordered — which
//! the TCP tunnel guarantees.

use std::collections::VecDeque;

/// Frames remembered as potential templates.
pub const RING_CAPACITY: usize = 8;

/// Encoding failure (decoder side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The encoded bytes do not parse.
    Malformed,
    /// A delta references a template the ring no longer holds —
    /// encoder/decoder desynchronization.
    UnknownTemplate,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Malformed => write!(f, "compressed frame malformed"),
            CompressError::UnknownTemplate => write!(f, "unknown template reference"),
        }
    }
}

impl std::error::Error for CompressError {}

const TAG_LITERAL: u8 = 0;
const TAG_DELTA: u8 = 1;

/// A delta's fixed part: tag, base index, u16 patch count.
const DELTA_HEADER: usize = 4;
/// A patch's fixed part: u16 offset, u16 length.
const PATCH_HEADER: usize = 4;
/// Equal bytes a patch run absorbs between two differing ones: carrying
/// them is cheaper than the header of another patch.
const MAX_GAP: usize = 2;

/// First index at or after `from` where the equal-length `base` and
/// `frame` differ. Eight bytes a step: the XOR of two little-endian
/// words is zero while they match, and its lowest set bit sits in the
/// first byte that does not.
fn next_diff(base: &[u8], frame: &[u8], from: usize) -> Option<usize> {
    let (base_words, base_tail) = base.get(from..)?.as_chunks::<8>();
    let (frame_words, frame_tail) = frame.get(from..)?.as_chunks::<8>();
    for (i, (b, f)) in base_words.iter().zip(frame_words).enumerate() {
        let diff = u64::from_le_bytes(*b) ^ u64::from_le_bytes(*f);
        if diff != 0 {
            return Some(from + i * 8 + (diff.trailing_zeros() / 8) as usize);
        }
    }
    let tail = from + base_words.len() * 8;
    let at = base_tail.iter().zip(frame_tail).position(|(b, f)| b != f)?;
    Some(tail + at)
}

/// True when every byte of `base[at..at + 8]` differs from its
/// counterpart in `frame` (false near the end, where no full word is
/// left).
fn all_eight_differ(base: &[u8], frame: &[u8], at: usize) -> bool {
    let word = |s: &[u8]| s.get(at..)?.first_chunk::<8>().copied();
    let (Some(b), Some(f)) = (word(base), word(frame)) else {
        return false;
    };
    let diff = u64::from_le_bytes(b) ^ u64::from_le_bytes(f);
    // The zero-byte test: borrowing out of a 0x00 byte sets its high
    // bit, and `!diff` keeps only bytes whose high bit was clear.
    diff.wrapping_sub(0x0101_0101_0101_0101) & !diff & 0x8080_8080_8080_8080 == 0
}

/// End (exclusive) of the patch run opened by the differing byte at
/// `start`: it absorbs gaps of up to [`MAX_GAP`] equal bytes and stops
/// after its last differing one.
fn run_end(base: &[u8], frame: &[u8], start: usize) -> usize {
    let mut last_diff = start;
    let mut at = start + 1;
    while at < frame.len() {
        if all_eight_differ(base, frame, at) {
            last_diff = at + 7;
            at += 8;
            continue;
        }
        if base.get(at) != frame.get(at) {
            last_diff = at;
        } else if at - last_diff > MAX_GAP {
            break;
        }
        at += 1;
    }
    last_diff + 1
}

/// Visit the patch runs of `frame` against the equal-length `base` as
/// `(start, end)`, in order, until `visit` returns false.
fn for_each_run(base: &[u8], frame: &[u8], mut visit: impl FnMut(usize, usize) -> bool) {
    let mut from = 0;
    while let Some(start) = next_diff(base, frame, from) {
        let end = run_end(base, frame, start);
        if !visit(start, end) {
            return;
        }
        from = end;
    }
}

/// Encoded size of `frame` as a delta against `base` when that is
/// below `limit`; gives up at the first run that reaches it.
fn delta_cost(base: &[u8], frame: &[u8], limit: usize) -> Option<usize> {
    let mut cost = DELTA_HEADER;
    for_each_run(base, frame, |start, end| {
        cost += PATCH_HEADER + (end - start);
        cost < limit
    });
    (cost < limit).then_some(cost)
}

/// The synchronized template ring used by both encoder and decoder.
#[derive(Debug, Default)]
pub struct TemplateRing {
    frames: VecDeque<Vec<u8>>,
}

impl TemplateRing {
    /// Remember `frame` as the newest template. A full ring recycles
    /// the evicted slot's buffer, so a steady stream of same-sized
    /// frames stops allocating once the ring has filled.
    fn push(&mut self, frame: &[u8]) {
        let evicted = if self.frames.len() == RING_CAPACITY {
            self.frames.pop_back()
        } else {
            None
        };
        let mut slot = evicted.unwrap_or_default();
        slot.clear();
        slot.extend_from_slice(frame);
        self.frames.push_front(slot);
    }
}

/// Per-stream encoder.
#[derive(Debug, Default)]
pub struct Compressor {
    ring: TemplateRing,
    bytes_in: u64,
    bytes_out: u64,
}

impl Compressor {
    /// Fresh encoder.
    pub fn new() -> Compressor {
        Compressor::default()
    }

    /// Encode a frame, appending to `out`. The encoding starts with a
    /// tag byte: literal frames pass through with one byte of overhead;
    /// template hits shrink to their byte diffs.
    ///
    /// The template is the ring frame with the cheapest delta, the most
    /// recent one on a tie. Each candidate is costed with the cheapest
    /// cost so far as its limit, which loses nothing: a candidate that
    /// reaches the limit could at best tie, and a tie goes to the
    /// earlier candidate. The first limit is the literal's size.
    pub fn encode_into(&mut self, frame: &[u8], out: &mut Vec<u8>) {
        let out_start = out.len();
        let mut best: Option<(usize, &[u8])> = None;
        let mut limit = frame.len() + 1;
        // Offsets and lengths travel as u16, so a longer frame goes out
        // as a literal. (A delta that beats the literal has fewer than
        // a fifth as many patches as the frame has bytes, so the u16
        // patch count cannot overflow either.)
        if frame.len() <= usize::from(u16::MAX) {
            for (idx, base) in self.ring.frames.iter().enumerate() {
                if base.len() != frame.len() {
                    continue;
                }
                if let Some(cost) = delta_cost(base, frame, limit) {
                    best = Some((idx, base));
                    limit = cost;
                }
            }
        }
        out.reserve(limit);
        match best {
            Some((idx, base)) => {
                out.extend_from_slice(&[TAG_DELTA, idx as u8, 0, 0]);
                let mut patches = 0u16;
                for_each_run(base, frame, |start, end| {
                    out.extend_from_slice(&(start as u16).to_be_bytes());
                    out.extend_from_slice(&((end - start) as u16).to_be_bytes());
                    out.extend_from_slice(&frame[start..end]);
                    patches += 1;
                    true
                });
                out[out_start + 2..out_start + DELTA_HEADER]
                    .copy_from_slice(&patches.to_be_bytes());
            }
            None => {
                out.push(TAG_LITERAL);
                out.extend_from_slice(frame);
            }
        }
        self.bytes_in += frame.len() as u64;
        self.bytes_out += (out.len() - out_start) as u64;
        self.ring.push(frame);
    }

    /// [`Compressor::encode_into`] into a fresh vector.
    pub fn encode(&mut self, frame: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(frame, &mut out);
        out
    }

    /// Cumulative compression ratio: input bytes / output bytes (> 1
    /// means the stream shrank).
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            return 1.0;
        }
        self.bytes_in as f64 / self.bytes_out as f64
    }

    /// (bytes in, bytes out).
    pub fn counters(&self) -> (u64, u64) {
        (self.bytes_in, self.bytes_out)
    }
}

/// Per-stream decoder, mirror of [`Compressor`].
#[derive(Debug, Default)]
pub struct Decompressor {
    ring: TemplateRing,
}

impl Decompressor {
    /// Fresh decoder.
    pub fn new() -> Decompressor {
        Decompressor::default()
    }

    /// Decode one encoded frame, appending it to `out` and to the
    /// template ring. On error neither changes: `out` keeps exactly
    /// what it held and the ring stays where the last good frame left
    /// it.
    pub fn decode_into(&mut self, encoded: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let out_start = out.len();
        if let Err(e) = self.expand(encoded, out) {
            out.truncate(out_start);
            return Err(e);
        }
        self.ring.push(&out[out_start..]);
        Ok(())
    }

    /// Append the frame `encoded` stands for to `out`; on error `out`
    /// may hold a partial frame.
    fn expand(&self, encoded: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let (&tag, rest) = encoded.split_first().ok_or(CompressError::Malformed)?;
        match tag {
            TAG_LITERAL => out.extend_from_slice(rest),
            TAG_DELTA => {
                let (&base_idx, rest) = rest.split_first().ok_or(CompressError::Malformed)?;
                let base = self
                    .ring
                    .frames
                    .get(base_idx as usize)
                    .ok_or(CompressError::UnknownTemplate)?;
                let out_start = out.len();
                out.extend_from_slice(base);
                let frame = &mut out[out_start..];
                if rest.len() < 2 {
                    return Err(CompressError::Malformed);
                }
                let count = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                let mut pos = 2;
                for _ in 0..count {
                    if rest.len() < pos + PATCH_HEADER {
                        return Err(CompressError::Malformed);
                    }
                    let offset = u16::from_be_bytes([rest[pos], rest[pos + 1]]) as usize;
                    let len = u16::from_be_bytes([rest[pos + 2], rest[pos + 3]]) as usize;
                    pos += PATCH_HEADER;
                    if rest.len() < pos + len || offset + len > frame.len() {
                        return Err(CompressError::Malformed);
                    }
                    frame[offset..offset + len].copy_from_slice(&rest[pos..pos + len]);
                    pos += len;
                }
                if pos != rest.len() {
                    return Err(CompressError::Malformed);
                }
            }
            _ => return Err(CompressError::Malformed),
        }
        Ok(())
    }

    /// [`Decompressor::decode_into`] into a fresh vector.
    pub fn decode(&mut self, encoded: &[u8]) -> Result<Vec<u8>, CompressError> {
        let mut out = Vec::new();
        self.decode_into(encoded, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One contiguous run of differing bytes, as the encoder this file
    /// replaced materialized it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Patch {
        offset: u16,
        bytes: Vec<u8>,
    }

    fn diff_patches(base: &[u8], frame: &[u8]) -> Vec<Patch> {
        debug_assert_eq!(base.len(), frame.len());
        let mut patches = Vec::new();
        let mut i = 0;
        while i < frame.len() {
            if base[i] != frame[i] {
                let start = i;
                // Extend the run; absorb gaps of up to 2 equal bytes to
                // keep patch-count overhead low.
                let mut end = i + 1;
                let mut gap = 0;
                let mut last_diff = i;
                while end < frame.len() && gap <= 2 {
                    if base[end] != frame[end] {
                        last_diff = end;
                        gap = 0;
                    } else {
                        gap += 1;
                    }
                    end += 1;
                }
                let run_end = last_diff + 1;
                patches.push(Patch {
                    offset: start as u16,
                    bytes: frame[start..run_end].to_vec(),
                });
                i = run_end;
            } else {
                i += 1;
            }
        }
        patches
    }

    fn patches_encoded_len(patches: &[Patch]) -> usize {
        // tag + base idx + u16 count + per patch (u16 offset + u16 len + bytes)
        4 + patches.iter().map(|p| 4 + p.bytes.len()).sum::<usize>()
    }

    /// The byte-at-a-time, `Vec<Patch>`-per-candidate encoder this file
    /// shipped before the word-at-a-time kernel, kept verbatim as the
    /// reference the kernel must match byte for byte (frames up to
    /// `u16::MAX` bytes; beyond that it truncated offsets).
    #[derive(Default)]
    struct OracleCompressor {
        ring: VecDeque<Vec<u8>>,
    }

    impl OracleCompressor {
        fn encode(&mut self, frame: &[u8]) -> Vec<u8> {
            let mut best: Option<(usize, Vec<Patch>)> = None;
            for (idx, base) in self.ring.iter().enumerate() {
                if base.len() != frame.len() {
                    continue;
                }
                let patches = diff_patches(base, frame);
                let cost = patches_encoded_len(&patches);
                match &best {
                    Some((_, existing)) if patches_encoded_len(existing) <= cost => {}
                    _ => best = Some((idx, patches)),
                }
            }
            let out = match best {
                Some((idx, patches)) if patches_encoded_len(&patches) < frame.len() + 1 => {
                    let mut out = Vec::with_capacity(patches_encoded_len(&patches));
                    out.push(TAG_DELTA);
                    out.push(idx as u8);
                    out.extend_from_slice(&(patches.len() as u16).to_be_bytes());
                    for p in &patches {
                        out.extend_from_slice(&p.offset.to_be_bytes());
                        out.extend_from_slice(&(p.bytes.len() as u16).to_be_bytes());
                        out.extend_from_slice(&p.bytes);
                    }
                    out
                }
                _ => {
                    let mut out = Vec::with_capacity(frame.len() + 1);
                    out.push(TAG_LITERAL);
                    out.extend_from_slice(frame);
                    out
                }
            };
            if self.ring.len() == RING_CAPACITY {
                self.ring.pop_back();
            }
            self.ring.push_front(frame.to_vec());
            out
        }
    }

    /// How a generated stream derives its next frame.
    #[derive(Debug, Clone)]
    enum Step {
        /// The template with a fresh 20-byte stamp (wallbench's probe).
        Stamp(Vec<u8>),
        /// The previous frame with single bytes flipped.
        Flips(Vec<(usize, u8)>),
        /// The previous frame with a 40-byte random run spliced in.
        Run(usize, Vec<u8>),
        /// The previous frame cut short.
        Truncate(usize),
        /// A fully random frame of one of a few recurring lengths.
        Random(usize, Vec<u8>),
        /// Back to the untouched template.
        Template,
    }

    fn step() -> impl Strategy<Value = Step> {
        let bytes = |n| proptest::collection::vec(any::<u8>(), n);
        prop_oneof![
            bytes(20..21).prop_map(Step::Stamp),
            proptest::collection::vec((any::<usize>(), any::<u8>()), 1..6).prop_map(Step::Flips),
            (any::<usize>(), bytes(40..41)).prop_map(|(at, run)| Step::Run(at, run)),
            any::<usize>().prop_map(Step::Truncate),
            (0usize..4, bytes(200..201)).prop_map(|(len, fill)| Step::Random(len, fill)),
            Just(Step::Template),
        ]
    }

    /// Expand steps into frames. Lengths recur (the template's, a few
    /// truncations, four random sizes), so the ring holds same-length
    /// and other-length candidates side by side.
    fn frames_of(template_len: usize, steps: &[Step]) -> Vec<Vec<u8>> {
        let template: Vec<u8> = (0..template_len).map(|i| (i * 7) as u8).collect();
        let mut prev = template.clone();
        let mut frames = Vec::new();
        for step in steps {
            let mut frame = prev.clone();
            match step {
                Step::Stamp(stamp) => {
                    frame = template.clone();
                    let at = 42.min(frame.len().saturating_sub(stamp.len()));
                    for (dst, src) in frame[at..].iter_mut().zip(stamp) {
                        *dst = *src;
                    }
                }
                Step::Flips(flips) => {
                    for (at, xor) in flips {
                        if let Some(b) = frame.get_mut(at % template_len.max(1)) {
                            *b ^= xor | 1;
                        }
                    }
                }
                Step::Run(at, run) => {
                    let at = at % frame.len().max(1);
                    for (dst, src) in frame[at..].iter_mut().zip(run) {
                        *dst = *src;
                    }
                }
                Step::Truncate(cut) => frame.truncate(frame.len() - (cut % 3) * frame.len() / 4),
                Step::Random(len, fill) => {
                    let len = [0, 9, 64, template_len][*len];
                    frame = fill.iter().copied().cycle().take(len).collect();
                    // `fill` is shorter than a long frame: break the
                    // period so the frame is not self-similar.
                    for (i, b) in frame.iter_mut().enumerate() {
                        *b = b.wrapping_add((i / fill.len()) as u8);
                    }
                }
                Step::Template => frame = template.clone(),
            }
            frames.push(frame.clone());
            prev = frame;
        }
        frames
    }

    proptest! {
        /// The kernel's output is the replaced encoder's, byte for
        /// byte, on every frame of every generated stream — and still
        /// round-trips through both decode entry points.
        #[test]
        fn kernel_matches_the_oracle_byte_for_byte(
            template_len in prop_oneof![0usize..80, 200usize..1600],
            steps in proptest::collection::vec(step(), 1..40),
        ) {
            let mut oracle = OracleCompressor::default();
            let mut enc = Compressor::new();
            let mut dec = Decompressor::new();
            let mut dec_into = Decompressor::new();
            let mut scratch = vec![0xEE; 3];
            for frame in frames_of(template_len, &steps) {
                let expected = oracle.encode(&frame);
                let encoded = enc.encode(&frame);
                prop_assert_eq!(&encoded, &expected, "frame of {} bytes", frame.len());
                prop_assert_eq!(&dec.decode(&encoded).unwrap(), &frame);
                scratch.truncate(3);
                dec_into.decode_into(&encoded, &mut scratch).unwrap();
                prop_assert_eq!(&scratch[..3], &[0xEE; 3][..]);
                prop_assert_eq!(&scratch[3..], &frame[..]);
            }
        }

        /// Untrusted bytes never panic the decoder, and a rejected
        /// frame leaves no trace: the caller's buffer and the ring read
        /// exactly as before, so the stream carries on.
        #[test]
        fn decode_into_rejects_without_side_effects(
            warm in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..10),
            garbage in proptest::collection::vec(any::<u8>(), 0..64),
            steer in any::<bool>(),
        ) {
            let mut enc = Compressor::new();
            let mut dec = Decompressor::new();
            for frame in &warm {
                prop_assert_eq!(&dec.decode(&enc.encode(frame)).unwrap(), frame);
            }
            // Half the inputs are steered at the delta parser proper.
            let mut bytes = garbage;
            if steer && bytes.len() >= 2 {
                bytes[0] = TAG_DELTA;
                bytes[1] %= RING_CAPACITY as u8 + 1;
            }
            let ring_before = dec.ring.frames.clone();
            let mut out = vec![0xEE; 5];
            if dec.decode_into(&bytes, &mut out).is_err() {
                prop_assert_eq!(&out, &vec![0xEE; 5]);
                prop_assert_eq!(&dec.ring.frames, &ring_before);
                // Still in step with its encoder.
                let next = vec![0x11; 30];
                prop_assert_eq!(dec.decode(&enc.encode(&next)).unwrap(), next);
            } else {
                prop_assert_eq!(&out[..5], &[0xEE; 5][..]);
                prop_assert_eq!(dec.ring.frames.front().map(Vec::as_slice), Some(&out[5..]));
            }
        }
    }

    /// Regression: offsets, lengths and the patch count are u16 on the
    /// wire, but a frame may be up to `codec::MAX_FRAME` (1 MiB) long.
    /// Two 70 000 B frames differing at offset 66 000 used to encode to
    /// a 9-byte delta whose offset had wrapped, decode to the wrong
    /// bytes without an error, and leave both rings out of step.
    #[test]
    fn frames_beyond_u16_offsets_go_out_as_literals() {
        let first = vec![0x5Au8; 70_000];
        let mut second = first.clone();
        second[66_000] = 0xA5;
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for frame in [&first, &second, &first] {
            let encoded = enc.encode(frame);
            assert_eq!(encoded[0], TAG_LITERAL);
            assert!(&dec.decode(&encoded).unwrap() == frame);
        }
        // The longest frame whose every offset fits still compresses.
        let mut edge = vec![0u8; usize::from(u16::MAX)];
        dec.decode(&enc.encode(&edge)).unwrap();
        edge[usize::from(u16::MAX) - 1] = 1;
        let encoded = enc.encode(&edge);
        assert_eq!(encoded.len(), DELTA_HEADER + PATCH_HEADER + 1);
        assert!(dec.decode(&encoded).unwrap() == edge);
    }

    /// A warmed-up encoder and decoder run on their recycled ring slots
    /// and the caller's buffers.
    #[test]
    fn ring_slots_are_recycled() {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        let (mut encoded, mut decoded) = (Vec::new(), Vec::new());
        let mut slots = Vec::new();
        for seq in 0..40u32 {
            let frame = template_frame(seq, 200);
            encoded.clear();
            decoded.clear();
            enc.encode_into(&frame, &mut encoded);
            dec.decode_into(&encoded, &mut decoded).unwrap();
            assert_eq!(decoded, frame);
            let mut now: Vec<*const u8> = enc.ring.frames.iter().map(|f| f.as_ptr()).collect();
            now.extend(dec.ring.frames.iter().map(|f| f.as_ptr()));
            now.sort();
            if seq as usize >= RING_CAPACITY {
                assert_eq!(now, slots, "frame {seq} allocated a new ring slot");
            }
            slots = now;
        }
    }

    fn template_frame(seq: u32, len: usize) -> Vec<u8> {
        let mut f = vec![0xa5u8; len];
        f[20..24].copy_from_slice(&seq.to_be_bytes());
        f
    }

    #[test]
    fn roundtrip_template_stream() {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for seq in 0..100 {
            let frame = template_frame(seq, 200);
            let encoded = enc.encode(&frame);
            assert_eq!(dec.decode(&encoded).unwrap(), frame);
        }
        assert!(
            enc.ratio() > 5.0,
            "template traffic should compress well: {}",
            enc.ratio()
        );
    }

    #[test]
    fn first_frame_is_literal() {
        let mut enc = Compressor::new();
        let frame = template_frame(0, 100);
        let encoded = enc.encode(&frame);
        assert_eq!(encoded[0], TAG_LITERAL);
        assert_eq!(encoded.len(), 101);
    }

    #[test]
    fn random_traffic_does_not_shrink_much_but_roundtrips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for _ in 0..50 {
            let len = rng.gen_range(60..300);
            let frame: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let encoded = enc.encode(&frame);
            assert_eq!(dec.decode(&encoded).unwrap(), frame);
        }
        assert!(
            enc.ratio() <= 1.01,
            "random traffic cannot compress: {}",
            enc.ratio()
        );
    }

    #[test]
    fn mixed_sizes_roundtrip() {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for (i, len) in [60usize, 1514, 60, 200, 1514, 60].iter().enumerate() {
            let frame = template_frame(i as u32, *len);
            let encoded = enc.encode(&frame);
            assert_eq!(dec.decode(&encoded).unwrap(), frame);
        }
    }

    #[test]
    fn desync_detected() {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        // Encoder builds up a ring the decoder never saw.
        let f0 = template_frame(0, 100);
        enc.encode(&f0);
        let encoded = enc.encode(&template_frame(1, 100));
        // This is a delta against a template the decoder lacks.
        assert_eq!(dec.decode(&encoded), Err(CompressError::UnknownTemplate));
    }

    #[test]
    fn malformed_input_rejected() {
        let mut dec = Decompressor::new();
        assert_eq!(dec.decode(&[]), Err(CompressError::Malformed));
        assert_eq!(dec.decode(&[9, 1, 2]), Err(CompressError::Malformed));
        // Delta with truncated patch table.
        assert_eq!(
            dec.decode(&[TAG_DELTA, 0]),
            Err(CompressError::UnknownTemplate)
        );
    }

    #[test]
    fn patch_gap_absorption_produces_few_patches() {
        let base = vec![0u8; 100];
        let mut frame = vec![0u8; 100];
        // Differences at 10, 12, 14 — gaps of 1 → absorbed into one run.
        frame[10] = 1;
        frame[12] = 1;
        frame[14] = 1;
        let patches = diff_patches(&base, &frame);
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].offset, 10);
        assert_eq!(patches[0].bytes.len(), 5);
    }
}
