//! Per-frame trace identity, stamped at RIS ingress and carried through
//! the tunnel protocol.

/// Identity of one traced frame. `TraceId::NONE` (0) marks untraced
/// frames — e.g. server-generated traffic or frames from peers running
/// an older protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace.
    pub const NONE: TraceId = TraceId(0);

    /// True when this frame carries a real trace.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Trace context attached to a data message on the wire: the frame's
/// identity plus its virtual origin timestamp, letting any downstream
/// hop compute per-wire latency as `now - origin_us` on the shared
/// virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// The frame's trace identity.
    pub trace: TraceId,
    /// Virtual-clock microseconds at RIS ingress.
    pub origin_us: u64,
}

impl Span {
    /// No trace attached.
    pub const NONE: Span = Span {
        trace: TraceId::NONE,
        origin_us: 0,
    };

    /// True when this span carries a real trace.
    pub fn is_some(self) -> bool {
        self.trace.is_some()
    }
}

/// Deterministic trace-id allocator: a site-name hash in the high bits,
/// a sequence number in the low bits. Never yields `TraceId::NONE`.
#[derive(Debug, Clone)]
pub struct TraceIdGen {
    site_bits: u64,
    next_seq: u64,
}

impl TraceIdGen {
    /// Allocator for a named site (e.g. the RIS `pc_name`).
    pub fn new(site: &str) -> TraceIdGen {
        TraceIdGen {
            site_bits: crate::fnv1a64(site.as_bytes()) << 32,
            next_seq: 0,
        }
    }

    /// Allocate the next trace id.
    pub fn allocate(&mut self) -> TraceId {
        self.next_seq += 1;
        // Sequence in the low 32 bits; the +1 and mask keep the id
        // nonzero even after sequence wraparound.
        let id = self.site_bits | (self.next_seq & 0xffff_ffff);
        TraceId(if id == 0 { 1 } else { id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_nonzero_and_deterministic() {
        let mut a = TraceIdGen::new("site-a");
        let mut b = TraceIdGen::new("site-a");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = a.allocate();
            assert!(id.is_some());
            assert!(seen.insert(id));
            assert_eq!(id, b.allocate());
        }
    }

    #[test]
    fn different_sites_get_disjoint_ids() {
        let mut a = TraceIdGen::new("site-a");
        let mut b = TraceIdGen::new("site-b");
        for _ in 0..100 {
            assert_ne!(a.allocate(), b.allocate());
        }
    }

    #[test]
    fn span_none_is_not_some() {
        assert!(!Span::NONE.is_some());
        assert!(Span {
            trace: TraceId(9),
            origin_us: 0
        }
        .is_some());
    }
}
