//! Spans and allocation counts, recorded from the benchmark's own files
//! *around* the public calls into each layer (spans inside the crates
//! are a later change).
//!
//! A span is `{name, start, end, parent, batch}`; the spans of one turn
//! of the benchmark-owned loop share a batch id. A layer's *self* time
//! is its span minus the part its child spans cover. Totals are kept
//! for every span; the spans themselves are kept in memory up to a cap
//! and written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::probe::Clock;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed increment of a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) this process has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Spans kept verbatim; later ones only add to the totals.
const SPAN_CAP: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: usize,
    parent: Option<usize>,
    batch: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Running totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    /// Σ (end − start).
    pub total_ns: u64,
    /// Σ time covered by direct child spans.
    pub child_ns: u64,
    /// Σ allocations made while the span was open, children included.
    pub allocs: u64,
    pub child_allocs: u64,
}

impl Totals {
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }

    pub fn self_allocs(&self) -> u64 {
        self.allocs - self.child_allocs
    }
}

struct Open {
    name: usize,
    start_ns: u64,
    start_allocs: u64,
    /// Index in `spans`, when the span is being kept.
    kept: Option<usize>,
    child_ns: u64,
    child_allocs: u64,
}

#[derive(Default)]
struct State {
    names: Vec<&'static str>,
    totals: Vec<Totals>,
    spans: Vec<Span>,
    stack: Vec<Open>,
    batch: u64,
}

/// A registered span name (see [`Tracer::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(usize);

/// Span recorder. Disabled, every call is one branch; that is the
/// "tracing off" side of `trace.overhead_pct`. Shared by reference with
/// the probe devices, which open child spans from inside `Ris::poll`.
pub struct Tracer {
    clock: Clock,
    enabled: bool,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(clock: Clock, enabled: bool) -> Tracer {
        // Room for every kept span up front: the recorder must not
        // allocate inside a span it is charging allocations to.
        let capacity = if enabled { SPAN_CAP } else { 0 };
        Tracer {
            clock,
            enabled,
            state: Mutex::new(State {
                spans: Vec::with_capacity(capacity),
                stack: Vec::with_capacity(8),
                ..State::default()
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer state poisoned by an earlier panic")
    }

    /// Start the next batch: one turn of the benchmark-owned loop.
    pub fn next_batch(&self) {
        if self.enabled {
            self.state().batch += 1;
        }
    }

    /// Register a span name once, outside the timed loop.
    pub fn name(&self, name: &'static str) -> SpanName {
        let mut s = self.state();
        SpanName(match s.names.iter().position(|&n| n == name) {
            Some(id) => id,
            None => {
                s.names.push(name);
                s.totals.push(Totals::default());
                s.names.len() - 1
            }
        })
    }

    /// Open a span; its parent is whatever span is open now.
    pub fn enter(&self, SpanName(id): SpanName) {
        if !self.enabled {
            return;
        }
        let mut s = self.state();
        let start_allocs = allocations();
        let kept = (s.spans.len() < SPAN_CAP).then(|| {
            let parent = s.stack.last().and_then(|open| open.kept);
            let batch = s.batch;
            s.spans.push(Span {
                name: id,
                parent,
                batch,
                start_ns: 0,
                end_ns: 0,
            });
            s.spans.len() - 1
        });
        // Read the clock last, so the bookkeeping above is charged to
        // the parent, not to this span.
        let start_ns = self.clock.ns();
        if let Some(i) = kept {
            s.spans[i].start_ns = start_ns;
        }
        s.stack.push(Open {
            name: id,
            start_ns,
            start_allocs,
            kept,
            child_ns: 0,
            child_allocs: 0,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.clock.ns();
        let end_allocs = allocations();
        let mut s = self.state();
        let Some(open) = s.stack.pop() else {
            return;
        };
        let (dur, allocs) = (end_ns - open.start_ns, end_allocs - open.start_allocs);
        if let Some(i) = open.kept {
            s.spans[i].end_ns = end_ns;
        }
        let t = &mut s.totals[open.name];
        t.count += 1;
        t.total_ns += dur;
        t.child_ns += open.child_ns;
        t.allocs += allocs;
        t.child_allocs += open.child_allocs;
        if let Some(parent) = s.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += allocs;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: SpanName, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn totals(&self, name: &str) -> Totals {
        let s = self.state();
        s.names
            .iter()
            .position(|&n| n == name)
            .map(|id| s.totals[id])
            .unwrap_or_default()
    }

    /// Write the kept spans and the per-name totals as one JSON file.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.render()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    fn render(&self) -> String {
        let s = self.state();
        let mut text = String::from("{\"totals\":{");
        for (id, name) in s.names.iter().enumerate() {
            let t = s.totals[id];
            text.push_str(&format!(
                "{}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"self_allocs\":{}}}",
                if id == 0 { "" } else { "," },
                t.count,
                t.total_ns,
                t.self_ns(),
                t.self_allocs()
            ));
        }
        text.push_str(&format!(
            "}},\"spans_kept\":{},\"spans\":[\n",
            s.spans.len()
        ));
        for (i, span) in s.spans.iter().enumerate() {
            text.push_str(&format!(
                "{}{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"batch\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.names[span.name],
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.batch
            ));
        }
        text.push_str("\n]}\n");
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let tracer = Tracer::new(Clock::start(), true);
        let (o, i) = (tracer.name("outer"), tracer.name("inner"));
        tracer.next_batch();
        tracer.span(o, || {
            tracer.span(i, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tracer.span(i, || ());
        });
        let (outer, inner) = (tracer.totals("outer"), tracer.totals("inner"));
        assert_eq!((outer.count, inner.count), (1, 2));
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.child_ns, inner.total_ns);
        assert!(outer.self_ns() < outer.total_ns - 5_000_000 + 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(Clock::start(), false);
        tracer.span(tracer.name("x"), || ());
        assert_eq!(tracer.totals("x").count, 0);
    }

    #[test]
    fn allocations_inside_a_span_are_counted() {
        let tracer = Tracer::new(Clock::start(), true);
        tracer.span(tracer.name("alloc"), || std::hint::black_box(vec![0u8; 64]));
        assert!(tracer.totals("alloc").self_allocs() >= 1);
    }

    #[test]
    fn written_trace_names_parents() {
        let tracer = Tracer::new(Clock::start(), true);
        let (a, b) = (tracer.name("a"), tracer.name("b"));
        tracer.span(a, || tracer.span(b, || ()));
        let json = rnl_server::json::Json::parse(&tracer.render()).unwrap();
        let spans = json.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
    }
}
