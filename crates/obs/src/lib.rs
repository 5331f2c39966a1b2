//! # rnl-obs — observability for Remote Network Labs
//!
//! The paper argues its scalability story (§4: route-server saturation,
//! sharding, template compression, L1 bypass) without instrumentation;
//! this crate gives the reproduction the measurement layer those claims
//! need. It is dependency-free and driven entirely by the simulation's
//! virtual clock, so every number it produces is deterministic.
//!
//! Five pieces:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms. Handles are `Arc`-shared atomics: incrementing and
//!   snapshotting never take a lock (registration of a *new* metric is
//!   the only locking operation). Snapshots are sorted by name and
//!   label set, so output is stable across runs.
//! * [`TraceId`] / [`Span`] — a per-frame trace identity stamped at RIS
//!   ingress and carried through the tunnel protocol, so one frame's
//!   hop-by-hop journey (RIS rx → encode → server relay → matrix
//!   hit/miss → RIS tx) can be reconstructed end to end.
//! * [`EventJournal`] — a bounded ring buffer of [`FrameEvent`]s, one
//!   journal per component; [`merge_trace`] stitches the per-component
//!   journals into a single time-ordered path for a trace.
//! * [`QuantileSketch`] — a deterministic, mergeable, fixed-memory
//!   streaming quantile sketch (p50/p90/p99/p999 with a documented
//!   rank-error bound), registered as `Quantile` series and rendered
//!   as Prometheus summaries.
//! * [`PerfPoint`] / [`FlightRecorder`] — hot-path phase timers
//!   (`rnl_perf_*_ns`) and a bounded ring of [`SlowOp`]s whose
//!   virtual-clock duration exceeded a per-class threshold, each
//!   carrying its [`TraceId`] for joining back to the hop trace.
//!
//! [`fnv1a64`] and [`mix64`] are the workspace's one copy of each
//! deterministic hash (journal checksums, ring placement, trace-id site
//! bits, session tokens, seeded streams all derive from them), and
//! [`lcg64`] the one seed-stepping generator.
//!
//! Exposition: [`render_prometheus`] renders a snapshot in the
//! Prometheus text format; the JSON form lives in `rnl-server`'s web
//! API (`GetMetrics`), next to the hand-rolled JSON codec.
//!
//! ## Metric naming
//!
//! `rnl_<component>_<quantity>_<unit-or-total>` with lowercase label
//! keys, e.g. `rnl_server_frames_unrouted_total{reason="no-session"}`
//! or `rnl_server_wire_latency_us{wire="r1p0-r2p0"}`. Histograms carry
//! explicit upper bounds; [`LATENCY_BUCKETS_US`] and [`SIZE_BUCKETS`]
//! are the standard ladders.

#![deny(unsafe_code)]

pub mod hash;
pub mod journal;
pub mod metrics;
pub mod profile;
pub mod quantile;
pub mod trace;

pub use hash::{fnv1a64, lcg64, mix64, GOLDEN_GAMMA};
pub use journal::{merge_trace, EventJournal, FrameEvent, Hop, MissReason};
pub use metrics::{
    counter_deltas, render_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, MetricPoint,
    MetricValue, MetricsRegistry, Quantile, Snapshot, LATENCY_BUCKETS_US, SIZE_BUCKETS,
};
pub use profile::{FlightRecorder, PerfPoint, PerfScope, SlowOp, DEFAULT_RECORDER_CAP};
pub use quantile::{QuantileSketch, QuantileSnapshot, DEFAULT_SKETCH_K, QUANTILE_LADDER};
pub use trace::{Span, TraceId, TraceIdGen};
