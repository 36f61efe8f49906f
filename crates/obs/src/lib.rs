#![warn(missing_docs)]

//! `esse-obs` — structured observability for the ESSE MTC stack.
//!
//! The paper's systems story (§5.2.1) is told through observed
//! timelines: pert CPU utilization jumping from ~20% to ~100% when
//! inputs were prestaged, Condor's 10-20% dispatch-latency penalty,
//! the pipeline draining as the ensemble converges. Post-hoc aggregates
//! (`esse-mtc::metrics`) cannot show any of that; this crate records
//! the underlying events so the narrative becomes measured data.
//!
//! Pieces:
//!
//! * [`Recorder`] — the sink trait engines hold (`&dyn Recorder`):
//!   span timers (RAII guards via [`RecorderExt::span`] or explicit
//!   `begin_at`/`end_at` pairs on an engine-owned clock), monotonic
//!   counters, point instants, and log-bucketed latency histograms;
//! * [`RingRecorder`] — the lock-light bounded backend: per-thread
//!   shards, drained on flush, drop-oldest on overflow;
//! * [`NullRecorder`] — the default backend; `enabled() == false`
//!   collapses every instrumented hot path to a branch;
//! * [`Trace`] — the drained result: time-sorted events, span
//!   matching, counters, histograms;
//! * [`timeline`] — per-worker busy timelines and
//!   [`timeline::utilization`] over a sliding window (the §5.2.1 plot);
//! * [`export`] — JSONL and Chrome trace-event serialization
//!   (`chrome://tracing`, Perfetto);
//! * [`json`] — dependency-free JSON escaping, a strict validator, and
//!   a small value parser for re-loading exported traces;
//! * [`analyze`] — trace analytics: per-phase breakdowns, queue-wait
//!   decomposition, windowed throughput, stragglers, the critical path
//!   and per-layer lane groups, from events alone;
//! * [`crc`] — the workspace's one CRC-32, used by every checksummed
//!   format from span batches here up to the journal and the wire;
//! * [`codec`] — the one byte reader/writer, sealed envelope and stream
//!   frame those formats are all built from;
//! * [`registry`] — live named metrics (counters/gauges/histograms)
//!   with Prometheus-text and JSON exposition. A run's progress is read
//!   from these and from [`analyze`], not from a second live copy.
//!
//! One schema serves every execution layer: the real-thread MTC engine
//! and the bench harnesses stamp wall-clock nanoseconds, the
//! discrete-event simulator stamps virtual-clock nanoseconds, and every
//! consumer downstream (exporters, timelines, tests) is agnostic.

pub mod analyze;
pub mod codec;
pub mod crc;
pub mod event;
pub mod export;
pub mod fleet;
pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod timeline;
pub mod trace;

pub use analyze::{LoadedTrace, RunAnalysis};
pub use event::{ArgValue, Event, EventKind, Lane};
pub use fleet::{MergeReport, SkewEstimator, SpanBatch};
pub use hist::LogHistogram;
pub use recorder::{NullRecorder, Recorder, RecorderExt, SpanGuard, NULL};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
pub use ring::RingRecorder;
pub use trace::{Span, Trace};
