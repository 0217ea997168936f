//! # arest-obs
//!
//! Dependency-free observability for the AReST reproduction: the
//! metrics/tracing substrate every other crate instruments itself
//! with. The paper's measurement campaigns quantify their own
//! internals — probe budgets, response rates, coverage (TNT, the
//! SNMPv3 vendor study) — and this crate exposes the reproduction's
//! equivalents as first-class metrics instead of post-hoc prints.
//!
//! Three primitives, all lock-free on the hot path:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`
//!   (packets forwarded, probes sent, per-flag detections);
//! * [`Gauge`] — a signed level (`AtomicI64`) that can go up and down
//!   (worker-pool queue depth);
//! * [`Histogram`] — fixed log₂-scale buckets over `u64` samples
//!   (stage latencies in microseconds, units per worker), with a
//!   scoped-timer front end ([`ScopedTimer`]).
//!
//! Handles are created once through a [`Registry`] (usually the
//! process-wide [`global`] one) and cached by the instrumented code in
//! `LazyLock` statics; after that one registration, recording is a
//! relaxed atomic gated on the registry's enabled flag. **When the
//! registry is disabled — the default — every record degenerates to
//! one relaxed load and a taken-branch skip: no allocation, no
//! `Instant::now()`, no atomic write.** A regression test pins the
//! no-allocation property on the simnet probe path.
//!
//! Observability never perturbs results: metrics are write-only from
//! the pipeline's perspective, so an `AREST_OBS=1` run produces
//! byte-identical experiment outputs to an `AREST_OBS=0` run (asserted
//! by a test in `arest-experiments`).
//!
//! ## Naming scheme
//!
//! Metric names are dot-separated `crate.subsystem.metric` paths, e.g.
//! `simnet.drop.no_route` or `tnt.reveal.triggers`. Duration
//! histograms end in `.us` and record microseconds. The scheme is
//! documented for consumers in the repository README ("Observability").
//!
//! ## Snapshots
//!
//! [`Registry::snapshot`] captures every metric into an ordered
//! [`Snapshot`]; [`Snapshot::diff`] subtracts a baseline so tests can
//! assert on deltas ("this campaign sent exactly N probes") without
//! caring what ran before. `arest-experiments` renders a snapshot into
//! the `RUN_REPORT` artifact at the end of an `AREST_OBS=1` run.
//!
//! ## Tracing
//!
//! Alongside aggregates, each registry carries a [`Tracer`] of
//! hierarchical [`Span`]s — name, key/value fields, parentage, and
//! microsecond timing — finished spans landing in a sharded bounded
//! ring buffer (drop-oldest beyond [`DEFAULT_TRACE_CAPACITY`]). Spans
//! obey the same gate and the same no-alloc promise: a span created
//! while the registry is disabled is inert and [`Span::record`] on it
//! converts nothing. [`SpanContext`] is a `Copy` handle that crosses
//! thread and work-unit boundaries, so a campaign unit stolen by
//! another pool worker stays parented under its (AS, VP) campaign
//! span. [`to_chrome_trace`] and [`to_flamegraph`] export drained
//! records for Perfetto / `chrome://tracing` and flamegraph tooling;
//! [`SpanTree`] rebuilds the hierarchy in-process.
//!
//! ```
//! use arest_obs::Registry;
//!
//! let registry = Registry::new(); // enabled; `global()` obeys AREST_OBS
//! let probes = registry.counter("tnt.probes");
//! let before = registry.snapshot();
//! probes.add(3);
//! let delta = registry.snapshot().diff(&before);
//! assert_eq!(delta.counter("tnt.probes"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod registry;
mod snapshot;
mod timer;
mod tracing;

pub use export::{to_chrome_trace, to_flamegraph, write_json_string, SpanNode, SpanTree};
pub use metrics::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, BUCKETS};
pub use registry::{env_enabled, global, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use timer::ScopedTimer;
pub use tracing::{
    FieldValue, IntoFieldValue, Span, SpanContext, SpanRecord, Tracer, DEFAULT_TRACE_CAPACITY,
    TRACE_SHARDS,
};
