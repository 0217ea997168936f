//! Instrumentation: cached handles into the global `arest-obs`
//! registry (probe budgets, revelation activity, pool scheduling).
//!
//! Handles register once inside the `LazyLock`; recording afterwards
//! is gate-checked relaxed atomics, free when `AREST_OBS` is off.

use arest_obs::{Counter, Gauge, Histogram, Tracer};
use std::sync::LazyLock;

/// The global registry's span tracer: stolen (AS, VP) campaign
/// units open spans through this handle (inert while `AREST_OBS` is
/// off).
pub(crate) static TRACER: LazyLock<Tracer> = LazyLock::new(|| arest_obs::global().tracer());

pub(crate) struct Metrics {
    /// `tnt.traces` — Paris traceroutes started (revelation sub-traces
    /// included).
    pub(crate) traces: Counter,
    /// `tnt.probes` — UDP traceroute probes sent.
    pub(crate) probes: Counter,
    /// `tnt.reveal.triggers` — hops whose hidden-hop estimate jumped
    /// (tunnel ending hops scheduled for revelation).
    pub(crate) reveal_triggers: Counter,
    /// `tnt.reveal.attempts` — revelation sub-traces launched.
    pub(crate) reveal_attempts: Counter,
    /// `tnt.reveal.revealed_hops` — interior hops spliced into traces.
    pub(crate) reveal_revealed_hops: Counter,
    /// `tnt.pool.batches` — pool batches (`run_dynamic` calls,
    /// `run_indexed` ones included).
    pub(crate) pool_batches: Counter,
    /// `tnt.pool.units` — work units scheduled across all batches.
    pub(crate) pool_units: Counter,
    /// `tnt.pool.queue_depth` — units currently waiting in the shared
    /// channel (a live level: back to zero once a batch drains).
    pub(crate) pool_queue_depth: Gauge,
    /// `tnt.pool.units_per_worker` — units each worker stole in one
    /// batch; the spread shows how well stealing balanced the load.
    pub(crate) pool_units_per_worker: Histogram,
}

pub(crate) static METRICS: LazyLock<Metrics> = LazyLock::new(|| {
    let registry = arest_obs::global();
    Metrics {
        traces: registry.counter("tnt.traces"),
        probes: registry.counter("tnt.probes"),
        reveal_triggers: registry.counter("tnt.reveal.triggers"),
        reveal_attempts: registry.counter("tnt.reveal.attempts"),
        reveal_revealed_hops: registry.counter("tnt.reveal.revealed_hops"),
        pool_batches: registry.counter("tnt.pool.batches"),
        pool_units: registry.counter("tnt.pool.units"),
        pool_queue_depth: registry.gauge("tnt.pool.queue_depth"),
        pool_units_per_worker: registry.histogram("tnt.pool.units_per_worker"),
    }
});
