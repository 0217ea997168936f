//! Instrumentation: cached handles into the global `arest-obs`
//! registry for the ledger's three verbs.
//!
//! Handles register once inside the `LazyLock`; recording afterwards
//! is gate-checked relaxed atomics, free when `AREST_OBS` is off.

use arest_obs::{Counter, Histogram, Tracer};
use std::sync::LazyLock;

/// The global registry's span tracer: `ledger.commit` and
/// `ledger.diff` spans open through this handle (inert while
/// `AREST_OBS` is off).
pub(crate) static TRACER: LazyLock<Tracer> = LazyLock::new(|| arest_obs::global().tracer());

pub(crate) struct Metrics {
    /// `ledger.commits` — snapshots committed.
    pub(crate) commits: Counter,
    /// `ledger.loads` — snapshots loaded (full payload decodes).
    pub(crate) loads: Counter,
    /// `ledger.diffs` — deltas computed.
    pub(crate) diffs: Counter,
    /// `ledger.errors` — typed load/commit failures surfaced to
    /// callers (corruption, serial skew, I/O).
    pub(crate) errors: Counter,
    /// `ledger.snapshot.bytes` — committed file sizes (header +
    /// payload).
    pub(crate) snapshot_bytes: Histogram,
    /// `ledger.commit.us` — encode + write + rename latency.
    pub(crate) commit_us: Histogram,
    /// `ledger.load.us` — read + verify + decode latency.
    pub(crate) load_us: Histogram,
    /// `ledger.diff.us` — two reads, verifications and payload parses
    /// plus the delta computation.
    pub(crate) diff_us: Histogram,
    /// `ledger.encode.us` — snapshot encoding latency, the part of a
    /// commit before the write.
    pub(crate) encode_us: Histogram,
    /// `ledger.delta.us` — delta computation latency alone, the part
    /// of a diff after both runs are read and parsed.
    pub(crate) delta_us: Histogram,
}

pub(crate) static METRICS: LazyLock<Metrics> = LazyLock::new(|| {
    let registry = arest_obs::global();
    Metrics {
        commits: registry.counter("ledger.commits"),
        loads: registry.counter("ledger.loads"),
        diffs: registry.counter("ledger.diffs"),
        errors: registry.counter("ledger.errors"),
        snapshot_bytes: registry.histogram("ledger.snapshot.bytes"),
        commit_us: registry.histogram("ledger.commit.us"),
        load_us: registry.histogram("ledger.load.us"),
        diff_us: registry.histogram("ledger.diff.us"),
        encode_us: registry.histogram("ledger.encode.us"),
        delta_us: registry.histogram("ledger.delta.us"),
    }
});

/// Records `elapsed` microseconds on `hist`, saturating like the rest
/// of the suite's duration metrics.
pub(crate) fn record_us(hist: &Histogram, elapsed: std::time::Duration) {
    hist.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
}
