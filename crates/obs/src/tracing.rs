//! Hierarchical spans with explicit cross-thread context propagation.
//!
//! A [`Span`] is a named, timed scope with optional key/value fields,
//! arranged into a tree through parent ids. Spans are created through
//! a [`Tracer`] handle (obtained from [`crate::Registry::tracer`]) and
//! recorded — at *drop* time, when the duration is known — into a
//! sharded bounded ring buffer inside the owning registry.
//!
//! The same enabled gate that guards the metric primitives guards
//! spans: **when the registry is disabled, creating a span performs no
//! allocation and never reads the clock** — it returns an inert
//! handle whose `record`/`child`/drop are no-ops. Field values are
//! converted lazily (see [`IntoFieldValue`]), so even passing a
//! `&str` field to a disabled span allocates nothing.
//!
//! ## Cross-worker propagation
//!
//! A [`SpanContext`] is a `Copy` token naming a span. It exists so a
//! parent/child edge can cross a thread boundary explicitly: the
//! submitting thread captures `span.context()` into a work unit, and
//! whichever pool worker steals the unit opens its own span with
//! [`Tracer::span_with_parent`]. The `arest_tnt` campaign scheduler
//! uses exactly this to keep an `(AS, VP)` unit parented under its
//! campaign span no matter which worker ran it.
//!
//! ## Bounds
//!
//! Finished spans land in one of [`TRACE_SHARDS`] rings (picked by
//! span id, so concurrent workers rarely contend on one lock). Each
//! ring is bounded; when full, the **oldest** record in that shard is
//! evicted and counted in [`Tracer::dropped`]. The default total
//! capacity is [`DEFAULT_TRACE_CAPACITY`] spans
//! ([`crate::Registry::set_trace_capacity`] resizes it).
//!
//! ```
//! use arest_obs::Registry;
//!
//! let registry = Registry::new();
//! let tracer = registry.tracer();
//! let mut campaign = tracer.span("campaign");
//! campaign.record("asn", 65_001_u64);
//! let ctx = campaign.context(); // Copy — send it to a worker
//! {
//!     let mut unit = tracer.span_with_parent("campaign.unit", ctx);
//!     unit.record("vp", "vp-a");
//! } // unit recorded here
//! drop(campaign);
//! let records = tracer.take_records();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[1].parent, records[0].id);
//! ```

use arest_conc::atomic::{AtomicU64, AtomicUsize, Ordering};
use arest_conc::sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash as _, Hasher as _};
// The gate is deliberately a std atomic — see the note in `metrics.rs`.
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Number of independent ring-buffer shards finished spans land in.
pub const TRACE_SHARDS: usize = 8;

/// Default total span capacity across all shards. Oldest records are
/// evicted (and counted) past this bound.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// One span field value. Kept as a small enum (not a string) so
/// numeric fields render naturally in the exporters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned integer: a count, size, index or identifier.
    U64(u64),
    /// Text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => f.write_str(v),
        }
    }
}

/// Lazy conversion into a [`FieldValue`].
///
/// [`Span::record`] takes `impl IntoFieldValue` and only performs the
/// conversion when the span is actually recording — the trait is what
/// keeps `span.record("vp", name)` allocation-free on a disabled
/// registry even for string values.
pub trait IntoFieldValue {
    /// Performs the conversion.
    fn into_field_value(self) -> FieldValue;
}

impl IntoFieldValue for u64 {
    fn into_field_value(self) -> FieldValue {
        FieldValue::U64(self)
    }
}

impl IntoFieldValue for u32 {
    fn into_field_value(self) -> FieldValue {
        FieldValue::U64(u64::from(self))
    }
}

impl IntoFieldValue for usize {
    fn into_field_value(self) -> FieldValue {
        FieldValue::U64(self as u64)
    }
}

impl IntoFieldValue for &str {
    fn into_field_value(self) -> FieldValue {
        FieldValue::Str(self.to_string())
    }
}

/// One finished span, as stored in the ring buffer and consumed by
/// the exporters ([`to_chrome_trace`](crate::to_chrome_trace),
/// [`to_flamegraph`](crate::to_flamegraph), [`SpanTree`](crate::SpanTree)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Parent span id; 0 for a root span.
    pub parent: u64,
    /// Span name (static, dot-separated like metric names).
    pub name: &'static str,
    /// Key/value fields in the order they were recorded.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Start time, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// A stable hash of the thread that *opened* the span — the
    /// worker that did the work, under work stealing.
    pub tid: u64,
}

/// A `Copy` token naming a span, for explicit parent/child edges
/// across thread (pool work-unit) boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    pub(crate) id: u64,
}

impl SpanContext {
    /// The absent context: spans opened under it are roots.
    pub const NONE: SpanContext = SpanContext { id: 0 };

    /// Whether this context names a live recording span (false for
    /// [`SpanContext::NONE`] and for contexts of inert spans).
    #[must_use]
    pub fn is_active(self) -> bool {
        self.id != 0
    }
}

/// The per-registry span sink: id allocator plus the sharded rings.
#[derive(Debug)]
pub(crate) struct TracerCore {
    gate: Arc<AtomicBool>,
    epoch: Instant,
    next_id: AtomicU64,
    shards: Vec<Mutex<VecDeque<SpanRecord>>>,
    shard_capacity: AtomicUsize,
    dropped: AtomicU64,
}

impl TracerCore {
    pub(crate) fn new(gate: Arc<AtomicBool>) -> TracerCore {
        TracerCore {
            gate,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: (0..TRACE_SHARDS).map(|_| Mutex::new(VecDeque::new())).collect(),
            shard_capacity: AtomicUsize::new(DEFAULT_TRACE_CAPACITY / TRACE_SHARDS),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn set_capacity(&self, total: usize) {
        self.shard_capacity.store(total.div_ceil(TRACE_SHARDS).max(1), Ordering::Relaxed);
    }

    fn push(&self, record: SpanRecord) {
        let shard = &self.shards[(record.id % TRACE_SHARDS as u64) as usize];
        let mut ring = shard.lock().expect("tracer shard lock");
        if ring.len() >= self.shard_capacity.load(Ordering::Relaxed) {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }
}

/// A cheap, clonable handle for opening spans against one registry.
///
/// Obtained from [`crate::Registry::tracer`]; every clone shares the
/// registry's gate, id allocator, and ring buffers.
#[derive(Debug, Clone)]
pub struct Tracer {
    pub(crate) core: Arc<TracerCore>,
}

impl Tracer {
    /// Opens a root span. Inert (no allocation, no clock read) when
    /// the registry is disabled.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with_parent(name, SpanContext::NONE)
    }

    /// Opens a span parented under `parent` — the cross-worker form:
    /// `parent` may have been captured on another thread. Inert when
    /// the registry is disabled.
    #[must_use]
    pub fn span_with_parent(&self, name: &'static str, parent: SpanContext) -> Span {
        if !self.core.gate.load(Ordering::Relaxed) {
            return Span { inner: None };
        }
        let core = Arc::clone(&self.core);
        let id = core.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = u64::try_from(core.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        Span {
            inner: Some(SpanInner {
                core,
                id,
                parent: parent.id,
                name,
                fields: Vec::new(),
                started: Instant::now(),
                start_us,
                tid: current_tid(),
            }),
        }
    }

    /// Drains every finished span out of the ring buffers, ordered by
    /// `(start_us, id)`. The buffers are empty afterwards; spans still
    /// open keep recording into the (now empty) rings when they drop.
    #[must_use]
    pub fn take_records(&self) -> Vec<SpanRecord> {
        let mut records: Vec<SpanRecord> = Vec::new();
        for shard in &self.core.shards {
            records.extend(shard.lock().expect("tracer shard lock").drain(..));
        }
        records.sort_by_key(|r| (r.start_us, r.id));
        records
    }

    /// Total spans evicted from full shards since the registry was
    /// created (or since the capacity last allowed everything).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.core.dropped.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct SpanInner {
    core: Arc<TracerCore>,
    id: u64,
    parent: u64,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    started: Instant,
    start_us: u64,
    tid: u64,
}

/// A live span: recorded into the ring buffer when dropped.
///
/// Inert when created against a disabled registry — every method is
/// then a no-op and the drop does nothing.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// An always-inert span, for plumbing default arguments.
    #[must_use]
    pub fn inert() -> Span {
        Span { inner: None }
    }

    /// This span's context token ([`SpanContext::NONE`] when inert) —
    /// `Copy`, so it can ride inside pool work units.
    #[must_use]
    pub fn context(&self) -> SpanContext {
        SpanContext { id: self.inner.as_ref().map_or(0, |i| i.id) }
    }

    /// Whether the span will produce a record.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a key/value field. The value conversion only happens
    /// when the span is recording (see [`IntoFieldValue`]).
    pub fn record(&mut self, key: &'static str, value: impl IntoFieldValue) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push((key, value.into_field_value()));
        }
    }

    /// Opens a same-thread child span (inert children of inert
    /// parents; use [`Tracer::span_with_parent`] to cross threads).
    #[must_use]
    pub fn child(&self, name: &'static str) -> Span {
        match &self.inner {
            Some(inner) => {
                Tracer { core: Arc::clone(&inner.core) }.span_with_parent(name, self.context())
            }
            None => Span { inner: None },
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let duration_us = u64::try_from(inner.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            fields: inner.fields,
            start_us: inner.start_us,
            duration_us,
            tid: inner.tid,
        };
        inner.core.push(record);
    }
}

/// A stable per-thread id: `ThreadId` hashed down to a `u64` (the
/// numeric accessor is unstable). Collisions only blur exporter lane
/// assignment, never correctness.
fn current_tid() -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn disabled_registry_yields_inert_spans() {
        let registry = Registry::disabled();
        let tracer = registry.tracer();
        let mut span = tracer.span("root");
        span.record("k", 1_u64);
        assert!(!span.is_recording());
        assert!(!span.context().is_active());
        let child = span.child("child");
        assert!(!child.is_recording());
        drop(child);
        drop(span);
        assert!(tracer.take_records().is_empty());
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn spans_record_parentage_fields_and_order() {
        let registry = Registry::new();
        let tracer = registry.tracer();
        let mut root = tracer.span("root");
        root.record("asn", 65_001_u64);
        root.record("vp", "vp-a");
        let child = root.child("child");
        let grandchild = child.child("grandchild");
        drop(grandchild);
        drop(child);
        drop(root);

        let records = tracer.take_records();
        assert_eq!(records.len(), 3);
        let root = records.iter().find(|r| r.name == "root").unwrap();
        let child = records.iter().find(|r| r.name == "child").unwrap();
        let grandchild = records.iter().find(|r| r.name == "grandchild").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!(grandchild.parent, child.id);
        assert_eq!(
            root.fields,
            vec![("asn", FieldValue::U64(65_001)), ("vp", FieldValue::Str("vp-a".into()))]
        );
        assert!(records.windows(2).all(|w| (w[0].start_us, w[0].id) <= (w[1].start_us, w[1].id)));
    }

    #[test]
    fn take_records_drains() {
        let registry = Registry::new();
        let tracer = registry.tracer();
        drop(tracer.span("a"));
        assert_eq!(tracer.take_records().len(), 1);
        assert!(tracer.take_records().is_empty(), "second take sees an empty ring");
    }

    #[test]
    fn context_crosses_threads() {
        let registry = Registry::new();
        let tracer = registry.tracer();
        let parent = tracer.span("campaign");
        let ctx = parent.context();
        arest_conc::thread::scope(|scope| {
            for _ in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let mut unit = tracer.span_with_parent("campaign.unit", ctx);
                    unit.record("stolen", 1_u64);
                });
            }
        });
        drop(parent);
        let records = tracer.take_records();
        let parent_id = records.iter().find(|r| r.name == "campaign").unwrap().id;
        let units: Vec<_> = records.iter().filter(|r| r.name == "campaign.unit").collect();
        assert_eq!(units.len(), 4);
        assert!(units.iter().all(|u| u.parent == parent_id), "stolen units stay parented");
    }

    #[test]
    fn full_shards_evict_oldest_and_count_drops() {
        let registry = Registry::new();
        registry.set_trace_capacity(TRACE_SHARDS * 4); // 4 per shard
        let tracer = registry.tracer();
        for _ in 0..TRACE_SHARDS * 6 {
            drop(tracer.span("s"));
        }
        let records = tracer.take_records();
        assert_eq!(records.len(), TRACE_SHARDS * 4, "rings stay bounded");
        assert_eq!(tracer.dropped(), (TRACE_SHARDS * 2) as u64);
        // Oldest evicted: the survivors are the latest ids.
        let min_id = records.iter().map(|r| r.id).min().unwrap();
        assert!(min_id > TRACE_SHARDS as u64, "early spans were evicted first");
    }

    #[test]
    fn enabling_mid_stream_gates_at_creation() {
        let registry = Registry::disabled();
        let tracer = registry.tracer();
        let inert = tracer.span("before");
        registry.set_enabled(true);
        let live = tracer.span("after");
        drop(inert);
        drop(live);
        let records = tracer.take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "after");
    }

    #[test]
    fn field_value_display() {
        assert_eq!(FieldValue::U64(7).to_string(), "7");
        assert_eq!(FieldValue::Str("x".into()).to_string(), "x");
    }
}
