//! Span exporters: Chrome trace-event JSON, collapsed-stack
//! flamegraph text, and the span-tree reconstructor both build on.
//!
//! * [`to_chrome_trace`] emits the [Trace Event Format] (`"X"`
//!   complete events, microsecond timestamps) — load the file in
//!   Perfetto or `chrome://tracing` to see per-worker lanes of the
//!   measurement pipeline.
//! * [`to_flamegraph`] emits collapsed stacks (`a;b;c <self-µs>`
//!   lines), the input format of Brendan Gregg's `flamegraph.pl` and
//!   of `inferno-flamegraph`.
//! * [`SpanTree`] rebuilds the parent/child hierarchy from flat
//!   [`SpanRecord`]s, tolerating evicted parents (orphans become
//!   roots), and renders a timing-free [`SpanTree::structure`] used by
//!   the determinism tests.
//!
//! Everything is hand-rolled string building, like the rest of the
//! suite — no serde.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::tracing::{FieldValue, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Renders finished spans as Chrome trace-event JSON: one `"X"`
/// (complete) event per span, `ts`/`dur` in microseconds, `tid` the
/// recording worker thread, and the span id/parent plus every field
/// under `args`.
#[must_use]
pub fn to_chrome_trace(records: &[SpanRecord]) -> String {
    // Compact thread ids (hashes) into small lane numbers, in order
    // of first appearance, so the viewer shows "worker 0..n" lanes.
    let mut lanes: HashMap<u64, usize> = HashMap::new();
    for record in records {
        let next = lanes.len();
        lanes.entry(record.tid).or_insert(next);
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n{\"name\":");
        write_json_string(&mut out, record.name);
        let _ = write!(
            out,
            ",\"cat\":\"arest\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            record.start_us, record.duration_us, lanes[&record.tid],
        );
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"span_id\":{},\"parent_id\":{}", record.id, record.parent);
        // JSON objects want unique keys; repeated field keys (e.g. one
        // "detection" per segment) get a numeric suffix.
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (key, value) in &record.fields {
            let n = seen.entry(key).or_insert(0);
            *n += 1;
            let unique = if *n == 1 { (*key).to_string() } else { format!("{key}#{n}") };
            out.push(',');
            write_json_string(&mut out, &unique);
            out.push(':');
            match value {
                FieldValue::Str(v) => write_json_string(&mut out, v),
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Appends `s` to `out` as a JSON string literal, with RFC 8259
/// escaping: the two mandatory escapes, the common control-character
/// shorthands, and `\u00XX` for the rest of C0. The one escaping
/// routine of the suite: the trace exporter and the HTTP API's JSON
/// encoder both write strings through it.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders finished spans as collapsed flamegraph stacks: one
/// `root;child;leaf <weight>` line per distinct name path, weighted
/// by *self* time (span duration minus its children's), aggregated
/// and sorted lexicographically.
#[must_use]
pub fn to_flamegraph(records: &[SpanRecord]) -> String {
    let tree = SpanTree::build(records.to_vec());
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for root in &tree.roots {
        collapse_into(root, String::new(), &mut stacks);
    }
    let mut out = String::new();
    for (stack, weight) in &stacks {
        let _ = writeln!(out, "{stack} {weight}");
    }
    out
}

fn collapse_into(node: &SpanNode, prefix: String, stacks: &mut BTreeMap<String, u64>) {
    let path = if prefix.is_empty() {
        node.record.name.to_string()
    } else {
        format!("{prefix};{}", node.record.name)
    };
    let children_us: u64 = node.children.iter().map(|c| c.record.duration_us).sum();
    let self_us = node.record.duration_us.saturating_sub(children_us);
    *stacks.entry(path.clone()).or_insert(0) += self_us;
    for child in &node.children {
        collapse_into(child, path.clone(), stacks);
    }
}

/// One node of a reconstructed span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Children ordered by `(start_us, id)`.
    pub children: Vec<SpanNode>,
}

/// A reconstructed span forest.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// Root spans ordered by `(start_us, id)`. A span whose parent
    /// record is missing (evicted from a full ring) is promoted to a
    /// root and counted in [`SpanTree::orphans`].
    pub roots: Vec<SpanNode>,
    /// Spans whose recorded parent was not among the input records.
    pub orphans: usize,
}

impl SpanTree {
    /// Rebuilds the hierarchy from flat records (any order).
    #[must_use]
    pub fn build(records: Vec<SpanRecord>) -> SpanTree {
        let known: HashMap<u64, ()> = records.iter().map(|r| (r.id, ())).collect();
        let mut children_of: HashMap<u64, Vec<SpanRecord>> = HashMap::new();
        let mut top: Vec<SpanRecord> = Vec::new();
        let mut orphans = 0;
        for record in records {
            if record.parent == 0 {
                top.push(record);
            } else if known.contains_key(&record.parent) {
                children_of.entry(record.parent).or_default().push(record);
            } else {
                orphans += 1;
                top.push(record);
            }
        }
        top.sort_by_key(|r| (r.start_us, r.id));
        let roots = top.into_iter().map(|r| assemble(r, &mut children_of)).collect();
        SpanTree { roots, orphans }
    }

    /// Total number of spans in the forest.
    #[must_use]
    pub fn len(&self) -> usize {
        fn count(node: &SpanNode) -> usize {
            1 + node.children.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// Whether the forest holds no spans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// A canonical, timing-free rendering of the forest's *shape*:
    /// span names and parentage only, with siblings sorted by their
    /// own structural key. Two runs of the same workload produce the
    /// same structure regardless of worker count or scheduling — the
    /// property the span-propagation determinism test pins.
    #[must_use]
    pub fn structure(&self) -> String {
        let mut parts: Vec<String> = self.roots.iter().map(structural_key).collect();
        parts.sort_unstable();
        parts.join("\n")
    }

    /// An indented human-readable rendering (names, fields, µs).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            render_text(root, 0, &mut out);
        }
        out
    }
}

fn assemble(record: SpanRecord, children_of: &mut HashMap<u64, Vec<SpanRecord>>) -> SpanNode {
    let mut children_records = children_of.remove(&record.id).unwrap_or_default();
    children_records.sort_by_key(|r| (r.start_us, r.id));
    let children = children_records.into_iter().map(|r| assemble(r, children_of)).collect();
    SpanNode { record, children }
}

fn structural_key(node: &SpanNode) -> String {
    let mut keys: Vec<String> = node.children.iter().map(structural_key).collect();
    keys.sort_unstable();
    if keys.is_empty() {
        node.record.name.to_string()
    } else {
        format!("{}({})", node.record.name, keys.join(","))
    }
}

fn render_text(node: &SpanNode, depth: usize, out: &mut String) {
    let _ = write!(out, "{}{}", "  ".repeat(depth), node.record.name);
    let _ = write!(out, " [{}us]", node.record.duration_us);
    for (key, value) in &node.record.fields {
        let _ = write!(out, " {key}={value}");
    }
    out.push('\n');
    for child in &node.children {
        render_text(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_records() -> Vec<SpanRecord> {
        let registry = Registry::new();
        let tracer = registry.tracer();
        let mut root = tracer.span("pipeline.build");
        root.record("workers", 2_usize);
        {
            let mut stage = root.child("pipeline.stage.probe");
            stage.record("note", "a \"quoted\"\nvalue");
            drop(stage.child("tnt.trace"));
            drop(stage.child("tnt.trace"));
        }
        drop(root);
        tracer.take_records()
    }

    #[test]
    fn chrome_trace_contains_one_event_per_span() {
        let records = sample_records();
        let json = to_chrome_trace(&records);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), records.len());
        assert!(json.contains("\"name\":\"pipeline.build\""));
        assert!(json.contains("\"workers\":2"));
        assert!(json.contains("\\\"quoted\\\"\\n"), "escaped: {json}");
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        write_json_string(&mut out, s);
        out
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(quoted("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(quoted("x\ny\tz"), r#""x\ny\tz""#);
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
        assert_eq!(quoted("Cisco|Huawei"), "\"Cisco|Huawei\"");
    }

    #[test]
    fn span_fields_escape_like_json_strings() {
        let registry = Registry::new();
        let tracer = registry.tracer();
        let value = "q\"b\\n\nc\u{1}";
        let mut span = tracer.span("escape");
        span.record("value", value);
        drop(span);
        let json = to_chrome_trace(&tracer.take_records());
        assert_eq!(quoted(value), r#""q\"b\\n\nc\u0001""#);
        assert!(json.contains(&format!("\"value\":{}", quoted(value))), "{json}");
    }

    #[test]
    fn chrome_trace_uniquifies_repeated_field_keys() {
        let registry = Registry::new();
        let tracer = registry.tracer();
        let mut span = tracer.span("detect");
        span.record("detection", "a");
        span.record("detection", "b");
        drop(span);
        let json = to_chrome_trace(&tracer.take_records());
        assert!(json.contains("\"detection\":\"a\""));
        assert!(json.contains("\"detection#2\":\"b\""));
    }

    #[test]
    fn flamegraph_collapses_and_weights_by_self_time() {
        let records = sample_records();
        let folded = to_flamegraph(&records);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3, "{folded}");
        assert!(lines[0].starts_with("pipeline.build "));
        assert!(lines[1].starts_with("pipeline.build;pipeline.stage.probe "));
        assert!(lines[2].starts_with("pipeline.build;pipeline.stage.probe;tnt.trace "));
        for line in lines {
            let (_, weight) = line.rsplit_once(' ').unwrap();
            let _: u64 = weight.parse().expect("numeric weight");
        }
    }

    #[test]
    fn tree_reconstruction_and_structure() {
        let records = sample_records();
        let tree = SpanTree::build(records);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.orphans, 0);
        assert_eq!(tree.len(), 4);
        assert!(!tree.is_empty());
        assert_eq!(tree.structure(), "pipeline.build(pipeline.stage.probe(tnt.trace,tnt.trace))");
        let text = tree.to_text();
        assert!(text.contains("workers=2"));
        assert!(text.starts_with("pipeline.build"));
    }

    #[test]
    fn structure_ignores_sibling_completion_order() {
        // Two forests with the same shape but shuffled record order
        // and different timings must render the same structure.
        let registry = Registry::new();
        let tracer = registry.tracer();
        let root = tracer.span("r");
        drop(root.child("b"));
        drop(root.child("a"));
        drop(root);
        let forward = SpanTree::build(tracer.take_records());

        let root = tracer.span("r");
        drop(root.child("a"));
        drop(root.child("b"));
        drop(root);
        let reversed = SpanTree::build(tracer.take_records());
        assert_eq!(forward.structure(), reversed.structure());
        assert_eq!(forward.structure(), "r(a,b)");
    }

    #[test]
    fn missing_parents_promote_to_orphan_roots() {
        let mut records = sample_records();
        // Simulate the ring evicting the root span.
        records.retain(|r| r.name != "pipeline.build");
        let tree = SpanTree::build(records);
        assert_eq!(tree.orphans, 1, "the stage span lost its parent");
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn empty_input_renders_empty_everything() {
        assert_eq!(to_chrome_trace(&[]), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
        assert_eq!(to_flamegraph(&[]), "");
        let tree = SpanTree::build(Vec::new());
        assert!(tree.is_empty());
        assert_eq!(tree.structure(), "");
    }
}
