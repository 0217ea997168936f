//! Tracing tour: switch on the global `arest-obs` gate, build the
//! quick-scale pipeline, drain the span ring, and do everything the
//! runner's `--trace-out` does in-process — reconstruct the span tree,
//! render a slice of it, and show the Chrome-trace / flamegraph
//! exporters plus one detection's provenance chain.
//!
//! ```sh
//! cargo run --release --example tracing
//! ```

use arest_suite::experiments::pipeline::{Dataset, PipelineConfig};
use arest_suite::obs;
use arest_suite::obs::SpanTree;

fn main() {
    let registry = obs::global();
    registry.set_enabled(true); // spans ride the same gate as metrics

    let dataset = Dataset::build(PipelineConfig::quick());

    let tracer = registry.tracer();
    let records = tracer.take_records();
    println!(
        "quick build recorded {} spans ({} evicted from the ring)\n",
        records.len(),
        tracer.dropped(),
    );

    // Reconstruct the tree: one pipeline.build root, stages below it,
    // campaigns and stolen (AS, VP) units below those.
    let tree = SpanTree::build(records.clone());
    println!("span tree ({} spans, {} orphaned):", tree.len(), tree.orphans);
    for line in tree.to_text().lines().take(12) {
        println!("  {line}");
    }
    println!("  …\n");

    // The same records feed both exporters the runner writes with
    // `--trace-out`: Chrome trace-event JSON and collapsed stacks.
    let chrome = obs::to_chrome_trace(&records);
    let folded = obs::to_flamegraph(&records);
    println!("trace.json would be {} bytes; first flamegraph stacks:", chrome.len());
    for line in folded.lines().take(4) {
        println!("  {line}");
    }
    println!();

    // Detection provenance: every flagged segment carries the evidence
    // chain the detector recorded — the raw material of
    // RUN_REPORT_provenance.txt.
    let (trace, segment) = dataset
        .results
        .iter()
        .flat_map(arest_suite::experiments::AsResult::detections)
        .flat_map(|(trace, segments)| segments.iter().map(move |s| (trace, s)))
        .next()
        .expect("the quick dataset detects segments");
    println!(
        "first detection: [{}] vp={} dst={} hops={}..{}",
        segment.flag, trace.vp, trace.dst, segment.start, segment.end
    );
    println!("evidence chain:  {}", segment.chain());

    assert!(tree.len() > 100, "a full build must record a real span volume");
    assert_eq!(tree.orphans, 0, "nothing evicted, so nothing orphaned");
}
