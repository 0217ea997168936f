//! Span-propagation determinism: the reconstructed span tree of a
//! quick pipeline build must be *structurally* identical (same names,
//! same parentage — timing and thread ids ignored) at one worker and
//! at four. This is the tracing counterpart of the
//! `parallel_build_matches_*` result-determinism tests and rides the
//! same CI filter.
//!
//! Spans follow the scheduled work (ASes and `(AS, VP)` units), not
//! the traces, so the tree is also identical when every AS probes half
//! as many targets: that is what keeps a full campaign inside the span
//! ring.
//!
//! Single test on purpose: it toggles the process-global registry and
//! drains its span ring, so it must not share this binary with other
//! tests that touch either.

use arest_experiments::pipeline::{Dataset, PipelineConfig};
use arest_obs::SpanTree;

#[test]
fn parallel_build_matches_span_tree_structure() {
    let registry = arest_obs::global();
    registry.set_enabled(true);
    let tracer = registry.tracer();
    drop(tracer.take_records()); // start from an empty ring

    let mut config = PipelineConfig::quick();
    config.workers = Some(1);
    let _ = Dataset::build(config);
    let serial = SpanTree::build(tracer.take_records());

    config.workers = Some(4);
    let _ = Dataset::build(config);
    let parallel = SpanTree::build(tracer.take_records());

    // A second pair: the same build at 8 and at 4 targets per AS.
    let build_with_targets = |targets_per_as| {
        let _ = Dataset::build(PipelineConfig { targets_per_as, ..PipelineConfig::quick() });
        SpanTree::build(tracer.take_records())
    };
    let eight = build_with_targets(8);
    let four = build_with_targets(4);
    registry.set_enabled(false);

    assert_eq!(tracer.dropped(), 0, "quick builds must fit the default span ring");
    assert_eq!(serial.orphans, 0, "no span may lose its parent record");
    assert_eq!(parallel.orphans, 0);
    assert!(serial.len() > 100, "expected a real span volume, got {}", serial.len());
    assert_eq!(serial.len(), parallel.len(), "same number of spans at any worker count");
    assert_eq!(
        serial.structure(),
        parallel.structure(),
        "span parentage and names must be identical at any worker count"
    );

    // Sanity on the shape itself: exactly one root per build, and the
    // streaming dataflow hangs per-AS flows under the stream stage,
    // with the (AS, VP) campaign units and the per-AS tail below.
    assert_eq!(serial.roots.len(), 1, "one pipeline.build root");
    assert_eq!(serial.roots[0].record.name, "pipeline.build");
    let structure = serial.structure();
    assert!(
        structure.contains("pipeline.stage.stream(pipeline.as.flow("),
        "per-AS flows must nest under the stream stage"
    );
    // `structure()` sorts siblings by name: the tail (its three
    // children sorted too), then one leaf unit per vantage point.
    assert!(
        structure.contains(
            "pipeline.as.flow(pipeline.as.tail(pipeline.as.alias,pipeline.as.detect,\
             pipeline.as.fingerprint),tnt.campaign.unit,tnt.campaign.unit,"
        ),
        "each flow must hold its tail (fingerprint, alias, detect) and its campaign units"
    );
    assert!(!structure.contains("tnt.campaign.unit("), "a campaign unit has no per-trace child");
    assert!(
        structure.contains("netgen.phase.deploy(netgen.deploy.unit,"),
        "per-AS deploy units must nest under the deploy phase"
    );

    assert_eq!(eight.orphans + four.orphans, 0);
    assert_eq!(eight.len(), four.len(), "the span count must not follow the trace count");
    assert_eq!(
        eight.structure(),
        four.structure(),
        "span parentage and names must not depend on the targets per AS"
    );
}
