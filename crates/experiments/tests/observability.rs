//! Observability must never perturb results: rendering every
//! experiment with `AREST_OBS` off and on has to produce byte-identical
//! reports, while the enabled run actually accumulates metrics.
//!
//! Single test on purpose: it toggles the process-global registry, so
//! it must not share this binary with other tests that read it.

use arest_experiments::pipeline::{Dataset, PipelineConfig};
use arest_experiments::EXPERIMENTS;

fn render_all() -> Vec<String> {
    let dataset = Dataset::build(PipelineConfig::quick());
    EXPERIMENTS.iter().map(|(_, run)| run(&dataset).render()).collect()
}

#[test]
fn experiment_outputs_are_byte_identical_with_observability_on_and_off() {
    let registry = arest_obs::global();
    let tracer = registry.tracer();

    // Pin the disabled state (the harness may export AREST_OBS) and
    // prove a disabled run leaves the registry untouched.
    registry.set_enabled(false);
    drop(tracer.take_records()); // start from an empty span ring
    let before_off = registry.snapshot();
    let reports_off = render_all();
    assert!(
        registry.snapshot().diff(&before_off).is_zero(),
        "disabled registry must record nothing during a full build"
    );
    assert!(
        tracer.take_records().is_empty(),
        "disabled tracer must record no spans during a full build"
    );

    registry.set_enabled(true);
    let before_on = registry.snapshot();
    let reports_on = render_all();
    let delta = registry.snapshot().diff(&before_on);
    let spans = tracer.take_records();
    registry.set_enabled(false);

    assert_eq!(reports_off, reports_on, "reports must not depend on observability");

    // The enabled run must have seen the whole pipeline: probing,
    // stage timing, and detection all leave counters behind.
    assert!(delta.counter("simnet.probes") > 0, "probe path uncounted");
    assert!(delta.counter("pipeline.builds") >= 1, "build uncounted");
    assert!(delta.counter("core.detect.traces") > 0, "detection uncounted");
    assert!(
        delta.histogram("pipeline.stage.generate.us").is_some_and(|h| h.count >= 1),
        "stage timings missing"
    );

    // …and the tracer must have seen it too, with cross-worker
    // parentage intact: every (AS, VP) campaign unit's recorded parent
    // is its AS's flow span, even when a pool worker stole the unit.
    let find = |name: &str| spans.iter().filter(|r| r.name == name).collect::<Vec<_>>();
    // At least one root build span — experiments like `ablation` and
    // `longitudinal` rebuild datasets internally, so there may be more.
    assert!(!find("pipeline.build").is_empty(), "root span per build missing");
    let flows = find("pipeline.as.flow");
    let units = find("tnt.campaign.unit");
    assert!(!flows.is_empty() && !units.is_empty(), "campaign spans missing");
    for unit in &units {
        assert!(
            flows.iter().any(|f| f.id == unit.parent),
            "unit span must stay parented under its AS flow"
        );
    }
    let tails = find("pipeline.as.tail");
    let detects = find("pipeline.as.detect");
    assert!(!detects.is_empty(), "detection spans missing");
    for detect in &detects {
        assert!(
            tails.iter().any(|t| t.id == detect.parent),
            "detect span must stay parented under its AS tail"
        );
    }
}
