//! Cross-crate integration: the full measurement pipeline over a
//! small synthetic Internet, asserting the paper's headline shapes.

use arest_suite::core::flags::Flag;
use arest_suite::core::metrics::validate;
use arest_suite::experiments::pipeline::{Dataset, PipelineConfig};
use arest_suite::experiments::{run_experiment, EXPERIMENTS};
use arest_suite::netgen::catalog::by_id;
use arest_suite::netgen::internet::GenConfig;
use std::sync::OnceLock;

/// One shared dataset for the whole test binary (building it is the
/// expensive part).
fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        let mut config = PipelineConfig::quick();
        config.gen =
            GenConfig { scale: 0.03, seed: 2_025, vp_count: 6, sr_adoption: 1.0, catalog_scale: 1 };
        config.targets_per_as = 16;
        Dataset::build(config)
    })
}

#[test]
fn pipeline_covers_all_60_ases() {
    let ds = dataset();
    assert_eq!(ds.results.len(), 60);
    // The paper's exclusion rule keeps 41; small scale can only lose
    // ASes (never invent addresses), so analyzed() is bounded by it.
    assert!(ds.analyzed().count() <= 41);
    assert!(ds.raw_trace_count > 1_000);
}

#[test]
fn esnet_validation_reproduces_table3() {
    let ds = dataset();
    let esnet = ds.result(46).unwrap();
    let truth = &ds.internet.ground_truth;
    let validation = validate(esnet.detections(), |a| truth.is_sr(a));
    assert!(validation.total_segments() > 0, "ESnet must show segments");
    assert_eq!(validation.iface_false_positive, 0, "0% FP (Table 3)");
    assert_eq!(validation.iface_false_negative, 0, "0% FN (Table 3)");
    // Only CO and LSO can fire: nothing at ESnet answers fingerprinting.
    for flag in [Flag::Cvr, Flag::Lsvr, Flag::Lvr] {
        assert_eq!(validation.per_flag[&flag].segments, 0, "{flag} impossible");
    }
    let co = validation.per_flag[&Flag::Co].segments;
    let lso = validation.per_flag[&Flag::Lso].segments;
    assert!(co > lso, "CO dominates LSO at ESnet (95.6% vs 4.4% in the paper)");
}

#[test]
fn detection_headline_shape_holds() {
    let ds = dataset();
    let mut claimed = 0;
    let mut detected = 0;
    for result in ds.analyzed() {
        let entry = by_id(result.id).unwrap();
        if !entry.claims_sr() {
            continue;
        }
        claimed += 1;
        if result.all_segments().any(|s| s.flag.is_strong()) {
            detected += 1;
        }
    }
    assert!(claimed >= 15, "most claimants stay analyzed at small scale");
    let rate = detected as f64 / claimed as f64;
    assert!((0.5..=1.0).contains(&rate), "detection rate {rate} out of the paper's ballpark (75%)");
}

#[test]
fn no_explicit_tunnel_ases_stay_undetected() {
    // §6.2: Iliad (#2), NTT Docomo (#3), Rakuten (#16) expose no
    // explicit tunnels, so AReST cannot see their SR.
    let ds = dataset();
    for id in [2u8, 3, 16] {
        let result = ds.result(id).unwrap();
        assert_eq!(
            result.all_segments().filter(|s| s.flag.is_strong()).count(),
            0,
            "#{id} must stay undetected"
        );
    }
}

#[test]
fn unconfirmed_detections_are_mostly_lso() {
    // §6.2: ASes without external confirmation show mostly weak
    // (LSO) signals — the VPN-style classic stacks.
    let ds = dataset();
    let mut lso = 0usize;
    let mut strong = 0usize;
    for result in ds.analyzed() {
        let entry = by_id(result.id).unwrap();
        if entry.claims_sr() {
            continue;
        }
        for segment in result.all_segments() {
            if segment.flag == Flag::Lso {
                lso += 1;
            } else {
                strong += 1;
            }
        }
    }
    assert!(lso > 0, "unconfirmed ASes must show LSO noise");
    assert!(
        lso * 2 > strong,
        "LSO should be prominent among unconfirmed ASes (lso={lso}, strong={strong})"
    );
}

#[test]
fn every_experiment_runs_against_the_dataset() {
    let ds = dataset();
    for (id, _) in EXPERIMENTS {
        let report = run_experiment(id, ds).unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(!report.body.is_empty(), "{id} produced an empty report");
        assert!(report.render().contains(&report.title));
    }
    assert!(run_experiment("nonsense", ds).is_none());
}

#[test]
fn baseline_detects_no_more_than_arest() {
    use arest_suite::core::baseline::detect_baseline;
    let ds = dataset();
    let mut arest_ases = 0;
    let mut baseline_ases = 0;
    for result in ds.analyzed() {
        if result.all_segments().next().is_some() {
            arest_ases += 1;
        }
        if result.augmented.iter().any(|t| !detect_baseline(t).is_empty()) {
            baseline_ases += 1;
        }
    }
    assert!(arest_ases >= baseline_ases, "AReST strictly dominates the baseline");
}
