//! `RUN_REPORT_provenance.txt` rendering: one line per detection,
//! carrying the full evidence chain the detector recorded
//! ([`arest_core::detect::DetectedSegment::chain`]) — which hop triggered the
//! flag, how many label-stack entries were consulted, which
//! fingerprint verdict was used, and whether the label sat in a vendor
//! SR range. The counterpart of `RUN_REPORT.txt`'s aggregates: this
//! artifact answers *why this segment was flagged*, not *how many
//! were*.

use crate::pipeline::Dataset;
use arest_core::flags::Flag;
use std::fmt::Write as _;

/// Renders every detection in the dataset, grouped by AS in catalog
/// order, each with its flag, location, and evidence chain. ASes
/// without detections are skipped; a footer totals detections per
/// flag.
pub fn to_text(dataset: &Dataset) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "RUN_REPORT_provenance: per-detection evidence chains");
    let _ = writeln!(out, "{}", "=".repeat(52));

    let mut per_flag: [(Flag, u64); 5] = Flag::ALL.map(|flag| (flag, 0));
    let mut total = 0u64;
    for result in &dataset.results {
        let detections = result.all_segments().count();
        if detections == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "\nAS#{:02} (ASN {}): {} detection{}",
            result.id,
            result.asn.0,
            detections,
            if detections == 1 { "" } else { "s" }
        );
        for (trace, segments) in result.detections() {
            for segment in segments {
                total += 1;
                if let Some(slot) = per_flag.iter_mut().find(|(f, _)| *f == segment.flag) {
                    slot.1 += 1;
                }
                let _ = writeln!(
                    out,
                    "  [{}] vp={} dst={} hops={}..{} label={}: {}",
                    segment.flag,
                    trace.vp,
                    trace.dst,
                    segment.start,
                    segment.end,
                    segment.label,
                    segment.chain(),
                );
            }
        }
    }

    let _ = writeln!(out, "\ntotals");
    let _ = writeln!(out, "------");
    for (flag, count) in per_flag {
        let _ = writeln!(out, "  {flag}: {count}");
    }
    let _ = writeln!(out, "  all: {total}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Dataset, PipelineConfig};

    #[test]
    fn provenance_report_lists_every_detection_with_its_chain() {
        let dataset = Dataset::build(PipelineConfig::quick());
        let text = to_text(&dataset);
        assert!(text.starts_with("RUN_REPORT_provenance"), "{text}");

        let expected: usize = dataset.results.iter().map(|r| r.all_segments().count()).sum();
        assert!(expected > 0, "quick dataset must detect something");
        let chains = text.matches("trigger_hop=").count();
        assert_eq!(chains, expected, "one chain line per detection");
        assert!(text.contains(&format!("all: {expected}")), "{text}");

        // Every chain line carries the full causal key set.
        for key in
            ["run_len=", "distinct_addrs=", "lses_consulted=", "fingerprint=", "in_vendor_range="]
        {
            assert_eq!(text.matches(key).count(), expected, "{key} on every line");
        }
    }

    #[test]
    fn provenance_rendering_is_deterministic() {
        let mut config = PipelineConfig::quick();
        config.workers = Some(1);
        let a = to_text(&Dataset::build(config));
        config.workers = Some(4);
        let b = to_text(&Dataset::build(config));
        assert_eq!(a, b, "provenance must not depend on worker count");
    }
}
