//! Converts a built [`Dataset`] into the plain-data
//! [`arest_serve::Store`] the HTTP daemon answers from.
//!
//! This is the one place the serving layer meets the pipeline types:
//! `arest-serve` stays dependency-free (it sits beside `arest-obs` and
//! `arest-tnt` in the crate graph), and this module flattens the
//! campaign output — per-AS results, fingerprint evidence, detection
//! provenance — into the store's rows. Everything is assembled in
//! catalog order from deterministic inputs, so for a fixed
//! [`crate::PipelineConfig`] the store (and therefore every JSON body
//! the daemon serves) is byte-identical across runs and worker counts;
//! `docs/API.md` and its replay test depend on that.

use crate::pipeline::{AsResult, Dataset};
use arest_ledger::snapshot::{DetectionRecord, ProvenanceRecord};
use arest_serve::store::{AddrRecord, AsSummary, SummaryInfo};
use arest_serve::{FlagCounts, Store};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How a catalog confirmation source serves (lower-case, the survey
/// §3 vocabulary).
fn confirmation_str(confirmation: arest_netgen::Confirmation) -> &'static str {
    match confirmation {
        arest_netgen::Confirmation::Cisco => "cisco",
        arest_netgen::Confirmation::Survey => "survey",
        arest_netgen::Confirmation::None => "none",
    }
}

/// One AS's serving summary.
fn as_summary(dataset: &Dataset, result: &AsResult) -> AsSummary {
    let profile = arest_netgen::catalog::by_id(result.id);
    let mut flags = FlagCounts::default();
    for segment in result.all_segments() {
        flags.add(&segment.flag.to_string());
    }
    let fingerprinted =
        result.discovered.iter().filter(|addr| dataset.fingerprints.contains_key(addr)).count();
    AsSummary {
        id: result.id,
        asn: result.asn.0,
        name: profile.map_or("unknown", |p| p.name).to_string(),
        astype: profile.map_or_else(|| "unknown".to_string(), |p| p.astype.to_string()),
        confirmation: profile.map_or("none", |p| confirmation_str(p.confirmation)).to_string(),
        analyzed: profile.is_some_and(arest_netgen::AsProfile::analyzed),
        targets_probed: result.targets_probed as u64,
        traces: result.restricted.len() as u64,
        addresses: result.discovered.len() as u64,
        fingerprinted: fingerprinted as u64,
        flags,
    }
}

/// Every detection of one AS, attached to each address its segment
/// covers: one shared record per segment, cloned as an `Arc` into
/// every covered address. Traces and segments are walked in stored
/// (deterministic) order, so each address's detection list is
/// reproducible.
fn attach_detections(result: &AsResult, records: &mut BTreeMap<Ipv4Addr, AddrRecord>) {
    for (trace, segments) in result.detections() {
        for segment in segments {
            let provenance = ProvenanceRecord {
                trigger_hop: segment.provenance.trigger_hop as u64,
                run_len: segment.provenance.run_len as u64,
                distinct_addrs: segment.provenance.distinct_addrs as u64,
                lses_consulted: segment.provenance.lses_consulted as u64,
                effective_depth: segment.provenance.effective_depth as u64,
                fingerprint: segment.provenance.fingerprint.map(|e| e.to_string()),
                label_in_vendor_range: segment.provenance.label_in_vendor_range,
                suffix_matched: segment.provenance.suffix_matched,
                chain: segment.provenance.chain(),
            };
            let detection = Arc::new(DetectionRecord {
                asn: result.asn.0,
                vp: trace.vp.to_string(),
                dst: trace.dst.to_string(),
                flag: segment.flag.to_string(),
                stars: segment.flag.signal_strength(),
                start: segment.start as u64,
                end: segment.end as u64,
                label: segment.label.value(),
                suffix_based: segment.suffix_based,
                provenance,
            });
            for hop in &trace.hops[segment.start..=segment.end] {
                let Some(addr) = hop.addr else { continue };
                if let Some(record) = records.get_mut(&addr) {
                    record.detections.push(Arc::clone(&detection));
                }
            }
        }
    }
}

/// Flattens a completed dataset into the daemon's read-only store.
#[must_use]
pub fn build(dataset: &Dataset) -> Store {
    let summaries: Vec<AsSummary> =
        dataset.results.iter().map(|result| as_summary(dataset, result)).collect();

    // Address records: catalog order, first-wins when two ASes both
    // discovered an address (mirrors `Store::by_asn` tie-breaking).
    let mut records: BTreeMap<Ipv4Addr, AddrRecord> = BTreeMap::new();
    for (result, summary) in dataset.results.iter().zip(&summaries) {
        for &addr in &result.discovered {
            records.entry(addr).or_insert_with(|| {
                let evidence = dataset.fingerprints.get(&addr);
                AddrRecord {
                    addr,
                    asn: result.asn.0,
                    as_name: summary.name.clone(),
                    fingerprint: evidence.map(|(vendor, _)| vendor.to_string()),
                    fingerprint_source: evidence.map(|(_, source)| match source {
                        arest_fingerprint::combined::FingerprintSource::Ttl => "ttl".to_string(),
                        arest_fingerprint::combined::FingerprintSource::Snmp => "snmp".to_string(),
                    }),
                    detections: Vec::new(),
                }
            });
        }
    }
    for result in &dataset.results {
        attach_detections(result, &mut records);
    }

    let mut flags = FlagCounts::default();
    for summary in &summaries {
        flags.cvr += summary.flags.cvr;
        flags.co += summary.flags.co;
        flags.lsvr += summary.flags.lsvr;
        flags.lvr += summary.flags.lvr;
        flags.lso += summary.flags.lso;
    }
    let summary = SummaryInfo {
        ases: summaries.len() as u64,
        analyzed: summaries.iter().filter(|s| s.analyzed).count() as u64,
        sr_deployed: summaries.iter().filter(|s| s.sr_deployed()).count() as u64,
        addresses: records.len() as u64,
        fingerprinted: records.values().filter(|r| r.fingerprint.is_some()).count() as u64,
        raw_traces: dataset.raw_trace_count as u64,
        intra_as_traces: dataset.results.iter().map(|r| r.restricted.len() as u64).sum(),
        vantage_points: dataset.per_vp_discovered.len() as u64,
        flags,
    };
    Store::new(summaries, records.into_values().collect(), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    fn quick_store() -> Store {
        build(&Dataset::build(PipelineConfig::quick()))
    }

    #[test]
    fn store_mirrors_the_dataset_shape() {
        let dataset = Dataset::build(PipelineConfig::quick());
        let store = build(&dataset);
        assert_eq!(store.ases().len(), dataset.results.len());
        assert_eq!(store.summary().raw_traces, dataset.raw_trace_count as u64);
        assert_eq!(store.summary().vantage_points, dataset.per_vp_discovered.len() as u64);
        let addresses: std::collections::HashSet<_> =
            dataset.results.iter().flat_map(|r| r.discovered.iter().copied()).collect();
        assert_eq!(store.summary().addresses, addresses.len() as u64);
    }

    #[test]
    fn every_as_resolves_by_asn() {
        let store = quick_store();
        for summary in store.ases() {
            let hit = store.by_asn(summary.asn).expect("asn lookup");
            assert_eq!(hit.id, summary.id);
        }
    }

    #[test]
    fn detections_carry_provenance_chains() {
        let dataset = Dataset::build(PipelineConfig::quick());
        let rebuilt = build(&dataset);
        assert!(
            rebuilt.ases().iter().any(|s| s.flags.total() > 0),
            "the quick dataset detects something"
        );
        // Every address a detection's segment covers holds a record
        // quoting that detection's full provenance chain.
        let mut saw_detection = false;
        for result in &dataset.results {
            for (trace, segments) in result.detections() {
                for segment in segments {
                    for hop in &trace.hops[segment.start..=segment.end] {
                        let Some(addr) = hop.addr else { continue };
                        let record = rebuilt.addr(addr).expect("covered addr has a record");
                        assert!(
                            record
                                .detections
                                .iter()
                                .any(|d| d.provenance.chain.starts_with("trigger_hop=")),
                            "detection on {addr} lost its chain"
                        );
                        saw_detection = true;
                    }
                }
            }
        }
        assert!(saw_detection, "quick dataset produced at least one covered hop");
    }

    #[test]
    fn build_is_deterministic() {
        let a = quick_store();
        let b = quick_store();
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.ases(), b.ases());
        let status_a = a.status_json(2, arest_serve::Json::Null).render();
        let status_b = b.status_json(2, arest_serve::Json::Null).render();
        assert_eq!(status_a, status_b);
    }
}
