//! Flattens a built [`Dataset`] into the [`RunSnapshot`] rows that
//! both the ledger commits and the HTTP daemon serves.
//!
//! [`snapshot`] is the one place the result rows meet the pipeline
//! types: it flattens the campaign output — per-AS results,
//! fingerprint evidence, detection provenance — into the ledger's
//! rows, and `arest_serve::Store` indexes them without copying.
//! Everything is assembled in catalog order from deterministic
//! inputs, so for a fixed [`crate::PipelineConfig`] the snapshot (and
//! therefore every payload digest and every JSON body the daemon
//! serves) is byte-identical across runs and worker counts;
//! `docs/API.md` and its replay test depend on that.

use crate::pipeline::{AsResult, Dataset};
use arest_core::detect::Provenance;
use arest_fingerprint::combined::VendorEvidence;
use arest_ledger::snapshot::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord, RunSnapshot, RunTotals,
};
use arest_serve::Store;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
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

/// One AS's summary row.
fn as_record(dataset: &Dataset, result: &AsResult) -> AsRecord {
    let profile = arest_netgen::catalog::by_id(result.id);
    let mut flags = FlagTotals::default();
    for segment in result.all_segments() {
        flags.add(segment.flag.name());
    }
    let fingerprinted =
        result.discovered.iter().filter(|addr| dataset.fingerprints.contains_key(addr)).count();
    AsRecord {
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

/// One shared `Arc<str>` per distinct string the detection records
/// of a snapshot carry: each destination, provenance chain,
/// fingerprint verdict and flag is rendered once and cloned into every
/// record that repeats it. The chain cache is keyed by everything
/// [`arest_core::detect::DetectedSegment::chain`] renders from, so two
/// chains share only if they are equal.
#[derive(Default)]
struct SharedStrings {
    dsts: HashMap<Ipv4Addr, Arc<str>>,
    chains: HashMap<ChainKey, Arc<str>>,
    verdicts: HashMap<VendorEvidence, Arc<str>>,
    flags: HashMap<arest_core::Flag, Arc<str>>,
}

/// What a segment's evidence chain renders from: its first and last
/// hop, whether it needed suffix matching, and its [`Provenance`].
type ChainKey = (usize, usize, bool, Provenance);

/// The shared string for `key`, rendered on first use.
fn shared<K: Eq + Hash + Clone>(
    cache: &mut HashMap<K, Arc<str>>,
    key: &K,
    render: impl FnOnce(&K) -> String,
) -> Arc<str> {
    if let Some(s) = cache.get(key) {
        return Arc::clone(s);
    }
    let s: Arc<str> = render(key).into();
    cache.insert(key.clone(), Arc::clone(&s));
    s
}

/// Every detection of one AS, attached to each address its segment
/// covers: one shared record per segment, cloned as an `Arc` into
/// every covered address. The records share the trace's vantage-point
/// name and take every other string from `strings`. Traces and
/// segments are walked in stored (deterministic) order, so each
/// address's detection list is reproducible.
fn attach_detections(
    result: &AsResult,
    strings: &mut SharedStrings,
    entries: &mut BTreeMap<Ipv4Addr, AddrEntry>,
) {
    for (trace, segments) in result.detections() {
        if segments.is_empty() {
            continue;
        }
        let dst = shared(&mut strings.dsts, &trace.dst, ToString::to_string);
        for segment in segments {
            let p = &segment.provenance;
            let chain_key = (segment.start, segment.end, segment.suffix_based, *p);
            let provenance = ProvenanceRecord {
                trigger_hop: segment.start as u64,
                run_len: segment.hop_count() as u64,
                distinct_addrs: p.distinct_addrs as u64,
                lses_consulted: p.lses_consulted as u64,
                effective_depth: p.effective_depth as u64,
                fingerprint: p
                    .fingerprint
                    .map(|e| shared(&mut strings.verdicts, &e, ToString::to_string)),
                label_in_vendor_range: p.label_in_vendor_range,
                suffix_matched: segment.suffix_based,
                chain: shared(&mut strings.chains, &chain_key, |_| segment.chain()),
            };
            let detection = Arc::new(DetectionRecord {
                asn: result.asn.0,
                vp: Arc::clone(&trace.vp),
                dst: Arc::clone(&dst),
                flag: shared(&mut strings.flags, &segment.flag, |flag| flag.name().to_string()),
                stars: segment.flag.signal_strength(),
                start: segment.start as u64,
                end: segment.end as u64,
                label: segment.label.value(),
                suffix_based: segment.suffix_based,
                provenance,
            });
            for hop in &trace.hops[segment.start..=segment.end] {
                let Some(addr) = hop.addr else { continue };
                if let Some(entry) = entries.get_mut(&addr) {
                    entry.detections.push(Arc::clone(&detection));
                }
            }
        }
    }
}

/// Flattens a completed dataset into the rows the ledger commits and
/// the daemon serves: the one `Dataset → RunSnapshot` conversion.
#[must_use]
pub fn snapshot(dataset: &Dataset) -> RunSnapshot {
    let ases: Vec<AsRecord> =
        dataset.results.iter().map(|result| as_record(dataset, result)).collect();

    // Address rows: catalog order, first-wins when two ASes both
    // discovered an address (mirrors `Store::by_asn` tie-breaking).
    let mut entries: BTreeMap<Ipv4Addr, AddrEntry> = BTreeMap::new();
    for result in &dataset.results {
        for &addr in &result.discovered {
            entries.entry(addr).or_insert_with(|| {
                let evidence = dataset.fingerprints.get(&addr);
                AddrEntry {
                    addr,
                    asn: result.asn.0,
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
    let mut strings = SharedStrings::default();
    for result in &dataset.results {
        attach_detections(result, &mut strings, &mut entries);
    }
    let addrs: Vec<AddrEntry> = entries.into_values().collect();

    let raw_traces = dataset.raw_trace_count as u64;
    let vantage_points = dataset.per_vp_discovered.len() as u64;
    let totals = RunTotals::new(&ases, &addrs, raw_traces, vantage_points);
    RunSnapshot { ases, addrs, totals }
}

/// A serving store over [`snapshot`]`(dataset)`.
///
/// Kept only because the `perfbench` harness, which may not change
/// with this crate, calls it (its `experiments.serve_store_s`
/// metric); in-tree code calls [`snapshot`] and `Store::new`.
#[must_use]
pub fn build(dataset: &Dataset) -> Store {
    Store::new(Arc::new(snapshot(dataset)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    fn quick_store() -> Store {
        Store::new(Arc::new(snapshot(&Dataset::build(PipelineConfig::quick()))))
    }

    #[test]
    fn store_mirrors_the_dataset_shape() {
        let dataset = Dataset::build(PipelineConfig::quick());
        let store = Store::new(Arc::new(snapshot(&dataset)));
        assert_eq!(store.ases().len(), dataset.results.len());
        assert_eq!(store.summary().raw_traces, dataset.raw_trace_count as u64);
        let per_as_raw: usize = dataset.results.iter().map(|r| r.raw_traces).sum();
        assert_eq!(dataset.raw_trace_count, per_as_raw, "raw traces are the per-AS sum");
        assert_eq!(store.summary().vantage_points, dataset.per_vp_discovered.len() as u64);
        let addresses: std::collections::HashSet<_> =
            dataset.results.iter().flat_map(|r| r.discovered.iter().copied()).collect();
        assert_eq!(store.summary().addresses, addresses.len() as u64);
        assert!(
            store.snapshot().addrs.windows(2).all(|w| w[0].addr < w[1].addr),
            "address rows are strictly increasing"
        );
    }

    #[test]
    fn every_as_resolves_by_asn() {
        let store = quick_store();
        for record in store.ases() {
            let hit = store.by_asn(record.asn).expect("asn lookup");
            assert_eq!(hit.id, record.id);
            assert_eq!(store.as_name(record.asn), record.name);
        }
        for entry in store.addrs() {
            let hit = store.addr(entry.addr).expect("addr lookup");
            assert!(std::ptr::eq(hit, entry));
        }
    }

    #[test]
    fn detections_carry_provenance_chains() {
        let dataset = Dataset::build(PipelineConfig::quick());
        let rebuilt = Store::new(Arc::new(snapshot(&dataset)));
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

    /// Equal strings of distinct records are one allocation: every
    /// destination, chain, fingerprint verdict and flag is shared.
    #[test]
    fn equal_record_strings_share_one_arc() {
        let store = quick_store();
        let mut first: HashMap<&str, &Arc<str>> = HashMap::new();
        let (mut records, mut repeats) = (0, 0);
        for d in store.addrs().flat_map(|e| &e.detections) {
            records += 1;
            let p = &d.provenance;
            for s in [&d.vp, &d.dst, &d.flag, &p.chain].into_iter().chain(&p.fingerprint) {
                let seen = *first.entry(&**s).or_insert(s);
                assert!(Arc::ptr_eq(seen, s), "string {s:?} is held twice");
                repeats += usize::from(!std::ptr::eq(seen, s));
            }
        }
        assert!(records > 0 && repeats > 0, "the quick dataset repeats some string");
    }

    #[test]
    fn build_is_deterministic() {
        let a = quick_store();
        let b = quick_store();
        assert_eq!(a.snapshot(), b.snapshot());
        let status_a = a.status_json(2, arest_serve::Json::Null).render();
        let status_b = b.status_json(2, arest_serve::Json::Null).render();
        assert_eq!(status_a, status_b);
    }
}
