//! Committing completed campaigns to an `arest-ledger` directory.
//!
//! The ledger stores plain snapshot rows; this module is the glue
//! that flattens a built [`Dataset`] into a [`RunSnapshot`]
//! (`serve_store::snapshot`, the one canonical flattening, which the
//! daemon serves too) and commits it, stamped with digests of the
//! pipeline configuration and the AS catalog so `arest-experiments
//! diff` can tell "the Internet changed" from "the campaign changed".
//!
//! Two commit paths exist. [`commit_dataset`] persists a full run
//! plus its carry-forward sidecar (per-AS raw trace counts and the
//! fingerprint cache's entries). [`commit_incremental`] merges a
//! sliced re-probe against a base serial: re-probed ASes contribute
//! fresh records, everything else is carried forward byte-for-byte
//! from the base snapshot (its rows move into the merge, shared
//! detection records and all), and the merged totals are recomputed from
//! the merged rows. The payload stays content-addressed — a
//! 100%-slice incremental commit produces a byte-identical payload
//! digest to a full rebuild, and a 0%-slice commit reproduces the
//! base payload exactly.

use crate::pipeline::{Dataset, PipelineConfig, SliceSpec};
use crate::serve_store::snapshot;
use arest_ledger::snapshot::{AddrEntry, RunSnapshot, RunTotals};
use arest_ledger::{
    fnv64, AuxRecord, CommitOptions, CommitReceipt, Ledger, LedgerError, LedgerResult,
};
use std::collections::HashSet;

/// Digest of the full pipeline configuration (every knob that shapes
/// the campaign, via its `Debug` rendering — the config is a plain
/// `Copy` struct whose `Debug` output is total).
///
/// The slice selector and base serial are reset before digesting:
/// they choose *how much of* a campaign to recompute, not what the
/// campaign is, so a full run and any slice re-probe of it share one
/// digest — the compatibility check an incremental merge enforces.
///
/// The rendering still carries the retired `columnar: true` layout
/// knob in its old position, so runs committed before the knob was
/// removed keep their digest and stay valid incremental bases.
#[must_use]
pub fn config_digest(config: &PipelineConfig) -> u64 {
    let mut canonical = *config;
    canonical.reprobe = SliceSpec::Full;
    canonical.base_serial = None;
    let rendered =
        format!("{canonical:?}").replacen(", reprobe: ", ", columnar: true, reprobe: ", 1);
    fnv64(rendered.as_bytes())
}

/// Digest of the built-in 60-AS catalog the campaign measured.
/// Changes when any profile (name, type, adoption, vendor mix)
/// changes, so two runs over different catalogs never silently diff.
#[must_use]
pub fn catalog_digest() -> u64 {
    let mut rendered = String::new();
    for profile in &arest_netgen::catalog::CATALOG {
        rendered.push_str(&format!("{profile:?}\n"));
    }
    fnv64(rendered.as_bytes())
}

/// What an incremental commit merged, alongside the plain receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalCommit {
    /// The ledger receipt for the merged snapshot.
    pub receipt: CommitReceipt,
    /// The serial the merge was computed against.
    pub base_serial: u64,
    /// ASNs re-probed in this run, catalog order.
    pub fresh: Vec<u32>,
    /// ASNs carried forward from the base, catalog order.
    pub carried: Vec<u32>,
}

/// Flattens `dataset` and commits it under the ledger's next serial,
/// alongside a carry-forward sidecar so the run can serve as the base
/// of a future slice re-probe. `committed_unix` is caller-supplied
/// (the CLI passes the wall clock, tests pass fixed values) so
/// commits stay reproducible.
pub fn commit_dataset(
    ledger: &Ledger,
    dataset: &Dataset,
    config: &PipelineConfig,
    committed_unix: u64,
) -> LedgerResult<CommitReceipt> {
    let snapshot = snapshot(dataset);
    let options = CommitOptions {
        committed_unix,
        config_digest: config_digest(config),
        catalog_digest: catalog_digest(),
    };
    let aux = AuxRecord {
        base_serial: None,
        carried: Vec::new(),
        raw_traces: dataset.results.iter().map(|r| (r.asn.0, r.raw_traces as u64)).collect(),
        cache: dataset.cache_entries.clone(),
    };
    ledger.commit_with_aux(&snapshot, &options, &aux)
}

/// Merges a sliced re-probe against `config.base_serial` and commits
/// the full merged snapshot: fresh records for the selected ASes,
/// base records carried forward for the rest, totals recomputed from
/// the merged rows. The base run must have been committed by
/// [`commit_dataset`] or [`commit_incremental`] (it needs a
/// carry-forward sidecar) under the same canonical configuration and
/// catalog.
pub fn commit_incremental(
    ledger: &Ledger,
    dataset: &Dataset,
    config: &PipelineConfig,
    committed_unix: u64,
) -> LedgerResult<IncrementalCommit> {
    let base_serial = config
        .base_serial
        .ok_or(LedgerError::Malformed("incremental commit requires a base serial"))?;
    let base = ledger.load(base_serial)?;
    let base_aux = ledger.load_aux(base_serial)?.ok_or(LedgerError::Malformed(
        "base serial has no carry-forward sidecar (committed by an older writer)",
    ))?;
    let options = CommitOptions {
        committed_unix,
        config_digest: config_digest(config),
        catalog_digest: catalog_digest(),
    };
    if base.meta.config_digest != options.config_digest {
        return Err(LedgerError::Malformed(
            "base run was committed under a different campaign configuration",
        ));
    }
    if base.meta.catalog_digest != options.catalog_digest {
        return Err(LedgerError::Malformed("base run measured a different AS catalog"));
    }

    let fresh = snapshot(dataset);
    if base.snapshot.ases.len() != fresh.ases.len() {
        return Err(LedgerError::Malformed("base run covers a different catalog size"));
    }
    let mask = config.slice_mask().unwrap_or_else(|| vec![true; fresh.ases.len()]);
    // A slice's fresh run only hears from the VPs its selected ASes
    // answered; the campaign-wide figure is the wider view.
    let vantage_points = fresh.totals.vantage_points.max(base.snapshot.totals.vantage_points);

    // Per-AS merge in catalog order: fresh where re-probed, the base
    // record byte-for-byte where carried. Both snapshots are owned, so
    // rows move into the merge instead of being cloned.
    let mut ases = Vec::with_capacity(fresh.ases.len());
    let mut fresh_asns = Vec::new();
    let mut carried_asns = Vec::new();
    let mut raw_traces = Vec::with_capacity(fresh.ases.len());
    for (idx, (f, b)) in fresh.ases.into_iter().zip(base.snapshot.ases).enumerate() {
        if mask[idx] {
            fresh_asns.push(f.asn);
            raw_traces.push((f.asn, dataset.results[idx].raw_traces as u64));
            ases.push(f);
        } else {
            carried_asns.push(b.asn);
            raw_traces.push((b.asn, base_aux.raw_for(b.asn).unwrap_or(0)));
            ases.push(b);
        }
    }

    // Address union, address-sorted like every committed snapshot:
    // carried ASes keep their base entries, fresh evidence wins any
    // collision. Both row lists are address-sorted, so one merge pass
    // keeps the order.
    let carried_set: HashSet<u32> = carried_asns.iter().copied().collect();
    let carried = base.snapshot.addrs.into_iter().filter(|e| carried_set.contains(&e.asn));
    let addrs = merge_by_addr(carried, fresh.addrs);

    let raw = raw_traces.iter().map(|(_, raw)| raw).sum();
    let totals = RunTotals::new(&ases, &addrs, raw, vantage_points);
    let merged = RunSnapshot { ases, addrs, totals };

    let aux = AuxRecord {
        base_serial: Some(base_serial),
        carried: carried_asns.clone(),
        raw_traces,
        cache: dataset.cache_entries.clone(),
    };
    let receipt = ledger.commit_with_aux(&merged, &options, &aux)?;
    Ok(IncrementalCommit { receipt, base_serial, fresh: fresh_asns, carried: carried_asns })
}

/// Merges two address-sorted row lists into one, keeping `fresh`'s row
/// where both hold an address.
fn merge_by_addr(
    carried: impl Iterator<Item = AddrEntry>,
    fresh: Vec<AddrEntry>,
) -> Vec<AddrEntry> {
    let mut carried = carried.peekable();
    let mut merged = Vec::with_capacity(fresh.len() + carried.size_hint().1.unwrap_or(0));
    for entry in fresh {
        while let Some(kept) = carried.next_if(|c| c.addr <= entry.addr) {
            if kept.addr < entry.addr {
                merged.push(kept);
            }
        }
        merged.push(entry);
    }
    merged.extend(carried);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_addresses_stay_sorted_and_fresh_rows_win() {
        let row = |last: u8, asn: u32| AddrEntry {
            addr: std::net::Ipv4Addr::new(10, 0, 0, last),
            asn,
            fingerprint: None,
            fingerprint_source: None,
            detections: Vec::new(),
        };
        let carried = vec![row(1, 1), row(3, 1), row(4, 1), row(9, 1)];
        let fresh = vec![row(2, 2), row(3, 2), row(7, 2)];
        let merged = merge_by_addr(carried.into_iter(), fresh);
        let rows: Vec<(u8, u32)> = merged.iter().map(|e| (e.addr.octets()[3], e.asn)).collect();
        assert_eq!(rows, [(1, 1), (2, 2), (3, 2), (4, 1), (7, 2), (9, 1)]);
    }

    #[test]
    fn config_digest_tracks_the_knobs() {
        let base = PipelineConfig::quick();
        let mut tweaked = base;
        tweaked.gen.seed = base.gen.seed + 1;
        assert_ne!(config_digest(&base), config_digest(&tweaked));
        assert_eq!(config_digest(&base), config_digest(&base));
    }

    #[test]
    fn config_digest_ignores_the_slice_selector() {
        let base = PipelineConfig::quick();
        let mut sliced = base;
        sliced.reprobe = SliceSpec::Percent(5);
        sliced.base_serial = Some(7);
        assert_eq!(config_digest(&base), config_digest(&sliced));
    }

    #[test]
    fn config_digest_matches_runs_committed_before_the_layout_knob_went() {
        // The quick campaign's digest as committed (and shown in
        // docs/API.md) while `PipelineConfig` still had the field.
        assert_eq!(config_digest(&PipelineConfig::quick()), 0x93c2_9535_c202_15ce);
    }

    #[test]
    fn catalog_digest_is_stable() {
        assert_eq!(catalog_digest(), catalog_digest());
        assert_ne!(catalog_digest(), 0);
    }
}
