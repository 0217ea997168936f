//! The bridge between the ledger's committed snapshots and the
//! daemon's serving store, plus the JSON rendering for the ledger
//! routes.
//!
//! `arest-ledger` sits below the daemon and stores plain owned rows;
//! the [`Store`] is the indexed serving view.
//! [`snapshot_from_store`] is what a campaign commits;
//! [`store_from_snapshot`] is what the watcher swaps in. The two are
//! inverses up to the store's derived indices: a snapshot committed
//! from a store and loaded back serves byte-identical bodies, which
//! the `parallel_build_matches_ledger_roundtrip` determinism test
//! rides. Both sides hold the same shared `Arc<DetectionRecord>`
//! rows, so the bridge copies pointers, never detections.
//!
//! Digests render as 16-digit zero-padded hex **strings**, never JSON
//! numbers — a u64 digest routinely exceeds 2⁵³ and would silently
//! lose precision in any IEEE-754-backed consumer.

use crate::json::Json;
use crate::store::{AddrRecord, AsSummary, FlagCounts, Store, SummaryInfo};
use arest_ledger::snapshot::{AddrEntry, AsRecord, FlagTotals, RunSnapshot, RunTotals};
use arest_ledger::{AuxRecord, DetectionDelta, RunMeta, StoredRun, HEADER_LEN};
use std::collections::HashMap;

fn totals_of(flags: &FlagCounts) -> FlagTotals {
    FlagTotals { cvr: flags.cvr, co: flags.co, lsvr: flags.lsvr, lvr: flags.lvr, lso: flags.lso }
}

fn counts_of(flags: &FlagTotals) -> FlagCounts {
    FlagCounts { cvr: flags.cvr, co: flags.co, lsvr: flags.lsvr, lvr: flags.lvr, lso: flags.lso }
}

/// Flattens a serving store into the plain rows a commit persists.
#[must_use]
pub fn snapshot_from_store(store: &Store) -> RunSnapshot {
    let ases = store
        .ases()
        .iter()
        .map(|a| AsRecord {
            id: a.id,
            asn: a.asn,
            name: a.name.clone(),
            astype: a.astype.clone(),
            confirmation: a.confirmation.clone(),
            analyzed: a.analyzed,
            targets_probed: a.targets_probed,
            traces: a.traces,
            addresses: a.addresses,
            fingerprinted: a.fingerprinted,
            flags: totals_of(&a.flags),
        })
        .collect();
    let addrs = store
        .addrs()
        .map(|record| AddrEntry {
            addr: record.addr,
            asn: record.asn,
            fingerprint: record.fingerprint.clone(),
            fingerprint_source: record.fingerprint_source.clone(),
            detections: record.detections.clone(),
        })
        .collect();
    let s = store.summary();
    let totals = RunTotals {
        ases: s.ases,
        analyzed: s.analyzed,
        sr_deployed: s.sr_deployed,
        addresses: s.addresses,
        fingerprinted: s.fingerprinted,
        raw_traces: s.raw_traces,
        intra_as_traces: s.intra_as_traces,
        vantage_points: s.vantage_points,
        flags: totals_of(&s.flags),
    };
    RunSnapshot { ases, addrs, totals }
}

/// Rebuilds a serving store from a loaded snapshot. The address rows'
/// `as_name` (a serving denormalisation the snapshot does not carry)
/// is reconstructed from the AS records; an address annotated to an
/// ASN outside them serves `"unknown"`.
#[must_use]
pub fn store_from_snapshot(snapshot: &RunSnapshot) -> Store {
    let mut names: HashMap<u32, &str> = HashMap::new();
    for record in &snapshot.ases {
        names.entry(record.asn).or_insert(&record.name);
    }
    let ases = snapshot
        .ases
        .iter()
        .map(|r| AsSummary {
            id: r.id,
            asn: r.asn,
            name: r.name.clone(),
            astype: r.astype.clone(),
            confirmation: r.confirmation.clone(),
            analyzed: r.analyzed,
            targets_probed: r.targets_probed,
            traces: r.traces,
            addresses: r.addresses,
            fingerprinted: r.fingerprinted,
            flags: counts_of(&r.flags),
        })
        .collect();
    let addrs = snapshot
        .addrs
        .iter()
        .map(|entry| AddrRecord {
            addr: entry.addr,
            asn: entry.asn,
            as_name: names.get(&entry.asn).map_or("unknown", |n| n).to_string(),
            fingerprint: entry.fingerprint.clone(),
            fingerprint_source: entry.fingerprint_source.clone(),
            detections: entry.detections.clone(),
        })
        .collect();
    let t = &snapshot.totals;
    let summary = SummaryInfo {
        ases: t.ases,
        analyzed: t.analyzed,
        sr_deployed: t.sr_deployed,
        addresses: t.addresses,
        fingerprinted: t.fingerprinted,
        raw_traces: t.raw_traces,
        intra_as_traces: t.intra_as_traces,
        vantage_points: t.vantage_points,
        flags: counts_of(&t.flags),
    };
    Store::new(ases, addrs, summary)
}

/// A u64 digest as the 16-hex-digit string the API serves.
#[must_use]
pub fn hex_digest(digest: u64) -> String {
    format!("{digest:016x}")
}

/// One run's header as JSON (an element of `GET /api/runs`).
#[must_use]
pub fn meta_json(meta: &RunMeta) -> Json {
    Json::obj(vec![
        ("serial", Json::U64(meta.serial)),
        ("committed_unix", Json::U64(meta.committed_unix)),
        ("config_digest", Json::str(hex_digest(meta.config_digest))),
        ("catalog_digest", Json::str(hex_digest(meta.catalog_digest))),
        ("payload_digest", Json::str(hex_digest(meta.payload_digest))),
        ("bytes", Json::U64(meta.payload_len + HEADER_LEN as u64)),
    ])
}

/// The `GET /api/runs` body: every committed run plus the latest
/// serial.
#[must_use]
pub fn runs_json(metas: &[RunMeta]) -> Json {
    Json::obj(vec![
        ("latest", metas.last().map_or(Json::Null, |m| Json::U64(m.serial))),
        ("runs", Json::Arr(metas.iter().map(meta_json).collect())),
    ])
}

/// The `GET /api/runs/{serial}` body: the verified header, the
/// committed campaign totals, and — when the serial carries a
/// carry-forward sidecar — the fresh/carried origin breakdown.
#[must_use]
pub fn run_json(run: &StoredRun, aux: Option<&AuxRecord>) -> Json {
    let t = &run.snapshot.totals;
    let flags = counts_of(&t.flags);
    let origin = aux.map_or(Json::Null, |aux| {
        let carried = aux.carried.len() as u64;
        Json::obj(vec![
            ("base_serial", aux.base_serial.map_or(Json::Null, Json::U64)),
            ("fresh_ases", Json::U64(t.ases.saturating_sub(carried))),
            ("carried_ases", Json::U64(carried)),
        ])
    });
    Json::obj(vec![
        ("meta", meta_json(&run.meta)),
        (
            "totals",
            Json::obj(vec![
                ("ases", Json::U64(t.ases)),
                ("analyzed", Json::U64(t.analyzed)),
                ("sr_deployed", Json::U64(t.sr_deployed)),
                ("addresses", Json::U64(t.addresses)),
                ("fingerprinted_addresses", Json::U64(t.fingerprinted)),
                ("raw_traces", Json::U64(t.raw_traces)),
                ("intra_as_traces", Json::U64(t.intra_as_traces)),
                ("vantage_points", Json::U64(t.vantage_points)),
                ("detections", flags.detections_json()),
            ]),
        ),
        ("origin", origin),
    ])
}

fn key_json(key: &arest_ledger::DeltaKey) -> Json {
    Json::obj(vec![
        ("asn", Json::U64(u64::from(key.asn))),
        ("addr", Json::str(key.addr.to_string())),
        ("vp", Json::str(&key.vp)),
        ("dst", Json::str(&key.dst)),
        ("hops", Json::obj(vec![("start", Json::U64(key.start)), ("end", Json::U64(key.end))])),
    ])
}

/// The `GET /api/diff/{a}/{b}` body.
#[must_use]
pub fn delta_json(delta: &DetectionDelta) -> Json {
    Json::obj(vec![
        ("from", meta_json(&delta.from)),
        ("to", meta_json(&delta.to)),
        ("empty", Json::Bool(delta.is_empty())),
        (
            "counts",
            Json::obj(vec![
                ("announced", Json::from(delta.announced.len())),
                ("withdrawn", Json::from(delta.withdrawn.len())),
                ("changed", Json::from(delta.changed.len())),
            ]),
        ),
        (
            "announced",
            Json::Arr(
                delta
                    .announced
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("key", key_json(&e.key)),
                            ("flag", Json::str(&e.flag)),
                            ("stars", Json::U64(u64::from(e.stars))),
                            ("label", Json::U64(u64::from(e.label))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "withdrawn",
            Json::Arr(
                delta
                    .withdrawn
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("key", key_json(&e.key)),
                            ("flag", Json::str(&e.flag)),
                            ("stars", Json::U64(u64::from(e.stars))),
                            ("label", Json::U64(u64::from(e.label))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "changed",
            Json::Arr(
                delta
                    .changed
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("key", key_json(&e.key)),
                            ("before_flag", Json::str(&e.before_flag)),
                            ("after_flag", Json::str(&e.after_flag)),
                            ("before_label", Json::U64(u64::from(e.before_label))),
                            ("after_label", Json::U64(u64::from(e.after_label))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_as",
            Json::Arr(
                delta
                    .per_as
                    .iter()
                    .map(|a| {
                        Json::obj(vec![
                            ("asn", Json::U64(u64::from(a.asn))),
                            ("name", Json::str(&a.name)),
                            ("announced", Json::U64(a.announced)),
                            ("withdrawn", Json::U64(a.withdrawn)),
                            ("changed", Json::U64(a.changed)),
                            ("deployed_before", Json::Bool(a.deployed_before)),
                            ("deployed_after", Json::Bool(a.deployed_after)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::tiny;

    #[test]
    fn store_round_trips_through_the_snapshot() {
        let store = tiny();
        let snapshot = snapshot_from_store(&store);
        let rebuilt = store_from_snapshot(&snapshot);
        // The rebuilt store serves byte-identical bodies.
        assert_eq!(rebuilt.summary().json().render(), store.summary().json().render());
        assert_eq!(
            rebuilt.by_asn(64512).unwrap().json().render(),
            store.by_asn(64512).unwrap().json().render()
        );
        let addr = "10.0.0.1".parse().unwrap();
        assert_eq!(
            rebuilt.addr(addr).unwrap().json().render(),
            store.addr(addr).unwrap().json().render()
        );
        // And re-flattening yields the identical snapshot (stable
        // content digest).
        assert_eq!(snapshot_from_store(&rebuilt), snapshot);
    }

    #[test]
    fn the_bridge_shares_detections_instead_of_copying_them() {
        let store = tiny();
        let addr = "10.0.0.1".parse().unwrap();
        let served = &store.addr(addr).unwrap().detections[0];
        let snapshot = snapshot_from_store(&store);
        assert!(std::sync::Arc::ptr_eq(served, &snapshot.addrs[0].detections[0]));
        let rebuilt = store_from_snapshot(&snapshot);
        assert!(std::sync::Arc::ptr_eq(served, &rebuilt.addr(addr).unwrap().detections[0]));
    }

    #[test]
    fn unknown_asns_get_a_placeholder_name() {
        let store = tiny();
        let mut snapshot = snapshot_from_store(&store);
        snapshot.addrs[0].asn = 65_000;
        let rebuilt = store_from_snapshot(&snapshot);
        assert_eq!(rebuilt.addr("10.0.0.1".parse().unwrap()).unwrap().as_name, "unknown");
    }

    #[test]
    fn digests_render_as_padded_hex_strings() {
        assert_eq!(hex_digest(0xabc), "0000000000000abc");
        let meta = RunMeta {
            serial: 2,
            committed_unix: 1,
            config_digest: u64::MAX,
            catalog_digest: 0,
            payload_len: 40,
            payload_digest: 7,
        };
        let body = meta_json(&meta).render();
        assert!(body.contains("\"config_digest\": \"ffffffffffffffff\""));
        assert!(body.contains(&format!("\"bytes\": {}", 40 + HEADER_LEN)));
    }
}
