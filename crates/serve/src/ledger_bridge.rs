//! The JSON rendering for the ledger routes (`/api/runs`,
//! `/api/runs/{serial}`, `/api/diff/{a}/{b}`), plus the two
//! store ↔ snapshot shims the benchmark harness times.
//!
//! Digests render as 16-digit zero-padded hex **strings**, never JSON
//! numbers — a u64 digest routinely exceeds 2⁵³ and would silently
//! lose precision in any IEEE-754-backed consumer.

use crate::json::Json;
use crate::store::{totals_json, Store};
use arest_ledger::snapshot::RunSnapshot;
use arest_ledger::{AuxRecord, DetectionDelta, RunMeta, StoredRun, HEADER_LEN};
use std::sync::Arc;

/// A copy of the snapshot `store` indexes.
///
/// Kept only because the `perfbench` harness, which may not change
/// with this crate, calls it (its `serve.bridge_s` metric); in-tree
/// code reads [`Store::snapshot`] instead.
#[must_use]
pub fn snapshot_from_store(store: &Store) -> RunSnapshot {
    RunSnapshot::clone(store.snapshot())
}

/// A store indexing a copy of `snapshot`.
///
/// Kept only because the `perfbench` harness, which may not change
/// with this crate, calls it (its `serve.store_from_snapshot_s`
/// metric); in-tree code moves the snapshot into [`Store::new`].
#[must_use]
pub fn store_from_snapshot(snapshot: &RunSnapshot) -> Store {
    Store::new(Arc::new(snapshot.clone()))
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
    let origin = aux.map_or(Json::Null, |aux| {
        let carried = aux.carried.len() as u64;
        Json::obj(vec![
            ("base_serial", aux.base_serial.map_or(Json::Null, Json::U64)),
            ("fresh_ases", Json::U64(t.ases.saturating_sub(carried))),
            ("carried_ases", Json::U64(carried)),
        ])
    });
    Json::obj(vec![("meta", meta_json(&run.meta)), ("totals", totals_json(t)), ("origin", origin)])
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

    /// The harness shims copy the snapshot's rows but share its
    /// detection records: one `Arc` per detection either way.
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
