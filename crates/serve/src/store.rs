//! The read-only deployment store the daemon serves.
//!
//! A [`Store`] is an index over one committed [`RunSnapshot`]: the
//! ledger's own per-AS, per-address and totals rows, shared behind an
//! `Arc`, plus an ASN → row map. Address lookups binary-search the
//! snapshot's address rows, which the ledger keeps in strictly
//! increasing order. Building a store from a snapshot (a fresh build
//! flattened by `arest_experiments::serve_store::snapshot`, or a run
//! the watcher loaded) copies no row.
//!
//! All JSON rendering lives here, as free functions over the ledger
//! rows, so the bodies `docs/API.md` quotes have exactly one source of
//! truth.

use crate::json::Json;
use arest_ledger::snapshot::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, RunSnapshot, RunTotals,
};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The `detections` JSON object: totals plus the per-flag breakdown,
/// strongest flag first (paper order).
fn flags_json(flags: &FlagTotals) -> Json {
    Json::obj(vec![
        ("total", Json::U64(flags.total())),
        ("strong", Json::U64(flags.strong())),
        (
            "by_flag",
            Json::obj(vec![
                ("CVR", Json::U64(flags.cvr)),
                ("CO", Json::U64(flags.co)),
                ("LSVR", Json::U64(flags.lsvr)),
                ("LVR", Json::U64(flags.lvr)),
                ("LSO", Json::U64(flags.lso)),
            ]),
        ),
    ])
}

/// The `GET /api/as/{asn}` response body.
#[must_use]
pub fn as_json(a: &AsRecord) -> Json {
    Json::obj(vec![
        ("id", Json::U64(u64::from(a.id))),
        ("asn", Json::U64(u64::from(a.asn))),
        ("name", Json::str(&a.name)),
        ("type", Json::str(&a.astype)),
        ("confirmation", Json::str(&a.confirmation)),
        ("analyzed", Json::Bool(a.analyzed)),
        ("sr_deployed", Json::Bool(a.sr_deployed())),
        ("targets_probed", Json::U64(a.targets_probed)),
        ("traces", Json::U64(a.traces)),
        ("addresses", Json::U64(a.addresses)),
        ("fingerprinted_addresses", Json::U64(a.fingerprinted)),
        ("detections", flags_json(&a.flags)),
    ])
}

/// One element of an address's `detections` array.
#[must_use]
pub fn detection_json(d: &DetectionRecord) -> Json {
    let p = &d.provenance;
    Json::obj(vec![
        ("asn", Json::U64(u64::from(d.asn))),
        ("vp", Json::str(&*d.vp)),
        ("dst", Json::str(&*d.dst)),
        ("flag", Json::str(&*d.flag)),
        ("stars", Json::U64(u64::from(d.stars))),
        ("hops", Json::obj(vec![("start", Json::U64(d.start)), ("end", Json::U64(d.end))])),
        ("label", Json::U64(u64::from(d.label))),
        ("suffix_based", Json::Bool(d.suffix_based)),
        (
            "provenance",
            Json::obj(vec![
                ("trigger_hop", Json::U64(p.trigger_hop)),
                ("run_len", Json::U64(p.run_len)),
                ("distinct_addrs", Json::U64(p.distinct_addrs)),
                ("lses_consulted", Json::U64(p.lses_consulted)),
                ("effective_depth", Json::U64(p.effective_depth)),
                ("fingerprint", Json::opt_str(p.fingerprint.as_deref())),
                ("label_in_vendor_range", Json::Bool(p.label_in_vendor_range)),
                ("suffix_matched", Json::Bool(p.suffix_matched)),
                ("chain", Json::str(&*p.chain)),
            ]),
        ),
    ])
}

/// The `GET /api/addr/{ip}` response body. `as_name` is the operator
/// name of the AS the address is annotated to ([`Store::as_name`]).
#[must_use]
pub fn addr_json(entry: &AddrEntry, as_name: &str) -> Json {
    Json::obj(vec![
        ("addr", Json::str(entry.addr.to_string())),
        ("asn", Json::U64(u64::from(entry.asn))),
        ("as_name", Json::str(as_name)),
        ("fingerprint", Json::opt_str(entry.fingerprint.as_deref())),
        ("fingerprint_source", Json::opt_str(entry.fingerprint_source.as_deref())),
        ("detections", Json::Arr(entry.detections.iter().map(|d| detection_json(d)).collect())),
    ])
}

/// The campaign totals object: the `GET /api/summary` body before its
/// `per_as` rollup, and the `totals` of `GET /api/runs/{serial}`.
#[must_use]
pub fn totals_json(t: &RunTotals) -> Json {
    Json::obj(vec![
        ("ases", Json::U64(t.ases)),
        ("analyzed", Json::U64(t.analyzed)),
        ("sr_deployed", Json::U64(t.sr_deployed)),
        ("addresses", Json::U64(t.addresses)),
        ("fingerprinted_addresses", Json::U64(t.fingerprinted)),
        ("raw_traces", Json::U64(t.raw_traces)),
        ("intra_as_traces", Json::U64(t.intra_as_traces)),
        ("vantage_points", Json::U64(t.vantage_points)),
        ("detections", flags_json(&t.flags)),
    ])
}

/// The complete read-only store: what [`crate::Server`] answers from.
#[derive(Debug, Clone)]
pub struct Store {
    snapshot: Arc<RunSnapshot>,
    by_asn: HashMap<u32, usize>,
}

impl Store {
    /// Indexes `snapshot` for serving. When the same ASN appears twice
    /// (replicated catalogs), the first AS row wins ASN lookups.
    #[must_use]
    pub fn new(snapshot: Arc<RunSnapshot>) -> Store {
        let mut by_asn = HashMap::with_capacity(snapshot.ases.len());
        for (index, record) in snapshot.ases.iter().enumerate() {
            by_asn.entry(record.asn).or_insert(index);
        }
        Store { snapshot, by_asn }
    }

    /// The snapshot this store indexes.
    #[must_use]
    pub fn snapshot(&self) -> &Arc<RunSnapshot> {
        &self.snapshot
    }

    /// All AS rows, in catalog order.
    #[must_use]
    pub fn ases(&self) -> &[AsRecord] {
        &self.snapshot.ases
    }

    /// Looks an AS up by ASN.
    #[must_use]
    pub fn by_asn(&self, asn: u32) -> Option<&AsRecord> {
        self.by_asn.get(&asn).map(|&index| &self.snapshot.ases[index])
    }

    /// The operator name of `asn`, or `"unknown"` for an ASN outside
    /// the AS rows.
    #[must_use]
    pub fn as_name(&self, asn: u32) -> &str {
        self.by_asn(asn).map_or("unknown", |a| &a.name)
    }

    /// Looks an address row up.
    #[must_use]
    pub fn addr(&self, ip: Ipv4Addr) -> Option<&AddrEntry> {
        let addrs = &self.snapshot.addrs;
        addrs.binary_search_by_key(&ip, |entry| entry.addr).ok().map(|index| &addrs[index])
    }

    /// All address rows, in address order. The bench harness and the
    /// `docs/API.md` generator use this to pick real addresses.
    pub fn addrs(&self) -> impl Iterator<Item = &AddrEntry> {
        self.snapshot.addrs.iter()
    }

    /// The campaign totals.
    #[must_use]
    pub fn summary(&self) -> &RunTotals {
        &self.snapshot.totals
    }

    /// The `GET /api/summary` response body: the campaign totals plus
    /// a `per_as` rollup covering **every** AS in the served catalog —
    /// the quiet ones included, with zeroed counters — so the array's
    /// length always matches the catalog and a consumer can tell "not
    /// deployed" from "not measured".
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let per_as = self
            .ases()
            .iter()
            .map(|a| {
                Json::obj(vec![
                    ("asn", Json::U64(u64::from(a.asn))),
                    ("name", Json::str(&a.name)),
                    ("analyzed", Json::Bool(a.analyzed)),
                    ("sr_deployed", Json::Bool(a.sr_deployed())),
                    ("detections", Json::U64(a.flags.total())),
                    ("strong", Json::U64(a.flags.strong())),
                ])
            })
            .collect();
        let Json::Obj(mut fields) = totals_json(self.summary()) else {
            unreachable!("totals_json renders an object")
        };
        fields.push(("per_as".to_string(), Json::Arr(per_as)));
        Json::Obj(fields)
    }

    /// The `GET /status` response body: static dataset facts plus the
    /// serving configuration and the ledger provenance (`Json::Null`
    /// when the server runs on a directly built dataset). Deliberately
    /// free of clocks and live counters, so the documented example
    /// stays byte-stable.
    #[must_use]
    pub fn status_json(&self, workers: usize, ledger: Json) -> Json {
        let t = self.summary();
        Json::obj(vec![
            ("service", Json::str("arest-serve")),
            ("status", Json::str("serving")),
            ("workers", Json::from(workers)),
            ("ledger", ledger),
            (
                "endpoints",
                Json::Arr(
                    [
                        "/api/summary",
                        "/api/as/{asn}",
                        "/api/addr/{ip}",
                        "/api/runs",
                        "/api/runs/{serial}",
                        "/api/diff/{a}/{b}",
                        "/metrics",
                        "/status",
                    ]
                    .iter()
                    .map(|s| Json::str(*s))
                    .collect(),
                ),
            ),
            (
                "dataset",
                Json::obj(vec![
                    ("ases", Json::U64(t.ases)),
                    ("analyzed", Json::U64(t.analyzed)),
                    ("addresses", Json::U64(t.addresses)),
                    ("raw_traces", Json::U64(t.raw_traces)),
                    ("vantage_points", Json::U64(t.vantage_points)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use arest_ledger::snapshot::ProvenanceRecord;

    /// A two-AS, one-address snapshot the unit tests share.
    pub(crate) fn tiny_snapshot() -> RunSnapshot {
        let flags = FlagTotals { cvr: 1, lso: 1, ..FlagTotals::default() };
        let ases = vec![
            AsRecord {
                id: 1,
                asn: 64512,
                name: "Test Net".to_string(),
                astype: "Stub".to_string(),
                confirmation: "none".to_string(),
                analyzed: true,
                targets_probed: 8,
                traces: 5,
                addresses: 3,
                fingerprinted: 1,
                flags,
            },
            AsRecord {
                id: 2,
                asn: 64513,
                name: "Quiet Net".to_string(),
                astype: "Transit".to_string(),
                confirmation: "survey".to_string(),
                analyzed: false,
                targets_probed: 8,
                traces: 0,
                addresses: 0,
                fingerprinted: 0,
                flags: FlagTotals::default(),
            },
        ];
        let addr = AddrEntry {
            addr: Ipv4Addr::new(10, 0, 0, 1),
            asn: 64512,
            fingerprint: Some("Cisco".to_string()),
            fingerprint_source: Some("snmp".to_string()),
            detections: vec![Arc::new(DetectionRecord {
                asn: 64512,
                vp: "vp00".into(),
                dst: "10.0.0.9".into(),
                flag: "CVR".into(),
                stars: 5,
                start: 1,
                end: 3,
                label: 16001,
                suffix_based: false,
                provenance: ProvenanceRecord {
                    trigger_hop: 1,
                    run_len: 3,
                    distinct_addrs: 3,
                    lses_consulted: 3,
                    effective_depth: 1,
                    fingerprint: Some("Cisco".into()),
                    label_in_vendor_range: true,
                    suffix_matched: false,
                    chain: "trigger_hop=1 run_len=3".into(),
                },
            })],
        };
        let totals = RunTotals {
            ases: 2,
            analyzed: 1,
            sr_deployed: 1,
            addresses: 3,
            fingerprinted: 1,
            raw_traces: 40,
            intra_as_traces: 5,
            vantage_points: 4,
            flags,
        };
        RunSnapshot { ases, addrs: vec![addr], totals }
    }

    /// [`tiny_snapshot`], indexed.
    pub(crate) fn tiny() -> Store {
        Store::new(Arc::new(tiny_snapshot()))
    }

    #[test]
    fn lookups_hit_and_miss() {
        let store = tiny();
        assert_eq!(store.by_asn(64512).unwrap().name, "Test Net");
        assert!(store.by_asn(65000).is_none());
        assert!(store.addr(Ipv4Addr::new(10, 0, 0, 1)).is_some());
        assert!(store.addr(Ipv4Addr::new(10, 9, 9, 9)).is_none());
        assert!(store.addr(Ipv4Addr::new(0, 0, 0, 0)).is_none());
    }

    #[test]
    fn flag_counts_aggregate_and_classify() {
        let store = tiny();
        let summary = store.by_asn(64512).unwrap();
        assert_eq!(summary.flags.total(), 2);
        assert_eq!(summary.flags.strong(), 1, "LSO is weak");
        assert!(summary.sr_deployed());
        assert!(!store.by_asn(64513).unwrap().sr_deployed());
    }

    #[test]
    fn as_json_carries_the_documented_keys_in_order() {
        let store = tiny();
        let body = as_json(store.by_asn(64512).unwrap()).render();
        let keys: Vec<usize> = [
            "\"id\"",
            "\"asn\"",
            "\"name\"",
            "\"type\"",
            "\"confirmation\"",
            "\"analyzed\"",
            "\"sr_deployed\"",
            "\"targets_probed\"",
            "\"traces\"",
            "\"addresses\"",
            "\"fingerprinted_addresses\"",
            "\"detections\"",
        ]
        .iter()
        .map(|k| body.find(k).unwrap_or_else(|| panic!("missing key {k}")))
        .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys render in documented order");
    }

    #[test]
    fn addr_json_nests_the_full_provenance_chain() {
        let store = tiny();
        let entry = store.addr(Ipv4Addr::new(10, 0, 0, 1)).unwrap();
        let body = addr_json(entry, store.as_name(entry.asn)).render();
        for needle in [
            "\"as_name\": \"Test Net\"",
            "\"provenance\"",
            "\"trigger_hop\"",
            "\"chain\"",
            "\"stars\": 5",
            "\"flag\": \"CVR\"",
        ] {
            assert!(body.contains(needle), "missing {needle} in\n{body}");
        }
    }

    #[test]
    fn unknown_asns_get_a_placeholder_name() {
        let mut snapshot = tiny_snapshot();
        snapshot.addrs[0].asn = 65_000;
        let store = Store::new(Arc::new(snapshot));
        let entry = store.addr(Ipv4Addr::new(10, 0, 0, 1)).unwrap();
        assert_eq!(store.as_name(entry.asn), "unknown");
        assert!(addr_json(entry, store.as_name(entry.asn)).render().contains("\"unknown\""));
    }

    #[test]
    fn status_json_is_clock_free() {
        let store = tiny();
        let body = store.status_json(2, Json::Null).render();
        assert!(body.contains("\"workers\": 2"));
        assert!(body.contains("\"/api/addr/{ip}\""));
        assert!(body.contains("\"/api/diff/{a}/{b}\""));
        assert!(body.contains("\"ledger\": null"));
        assert!(!body.contains("uptime"), "status must stay byte-stable across runs");
    }

    #[test]
    fn summary_per_as_covers_quiet_ases_with_zeroed_counters() {
        let store = tiny();
        let body = store.summary_json().render();
        assert!(body.contains("\"per_as\""));
        // Both catalog ASes appear — the quiet one too, with zeros —
        // so the rollup length matches the catalog.
        assert!(body.contains("\"Test Net\""));
        assert!(body.contains("\"Quiet Net\""));
        let hits = body.matches("\"sr_deployed\": false").count();
        assert_eq!(hits, 1, "the quiet AS rolls up as not deployed");
        assert_eq!(body.matches("\"asn\":").count(), store.ases().len());
    }

    #[test]
    fn duplicate_asns_resolve_to_the_first_entry() {
        let mut snapshot = tiny_snapshot();
        let mut duplicate = snapshot.ases[1].clone();
        duplicate.asn = 64512;
        duplicate.name = "Replica".to_string();
        snapshot.ases.push(duplicate);
        let store = Store::new(Arc::new(snapshot));
        assert_eq!(store.by_asn(64512).unwrap().name, "Test Net");
        assert_eq!(store.as_name(64512), "Test Net");
    }
}
