//! The read-only deployment store the daemon serves.
//!
//! `arest-serve` cannot depend on `arest-experiments` (the experiment
//! harness is the crate that *embeds* the server), so the store
//! defines its own plain-data view of a completed dataset: per-AS
//! summaries, per-address evidence records carrying the full
//! provenance chain of every detection that touched the address, and
//! the dataset-wide totals. Detections are the ledger's
//! [`DetectionRecord`] rows, shared as `Arc`s by every address their
//! segment covers, so committing a store or serving a loaded snapshot
//! never copies them. `arest_experiments::serve_store` is the
//! one converter that fills it from a built `Dataset`; tests build
//! tiny stores by hand.
//!
//! All JSON rendering lives here, next to the data it renders, so the
//! bodies `docs/API.md` quotes have exactly one source of truth.

use crate::json::Json;
use arest_ledger::snapshot::DetectionRecord;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Detection counts by flag, strongest first (paper order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlagCounts {
    /// Consecutive & Vendor Range (★5).
    pub cvr: u64,
    /// Consecutive Only (★4).
    pub co: u64,
    /// Label Stack & Vendor Range (★4).
    pub lsvr: u64,
    /// Label & Vendor Range (★3).
    pub lvr: u64,
    /// Label Stack Only (★1).
    pub lso: u64,
}

impl FlagCounts {
    /// Adds one detection by its flag name (`CVR`/`CO`/`LSVR`/`LVR`/`LSO`).
    pub fn add(&mut self, flag: &str) {
        match flag {
            "CVR" => self.cvr += 1,
            "CO" => self.co += 1,
            "LSVR" => self.lsvr += 1,
            "LVR" => self.lvr += 1,
            _ => self.lso += 1,
        }
    }

    /// All detections.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cvr + self.co + self.lsvr + self.lvr + self.lso
    }

    /// Detections on strong flags (everything but LSO, §6.3).
    #[must_use]
    pub fn strong(&self) -> u64 {
        self.cvr + self.co + self.lsvr + self.lvr
    }

    /// The `by_flag` JSON object.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("CVR", Json::U64(self.cvr)),
            ("CO", Json::U64(self.co)),
            ("LSVR", Json::U64(self.lsvr)),
            ("LVR", Json::U64(self.lvr)),
            ("LSO", Json::U64(self.lso)),
        ])
    }

    /// The full `detections` JSON object (totals plus the breakdown).
    #[must_use]
    pub fn detections_json(&self) -> Json {
        Json::obj(vec![
            ("total", Json::U64(self.total())),
            ("strong", Json::U64(self.strong())),
            ("by_flag", self.json()),
        ])
    }
}

/// One AS's deployment summary (the `GET /api/as/{asn}` body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsSummary {
    /// The paper's catalog identifier (`#1`–`#60`).
    pub id: u8,
    /// The autonomous system number.
    pub asn: u32,
    /// Operator name.
    pub name: String,
    /// Hierarchy class (`Stub`/`Content`/`Transit`/`Tier-1`).
    pub astype: String,
    /// External SR confirmation source (`cisco`/`survey`/`none`).
    pub confirmation: String,
    /// Whether the AS cleared the ≥ 100-address analysis threshold
    /// (§5) in *this* dataset.
    pub analyzed: bool,
    /// Anaximander targets probed per vantage point.
    pub targets_probed: u64,
    /// Intra-AS traces kept after restriction.
    pub traces: u64,
    /// Distinct addresses annotated to the AS.
    pub addresses: u64,
    /// Addresses with a vendor fingerprint.
    pub fingerprinted: u64,
    /// Detection counts by flag.
    pub flags: FlagCounts,
}

impl AsSummary {
    /// Whether any strong flag fired — the paper's SR-deployed verdict.
    #[must_use]
    pub fn sr_deployed(&self) -> bool {
        self.flags.strong() > 0
    }

    /// The `GET /api/as/{asn}` response body.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::U64(u64::from(self.id))),
            ("asn", Json::U64(u64::from(self.asn))),
            ("name", Json::str(&self.name)),
            ("type", Json::str(&self.astype)),
            ("confirmation", Json::str(&self.confirmation)),
            ("analyzed", Json::Bool(self.analyzed)),
            ("sr_deployed", Json::Bool(self.sr_deployed())),
            ("targets_probed", Json::U64(self.targets_probed)),
            ("traces", Json::U64(self.traces)),
            ("addresses", Json::U64(self.addresses)),
            ("fingerprinted_addresses", Json::U64(self.fingerprinted)),
            ("detections", self.flags.detections_json()),
        ])
    }
}

/// One element of an address's `detections` array.
#[must_use]
pub fn detection_json(d: &DetectionRecord) -> Json {
    let p = &d.provenance;
    Json::obj(vec![
        ("asn", Json::U64(u64::from(d.asn))),
        ("vp", Json::str(&d.vp)),
        ("dst", Json::str(&d.dst)),
        ("flag", Json::str(&d.flag)),
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
                ("chain", Json::str(&p.chain)),
            ]),
        ),
    ])
}

/// Everything known about one address (the `GET /api/addr/{ip}` body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrRecord {
    /// The address.
    pub addr: Ipv4Addr,
    /// The AS it was annotated to.
    pub asn: u32,
    /// That AS's operator name.
    pub as_name: String,
    /// Vendor fingerprint, when one was obtained.
    pub fingerprint: Option<String>,
    /// How the fingerprint was obtained (`snmp`/`ttl`).
    pub fingerprint_source: Option<String>,
    /// Every detection whose segment covers this address. Records are
    /// the ledger's own rows, shared with every other address the
    /// segment covers and with any snapshot built from this store.
    pub detections: Vec<Arc<DetectionRecord>>,
}

impl AddrRecord {
    /// The `GET /api/addr/{ip}` response body.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("addr", Json::str(self.addr.to_string())),
            ("asn", Json::U64(u64::from(self.asn))),
            ("as_name", Json::str(&self.as_name)),
            ("fingerprint", Json::opt_str(self.fingerprint.as_deref())),
            ("fingerprint_source", Json::opt_str(self.fingerprint_source.as_deref())),
            ("detections", Json::Arr(self.detections.iter().map(|d| detection_json(d)).collect())),
        ])
    }
}

/// Dataset-wide totals (the `GET /api/summary` body).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SummaryInfo {
    /// ASes in the catalog.
    pub ases: u64,
    /// ASes clearing the analysis threshold.
    pub analyzed: u64,
    /// ASes with at least one strong detection.
    pub sr_deployed: u64,
    /// Distinct addresses across all ASes.
    pub addresses: u64,
    /// Addresses with a vendor fingerprint.
    pub fingerprinted: u64,
    /// Traces collected before restriction.
    pub raw_traces: u64,
    /// Intra-AS traces kept after restriction.
    pub intra_as_traces: u64,
    /// Vantage points that contributed traces.
    pub vantage_points: u64,
    /// Detection counts by flag, dataset-wide.
    pub flags: FlagCounts,
}

impl SummaryInfo {
    /// The `GET /api/summary` response body.
    #[must_use]
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("ases", Json::U64(self.ases)),
            ("analyzed", Json::U64(self.analyzed)),
            ("sr_deployed", Json::U64(self.sr_deployed)),
            ("addresses", Json::U64(self.addresses)),
            ("fingerprinted_addresses", Json::U64(self.fingerprinted)),
            ("raw_traces", Json::U64(self.raw_traces)),
            ("intra_as_traces", Json::U64(self.intra_as_traces)),
            ("vantage_points", Json::U64(self.vantage_points)),
            ("detections", self.flags.detections_json()),
        ])
    }
}

/// The complete read-only store: what [`crate::Server`] answers from.
#[derive(Debug, Clone)]
pub struct Store {
    ases: Vec<AsSummary>,
    by_asn: HashMap<u32, usize>,
    addrs: BTreeMap<Ipv4Addr, AddrRecord>,
    summary: SummaryInfo,
}

impl Store {
    /// Builds a store. `ases` keeps its order (catalog order, when
    /// converted from a dataset); when the same ASN appears twice
    /// (replicated catalogs), the first entry wins ASN lookups.
    #[must_use]
    pub fn new(ases: Vec<AsSummary>, addrs: Vec<AddrRecord>, summary: SummaryInfo) -> Store {
        let mut by_asn = HashMap::new();
        for (index, summary) in ases.iter().enumerate() {
            by_asn.entry(summary.asn).or_insert(index);
        }
        let addrs = addrs.into_iter().map(|record| (record.addr, record)).collect();
        Store { ases, by_asn, addrs, summary }
    }

    /// All AS summaries, in insertion (catalog) order.
    #[must_use]
    pub fn ases(&self) -> &[AsSummary] {
        &self.ases
    }

    /// Looks an AS up by ASN.
    #[must_use]
    pub fn by_asn(&self, asn: u32) -> Option<&AsSummary> {
        self.by_asn.get(&asn).map(|&index| &self.ases[index])
    }

    /// Looks an address record up.
    #[must_use]
    pub fn addr(&self, ip: Ipv4Addr) -> Option<&AddrRecord> {
        self.addrs.get(&ip)
    }

    /// All address records, in address order. The bench harness and
    /// the `docs/API.md` generator use this to pick real addresses.
    pub fn addrs(&self) -> impl Iterator<Item = &AddrRecord> {
        self.addrs.values()
    }

    /// The dataset-wide totals.
    #[must_use]
    pub fn summary(&self) -> &SummaryInfo {
        &self.summary
    }

    /// The `GET /api/summary` response body: the campaign totals plus
    /// a `per_as` rollup covering **every** AS in the served catalog —
    /// the quiet ones included, with zeroed counters — so the array's
    /// length always matches the catalog and a consumer can tell "not
    /// deployed" from "not measured".
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let per_as = self
            .ases
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
        let Json::Obj(mut fields) = self.summary.json() else {
            unreachable!("SummaryInfo::json renders an object")
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
                    ("ases", Json::U64(self.summary.ases)),
                    ("analyzed", Json::U64(self.summary.analyzed)),
                    ("addresses", Json::U64(self.summary.addresses)),
                    ("raw_traces", Json::U64(self.summary.raw_traces)),
                    ("vantage_points", Json::U64(self.summary.vantage_points)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use arest_ledger::snapshot::ProvenanceRecord;

    /// A two-AS, one-address store the unit tests share.
    pub(crate) fn tiny() -> Store {
        let mut flags = FlagCounts::default();
        flags.add("CVR");
        flags.add("LSO");
        let ases = vec![
            AsSummary {
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
            AsSummary {
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
                flags: FlagCounts::default(),
            },
        ];
        let addr = AddrRecord {
            addr: Ipv4Addr::new(10, 0, 0, 1),
            asn: 64512,
            as_name: "Test Net".to_string(),
            fingerprint: Some("Cisco".to_string()),
            fingerprint_source: Some("snmp".to_string()),
            detections: vec![Arc::new(DetectionRecord {
                asn: 64512,
                vp: "vp00".to_string(),
                dst: "10.0.0.9".to_string(),
                flag: "CVR".to_string(),
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
                    fingerprint: Some("Cisco".to_string()),
                    label_in_vendor_range: true,
                    suffix_matched: false,
                    chain: "trigger_hop=1 run_len=3".to_string(),
                },
            })],
        };
        let summary = SummaryInfo {
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
        Store::new(ases, vec![addr], summary)
    }

    #[test]
    fn lookups_hit_and_miss() {
        let store = tiny();
        assert_eq!(store.by_asn(64512).unwrap().name, "Test Net");
        assert!(store.by_asn(65000).is_none());
        assert!(store.addr(Ipv4Addr::new(10, 0, 0, 1)).is_some());
        assert!(store.addr(Ipv4Addr::new(10, 9, 9, 9)).is_none());
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
        let body = store.by_asn(64512).unwrap().json().render();
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
        let body = store.addr(Ipv4Addr::new(10, 0, 0, 1)).unwrap().json().render();
        for needle in
            ["\"provenance\"", "\"trigger_hop\"", "\"chain\"", "\"stars\": 5", "\"flag\": \"CVR\""]
        {
            assert!(body.contains(needle), "missing {needle} in\n{body}");
        }
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
        let store = tiny();
        let mut ases = store.ases().to_vec();
        let mut duplicate = ases[1].clone();
        duplicate.asn = 64512;
        duplicate.name = "Replica".to_string();
        ases.push(duplicate);
        let rebuilt = Store::new(ases, Vec::new(), SummaryInfo::default());
        assert_eq!(rebuilt.by_asn(64512).unwrap().name, "Test Net");
    }
}
