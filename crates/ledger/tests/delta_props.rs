//! Properties of the shared-record data model: the merge-join delta
//! against a naive `BTreeMap` oracle, encoding that depends only on
//! content (never on how records are shared), and a guard that a
//! loaded snapshot hands out one shared record per detection-table
//! row, and one shared string per string-table entry, instead of a
//! deep copy per address.
//!
//! The generated pairs exercise both paths of the per-address diff:
//! rows whose detection lists are equal element by element (the same
//! `Arc`s, or equal records in distinct `Arc`s) and rows that differ
//! (edited, or the same records in another order), some of them as
//! one edited row inside a long run of untouched ones.

use arest_ledger::delta::{compute, AsDelta, ChangedEntry, DeltaEntry, DeltaKey, DetectionDelta};
use arest_ledger::snapshot::{
    encode_payload, AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord,
    RunSnapshot, RunTotals,
};
use arest_ledger::{CommitOptions, Ledger, RunMeta};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// SplitMix64: the deterministic stream behind the generated pairs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

// Small domains, so keys collide across addresses, runs, and within
// one address.
const ASNS: [u32; 3] = [64_500, 64_501, 64_502];
const VPS: [&str; 3] = ["vp00", "vp01", "vp02"];
const DSTS: [&str; 2] = ["10.9.0.1", "10.9.0.2"];
const FLAGS: [(&str, u8); 5] = [("CVR", 5), ("CO", 4), ("LSVR", 4), ("LVR", 3), ("LSO", 1)];

fn record(mix: &mut Mix) -> DetectionRecord {
    let (flag, stars) = mix.pick(&FLAGS);
    let start = mix.below(3);
    DetectionRecord {
        // Independent of any address's ASN: a detection may belong to
        // another AS than the address it covers.
        asn: mix.pick(&ASNS),
        vp: mix.pick(&VPS).into(),
        dst: mix.pick(&DSTS).into(),
        flag: flag.into(),
        stars,
        start,
        end: start + mix.below(2),
        label: 16_000 + mix.below(3) as u32,
        suffix_based: mix.below(2) == 0,
        provenance: ProvenanceRecord {
            trigger_hop: start,
            run_len: 1 + mix.below(3),
            distinct_addrs: 1 + mix.below(3),
            lses_consulted: mix.below(3),
            effective_depth: mix.below(2),
            fingerprint: [Some("Cisco"), None][mix.below(2) as usize].map(Into::into),
            label_in_vendor_range: mix.below(2) == 0,
            suffix_matched: mix.below(2) == 0,
            chain: format!("trigger_hop={start} n={}", mix.below(3)).into(),
        },
    }
}

/// Same key, different evidence.
fn moved(mix: &mut Mix, d: &DetectionRecord) -> DetectionRecord {
    let (flag, stars) = mix.pick(&FLAGS);
    DetectionRecord { flag: flag.into(), stars, label: 17_000 + mix.below(3) as u32, ..d.clone() }
}

fn ases(mix: &mut Mix) -> Vec<AsRecord> {
    let mut out = Vec::new();
    for (i, &asn) in ASNS.iter().enumerate() {
        // Occasionally two records share an ASN (replicated catalogs).
        for copy in 0..1 + u64::from(mix.below(4) == 0) {
            out.push(AsRecord {
                id: (i + 1) as u8,
                asn,
                name: format!("AS {asn} v{}", mix.below(2) + 2 * copy),
                astype: "Transit".to_string(),
                confirmation: "none".to_string(),
                analyzed: true,
                targets_probed: 8,
                traces: 4,
                addresses: 2,
                fingerprinted: 1,
                flags: FlagTotals { lvr: mix.below(2), lso: mix.below(2), ..FlagTotals::default() },
            });
        }
    }
    out
}

fn snapshot(ases: Vec<AsRecord>, addrs: BTreeMap<Ipv4Addr, AddrEntry>) -> RunSnapshot {
    RunSnapshot { ases, addrs: addrs.into_values().collect(), totals: RunTotals::default() }
}

/// The older run: addresses listing records from a shared pool,
/// equal copies in distinct `Arc`s, fresh records, and duplicate keys.
/// A `quiet` run has a long run of addresses.
fn older(mix: &mut Mix, pool: &[Arc<DetectionRecord>], quiet: bool) -> RunSnapshot {
    let mut addrs = BTreeMap::new();
    let count = if quiet { 40 + mix.below(80) } else { mix.below(10) };
    for a in 0..count {
        let mut detections: Vec<Arc<DetectionRecord>> = Vec::new();
        for _ in 0..mix.below(4) {
            let shared = &pool[mix.below(pool.len() as u64) as usize];
            detections.push(match mix.below(4) {
                0 => Arc::new((**shared).clone()),
                1 => Arc::new(record(mix)),
                2 => Arc::new(moved(mix, shared)),
                _ => Arc::clone(shared),
            });
        }
        let addr = Ipv4Addr::new(10, 0, 0, a as u8);
        let entry = AddrEntry {
            addr,
            asn: mix.pick(&ASNS),
            fingerprint: None,
            fingerprint_source: None,
            detections,
        };
        addrs.insert(addr, entry);
    }
    snapshot(ases(mix), addrs)
}

/// One address's detections, edited: each one kept, dropped, moved
/// to new evidence, or copied into a new `Arc`, and sometimes a pool
/// record appended.
fn edited(
    mix: &mut Mix,
    listed: &[Arc<DetectionRecord>],
    pool: &[Arc<DetectionRecord>],
) -> Vec<Arc<DetectionRecord>> {
    let mut detections = Vec::new();
    for d in listed {
        match mix.below(6) {
            0 => {}
            1 => detections.push(Arc::new(moved(mix, d))),
            2 => detections.push(Arc::new((**d).clone())),
            _ => detections.push(Arc::clone(d)),
        }
    }
    if mix.below(3) == 0 {
        detections.push(Arc::clone(&pool[mix.below(pool.len() as u64) as usize]));
    }
    detections
}

/// The newer run: the older one with entries withdrawn, announced,
/// and changed, sharing records with it where they survive. A row may
/// also survive untouched, as equal records in new `Arc`s, or with
/// its records reordered (which can flip which of two same-key
/// records wins). A `quiet` run leaves every row untouched but one.
fn newer(
    mix: &mut Mix,
    from: &RunSnapshot,
    pool: &[Arc<DetectionRecord>],
    quiet: bool,
) -> RunSnapshot {
    let edit_at = quiet.then(|| mix.below(from.addrs.len() as u64) as usize);
    let mut addrs = BTreeMap::new();
    for (i, entry) in from.addrs.iter().enumerate() {
        let detections = match edit_at {
            Some(at) if at == i => edited(mix, &entry.detections, pool),
            Some(_) => entry.detections.clone(),
            None => match mix.below(9) {
                0 => continue,
                1 => entry.detections.clone(),
                2 => entry.detections.iter().map(|d| Arc::new((**d).clone())).collect(),
                3 => entry.detections.iter().rev().cloned().collect(),
                4 => {
                    let mut rotated = entry.detections.clone();
                    if !rotated.is_empty() {
                        rotated.rotate_left(1);
                    }
                    rotated
                }
                _ => edited(mix, &entry.detections, pool),
            },
        };
        addrs.insert(entry.addr, AddrEntry { detections, ..entry.clone() });
    }
    for a in 0..if quiet { 0 } else { mix.below(3) } {
        let addr = Ipv4Addr::new(10, 0, 1, a as u8);
        let detections = vec![Arc::new(record(mix)), Arc::clone(&pool[0])];
        let entry = AddrEntry {
            addr,
            asn: mix.pick(&ASNS),
            fingerprint: Some("Juniper".to_string()),
            fingerprint_source: Some("ttl".to_string()),
            detections,
        };
        addrs.insert(addr, entry);
    }
    snapshot(ases(mix), addrs)
}

fn pair(seed: u64) -> (RunSnapshot, RunSnapshot) {
    let mut mix = Mix(seed ^ 0x2545_f491_4f6c_dd1d);
    let pool: Vec<Arc<DetectionRecord>> = (0..4).map(|_| Arc::new(record(&mut mix))).collect();
    let quiet = mix.below(4) == 0;
    let from = older(&mut mix, &pool, quiet);
    let to = newer(&mut mix, &from, &pool, quiet);
    (from, to)
}

fn meta(serial: u64) -> RunMeta {
    RunMeta {
        serial,
        committed_unix: 0,
        config_digest: 0,
        catalog_digest: 0,
        payload_len: 0,
        payload_digest: 0,
    }
}

/// The delta as a `BTreeMap` per run, one owned key per
/// (address, detection), later inserts replacing earlier ones.
fn oracle(from: &RunSnapshot, to: &RunSnapshot) -> DetectionDelta {
    fn keyed(s: &RunSnapshot) -> BTreeMap<DeltaKey, &DetectionRecord> {
        let mut map = BTreeMap::new();
        for entry in &s.addrs {
            for d in &entry.detections {
                let key = DeltaKey {
                    asn: d.asn,
                    addr: entry.addr,
                    vp: d.vp.to_string(),
                    dst: d.dst.to_string(),
                    start: d.start,
                    end: d.end,
                };
                map.insert(key, &**d);
            }
        }
        map
    }
    fn emitted(key: &DeltaKey, d: &DetectionRecord) -> DeltaEntry {
        DeltaEntry { key: key.clone(), flag: d.flag.to_string(), stars: d.stars, label: d.label }
    }
    fn deployed(s: &RunSnapshot, asn: u32) -> bool {
        s.ases.iter().any(|a| a.asn == asn && a.flags.strong() > 0)
    }
    let (before, after) = (keyed(from), keyed(to));
    let mut delta = DetectionDelta {
        from: meta(1),
        to: meta(2),
        announced: Vec::new(),
        withdrawn: Vec::new(),
        changed: Vec::new(),
        per_as: Vec::new(),
    };
    for (key, d) in &after {
        match before.get(key) {
            None => delta.announced.push(emitted(key, d)),
            Some(old) if old != d => delta.changed.push(ChangedEntry {
                key: key.clone(),
                before_flag: old.flag.to_string(),
                after_flag: d.flag.to_string(),
                before_label: old.label,
                after_label: d.label,
            }),
            Some(_) => {}
        }
    }
    for (key, d) in &before {
        if !after.contains_key(key) {
            delta.withdrawn.push(emitted(key, d));
        }
    }
    fn rollup<'m>(
        per_as: &'m mut BTreeMap<u32, AsDelta>,
        asn: u32,
        from: &RunSnapshot,
        to: &RunSnapshot,
    ) -> &'m mut AsDelta {
        per_as.entry(asn).or_insert_with(|| AsDelta {
            asn,
            name: to
                .ases
                .iter()
                .chain(&from.ases)
                .find(|a| a.asn == asn)
                .map_or_else(|| "unknown".to_string(), |a| a.name.clone()),
            announced: 0,
            withdrawn: 0,
            changed: 0,
            deployed_before: deployed(from, asn),
            deployed_after: deployed(to, asn),
        })
    }
    let mut per_as: BTreeMap<u32, AsDelta> = BTreeMap::new();
    for e in &delta.announced {
        rollup(&mut per_as, e.key.asn, from, to).announced += 1;
    }
    for e in &delta.withdrawn {
        rollup(&mut per_as, e.key.asn, from, to).withdrawn += 1;
    }
    for e in &delta.changed {
        rollup(&mut per_as, e.key.asn, from, to).changed += 1;
    }
    for record in to.ases.iter().chain(&from.ases) {
        if deployed(from, record.asn) != deployed(to, record.asn) {
            rollup(&mut per_as, record.asn, from, to);
        }
    }
    delta.per_as = per_as.into_values().collect();
    delta
}

/// Every record in its own `Arc`: no two addresses share anything.
fn deep_unshare(s: &RunSnapshot) -> RunSnapshot {
    let mut out = s.clone();
    for entry in &mut out.addrs {
        for d in &mut entry.detections {
            *d = Arc::new((**d).clone());
        }
    }
    out
}

/// Every record in its own `Arc` holding its own copy of every
/// string: equal records and equal strings share no allocation.
fn deep_copy_strings(s: &RunSnapshot) -> RunSnapshot {
    let copy = |s: &Arc<str>| Arc::<str>::from(&**s);
    let mut out = s.clone();
    for entry in &mut out.addrs {
        for d in &mut entry.detections {
            let mut record = (**d).clone();
            record.vp = copy(&record.vp);
            record.dst = copy(&record.dst);
            record.flag = copy(&record.flag);
            record.provenance.fingerprint = record.provenance.fingerprint.as_ref().map(copy);
            record.provenance.chain = copy(&record.provenance.chain);
            *d = Arc::new(record);
        }
    }
    out
}

/// Equal records collapsed onto one `Arc`: maximal sharing.
fn fully_share(s: &RunSnapshot) -> RunSnapshot {
    let mut canonical: HashMap<DetectionRecord, Arc<DetectionRecord>> = HashMap::new();
    let mut out = s.clone();
    for entry in &mut out.addrs {
        for d in &mut entry.detections {
            *d = Arc::clone(canonical.entry((**d).clone()).or_insert_with(|| Arc::clone(d)));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The merge-join delta equals the naive oracle, entries, order,
    /// last-wins duplicates, and per-AS rollup included.
    #[test]
    fn delta_matches_the_btreemap_oracle(seed: u64) {
        let (from, to) = pair(seed);
        prop_assert_eq!(compute(meta(1), &from, meta(2), &to), oracle(&from, &to));
        prop_assert_eq!(compute(meta(1), &to, meta(2), &from), oracle(&to, &from));
        prop_assert!(compute(meta(1), &from, meta(2), &from).is_empty());
    }

    /// Payload bytes depend only on content: sharing records, copying
    /// them, copying every string too, or collapsing equal copies all
    /// encode identically, and the bytes decode back to an equal
    /// snapshot.
    #[test]
    fn encoding_ignores_how_records_are_shared(seed: u64) {
        let (from, to) = pair(seed);
        for s in [&from, &to] {
            let bytes = encode_payload(s);
            prop_assert_eq!(&bytes, &encode_payload(&deep_unshare(s)));
            prop_assert_eq!(&bytes, &encode_payload(&fully_share(s)));
            let copied = deep_copy_strings(s);
            prop_assert_eq!(&bytes, &encode_payload(&copied));
            // Content-equal records in one `Arc` each, whose equal
            // strings are distinct allocations.
            prop_assert_eq!(&bytes, &encode_payload(&fully_share(&copied)));
            let decoded = arest_ledger::snapshot::decode_payload(&bytes).expect("decode");
            prop_assert_eq!(&decoded, s);
        }
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("arest-ledger-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A loaded snapshot shares one record per detection-table row: two
/// addresses listing the same row hold the same `Arc`, even when the
/// committed snapshot held distinct (equal) copies. Likewise, equal
/// strings of distinct records share one `Arc<str>`.
#[test]
fn loaded_addresses_share_table_rows() {
    // The first generated run that lists some record at two places.
    let from = (0u64..)
        .map(|seed| pair(seed).0)
        .find(|s| {
            let listed: Vec<&DetectionRecord> =
                s.addrs.iter().flat_map(|e| &e.detections).map(|d| &**d).collect();
            let distinct: std::collections::HashSet<&DetectionRecord> =
                listed.iter().copied().collect();
            listed.len() > distinct.len()
        })
        .expect("some seed shares a record");
    let unshared = deep_unshare(&from);
    let dir = scratch_dir("sharing");
    let ledger = Ledger::open(&dir).expect("open");
    ledger.commit(&unshared, &CommitOptions::default()).expect("commit");
    let loaded = ledger.load(1).expect("load").snapshot;
    assert_eq!(loaded, from);
    let mut first: HashMap<&DetectionRecord, &Arc<DetectionRecord>> = HashMap::new();
    let mut listed = 0;
    for d in loaded.addrs.iter().flat_map(|e| &e.detections) {
        let seen = *first.entry(&**d).or_insert(d);
        assert!(Arc::ptr_eq(seen, d), "an equal record was decoded twice");
        listed += 1;
    }
    assert!(listed > first.len(), "the sample must list some row at two places");

    let mut strings: HashMap<&str, &Arc<str>> = HashMap::new();
    let mut repeats = 0;
    for d in first.keys() {
        for s in [&d.vp, &d.flag, &d.provenance.chain] {
            let seen = *strings.entry(&**s).or_insert(s);
            if !std::ptr::eq(seen, s) {
                assert!(Arc::ptr_eq(seen, s), "string {s:?} was decoded twice");
                repeats += 1;
            }
        }
    }
    assert!(repeats > 0, "the sample must repeat some string across records");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `ledger.encode.us` times each commit's encoding and
/// `ledger.delta.us` each diff's compute step; the `ledger.diff` span
/// counts the emitted entries and the address rows the diff walked.
#[test]
fn encode_and_delta_latencies_are_recorded() {
    let registry = arest_obs::global();
    registry.set_enabled(true);
    let dir = scratch_dir("obs");
    let ledger = Ledger::open(&dir).expect("open");
    // The first quiet pair: one edited row among many untouched ones.
    let (from, to) = (0u64..)
        .map(pair)
        .find(|(from, to)| from.addrs.len() >= 40 && from.addrs != to.addrs)
        .expect("some seed is quiet");
    ledger.commit(&from, &CommitOptions::default()).expect("commit 1");
    ledger.commit(&to, &CommitOptions::default()).expect("commit 2");
    let delta = ledger.diff(1, 2).expect("diff");
    let snapshot = registry.snapshot();
    let count = |name: &str| snapshot.histograms.get(name).map_or(0, |h| h.count);
    assert!(count("ledger.encode.us") >= 2, "one encode per commit");
    assert!(count("ledger.delta.us") >= 1, "one compute per diff");
    assert!(count("ledger.diff.us") >= 1);

    let spans = registry.tracer().take_records();
    let span = spans.iter().find(|r| r.name == "ledger.diff").expect("a ledger.diff span");
    let field = |key: &str| match span.fields.iter().find(|(k, _)| *k == key) {
        Some((_, arest_obs::FieldValue::U64(v))) => *v,
        other => panic!("ledger.diff field {key}: {other:?}"),
    };
    assert_eq!(field("announced"), delta.announced.len() as u64);
    assert_eq!(field("withdrawn"), delta.withdrawn.len() as u64);
    assert_eq!(field("changed"), delta.changed.len() as u64);
    assert_eq!(field("addrs"), from.addrs.len() as u64, "a quiet pair keeps every address");
    assert_eq!(field("addrs_differing"), 1, "only the edited row takes the slow path");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
