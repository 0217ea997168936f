//! The snapshot payload: what one committed campaign looks like on
//! disk, and the interned binary encoding that keeps it compact.
//!
//! These are the campaign's result rows. They live here, *below* the
//! daemon in the crate graph, and `arest-serve` serves them directly:
//! its address rows hold the same shared [`DetectionRecord`]s. The
//! snapshot carries per-AS summaries, per-address evidence, every
//! detection with its full provenance chain, and the campaign totals.
//!
//! A detection is one segment of one trace and covers several
//! addresses. In memory it exists once, as an `Arc<DetectionRecord>`
//! that every covering [`AddrEntry`] shares; decoding hands out clones
//! of one `Arc` per detection-table row, so loading, merging, and
//! diffing never deep-copy a record per address. A record's strings
//! (vantage point, destination, flag, fingerprint, chain) are
//! `Arc<str>` for the same reason: a decoded snapshot holds one
//! allocation per string-table entry, however many records repeat it.
//!
//! ## Encoding
//!
//! The payload is two interning tables followed by the rows that
//! reference them:
//!
//! 1. a **string table** (vantage points, flags, vendor names,
//!    provenance chains, AS names — all heavily repeated);
//! 2. a **detection table**: each distinct [`DetectionRecord`] once.
//!    A detection's segment covers several addresses and the serving
//!    rows repeat it per covered address, so storing indices instead
//!    of copies is where most of the compaction comes from;
//! 3. AS records, address entries (whose detection lists are varint
//!    indices into table 2), and the totals.
//!
//! Encoding iterates the snapshot in its stored (deterministic)
//! order, and interning assigns indices in first-use order, so equal
//! snapshots encode to identical bytes — the property the
//! "committed the same build twice" byte-verification test rests on.
//! The interning maps are only ever looked up, never iterated, so
//! their hasher (a word-at-a-time multiplicative one, chosen for
//! speed) cannot move a byte; neither can the `Arc` pointers they are
//! first looked up by, since a pointer hit returns the index the
//! content lookup gave that same string.
//! Everything integer is a LEB128 varint except addresses, which stay
//! fixed 4-byte big-endian like the rest of `arest-wire`.

use crate::codec::{put_bool, put_str, put_varint, Reader};
use crate::error::{LedgerError, LedgerResult};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;
use std::ops::AddAssign;
use std::sync::Arc;

/// Detection counts by flag, strongest first (paper order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlagTotals {
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

impl FlagTotals {
    /// Counts one detection by its flag name (`CVR`/`CO`/`LSVR`/`LVR`;
    /// anything else counts as `LSO`).
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
}

impl AddAssign for FlagTotals {
    fn add_assign(&mut self, other: FlagTotals) {
        self.cvr += other.cvr;
        self.co += other.co;
        self.lsvr += other.lsvr;
        self.lvr += other.lvr;
        self.lso += other.lso;
    }
}

/// One AS's campaign summary, as committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsRecord {
    /// The paper's catalog identifier.
    pub id: u8,
    /// The autonomous system number.
    pub asn: u32,
    /// Operator name.
    pub name: String,
    /// Hierarchy class (`Stub`/`Content`/`Transit`/`Tier-1`).
    pub astype: String,
    /// External SR confirmation source (`cisco`/`survey`/`none`).
    pub confirmation: String,
    /// Whether the AS cleared the analysis threshold in this run.
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
    pub flags: FlagTotals,
}

impl AsRecord {
    /// Whether any strong flag fired — the paper's SR-deployed verdict.
    #[must_use]
    pub fn sr_deployed(&self) -> bool {
        self.flags.strong() > 0
    }
}

/// The provenance chain of one detection.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProvenanceRecord {
    /// Index of the hop that triggered the detection.
    pub trigger_hop: u64,
    /// Length of the matched label run.
    pub run_len: u64,
    /// Distinct replying addresses across the segment.
    pub distinct_addrs: u64,
    /// Label-stack entries the detector examined.
    pub lses_consulted: u64,
    /// Stack depth after entropy-pair exclusion.
    pub effective_depth: u64,
    /// The consulted fingerprint verdict, when any.
    pub fingerprint: Option<Arc<str>>,
    /// Whether the label mapped into the vendor's SR range.
    pub label_in_vendor_range: bool,
    /// Whether decimal-suffix matching was needed.
    pub suffix_matched: bool,
    /// The one-line `key=value` evidence chain.
    pub chain: Arc<str>,
}

/// One detected segment with full provenance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DetectionRecord {
    /// The ASN the trace was restricted to.
    pub asn: u32,
    /// Vantage point that ran the trace.
    pub vp: Arc<str>,
    /// Probe destination of the trace.
    pub dst: Arc<str>,
    /// The flag that fired (`CVR`/`CO`/`LSVR`/`LVR`/`LSO`).
    pub flag: Arc<str>,
    /// Signal strength in stars (§4).
    pub stars: u8,
    /// First hop index of the segment.
    pub start: u64,
    /// Last hop index (inclusive).
    pub end: u64,
    /// The active label that triggered the flag.
    pub label: u32,
    /// Whether suffix-based matching was needed.
    pub suffix_based: bool,
    /// The evidence chain.
    pub provenance: ProvenanceRecord,
}

/// Everything committed about one address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrEntry {
    /// The address.
    pub addr: Ipv4Addr,
    /// The AS it was annotated to.
    pub asn: u32,
    /// Vendor fingerprint, when one was obtained.
    pub fingerprint: Option<String>,
    /// How the fingerprint was obtained (`snmp`/`ttl`).
    pub fingerprint_source: Option<String>,
    /// Every detection whose segment covers this address, in stored
    /// (deterministic) order. A record is shared by every address its
    /// segment covers.
    pub detections: Vec<Arc<DetectionRecord>>,
}

/// Campaign-wide totals, as committed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTotals {
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
    /// Detection counts by flag, campaign-wide.
    pub flags: FlagTotals,
}

impl RunTotals {
    /// The campaign totals of `ases` and `addrs` (one entry per
    /// distinct address). `raw_traces` and `vantage_points` are not
    /// derivable from the rows, so the caller supplies them.
    #[must_use]
    pub fn new(
        ases: &[AsRecord],
        addrs: &[AddrEntry],
        raw_traces: u64,
        vantage_points: u64,
    ) -> RunTotals {
        let mut flags = FlagTotals::default();
        for a in ases {
            flags += a.flags;
        }
        RunTotals {
            ases: ases.len() as u64,
            analyzed: ases.iter().filter(|a| a.analyzed).count() as u64,
            sr_deployed: ases.iter().filter(|a| a.sr_deployed()).count() as u64,
            addresses: addrs.len() as u64,
            fingerprinted: addrs.iter().filter(|a| a.fingerprint.is_some()).count() as u64,
            raw_traces,
            intra_as_traces: ases.iter().map(|a| a.traces).sum(),
            vantage_points,
            flags,
        }
    }
}

/// One completed campaign, ready to commit or freshly loaded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSnapshot {
    /// Per-AS summaries in catalog order.
    pub ases: Vec<AsRecord>,
    /// Per-address evidence in strictly increasing address order (the
    /// decoder rejects anything else, so lookups may binary-search).
    pub addrs: Vec<AddrEntry>,
    /// Campaign totals.
    pub totals: RunTotals,
}

/// A word-at-a-time multiplicative hasher (the `FxHash` shape) for
/// the encoder's interning maps, which hash every record and string
/// reference of a snapshot. The final rotation brings the product's
/// well-mixed high bits down to the low bits the table indexes by.
/// Not DoS-resistant: it only ever hashes a snapshot being committed.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` under [`WordHasher`].
type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// First-use-order string interner over borrowed strings. A shared
/// string is looked up by its `Arc`'s data pointer first, so a string
/// that many records hold through one `Arc` is hashed once; a pointer
/// miss falls back to the string's bytes, so equal strings in distinct
/// allocations still get one index.
#[derive(Default)]
struct StringTable<'a> {
    strings: Vec<&'a str>,
    by_content: WordMap<&'a str, u64>,
    by_ptr: WordMap<*const str, u64>,
}

impl<'a> StringTable<'a> {
    fn intern(&mut self, s: &'a str) -> u64 {
        let next = self.strings.len() as u64;
        let i = *self.by_content.entry(s).or_insert(next);
        if i == next {
            self.strings.push(s);
        }
        i
    }

    /// `None` encodes as 0, `Some(s)` as index + 1.
    fn intern_opt(&mut self, s: Option<&'a str>) -> u64 {
        s.map_or(0, |s| self.intern(s) + 1)
    }

    /// [`StringTable::intern`] for a shared string. A live `Arc`'s
    /// pointer names one allocation, so equal pointers mean equal
    /// strings.
    fn intern_shared(&mut self, s: &'a Arc<str>) -> u64 {
        let ptr = Arc::as_ptr(s);
        if let Some(&i) = self.by_ptr.get(&ptr) {
            return i;
        }
        let i = self.intern(s);
        self.by_ptr.insert(ptr, i);
        i
    }
}

/// A detection record as fixed-width words in wire order: its scalars
/// and the string-table indices of its strings (the fingerprint as
/// index + 1, 0 for none). Indices are equal exactly when the strings
/// are, so two records are equal exactly when their keys are.
type RecordKey = [u64; 18];

/// The [`RecordKey`] positions that are not varints on the wire: the
/// star count is one raw byte, the flags are booleans.
const KEY_STARS: usize = 4;
const KEY_SUFFIX_BASED: usize = 8;
const KEY_IN_VENDOR_RANGE: usize = 15;
const KEY_SUFFIX_MATCHED: usize = 16;

fn record_key<'a>(d: &'a DetectionRecord, strings: &mut StringTable<'a>) -> RecordKey {
    let p = &d.provenance;
    [
        u64::from(d.asn),
        strings.intern_shared(&d.vp),
        strings.intern_shared(&d.dst),
        strings.intern_shared(&d.flag),
        u64::from(d.stars),
        d.start,
        d.end,
        u64::from(d.label),
        u64::from(d.suffix_based),
        p.trigger_hop,
        p.run_len,
        p.distinct_addrs,
        p.lses_consulted,
        p.effective_depth,
        p.fingerprint.as_ref().map_or(0, |s| strings.intern_shared(s) + 1),
        u64::from(p.label_in_vendor_range),
        u64::from(p.suffix_matched),
        strings.intern_shared(&p.chain),
    ]
}

/// The detection table: each distinct record's key once, in row
/// order, and an open-addressing table of row numbers over them. A
/// slot is only a candidate; a hit is confirmed by comparing the full
/// key, so two different records never share a row. Keeping the keys
/// out of the slots keeps the probed table small.
struct DetectionTable {
    keys: Vec<RecordKey>,
    slots: Vec<u32>,
}

impl DetectionTable {
    const EMPTY: u32 = u32::MAX;

    /// A table for at most `rows` distinct records, at most half full.
    fn with_capacity(rows: usize) -> DetectionTable {
        let slots = (2 * rows).next_power_of_two().max(16);
        DetectionTable { keys: Vec::with_capacity(rows), slots: vec![Self::EMPTY; slots] }
    }

    /// The row of `key`, appending it as a new row on first sight.
    fn row(&mut self, key: RecordKey) -> u64 {
        let mut hasher = WordHasher::default();
        for word in key {
            hasher.add(word);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hasher.finish() as usize & mask;
        loop {
            match self.slots[slot] {
                Self::EMPTY => {
                    let row = u32::try_from(self.keys.len()).expect("fewer than 2^32 rows");
                    self.slots[slot] = row;
                    self.keys.push(key);
                    return u64::from(row);
                }
                row if self.keys[row as usize] == key => return u64::from(row),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// One address row with its string indices resolved.
struct AddrRow {
    fingerprint: u64,
    fingerprint_source: u64,
    detections: Vec<u64>,
}

fn put_flags(out: &mut Vec<u8>, flags: &FlagTotals) {
    for v in [flags.cvr, flags.co, flags.lsvr, flags.lvr, flags.lso] {
        put_varint(out, v);
    }
}

/// Encodes `snapshot` into payload bytes (no header).
///
/// Detections intern by `Arc` identity first; a pointer miss keys the
/// record by its scalars and string indices, so equal records in
/// distinct `Arc`s still share one table row and the bytes depend only
/// on content.
#[must_use]
pub fn encode_payload(snapshot: &RunSnapshot) -> Vec<u8> {
    // Every listed reference bounds the distinct records from above.
    let listed: usize = snapshot.addrs.iter().map(|e| e.detections.len()).sum();
    let mut strings = StringTable::default();
    strings.by_content.reserve(1024);
    let mut detections = DetectionTable::with_capacity(listed);
    let mut by_ptr: WordMap<*const DetectionRecord, u64> =
        WordMap::with_capacity_and_hasher(listed, BuildHasherDefault::default());

    // Pass 1: intern in deterministic traversal order. A record equal
    // to an earlier row finds its strings already interned, so only
    // new rows add strings, in first-use order.
    let as_rows: Vec<[u64; 3]> = snapshot
        .ases
        .iter()
        .map(|a| {
            [strings.intern(&a.name), strings.intern(&a.astype), strings.intern(&a.confirmation)]
        })
        .collect();
    let mut addr_rows: Vec<AddrRow> = Vec::with_capacity(snapshot.addrs.len());
    for entry in &snapshot.addrs {
        let fingerprint = strings.intern_opt(entry.fingerprint.as_deref());
        let fingerprint_source = strings.intern_opt(entry.fingerprint_source.as_deref());
        let mut indices = Vec::with_capacity(entry.detections.len());
        for shared in &entry.detections {
            let index = *by_ptr
                .entry(Arc::as_ptr(shared))
                .or_insert_with(|| detections.row(record_key(shared, &mut strings)));
            indices.push(index);
        }
        addr_rows.push(AddrRow { fingerprint, fingerprint_source, detections: indices });
    }

    // Pass 2: emit.
    let mut out = Vec::new();
    put_varint(&mut out, strings.strings.len() as u64);
    for s in &strings.strings {
        put_str(&mut out, s);
    }

    put_varint(&mut out, detections.keys.len() as u64);
    for key in &detections.keys {
        for (position, &word) in key.iter().enumerate() {
            match position {
                KEY_STARS => out.push(word as u8),
                KEY_SUFFIX_BASED | KEY_IN_VENDOR_RANGE | KEY_SUFFIX_MATCHED => {
                    put_bool(&mut out, word != 0);
                }
                _ => put_varint(&mut out, word),
            }
        }
    }

    put_varint(&mut out, snapshot.ases.len() as u64);
    for (a, names) in snapshot.ases.iter().zip(&as_rows) {
        out.push(a.id);
        put_varint(&mut out, u64::from(a.asn));
        for &index in names {
            put_varint(&mut out, index);
        }
        put_bool(&mut out, a.analyzed);
        put_varint(&mut out, a.targets_probed);
        put_varint(&mut out, a.traces);
        put_varint(&mut out, a.addresses);
        put_varint(&mut out, a.fingerprinted);
        put_flags(&mut out, &a.flags);
    }

    debug_assert!(
        snapshot.addrs.windows(2).all(|w| w[0].addr < w[1].addr),
        "address rows must be strictly increasing"
    );
    put_varint(&mut out, snapshot.addrs.len() as u64);
    for (entry, row) in snapshot.addrs.iter().zip(&addr_rows) {
        out.extend_from_slice(&entry.addr.octets());
        put_varint(&mut out, u64::from(entry.asn));
        put_varint(&mut out, row.fingerprint);
        put_varint(&mut out, row.fingerprint_source);
        put_varint(&mut out, row.detections.len() as u64);
        for &i in &row.detections {
            put_varint(&mut out, i);
        }
    }

    let t = &snapshot.totals;
    for v in [
        t.ases,
        t.analyzed,
        t.sr_deployed,
        t.addresses,
        t.fingerprinted,
        t.raw_traces,
        t.intra_as_traces,
        t.vantage_points,
    ] {
        put_varint(&mut out, v);
    }
    put_flags(&mut out, &t.flags);
    out
}

fn read_flags(reader: &mut Reader<'_>) -> LedgerResult<FlagTotals> {
    Ok(FlagTotals {
        cvr: reader.varint()?,
        co: reader.varint()?,
        lsvr: reader.varint()?,
        lvr: reader.varint()?,
        lso: reader.varint()?,
    })
}

/// The shared string at `index`: a clone of the table's `Arc`.
fn table_arc(table: &[Arc<str>], index: u64, what: &'static str) -> LedgerResult<Arc<str>> {
    usize::try_from(index)
        .ok()
        .and_then(|i| table.get(i))
        .cloned()
        .ok_or(LedgerError::Malformed(what))
}

/// `None` for index 0, else the shared string at `index - 1`.
fn table_opt_arc(
    table: &[Arc<str>],
    index: u64,
    what: &'static str,
) -> LedgerResult<Option<Arc<str>>> {
    if index == 0 {
        return Ok(None);
    }
    table_arc(table, index - 1, what).map(Some)
}

/// An owned copy of the string at `index`, for the per-AS and
/// per-address rows, which keep `String`s.
fn table_str(table: &[Arc<str>], index: u64, what: &'static str) -> LedgerResult<String> {
    table_arc(table, index, what).map(|s| s.to_string())
}

fn table_opt_str(
    table: &[Arc<str>],
    index: u64,
    what: &'static str,
) -> LedgerResult<Option<String>> {
    table_opt_arc(table, index, what).map(|s| s.map(|s| s.to_string()))
}

fn narrow(value: u64, what: &'static str) -> LedgerResult<u32> {
    u32::try_from(value).map_err(|_| LedgerError::Malformed(what))
}

/// Decodes payload bytes back into a snapshot. Trailing bytes after
/// the totals are malformed — a payload is exactly one snapshot.
pub fn decode_payload(bytes: &[u8]) -> LedgerResult<RunSnapshot> {
    let mut reader = Reader::new(bytes);
    let limit = bytes.len();

    let string_count = reader.count(limit)?;
    let mut strings: Vec<Arc<str>> = Vec::with_capacity(string_count.min(4096));
    for _ in 0..string_count {
        strings.push(reader.str()?.into());
    }

    let detection_count = reader.count(limit)?;
    let mut detections = Vec::with_capacity(detection_count.min(4096));
    for _ in 0..detection_count {
        let asn = narrow(reader.varint()?, "detection ASN exceeds 32 bits")?;
        let vp = table_arc(&strings, reader.varint()?, "detection vp index out of range")?;
        let dst = table_arc(&strings, reader.varint()?, "detection dst index out of range")?;
        let flag = table_arc(&strings, reader.varint()?, "detection flag index out of range")?;
        let stars = reader.u8()?;
        let start = reader.varint()?;
        let end = reader.varint()?;
        let label = narrow(reader.varint()?, "detection label exceeds 32 bits")?;
        let suffix_based = reader.bool()?;
        let provenance = ProvenanceRecord {
            trigger_hop: reader.varint()?,
            run_len: reader.varint()?,
            distinct_addrs: reader.varint()?,
            lses_consulted: reader.varint()?,
            effective_depth: reader.varint()?,
            fingerprint: table_opt_arc(
                &strings,
                reader.varint()?,
                "provenance fingerprint index out of range",
            )?,
            label_in_vendor_range: reader.bool()?,
            suffix_matched: reader.bool()?,
            chain: table_arc(&strings, reader.varint()?, "provenance chain index out of range")?,
        };
        detections.push(Arc::new(DetectionRecord {
            asn,
            vp,
            dst,
            flag,
            stars,
            start,
            end,
            label,
            suffix_based,
            provenance,
        }));
    }

    let as_count = reader.count(limit)?;
    let mut ases = Vec::with_capacity(as_count.min(4096));
    for _ in 0..as_count {
        ases.push(AsRecord {
            id: reader.u8()?,
            asn: narrow(reader.varint()?, "AS record ASN exceeds 32 bits")?,
            name: table_str(&strings, reader.varint()?, "AS name index out of range")?,
            astype: table_str(&strings, reader.varint()?, "AS type index out of range")?,
            confirmation: table_str(
                &strings,
                reader.varint()?,
                "AS confirmation index out of range",
            )?,
            analyzed: reader.bool()?,
            targets_probed: reader.varint()?,
            traces: reader.varint()?,
            addresses: reader.varint()?,
            fingerprinted: reader.varint()?,
            flags: read_flags(&mut reader)?,
        });
    }

    let addr_count = reader.count(limit)?;
    let mut addrs = Vec::with_capacity(addr_count.min(4096));
    for _ in 0..addr_count {
        let octets: [u8; 4] = reader.take(4)?.try_into().expect("take(4) returned 4 bytes");
        let addr = Ipv4Addr::from(octets);
        if addrs.last().is_some_and(|prev: &AddrEntry| prev.addr >= addr) {
            return Err(LedgerError::Malformed("address rows out of order"));
        }
        let asn = narrow(reader.varint()?, "address ASN exceeds 32 bits")?;
        let fingerprint =
            table_opt_str(&strings, reader.varint()?, "address fingerprint index out of range")?;
        let fingerprint_source = table_opt_str(
            &strings,
            reader.varint()?,
            "address fingerprint source index out of range",
        )?;
        let index_count = reader.count(limit)?;
        let mut listed = Vec::with_capacity(index_count.min(4096));
        for _ in 0..index_count {
            let index = reader.varint()?;
            let detection = usize::try_from(index)
                .ok()
                .and_then(|i| detections.get(i))
                .ok_or(LedgerError::Malformed("detection index out of range"))?;
            listed.push(Arc::clone(detection));
        }
        addrs.push(AddrEntry { addr, asn, fingerprint, fingerprint_source, detections: listed });
    }

    let totals = RunTotals {
        ases: reader.varint()?,
        analyzed: reader.varint()?,
        sr_deployed: reader.varint()?,
        addresses: reader.varint()?,
        fingerprinted: reader.varint()?,
        raw_traces: reader.varint()?,
        intra_as_traces: reader.varint()?,
        vantage_points: reader.varint()?,
        flags: read_flags(&mut reader)?,
    };
    if !reader.is_empty() {
        return Err(LedgerError::Malformed("trailing bytes after the totals"));
    }
    Ok(RunSnapshot { ases, addrs, totals })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small two-AS snapshot with a shared (interned) detection.
    pub(crate) fn sample() -> RunSnapshot {
        let detection = DetectionRecord {
            asn: 64512,
            vp: "vp03".into(),
            dst: "10.0.9.9".into(),
            flag: "CVR".into(),
            stars: 5,
            start: 2,
            end: 4,
            label: 16_003,
            suffix_based: false,
            provenance: ProvenanceRecord {
                trigger_hop: 2,
                run_len: 3,
                distinct_addrs: 3,
                lses_consulted: 3,
                effective_depth: 1,
                fingerprint: Some("Cisco".into()),
                label_in_vendor_range: true,
                suffix_matched: false,
                chain: "trigger_hop=2 run_len=3".into(),
            },
        };
        let weak = Arc::new(DetectionRecord {
            flag: "LSO".into(),
            stars: 1,
            label: 30_001,
            start: 5,
            end: 6,
            provenance: ProvenanceRecord {
                fingerprint: None,
                label_in_vendor_range: false,
                ..detection.provenance.clone()
            },
            ..detection.clone()
        });
        let detection = Arc::new(detection);
        RunSnapshot {
            ases: vec![
                AsRecord {
                    id: 1,
                    asn: 64512,
                    name: "Test Net".to_string(),
                    astype: "Transit".to_string(),
                    confirmation: "survey".to_string(),
                    analyzed: true,
                    targets_probed: 8,
                    traces: 5,
                    addresses: 2,
                    fingerprinted: 1,
                    flags: FlagTotals { cvr: 1, lso: 1, ..FlagTotals::default() },
                },
                AsRecord {
                    id: 2,
                    asn: 64513,
                    name: "Quiet Net".to_string(),
                    astype: "Stub".to_string(),
                    confirmation: "none".to_string(),
                    analyzed: false,
                    targets_probed: 8,
                    traces: 0,
                    addresses: 0,
                    fingerprinted: 0,
                    flags: FlagTotals::default(),
                },
            ],
            addrs: vec![
                AddrEntry {
                    addr: Ipv4Addr::new(10, 0, 0, 1),
                    asn: 64512,
                    fingerprint: Some("Cisco".to_string()),
                    fingerprint_source: Some("snmp".to_string()),
                    detections: vec![Arc::clone(&detection), weak],
                },
                AddrEntry {
                    addr: Ipv4Addr::new(10, 0, 0, 2),
                    asn: 64512,
                    fingerprint: None,
                    fingerprint_source: None,
                    // The same detection covers both addresses: the
                    // encoder must intern it, not duplicate it.
                    detections: vec![detection],
                },
            ],
            totals: RunTotals {
                ases: 2,
                analyzed: 1,
                sr_deployed: 1,
                addresses: 2,
                fingerprinted: 1,
                raw_traces: 40,
                intra_as_traces: 5,
                vantage_points: 4,
                flags: FlagTotals { cvr: 1, lso: 1, ..FlagTotals::default() },
            },
        }
    }

    #[test]
    fn payload_round_trips() {
        let snapshot = sample();
        let bytes = encode_payload(&snapshot);
        let decoded = decode_payload(&bytes).expect("decode");
        assert_eq!(decoded, snapshot);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_payload(&sample()), encode_payload(&sample()));
    }

    #[test]
    fn shared_detections_are_interned_once() {
        let snapshot = sample();
        let bytes = encode_payload(&snapshot);
        // The chain string appears once in the string table; a naive
        // per-address encoding would carry it twice.
        let needle = b"trigger_hop=2 run_len=3";
        let hits = bytes.windows(needle.len()).filter(|w| *w == needle.as_slice()).count();
        assert_eq!(hits, 1, "provenance chain must be interned");
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = RunSnapshot::default();
        assert_eq!(decode_payload(&encode_payload(&empty)).expect("decode"), empty);
    }

    #[test]
    fn out_of_order_address_rows_are_malformed() {
        let mut bytes = encode_payload(&sample());
        // The two address rows run from 10.0.0.1's octets to the
        // totals, which are 13 one-byte varints in the sample.
        let find = |octets: [u8; 4]| bytes.windows(4).rposition(|w| w == octets).expect("row");
        let (first, second, totals) = (find([10, 0, 0, 1]), find([10, 0, 0, 2]), bytes.len() - 13);
        let swapped = [&bytes[second..totals], &bytes[first..second]].concat();
        bytes[first..totals].copy_from_slice(&swapped);
        assert!(matches!(
            decode_payload(&bytes),
            Err(LedgerError::Malformed("address rows out of order"))
        ));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut bytes = encode_payload(&sample());
        bytes.push(0);
        assert!(matches!(decode_payload(&bytes), Err(LedgerError::Malformed(_))));
    }
}
