//! Announce/withdraw detection deltas between two committed runs.
//!
//! The delta is keyed by **(ASN, address, segment)** — the segment
//! identified by its trace (vantage point, destination) and hop span
//! — mirroring how a BGP-style feed would key announcements: a
//! detection present only in the newer run is *announced*, one
//! present only in the older run is *withdrawn*, and one whose key
//! survives but whose evidence moved (flag, label, provenance) is
//! *changed*. Entries come out in key order, so a delta between two
//! fixed serials renders byte-identically every time.
//!
//! The diff works on the encoded runs and never decodes a snapshot.
//! Each payload goes once through the ledger's one validating parser
//! (`snapshot::parse_payload`), the same one a load decodes with, so a
//! malformed run fails a diff with the error its load would give. The
//! parser feeds a `PayloadView`: strings borrowed from the payload
//! bytes, detection-table rows as their words, AS rows, and each
//! address row's range of detection indices. No `Arc`, `String` or
//! `AddrEntry` is built.
//!
//! Both runs store their address rows in strictly increasing address
//! order, so the diff walks the two address sections in lockstep. Two
//! detection lists are equal when they have the same length and their
//! records are pairwise equal by content: equal scalars and equal
//! string texts, never equal table indices, since two payloads may
//! intern their strings and records in different orders. Each
//! confirmed (older row, newer row) pair is memoised, so a record
//! listed at many addresses is compared once. Only an address whose
//! lists differ is key-sorted and joined on its own, over keys
//! borrowed from the views; owned [`DeltaKey`]s are built only for the
//! entries the delta emits, and only those are sorted at the end. When
//! one address lists two detections with the same key, the later one
//! in stored order wins.

use crate::error::LedgerResult;
use crate::file::RunMeta;
use crate::snapshot::{
    parse_payload, AddrRow, AsRow, PayloadSink, RecordKey, KEY_ASN, KEY_CHAIN, KEY_DST, KEY_END,
    KEY_FINGERPRINT, KEY_FLAG, KEY_LABEL, KEY_STARS, KEY_START, KEY_VP,
};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::ops::Range;

/// The identity of one detection across runs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeltaKey {
    /// The AS the detection belongs to.
    pub asn: u32,
    /// The covered address.
    pub addr: Ipv4Addr,
    /// Vantage point of the trace.
    pub vp: String,
    /// Probe destination of the trace.
    pub dst: String,
    /// First hop of the segment.
    pub start: u64,
    /// Last hop of the segment (inclusive).
    pub end: u64,
}

/// A [`DeltaKey`] borrowing its strings from a payload. Fields sit
/// in `DeltaKey`'s order, so the derived orderings agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct KeyRef<'a> {
    asn: u32,
    addr: Ipv4Addr,
    vp: &'a str,
    dst: &'a str,
    start: u64,
    end: u64,
}

impl KeyRef<'_> {
    fn into_key(self) -> DeltaKey {
        DeltaKey {
            asn: self.asn,
            addr: self.addr,
            vp: self.vp.to_string(),
            dst: self.dst.to_string(),
            start: self.start,
            end: self.end,
        }
    }
}

/// One announced or withdrawn detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// The detection's cross-run identity.
    pub key: DeltaKey,
    /// The flag that fired.
    pub flag: String,
    /// Signal strength in stars.
    pub stars: u8,
    /// The active label.
    pub label: u32,
}

/// A detection whose key survived but whose evidence moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangedEntry {
    /// The detection's cross-run identity.
    pub key: DeltaKey,
    /// Flag in the older run.
    pub before_flag: String,
    /// Flag in the newer run.
    pub after_flag: String,
    /// Label in the older run.
    pub before_label: u32,
    /// Label in the newer run.
    pub after_label: u32,
}

/// Per-AS rollup of one delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsDelta {
    /// The AS.
    pub asn: u32,
    /// Operator name (from the newer run when present, else the
    /// older).
    pub name: String,
    /// Detections announced in this AS.
    pub announced: u64,
    /// Detections withdrawn from this AS.
    pub withdrawn: u64,
    /// Detections whose evidence changed in this AS.
    pub changed: u64,
    /// The paper's SR-deployed verdict in the older run.
    pub deployed_before: bool,
    /// The verdict in the newer run.
    pub deployed_after: bool,
}

/// The full delta between two committed runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionDelta {
    /// Header of the older run.
    pub from: RunMeta,
    /// Header of the newer run.
    pub to: RunMeta,
    /// Detections present only in the newer run, in key order.
    pub announced: Vec<DeltaEntry>,
    /// Detections present only in the older run, in key order.
    pub withdrawn: Vec<DeltaEntry>,
    /// Detections whose key survived with different evidence.
    pub changed: Vec<ChangedEntry>,
    /// Rollups for every AS touched by the delta (or whose deployment
    /// verdict flipped), in ASN order.
    pub per_as: Vec<AsDelta>,
}

impl DetectionDelta {
    /// Whether the two runs detect exactly the same segments with the
    /// same evidence.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty() && self.withdrawn.is_empty() && self.changed.is_empty()
    }
}

/// A payload parsed in place, for diffing: strings borrowed from the
/// payload bytes, detection-table rows as their [`RecordKey`] words,
/// AS rows, and each address with the range of its detection indices
/// in one flat list. Nothing is shared or reference-counted, so
/// building and dropping a view costs a few large allocations.
#[derive(Debug, Default)]
pub(crate) struct PayloadView<'a> {
    strings: Vec<&'a str>,
    records: Vec<RecordKey>,
    ases: Vec<AsRow>,
    addrs: Vec<(Ipv4Addr, Range<usize>)>,
    listed: Vec<usize>,
}

impl<'a> PayloadSink<'a> for PayloadView<'a> {
    fn strings(&mut self, table: Vec<&'a str>) {
        self.strings = table;
    }

    fn detection(&mut self, key: &RecordKey) {
        self.records.push(*key);
    }

    fn as_row(&mut self, row: AsRow) {
        self.ases.push(row);
    }

    fn addr(&mut self, row: AddrRow, listed: &[usize]) {
        let start = self.listed.len();
        self.listed.extend_from_slice(listed);
        self.addrs.push((row.addr, start..self.listed.len()));
    }
}

impl<'a> PayloadView<'a> {
    /// Parses `payload` through the one validating parser, so it fails
    /// exactly as decoding it would.
    pub(crate) fn parse(payload: &'a [u8]) -> LedgerResult<PayloadView<'a>> {
        let mut view = PayloadView::default();
        parse_payload(payload, &mut view)?;
        Ok(view)
    }

    /// The string at a (parser-checked) string-table index.
    fn str(&self, index: u64) -> &'a str {
        self.strings[index as usize]
    }

    /// The detection indices an address row lists.
    fn listed(&self, range: &Range<usize>) -> &[usize] {
        &self.listed[range.clone()]
    }

    fn key(&self, addr: Ipv4Addr, record: usize) -> KeyRef<'a> {
        let r = &self.records[record];
        KeyRef {
            asn: r[KEY_ASN] as u32,
            addr,
            vp: self.str(r[KEY_VP]),
            dst: self.str(r[KEY_DST]),
            start: r[KEY_START],
            end: r[KEY_END],
        }
    }

    fn flag(&self, record: usize) -> String {
        self.str(self.records[record][KEY_FLAG]).to_string()
    }

    fn label(&self, record: usize) -> u32 {
        self.records[record][KEY_LABEL] as u32
    }

    fn entry(&self, key: KeyRef<'_>, record: usize) -> DeltaEntry {
        DeltaEntry {
            key: key.into_key(),
            flag: self.flag(record),
            stars: self.records[record][KEY_STARS] as u8,
            label: self.label(record),
        }
    }

    /// Per-ASN facts: whether any AS row with the ASN has a strong
    /// detection, and the first row's name.
    fn as_facts(&self) -> HashMap<u32, (bool, &'a str)> {
        let mut facts: HashMap<u32, (bool, &str)> = HashMap::with_capacity(self.ases.len());
        for row in &self.ases {
            let fact = facts.entry(row.record.asn).or_insert((false, self.strings[row.names[0]]));
            fact.0 |= row.record.sr_deployed();
        }
        facts
    }
}

/// How much of the two runs one diff walked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DiffWork {
    /// Address rows visited (an address in both runs counts once).
    pub(crate) addrs: u64,
    /// Rows whose two detection lists differed, so that they were
    /// key-sorted and merge-joined.
    pub(crate) addrs_differing: u64,
}

/// Content equality between the two views' detection-table rows,
/// memoised: `confirmed[a]` is the last `to` row found equal to `from`
/// row `a`, so a record listed at many addresses is compared once.
struct Matcher<'v, 'a> {
    from: &'v PayloadView<'a>,
    to: &'v PayloadView<'a>,
    confirmed: Vec<usize>,
}

impl<'v, 'a> Matcher<'v, 'a> {
    fn new(from: &'v PayloadView<'a>, to: &'v PayloadView<'a>) -> Matcher<'v, 'a> {
        Matcher { from, to, confirmed: vec![usize::MAX; from.records.len()] }
    }

    /// Whether `from` row `a` and `to` row `b` hold the same record:
    /// equal scalars and equal string texts. Indices alone cannot
    /// decide, since two payloads may intern strings in different
    /// orders.
    fn same(&mut self, a: usize, b: usize) -> bool {
        if self.confirmed[a] == b {
            return true;
        }
        let (x, y) = (&self.from.records[a], &self.to.records[b]);
        let text = |position: usize| self.from.str(x[position]) == self.to.str(y[position]);
        let equal = (0..x.len()).all(|p| {
            matches!(p, KEY_VP | KEY_DST | KEY_FLAG | KEY_FINGERPRINT | KEY_CHAIN) || x[p] == y[p]
        }) && text(KEY_VP)
            && text(KEY_DST)
            && text(KEY_FLAG)
            && text(KEY_CHAIN)
            && match (x[KEY_FINGERPRINT], y[KEY_FINGERPRINT]) {
                (0, 0) => true,
                (0, _) | (_, 0) => false,
                (i, j) => self.from.str(i - 1) == self.to.str(j - 1),
            };
        if equal {
            self.confirmed[a] = b;
        }
        equal
    }

    /// Whether two address rows list equal records in the same order.
    fn same_list(&mut self, old: &[usize], new: &[usize]) -> bool {
        old.len() == new.len() && old.iter().zip(new).all(|(&a, &b)| self.same(a, b))
    }
}

/// Fills `out` with every (key, detection row) of one address row,
/// key-sorted, one per key: among equal keys the last in stored order
/// wins.
fn by_key<'a>(
    view: &PayloadView<'a>,
    addr: Ipv4Addr,
    listed: &[usize],
    out: &mut Vec<(KeyRef<'a>, usize)>,
) {
    out.clear();
    out.extend(listed.iter().map(|&d| (view.key(addr, d), d)));
    // Stable, so equal keys keep their stored order for the dedup.
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            *kept = *later;
        }
        same
    });
}

/// The entries a delta emits, in the order found.
#[derive(Default)]
struct Emitted {
    announced: Vec<DeltaEntry>,
    withdrawn: Vec<DeltaEntry>,
    changed: Vec<ChangedEntry>,
}

impl Emitted {
    /// Merge-joins two key-sorted, deduplicated rows of one address.
    fn join(
        &mut self,
        matcher: &mut Matcher<'_, '_>,
        before: &[(KeyRef<'_>, usize)],
        after: &[(KeyRef<'_>, usize)],
    ) {
        let (from, to) = (matcher.from, matcher.to);
        let (mut b, mut a) = (before.iter().peekable(), after.iter().peekable());
        loop {
            let order = match (b.peek(), a.peek()) {
                (None, None) => break,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(old), Some(new)) => old.0.cmp(&new.0),
            };
            match order {
                Ordering::Less => {
                    let &(key, old) = b.next().expect("peeked");
                    self.withdrawn.push(from.entry(key, old));
                }
                Ordering::Greater => {
                    let &(key, new) = a.next().expect("peeked");
                    self.announced.push(to.entry(key, new));
                }
                Ordering::Equal => {
                    let &(_, old) = b.next().expect("peeked");
                    let &(key, new) = a.next().expect("peeked");
                    if !matcher.same(old, new) {
                        self.changed.push(ChangedEntry {
                            key: key.into_key(),
                            before_flag: from.flag(old),
                            after_flag: to.flag(new),
                            before_label: from.label(old),
                            after_label: to.label(new),
                        });
                    }
                }
            }
        }
    }
}

/// Computes the announce/withdraw delta from run `from` to run `to`,
/// given each run's header and payload bytes. A malformed payload is
/// the same typed error decoding it would give, `from`'s first.
pub fn compute(
    from_meta: RunMeta,
    from: &[u8],
    to_meta: RunMeta,
    to: &[u8],
) -> LedgerResult<DetectionDelta> {
    let (from, to) = (PayloadView::parse(from)?, PayloadView::parse(to)?);
    Ok(walk(from_meta, &from, to_meta, &to).0)
}

/// The delta between two parsed payloads, and how much of them the
/// walk visited.
pub(crate) fn walk(
    from_meta: RunMeta,
    from: &PayloadView<'_>,
    to_meta: RunMeta,
    to: &PayloadView<'_>,
) -> (DetectionDelta, DiffWork) {
    let mut matcher = Matcher::new(from, to);
    let mut emitted = Emitted::default();
    let mut work = DiffWork::default();
    let (mut before, mut after) = (Vec::new(), Vec::new());
    let none: &[usize] = &[];
    let (mut b, mut a) = (from.addrs.iter().peekable(), to.addrs.iter().peekable());
    loop {
        let order = match (b.peek(), a.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(old), Some(new)) => old.0.cmp(&new.0),
        };
        let (addr, old, new) = match order {
            Ordering::Less => {
                let (addr, old) = b.next().expect("peeked");
                (*addr, from.listed(old), none)
            }
            Ordering::Greater => {
                let (addr, new) = a.next().expect("peeked");
                (*addr, none, to.listed(new))
            }
            Ordering::Equal => {
                let ((_, old), (addr, new)) =
                    (b.next().expect("peeked"), a.next().expect("peeked"));
                (*addr, from.listed(old), to.listed(new))
            }
        };
        work.addrs += 1;
        if matcher.same_list(old, new) {
            continue;
        }
        work.addrs_differing += 1;
        by_key(from, addr, old, &mut before);
        by_key(to, addr, new, &mut after);
        emitted.join(&mut matcher, &before, &after);
    }
    let Emitted { mut announced, mut withdrawn, mut changed } = emitted;
    // Keys are unique within each list, so the unstable sorts give the
    // one key order.
    announced.sort_unstable_by(|x, y| x.key.cmp(&y.key));
    withdrawn.sort_unstable_by(|x, y| x.key.cmp(&y.key));
    changed.sort_unstable_by(|x, y| x.key.cmp(&y.key));

    // Per-AS rollup: every AS with traffic in the delta, plus every
    // AS whose SR-deployed verdict flipped between the runs. The name
    // comes from the newer run when it has the ASN, else the older.
    let (facts_from, facts_to) = (from.as_facts(), to.as_facts());
    let deployed =
        |facts: &HashMap<u32, (bool, &str)>, asn: u32| facts.get(&asn).is_some_and(|f| f.0);
    let fresh = |asn: u32| AsDelta {
        asn,
        name: facts_to
            .get(&asn)
            .or_else(|| facts_from.get(&asn))
            .map_or("unknown", |f| f.1)
            .to_string(),
        announced: 0,
        withdrawn: 0,
        changed: 0,
        deployed_before: deployed(&facts_from, asn),
        deployed_after: deployed(&facts_to, asn),
    };
    let mut per_as: BTreeMap<u32, AsDelta> = BTreeMap::new();
    for e in &announced {
        per_as.entry(e.key.asn).or_insert_with(|| fresh(e.key.asn)).announced += 1;
    }
    for e in &withdrawn {
        per_as.entry(e.key.asn).or_insert_with(|| fresh(e.key.asn)).withdrawn += 1;
    }
    for e in &changed {
        per_as.entry(e.key.asn).or_insert_with(|| fresh(e.key.asn)).changed += 1;
    }
    for &asn in facts_to.keys().chain(facts_from.keys()) {
        if deployed(&facts_from, asn) != deployed(&facts_to, asn) {
            per_as.entry(asn).or_insert_with(|| fresh(asn));
        }
    }

    let delta = DetectionDelta {
        from: from_meta,
        to: to_meta,
        announced,
        withdrawn,
        changed,
        per_as: per_as.into_values().collect(),
    };
    (delta, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::sample;
    use crate::snapshot::{encode_payload, FlagTotals, RunSnapshot};

    fn meta(serial: u64) -> RunMeta {
        RunMeta {
            serial,
            committed_unix: 1_700_000_000 + serial,
            config_digest: 1,
            catalog_digest: 2,
            payload_len: 0,
            payload_digest: serial,
        }
    }

    /// The delta between the encodings of two snapshots.
    fn delta(from: &RunSnapshot, to: &RunSnapshot) -> DetectionDelta {
        compute(meta(1), &encode_payload(from), meta(2), &encode_payload(to))
            .expect("valid payloads")
    }

    #[test]
    fn identical_runs_yield_an_empty_delta() {
        let snapshot = sample();
        let delta = delta(&snapshot, &snapshot);
        assert!(delta.is_empty());
        assert!(delta.per_as.is_empty());
        assert_eq!(delta.from.serial, 1);
        assert_eq!(delta.to.serial, 2);
    }

    #[test]
    fn removal_is_withdrawal_and_addition_is_announcement() {
        let old = sample();
        let mut new = sample();
        // Drop the weak detection from 10.0.0.1 and move the strong
        // one's address coverage to a new address.
        new.addrs[0].detections.truncate(1);
        let mut extra = new.addrs[1].clone();
        extra.addr = std::net::Ipv4Addr::new(10, 0, 0, 7);
        new.addrs.push(extra);

        let delta = delta(&old, &new);
        assert_eq!(delta.withdrawn.len(), 1, "the weak detection left");
        assert_eq!(delta.withdrawn[0].flag, "LSO");
        assert_eq!(delta.announced.len(), 1, "the new address gained coverage");
        assert_eq!(delta.announced[0].key.addr, std::net::Ipv4Addr::new(10, 0, 0, 7));
        assert!(delta.changed.is_empty());
        assert_eq!(delta.per_as.len(), 1);
        assert_eq!(delta.per_as[0].asn, 64512);
        assert_eq!((delta.per_as[0].announced, delta.per_as[0].withdrawn), (1, 1));
    }

    #[test]
    fn same_key_different_evidence_is_a_change() {
        let old = sample();
        let mut new = sample();
        let moved = std::sync::Arc::make_mut(&mut new.addrs[1].detections[0]);
        moved.flag = "LVR".into();
        moved.stars = 3;
        let delta = delta(&old, &new);
        assert_eq!(delta.changed.len(), 1);
        assert_eq!(delta.changed[0].before_flag, "CVR");
        assert_eq!(delta.changed[0].after_flag, "LVR");
        assert!(delta.announced.is_empty() && delta.withdrawn.is_empty());
    }

    #[test]
    fn deployment_flips_surface_in_the_rollup_even_without_entries() {
        let old = sample();
        let mut new = sample();
        // The quiet AS lights up in the summary but (pathologically)
        // without address-level entries: the verdict flip alone must
        // put it in the rollup.
        new.ases[1].flags = FlagTotals { lvr: 1, ..FlagTotals::default() };
        let delta = delta(&old, &new);
        assert!(delta.is_empty(), "no address-level entries moved");
        assert_eq!(delta.per_as.len(), 1);
        assert_eq!(delta.per_as[0].asn, 64513);
        assert!(!delta.per_as[0].deployed_before);
        assert!(delta.per_as[0].deployed_after);
    }
}
