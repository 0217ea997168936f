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
//! Every key carries its address, and both runs store their address
//! rows in strictly increasing address order, so the diff is a
//! merge-join over the two address rows that splits into one small
//! merge-join per address. An address whose two detection lists are
//! equal element by element (the same shared record, or an equal one)
//! emits nothing and costs one pass over its list; only an address
//! whose lists differ is key-sorted and joined on its own, over
//! *borrowed* keys pointing into the snapshots' shared records. Owned
//! [`DeltaKey`]s are built only for the entries the delta emits, and
//! only those are sorted at the end. When one address lists two
//! detections with the same key, the later one in stored order wins.

use crate::file::RunMeta;
use crate::snapshot::{AsRecord, DetectionRecord, RunSnapshot};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

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

/// A [`DeltaKey`] borrowing its strings from a snapshot. Fields sit
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

impl<'a> KeyRef<'a> {
    fn of(addr: Ipv4Addr, d: &'a DetectionRecord) -> KeyRef<'a> {
        KeyRef { asn: d.asn, addr, vp: &d.vp, dst: &d.dst, start: d.start, end: d.end }
    }

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

/// How much of the two runs one diff walked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DiffWork {
    /// Address rows visited (an address in both runs counts once).
    pub(crate) addrs: u64,
    /// Rows whose two detection lists differed, so that they were
    /// key-sorted and merge-joined.
    pub(crate) addrs_differing: u64,
}

/// Fills `out` with every (key, detection) of one address row,
/// key-sorted, one per key: among equal keys the last in stored order
/// wins.
fn by_key<'a>(
    addr: Ipv4Addr,
    detections: &'a [Arc<DetectionRecord>],
    out: &mut Vec<(KeyRef<'a>, &'a DetectionRecord)>,
) {
    out.clear();
    out.extend(detections.iter().map(|d| (KeyRef::of(addr, d), &**d)));
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

fn entry(key: KeyRef<'_>, d: &DetectionRecord) -> DeltaEntry {
    DeltaEntry { key: key.into_key(), flag: d.flag.to_string(), stars: d.stars, label: d.label }
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
        before: &[(KeyRef<'_>, &DetectionRecord)],
        after: &[(KeyRef<'_>, &DetectionRecord)],
    ) {
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
                    self.withdrawn.push(entry(key, old));
                }
                Ordering::Greater => {
                    let &(key, new) = a.next().expect("peeked");
                    self.announced.push(entry(key, new));
                }
                Ordering::Equal => {
                    let &(_, old) = b.next().expect("peeked");
                    let &(key, new) = a.next().expect("peeked");
                    if old != new {
                        self.changed.push(ChangedEntry {
                            key: key.into_key(),
                            before_flag: old.flag.to_string(),
                            after_flag: new.flag.to_string(),
                            before_label: old.label,
                            after_label: new.label,
                        });
                    }
                }
            }
        }
    }
}

/// Per-ASN facts of one snapshot: whether any record with the ASN
/// has a strong detection, and the first record's name.
fn as_facts(ases: &[AsRecord]) -> HashMap<u32, (bool, &str)> {
    let mut facts: HashMap<u32, (bool, &str)> = HashMap::with_capacity(ases.len());
    for a in ases {
        let fact = facts.entry(a.asn).or_insert((false, &a.name));
        fact.0 |= a.sr_deployed();
    }
    facts
}

/// Computes the announce/withdraw delta from run `from` to run `to`.
#[must_use]
pub fn compute(
    from_meta: RunMeta,
    from: &RunSnapshot,
    to_meta: RunMeta,
    to: &RunSnapshot,
) -> DetectionDelta {
    compute_counted(from_meta, from, to_meta, to).0
}

/// [`compute`], also reporting how many address rows it walked and
/// how many of them differed.
pub(crate) fn compute_counted(
    from_meta: RunMeta,
    from: &RunSnapshot,
    to_meta: RunMeta,
    to: &RunSnapshot,
) -> (DetectionDelta, DiffWork) {
    let mut emitted = Emitted::default();
    let mut work = DiffWork::default();
    let (mut before, mut after) = (Vec::new(), Vec::new());
    let none: &[Arc<DetectionRecord>] = &[];
    let (mut b, mut a) = (from.addrs.iter().peekable(), to.addrs.iter().peekable());
    loop {
        let order = match (b.peek(), a.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(old), Some(new)) => old.addr.cmp(&new.addr),
        };
        let (addr, old, new) = match order {
            Ordering::Less => {
                let old = b.next().expect("peeked");
                (old.addr, old.detections.as_slice(), none)
            }
            Ordering::Greater => {
                let new = a.next().expect("peeked");
                (new.addr, none, new.detections.as_slice())
            }
            Ordering::Equal => {
                let (old, new) = (b.next().expect("peeked"), a.next().expect("peeked"));
                (new.addr, old.detections.as_slice(), new.detections.as_slice())
            }
        };
        work.addrs += 1;
        // Element by element; `Arc`'s equality over an `Eq` record
        // checks the pointer before the content.
        if old == new {
            continue;
        }
        work.addrs_differing += 1;
        by_key(addr, old, &mut before);
        by_key(addr, new, &mut after);
        emitted.join(&before, &after);
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
    let (facts_from, facts_to) = (as_facts(&from.ases), as_facts(&to.ases));
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
    use crate::snapshot::FlagTotals;

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

    #[test]
    fn identical_runs_yield_an_empty_delta() {
        let snapshot = sample();
        let delta = compute(meta(1), &snapshot, meta(2), &snapshot);
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

        let delta = compute(meta(1), &old, meta(2), &new);
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
        let delta = compute(meta(1), &old, meta(2), &new);
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
        let delta = compute(meta(1), &old, meta(2), &new);
        assert!(delta.is_empty(), "no address-level entries moved");
        assert_eq!(delta.per_as.len(), 1);
        assert_eq!(delta.per_as[0].asn, 64513);
        assert!(!delta.per_as[0].deployed_before);
        assert!(delta.per_as[0].deployed_after);
    }
}
