//! IPv4 prefixes and a longest-prefix-match map kept as one sorted
//! range table.
//!
//! [`PrefixMap`] backs every routing decision in the reproduction:
//! router FIBs and FTNs, the simulator's anchor and exit tables, and
//! the prefix-to-AS ownership table bdrmapIT-style annotation relies
//! on.

use core::fmt;
use core::str::FromStr;
use std::net::Ipv4Addr;

/// An IPv4 prefix in CIDR form, normalized so host bits are zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix { bits: 0, len: 0 };

    /// Creates a prefix, masking out host bits.
    ///
    /// Returns `None` if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Option<Prefix> {
        if len > 32 {
            return None;
        }
        let bits = u32::from(addr) & mask(len);
        Some(Prefix { bits, len })
    }

    /// A /32 host prefix.
    pub fn host(addr: Ipv4Addr) -> Prefix {
        Prefix { bits: u32::from(addr), len: 32 }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Whether this is the zero-length default route.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of addresses covered (saturating at `u32::MAX` for /0).
    pub fn size(&self) -> u32 {
        if self.len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - self.len)
        }
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & mask(self.len) == self.bits
    }

    /// Whether `other` is fully covered by this prefix.
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && (other.bits & mask(self.len)) == self.bits
    }

    /// The `i`-th address inside the prefix (wrapping within the
    /// prefix), handy for deterministic target generation.
    pub fn nth(&self, i: u32) -> Ipv4Addr {
        let span = self.size();
        Ipv4Addr::from(self.bits.wrapping_add(i % span))
    }
}

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// Errors parsing a `a.b.c.d/len` string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsePrefixError;

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix syntax (expected a.b.c.d/len)")
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;
    fn from_str(s: &str) -> Result<Prefix, ParsePrefixError> {
        let (addr, len) = s.split_once('/').ok_or(ParsePrefixError)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| ParsePrefixError)?;
        let len: u8 = len.parse().map_err(|_| ParsePrefixError)?;
        Prefix::new(addr, len).ok_or(ParsePrefixError)
    }
}

/// A longest-prefix-match map from [`Prefix`] to `T`, kept as one
/// sorted range table over the address space.
///
/// ```
/// use arest_topo::prefix::{Prefix, PrefixMap};
/// use std::net::Ipv4Addr;
///
/// let mut fib: PrefixMap<&str> = PrefixMap::new();
/// fib.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// fib.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// let (prefix, route) = fib.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
/// assert_eq!(*route, "fine");
/// assert_eq!(prefix.len(), 16);
/// ```
///
/// The stored prefixes cut the address space into at most `2n + 1`
/// ranges, each with one answer: the most specific prefix covering
/// it, or none. An insert splits the table at the prefix's first
/// address and one past its last, then takes over every range inside
/// it whose owner is shorter or absent; a lookup is one binary search
/// over the range starts. [`PrefixMap::iter`] yields entries in
/// first-insertion order, and re-inserting a prefix replaces its value
/// in place. All state is built by [`PrefixMap::insert`], so a shared
/// map is read-only (DESIGN.md §17).
#[derive(Debug, Clone)]
pub struct PrefixMap<T> {
    /// The entries, in first-insertion order.
    entries: Vec<(Prefix, T)>,
    /// Every entry's prefix with its index into `entries`, sorted by
    /// prefix: the exact-match index.
    keys: Vec<(Prefix, u32)>,
    /// Ascending range starts, `starts[0] == 0` once an entry exists.
    starts: Vec<u32>,
    /// Per range `starts[i]..starts[i + 1]`, the index of its most
    /// specific covering entry, or [`NO_OWNER`].
    owners: Vec<u32>,
}

/// The owner of a range no stored prefix covers. `entries` never
/// reaches this length, so indexing with it finds nothing.
const NO_OWNER: u32 = u32::MAX;

impl<T> Default for PrefixMap<T> {
    fn default() -> PrefixMap<T> {
        PrefixMap { entries: Vec::new(), keys: Vec::new(), starts: Vec::new(), owners: Vec::new() }
    }
}

impl<T> PrefixMap<T> {
    /// Creates an empty map.
    pub fn new() -> PrefixMap<T> {
        PrefixMap::default()
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts `value` under `prefix`, returning the previous value if
    /// the exact prefix was already present (its position in
    /// [`PrefixMap::iter`] is kept).
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let slot = match self.keys.binary_search_by(|(p, _)| p.cmp(&prefix)) {
            Ok(i) => {
                let entry = &mut self.entries[self.keys[i].1 as usize];
                return Some(std::mem::replace(&mut entry.1, value));
            }
            Err(slot) => slot,
        };
        let index = u32::try_from(self.entries.len())
            .ok()
            .filter(|&i| i != NO_OWNER)
            .expect("a PrefixMap holds fewer than 2^32 - 1 entries");
        self.entries.push((prefix, value));
        self.keys.insert(slot, (prefix, index));

        if self.starts.is_empty() {
            self.starts.push(0);
            self.owners.push(NO_OWNER);
        }
        let first = self.split_at(prefix.bits);
        let end = u64::from(prefix.bits) + (1u64 << (32 - prefix.len));
        let last = match u32::try_from(end) {
            Ok(end) => self.split_at(end),
            Err(_) => self.starts.len(),
        };
        let entries = &self.entries;
        for owner in &mut self.owners[first..last] {
            match entries.get(*owner as usize) {
                Some((held, _)) if held.len >= prefix.len => {}
                _ => *owner = index,
            }
        }
        None
    }

    /// Makes `at` the start of a range (the new range inherits the
    /// owner of the one it was cut from) and returns its position.
    fn split_at(&mut self, at: u32) -> usize {
        let i = self.starts.partition_point(|&start| start <= at);
        if self.starts[i - 1] == at {
            return i - 1;
        }
        self.starts.insert(i, at);
        self.owners.insert(i, self.owners[i - 1]);
        i
    }

    /// Longest-prefix-match lookup: the most specific entry covering
    /// `addr`, with the matched prefix.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(&Prefix, &T)> {
        let addr = u32::from(addr);
        // The last range starting at or below `addr`, found without a
        // data-dependent branch.
        let mut base = 0;
        let mut size = self.starts.len();
        while size > 1 {
            let half = size / 2;
            base = if self.starts[base + half] <= addr { base + half } else { base };
            size -= half;
        }
        let owner = *self.owners.get(base)?;
        let (prefix, value) = self.entries.get(owner as usize)?;
        Some((prefix, value))
    }

    /// Exact-match lookup for a stored prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        let i = self.keys.binary_search_by(|(p, _)| p.cmp(prefix)).ok()?;
        Some(&self.entries[self.keys[i].1 as usize].1)
    }

    /// Iterates over all stored `(prefix, value)` pairs in
    /// first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &T)> {
        self.entries.iter().map(|(p, v)| (p, v))
    }
}

impl<T> FromIterator<(Prefix, T)> for PrefixMap<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> PrefixMap<T> {
        let mut map = PrefixMap::new();
        for (p, v) in iter {
            map.insert(p, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_normalizes_host_bits() {
        let prefix = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(prefix.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(prefix.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_rejects_bad_len() {
        assert!(Prefix::new(Ipv4Addr::UNSPECIFIED, 33).is_none());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("10.0.0/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0".parse::<Prefix>().is_err());
    }

    #[test]
    fn contains_and_covers() {
        let net = p("192.0.2.0/24");
        assert!(net.contains(Ipv4Addr::new(192, 0, 2, 200)));
        assert!(!net.contains(Ipv4Addr::new(192, 0, 3, 1)));
        assert!(net.covers(&p("192.0.2.128/25")));
        assert!(!net.covers(&p("192.0.0.0/16")));
        assert!(Prefix::DEFAULT.covers(&net));
        assert!(Prefix::DEFAULT.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn nth_wraps_within_prefix() {
        let net = p("10.0.0.0/30");
        assert_eq!(net.nth(0), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(net.nth(3), Ipv4Addr::new(10, 0, 0, 3));
        assert_eq!(net.nth(4), Ipv4Addr::new(10, 0, 0, 0));
    }

    #[test]
    fn host_prefix() {
        let h = Prefix::host(Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(h.len(), 32);
        assert_eq!(h.size(), 1);
        assert!(h.contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(!h.contains(Ipv4Addr::new(1, 2, 3, 5)));
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut map = PrefixMap::new();
        map.insert(Prefix::DEFAULT, "default");
        map.insert(p("10.0.0.0/8"), "eight");
        map.insert(p("10.1.0.0/16"), "sixteen");
        map.insert(p("10.1.2.0/24"), "twentyfour");

        let q = |a: [u8; 4]| map.lookup(Ipv4Addr::from(a)).map(|(_, v)| *v);
        assert_eq!(q([10, 1, 2, 3]), Some("twentyfour"));
        assert_eq!(q([10, 1, 9, 9]), Some("sixteen"));
        assert_eq!(q([10, 200, 0, 1]), Some("eight"));
        assert_eq!(q([192, 0, 2, 1]), Some("default"));
    }

    #[test]
    fn lpm_without_default_can_miss() {
        let mut map = PrefixMap::new();
        map.insert(p("172.16.0.0/12"), ());
        assert!(map.lookup(Ipv4Addr::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn insert_replaces_exact_prefix() {
        let mut map = PrefixMap::new();
        assert_eq!(map.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(map.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(map.get(&p("10.0.0.0/9")), None);
    }

    #[test]
    fn iter_yields_entries_in_first_insertion_order() {
        let entries = [(p("10.1.0.0/16"), 1), (p("10.0.0.0/8"), 2), (p("0.0.0.0/0"), 3)];
        let mut map: PrefixMap<i32> = entries.into_iter().collect();
        assert_eq!(map.len(), 3);
        assert_eq!(map.insert(p("10.1.0.0/16"), 4), Some(1));
        let got: Vec<_> = map.iter().map(|(p, v)| (*p, *v)).collect();
        assert_eq!(got, vec![(p("10.1.0.0/16"), 4), (p("10.0.0.0/8"), 2), (p("0.0.0.0/0"), 3)]);
    }

    #[test]
    fn empty_map_answers_nothing() {
        let map: PrefixMap<()> = PrefixMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert!(map.lookup(Ipv4Addr::UNSPECIFIED).is_none());
        assert!(map.lookup(Ipv4Addr::BROADCAST).is_none());
        assert!(map.get(&Prefix::DEFAULT).is_none());
        assert_eq!(map.iter().count(), 0);
    }

    #[test]
    fn address_space_edges() {
        let q = |map: &PrefixMap<&'static str>, a: Ipv4Addr| map.lookup(a).map(|(_, v)| *v);
        let top = Prefix::host(Ipv4Addr::BROADCAST);
        let bottom = Prefix::host(Ipv4Addr::UNSPECIFIED);
        let mut map = PrefixMap::new();
        map.insert(top, "top");
        assert_eq!(q(&map, Ipv4Addr::BROADCAST), Some("top"));
        assert_eq!(q(&map, Ipv4Addr::new(255, 255, 255, 254)), None);
        assert_eq!(q(&map, Ipv4Addr::UNSPECIFIED), None);

        map.insert(bottom, "bottom");
        map.insert(p("128.0.0.0/1"), "upper half");
        map.insert(Prefix::DEFAULT, "default");
        assert_eq!(q(&map, Ipv4Addr::UNSPECIFIED), Some("bottom"));
        assert_eq!(q(&map, Ipv4Addr::new(0, 0, 0, 1)), Some("default"));
        assert_eq!(q(&map, Ipv4Addr::new(127, 255, 255, 255)), Some("default"));
        assert_eq!(q(&map, Ipv4Addr::new(128, 0, 0, 0)), Some("upper half"));
        assert_eq!(q(&map, Ipv4Addr::new(255, 255, 255, 254)), Some("upper half"));
        assert_eq!(q(&map, Ipv4Addr::BROADCAST), Some("top"));
        assert_eq!(map.get(&Prefix::DEFAULT), Some(&"default"));
        assert_eq!(map.get(&top), Some(&"top"));
        assert_eq!(map.len(), 4);
    }

    /// Nested prefixes for the properties below: each op either
    /// re-inserts an earlier prefix, inserts an address-space edge, or
    /// draws a prefix under one of a few short parents, so covering
    /// and covered prefixes arrive in every order.
    fn nested_prefix(
        parents: &[(u32, u8)],
        (kind, pick, bits, extra): (u8, usize, u32, u8),
    ) -> Prefix {
        let edges = [
            Prefix::DEFAULT,
            Prefix::host(Ipv4Addr::BROADCAST),
            Prefix::host(Ipv4Addr::UNSPECIFIED),
            Prefix::new(Ipv4Addr::new(128, 0, 0, 0), 1).unwrap(),
        ];
        if kind == 0 {
            return edges[pick % edges.len()];
        }
        let (parent_bits, parent_len) = parents[pick % parents.len()];
        let len = (parent_len + extra).min(32);
        let inside = (parent_bits & mask(parent_len)) | (bits & !mask(parent_len));
        Prefix::new(Ipv4Addr::from(inside), len).unwrap()
    }

    /// The linear-scan oracle: the longest stored prefix containing `addr`.
    fn oracle(list: &[(Prefix, usize)], addr: Ipv4Addr) -> Option<(Prefix, usize)> {
        list.iter().filter(|(p, _)| p.contains(addr)).max_by_key(|(p, _)| p.len()).copied()
    }

    proptest! {
        #[test]
        fn prop_nested_map_matches_linear_scan(
            parents in prop::collection::vec((any::<u32>(), 0u8..=12), 1..4),
            ops in prop::collection::vec((0u8..8, 0usize..1000, any::<u32>(), 0u8..=24), 0..200),
            randoms in prop::collection::vec(any::<u32>(), 0..20),
        ) {
            let mut map = PrefixMap::new();
            let mut list: Vec<(Prefix, usize)> = Vec::new();
            for (i, &(kind, pick, bits, extra)) in ops.iter().enumerate() {
                let prefix = if kind == 1 && !list.is_empty() {
                    list[pick % list.len()].0
                } else {
                    nested_prefix(&parents, (kind, pick, bits, extra))
                };
                let previous = list.iter_mut().find(|(p, _)| *p == prefix);
                let expected = previous.as_ref().map(|(_, v)| *v);
                match previous {
                    Some(entry) => entry.1 = i,
                    None => list.push((prefix, i)),
                }
                prop_assert_eq!(map.insert(prefix, i), expected);
            }

            prop_assert_eq!(map.len(), list.len());
            prop_assert_eq!(map.is_empty(), list.is_empty());
            let iterated: Vec<(Prefix, usize)> = map.iter().map(|(p, v)| (*p, *v)).collect();
            prop_assert_eq!(&iterated, &list);

            let mut queries: Vec<u32> = randoms;
            queries.extend([0, u32::MAX]);
            for (prefix, value) in &list {
                prop_assert_eq!(map.get(prefix), Some(value));
                let first = u32::from(prefix.network());
                let last = first | !mask(prefix.len());
                queries.extend([first.wrapping_sub(1), first, first.wrapping_add(1)]);
                queries.extend([last.wrapping_sub(1), last, last.wrapping_add(1)]);
                if prefix.len() < 32 {
                    let longer = Prefix::new(prefix.network(), prefix.len() + 1).unwrap();
                    let stored = list.iter().find(|(p, _)| *p == longer).map(|(_, v)| v);
                    prop_assert_eq!(map.get(&longer), stored);
                }
            }
            for q in queries {
                let addr = Ipv4Addr::from(q);
                let got = map.lookup(addr).map(|(p, v)| (*p, *v));
                prop_assert_eq!(got, oracle(&list, addr));
            }
        }

        #[test]
        fn prop_lookup_matches_linear_scan(
            entries in prop::collection::vec((any::<u32>(), 0u8..=32), 1..40),
            queries in prop::collection::vec(any::<u32>(), 1..40),
        ) {
            let mut map = PrefixMap::new();
            let mut list: Vec<(Prefix, usize)> = Vec::new();
            for (i, (bits, len)) in entries.iter().enumerate() {
                let prefix = Prefix::new(Ipv4Addr::from(*bits), *len).unwrap();
                map.insert(prefix, i);
                match list.iter_mut().find(|(p, _)| *p == prefix) {
                    Some(entry) => entry.1 = i,
                    None => list.push((prefix, i)),
                }
            }
            for q in queries {
                let addr = Ipv4Addr::from(q);
                let got = map.lookup(addr).map(|(p, v)| (*p, *v));
                prop_assert_eq!(got, oracle(&list, addr));
            }
        }

        #[test]
        fn prop_prefix_parse_round_trip(bits: u32, len in 0u8..=32) {
            let prefix = Prefix::new(Ipv4Addr::from(bits), len).unwrap();
            let parsed: Prefix = prefix.to_string().parse().unwrap();
            prop_assert_eq!(parsed, prefix);
        }

        #[test]
        fn prop_contains_iff_host_covered(bits: u32, len in 0u8..=32, addr: u32) {
            let prefix = Prefix::new(Ipv4Addr::from(bits), len).unwrap();
            let addr = Ipv4Addr::from(addr);
            prop_assert_eq!(prefix.contains(addr), prefix.covers(&Prefix::host(addr)));
        }
    }
}
