//! bdrmapIT-style AS annotation.
//!
//! The paper uses bdrmapIT (plus alias resolution) to assign each
//! traceroute hop to an AS and delimit the target AS from the rest of
//! the Internet (§5). This reproduction drives the same decision from
//! a prefix-ownership table, refined by alias clusters: when an
//! address has no covering prefix but shares a router with an
//! annotated address, the cluster's AS wins — the core trick bdrmapIT
//! gains from alias information.

use arest_topo::ids::AsNumber;
use arest_topo::prefix::{Prefix, PrefixMap};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The AS annotator.
#[derive(Debug, Clone, Default)]
pub struct AsAnnotator {
    /// Prefix ownership, `Arc`-shared: per-AS views created with
    /// [`AsAnnotator::with_aliases`] reference one table instead of
    /// cloning it 60 times.
    ownership: Arc<PrefixMap<AsNumber>>,
    /// Alias cluster id per address (from [`crate::alias`]).
    clusters: HashMap<Ipv4Addr, usize>,
    /// Majority AS per cluster, derived when clusters are attached.
    cluster_as: HashMap<usize, AsNumber>,
}

impl AsAnnotator {
    /// Builds an annotator from prefix-ownership entries.
    pub fn new(ownership: impl IntoIterator<Item = (Prefix, AsNumber)>) -> AsAnnotator {
        AsAnnotator {
            ownership: Arc::new(ownership.into_iter().collect()),
            clusters: HashMap::new(),
            cluster_as: HashMap::new(),
        }
    }

    /// A view of this annotator refined by `clusters` — the per-AS
    /// alias entry point of the streaming pipeline. The ownership
    /// table is shared (`Arc`), not copied, so building one view per
    /// AS costs only the cluster vote.
    #[must_use]
    pub fn with_aliases(&self, clusters: HashMap<Ipv4Addr, usize>) -> AsAnnotator {
        let mut view = AsAnnotator {
            ownership: Arc::clone(&self.ownership),
            clusters: HashMap::new(),
            cluster_as: HashMap::new(),
        };
        view.attach_aliases(clusters);
        view
    }

    /// Attaches alias clusters; each cluster adopts the majority AS of
    /// its annotated members.
    pub fn attach_aliases(&mut self, clusters: HashMap<Ipv4Addr, usize>) {
        let mut votes: HashMap<usize, HashMap<AsNumber, usize>> = HashMap::new();
        for (&addr, &cluster) in &clusters {
            if let Some((_, &asn)) = self.ownership.lookup(addr) {
                *votes.entry(cluster).or_default().entry(asn).or_insert(0) += 1;
            }
        }
        self.cluster_as = votes
            .into_iter()
            .filter_map(|(cluster, tally)| {
                tally
                    .into_iter()
                    .max_by_key(|&(asn, count)| (count, std::cmp::Reverse(asn.0)))
                    .map(|(asn, _)| (cluster, asn))
            })
            .collect();
        self.clusters = clusters;
    }

    /// Annotates one address with its AS.
    pub fn annotate(&self, addr: Ipv4Addr) -> Option<AsNumber> {
        if let Some((_, &asn)) = self.ownership.lookup(addr) {
            return Some(asn);
        }
        let cluster = self.clusters.get(&addr)?;
        self.cluster_as.get(cluster).copied()
    }

    /// The contiguous span of `addrs` (a trace's responding hops)
    /// annotated to `asn`: `(first, last)` indices, inclusive.
    ///
    /// Takes any iterator of per-hop addresses (e.g. mapping a hop
    /// slice directly), so callers need not materialize an address
    /// vector per trace.
    ///
    /// Returns `None` when the trace never enters the AS. Hops inside
    /// the span that fail to annotate (silent or unknown) are kept —
    /// they sit between two hops of the AS, so bdrmapIT would assign
    /// them inward too.
    pub fn intra_as_span<I>(&self, addrs: I, asn: AsNumber) -> Option<(usize, usize)>
    where
        I: IntoIterator<Item = Option<Ipv4Addr>>,
    {
        self.intra_as_span_with(addrs, asn, |_| {})
    }

    /// [`AsAnnotator::intra_as_span`], also handing each address
    /// annotated to `asn` to `in_as` (hop order, repeats included), so
    /// a caller collecting the AS's addresses annotates every hop once.
    pub fn intra_as_span_with<I>(
        &self,
        addrs: I,
        asn: AsNumber,
        mut in_as: impl FnMut(Ipv4Addr),
    ) -> Option<(usize, usize)>
    where
        I: IntoIterator<Item = Option<Ipv4Addr>>,
    {
        let mut first = None;
        let mut last = None;
        for (idx, addr) in addrs.into_iter().enumerate() {
            if let Some(addr) = addr {
                if self.annotate(addr) == Some(asn) {
                    if first.is_none() {
                        first = Some(idx);
                    }
                    last = Some(idx);
                    in_as(addr);
                }
            }
        }
        Some((first?, last?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn annotator() -> AsAnnotator {
        AsAnnotator::new([
            (p("10.1.0.0/16"), AsNumber(100)),
            (p("10.2.0.0/16"), AsNumber(200)),
            (p("10.2.9.0/24"), AsNumber(290)), // more-specific carve-out
        ])
    }

    #[test]
    fn longest_prefix_ownership_wins() {
        let a = annotator();
        assert_eq!(a.annotate(Ipv4Addr::new(10, 1, 5, 5)), Some(AsNumber(100)));
        assert_eq!(a.annotate(Ipv4Addr::new(10, 2, 1, 1)), Some(AsNumber(200)));
        assert_eq!(a.annotate(Ipv4Addr::new(10, 2, 9, 1)), Some(AsNumber(290)));
        assert_eq!(a.annotate(Ipv4Addr::new(172, 16, 0, 1)), None);
    }

    #[test]
    fn alias_clusters_rescue_unannotated_addresses() {
        let mut a = annotator();
        let unknown = Ipv4Addr::new(172, 16, 0, 1);
        let known = Ipv4Addr::new(10, 1, 2, 3);
        a.attach_aliases(HashMap::from([(unknown, 7), (known, 7)]));
        assert_eq!(a.annotate(unknown), Some(AsNumber(100)), "cluster majority vote");
    }

    #[test]
    fn majority_vote_breaks_cluster_conflicts() {
        let mut a = annotator();
        a.attach_aliases(HashMap::from([
            (Ipv4Addr::new(10, 1, 0, 1), 3),
            (Ipv4Addr::new(10, 1, 0, 2), 3),
            (Ipv4Addr::new(10, 2, 0, 1), 3),
            (Ipv4Addr::new(192, 0, 2, 1), 3),
        ]));
        assert_eq!(a.annotate(Ipv4Addr::new(192, 0, 2, 1)), Some(AsNumber(100)));
    }

    #[test]
    fn with_aliases_builds_an_independent_view_over_shared_ownership() {
        let base = annotator();
        let unknown = Ipv4Addr::new(172, 16, 0, 1);
        let known = Ipv4Addr::new(10, 1, 2, 3);
        let view = base.with_aliases(HashMap::from([(unknown, 7), (known, 7)]));
        assert_eq!(view.annotate(unknown), Some(AsNumber(100)), "view sees its clusters");
        assert_eq!(base.annotate(unknown), None, "the base annotator is untouched");
        assert_eq!(view.annotate(known), Some(AsNumber(100)), "ownership is shared");
        // A second view with different clusters doesn't see the first's.
        let other = base.with_aliases(HashMap::from([(unknown, 1)]));
        assert_eq!(other.annotate(unknown), None, "cluster without annotated members");
    }

    #[test]
    fn intra_as_span_finds_the_window() {
        let a = annotator();
        let addrs = vec![
            Some(Ipv4Addr::new(192, 0, 2, 1)), // outside
            Some(Ipv4Addr::new(10, 2, 0, 1)),  // AS200
            None,                              // silent, inside
            Some(Ipv4Addr::new(10, 2, 0, 9)),  // AS200
            Some(Ipv4Addr::new(10, 1, 0, 1)),  // AS100
        ];
        assert_eq!(a.intra_as_span(addrs.iter().copied(), AsNumber(200)), Some((1, 3)));
        assert_eq!(a.intra_as_span(addrs.iter().copied(), AsNumber(100)), Some((4, 4)));
        assert_eq!(a.intra_as_span(addrs.iter().copied(), AsNumber(999)), None);

        let mut in_as = Vec::new();
        let span = a.intra_as_span_with(addrs, AsNumber(200), |addr| in_as.push(addr));
        assert_eq!(span, Some((1, 3)));
        assert_eq!(in_as, [Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 2, 0, 9)]);
    }
}
