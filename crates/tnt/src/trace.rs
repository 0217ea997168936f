//! The augmented trace model TNT produces and AReST consumes.

use arest_wire::mpls::LabelStack;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One hop of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// The probe TTL this hop answered (1-based). Revealed hops share
    /// the TTL of the tunnel's ending hop they were hidden behind.
    pub ttl: u8,
    /// The replying address, `None` for a silent hop (`*`).
    pub addr: Option<Ipv4Addr>,
    /// Round-trip time in microseconds, when a reply arrived.
    pub rtt_us: Option<u32>,
    /// The MPLS label stack quoted via RFC 4950, top entry first.
    /// Shared (`Arc`) so restriction and augmentation reference one
    /// allocation instead of deep-cloning per pipeline stage.
    pub stack: Option<Arc<LabelStack>>,
    /// The TTL of the quoted IP header inside the ICMP error (the
    /// "qTTL"); values above 1 betray ttl-propagating tunnels.
    pub quoted_ip_ttl: Option<u8>,
    /// The IP TTL of the ICMP reply itself as received at the vantage
    /// point — the raw material of TTL fingerprinting.
    pub reply_ip_ttl: Option<u8>,
    /// Whether TNT inserted this hop through hidden-tunnel revelation
    /// (no LSE available for revealed hops, per the paper §2.2).
    pub revealed: bool,
    /// Whether this hop is the probe destination (port unreachable).
    pub is_destination: bool,
}

impl Hop {
    /// A silent hop at `ttl`.
    pub fn silent(ttl: u8) -> Hop {
        Hop {
            ttl,
            addr: None,
            rtt_us: None,
            stack: None,
            quoted_ip_ttl: None,
            reply_ip_ttl: None,
            revealed: false,
            is_destination: false,
        }
    }

    /// Whether the hop replied at all.
    pub fn responded(&self) -> bool {
        self.addr.is_some()
    }

    /// Depth of the quoted label stack (0 when none was quoted).
    pub fn stack_depth(&self) -> usize {
        self.stack.as_ref().map_or(0, |s| s.depth())
    }
}

/// A complete augmented trace from one vantage point to one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Name of the vantage point that ran the trace. Interned
    /// (`Arc<str>`): every trace of a campaign shares one allocation
    /// per VP.
    pub vp: Arc<str>,
    /// Probe source address.
    pub src: Ipv4Addr,
    /// Probe destination address.
    pub dst: Ipv4Addr,
    /// Hops in path order (revealed hops spliced in place).
    pub hops: Vec<Hop>,
    /// Whether the destination answered.
    pub reached: bool,
}

impl Trace {
    /// Addresses that replied, in path order.
    pub fn responding_addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.hops.iter().filter_map(|h| h.addr)
    }

    /// Number of hops that quoted an MPLS label stack.
    pub fn mpls_hop_count(&self) -> usize {
        self.hops.iter().filter(|h| h.stack.is_some()).count()
    }

    /// Whether any hop quoted an MPLS label stack.
    pub fn has_mpls(&self) -> bool {
        self.hops.iter().any(|h| h.stack.is_some())
    }
}

/// Collects the fingerprintable addresses of a trace set: every hop
/// address that came with a reply IP TTL, as a **sorted, deduplicated**
/// list plus the **first-seen** time-exceeded reply TTL per address
/// (trace order, hop order — the TE component of the TTL signature).
///
/// This is the pipeline's single address-collection step; the sort
/// makes any downstream split or probe order deterministic.
///
/// The map is pre-sized from the total hop count (an upper bound on
/// distinct addresses) so insertion never rehash-grows, and the sorted
/// list is built from first insertions instead of re-hashing every key
/// out of the finished map.
pub fn collect_addrs<'a, I>(traces: I) -> (Vec<Ipv4Addr>, HashMap<Ipv4Addr, u8>)
where
    I: IntoIterator<Item = &'a Trace> + Clone,
{
    let hop_count: usize = traces.clone().into_iter().map(|t| t.hops.len()).sum();
    let mut te_ttls: HashMap<Ipv4Addr, u8> = HashMap::with_capacity(hop_count);
    let mut addrs: Vec<Ipv4Addr> = Vec::with_capacity(hop_count);
    for trace in traces {
        for hop in &trace.hops {
            if let (Some(addr), Some(ttl)) = (hop.addr, hop.reply_ip_ttl) {
                if let std::collections::hash_map::Entry::Vacant(slot) = te_ttls.entry(addr) {
                    slot.insert(ttl);
                    addrs.push(addr);
                }
            }
        }
    }
    addrs.sort_unstable();
    (addrs, te_ttls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_wire::mpls::Label;

    fn stack(labels: &[u32]) -> LabelStack {
        let labels: Vec<Label> = labels.iter().map(|&v| Label::new(v).unwrap()).collect();
        LabelStack::from_labels(&labels, 1)
    }

    #[test]
    fn collect_addrs_sorts_dedups_and_keeps_first_seen_te_ttl() {
        let hop = |addr: [u8; 4], reply_ttl: Option<u8>| Hop {
            ttl: 1,
            addr: Some(Ipv4Addr::from(addr)),
            rtt_us: None,
            stack: None,
            quoted_ip_ttl: None,
            reply_ip_ttl: reply_ttl,
            revealed: false,
            is_destination: false,
        };
        let trace = |hops: Vec<Hop>| Trace {
            vp: "vp".into(),
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 1),
            hops,
            reached: true,
        };
        let traces = vec![
            trace(vec![
                hop([10, 0, 0, 9], Some(250)),
                hop([10, 0, 0, 1], Some(61)),
                Hop::silent(3),
                hop([10, 0, 0, 5], None), // no reply TTL → not fingerprintable
            ]),
            trace(vec![
                hop([10, 0, 0, 1], Some(59)), // repeat: first-seen TTL (61) must win
                hop([10, 0, 0, 3], Some(252)),
            ]),
        ];
        let (addrs, te) = collect_addrs(&traces);
        let a = |last: u8| Ipv4Addr::new(10, 0, 0, last);
        assert_eq!(addrs, vec![a(1), a(3), a(9)], "sorted, deduplicated, TTL-bearing only");
        assert_eq!(te[&a(1)], 61, "first observation wins");
        assert_eq!(te[&a(3)], 252);
        assert_eq!(te[&a(9)], 250);
        assert!(!te.contains_key(&a(5)));
    }

    #[test]
    fn silent_hop_has_no_data() {
        let hop = Hop::silent(7);
        assert_eq!(hop.ttl, 7);
        assert!(!hop.responded());
        assert_eq!(hop.stack_depth(), 0);
    }

    #[test]
    fn trace_accessors() {
        let mut trace = Trace {
            vp: "vm1".into(),
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 1),
            hops: vec![Hop::silent(1)],
            reached: false,
        };
        assert!(!trace.has_mpls());
        trace.hops.push(Hop {
            ttl: 2,
            addr: Some(Ipv4Addr::new(10, 0, 0, 1)),
            rtt_us: Some(1200),
            stack: Some(Arc::new(stack(&[16_005, 24_001]))),
            quoted_ip_ttl: Some(1),
            reply_ip_ttl: Some(253),
            revealed: false,
            is_destination: false,
        });
        assert!(trace.has_mpls());
        assert_eq!(trace.mpls_hop_count(), 1);
        assert_eq!(trace.responding_addrs().count(), 1);
        assert_eq!(trace.hops[1].stack_depth(), 2);
    }
}
