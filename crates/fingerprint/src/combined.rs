//! Fingerprint fusion: SNMPv3 exactness over TTL coarseness.
//!
//! The paper's rule (§5): "In cases where both methods provide
//! different results for the same hop, SNMPv3-based fingerprinting
//! takes precedence." TTL fingerprinting contributes the
//! Cisco-or-Huawei class (the only one useful for SR range matching);
//! SNMPv3 contributes exact vendors.

use crate::snmp::SnmpDataset;
use crate::ttl::{ping_echo_ttl, ttl_class, TtlClass, TtlSignature};
use arest_obs::Counter;
use arest_simnet::Network;
use arest_topo::ids::RouterId;
use arest_topo::vendor::Vendor;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::LazyLock;

/// Cached handles into the global `arest-obs` registry (free when
/// observability is disabled). Shared with [`crate::cache`], which
/// reproduces the same per-address fusion and must count into the
/// same series.
pub(crate) struct Metrics {
    /// `fingerprint.addresses` — addresses submitted for fusion.
    pub(crate) addresses: Counter,
    /// `fingerprint.snmp_hits` — resolved exactly from the SNMPv3
    /// dataset (takes precedence, §5).
    pub(crate) snmp_hits: Counter,
    /// `fingerprint.ttl_hits` — resolved to Cisco-or-Huawei by the TTL
    /// signature.
    pub(crate) ttl_hits: Counter,
    /// `fingerprint.unresolved` — addresses yielding no evidence.
    pub(crate) unresolved: Counter,
}

pub(crate) static METRICS: LazyLock<Metrics> = LazyLock::new(|| {
    let registry = arest_obs::global();
    Metrics {
        addresses: registry.counter("fingerprint.addresses"),
        snmp_hits: registry.counter("fingerprint.snmp_hits"),
        ttl_hits: registry.counter("fingerprint.ttl_hits"),
        unresolved: registry.counter("fingerprint.unresolved"),
    }
});

/// Which method produced a fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FingerprintSource {
    /// TTL-based signature.
    Ttl,
    /// SNMPv3 dataset.
    Snmp,
}

/// Vendor knowledge attached to one hop address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VendorEvidence {
    /// Exact vendor (SNMPv3).
    Exact(Vendor),
    /// Cisco or Huawei, indistinguishable (TTL signature 255/255);
    /// vendor-range flags must use the SRGB intersection.
    CiscoOrHuawei,
}

impl VendorEvidence {
    /// The exact vendor, when known.
    pub fn exact(&self) -> Option<Vendor> {
        match self {
            VendorEvidence::Exact(v) => Some(*v),
            VendorEvidence::CiscoOrHuawei => None,
        }
    }
}

/// Human-readable verdict, used by detection provenance chains:
/// `Cisco` for an exact match, `Cisco|Huawei` for the ambiguous TTL
/// signature.
impl std::fmt::Display for VendorEvidence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VendorEvidence::Exact(v) => write!(f, "{v}"),
            VendorEvidence::CiscoOrHuawei => write!(f, "Cisco|Huawei"),
        }
    }
}

/// The TTL half of the fusion rule, as a pure function of the two
/// observed reply TTLs: `Some(CiscoOrHuawei)` for the `(255, 255)`
/// class, `None` for every other class (no published default SRGB, so
/// no SR-range knowledge). Shared between the batch API below and the
/// memoizing [`crate::cache::FingerprintCache`].
pub fn ttl_evidence(echo_reply_ttl: u8, te_reply_ttl: u8) -> Option<VendorEvidence> {
    let signature = TtlSignature::from_observed(echo_reply_ttl, te_reply_ttl);
    (ttl_class(signature) == TtlClass::CiscoOrHuawei).then_some(VendorEvidence::CiscoOrHuawei)
}

/// Fingerprints a set of addresses.
///
/// `te_reply_ttls` carries, per address, the reply IP TTL of a
/// time-exceeded message already observed in traceroute (the second
/// signature component); addresses are additionally pinged from the
/// vantage point for the echo component. Returns both the evidence
/// and the method that produced it.
pub fn fingerprint_addresses(
    net: &Network,
    entry: RouterId,
    src: Ipv4Addr,
    addrs: &[Ipv4Addr],
    te_reply_ttls: &HashMap<Ipv4Addr, u8>,
    snmp: &SnmpDataset,
) -> HashMap<Ipv4Addr, (VendorEvidence, FingerprintSource)> {
    let metrics = &*METRICS;
    metrics.addresses.add(addrs.len() as u64);
    let mut out = HashMap::new();
    for &addr in addrs {
        // SNMPv3 takes precedence.
        if let Some(vendor) = snmp.lookup(addr) {
            out.insert(addr, (VendorEvidence::Exact(vendor), FingerprintSource::Snmp));
            metrics.snmp_hits.inc();
            continue;
        }
        // TTL signature needs both an echo reply and a TE observation.
        let Some(&te_ttl) = te_reply_ttls.get(&addr) else {
            metrics.unresolved.inc();
            continue;
        };
        let Some(echo_ttl) = ping_echo_ttl(net, entry, src, addr) else {
            metrics.unresolved.inc();
            continue;
        };
        if let Some(evidence) = ttl_evidence(echo_ttl, te_ttl) {
            out.insert(addr, (evidence, FingerprintSource::Ttl));
            metrics.ttl_hits.inc();
        } else {
            metrics.unresolved.inc();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_simnet::plane::Route;

    #[test]
    fn vendor_evidence_displays_the_verdict_provenance_uses() {
        assert_eq!(VendorEvidence::Exact(Vendor::Cisco).to_string(), "Cisco");
        assert_eq!(VendorEvidence::Exact(Vendor::Juniper).to_string(), "Juniper");
        assert_eq!(VendorEvidence::CiscoOrHuawei.to_string(), "Cisco|Huawei");
    }

    use arest_topo::graph::Topology;
    use arest_topo::ids::AsNumber;
    use arest_topo::prefix::Prefix;

    /// R0(Cisco) — R1(Juniper) — R2(Huawei); probes enter at R0.
    fn testbed() -> (Network, Vec<Ipv4Addr>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_300);
        let vendors = [Vendor::Cisco, Vendor::Juniper, Vendor::Huawei];
        let routers: Vec<RouterId> = vendors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                topo.add_router(format!("f{i}"), asn, *v, Ipv4Addr::new(10, 255, 30, (i + 1) as u8))
            })
            .collect();
        for i in 0..2u8 {
            topo.add_link(
                routers[i as usize],
                Ipv4Addr::new(10, 30, i, 1),
                routers[i as usize + 1],
                Ipv4Addr::new(10, 30, i, 2),
                1,
            );
        }
        let loopbacks: Vec<Ipv4Addr> = routers.iter().map(|&r| topo.router(r).loopback).collect();
        let mut net = Network::new(topo);
        // Static routes down the chain to every loopback.
        let spf = arest_topo::spf::DomainSpf::for_members(net.topo(), &routers);
        for &from in &routers {
            for (&to, &lo) in routers.iter().zip(&loopbacks) {
                if from == to {
                    continue;
                }
                if let Some((out_iface, next_router)) = spf.next_hop(from, to) {
                    net.plane_mut(from)
                        .install_route(Prefix::host(lo), Route { out_iface, next_router });
                }
            }
        }
        (net, loopbacks)
    }

    #[test]
    fn ttl_method_identifies_cisco_huawei_only() {
        let (net, lo) = testbed();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        // Pretend traceroute observed TE replies from all three.
        let te: HashMap<Ipv4Addr, u8> = lo.iter().map(|&a| (a, 250)).collect();
        let got = fingerprint_addresses(&net, RouterId(0), src, &lo, &te, &SnmpDataset::new());
        assert_eq!(got.get(&lo[0]), Some(&(VendorEvidence::CiscoOrHuawei, FingerprintSource::Ttl)));
        assert_eq!(got.get(&lo[1]), None, "Juniper TTL class carries no range evidence");
        assert_eq!(
            got.get(&lo[2]),
            Some(&(VendorEvidence::CiscoOrHuawei, FingerprintSource::Ttl)),
            "Huawei is indistinguishable from Cisco by TTL"
        );
    }

    #[test]
    fn snmp_takes_precedence_and_is_exact() {
        let (net, lo) = testbed();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let te: HashMap<Ipv4Addr, u8> = lo.iter().map(|&a| (a, 250)).collect();
        let mut snmp = SnmpDataset::new();
        snmp.insert(lo[2], Vendor::Huawei);
        snmp.insert(lo[1], Vendor::Juniper);
        let got = fingerprint_addresses(&net, RouterId(0), src, &lo, &te, &snmp);
        assert_eq!(
            got.get(&lo[2]),
            Some(&(VendorEvidence::Exact(Vendor::Huawei), FingerprintSource::Snmp))
        );
        assert_eq!(
            got.get(&lo[1]),
            Some(&(VendorEvidence::Exact(Vendor::Juniper), FingerprintSource::Snmp))
        );
        assert_eq!(got[&lo[2]].0.exact(), Some(Vendor::Huawei));
        assert_eq!(got[&lo[0]].0.exact(), None);
    }

    #[test]
    fn no_te_observation_means_no_ttl_fingerprint() {
        let (net, lo) = testbed();
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let got = fingerprint_addresses(
            &net,
            RouterId(0),
            src,
            &lo,
            &HashMap::new(),
            &SnmpDataset::new(),
        );
        assert!(got.is_empty(), "the signature needs both components");
    }

    #[test]
    fn silent_echo_means_no_ttl_fingerprint() {
        let (mut net, lo) = testbed();
        net.plane_mut(RouterId(0)).answers_echo = false;
        let src = Ipv4Addr::new(192, 0, 2, 9);
        let te: HashMap<Ipv4Addr, u8> = [(lo[0], 250)].into();
        let got = fingerprint_addresses(&net, RouterId(0), src, &lo[..1], &te, &SnmpDataset::new());
        assert!(got.is_empty());
    }
}
