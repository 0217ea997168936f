//! Property-based tests on the simulator's end-to-end invariants,
//! over randomly generated chain topologies with random LDP/SR
//! deployments.

use arest_suite::mpls::ldp::{LdpDomain, LdpFec};
use arest_suite::mpls::pool::DynamicLabelPool;
use arest_suite::simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};
use arest_suite::simnet::Network;
use arest_suite::sr::block::{cisco_srgb, cisco_srlb};
use arest_suite::sr::domain::{SrDomain, SrDomainSpec, SrNodeConfig};
use arest_suite::sr::sid::{PrefixSidSpec, SidIndex};
use arest_suite::topo::graph::Topology;
use arest_suite::topo::ids::{AsNumber, RouterId};
use arest_suite::topo::prefix::Prefix;
use arest_suite::topo::spf::DomainSpf;
use arest_suite::topo::vendor::Vendor;
use arest_suite::wire::icmp::IcmpMessage;
use proptest::prelude::*;
use std::net::Ipv4Addr;

#[derive(Debug, Clone, Copy)]
enum Plane {
    Ip,
    Ldp { php: bool },
    Sr { php: bool },
}

/// Builds a chain of `n` routers with the requested control plane for
/// the customer prefix anchored at the last router.
fn build(
    n: usize,
    plane: Plane,
    propagate: bool,
    rfc4950: bool,
) -> (Network, Vec<RouterId>, Ipv4Addr) {
    let mut topo = Topology::new();
    let asn = AsNumber(64_900);
    let routers: Vec<RouterId> = (0..n)
        .map(|i| {
            topo.add_router(
                format!("p{i}"),
                asn,
                Vendor::Cisco,
                Ipv4Addr::new(10, 200, 255, (i + 1) as u8),
            )
        })
        .collect();
    for i in 0..n - 1 {
        topo.add_link(
            routers[i],
            Ipv4Addr::new(10, 200, i as u8, 1),
            routers[i + 1],
            Ipv4Addr::new(10, 200, i as u8, 2),
            1,
        );
    }
    let customer: Prefix = "100.200.0.0/24".parse().unwrap();
    let egress = *routers.last().unwrap();
    let members: Vec<RouterId> = routers[1..].to_vec();
    let spf = DomainSpf::for_members(&topo, &members);
    let mut pools: Vec<DynamicLabelPool> = spf
        .members()
        .iter()
        .map(|&r| DynamicLabelPool::sr_aware(u64::from(r.0) * 31 + 1))
        .collect();

    let mut net = Network::new(topo);
    net.register_igp(asn, DomainSpf::for_as(net.topo(), asn));
    net.anchor_prefix(customer, egress);
    let (topo, mut planes) = net.domain_planes_mut(spf.members());
    match plane {
        Plane::Ip => {}
        Plane::Ldp { php } => {
            LdpDomain::build(&spf, &[LdpFec { prefix: customer, egress }], &mut pools, php)
                .install(&mut planes, |_| &[]);
        }
        Plane::Sr { php } => {
            let spec = SrDomainSpec {
                members: members.clone(),
                configs: vec![
                    SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) };
                    members.len()
                ],
                extra_prefix_sids: vec![PrefixSidSpec {
                    prefix: customer,
                    egress,
                    index: SidIndex(3_000),
                }],
                php,
                node_sid_base: 100,
                install_node_ftn: false,
            };
            SrDomain::build(topo, &spec, &spf, &mut pools, &mut planes);
        }
    }
    for &r in &routers {
        net.plane_mut(r).ttl_propagate = propagate;
        net.plane_mut(r).rfc4950 = rfc4950;
    }
    (net, routers, Ipv4Addr::new(100, 200, 0, 9))
}

fn plane_strategy() -> impl Strategy<Value = Plane> {
    prop_oneof![
        Just(Plane::Ip),
        any::<bool>().prop_map(|php| Plane::Ldp { php }),
        any::<bool>().prop_map(|php| Plane::Sr { php }),
    ]
}

fn probe(net: &Network, entry: RouterId, dst: Ipv4Addr, ttl: u8, sport: u16) -> ProbeReply {
    probe_bytes(net, entry, dst, ttl, sport).0
}

/// A probe's reply and its ICMP bytes (empty when it carries none).
fn probe_bytes(
    net: &Network,
    entry: RouterId,
    dst: Ipv4Addr,
    ttl: u8,
    sport: u16,
) -> (ProbeReply, Vec<u8>) {
    let mut raw = Vec::new();
    let spec = ProbeSpec {
        entry,
        src: Ipv4Addr::new(192, 0, 2, 1),
        dst,
        ttl,
        transport: TransportPayload::Udp { src_port: sport, dst_port: 33_434, ident: 11 },
    };
    (net.probe(&spec, &mut raw), raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sufficiently large TTLs always deliver; every ICMP reply
    /// parses and checksums; the probe is deterministic.
    #[test]
    fn delivery_and_wire_validity(
        n in 3usize..10,
        plane in plane_strategy(),
        propagate: bool,
        rfc4950: bool,
        sport in 1024u16..60_000,
    ) {
        let (net, routers, dst) = build(n, plane, propagate, rfc4950);
        let generous = (3 * n) as u8;
        let reply = probe(&net, routers[0], dst, generous, sport);
        prop_assert!(
            matches!(reply, ProbeReply::DestUnreachable { .. }),
            "generous TTL must deliver: {reply:?}"
        );
        // Determinism.
        let again = probe(&net, routers[0], dst, generous, sport);
        prop_assert_eq!(reply.from_addr(), again.from_addr());

        for ttl in 1..=generous {
            let (_, raw) = probe_bytes(&net, routers[0], dst, ttl, sport);
            if !raw.is_empty() {
                let msg = IcmpMessage::parse(&raw);
                prop_assert!(msg.is_ok(), "ttl {ttl}: unparseable ICMP");
            }
        }
    }

    /// The replying hop sequence is monotone: the set of addresses
    /// seen at TTL t is stable, and the destination only answers at
    /// the largest TTLs.
    #[test]
    fn ttl_ordering(
        n in 3usize..10,
        plane in plane_strategy(),
        propagate: bool,
    ) {
        let (net, routers, dst) = build(n, plane, propagate, true);
        let mut destination_seen_at: Option<u8> = None;
        for ttl in 1..=(3 * n) as u8 {
            match probe(&net, routers[0], dst, ttl, 40_000) {
                ProbeReply::DestUnreachable { from, .. } => {
                    prop_assert_eq!(from, dst);
                    destination_seen_at.get_or_insert(ttl);
                }
                ProbeReply::TimeExceeded { .. } => {
                    prop_assert!(
                        destination_seen_at.is_none(),
                        "no TE after the destination answered"
                    );
                }
                ProbeReply::EchoReply { .. } => prop_assert!(false, "no echo sent"),
                ProbeReply::Silent(reason) => {
                    prop_assert!(false, "unexpected silence: {reason:?}");
                }
            }
        }
        prop_assert!(destination_seen_at.is_some());
    }

    /// RFC 4950 quoting appears only when the replying router has it
    /// enabled AND the packet was labelled.
    #[test]
    fn quoting_respects_rfc4950(
        n in 4usize..9,
        php: bool,
        rfc4950: bool,
    ) {
        let (net, routers, dst) = build(n, Plane::Sr { php }, true, rfc4950);
        for ttl in 1..=(2 * n) as u8 {
            let (_, raw) = probe_bytes(&net, routers[0], dst, ttl, 50_000);
            if !raw.is_empty() {
                let msg = IcmpMessage::parse(&raw).unwrap();
                if msg.mpls_extension().is_some() {
                    prop_assert!(rfc4950, "quote from a non-RFC4950 router");
                }
            }
        }
    }

    /// Plain IP planes never show labels, whatever the visibility.
    #[test]
    fn ip_plane_is_label_free(n in 3usize..10, propagate: bool, rfc4950: bool) {
        let (net, routers, dst) = build(n, Plane::Ip, propagate, rfc4950);
        for ttl in 1..=(2 * n) as u8 {
            let (_, raw) = probe_bytes(&net, routers[0], dst, ttl, 33_000);
            if !raw.is_empty() {
                let msg = IcmpMessage::parse(&raw).unwrap();
                prop_assert!(msg.mpls_extension().is_none());
            }
        }
    }
}
