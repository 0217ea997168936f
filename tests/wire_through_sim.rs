//! Wire-format fidelity across the stack: every ICMP reply the
//! simulator emits must parse with the real codecs and carry
//! RFC 4884/4950-conformant structure.

use arest_suite::mpls::ldp::{LdpDomain, LdpFec};
use arest_suite::mpls::pool::DynamicLabelPool;
use arest_suite::simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};
use arest_suite::simnet::Network;
use arest_suite::topo::graph::Topology;
use arest_suite::topo::ids::{AsNumber, RouterId};
use arest_suite::topo::prefix::Prefix;
use arest_suite::topo::spf::DomainSpf;
use arest_suite::topo::vendor::Vendor;
use arest_suite::wire::icmp::{IcmpMessage, IcmpPacket, IcmpType, ORIGINAL_DATAGRAM_MIN_LEN};
use arest_suite::wire::ipv4::Ipv4Packet;
use arest_suite::wire::udp::UdpPacket;
use std::net::Ipv4Addr;

fn ldp_testbed() -> (Network, Vec<RouterId>, Ipv4Addr) {
    let mut topo = Topology::new();
    let asn = AsNumber(65_050);
    let routers: Vec<RouterId> = (0..5)
        .map(|i| {
            topo.add_router(format!("w{i}"), asn, Vendor::Cisco, Ipv4Addr::new(10, 50, 255, i + 1))
        })
        .collect();
    for i in 0..4u8 {
        topo.add_link(
            routers[i as usize],
            Ipv4Addr::new(10, 50, i, 1),
            routers[i as usize + 1],
            Ipv4Addr::new(10, 50, i, 2),
            1,
        );
    }
    let customer: Prefix = "203.0.113.0/24".parse().unwrap();
    let members = routers[1..].to_vec();
    let spf = DomainSpf::for_members(&topo, &members);
    let mut pools: Vec<DynamicLabelPool> =
        spf.members().iter().map(|&r| DynamicLabelPool::classic(u64::from(r.0))).collect();
    let domain = LdpDomain::build(
        &spf,
        &[LdpFec { prefix: customer, egress: *routers.last().unwrap() }],
        &mut pools,
        false, // no PHP: every LSR quotes
    );
    let mut net = Network::new(topo);
    net.register_igp(asn, DomainSpf::for_as(net.topo(), asn));
    net.anchor_prefix(customer, *routers.last().unwrap());
    domain.install(&mut net.domain_planes_mut(spf.members()).1, |_| &[]);
    (net, routers, Ipv4Addr::new(203, 0, 113, 77))
}

/// A probe's reply and its ICMP bytes (empty when it carries none).
fn probe(net: &Network, entry: RouterId, dst: Ipv4Addr, ttl: u8) -> (ProbeReply, Vec<u8>) {
    let mut raw = Vec::new();
    let spec = ProbeSpec {
        entry,
        src: Ipv4Addr::new(192, 0, 2, 1),
        dst,
        ttl,
        transport: TransportPayload::Udp { src_port: 33_434, dst_port: 33_435, ident: 0xbeef },
    };
    (net.probe(&spec, &mut raw), raw)
}

#[test]
fn every_reply_parses_and_checksums() {
    let (net, routers, dst) = ldp_testbed();
    for ttl in 1..=8u8 {
        let (reply, raw) = probe(&net, routers[0], dst, ttl);
        if raw.is_empty() {
            assert!(matches!(reply, ProbeReply::Silent(_)), "ttl {ttl}: {reply:?} without bytes");
            continue;
        }
        let view = IcmpPacket::new_checked(&raw[..]).expect("minimum length");
        assert!(view.verify_checksum(), "ttl {ttl}: ICMP checksum");
        let msg = IcmpMessage::parse(&raw).expect("full parse");
        assert!(matches!(msg.icmp_type(), IcmpType::TimeExceeded | IcmpType::DestUnreachable));
    }
}

#[test]
fn quotes_carry_the_probe_flow_and_ident() {
    let (net, routers, dst) = ldp_testbed();
    let (reply, raw) = probe(&net, routers[0], dst, 3);
    assert!(matches!(reply, ProbeReply::TimeExceeded { .. }), "a TE reply: {reply:?}");
    let msg = IcmpMessage::parse(&raw).unwrap();
    let quoted = msg.original_datagram().expect("quoted datagram");
    let ip = Ipv4Packet::new_unchecked(quoted);
    assert_eq!(ip.src_addr(), Ipv4Addr::new(192, 0, 2, 1));
    assert_eq!(ip.dst_addr(), dst);
    let udp = UdpPacket::new_unchecked(&quoted[20..]);
    assert_eq!(udp.src_port(), 33_434);
    assert_eq!(udp.dst_port(), 33_435);
    assert_eq!(udp.checksum(), 0xbeef, "the Paris ident rides the checksum field");
}

#[test]
fn rfc4884_padding_and_extension_structure() {
    let (net, routers, dst) = ldp_testbed();
    // TTL 3 expires inside the LSP: a labelled quote must follow the
    // RFC 4884 layout with the original datagram padded to 128 bytes.
    let (reply, raw) = probe(&net, routers[0], dst, 3);
    assert!(matches!(reply, ProbeReply::TimeExceeded { .. }), "TE: {reply:?}");
    let msg = IcmpMessage::parse(&raw).unwrap();
    let ext = msg.mpls_extension().expect("RFC 4950 object");
    assert!(ext.stack.depth() >= 1);
    assert_eq!(msg.original_datagram().unwrap().len(), ORIGINAL_DATAGRAM_MIN_LEN, "padded quote");
    // Byte 5 of the ICMP header is the RFC 4884 length in words.
    assert_eq!(usize::from(raw[5]) * 4, ORIGINAL_DATAGRAM_MIN_LEN);
}

#[test]
fn label_stack_round_trips_through_the_icmp_quote() {
    let (net, routers, dst) = ldp_testbed();
    let mut seen_labels = Vec::new();
    for ttl in 2..=6u8 {
        let (_, raw) = probe(&net, routers[0], dst, ttl);
        if !raw.is_empty() {
            let msg = IcmpMessage::parse(&raw).unwrap();
            if let Some(ext) = msg.mpls_extension() {
                let top = ext.stack.top().unwrap();
                seen_labels.push(top.label.value());
                assert!(!top.label.is_reserved(), "dynamic labels only");
            }
        }
    }
    // LDP swaps per hop: consecutive labels must differ (no SR here).
    assert!(seen_labels.len() >= 2, "several labelled hops: {seen_labels:?}");
    assert!(
        seen_labels.windows(2).any(|w| w[0] != w[1]),
        "classic MPLS shows changing labels: {seen_labels:?}"
    );
}
