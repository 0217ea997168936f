//! Quickstart: build a small SR-MPLS network by hand, traceroute it,
//! and let AReST reveal the Segment Routing tunnel.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use arest_suite::core::classify::{classify_areas, AreaConfig};
use arest_suite::core::detect::{detect_segments, DetectorConfig};
use arest_suite::core::model::{AugmentedHop, AugmentedTrace};
use arest_suite::mpls::pool::DynamicLabelPool;
use arest_suite::simnet::Network;
use arest_suite::sr::block::{cisco_srgb, cisco_srlb};
use arest_suite::sr::domain::{SrDomain, SrDomainSpec, SrNodeConfig};
use arest_suite::sr::sid::{PrefixSidSpec, SidIndex};
use arest_suite::tnt::tracer::{trace_route, TraceConfig};
use arest_suite::topo::graph::Topology;
use arest_suite::topo::ids::{AsNumber, RouterId};
use arest_suite::topo::prefix::Prefix;
use arest_suite::topo::spf::DomainSpf;
use arest_suite::topo::vendor::Vendor;
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn main() {
    // ---- 1. A six-router chain: VP gateway + five SR core routers ----
    let mut topo = Topology::new();
    let asn = AsNumber(65_001);
    let names = ["gw", "pe1", "p1", "p2", "p3", "pe2"];
    let routers: Vec<RouterId> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            topo.add_router(*name, asn, Vendor::Cisco, Ipv4Addr::new(10, 0, 255, (i + 1) as u8))
        })
        .collect();
    for i in 0..routers.len() - 1 {
        topo.add_link(
            routers[i],
            Ipv4Addr::new(10, 0, i as u8, 1),
            routers[i + 1],
            Ipv4Addr::new(10, 0, i as u8, 2),
            1,
        );
    }

    // ---- 2. An SR-MPLS domain over pe1..pe2 with Cisco defaults ----
    let members: Vec<RouterId> = routers[1..].to_vec();
    let customer: Prefix = "203.0.113.0/24".parse().unwrap();
    let spec = SrDomainSpec {
        members: members.clone(),
        configs: members
            .iter()
            .map(|&r| (r, SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }))
            .collect(),
        extra_prefix_sids: vec![PrefixSidSpec {
            prefix: customer,
            egress: *routers.last().unwrap(),
            index: SidIndex(2_001),
        }],
        php: false,
        node_sid_base: 100,
        install_node_ftn: true,
    };
    let mut pools: HashMap<RouterId, DynamicLabelPool> = HashMap::new();
    let domain =
        SrDomain::build(&topo, &spec, &DomainSpf::for_members(&topo, &spec.members), &mut pools);

    // ---- 3. Wire the control plane into the simulator ----
    let mut net = Network::new(topo);
    net.register_igp(asn, DomainSpf::for_as(net.topo(), asn));
    net.anchor_prefix(customer, *routers.last().unwrap());
    let (lfibs, ftns) = domain.into_tables();
    for (router, lfib) in lfibs {
        net.plane_mut(router).merge_lfib(lfib);
    }
    for (router, ftn) in ftns {
        net.plane_mut(router).merge_ftn(ftn);
    }

    // ---- 4. Traceroute a customer address through the tunnel ----
    let trace = trace_route(
        &net,
        &"quickstart-vp".into(),
        routers[0],
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(203, 0, 113, 42),
        &TraceConfig::default(),
    );
    println!("traceroute to 203.0.113.42:");
    for hop in &trace.hops {
        let addr = hop.addr.map_or("*".to_string(), |a| a.to_string());
        let stack = hop.stack.as_ref().map_or(String::new(), |s| format!("  MPLS {s}"));
        println!("  {:>2}  {addr:<15}{stack}", hop.ttl);
    }

    // ---- 5. Run AReST over the augmented trace ----
    let augmented = AugmentedTrace::new(
        trace.vp.clone(),
        trace.dst,
        trace
            .hops
            .iter()
            .map(|h| AugmentedHop {
                addr: h.addr,
                stack: h.stack.clone(),
                evidence: None, // pretend fingerprinting failed, like ESnet
                revealed: h.revealed,
                quoted_ip_ttl: h.quoted_ip_ttl,
                is_destination: h.is_destination,
            })
            .collect(),
    );
    let segments = detect_segments(&augmented, &DetectorConfig::default());
    println!("\nAReST segments:");
    for segment in &segments {
        println!(
            "  {} (signal {}) hops {}..={} on label {}",
            segment.flag,
            "*".repeat(usize::from(segment.flag.signal_strength())),
            segment.start,
            segment.end,
            segment.label,
        );
    }
    let areas = classify_areas(&augmented, &segments, &AreaConfig::default());
    println!("\nper-hop areas: {areas:?}");

    assert!(segments.iter().any(|s| s.flag.is_strong()), "the SR tunnel must be detected");
    println!("\nSegment Routing revealed without any vendor fingerprint — the CO flag at work.");
}
