//! Fast reroute — the survey's top SR-MPLS motivation (Fig. 5b:
//! "network resilience").
//!
//! Two acts on an SR ring with two disjoint paths:
//!
//! 1. **TI-LFA** — fail the primary link *without* reconverging: the
//!    point of local repair pushes its precomputed repair segment
//!    list and traffic keeps flowing within the same forwarding tick.
//! 2. **Reconvergence** — rebuild the IGP/SR state: the path moves;
//!    the prefix-SID label (an *index*, not a hop-local binding)
//!    stays the same, and AReST keeps detecting the tunnel.
//!
//! ```sh
//! cargo run --release --example fast_reroute
//! ```

use arest_suite::core::detect::{detect_segments, DetectorConfig};
use arest_suite::core::model::{AugmentedHop, AugmentedTrace};
use arest_suite::mpls::pool::DynamicLabelPool;
use arest_suite::simnet::Network;
use arest_suite::sr::block::{cisco_srgb, cisco_srlb};
use arest_suite::sr::domain::{SrDomain, SrDomainSpec, SrNodeConfig};
use arest_suite::sr::sid::{PrefixSidSpec, SidIndex};
use arest_suite::tnt::tracer::{trace_route, TraceConfig};
use arest_suite::topo::graph::Topology;
use arest_suite::topo::ids::{AsNumber, LinkId, RouterId};
use arest_suite::topo::prefix::Prefix;
use arest_suite::topo::spf::DomainSpf;
use arest_suite::topo::vendor::Vendor;
use std::collections::HashMap;
use std::net::Ipv4Addr;

const ASN: AsNumber = AsNumber(65_099);

/// A six-router ring with a gateway: gw — r0 — r1 — r2 — r3 (target
/// side), plus the back path r0 — r5 — r4 — r3. The r1—r2 link is the
/// one we will fail.
fn build_topology() -> (Topology, Vec<RouterId>, LinkId) {
    let mut topo = Topology::new();
    let routers: Vec<RouterId> = (0..7)
        .map(|i| {
            topo.add_router(
                if i == 0 { "gw".to_string() } else { format!("r{}", i - 1) },
                ASN,
                Vendor::Cisco,
                Ipv4Addr::new(10, 99, 255, i + 1),
            )
        })
        .collect();
    // Index 0 is the gateway; ring members are 1..=6 (r0..r5).
    let mut primary_link = LinkId(0);
    let edges: [(usize, usize, u32); 7] = [
        (0, 1, 1), // gw—r0
        (1, 2, 1), // r0—r1
        (2, 3, 1), // r1—r2   ← the link we fail
        (3, 4, 1), // r2—r3
        (1, 6, 2), // r0—r5 (backup, costlier)
        (6, 5, 2), // r5—r4
        (5, 4, 2), // r4—r3
    ];
    for (k, (a, b, cost)) in edges.iter().enumerate() {
        let link = topo.add_link(
            routers[*a],
            Ipv4Addr::new(10, 99, k as u8, 1),
            routers[*b],
            Ipv4Addr::new(10, 99, k as u8, 2),
            *cost,
        );
        if k == 2 {
            primary_link = link;
        }
    }
    (topo, routers, primary_link)
}

/// Compiles and installs the SR domain over the current topology
/// state — the IGP/SR reconvergence step after a failure.
fn converge(topo: Topology, routers: &[RouterId], customer: Prefix) -> Network {
    let members: Vec<RouterId> = routers[1..].to_vec();
    let egress = routers[4]; // r3
    let spec = SrDomainSpec {
        members: members.clone(),
        configs: members
            .iter()
            .map(|&r| (r, SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }))
            .collect(),
        extra_prefix_sids: vec![PrefixSidSpec { prefix: customer, egress, index: SidIndex(2_042) }],
        php: false,
        node_sid_base: 100,
        install_node_ftn: true,
    };
    let mut pools: HashMap<RouterId, DynamicLabelPool> = HashMap::new();
    let domain =
        SrDomain::build(&topo, &spec, &DomainSpf::for_members(&topo, &spec.members), &mut pools);
    let mut net = Network::new(topo);
    net.register_igp(ASN, DomainSpf::for_as(net.topo(), ASN));
    net.anchor_prefix(customer, egress);
    let (lfibs, ftns) = domain.into_tables();
    for (r, lfib) in lfibs {
        net.plane_mut(r).merge_lfib(lfib);
    }
    for (r, ftn) in ftns {
        net.plane_mut(r).merge_ftn(ftn);
    }
    net
}

fn trace_and_detect(net: &Network, gw: RouterId, dst: Ipv4Addr, label: &str) -> Vec<Ipv4Addr> {
    let trace = trace_route(
        net,
        &"frr".into(),
        gw,
        Ipv4Addr::new(192, 0, 2, 1),
        dst,
        &TraceConfig::default(),
    );
    println!("{label}:");
    for hop in &trace.hops {
        let addr = hop.addr.map_or("*".into(), |a| a.to_string());
        let stack = hop.stack.as_ref().map_or(String::new(), |s| format!("  MPLS {s}"));
        println!("  {:>2}  {addr:<15}{stack}", hop.ttl);
    }
    let augmented = AugmentedTrace::new(
        trace.vp.clone(),
        trace.dst,
        trace
            .hops
            .iter()
            .map(|h| AugmentedHop {
                addr: h.addr,
                stack: h.stack.clone(),
                evidence: None,
                revealed: h.revealed,
                quoted_ip_ttl: h.quoted_ip_ttl,
                is_destination: h.is_destination,
            })
            .collect(),
    );
    let segments = detect_segments(&augmented, &DetectorConfig::default());
    for segment in &segments {
        println!(
            "  → AReST: {} on label {} over hops {}..={}",
            segment.flag, segment.label, segment.start, segment.end
        );
    }
    assert!(
        segments.iter().any(|s| s.flag.is_strong()),
        "{label}: the SR tunnel must stay detectable"
    );
    trace.responding_addrs().collect()
}

fn main() {
    let (topo, routers, primary_link) = build_topology();
    let customer: Prefix = "203.0.113.0/24".parse().unwrap();
    let dst = Ipv4Addr::new(203, 0, 113, 42);

    // Before the failure: the flow rides the short side of the ring.
    let mut net = converge(topo.clone(), &routers, customer);
    let before = trace_and_detect(&net, routers[0], dst, "\nbefore failure (primary path)");

    // --- Act 1: TI-LFA, the pre-convergence window ---
    // Recompute nothing; install the precomputed repairs, kill the
    // link, and watch the PLR's repair stack carry the flow.
    {
        let members: Vec<RouterId> = routers[1..].to_vec();
        let spec = SrDomainSpec {
            members: members.clone(),
            configs: members
                .iter()
                .map(|&r| (r, SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }))
                .collect(),
            extra_prefix_sids: vec![PrefixSidSpec {
                prefix: customer,
                egress: routers[4],
                index: SidIndex(2_042),
            }],
            php: false,
            node_sid_base: 100,
            install_node_ftn: true,
        };
        let mut pools = HashMap::new();
        let domain = SrDomain::build(
            net.topo(),
            &spec,
            &DomainSpf::for_members(net.topo(), &spec.members),
            &mut pools,
        );
        let tilfa = arest_suite::sr::tilfa::compute_tilfa(net.topo(), &domain);
        for ((plr, protected), repair) in tilfa.iter() {
            net.plane_mut(*plr).install_protection(*protected, repair.clone());
        }
        net.topo_mut().set_link_up(primary_link, false);
        let repaired =
            trace_and_detect(&net, routers[0], dst, "\nTI-LFA window (link down, stale LFIBs)");
        assert_ne!(repaired, before, "the repair detours around the failure");
        println!("  → TI-LFA kept the flow alive before any reconvergence.");
    }

    // --- Act 2: IGP/SR reconvergence ---
    let mut failed = topo;
    failed.set_link_up(primary_link, false);
    let net = converge(failed, &routers, customer);
    let after = trace_and_detect(&net, routers[0], dst, "\nafter reconvergence (backup path)");

    assert_ne!(before, after, "the path must move to the backup side");
    println!(
        "\nreroute verified: the flow moved to the backup side of the ring — same \
         prefix-SID index ({} hops before, {} after), AReST detection unaffected.",
        before.len(),
        after.len()
    );
}
