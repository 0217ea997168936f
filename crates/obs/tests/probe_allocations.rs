//! Allocation ceiling of the prober's reply-and-parse step.
//!
//! A trace reuses one reply buffer: each probe's ICMP reply is
//! encoded into it and parsed back through a borrowed view, so the
//! only allocations a hop may make are those of the label stack it
//! quotes (the stack's entries and its `Arc`). This test walks one
//! Paris flow through an LDP tunnel whose routers all quote RFC 4950
//! stacks, then counts, TTL by TTL, what `arest_tnt::tracer::probe_hop`
//! allocates once the buffer is warm:
//!
//! 1. a hop without an RFC 4950 extension allocates nothing;
//! 2. a labelled hop allocates at most 2.
//!
//! The walk itself, which resolves every TTL of the flow once, is held
//! to a fixed ceiling per walk. A whole `trace_route` allocates its
//! walk, its hops' stacks, its reply buffer and one hop vector, sized
//! exactly to the hops it keeps.
//!
//! The counting allocator lives in `common`.

mod common;

use arest_mpls::ldp::{LdpDomain, LdpFec};
use arest_mpls::pool::DynamicLabelPool;
use arest_simnet::packet::{ProbeSpec, TransportPayload};
use arest_simnet::Network;
use arest_tnt::tracer::{probe_hop, trace_route, TraceConfig};
use arest_topo::graph::Topology;
use arest_topo::ids::{AsNumber, RouterId};
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use arest_topo::vendor::Vendor;
use common::min_allocations;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Probes per measured loop: a per-probe allocation shows up this many
/// times, harness noise a couple of times at most.
const ROUNDS: u64 = 1_000;

/// What one walk of the chain over TTLs 1..=8 allocates: one expiry
/// list, reserved for the whole TTL range, and the label stacks it
/// pushes and quotes.
const WALK_CEILING: u64 = 6;

/// A 5-router chain: plain IP from the first router, then an LDP
/// tunnel without PHP (every LSR quotes its received stack) to the
/// last router, which anchors the customer prefix the probes target.
fn ldp_chain() -> (Network, RouterId, Ipv4Addr) {
    let mut topo = Topology::new();
    let asn = AsNumber(65_150);
    let routers: Vec<RouterId> = (0..5)
        .map(|i| {
            topo.add_router(format!("a{i}"), asn, Vendor::Cisco, Ipv4Addr::new(10, 51, 255, i + 1))
        })
        .collect();
    for i in 0..4u8 {
        topo.add_link(
            routers[usize::from(i)],
            Ipv4Addr::new(10, 51, i, 1),
            routers[usize::from(i) + 1],
            Ipv4Addr::new(10, 51, i, 2),
            1,
        );
    }
    let customer: Prefix = "198.51.100.0/24".parse().expect("a prefix");
    let egress = routers[4];
    let members = routers[1..].to_vec();
    let spf = DomainSpf::for_members(&topo, &members);
    let mut pools: Vec<DynamicLabelPool> =
        spf.members().iter().map(|&r| DynamicLabelPool::classic(u64::from(r.0))).collect();
    let domain = LdpDomain::build(&spf, &[LdpFec { prefix: customer, egress }], &mut pools, false);
    let mut net = Network::new(topo);
    net.register_igp(asn, DomainSpf::for_as(net.topo(), asn));
    net.anchor_prefix(customer, egress);
    domain.install(&mut net.domain_planes_mut(spf.members()).1, |_| &[]);
    (net, routers[0], Ipv4Addr::new(198, 51, 100, 9))
}

/// One test function on purpose (see `common`).
#[test]
fn a_hop_allocates_only_its_quoted_stack() {
    let (net, entry, dst) = ldp_chain();
    let probe = |ttl: u8| ProbeSpec {
        entry,
        src: Ipv4Addr::new(192, 0, 2, 1),
        dst,
        ttl,
        transport: TransportPayload::Udp {
            src_port: 33_434,
            dst_port: 33_434,
            ident: 0x0100 + u16::from(ttl),
        },
    };
    let walk = net.walk(&probe(1), 1..=8);
    let walk_allocations = min_allocations(|| {
        for _ in 0..ROUNDS {
            drop(net.walk(&probe(1), 1..=8));
        }
    });
    assert!(
        walk_allocations <= WALK_CEILING * ROUNDS,
        "a walk made {walk_allocations} allocations in {ROUNDS} walks"
    );
    let mut reply_bytes = Vec::new();

    let (mut unlabelled, mut labelled) = (0, 0);
    let mut hop_allocations = [0; 9];
    for ttl in 1..=8u8 {
        let spec = probe(ttl);
        // Warm-up: grows the buffer to this reply's size and registers
        // the lazily created metric handles.
        let hop = probe_hop(&net, &walk, &spec, &mut reply_bytes);
        if !hop.responded() {
            continue;
        }
        let allocations = min_allocations(|| {
            for _ in 0..ROUNDS {
                drop(probe_hop(&net, &walk, &spec, &mut reply_bytes));
            }
        });
        hop_allocations[usize::from(ttl)] = allocations;
        if hop.stack.is_none() {
            unlabelled += 1;
            assert_eq!(allocations, 0, "ttl {ttl}: an unlabelled hop must not allocate");
        } else {
            labelled += 1;
            assert!(
                allocations <= 2 * ROUNDS,
                "ttl {ttl}: a labelled hop made {allocations} allocations in {ROUNDS} probes"
            );
        }
    }
    assert!(unlabelled >= 2 && labelled >= 2, "{unlabelled} unlabelled, {labelled} labelled hops");

    // A whole trace over the default TTL range: what its walk and its
    // hops allocate, plus the reply buffer and the hop vector.
    let vp: Arc<str> = Arc::from("vp");
    let config = TraceConfig::default();
    let src = probe(1).src;
    let trace = trace_route(&net, &vp, entry, src, dst, &config);
    assert!(trace.reached && trace.hops.len() <= 8, "{} hops", trace.hops.len());
    assert_eq!(trace.hops.capacity(), trace.hops.len(), "the hop vector keeps spare capacity");
    let walk_allocations = min_allocations(|| {
        for _ in 0..ROUNDS {
            drop(net.walk(&probe(1), 1..=config.max_ttl));
        }
    });
    let hops: u64 = trace.hops.iter().map(|hop| hop_allocations[usize::from(hop.ttl)]).sum();
    let ceiling = walk_allocations + hops + 2 * ROUNDS;
    let trace_allocations = min_allocations(|| {
        for _ in 0..ROUNDS {
            drop(trace_route(&net, &vp, entry, src, dst, &config));
        }
    });
    assert!(
        trace_allocations <= ceiling,
        "{ROUNDS} traces made {trace_allocations} allocations, over the ceiling of {ceiling}"
    );
}
