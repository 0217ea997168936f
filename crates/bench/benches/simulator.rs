//! Simulator benchmarks: per-probe forwarding cost (IP vs LDP vs SR),
//! a full TNT trace with revelation, and Internet generation.

use arest_mpls::ldp::{LdpDomain, LdpFec};
use arest_mpls::pool::DynamicLabelPool;
use arest_netgen::internet::{generate, GenConfig};
use arest_simnet::packet::{ProbeSpec, TransportPayload};
use arest_simnet::Network;
use arest_sr::block::{cisco_srgb, cisco_srlb};
use arest_sr::domain::{SrDomain, SrDomainSpec, SrNodeConfig};
use arest_sr::sid::{PrefixSidSpec, SidIndex};
use arest_tnt::reveal::trace_with_revelation;
use arest_tnt::tracer::TraceConfig;
use arest_topo::graph::Topology;
use arest_topo::ids::{AsNumber, RouterId};
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use arest_topo::vendor::Vendor;
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::Ipv4Addr;

const CHAIN: usize = 16;

fn chain_net(mode: &str) -> (Network, RouterId, Ipv4Addr) {
    let mut topo = Topology::new();
    let asn = AsNumber(65_060);
    let routers: Vec<RouterId> = (0..CHAIN)
        .map(|i| {
            topo.add_router(
                format!("b{i}"),
                asn,
                Vendor::Cisco,
                Ipv4Addr::new(10, 60, 255, (i + 1) as u8),
            )
        })
        .collect();
    for i in 0..CHAIN - 1 {
        topo.add_link(
            routers[i],
            Ipv4Addr::new(10, 60, i as u8, 1),
            routers[i + 1],
            Ipv4Addr::new(10, 60, i as u8, 2),
            1,
        );
    }
    let customer: Prefix = "203.0.113.0/24".parse().unwrap();
    let egress = *routers.last().unwrap();
    let members = routers[1..].to_vec();
    let mut pools: HashMap<RouterId, DynamicLabelPool> =
        members.iter().map(|&r| (r, DynamicLabelPool::sr_aware(u64::from(r.0)))).collect();
    let mut net_tables = None;
    match mode {
        "ip" => {}
        "ldp" => {
            let domain = LdpDomain::build(
                &DomainSpf::for_members(&topo, &members),
                &[LdpFec { prefix: customer, egress }],
                &mut pools,
                true,
            );
            net_tables = Some(domain.into_tables());
        }
        "sr" => {
            let spec = SrDomainSpec {
                members: members.clone(),
                configs: members
                    .iter()
                    .map(|&r| (r, SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }))
                    .collect(),
                extra_prefix_sids: vec![PrefixSidSpec {
                    prefix: customer,
                    egress,
                    index: SidIndex(2_000),
                }],
                php: false,
                node_sid_base: 100,
                install_node_ftn: false,
            };
            let domain = SrDomain::build(
                &topo,
                &spec,
                &DomainSpf::for_members(&topo, &spec.members),
                &mut pools,
            );
            net_tables = Some(domain.into_tables());
        }
        other => panic!("unknown mode {other}"),
    }
    let mut net = Network::new(topo);
    net.register_igp(asn, DomainSpf::for_as(net.topo(), asn));
    net.anchor_prefix(customer, egress);
    if let Some((lfibs, ftns)) = net_tables {
        for (r, lfib) in lfibs {
            net.plane_mut(r).merge_lfib(lfib);
        }
        for (r, ftn) in ftns {
            net.plane_mut(r).merge_ftn(ftn);
        }
    }
    (net, routers[0], Ipv4Addr::new(203, 0, 113, 42))
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_16_hop_chain");
    for mode in ["ip", "ldp", "sr"] {
        let (net, entry, dst) = chain_net(mode);
        let spec = ProbeSpec {
            entry,
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst,
            ttl: 32,
            transport: TransportPayload::Udp { src_port: 33_434, dst_port: 33_434, ident: 7 },
        };
        group.bench_function(mode, |b| b.iter(|| net.probe(black_box(&spec))));
    }
    group.finish();
}

fn bench_full_trace(c: &mut Criterion) {
    let (net, entry, dst) = chain_net("sr");
    let config = TraceConfig::default();
    c.bench_function("tnt_trace_with_revelation", |b| {
        b.iter(|| {
            trace_with_revelation(
                &net,
                "bench",
                entry,
                Ipv4Addr::new(192, 0, 2, 1),
                black_box(dst),
                &config,
            )
        });
    });
}

fn bench_internet_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("internet_generation");
    group.sample_size(10);
    group.bench_function("scale_0.01_4vps", |b| {
        b.iter(|| {
            generate(black_box(&GenConfig {
                scale: 0.01,
                seed: 1,
                vp_count: 4,
                sr_adoption: 1.0,
                catalog_scale: 1,
            }))
        });
    });
    group.finish();
}

/// Informational: the IGP oracle's all-pairs SPF on the largest
/// Table 5 AS at the default scale, and a two-replica generation,
/// where per-AS SPF is most of the deploy phase.
fn bench_spf(c: &mut Criterion) {
    let internet = generate(&GenConfig::default());
    let largest = internet.plans.iter().max_by_key(|p| p.routers.len()).expect("60 ASes");
    let topo = internet.net.topo();
    let mut group = c.benchmark_group("spf");
    group.sample_size(10);
    group.bench_function(format!("domain_for_as_{}_routers", largest.routers.len()), |b| {
        b.iter(|| DomainSpf::for_as(topo, black_box(largest.asn)));
    });
    group.bench_function("generate_catalog_scale_2", |b| {
        b.iter(|| generate(black_box(&GenConfig { catalog_scale: 2, ..GenConfig::default() })));
    });
    group.finish();
}

criterion_group!(benches, bench_probe, bench_full_trace, bench_internet_generation, bench_spf);
criterion_main!(benches);
