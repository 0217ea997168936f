//! Walk-once probing against the per-TTL reference on the quick
//! campaign.
//!
//! Every trace of the campaign is one `Network::walk`; this test
//! replays the campaign's flows — every (VP, target) pair of the quick
//! configuration, plus the destination of every revelation sub-trace
//! those traces trigger — and checks that each TTL's reply off the
//! walk is byte-identical to `Network::forward` for the same probe.

use arest_experiments::pipeline::PipelineConfig;
use arest_mapping::anaximander::{build_target_list, AnaximanderConfig};
use arest_mapping::bgp::{BgpRoute, BgpView};
use arest_netgen::internet::generate;
use arest_simnet::packet::{ProbeSpec, TransportPayload};
use arest_simnet::Network;
use arest_tnt::reveal::revelation_triggers;
use arest_tnt::tracer::{trace_route, TraceConfig};
use arest_topo::ids::RouterId;
use std::net::Ipv4Addr;

/// Walks one Paris flow over TTL 1..=`max_ttl` and compares every
/// probe's reply against per-TTL forwarding.
fn assert_flow_matches(
    net: &Network,
    entry: RouterId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    config: &TraceConfig,
) {
    let probe = |ttl: u8, ident: u16| ProbeSpec {
        entry,
        src,
        dst,
        ttl,
        transport: TransportPayload::Udp {
            src_port: config.flow.0,
            dst_port: config.flow.1,
            ident,
        },
    };
    let walk = net.walk(&probe(1, 0), 1..=config.max_ttl);
    for ttl in 1..=config.max_ttl {
        let spec = probe(ttl, 0x5000 + u16::from(ttl));
        assert_eq!(net.reply(&walk, &spec), net.forward(&spec), "{src} -> {dst} at ttl {ttl}");
    }
}

#[test]
fn walks_answer_the_quick_campaign_like_per_ttl_forwarding() {
    let config = PipelineConfig::quick();
    let internet = generate(&config.gen);
    let net = &internet.net;
    // The target lists exactly as the pipeline derives them.
    let view: BgpView = internet
        .routes
        .iter()
        .map(|r| BgpRoute { prefix: r.prefix, origin: r.origin, path: r.path.clone() })
        .collect();
    let anax = AnaximanderConfig { targets_per_prefix: 2, max_targets: config.targets_per_as };
    let trace_config = TraceConfig::default();

    let (mut flows, mut revelation_flows) = (0usize, 0usize);
    for plan in &internet.plans {
        let targets = build_target_list(&view, plan.asn, &anax);
        for vp in &internet.vps {
            for &dst in &targets {
                assert_flow_matches(net, vp.gateway, vp.addr, dst, &trace_config);
                flows += 1;
                let trace = trace_route(net, &vp.name, vp.gateway, vp.addr, dst, &trace_config);
                for (_, ending_hop) in revelation_triggers(&trace) {
                    assert_flow_matches(net, vp.gateway, vp.addr, ending_hop, &trace_config);
                    revelation_flows += 1;
                }
            }
        }
    }
    assert!(flows > 1_000, "the quick campaign has {flows} (VP, target) flows");
    assert!(revelation_flows > 0, "no revelation sub-trace was exercised");
}
