//! Walk-once probing against the per-TTL reference on the quick
//! campaign.
//!
//! Every trace of the campaign is one `Network::walk`; this test
//! replays the campaign's flows — every (VP, target) pair of the quick
//! configuration, plus the destination of every revelation sub-trace
//! those traces trigger — and checks that each TTL's reply off the
//! walk is byte-identical to `Network::forward` for the same probe.

mod common;

use arest_simnet::packet::{ProbeSpec, TransportPayload};
use arest_tnt::tracer::TraceConfig;
use common::{quick_campaign_flows, Flow};

#[test]
fn walks_answer_the_quick_campaign_like_per_ttl_forwarding() {
    let (internet, flows, revelation_flows) = quick_campaign_flows();
    let net = &internet.net;
    let config = TraceConfig::default();
    let (mut walked, mut forwarded) = (Vec::new(), Vec::new());
    for &Flow { entry, src, dst } in &flows {
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
            let reply = net.reply(&walk, &spec, &mut walked);
            assert_eq!(reply, net.forward(&spec, &mut forwarded), "{src} -> {dst} at ttl {ttl}");
            assert_eq!(walked, forwarded, "reply bytes of {src} -> {dst} at ttl {ttl}");
        }
    }
    let campaign_flows = flows.len() - revelation_flows;
    assert!(campaign_flows > 1_000, "the quick campaign has {campaign_flows} (VP, target) flows");
    assert!(revelation_flows > 0, "no revelation sub-trace was exercised");
}
