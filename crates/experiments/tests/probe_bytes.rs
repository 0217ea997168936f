//! Byte pin of every probe reply over the quick campaign's flows.
//!
//! Replays the flows `walk_differential` replays — every (VP, target)
//! pair of the quick configuration plus every revelation sub-flow —
//! and folds each probe's TTL, reply kind and ICMP bytes into one
//! FNV-1a 64 digest. The ledger digests prove that the decoded hops
//! are unchanged; this pin also covers what decoding discards: the
//! RFC 4884 padding and length byte, both checksums, the quoted
//! datagram and the bottom-of-stack bits. Any change to how a reply is
//! built or encoded must leave it unchanged.

mod common;

use arest_ledger::Fnv64;
use arest_simnet::packet::{DropReason, ProbeReply, ProbeSpec, TransportPayload};
use arest_tnt::tracer::TraceConfig;
use common::{quick_campaign_flows, Flow};

/// The digest of every reply byte of the quick campaign's flows.
const PINNED: u64 = 0x8db2_180c_6c80_6d55;

/// One byte naming the reply's kind (and a silent probe's reason).
fn kind(reply: &ProbeReply) -> u8 {
    match reply {
        ProbeReply::TimeExceeded { .. } => 1,
        ProbeReply::DestUnreachable { .. } => 2,
        ProbeReply::EchoReply { .. } => 3,
        ProbeReply::Silent(reason) => {
            0x10 + match reason {
                DropReason::NoRoute => 0,
                DropReason::NoLabelEntry => 1,
                DropReason::IcmpDisabled => 2,
                DropReason::TargetSilent => 3,
                DropReason::HopBudgetExhausted => 4,
                DropReason::ReplyUnencodable => 5,
            }
        }
    }
}

#[test]
fn every_reply_byte_of_the_quick_campaign_is_pinned() {
    let (internet, flows, _) = quick_campaign_flows();
    let net = &internet.net;
    let config = TraceConfig::default();
    let mut digest = Fnv64::default();
    let mut replies = 0usize;
    let mut bytes = Vec::new();
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
            let reply = net.reply(&walk, &probe(ttl, 0x5000 + u16::from(ttl)), &mut bytes);
            replies += usize::from(!bytes.is_empty());
            digest.update(&[ttl, kind(&reply)]);
            digest.update(&(bytes.len() as u32).to_be_bytes());
            digest.update(&bytes);
        }
    }
    assert!(replies > 10_000, "only {replies} ICMP replies were pinned");
    assert_eq!(
        digest.finish(),
        PINNED,
        "reply bytes changed: {:#018x} over {} flows",
        digest.finish(),
        flows.len()
    );
}
