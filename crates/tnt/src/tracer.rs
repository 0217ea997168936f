//! Flow-stable probing and ICMP reply parsing.

use crate::trace::{Hop, Trace};
use arest_simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};
use arest_simnet::Network;
use arest_topo::ids::RouterId;
use arest_wire::icmp::IcmpMessage;
use arest_wire::ipv4::Ipv4Packet;
use arest_wire::udp::UdpPacket;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Traceroute configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Maximum probe TTL.
    pub max_ttl: u8,
    /// Consecutive silent hops after which the trace gives up.
    pub gap_limit: u8,
    /// The Paris flow tuple: (source port, destination port). Kept
    /// constant for the whole trace so per-flow load balancers pin the
    /// path; the probe identifier rides the UDP checksum instead.
    pub flow: (u16, u16),
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { max_ttl: 32, gap_limit: 3, flow: (33_434, 33_434) }
    }
}

/// Runs one Paris traceroute (without revelation — see
/// [`crate::reveal`] for the full TNT behaviour).
///
/// The trace's flow is forwarded once ([`Network::walk`] over TTL
/// 1..=`max_ttl`); each probe's reply then comes off that walk, still
/// encoded with the probe's own ident and parsed from its ICMP bytes.
pub fn trace_route(
    net: &Network,
    vp_name: &str,
    entry: RouterId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    config: &TraceConfig,
) -> Trace {
    let metrics = &*crate::obs::METRICS;
    metrics.traces.inc();
    let mut hops = Vec::new();
    let mut reached = false;
    let mut silent_run = 0u8;
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
        let ident = probe_ident(src, dst, ttl);
        metrics.probes.inc();
        let reply = net.reply(&walk, &probe(ttl, ident));
        let hop = hop_from_reply(&reply, ttl, ident, src, dst);
        let responded = hop.responded();
        let done = hop.is_destination;
        hops.push(hop);
        if done {
            reached = true;
            break;
        }
        silent_run = if responded { 0 } else { silent_run + 1 };
        if silent_run >= config.gap_limit {
            break;
        }
    }

    Trace { vp: Arc::from(vp_name), src, dst, hops, reached }
}

/// Deterministic per-probe identifier (survives in the quoted UDP
/// checksum; used to match replies to probes).
fn probe_ident(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8) -> u16 {
    let mut h: u32 = 0x811c_9dc5;
    for b in src.octets().into_iter().chain(dst.octets()).chain([ttl]) {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    let ident = (h & 0xffff) as u16;
    if ident == 0 {
        1
    } else {
        ident
    }
}

/// Deterministic synthetic RTT: ~800 µs per forward hop plus jitter.
fn synth_rtt(forward_hops: u8, ident: u16) -> u32 {
    u32::from(forward_hops) * 800 + u32::from(ident % 397)
}

fn hop_from_reply(reply: &ProbeReply, ttl: u8, ident: u16, src: Ipv4Addr, dst: Ipv4Addr) -> Hop {
    let (from, raw, reply_ttl, forward_hops, is_destination) = match reply {
        ProbeReply::TimeExceeded { from, raw, reply_ttl, forward_hops } => {
            (*from, Some(raw.as_slice()), *reply_ttl, *forward_hops, false)
        }
        ProbeReply::DestUnreachable { from, raw, reply_ttl, forward_hops } => {
            (*from, Some(raw.as_slice()), *reply_ttl, *forward_hops, true)
        }
        ProbeReply::EchoReply { from, reply_ttl, forward_hops } => {
            (*from, None, *reply_ttl, *forward_hops, true)
        }
        ProbeReply::Silent(_) => return Hop::silent(ttl),
    };

    let mut hop = Hop {
        ttl,
        addr: Some(from),
        rtt_us: Some(synth_rtt(forward_hops, ident)),
        stack: None,
        quoted_ip_ttl: None,
        reply_ip_ttl: Some(reply_ttl),
        revealed: false,
        is_destination,
    };

    if let Some(raw) = raw {
        match IcmpMessage::parse(raw) {
            Ok(msg) => {
                if let Some(quoted) = msg.original_datagram() {
                    // Reject replies whose quote does not match our
                    // probe (the Paris consistency check).
                    if !quote_matches(quoted, ident, src, dst) {
                        return Hop::silent(ttl);
                    }
                    let ip = Ipv4Packet::new_unchecked(quoted);
                    hop.quoted_ip_ttl = Some(ip.ttl());
                }
                // Move the decoded stack out of the message; no clone.
                if let IcmpMessage::TimeExceeded { extension: Some(ext), .. }
                | IcmpMessage::DestUnreachable { extension: Some(ext), .. } = msg
                {
                    hop.stack = Some(Arc::new(ext.stack));
                }
            }
            Err(_) => return Hop::silent(ttl),
        }
    }

    hop
}

/// Validates the quoted datagram against the probe we sent.
fn quote_matches(quoted: &[u8], ident: u16, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
    if quoted.len() < 28 {
        return false;
    }
    let ip = Ipv4Packet::new_unchecked(quoted);
    if ip.src_addr() != src || ip.dst_addr() != dst {
        return false;
    }
    let udp = UdpPacket::new_unchecked(&quoted[20..]);
    udp.checksum() == ident
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_ident_is_deterministic_and_nonzero() {
        let a = probe_ident(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 9);
        let b = probe_ident(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 9);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        let c = probe_ident(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 10);
        assert_ne!(a, c, "per-ttl idents differ");
    }

    #[test]
    fn quote_mismatch_is_rejected() {
        // A quoted datagram for a different destination must not match.
        use arest_wire::ipv4::{Ipv4Repr, Protocol};
        let repr = Ipv4Repr {
            src_addr: Ipv4Addr::new(1, 1, 1, 1),
            dst_addr: Ipv4Addr::new(2, 2, 2, 2),
            protocol: Protocol::Udp,
            ttl: 1,
            ident: 0,
            payload_len: 8,
        };
        let mut quoted = vec![0u8; 28];
        repr.emit(&mut quoted).unwrap();
        assert!(!quote_matches(&quoted, 7, Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(9, 9, 9, 9)));
        assert!(!quote_matches(
            &quoted[..20],
            7,
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2)
        ));
    }

    #[test]
    fn synth_rtt_grows_with_hops() {
        assert!(synth_rtt(10, 5) > synth_rtt(2, 5));
    }
}
