//! Flow-stable probing and ICMP reply parsing.

use crate::trace::{Hop, Trace};
use arest_simnet::packet::{ProbeReply, ProbeSpec, TransportPayload, QUOTE_LEN};
use arest_simnet::{FlowWalk, Network};
use arest_topo::ids::RouterId;
use arest_wire::icmp::IcmpView;
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
/// encoded with the probe's own ident and parsed from its ICMP bytes
/// ([`probe_hop`]), all through one reply buffer. The hop vector is
/// sized from the walk's terminal TTL and holds no spare capacity
/// once the trace ends. The trace shares `vp`, the vantage point's
/// name, rather than copying it.
pub fn trace_route(
    net: &Network,
    vp: &Arc<str>,
    entry: RouterId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    config: &TraceConfig,
) -> Trace {
    let metrics = &*crate::obs::METRICS;
    metrics.traces.inc();
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
    let mut reply_bytes = Vec::with_capacity(REPLY_CAPACITY);
    // The trace keeps every TTL up to the walk's terminal one and, past
    // a drop, the silent run the gap limit allows.
    let kept = match walk.terminal_ttl() {
        Some(terminal) if walk.is_dropped() => {
            terminal.saturating_add(config.gap_limit.saturating_sub(1)).min(config.max_ttl)
        }
        Some(terminal) => terminal,
        None => config.max_ttl,
    };
    let mut hops = Vec::with_capacity(usize::from(kept));

    for ttl in 1..=config.max_ttl {
        metrics.probes.inc();
        let hop = probe_hop(net, &walk, &probe(ttl, probe_ident(src, dst, ttl)), &mut reply_bytes);
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
    // A silent run may end the trace early, or outlast a delivery the
    // target does not answer; either way no spare capacity is kept.
    hops.shrink_to_fit();

    Trace { vp: Arc::clone(vp), src, dst, hops, reached }
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

/// Bytes a trace's reply buffer starts with: an RFC 4950 reply (8-byte
/// header, 128-byte padded quote, 8 bytes of extension headers)
/// quoting up to 28 LSEs fits without growing it.
const REPLY_CAPACITY: usize = 256;

/// Sends one probe of `walk`'s flow and reads the reply as a hop.
///
/// The reply is encoded into `reply_bytes` (a trace reuses one buffer
/// for all its probes) and parsed back through a borrowed
/// [`IcmpView`]: its checksums are verified and its quote checked
/// against `spec` (the Paris consistency check) without copying. The
/// only allocation is a quoted label stack, the hop's own
/// `Arc<LabelStack>`.
pub fn probe_hop(
    net: &Network,
    walk: &FlowWalk,
    spec: &ProbeSpec,
    reply_bytes: &mut Vec<u8>,
) -> Hop {
    let reply = net.reply(walk, spec, reply_bytes);
    let ttl = spec.ttl;
    let (from, reply_ttl, forward_hops, is_destination) = match reply {
        ProbeReply::TimeExceeded { from, reply_ttl, forward_hops } => {
            (from, reply_ttl, forward_hops, false)
        }
        ProbeReply::DestUnreachable { from, reply_ttl, forward_hops }
        | ProbeReply::EchoReply { from, reply_ttl, forward_hops } => {
            (from, reply_ttl, forward_hops, true)
        }
        ProbeReply::Silent(_) => return Hop::silent(ttl),
    };

    let mut hop = Hop {
        ttl,
        addr: Some(from),
        rtt_us: Some(synth_rtt(forward_hops, probe_tag(spec))),
        stack: None,
        quoted_ip_ttl: None,
        reply_ip_ttl: Some(reply_ttl),
        revealed: false,
        is_destination,
    };

    if matches!(reply, ProbeReply::EchoReply { .. }) {
        return hop;
    }
    let Ok(view) = IcmpView::parse(reply_bytes) else {
        return Hop::silent(ttl);
    };
    if let Some(quoted) = view.original_datagram() {
        // Reject replies whose quote does not match our probe (the
        // Paris consistency check).
        if !quote_matches(quoted, spec) {
            return Hop::silent(ttl);
        }
        hop.quoted_ip_ttl = Some(Ipv4Packet::new_unchecked(quoted).ttl());
    }
    let lses = view.lses();
    if lses.len() > 0 {
        hop.stack = Some(Arc::new(lses.collect()));
    }
    hop
}

/// The probe's own identifier: a UDP probe's ident (carried in its
/// checksum), an echo request's sequence number.
fn probe_tag(spec: &ProbeSpec) -> u16 {
    match spec.transport {
        TransportPayload::Udp { ident, .. } => ident,
        TransportPayload::Echo { seq, .. } => seq,
    }
}

/// Validates the quoted datagram against the probe we sent: its
/// addresses and the transport bytes that identify the probe.
fn quote_matches(quoted: &[u8], spec: &ProbeSpec) -> bool {
    if quoted.len() < QUOTE_LEN {
        return false;
    }
    let ip = Ipv4Packet::new_unchecked(quoted);
    if ip.src_addr() != spec.src || ip.dst_addr() != spec.dst {
        return false;
    }
    let transport = &quoted[20..QUOTE_LEN];
    match spec.transport {
        TransportPayload::Udp { ident, .. } => {
            UdpPacket::new_unchecked(transport).checksum() == ident
        }
        TransportPayload::Echo { ident, seq } => {
            transport[4..6] == ident.to_be_bytes() && transport[6..8] == seq.to_be_bytes()
        }
    }
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
        let spec = |dst, transport| ProbeSpec {
            entry: RouterId(0),
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst,
            ttl: 1,
            transport,
        };
        let udp = |ident| TransportPayload::Udp { src_port: 33_434, dst_port: 33_434, ident };
        let sent = spec(Ipv4Addr::new(2, 2, 2, 2), udp(7));
        let quoted = sent.packet().quoted_datagram().unwrap();
        assert!(quote_matches(&quoted, &sent));
        // A quote for another destination, another ident, or a
        // truncated one does not match.
        assert!(!quote_matches(&quoted, &spec(Ipv4Addr::new(9, 9, 9, 9), udp(7))));
        assert!(!quote_matches(&quoted, &spec(Ipv4Addr::new(2, 2, 2, 2), udp(8))));
        assert!(!quote_matches(&quoted[..20], &sent));
        // An echo request's quote carries its ident and sequence.
        let echo = spec(Ipv4Addr::new(2, 2, 2, 2), TransportPayload::Echo { ident: 3, seq: 4 });
        let quoted = echo.packet().quoted_datagram().unwrap();
        assert!(quote_matches(&quoted, &echo));
        let other = TransportPayload::Echo { ident: 3, seq: 5 };
        assert!(!quote_matches(&quoted, &spec(Ipv4Addr::new(2, 2, 2, 2), other)));
    }

    #[test]
    fn synth_rtt_grows_with_hops() {
        assert!(synth_rtt(10, 5) > synth_rtt(2, 5));
    }
}
