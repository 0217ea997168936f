//! Hidden-tunnel triggers and revelation — the "T" in TNT.
//!
//! Invisible (and opaque) tunnels freeze the probe's IP TTL, so the
//! router terminating the tunnel sits topologically further from the
//! vantage point than its traceroute position suggests. Two signals
//! betray that:
//!
//! * **RTLA** (Return TTL Loop Analysis): the reply's IP TTL implies a
//!   return path longer than the forward position;
//! * **quoted LSE TTL** near 255 at a single labelled hop (opaque
//!   tunnels): the LSE was pushed at 255 and decremented once per
//!   hidden hop.
//!
//! Revelation then probes the tunnel's ending-hop *interface address*
//! directly (DPR/BRPR-style). Link addresses carry no LDP/SR FEC, so
//! those probes ride plain IP and expose the interior hop by hop —
//! without LSEs, as the paper notes revealed content comes bare
//! (§2.2).

use crate::trace::{Hop, Trace};
use crate::tracer::{trace_route, TraceConfig};
use arest_simnet::Network;
use arest_topo::ids::RouterId;
use arest_wire::ipv4::initial_ttl_guess;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Estimated return-path length from a reply TTL.
pub fn return_path_len(reply_ttl: u8) -> u8 {
    initial_ttl_guess(reply_ttl) - reply_ttl
}

/// The hidden-hop estimate for a hop at 1-based forward position
/// `position`: how many more routers the return path crosses than the
/// forward position explains (assuming near-symmetric paths, as TNT
/// does).
pub fn hidden_hop_estimate(hop: &Hop, position: u8) -> u8 {
    match hop.reply_ip_ttl {
        Some(reply_ttl) => return_path_len(reply_ttl).saturating_sub(position),
        None => 0,
    }
}

/// The hops where the hidden-hop estimate jumps — tunnel ending hops
/// with interior content upstream of them — as `(hop index, address)`
/// in path order. Each address is the destination of one revelation
/// sub-trace.
pub fn revelation_triggers(trace: &Trace) -> Vec<(usize, Ipv4Addr)> {
    let mut prev_hidden = 0u8;
    let mut revelations = Vec::new();
    for (idx, hop) in trace.hops.iter().enumerate() {
        if !hop.responded() {
            continue;
        }
        let hidden = hidden_hop_estimate(hop, hop.ttl);
        if hidden > prev_hidden {
            if let Some(addr) = hop.addr {
                revelations.push((idx, addr));
            }
        }
        prev_hidden = hidden;
    }
    revelations
}

/// Runs a full TNT trace: Paris traceroute, trigger detection, and
/// revelation of hidden tunnel interiors by direct interface probing.
pub fn trace_with_revelation(
    net: &Network,
    vp_name: &str,
    entry: RouterId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    config: &TraceConfig,
) -> Trace {
    let mut trace = trace_route(net, vp_name, entry, src, dst, config);
    let revelations = revelation_triggers(&trace);
    if revelations.is_empty() {
        return trace;
    }
    let metrics = &*crate::obs::METRICS;
    metrics.reveal_triggers.add(revelations.len() as u64);

    let known: HashSet<Ipv4Addr> = trace.responding_addrs().collect();

    // Process ending hops back to front so indices stay valid while
    // splicing.
    for (idx, ending_hop_addr) in revelations.into_iter().rev() {
        metrics.reveal_attempts.inc();
        let sub = trace_route(net, vp_name, entry, src, ending_hop_addr, config);
        if !sub.reached {
            continue;
        }
        // Interior = sub-trace hops that are new to the main trace
        // (excluding the ending hop itself, which answers as the
        // sub-trace destination).
        let interior: Vec<Hop> = sub
            .hops
            .iter()
            .filter(|h| {
                !h.is_destination
                    && h.addr != Some(ending_hop_addr)
                    && h.addr.is_some_and(|a| !known.contains(&a))
            })
            .map(|h| Hop {
                ttl: trace.hops[idx].ttl,
                stack: None, // revealed content comes without LSEs
                quoted_ip_ttl: None,
                revealed: true,
                is_destination: false,
                ..h.clone()
            })
            .collect();
        metrics.reveal_revealed_hops.add(interior.len() as u64);
        for (offset, hop) in interior.into_iter().enumerate() {
            trace.hops.insert(idx + offset, hop);
        }
    }

    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hidden_estimate_counts_excess_return_hops() {
        let mut hop = Hop::silent(3);
        assert_eq!(hidden_hop_estimate(&hop, 3), 0, "silent hops estimate 0");
        hop.addr = Some(Ipv4Addr::new(10, 0, 0, 1));
        // Reply TTL 249 → initial 255 → return path 6 hops; at forward
        // position 3, that's 3 hidden routers.
        hop.reply_ip_ttl = Some(249);
        assert_eq!(hidden_hop_estimate(&hop, 3), 3);
        // Consistent reply (return == forward) → nothing hidden.
        hop.reply_ip_ttl = Some(252);
        assert_eq!(hidden_hop_estimate(&hop, 3), 0);
    }
}
