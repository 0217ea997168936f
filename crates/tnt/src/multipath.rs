//! MDA-style multipath enumeration.
//!
//! Paris traceroute keeps one flow pinned to one path; its Multipath
//! Detection Algorithm (MDA) does the opposite on purpose: vary the
//! flow identifier per TTL to enumerate the ECMP branches a
//! destination's traffic can spread over. This module implements the
//! per-hop enumeration with a fixed flow budget — enough to expose
//! the simulator's hash-based ECMP — and reports, per TTL, every
//! address observed together with the flows that reached it.
//!
//! AReST itself consumes single-flow traces (sequences only make
//! sense along one path), but multipath enumeration is how a
//! measurement campaign learns that per-flow diversity exists — and
//! why Paris-style flow stability is required in the first place.

use crate::tracer::TraceConfig;
use arest_simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};
use arest_simnet::{FlowWalk, Network};
use arest_topo::ids::RouterId;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Configuration for the multipath enumeration.
#[derive(Debug, Clone, Copy)]
pub struct MdaConfig {
    /// Flow identifiers probed per TTL (source ports, starting at the
    /// base flow). Real MDA adapts this to a confidence bound; a fixed
    /// budget is sufficient against the simulator's 4-way ECMP cap.
    pub flows_per_hop: u16,
    /// Maximum probe TTL.
    pub max_ttl: u8,
    /// Consecutive all-silent TTLs after which enumeration stops.
    pub gap_limit: u8,
}

impl Default for MdaConfig {
    fn default() -> MdaConfig {
        MdaConfig { flows_per_hop: 16, max_ttl: 32, gap_limit: 3 }
    }
}

/// One TTL level of the discovered multipath DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdaLevel {
    /// The probe TTL.
    pub ttl: u8,
    /// Every responding address at this TTL, with the source ports
    /// (flows) that reached it. Ordered for determinism.
    pub branches: BTreeMap<Ipv4Addr, Vec<u16>>,
    /// Whether some flow reached the destination at this TTL.
    pub reached_destination: bool,
}

impl MdaLevel {
    /// Number of distinct branches (ECMP fan-out) at this TTL.
    pub fn width(&self) -> usize {
        self.branches.len()
    }
}

/// The discovered multipath structure toward one destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipathTrace {
    /// The destination probed.
    pub dst: Ipv4Addr,
    /// Per-TTL levels, in TTL order.
    pub levels: Vec<MdaLevel>,
}

impl MultipathTrace {
    /// The widest fan-out observed anywhere on the path.
    pub fn max_width(&self) -> usize {
        self.levels.iter().map(MdaLevel::width).max().unwrap_or(0)
    }

    /// Whether the path is a pure chain (no ECMP anywhere).
    pub fn is_single_path(&self) -> bool {
        self.max_width() <= 1
    }
}

/// Enumerates the ECMP branches toward `dst` by sweeping source ports
/// per TTL. Each flow is walked once ([`Network::walk`]); its probes at
/// every TTL are answered off that walk.
pub fn multipath_trace(
    net: &Network,
    entry: RouterId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    config: &MdaConfig,
) -> MultipathTrace {
    let base = TraceConfig::default().flow.0;
    let probe = |offset: u16, ttl: u8| ProbeSpec {
        entry,
        src,
        dst,
        ttl,
        transport: TransportPayload::Udp {
            src_port: base.wrapping_add(offset),
            dst_port: 33_434,
            ident: 1 + offset,
        },
    };
    let walks: Vec<FlowWalk> = (0..config.flows_per_hop)
        .map(|offset| net.walk(&probe(offset, 1), 1..=config.max_ttl))
        .collect();
    // Only the replying address matters here; the reply bytes land in
    // one buffer for the whole enumeration.
    let mut reply_bytes = Vec::new();
    let mut levels = Vec::new();
    let mut silent_run = 0u8;

    for ttl in 1..=config.max_ttl {
        let mut level = MdaLevel { ttl, branches: BTreeMap::new(), reached_destination: false };
        for (offset, walk) in (0..config.flows_per_hop).zip(&walks) {
            let src_port = base.wrapping_add(offset);
            match net.reply(walk, &probe(offset, ttl), &mut reply_bytes) {
                ProbeReply::TimeExceeded { from, .. } => {
                    level.branches.entry(from).or_default().push(src_port);
                }
                ProbeReply::DestUnreachable { from, .. } | ProbeReply::EchoReply { from, .. } => {
                    level.branches.entry(from).or_default().push(src_port);
                    level.reached_destination = true;
                }
                ProbeReply::Silent(_) => {}
            }
        }
        let done = level.reached_destination;
        let empty = level.branches.is_empty();
        levels.push(level);
        if done {
            break;
        }
        silent_run = if empty { silent_run + 1 } else { 0 };
        if silent_run >= config.gap_limit {
            break;
        }
    }

    MultipathTrace { dst, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_topo::graph::Topology;
    use arest_topo::ids::AsNumber;
    use arest_topo::spf::DomainSpf;
    use arest_topo::vendor::Vendor;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    /// GW — {B, C} — D: one ECMP diamond.
    fn diamond() -> (Network, Vec<RouterId>, Ipv4Addr) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_103);
        let r: Vec<RouterId> = (0..4)
            .map(|i| topo.add_router(format!("m{i}"), asn, Vendor::Cisco, ip(10, 253, 1, i + 1)))
            .collect();
        for (k, (a, b)) in [(0usize, 1usize), (0, 2), (1, 3), (2, 3)].iter().enumerate() {
            topo.add_link(
                r[*a],
                ip(10, 253, 10 + k as u8, 1),
                r[*b],
                ip(10, 253, 10 + k as u8, 2),
                1,
            );
        }
        let dst = topo.router(r[3]).loopback;
        let spf = DomainSpf::for_as(&topo, asn);
        let mut net = Network::new(topo);
        net.register_igp(asn, spf);
        (net, r, dst)
    }

    /// The enumeration as it ran before walk-once: one `probe` per
    /// (TTL, flow).
    fn per_probe_reference(
        net: &Network,
        entry: RouterId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        config: &MdaConfig,
    ) -> MultipathTrace {
        let base = TraceConfig::default().flow.0;
        let mut levels = Vec::new();
        let mut silent_run = 0u8;
        for ttl in 1..=config.max_ttl {
            let mut level = MdaLevel { ttl, branches: BTreeMap::new(), reached_destination: false };
            for offset in 0..config.flows_per_hop {
                let src_port = base.wrapping_add(offset);
                let transport =
                    TransportPayload::Udp { src_port, dst_port: 33_434, ident: 1 + offset };
                let reply =
                    net.probe(&ProbeSpec { entry, src, dst, ttl, transport }, &mut Vec::new());
                if let Some(from) = reply.from_addr() {
                    level.branches.entry(from).or_default().push(src_port);
                    level.reached_destination |= !matches!(reply, ProbeReply::TimeExceeded { .. });
                }
            }
            let (done, empty) = (level.reached_destination, level.branches.is_empty());
            levels.push(level);
            if done {
                break;
            }
            silent_run = if empty { silent_run + 1 } else { 0 };
            if silent_run >= config.gap_limit {
                break;
            }
        }
        MultipathTrace { dst, levels }
    }

    #[test]
    fn walked_flows_match_per_probe_enumeration() {
        let (net, r, dst) = diamond();
        let src = ip(192, 0, 2, 1);
        for config in [
            MdaConfig::default(),
            MdaConfig { flows_per_hop: 32, max_ttl: 2, gap_limit: 1 },
            MdaConfig { flows_per_hop: 3, ..MdaConfig::default() },
        ] {
            assert_eq!(
                multipath_trace(&net, r[0], src, dst, &config),
                per_probe_reference(&net, r[0], src, dst, &config),
                "{config:?}"
            );
        }
        // An unroutable destination: TTL 1 expires at the entry router
        // before its route lookup, then silent levels up to the gap
        // limit, on both sides.
        let nowhere = ip(198, 51, 100, 1);
        let config = MdaConfig::default();
        let walked = multipath_trace(&net, r[0], src, nowhere, &config);
        assert_eq!(walked.levels.len(), 1 + usize::from(config.gap_limit));
        assert_eq!(walked, per_probe_reference(&net, r[0], src, nowhere, &config));
    }

    #[test]
    fn mda_discovers_both_diamond_branches() {
        let (net, r, dst) = diamond();
        let trace = multipath_trace(&net, r[0], ip(192, 0, 2, 1), dst, &MdaConfig::default());
        assert!(!trace.is_single_path());
        assert_eq!(trace.max_width(), 2, "{trace:?}");
        // The middle level holds both branch routers' interfaces.
        let middle = &trace.levels[1];
        assert_eq!(middle.width(), 2);
        // Every probed flow landed somewhere.
        let flows: usize = middle.branches.values().map(Vec::len).sum();
        assert_eq!(flows, usize::from(MdaConfig::default().flows_per_hop));
        // The last level reached the destination.
        assert!(trace.levels.last().unwrap().reached_destination);
    }

    #[test]
    fn mda_on_a_chain_is_single_path() {
        let mut topo = Topology::new();
        let asn = AsNumber(65_104);
        let r: Vec<RouterId> = (0..3)
            .map(|i| topo.add_router(format!("n{i}"), asn, Vendor::Cisco, ip(10, 253, 2, i + 1)))
            .collect();
        for i in 0..2u8 {
            topo.add_link(
                r[i as usize],
                ip(10, 253, 20 + i, 1),
                r[i as usize + 1],
                ip(10, 253, 20 + i, 2),
                1,
            );
        }
        let dst = topo.router(r[2]).loopback;
        let spf = DomainSpf::for_as(&topo, asn);
        let mut net = Network::new(topo);
        net.register_igp(asn, spf);
        let trace = multipath_trace(&net, r[0], ip(192, 0, 2, 1), dst, &MdaConfig::default());
        assert!(trace.is_single_path());
    }
}
