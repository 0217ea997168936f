//! RSVP-TE explicit-route LSPs (RFC 3209).
//!
//! The paper's footnote 2: labels "might also be distributed with
//! RSVP-TE for traffic engineering purposes"; LDP merely dominates.
//! This module signals one tunnel at a time along an *explicit route*:
//! the PATH message walks head → tail, the RESV message returns
//! upstream allocating one label per hop from each LSR's dynamic pool,
//! and the compiled state is the same LFIB swap chain and FTN push
//! ([`crate::tables`]) the data plane already interprets.
//!
//! Because every label still comes from a per-router dynamic pool,
//! RSVP-TE tunnels look exactly like LDP to AReST — label values that
//! change hop by hop — which is why the paper can treat "classic MPLS"
//! as one class regardless of the signalling protocol.

use crate::tables::{LfibAction, PushInstruction};
use arest_topo::graph::Topology;
use arest_topo::ids::{IfaceId, RouterId};
use arest_topo::prefix::Prefix;
use arest_wire::mpls::Label;
use core::fmt;
use std::collections::HashMap;

/// One tunnel request: a FEC steered over an explicit router path.
#[derive(Debug, Clone)]
pub struct RsvpTunnel {
    /// Tunnel name (session identification in real RSVP).
    pub name: String,
    /// The explicit route, head first. Consecutive routers must share
    /// a live link.
    pub path: Vec<RouterId>,
    /// Traffic matching this prefix enters the tunnel at the head.
    pub fec: Prefix,
}

/// Why signalling failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsvpError {
    /// The explicit route has fewer than two hops.
    PathTooShort,
    /// Two consecutive explicit hops share no live link.
    NotAdjacent(RouterId, RouterId),
    /// A hop's label pool is missing or exhausted.
    NoLabel(RouterId),
}

impl fmt::Display for RsvpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsvpError::PathTooShort => write!(f, "explicit route needs >= 2 hops"),
            RsvpError::NotAdjacent(a, b) => write!(f, "{a} and {b} are not adjacent"),
            RsvpError::NoLabel(r) => write!(f, "no label available at {r}"),
        }
    }
}

impl std::error::Error for RsvpError {}

/// The signalled LSP: the LFIB entries along the tunnel plus the
/// head's FTN entry, for the caller to install into those routers'
/// tables.
#[derive(Debug, Clone)]
pub struct RsvpLsp {
    /// `(router, in label, action)` per transit hop, in path order
    /// (head excluded — it pushes rather than swaps).
    pub lfib: Vec<(RouterId, Label, LfibAction)>,
    /// The head router.
    pub head: RouterId,
    /// The FEC the head steers into the tunnel.
    pub fec: Prefix,
    /// The head's push instruction for the FEC.
    pub push: PushInstruction,
    /// Labels as allocated per transit/tail hop, in path order
    /// (useful for tests and inspection).
    pub labels: Vec<(RouterId, Label)>,
}

/// Signals one RSVP-TE tunnel, with penultimate-hop popping.
/// `allocate(hop)` draws the next label from `hop`'s dynamic pool
/// (`None` when it has none left).
pub fn signal_tunnel(
    topo: &Topology,
    tunnel: &RsvpTunnel,
    mut allocate: impl FnMut(RouterId) -> Option<Label>,
) -> Result<RsvpLsp, RsvpError> {
    if tunnel.path.len() < 2 {
        return Err(RsvpError::PathTooShort);
    }
    // PATH phase: verify adjacency and collect the egress interfaces.
    let mut egress_ifaces: Vec<IfaceId> = Vec::with_capacity(tunnel.path.len() - 1);
    for pair in tunnel.path.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let iface = topo
            .adjacencies(a)
            .find(|(_, _, _, remote, _)| *remote == b)
            .map(|(_, local_if, _, _, _)| local_if)
            .ok_or(RsvpError::NotAdjacent(a, b))?;
        egress_ifaces.push(iface);
    }

    // RESV phase: the tail advertises implicit NULL (PHP); every
    // upstream transit hop allocates a real label.
    let tail = *tunnel.path.last().expect("non-empty");
    let mut labels: HashMap<RouterId, Option<Label>> = HashMap::from([(tail, None)]);
    let mut allocated: Vec<(RouterId, Label)> = Vec::new();
    for &hop in tunnel.path[1..tunnel.path.len() - 1].iter().rev() {
        let label = allocate(hop).ok_or(RsvpError::NoLabel(hop))?;
        labels.insert(hop, Some(label));
        allocated.push((hop, label));
    }
    allocated.reverse();

    // Compile: transit hops swap toward the tail, the penultimate pops.
    let mut lfib = Vec::with_capacity(tunnel.path.len() - 2);
    for (idx, pair) in tunnel.path.windows(2).enumerate().skip(1) {
        let (hop, downstream) = (pair[0], pair[1]);
        let own = labels[&hop].expect("transit hops allocate");
        let action = match labels[&downstream] {
            Some(out_label) => LfibAction::Swap {
                out_label,
                out_iface: egress_ifaces[idx],
                next_router: downstream,
            },
            None => {
                LfibAction::PopForward { out_iface: egress_ifaces[idx], next_router: downstream }
            }
        };
        lfib.push((hop, own, action));
    }

    // The head's push instruction.
    let head = tunnel.path[0];
    let first_hop = tunnel.path[1];
    let push = PushInstruction {
        labels: labels[&first_hop].into_iter().collect(),
        out_iface: egress_ifaces[0],
        next_router: first_hop,
    };

    Ok(RsvpLsp { lfib, head, fec: tunnel.fec, push, labels: allocated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::DynamicLabelPool;
    use arest_topo::ids::AsNumber;
    use arest_topo::vendor::Vendor;
    use std::net::Ipv4Addr;

    /// A ring of five routers so explicit routes can differ from SPF.
    fn ring() -> (Topology, Vec<RouterId>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_070);
        let r: Vec<RouterId> = (0..5)
            .map(|i| {
                topo.add_router(
                    format!("t{i}"),
                    asn,
                    Vendor::Juniper,
                    Ipv4Addr::new(10, 70, 255, i + 1),
                )
            })
            .collect();
        for i in 0..5u8 {
            topo.add_link(
                r[i as usize],
                Ipv4Addr::new(10, 70, i, 1),
                r[(i as usize + 1) % 5],
                Ipv4Addr::new(10, 70, i, 2),
                1,
            );
        }
        (topo, r)
    }

    fn pools(r: &[RouterId]) -> HashMap<RouterId, DynamicLabelPool> {
        r.iter().map(|&x| (x, DynamicLabelPool::classic(u64::from(x.0) + 7))).collect()
    }

    fn signal(
        topo: &Topology,
        tunnel: &RsvpTunnel,
        pools: &mut HashMap<RouterId, DynamicLabelPool>,
    ) -> Result<RsvpLsp, RsvpError> {
        signal_tunnel(topo, tunnel, |hop| pools.get_mut(&hop)?.allocate())
    }

    /// The action `router` installed for `label` along the LSP.
    fn action(lsp: &RsvpLsp, router: RouterId, label: Label) -> Option<LfibAction> {
        lsp.lfib.iter().find(|&&(r, l, _)| r == router && l == label).map(|&(_, _, a)| a)
    }

    #[test]
    fn signals_the_long_way_around() {
        let (topo, r) = ring();
        // SPF from r0 to r2 goes r0-r1-r2; steer the long way instead.
        let tunnel = RsvpTunnel {
            name: "scenic".into(),
            path: vec![r[0], r[4], r[3], r[2]],
            fec: "203.0.113.0/24".parse().unwrap(),
        };
        let mut pools = pools(&r);
        let lsp = signal(&topo, &tunnel, &mut pools).unwrap();
        assert_eq!(lsp.head, r[0]);
        // Two transit hops allocated labels; the tail runs PHP.
        assert_eq!(lsp.labels.len(), 2);
        assert_eq!(lsp.labels[0].0, r[4]);
        assert_eq!(lsp.labels[1].0, r[3]);
        // The head pushes r4's label toward r4.
        assert!(lsp.fec.contains(Ipv4Addr::new(203, 0, 113, 9)));
        let push = &lsp.push;
        assert_eq!(push.next_router, r[4]);
        assert_eq!(push.labels, vec![lsp.labels[0].1]);
        // r4 swaps to r3's label; r3 pops (penultimate).
        match action(&lsp, r[4], lsp.labels[0].1).unwrap() {
            LfibAction::Swap { out_label, next_router, .. } => {
                assert_eq!(out_label, lsp.labels[1].1);
                assert_eq!(next_router, r[3]);
            }
            other => panic!("expected swap, got {other:?}"),
        }
        match action(&lsp, r[3], lsp.labels[1].1).unwrap() {
            LfibAction::PopForward { next_router, .. } => assert_eq!(next_router, r[2]),
            other => panic!("expected PHP, got {other:?}"),
        }
    }

    #[test]
    fn labels_change_per_hop_like_classic_mpls() {
        let (topo, r) = ring();
        let tunnel = RsvpTunnel {
            name: "t".into(),
            path: vec![r[0], r[1], r[2], r[3]],
            fec: "198.51.100.0/24".parse().unwrap(),
        };
        let mut pools = pools(&r);
        let lsp = signal(&topo, &tunnel, &mut pools).unwrap();
        assert_ne!(lsp.labels[0].1, lsp.labels[1].1, "no label persistence — not SR");
    }

    #[test]
    fn rejects_non_adjacent_explicit_routes() {
        let (topo, r) = ring();
        let tunnel = RsvpTunnel {
            name: "bad".into(),
            path: vec![r[0], r[2]], // not adjacent on the ring
            fec: "203.0.113.0/24".parse().unwrap(),
        };
        let mut pools = pools(&r);
        assert_eq!(
            signal(&topo, &tunnel, &mut pools).unwrap_err(),
            RsvpError::NotAdjacent(r[0], r[2])
        );
    }

    #[test]
    fn rejects_trivial_paths_and_missing_pools() {
        let (topo, r) = ring();
        let mut pools = pools(&r);
        let short = RsvpTunnel {
            name: "s".into(),
            path: vec![r[0]],
            fec: "203.0.113.0/24".parse().unwrap(),
        };
        assert_eq!(signal(&topo, &short, &mut pools).unwrap_err(), RsvpError::PathTooShort);

        let mut empty_pools = HashMap::new();
        let tunnel = RsvpTunnel {
            name: "t".into(),
            path: vec![r[0], r[1], r[2]],
            fec: "203.0.113.0/24".parse().unwrap(),
        };
        assert_eq!(signal(&topo, &tunnel, &mut empty_pools).unwrap_err(), RsvpError::NoLabel(r[1]));
    }

    #[test]
    fn two_hop_tunnel_is_pure_php() {
        let (topo, r) = ring();
        let tunnel = RsvpTunnel {
            name: "short".into(),
            path: vec![r[0], r[1]],
            fec: "203.0.113.0/24".parse().unwrap(),
        };
        let mut pools = pools(&r);
        let lsp = signal(&topo, &tunnel, &mut pools).unwrap();
        assert!(lsp.labels.is_empty(), "tail-adjacent head pushes nothing");
        assert!(lsp.fec.contains(Ipv4Addr::new(203, 0, 113, 1)));
        assert!(lsp.push.labels.is_empty());
    }
}
