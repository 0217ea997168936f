//! TI-LFA — Topology-Independent Loop-Free Alternates.
//!
//! The survey's top SR-MPLS motivation is network resilience / fast
//! reroute (Fig. 5b). TI-LFA is how SR delivers it: every router
//! precomputes, per protected link, a *repair segment list* that
//! steers traffic along the post-convergence path the IGP would pick
//! once it learns about the failure. When the link dies, the point of
//! local repair (PLR) pushes the repair stack immediately — no
//! signalling, no per-flow state, sub-50 ms in real deployments.
//!
//! This implementation encodes the repair as an adjacency-SID chain
//! along the post-convergence path from the PLR to the protected
//! neighbour. That is TI-LFA's worst-case (deepest-stack) encoding —
//! production implementations compress it through P/Q-space node SIDs
//! — but it is always loop-free by construction, and the deep repair
//! stacks it produces are precisely the kind of transient multi-label
//! observation the paper's LSO discussion contemplates.

use crate::domain::SrDomain;
use crate::policy::{PolicyError, SrPolicy};
use crate::sid::Segment;
use arest_mpls::tables::PushInstruction;
use arest_topo::graph::Topology;
use arest_topo::ids::{IfaceId, RouterId};
use arest_topo::prefix::Prefix;
use std::collections::{HashMap, HashSet};

/// Per-domain repair table: `(PLR, protected egress interface)` →
/// the repair push applied when that interface's link is down.
#[derive(Debug, Clone, Default)]
pub struct TilfaTable {
    repairs: HashMap<(RouterId, IfaceId), PushInstruction>,
}

impl TilfaTable {
    /// The repair instruction for a protected interface, if one exists
    /// (none when the link is a cut edge of the SR domain).
    pub fn repair(&self, plr: RouterId, protected: IfaceId) -> Option<&PushInstruction> {
        self.repairs.get(&(plr, protected))
    }

    /// Number of protected `(PLR, interface)` pairs.
    pub fn len(&self) -> usize {
        self.repairs.len()
    }

    /// Whether no protection was computed.
    pub fn is_empty(&self) -> bool {
        self.repairs.is_empty()
    }

    /// Iterates over all protection entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(RouterId, IfaceId), &PushInstruction)> {
        self.repairs.iter()
    }
}

/// Computes TI-LFA protection for every IGP adjacency of every domain
/// member: the adjacency-SID chain along the post-convergence path
/// from the PLR to the far end of the protected link.
pub fn compute_tilfa(topo: &Topology, domain: &SrDomain<'_>) -> TilfaTable {
    let member_set: HashSet<RouterId> = domain.members().iter().copied().collect();
    let mut table = TilfaTable::default();

    for &plr in domain.members() {
        for (link, local_if, _, neighbour, _) in topo.adjacencies(plr) {
            if !member_set.contains(&neighbour) {
                continue;
            }
            // The post-convergence view: shortest paths without the
            // protected link.
            let Some(path) =
                domain.spf().tree_avoiding(plr, link).and_then(|tree| tree.path(neighbour))
            else {
                continue; // cut edge: unprotectable
            };
            // Encode the path as an adjacency-SID chain. The policy
            // compiler resolves the PLR's own first adjacency locally
            // (no label) and emits one adjacency label per later hop.
            let mut segments = Vec::with_capacity(path.len() - 1);
            let mut feasible = true;
            for pair in path.windows(2) {
                let Some(out_iface) = topo
                    .adjacencies(pair[0])
                    .find(|(l, _, _, remote, _)| *remote == pair[1] && *l != link)
                    .map(|(_, local_if, _, _, _)| local_if)
                else {
                    feasible = false;
                    break;
                };
                segments.push(Segment::Adjacency { owner: pair[0], out_iface });
            }
            if !feasible {
                continue;
            }
            // The FEC prefix is irrelevant for repair compilation; the
            // repair labels are prepended to whatever the packet
            // already carries.
            let policy = SrPolicy::new(plr, Prefix::DEFAULT, segments);
            match policy.compile(topo, domain) {
                Ok(push) => {
                    table.repairs.insert((plr, local_if), push);
                }
                Err(PolicyError::Empty) => {
                    // Single-hop repair resolved entirely locally: a
                    // pure redirect with no labels.
                }
                Err(_) => {}
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{cisco_srgb, cisco_srlb};
    use crate::domain::{SrDomain, SrDomainSpec, SrNodeConfig};
    use arest_mpls::pool::DynamicLabelPool;
    use arest_mpls::tables::MplsTables;
    use arest_topo::ids::AsNumber;
    use arest_topo::spf::DomainSpf;
    use arest_topo::vendor::Vendor;
    use std::net::Ipv4Addr;

    /// A square: r0—r1—r2, r0—r3—r2 (two disjoint paths), plus the
    /// r1—r2 link we protect.
    /// A domain's inputs, owned; [`compile`] builds the domain.
    struct Fixture {
        topo: Topology,
        r: Vec<RouterId>,
        spec: SrDomainSpec,
        spf: DomainSpf,
    }

    impl Fixture {
        fn new(topo: Topology, r: Vec<RouterId>, spec: SrDomainSpec) -> Fixture {
            let spf = DomainSpf::for_members(&topo, &spec.members);
            Fixture { topo, r, spec, spf }
        }
    }

    /// The domain, compiled into throwaway tables (every member has an
    /// SRLB, so no label pool is needed).
    fn compile<'a>(topo: &Topology, spec: &'a SrDomainSpec, spf: &'a DomainSpf) -> SrDomain<'a> {
        let no_pools: &mut [DynamicLabelPool] = &mut [];
        let mut tables = vec![MplsTables::default(); spf.members().len()];
        SrDomain::build(topo, spec, spf, no_pools, &mut tables)
    }

    fn square() -> Fixture {
        let mut topo = Topology::new();
        let asn = AsNumber(65_080);
        let r: Vec<RouterId> = (0..4)
            .map(|i| {
                topo.add_router(
                    format!("s{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::new(10, 80, 255, i + 1),
                )
            })
            .collect();
        for (k, (a, b)) in [(0usize, 1usize), (1, 2), (0, 3), (3, 2)].iter().enumerate() {
            topo.add_link(
                r[*a],
                Ipv4Addr::new(10, 80, k as u8, 1),
                r[*b],
                Ipv4Addr::new(10, 80, k as u8, 2),
                1,
            );
        }
        let spec = SrDomainSpec {
            members: r.clone(),
            configs: vec![SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }; r.len()],
            extra_prefix_sids: vec![],
            php: false,
            node_sid_base: 100,
            install_node_ftn: true,
        };
        Fixture::new(topo, r, spec)
    }

    fn iface_between(topo: &Topology, a: RouterId, b: RouterId) -> IfaceId {
        topo.adjacencies(a)
            .find(|(_, _, _, remote, _)| *remote == b)
            .map(|(_, local_if, _, _, _)| local_if)
            .unwrap()
    }

    #[test]
    fn every_adjacency_on_a_ring_is_protected() {
        let Fixture { topo, r, spec, spf } = square();
        let domain = compile(&topo, &spec, &spf);
        let table = compute_tilfa(&topo, &domain);
        // 4 links × 2 directions = 8 protected adjacencies.
        assert_eq!(table.len(), 8);
        assert!(!table.is_empty());
        for &plr in &r {
            for (_, local_if, _, _, _) in topo.adjacencies(plr) {
                assert!(table.repair(plr, local_if).is_some(), "{plr}/{local_if}");
            }
        }
    }

    #[test]
    fn repair_path_avoids_the_protected_link() {
        let Fixture { topo, r, spec, spf } = square();
        let domain = compile(&topo, &spec, &spf);
        let table = compute_tilfa(&topo, &domain);
        // Protecting r1→r2: the repair must head back through r0, r3.
        let protected = iface_between(&topo, r[1], r[2]);
        let repair = table.repair(r[1], protected).unwrap();
        assert_eq!(repair.next_router, r[0], "first repair hop goes backwards");
        // Two more adjacencies remain as labels (r0→r3, r3→r2).
        assert_eq!(repair.labels.len(), 2);
        for label in &repair.labels {
            // Adjacency SIDs from the Cisco SRLB.
            assert!((15_000..16_000).contains(&label.value()), "{label}");
        }
    }

    #[test]
    fn cut_edges_are_unprotectable() {
        // A chain has no alternate paths at all.
        let mut topo = Topology::new();
        let asn = AsNumber(65_081);
        let r: Vec<RouterId> = (0..3)
            .map(|i| {
                topo.add_router(
                    format!("c{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::new(10, 81, 255, i + 1),
                )
            })
            .collect();
        for i in 0..2u8 {
            topo.add_link(
                r[i as usize],
                Ipv4Addr::new(10, 81, i, 1),
                r[i as usize + 1],
                Ipv4Addr::new(10, 81, i, 2),
                1,
            );
        }
        let spec = SrDomainSpec {
            members: r.clone(),
            configs: vec![SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }; r.len()],
            extra_prefix_sids: vec![],
            php: false,
            node_sid_base: 100,
            install_node_ftn: true,
        };
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let table = compute_tilfa(&topo, &compile(&topo, &spec, &spf));
        assert!(table.is_empty(), "chains have only cut edges");
    }
}
