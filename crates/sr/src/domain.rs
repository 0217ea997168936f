//! The converged state of one SR-MPLS domain.
//!
//! Real SR-MPLS distributes SIDs through IS-IS/OSPF extensions
//! (RFC 8667/8665); as with LDP, what a traceroute-level reproduction
//! needs is the steady state: every member router knows every prefix
//! SID's index and every neighbour's SRGB, and compiles its LFIB/FTN
//! accordingly. The key arithmetic (paper §2.3, Fig. 4):
//!
//! > A router maps a SID to an MPLS label by adding the SID value to
//! > the lowest SRGB value of the subsequent hop toward the
//! > destination.
//!
//! Consequently, when SRGBs agree across the domain the same label
//! persists hop after hop — the label-sequence signal AReST's CVR/CO
//! flags detect — and when they differ, consecutive labels share the
//! SID index as a suffix.

use crate::block::LabelBlock;
use crate::sid::{PrefixSidSpec, SidIndex};
use arest_mpls::pool::DynamicLabelPool;
use arest_mpls::tables::{LabelTables, LfibAction, PushInstruction};
use arest_topo::graph::Topology;
use arest_topo::ids::{IfaceId, RouterId};
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use arest_wire::mpls::Label;
use std::borrow::BorrowMut;

/// Per-router SR configuration.
#[derive(Debug, Clone, Copy)]
pub struct SrNodeConfig {
    /// The router's SRGB. RFC 8402 recommends (but does not require)
    /// identical SRGBs across a domain.
    pub srgb: LabelBlock,
    /// The router's SRLB for adjacency SIDs; `None` models vendors
    /// like Juniper that allocate adjacency SIDs from the dynamic
    /// label pool instead.
    pub srlb: Option<LabelBlock>,
}

/// The input specification for building an [`SrDomain`].
#[derive(Debug, Clone)]
pub struct SrDomainSpec {
    /// Member routers (the SR-capable subset of an AS).
    pub members: Vec<RouterId>,
    /// Per-member configuration, parallel to `members`.
    pub configs: Vec<SrNodeConfig>,
    /// Additional prefix SIDs beyond the automatic node SIDs —
    /// attached customer prefixes, or mapping-server advertisements
    /// for SR→LDP interworking.
    pub extra_prefix_sids: Vec<PrefixSidSpec>,
    /// Penultimate-hop popping for prefix SIDs.
    pub php: bool,
    /// First SID index used for automatic node SIDs (members get
    /// `base`, `base + 1`, … in member order).
    pub node_sid_base: u32,
    /// Whether to install ingress FTN entries for the automatic node
    /// SIDs (loopback FECs). LFIB entries are installed regardless —
    /// policies and transit labels need them — but Internet-scale
    /// generators skip the FTNs because loopbacks are not probe
    /// targets and the per-router tries add up.
    pub install_node_ftn: bool,
}

/// The converged SR domain: the SID tables, over the dense member
/// slots of the domain's [`DomainSpf`]. The forwarding state itself
/// goes straight into the members' tables at build time.
#[derive(Debug, Clone)]
pub struct SrDomain<'a> {
    spec: &'a SrDomainSpec,
    spf: &'a DomainSpf,
    /// Per slot, the member's position in `spec.members` — its config
    /// index, and its node SID's offset from `spec.node_sid_base`.
    position: Vec<u32>,
    /// Per slot, the adjacency SIDs the member allocated, in
    /// adjacency order.
    adj_sids: Vec<Vec<(IfaceId, Label)>>,
}

impl<'a> SrDomain<'a> {
    /// Builds the converged domain state over `spf`, the IGP shortest
    /// paths among exactly `spec.members` (shared with any other user
    /// of the same member set), compiling every member's forwarding
    /// state into `tables[slot]`: prefix SIDs (node SIDs first, then
    /// extras) in SID order, then adjacency SIDs.
    ///
    /// `pools[slot]` supplies dynamic labels for adjacency SIDs on
    /// members without an SRLB; `pools` may be empty when every member
    /// has one.
    ///
    /// # Panics
    /// Panics if `spf` does not cover exactly `spec.members`, if
    /// `spec.configs` is not parallel to them, if `tables` is not one
    /// table set per slot, or if a member needs a label pool it lacks.
    pub fn build<P: BorrowMut<DynamicLabelPool>, T: LabelTables>(
        topo: &Topology,
        spec: &'a SrDomainSpec,
        spf: &'a DomainSpf,
        pools: &mut [P],
        tables: &mut [T],
    ) -> SrDomain<'a> {
        let members = spf.members();
        let n = members.len();
        assert_eq!(spec.configs.len(), spec.members.len(), "one SR config per member");
        assert_eq!(tables.len(), n, "one table set per member slot");
        let mut position = vec![u32::MAX; n];
        for (i, &r) in spec.members.iter().enumerate() {
            let slot = spf.slot(r).filter(|&s| position[s] == u32::MAX);
            position[slot.expect("the SPF must cover exactly the SR members")] = i as u32;
        }
        assert!(n == spec.members.len(), "the SPF must cover exactly the SR members");
        let config = |slot: usize| &spec.configs[position[slot] as usize];

        // Prefix/node SIDs: install LFIB chains and ingress FTNs.
        // Automatic node SIDs are loopback /32 prefix SIDs in member
        // order; their FTNs are optional.
        let node_sids = spec.members.iter().enumerate().map(|(i, &r)| {
            let sid = PrefixSidSpec {
                prefix: Prefix::host(topo.router(r).loopback),
                egress: r,
                index: SidIndex(spec.node_sid_base + i as u32),
            };
            (sid, spec.install_node_ftn)
        });
        let extras = spec.extra_prefix_sids.iter().map(|&sid| (sid, true));
        for (sid, want_ftn) in node_sids.chain(extras) {
            let Some(egress) = spf.slot(sid.egress) else {
                continue;
            };
            for (s, tables) in tables.iter_mut().enumerate() {
                let Some(in_label) = config(s).srgb.label_for(sid.index.0) else {
                    continue; // index outside this router's SRGB
                };
                if s == egress {
                    tables.lfib_mut().install(in_label, LfibAction::PopLocal);
                    continue;
                }
                let Some((out_iface, next)) = spf.next_hop_slot(s, egress) else {
                    continue;
                };
                let Some(out_label) = config(next).srgb.label_for(sid.index.0) else {
                    continue;
                };
                let next_router = members[next];
                let pops_here = spec.php && next == egress;
                let action = if pops_here {
                    LfibAction::PopForward { out_iface, next_router }
                } else {
                    LfibAction::Swap { out_label, out_iface, next_router }
                };
                tables.lfib_mut().install(in_label, action);
                if want_ftn {
                    tables.ftn_mut().install(
                        sid.prefix,
                        PushInstruction {
                            labels: if pops_here { vec![] } else { vec![out_label] },
                            out_iface,
                            next_router,
                        },
                    );
                }
            }
        }

        // Adjacency SIDs: one per live IGP adjacency, allocated from
        // the SRLB (sequential indexes) or the dynamic pool.
        let mut adj_sids: Vec<Vec<(IfaceId, Label)>> = vec![Vec::new(); n];
        for (s, tables) in tables.iter_mut().enumerate() {
            let r = members[s];
            let srlb = config(s).srlb;
            let mut next_srlb_index = 0u32;
            for (_, local_if, _, remote, _) in topo.adjacencies(r) {
                if spf.slot(remote).is_none() {
                    continue;
                }
                let label = match srlb {
                    Some(block) => {
                        let l = block
                            .label_for(next_srlb_index)
                            .expect("SRLB exhausted by adjacency SIDs");
                        next_srlb_index += 1;
                        l
                    }
                    None => pools
                        .get_mut(s)
                        .unwrap_or_else(|| panic!("no label pool for {r}"))
                        .borrow_mut()
                        .allocate()
                        .expect("label pool exhausted"),
                };
                adj_sids[s].push((local_if, label));
                tables.lfib_mut().install(
                    label,
                    LfibAction::PopForward { out_iface: local_if, next_router: remote },
                );
            }
        }

        // Domain builds are cold (once per AS at generation), so
        // registering against the global registry inline is fine.
        let registry = arest_obs::global();
        if registry.is_enabled() {
            registry.counter("sr.domains").inc();
            registry.counter("sr.prefix_sids").add((n + spec.extra_prefix_sids.len()) as u64);
            registry
                .counter("sr.adj_sids")
                .add(adj_sids.iter().map(Vec::len).sum::<usize>() as u64);
        }
        SrDomain { spec, spf, position, adj_sids }
    }

    /// The domain members, in spec order.
    pub fn members(&self) -> &[RouterId] {
        &self.spec.members
    }

    /// Whether PHP is enabled for prefix SIDs.
    pub fn php(&self) -> bool {
        self.spec.php
    }

    fn config(&self, r: RouterId) -> Option<&SrNodeConfig> {
        let slot = self.spf.slot(r)?;
        Some(&self.spec.configs[self.position[slot] as usize])
    }

    /// The SRGB of a member.
    pub fn srgb(&self, r: RouterId) -> Option<LabelBlock> {
        self.config(r).map(|c| c.srgb)
    }

    /// The automatic node SID index of a member.
    pub fn node_sid(&self, r: RouterId) -> Option<SidIndex> {
        let slot = self.spf.slot(r)?;
        Some(SidIndex(self.spec.node_sid_base + self.position[slot]))
    }

    /// The label `viewer` uses on its *incoming* face for `target`'s
    /// node SID (i.e. `target`'s index through `viewer`'s own SRGB).
    pub fn node_label_at(&self, viewer: RouterId, target: RouterId) -> Option<Label> {
        let index = self.node_sid(target)?;
        self.config(viewer)?.srgb.label_for(index.0)
    }

    /// The adjacency SID label `owner` allocated for `out_iface`.
    pub fn adj_sid(&self, owner: RouterId, out_iface: IfaceId) -> Option<Label> {
        let slot = self.spf.slot(owner)?;
        self.adj_sids[slot].iter().find(|&&(i, _)| i == out_iface).map(|&(_, l)| l)
    }

    /// The domain's SPF cache (used by policy compilation).
    pub fn spf(&self) -> &DomainSpf {
        self.spf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{cisco_srgb, cisco_srlb, LabelBlock};
    use arest_mpls::tables::{Ftn, Lfib, MplsTables};
    use arest_topo::ids::AsNumber;
    use arest_topo::vendor::Vendor;
    use std::net::Ipv4Addr;

    /// Standalone per-slot tables a domain compiled into, read back
    /// by router.
    struct Tables<'a> {
        spf: &'a DomainSpf,
        tables: Vec<MplsTables>,
    }

    impl Tables<'_> {
        fn lfib(&self, r: RouterId) -> &Lfib {
            &self.tables[self.spf.slot(r).unwrap()].lfib
        }

        fn ftn(&self, r: RouterId) -> &Ftn {
            &self.tables[self.spf.slot(r).unwrap()].ftn
        }
    }

    /// Builds the domain of `spec` into fresh tables.
    fn build<'a>(
        topo: &Topology,
        spec: &'a SrDomainSpec,
        spf: &'a DomainSpf,
        pools: &mut [DynamicLabelPool],
    ) -> (SrDomain<'a>, Tables<'a>) {
        let mut tables = vec![MplsTables::default(); spf.members().len()];
        let domain = SrDomain::build(topo, spec, spf, pools, &mut tables);
        (domain, Tables { spf, tables })
    }

    /// A 5-router chain R0—R1—R2—R3—R4, all Cisco defaults.
    fn chain_spec(php: bool) -> (Topology, Vec<RouterId>, SrDomainSpec) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_020);
        let routers: Vec<RouterId> = (0..5)
            .map(|i| {
                topo.add_router(
                    format!("p{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::new(10, 255, 3, i + 1),
                )
            })
            .collect();
        for i in 0..4u8 {
            topo.add_link(
                routers[i as usize],
                Ipv4Addr::new(10, 3, i, 1),
                routers[i as usize + 1],
                Ipv4Addr::new(10, 3, i, 2),
                1,
            );
        }
        let spec = SrDomainSpec {
            members: routers.clone(),
            configs: vec![SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }; 5],
            extra_prefix_sids: vec![],
            php,
            install_node_ftn: true,
            node_sid_base: 100,
        };
        (topo, routers, spec)
    }

    #[test]
    fn same_srgb_keeps_label_constant_along_path() {
        let (topo, r, spec) = chain_spec(false);
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let (domain, tables) = build(&topo, &spec, &spf, &mut []);

        // Node SID of R4 is index 104 → label 16,104 everywhere.
        let target = r[4];
        assert_eq!(domain.node_sid(target), Some(SidIndex(104)));
        let expected = Label::new(16_104).unwrap();
        for &viewer in &r {
            assert_eq!(domain.node_label_at(viewer, target), Some(expected));
        }
        // Every transit router swaps 16,104 → 16,104.
        for &transit in &r[0..4] {
            match tables.lfib(transit).lookup(expected).unwrap() {
                LfibAction::Swap { out_label, .. } => assert_eq!(out_label, expected),
                LfibAction::PopForward { .. } => panic!("php disabled"),
                LfibAction::PopLocal => panic!("only the egress pops"),
            }
        }
        // The egress pops locally.
        assert_eq!(tables.lfib(target).lookup(expected), Some(LfibAction::PopLocal));
    }

    #[test]
    fn php_pops_at_penultimate_hop() {
        let (topo, r, spec) = chain_spec(true);
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let (domain, tables) = build(&topo, &spec, &spf, &mut []);

        let label = domain.node_label_at(r[3], r[4]).unwrap();
        match tables.lfib(r[3]).lookup(label).unwrap() {
            LfibAction::PopForward { next_router, .. } => assert_eq!(next_router, r[4]),
            other => panic!("expected PHP pop, got {other:?}"),
        }
        // And the one-hop FTN from R3 pushes nothing.
        let loopback = Ipv4Addr::new(10, 255, 3, 5);
        let push = tables.ftn(r[3]).lookup(loopback).unwrap();
        assert!(push.labels.is_empty());
    }

    #[test]
    fn ftn_pushes_next_hop_srgb_label() {
        let (topo, r, spec) = chain_spec(false);
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let (_, tables) = build(&topo, &spec, &spf, &mut []);

        let loopback = Ipv4Addr::new(10, 255, 3, 5); // R4
        let push = tables.ftn(r[0]).lookup(loopback).unwrap();
        assert_eq!(push.labels, vec![Label::new(16_104).unwrap()]);
        assert_eq!(push.next_router, r[1]);
    }

    #[test]
    fn differing_srgb_produces_suffix_related_labels() {
        // Rebuild the chain but give R2 a 13,000-based SRGB, as in the
        // paper's suffix example (16,005 → 13,005).
        let mut topo = Topology::new();
        let asn = AsNumber(65_021);
        let routers: Vec<RouterId> = (0..4)
            .map(|i| {
                topo.add_router(
                    format!("q{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::new(10, 255, 4, i + 1),
                )
            })
            .collect();
        for i in 0..3u8 {
            topo.add_link(
                routers[i as usize],
                Ipv4Addr::new(10, 4, i, 1),
                routers[i as usize + 1],
                Ipv4Addr::new(10, 4, i, 2),
                1,
            );
        }
        let mut configs = vec![SrNodeConfig { srgb: cisco_srgb(), srlb: None }; 4];
        configs[2] = SrNodeConfig { srgb: LabelBlock::from_range(13_000, 20_999), srlb: None };
        let spec = SrDomainSpec {
            members: routers.clone(),
            configs,
            extra_prefix_sids: vec![],
            php: false,
            install_node_ftn: true,
            node_sid_base: 5,
        };
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let mut pools: Vec<DynamicLabelPool> =
            spf.members().iter().map(|&r| DynamicLabelPool::sr_aware(u64::from(r.0))).collect();
        let (domain, tables) = build(&topo, &spec, &spf, &mut pools);

        // Node SID of R3 has index 8. R1 sees 16,008; R2 sees 13,008.
        let at_r1 = domain.node_label_at(routers[1], routers[3]).unwrap();
        let at_r2 = domain.node_label_at(routers[2], routers[3]).unwrap();
        assert_eq!(at_r1.value(), 16_008);
        assert_eq!(at_r2.value(), 13_008);
        assert!(at_r1.suffix_matches(at_r2), "the paper's suffix rule links them");

        // R1's LFIB swaps 16,008 → 13,008 (remapping into R2's SRGB).
        match tables.lfib(routers[1]).lookup(at_r1).unwrap() {
            LfibAction::Swap { out_label, .. } => assert_eq!(out_label, at_r2),
            other => panic!("expected swap, got {other:?}"),
        }
    }

    #[test]
    fn adjacency_sids_come_from_srlb() {
        let (topo, r, spec) = chain_spec(false);
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let (domain, tables) = build(&topo, &spec, &spf, &mut []);

        // R1 has two adjacencies (to R0 and R2): SRLB labels 15,000/15,001.
        let ifaces: Vec<IfaceId> =
            topo.adjacencies(r[1]).map(|(_, local_if, _, _, _)| local_if).collect();
        assert_eq!(ifaces.len(), 2);
        let labels: Vec<u32> =
            ifaces.iter().map(|&i| domain.adj_sid(r[1], i).unwrap().value()).collect();
        assert_eq!(labels, vec![15_000, 15_001]);
        // The adjacency SID pops and forces the specific interface.
        match tables.lfib(r[1]).lookup(Label::new(15_000).unwrap()).unwrap() {
            LfibAction::PopForward { out_iface, .. } => assert_eq!(out_iface, ifaces[0]),
            other => panic!("expected forced-egress pop, got {other:?}"),
        }
    }

    #[test]
    fn no_srlb_allocates_adj_sids_from_dynamic_pool() {
        // Juniper-style: srlb = None → adjacency SIDs from the pool.
        let mut topo = Topology::new();
        let asn = AsNumber(65_022);
        let a = topo.add_router("j0", asn, Vendor::Juniper, Ipv4Addr::new(10, 255, 5, 1));
        let b = topo.add_router("j1", asn, Vendor::Juniper, Ipv4Addr::new(10, 255, 5, 2));
        topo.add_link(a, Ipv4Addr::new(10, 5, 0, 1), b, Ipv4Addr::new(10, 5, 0, 2), 1);
        let spec = SrDomainSpec {
            members: vec![a, b],
            configs: vec![SrNodeConfig { srgb: cisco_srgb(), srlb: None }; 2],
            extra_prefix_sids: vec![],
            php: true,
            install_node_ftn: true,
            node_sid_base: 1,
        };
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let mut pools: Vec<DynamicLabelPool> =
            spf.members().iter().map(|&r| DynamicLabelPool::sr_aware(u64::from(r.0))).collect();
        let (domain, _) = build(&topo, &spec, &spf, &mut pools);
        let iface = topo.adjacencies(a).next().unwrap().1;
        let adj = domain.adj_sid(a, iface).unwrap();
        assert!(adj.value() >= arest_mpls::pool::SR_AWARE_POOL_START);
    }

    #[test]
    fn extra_prefix_sid_reaches_non_loopback_prefix() {
        let (topo, r, _) = chain_spec(false);
        let customer: Prefix = "203.0.113.0/24".parse().unwrap();
        let spec = SrDomainSpec {
            members: r.clone(),
            configs: vec![SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }; 5],
            extra_prefix_sids: vec![PrefixSidSpec {
                prefix: customer,
                egress: r[4],
                index: SidIndex(900),
            }],
            php: false,
            install_node_ftn: true,
            node_sid_base: 100,
        };
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let (_, tables) = build(&topo, &spec, &spf, &mut []);
        let push = tables.ftn(r[0]).lookup(Ipv4Addr::new(203, 0, 113, 42)).unwrap();
        assert_eq!(push.labels, vec![Label::new(16_900).unwrap()]);
    }
}
