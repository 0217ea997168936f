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
use arest_mpls::tables::{Ftn, Lfib, LfibAction, PushInstruction};
use arest_topo::graph::Topology;
use arest_topo::ids::{IfaceId, RouterId};
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use arest_wire::mpls::Label;
use std::collections::{HashMap, HashSet};

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
    /// Per-member configuration. Every member must appear.
    pub configs: HashMap<RouterId, SrNodeConfig>,
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

/// The converged SR domain: SID tables plus compiled forwarding state.
#[derive(Debug, Clone)]
pub struct SrDomain {
    members: Vec<RouterId>,
    configs: HashMap<RouterId, SrNodeConfig>,
    node_index: HashMap<RouterId, SidIndex>,
    prefix_sids: Vec<PrefixSidSpec>,
    adj_sids: HashMap<(RouterId, IfaceId), Label>,
    lfibs: HashMap<RouterId, Lfib>,
    ftns: HashMap<RouterId, Ftn>,
    spf: DomainSpf,
    php: bool,
}

impl SrDomain {
    /// Builds the converged domain state over `spf`, the IGP shortest
    /// paths among exactly `spec.members` (shared with any other user
    /// of the same member set).
    ///
    /// `pools` supplies dynamic labels for adjacency SIDs on members
    /// without an SRLB.
    ///
    /// # Panics
    /// Panics if a member has no entry in `spec.configs` or no label
    /// pool when one is needed.
    pub fn build(
        topo: &Topology,
        spec: &SrDomainSpec,
        spf: &DomainSpf,
        pools: &mut HashMap<RouterId, DynamicLabelPool>,
    ) -> SrDomain {
        let member_set: HashSet<RouterId> = spec.members.iter().copied().collect();
        assert!(
            spf.members().len() == member_set.len()
                && spf.members().iter().all(|r| member_set.contains(r)),
            "the SPF must cover exactly the SR members"
        );

        // Automatic node SIDs: loopback /32 prefix SIDs in member order.
        let mut node_index = HashMap::new();
        let mut prefix_sids = Vec::new();
        for (i, &r) in spec.members.iter().enumerate() {
            let index = SidIndex(spec.node_sid_base + i as u32);
            node_index.insert(r, index);
            prefix_sids.push(PrefixSidSpec {
                prefix: Prefix::host(topo.router(r).loopback),
                egress: r,
                index,
            });
        }
        prefix_sids.extend(spec.extra_prefix_sids.iter().copied());

        // Compile forwarding state into locals and assemble the domain
        // once at the end — `prefix_sids` can then move in instead of
        // being cloned (it scales with members + customer prefixes).
        let config = |r: RouterId| -> &SrNodeConfig {
            spec.configs.get(&r).unwrap_or_else(|| panic!("no SR config for {r}"))
        };
        let mut lfibs: HashMap<RouterId, Lfib> =
            spec.members.iter().map(|&r| (r, Lfib::new())).collect();
        let mut ftns: HashMap<RouterId, Ftn> =
            spec.members.iter().map(|&r| (r, Ftn::new())).collect();
        let mut adj_sids = HashMap::new();

        // Prefix/node SIDs: install LFIB chains and ingress FTNs.
        // The first `members.len()` entries are the automatic node
        // SIDs; their FTNs are optional.
        let node_sid_count = spec.members.len();
        for (sid_idx, sid) in prefix_sids.iter().enumerate() {
            let want_ftn = spec.install_node_ftn || sid_idx >= node_sid_count;
            if !member_set.contains(&sid.egress) {
                continue;
            }
            for &r in &spec.members {
                let srgb_r = config(r).srgb;
                let Some(in_label) = srgb_r.label_for(sid.index.0) else {
                    continue; // index outside this router's SRGB
                };
                if r == sid.egress {
                    lfibs.get_mut(&r).unwrap().install(in_label, LfibAction::PopLocal);
                    continue;
                }
                let Some((out_iface, next_router)) = spf.next_hop(r, sid.egress) else {
                    continue;
                };
                let srgb_next = config(next_router).srgb;
                let Some(out_label) = srgb_next.label_for(sid.index.0) else {
                    continue;
                };
                let pops_here = spec.php && next_router == sid.egress;
                let action = if pops_here {
                    LfibAction::PopForward { out_iface, next_router }
                } else {
                    LfibAction::Swap { out_label, out_iface, next_router }
                };
                lfibs.get_mut(&r).unwrap().install(in_label, action);
                if want_ftn {
                    ftns.get_mut(&r).unwrap().install(
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
        for &r in &spec.members {
            let srlb = config(r).srlb;
            let mut next_srlb_index = 0u32;
            let adjacencies: Vec<(IfaceId, RouterId)> = topo
                .adjacencies(r)
                .filter(|(_, _, _, remote, _)| member_set.contains(remote))
                .map(|(_, local_if, _, remote, _)| (local_if, remote))
                .collect();
            for (local_if, remote) in adjacencies {
                let label = match srlb {
                    Some(block) => {
                        let l = block
                            .label_for(next_srlb_index)
                            .expect("SRLB exhausted by adjacency SIDs");
                        next_srlb_index += 1;
                        l
                    }
                    None => pools
                        .get_mut(&r)
                        .unwrap_or_else(|| panic!("no label pool for {r}"))
                        .allocate()
                        .expect("label pool exhausted"),
                };
                adj_sids.insert((r, local_if), label);
                lfibs.get_mut(&r).unwrap().install(
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
            registry.counter("sr.prefix_sids").add(prefix_sids.len() as u64);
            registry.counter("sr.adj_sids").add(adj_sids.len() as u64);
        }
        SrDomain {
            members: spec.members.clone(),
            configs: spec.configs.clone(),
            node_index,
            prefix_sids,
            adj_sids,
            lfibs,
            ftns,
            spf: spf.clone(),
            php: spec.php,
        }
    }

    /// The domain members.
    pub fn members(&self) -> &[RouterId] {
        &self.members
    }

    /// Whether PHP is enabled for prefix SIDs.
    pub fn php(&self) -> bool {
        self.php
    }

    /// The SRGB of a member.
    pub fn srgb(&self, r: RouterId) -> Option<LabelBlock> {
        self.configs.get(&r).map(|c| c.srgb)
    }

    /// The automatic node SID index of a member.
    pub fn node_sid(&self, r: RouterId) -> Option<SidIndex> {
        self.node_index.get(&r).copied()
    }

    /// The label `viewer` uses on its *incoming* face for `target`'s
    /// node SID (i.e. `target`'s index through `viewer`'s own SRGB).
    pub fn node_label_at(&self, viewer: RouterId, target: RouterId) -> Option<Label> {
        let index = self.node_index.get(&target)?;
        self.configs.get(&viewer)?.srgb.label_for(index.0)
    }

    /// The adjacency SID label `owner` allocated for `out_iface`.
    pub fn adj_sid(&self, owner: RouterId, out_iface: IfaceId) -> Option<Label> {
        self.adj_sids.get(&(owner, out_iface)).copied()
    }

    /// All prefix SIDs (automatic node SIDs first, then extras).
    pub fn prefix_sids(&self) -> &[PrefixSidSpec] {
        &self.prefix_sids
    }

    /// The compiled LFIB of a member.
    pub fn lfib(&self, r: RouterId) -> Option<&Lfib> {
        self.lfibs.get(&r)
    }

    /// The compiled FTN of a member.
    pub fn ftn(&self, r: RouterId) -> Option<&Ftn> {
        self.ftns.get(&r)
    }

    /// The domain's SPF cache (used by policy compilation).
    pub fn spf(&self) -> &DomainSpf {
        &self.spf
    }

    /// Consumes the domain, yielding per-router tables for the
    /// simulator to merge.
    pub fn into_tables(self) -> (HashMap<RouterId, Lfib>, HashMap<RouterId, Ftn>) {
        (self.lfibs, self.ftns)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block::{cisco_srgb, cisco_srlb, LabelBlock};
    use arest_topo::ids::AsNumber;
    use arest_topo::vendor::Vendor;
    use std::net::Ipv4Addr;

    /// A 5-router chain R0—R1—R2—R3—R4, all Cisco defaults.
    pub(crate) fn chain_domain(php: bool) -> (Topology, Vec<RouterId>, SrDomain) {
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
            configs: routers
                .iter()
                .map(|&r| (r, SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }))
                .collect(),
            extra_prefix_sids: vec![],
            php,
            install_node_ftn: true,
            node_sid_base: 100,
        };
        let mut pools = HashMap::new();
        let domain = SrDomain::build(
            &topo,
            &spec,
            &DomainSpf::for_members(&topo, &spec.members),
            &mut pools,
        );
        (topo, routers, domain)
    }

    #[test]
    fn same_srgb_keeps_label_constant_along_path() {
        let (_, r, domain) = chain_domain(false);
        // Node SID of R4 is index 104 → label 16,104 everywhere.
        let target = r[4];
        assert_eq!(domain.node_sid(target), Some(SidIndex(104)));
        let expected = Label::new(16_104).unwrap();
        for &viewer in &r {
            assert_eq!(domain.node_label_at(viewer, target), Some(expected));
        }
        // Every transit router swaps 16,104 → 16,104.
        for &transit in &r[0..4] {
            match domain.lfib(transit).unwrap().lookup(expected).unwrap() {
                LfibAction::Swap { out_label, .. } => assert_eq!(out_label, expected),
                LfibAction::PopForward { .. } => panic!("php disabled"),
                LfibAction::PopLocal => panic!("only the egress pops"),
            }
        }
        // The egress pops locally.
        assert_eq!(domain.lfib(target).unwrap().lookup(expected), Some(LfibAction::PopLocal));
    }

    #[test]
    fn php_pops_at_penultimate_hop() {
        let (_, r, domain) = chain_domain(true);
        let label = domain.node_label_at(r[3], r[4]).unwrap();
        match domain.lfib(r[3]).unwrap().lookup(label).unwrap() {
            LfibAction::PopForward { next_router, .. } => assert_eq!(next_router, r[4]),
            other => panic!("expected PHP pop, got {other:?}"),
        }
        // And the one-hop FTN from R3 pushes nothing.
        let loopback = Ipv4Addr::new(10, 255, 3, 5);
        let push = domain.ftn(r[3]).unwrap().lookup(loopback).unwrap();
        assert!(push.labels.is_empty());
    }

    #[test]
    fn ftn_pushes_next_hop_srgb_label() {
        let (_, r, domain) = chain_domain(false);
        let loopback = Ipv4Addr::new(10, 255, 3, 5); // R4
        let push = domain.ftn(r[0]).unwrap().lookup(loopback).unwrap();
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
        let mut configs: HashMap<RouterId, SrNodeConfig> =
            routers.iter().map(|&r| (r, SrNodeConfig { srgb: cisco_srgb(), srlb: None })).collect();
        configs.insert(
            routers[2],
            SrNodeConfig { srgb: LabelBlock::from_range(13_000, 20_999), srlb: None },
        );
        let spec = SrDomainSpec {
            members: routers.clone(),
            configs,
            extra_prefix_sids: vec![],
            php: false,
            install_node_ftn: true,
            node_sid_base: 5,
        };
        let mut pools: HashMap<RouterId, DynamicLabelPool> =
            routers.iter().map(|&r| (r, DynamicLabelPool::sr_aware(u64::from(r.0)))).collect();
        let domain = SrDomain::build(
            &topo,
            &spec,
            &DomainSpf::for_members(&topo, &spec.members),
            &mut pools,
        );

        // Node SID of R3 has index 8. R1 sees 16,008; R2 sees 13,008.
        let at_r1 = domain.node_label_at(routers[1], routers[3]).unwrap();
        let at_r2 = domain.node_label_at(routers[2], routers[3]).unwrap();
        assert_eq!(at_r1.value(), 16_008);
        assert_eq!(at_r2.value(), 13_008);
        assert!(at_r1.suffix_matches(at_r2), "the paper's suffix rule links them");

        // R1's LFIB swaps 16,008 → 13,008 (remapping into R2's SRGB).
        match domain.lfib(routers[1]).unwrap().lookup(at_r1).unwrap() {
            LfibAction::Swap { out_label, .. } => assert_eq!(out_label, at_r2),
            other => panic!("expected swap, got {other:?}"),
        }
    }

    #[test]
    fn adjacency_sids_come_from_srlb() {
        let (topo, r, domain) = chain_domain(false);
        // R1 has two adjacencies (to R0 and R2): SRLB labels 15,000/15,001.
        let ifaces: Vec<IfaceId> =
            topo.adjacencies(r[1]).map(|(_, local_if, _, _, _)| local_if).collect();
        assert_eq!(ifaces.len(), 2);
        let labels: Vec<u32> =
            ifaces.iter().map(|&i| domain.adj_sid(r[1], i).unwrap().value()).collect();
        assert_eq!(labels, vec![15_000, 15_001]);
        // The adjacency SID pops and forces the specific interface.
        match domain.lfib(r[1]).unwrap().lookup(Label::new(15_000).unwrap()).unwrap() {
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
            configs: [a, b]
                .into_iter()
                .map(|r| (r, SrNodeConfig { srgb: cisco_srgb(), srlb: None }))
                .collect(),
            extra_prefix_sids: vec![],
            php: true,
            install_node_ftn: true,
            node_sid_base: 1,
        };
        let mut pools: HashMap<RouterId, DynamicLabelPool> =
            [a, b].into_iter().map(|r| (r, DynamicLabelPool::sr_aware(u64::from(r.0)))).collect();
        let domain = SrDomain::build(
            &topo,
            &spec,
            &DomainSpf::for_members(&topo, &spec.members),
            &mut pools,
        );
        let iface = topo.adjacencies(a).next().unwrap().1;
        let adj = domain.adj_sid(a, iface).unwrap();
        assert!(adj.value() >= arest_mpls::pool::SR_AWARE_POOL_START);
    }

    #[test]
    fn extra_prefix_sid_reaches_non_loopback_prefix() {
        let (topo, r, _) = chain_domain(false);
        let customer: Prefix = "203.0.113.0/24".parse().unwrap();
        let spec = SrDomainSpec {
            members: r.clone(),
            configs: r
                .iter()
                .map(|&x| (x, SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }))
                .collect(),
            extra_prefix_sids: vec![PrefixSidSpec {
                prefix: customer,
                egress: r[4],
                index: SidIndex(900),
            }],
            php: false,
            install_node_ftn: true,
            node_sid_base: 100,
        };
        let mut pools = HashMap::new();
        let domain = SrDomain::build(
            &topo,
            &spec,
            &DomainSpf::for_members(&topo, &spec.members),
            &mut pools,
        );
        let push = domain.ftn(r[0]).unwrap().lookup(Ipv4Addr::new(203, 0, 113, 42)).unwrap();
        assert_eq!(push.labels, vec![Label::new(16_900).unwrap()]);
    }
}
