//! A Label Distribution Protocol stand-in (RFC 5036).
//!
//! Real LDP floods label bindings hop by hop; what matters to a
//! traceroute-level reproduction is the *steady state* it converges
//! to: every member router holds, per FEC, a locally chosen label and
//! the label its IGP next hop advertised. [`LdpDomain::build`]
//! computes that steady state directly over the IGP shortest paths and
//! compiles it into executable [`Lfib`]/[`Ftn`] tables.
//!
//! Penultimate-hop popping is modelled through implicit-NULL
//! advertisement by the egress, as deployed by default on every major
//! vendor.

use crate::pool::DynamicLabelPool;
use crate::tables::{Ftn, Lfib, LfibAction, PushInstruction};
use arest_topo::ids::RouterId;
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use arest_wire::mpls::Label;
use std::collections::{HashMap, HashSet};

/// A FEC handled by an LDP domain: a destination prefix and the member
/// router that originates it (the tunnel egress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdpFec {
    /// The destination prefix.
    pub prefix: Prefix,
    /// The egress router advertising the prefix.
    pub egress: RouterId,
}

/// The converged state of one LDP domain.
#[derive(Debug, Clone)]
pub struct LdpDomain {
    members: Vec<RouterId>,
    lfibs: HashMap<RouterId, Lfib>,
    ftns: HashMap<RouterId, Ftn>,
    /// `(router, prefix)` → the label that router advertises for the
    /// FEC; `None` encodes implicit NULL (PHP).
    bindings: HashMap<(RouterId, Prefix), Option<Label>>,
}

impl LdpDomain {
    /// Builds the converged LDP state for the members of `spf` over
    /// their IGP shortest paths, allocating labels from each router's
    /// `pool`.
    ///
    /// With `php` (the default deployment), the egress advertises
    /// implicit NULL and the penultimate hop pops; without it, the
    /// egress allocates a real label and pops locally.
    ///
    /// FECs whose egress is not a member, and routers with no path to
    /// an egress, are skipped silently — matching LDP's behaviour of
    /// simply not installing unreachable bindings.
    pub fn build(
        spf: &DomainSpf,
        fecs: &[LdpFec],
        pools: &mut HashMap<RouterId, DynamicLabelPool>,
        php: bool,
    ) -> LdpDomain {
        let members = spf.members();
        let member_set: HashSet<RouterId> = members.iter().copied().collect();

        let mut domain = LdpDomain {
            members: members.to_vec(),
            lfibs: members.iter().map(|&r| (r, Lfib::new())).collect(),
            ftns: members.iter().map(|&r| (r, Ftn::new())).collect(),
            bindings: HashMap::new(),
        };

        for fec in fecs {
            if !member_set.contains(&fec.egress) {
                continue;
            }
            // Phase 1: every member allocates (or, for the PHP egress,
            // implies) its label binding for this FEC.
            let mut labels: HashMap<RouterId, Option<Label>> = HashMap::new();
            for &r in members {
                // Only routers that can reach the egress bind a label.
                if r != fec.egress && spf.distance(r, fec.egress).is_none() {
                    continue;
                }
                let label = if r == fec.egress && php {
                    None // implicit NULL
                } else {
                    let pool = pools.get_mut(&r).unwrap_or_else(|| panic!("no label pool for {r}"));
                    Some(pool.allocate().expect("label pool exhausted"))
                };
                labels.insert(r, label);
                domain.bindings.insert((r, fec.prefix), label);
            }

            // Phase 2: compile LFIB swap/pop chains and ingress FTNs.
            for &r in members {
                if r == fec.egress {
                    if let Some(Some(own)) = labels.get(&r) {
                        domain.lfibs.get_mut(&r).unwrap().install(*own, LfibAction::PopLocal);
                    }
                    continue;
                }
                let Some((out_iface, next_router)) = spf.next_hop(r, fec.egress) else {
                    continue;
                };
                let Some(&down) = labels.get(&next_router) else {
                    continue;
                };
                let own = labels[&r].expect("non-egress members allocate real labels");
                let action = match down {
                    Some(out_label) => LfibAction::Swap { out_label, out_iface, next_router },
                    None => LfibAction::PopForward { out_iface, next_router },
                };
                domain.lfibs.get_mut(&r).unwrap().install(own, action);
                domain.ftns.get_mut(&r).unwrap().install(
                    fec.prefix,
                    PushInstruction { labels: down.into_iter().collect(), out_iface, next_router },
                );
            }
        }

        // Domain builds are cold (once per AS at generation), so
        // registering against the global registry inline is fine.
        let registry = arest_obs::global();
        if registry.is_enabled() {
            registry.counter("mpls.ldp.domains").inc();
            registry.counter("mpls.ldp.bindings").add(domain.bindings.len() as u64);
        }
        domain
    }

    /// The domain's member routers.
    pub fn members(&self) -> &[RouterId] {
        &self.members
    }

    /// The compiled LFIB of a member.
    pub fn lfib(&self, router: RouterId) -> Option<&Lfib> {
        self.lfibs.get(&router)
    }

    /// The compiled FTN of a member.
    pub fn ftn(&self, router: RouterId) -> Option<&Ftn> {
        self.ftns.get(&router)
    }

    /// The label `router` advertises for `prefix`; outer `None` when
    /// no binding exists, inner `None` for implicit NULL.
    pub fn binding(&self, router: RouterId, prefix: Prefix) -> Option<Option<Label>> {
        self.bindings.get(&(router, prefix)).copied()
    }

    /// Consumes the domain, yielding per-router tables for the
    /// simulator to merge into router planes.
    pub fn into_tables(self) -> (HashMap<RouterId, Lfib>, HashMap<RouterId, Ftn>) {
        (self.lfibs, self.ftns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_topo::graph::Topology;
    use arest_topo::ids::AsNumber;
    use arest_topo::vendor::Vendor;
    use std::net::Ipv4Addr;

    /// A 4-router chain: R0 — R1 — R2 — R3, egress R3 for 203.0.113.0/24.
    fn chain() -> (Topology, Vec<RouterId>, Prefix) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_010);
        let routers: Vec<RouterId> = (0..4)
            .map(|i| {
                topo.add_router(
                    format!("r{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::new(10, 255, 2, i + 1),
                )
            })
            .collect();
        for i in 0..3u8 {
            topo.add_link(
                routers[i as usize],
                Ipv4Addr::new(10, 2, i, 1),
                routers[i as usize + 1],
                Ipv4Addr::new(10, 2, i, 2),
                1,
            );
        }
        (topo, routers, "203.0.113.0/24".parse().unwrap())
    }

    fn pools(routers: &[RouterId]) -> HashMap<RouterId, DynamicLabelPool> {
        routers.iter().map(|&r| (r, DynamicLabelPool::classic(1000 + u64::from(r.0)))).collect()
    }

    #[test]
    fn php_chain_swaps_then_pops() {
        let (topo, r, prefix) = chain();
        let mut pools = pools(&r);
        let domain = LdpDomain::build(
            &DomainSpf::for_members(&topo, &r),
            &[LdpFec { prefix, egress: r[3] }],
            &mut pools,
            true,
        );

        // Egress advertises implicit NULL.
        assert_eq!(domain.binding(r[3], prefix), Some(None));
        // Every other member binds a real, router-distinct label.
        let l0 = domain.binding(r[0], prefix).unwrap().unwrap();
        let l1 = domain.binding(r[1], prefix).unwrap().unwrap();
        let l2 = domain.binding(r[2], prefix).unwrap().unwrap();
        assert_ne!(l0, l1);

        // Ingress R0 pushes R1's label.
        let push = domain.ftn(r[0]).unwrap().lookup(Ipv4Addr::new(203, 0, 113, 5)).unwrap();
        assert_eq!(push.labels, vec![l1]);
        assert_eq!(push.next_router, r[1]);

        // R1 swaps l1 → l2 toward R2.
        match domain.lfib(r[1]).unwrap().lookup(l1).unwrap() {
            LfibAction::Swap { out_label, next_router, .. } => {
                assert_eq!(out_label, l2);
                assert_eq!(next_router, r[2]);
            }
            other => panic!("expected swap, got {other:?}"),
        }

        // R2 (penultimate) pops toward the egress.
        match domain.lfib(r[2]).unwrap().lookup(l2).unwrap() {
            LfibAction::PopForward { next_router, .. } => assert_eq!(next_router, r[3]),
            other => panic!("expected PHP pop, got {other:?}"),
        }

        // The egress LFIB stays empty under PHP.
        assert!(domain.lfib(r[3]).unwrap().is_empty());
    }

    #[test]
    fn no_php_egress_pops_locally() {
        let (topo, r, prefix) = chain();
        let mut pools = pools(&r);
        let domain = LdpDomain::build(
            &DomainSpf::for_members(&topo, &r),
            &[LdpFec { prefix, egress: r[3] }],
            &mut pools,
            false,
        );
        let l3 = domain.binding(r[3], prefix).unwrap().unwrap();
        assert_eq!(domain.lfib(r[3]).unwrap().lookup(l3), Some(LfibAction::PopLocal));
        // Penultimate hop now swaps to the egress label instead of popping.
        let l2 = domain.binding(r[2], prefix).unwrap().unwrap();
        match domain.lfib(r[2]).unwrap().lookup(l2).unwrap() {
            LfibAction::Swap { out_label, .. } => assert_eq!(out_label, l3),
            other => panic!("expected swap, got {other:?}"),
        }
    }

    #[test]
    fn labels_have_local_significance() {
        // Two FECs through the same chain: each router uses distinct
        // labels per FEC, and routers disagree with each other — the
        // classic-MPLS property that makes repeated labels an SR flag.
        let (mut topo, r, prefix) = chain();
        let prefix2: Prefix = "198.51.100.0/24".parse().unwrap();
        // Give R0 a second egress role for prefix2's sake: use R3 for
        // both but distinct FEC prefixes.
        let _ = &mut topo;
        let mut pools = pools(&r);
        let domain = LdpDomain::build(
            &DomainSpf::for_members(&topo, &r),
            &[LdpFec { prefix, egress: r[3] }, LdpFec { prefix: prefix2, egress: r[3] }],
            &mut pools,
            true,
        );
        let a = domain.binding(r[1], prefix).unwrap().unwrap();
        let b = domain.binding(r[1], prefix2).unwrap().unwrap();
        assert_ne!(a, b, "one router never reuses a label across FECs");
        let c = domain.binding(r[2], prefix).unwrap().unwrap();
        assert_ne!(a, c, "different routers pick different labels (w.h.p.)");
    }

    #[test]
    fn unreachable_fec_is_skipped() {
        let (topo, r, prefix) = chain();
        let outsider = RouterId(99);
        let mut pools = pools(&r);
        let domain = LdpDomain::build(
            &DomainSpf::for_members(&topo, &r),
            &[LdpFec { prefix, egress: outsider }],
            &mut pools,
            true,
        );
        assert!(domain.binding(r[0], prefix).is_none());
        assert!(domain.ftn(r[0]).unwrap().is_empty());
    }

    #[test]
    fn partitioned_member_gets_no_binding() {
        let (mut topo, mut r, prefix) = chain();
        // Add an isolated member with no links.
        let lonely = topo.add_router(
            "lonely",
            AsNumber(65_010),
            Vendor::Cisco,
            Ipv4Addr::new(10, 255, 2, 9),
        );
        r.push(lonely);
        let mut pools = pools(&r);
        let domain = LdpDomain::build(
            &DomainSpf::for_members(&topo, &r),
            &[LdpFec { prefix, egress: r[3] }],
            &mut pools,
            true,
        );
        assert!(domain.binding(lonely, prefix).is_none());
        assert!(domain.lfib(lonely).unwrap().is_empty());
    }
}
