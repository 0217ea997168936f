//! A Label Distribution Protocol stand-in (RFC 5036).
//!
//! Real LDP floods label bindings hop by hop; what matters to a
//! traceroute-level reproduction is the *steady state* it converges
//! to: every member router holds, per FEC, a locally chosen label and
//! the label its IGP next hop advertised. [`LdpDomain::build`]
//! computes that steady state directly over the IGP shortest paths —
//! one slot-indexed label row per FEC — and [`LdpDomain::install`]
//! compiles it into the members' executable
//! [`Lfib`](crate::tables::Lfib)/[`Ftn`](crate::tables::Ftn) tables.
//!
//! Penultimate-hop popping is modelled through implicit-NULL
//! advertisement by the egress, as deployed by default on every major
//! vendor.

use crate::pool::DynamicLabelPool;
use crate::tables::{LabelTables, LfibAction, PushInstruction};
use arest_topo::ids::RouterId;
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use arest_wire::mpls::Label;
use std::borrow::BorrowMut;

/// A FEC handled by an LDP domain: a destination prefix and the member
/// router that originates it (the tunnel egress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdpFec {
    /// The destination prefix.
    pub prefix: Prefix,
    /// The egress router advertising the prefix.
    pub egress: RouterId,
}

/// What one member advertises for one FEC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// No path to the egress: nothing is bound.
    Unbound,
    /// The PHP egress's implicit NULL.
    ImplicitNull,
    /// A label from the member's dynamic pool.
    Label(Label),
}

/// The converged label bindings of one LDP domain, over the dense
/// member slots of its [`DomainSpf`].
#[derive(Debug, Clone)]
pub struct LdpDomain<'a> {
    spf: &'a DomainSpf,
    /// The FECs whose egress is a member, in the order given, each
    /// with its egress slot.
    fecs: Vec<(Prefix, usize)>,
    /// `labels[f * n + s]`: what member slot `s` advertises for FEC
    /// `f`, for `n` members.
    labels: Vec<Binding>,
}

impl<'a> LdpDomain<'a> {
    /// Computes the converged LDP bindings for the members of `spf`
    /// over their IGP shortest paths: per FEC, every member in slot
    /// order allocates a label from its `pools[slot]`.
    ///
    /// With `php` (the default deployment), the egress advertises
    /// implicit NULL and the penultimate hop pops; without it, the
    /// egress allocates a real label and pops locally.
    ///
    /// FECs whose egress is not a member, and routers with no path to
    /// an egress, are skipped silently — matching LDP's behaviour of
    /// simply not installing unreachable bindings.
    ///
    /// Building only allocates; [`LdpDomain::install`] writes the
    /// tables. A deployment can therefore draw further labels from the
    /// same pools (VPN labels, another domain) before any entry lands.
    ///
    /// # Panics
    /// Panics unless there is one pool per member slot, or if a pool
    /// runs out of labels.
    pub fn build<P: BorrowMut<DynamicLabelPool>>(
        spf: &'a DomainSpf,
        fecs: &[LdpFec],
        pools: &mut [P],
        php: bool,
    ) -> LdpDomain<'a> {
        let n = spf.members().len();
        assert_eq!(pools.len(), n, "one label pool per member slot");
        let mut domain = LdpDomain { spf, fecs: Vec::new(), labels: Vec::new() };
        for fec in fecs {
            let Some(egress) = spf.slot(fec.egress) else {
                continue;
            };
            domain.fecs.push((fec.prefix, egress));
            domain.labels.extend(pools.iter_mut().enumerate().map(|(s, pool)| {
                // Only routers that can reach the egress bind a label.
                if s == egress && php {
                    Binding::ImplicitNull
                } else if s == egress || spf.reaches(s, egress) {
                    Binding::Label(pool.borrow_mut().allocate().expect("label pool exhausted"))
                } else {
                    Binding::Unbound
                }
            }));
        }

        // Domain builds are cold (once per AS at generation), so
        // registering against the global registry inline is fine.
        let registry = arest_obs::global();
        if registry.is_enabled() {
            registry.counter("mpls.ldp.domains").inc();
            registry.counter("mpls.ldp.bindings").add(domain.distinct_bindings());
        }
        domain
    }

    /// The domain's member routers, in slot order.
    pub fn members(&self) -> &[RouterId] {
        self.spf.members()
    }

    fn row(&self, f: usize) -> &[Binding] {
        let n = self.spf.members().len();
        &self.labels[f * n..(f + 1) * n]
    }

    /// Bound (member, prefix) pairs. LDP keys a binding by its FEC
    /// prefix, so a prefix listed under two FECs (one transit block
    /// behind two exits) counts once per member.
    fn distinct_bindings(&self) -> u64 {
        let bound = |f: usize| self.row(f).iter().map(|&b| b != Binding::Unbound);
        let mut by_prefix: Vec<usize> = (0..self.fecs.len()).collect();
        by_prefix.sort_by_key(|&f| self.fecs[f].0);
        let mut count = 0;
        let mut any = Vec::new();
        for group in by_prefix.chunk_by(|&a, &b| self.fecs[a].0 == self.fecs[b].0) {
            any.clear();
            any.extend(bound(group[0]));
            for &f in &group[1..] {
                any.iter_mut().zip(bound(f)).for_each(|(a, b)| *a |= b);
            }
            count += any.iter().filter(|&&b| b).count() as u64;
        }
        count
    }

    /// Compiles the bindings into `tables[slot]`, one per member: per
    /// FEC in order, each member's LFIB swap (or PHP pop) toward its
    /// next hop and its ingress FTN push, with `stacked(prefix)` below
    /// the transport label (VPN or entropy labels; empty for none).
    /// Every entry is installed once, later installs winning.
    ///
    /// # Panics
    /// Panics unless there is one table set per member slot.
    pub fn install<'i, T: LabelTables>(
        &self,
        tables: &mut [T],
        stacked: impl Fn(Prefix) -> &'i [Label],
    ) {
        let members = self.spf.members();
        assert_eq!(tables.len(), members.len(), "one table set per member slot");
        for (f, &(prefix, egress)) in self.fecs.iter().enumerate() {
            let labels = self.row(f);
            let inner = stacked(prefix);
            for (s, tables) in tables.iter_mut().enumerate() {
                if s == egress {
                    if let Binding::Label(own) = labels[s] {
                        tables.lfib_mut().install(own, LfibAction::PopLocal);
                    }
                    continue;
                }
                let Some((out_iface, next)) = self.spf.next_hop_slot(s, egress) else {
                    continue;
                };
                let next_router = members[next];
                let (action, down) = match labels[next] {
                    Binding::Unbound => continue,
                    Binding::ImplicitNull => {
                        (LfibAction::PopForward { out_iface, next_router }, None)
                    }
                    Binding::Label(out_label) => {
                        (LfibAction::Swap { out_label, out_iface, next_router }, Some(out_label))
                    }
                };
                let Binding::Label(own) = labels[s] else {
                    panic!("non-egress members with a path allocate real labels");
                };
                tables.lfib_mut().install(own, action);
                let mut push = Vec::with_capacity(usize::from(down.is_some()) + inner.len());
                push.extend(down);
                push.extend_from_slice(inner);
                tables
                    .ftn_mut()
                    .install(prefix, PushInstruction { labels: push, out_iface, next_router });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{Ftn, Lfib, MplsTables, PushInstruction};
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

    /// A domain compiled into standalone tables, read back by router.
    struct Compiled {
        spf: DomainSpf,
        tables: Vec<MplsTables>,
    }

    impl Compiled {
        fn build(topo: &Topology, members: &[RouterId], fecs: &[LdpFec], php: bool) -> Compiled {
            let spf = DomainSpf::for_members(topo, members);
            let mut pools: Vec<DynamicLabelPool> = spf
                .members()
                .iter()
                .map(|&r| DynamicLabelPool::classic(1000 + u64::from(r.0)))
                .collect();
            let mut tables = vec![MplsTables::default(); spf.members().len()];
            LdpDomain::build(&spf, fecs, &mut pools, php).install(&mut tables, |_| &[]);
            Compiled { spf, tables }
        }

        fn lfib(&self, r: RouterId) -> &Lfib {
            &self.tables[self.spf.slot(r).unwrap()].lfib
        }

        fn ftn(&self, r: RouterId) -> &Ftn {
            &self.tables[self.spf.slot(r).unwrap()].ftn
        }

        fn push(&self, r: RouterId, prefix: Prefix) -> Option<&PushInstruction> {
            self.ftn(r).iter().find(|(p, _)| **p == prefix).map(|(_, push)| push)
        }

        /// The label `r` advertises for `prefix`, read back from the
        /// compiled tables: what an upstream member pushes toward `r`,
        /// else the in-label of the LFIB entry `r`'s own FTN entry
        /// mirrors. Outer `None` when no binding exists, inner `None`
        /// for implicit NULL.
        fn binding(&self, r: RouterId, prefix: Prefix) -> Option<Option<Label>> {
            let upstream = self.spf.members().iter().filter(|&&u| u != r);
            if let Some(push) =
                upstream.filter_map(|&u| self.push(u, prefix)).find(|p| p.next_router == r)
            {
                return Some(push.labels.first().copied());
            }
            let push = self.push(r, prefix)?;
            let (out_iface, next_router) = (push.out_iface, push.next_router);
            let action = match push.labels.first() {
                Some(&out_label) => LfibAction::Swap { out_label, out_iface, next_router },
                None => LfibAction::PopForward { out_iface, next_router },
            };
            self.lfib(r).iter().find(|(_, a)| **a == action).map(|(l, _)| Some(*l))
        }
    }

    #[test]
    fn php_chain_swaps_then_pops() {
        let (topo, r, prefix) = chain();
        let domain = Compiled::build(&topo, &r, &[LdpFec { prefix, egress: r[3] }], true);

        // Egress advertises implicit NULL.
        assert_eq!(domain.binding(r[3], prefix), Some(None));
        // Every other member binds a real, router-distinct label.
        let l0 = domain.binding(r[0], prefix).unwrap().unwrap();
        let l1 = domain.binding(r[1], prefix).unwrap().unwrap();
        let l2 = domain.binding(r[2], prefix).unwrap().unwrap();
        assert_ne!(l0, l1);

        // Ingress R0 pushes R1's label.
        let push = domain.ftn(r[0]).lookup(Ipv4Addr::new(203, 0, 113, 5)).unwrap();
        assert_eq!(push.labels, vec![l1]);
        assert_eq!(push.next_router, r[1]);

        // R1 swaps l1 → l2 toward R2.
        match domain.lfib(r[1]).lookup(l1).unwrap() {
            LfibAction::Swap { out_label, next_router, .. } => {
                assert_eq!(out_label, l2);
                assert_eq!(next_router, r[2]);
            }
            other => panic!("expected swap, got {other:?}"),
        }

        // R2 (penultimate) pops toward the egress.
        match domain.lfib(r[2]).lookup(l2).unwrap() {
            LfibAction::PopForward { next_router, .. } => assert_eq!(next_router, r[3]),
            other => panic!("expected PHP pop, got {other:?}"),
        }

        // The egress LFIB stays empty under PHP.
        assert!(domain.lfib(r[3]).is_empty());
    }

    #[test]
    fn no_php_egress_pops_locally() {
        let (topo, r, prefix) = chain();
        let domain = Compiled::build(&topo, &r, &[LdpFec { prefix, egress: r[3] }], false);
        let l3 = domain.binding(r[3], prefix).unwrap().unwrap();
        assert_eq!(domain.lfib(r[3]).lookup(l3), Some(LfibAction::PopLocal));
        // Penultimate hop now swaps to the egress label instead of popping.
        let l2 = domain.binding(r[2], prefix).unwrap().unwrap();
        match domain.lfib(r[2]).lookup(l2).unwrap() {
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
        let domain = Compiled::build(
            &topo,
            &r,
            &[LdpFec { prefix, egress: r[3] }, LdpFec { prefix: prefix2, egress: r[3] }],
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
        let domain = Compiled::build(&topo, &r, &[LdpFec { prefix, egress: outsider }], true);
        assert!(domain.binding(r[0], prefix).is_none());
        assert!(domain.ftn(r[0]).is_empty());
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
        let domain = Compiled::build(&topo, &r, &[LdpFec { prefix, egress: r[3] }], true);
        assert!(domain.binding(lonely, prefix).is_none());
        assert!(domain.lfib(lonely).is_empty());
    }
}
