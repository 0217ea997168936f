//! SR-TE policies: explicit segment lists compiled into label stacks.
//!
//! A policy steers traffic for a FEC through an explicit sequence of
//! segments, exactly as the paper's Fig. 3 walks through: router A
//! pushes `[104; 3,001; 108]` to route via D, then the D→E adjacency,
//! then shortest-path to H. Compilation resolves each segment into the
//! label its *first examiner* will look up:
//!
//! * the first pushed label is examined by the headend's next hop, so
//!   it is encoded through that neighbour's SRGB;
//! * every later label is examined by the endpoint of the previous
//!   segment (whether the previous label was popped there via
//!   PHP upstream, locally, or by an adjacency-SID forced egress).
//!
//! Service SIDs (paper §6.2, draft-ietf-spring-sr-service-programming)
//! ride at the bottom of the stack and are only consumed at the
//! service endpoint — producing the "unshrinking" deep stacks AReST
//! observed at ESnet.

use crate::domain::SrDomain;
use crate::sid::Segment;
use arest_mpls::tables::{LfibAction, PushInstruction};
use arest_topo::graph::Topology;
use arest_topo::ids::{IfaceId, RouterId};
use arest_topo::prefix::Prefix;
use arest_wire::mpls::Label;
use core::fmt;

/// An SR-TE policy at a headend.
#[derive(Debug, Clone)]
pub struct SrPolicy {
    /// The router that pushes the stack.
    pub headend: RouterId,
    /// Traffic matching this prefix is steered onto the policy.
    pub fec: Prefix,
    /// The explicit path.
    pub segments: Vec<Segment>,
    /// Service SID labels appended below the transport segments,
    /// consumed only at the service endpoint.
    pub service_sids: Vec<Label>,
}

/// Why a policy failed to compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// The segment list resolves to no forwarding action at all.
    Empty,
    /// A node segment's target is unreachable from the current point.
    Unreachable(RouterId),
    /// A router in the path is not an SR domain member.
    NotMember(RouterId),
    /// An adjacency segment is owned by a router other than the one
    /// the path has reached — only the owner can act on it.
    AdjacencyNotOwned {
        /// The adjacency's owner.
        owner: RouterId,
        /// Where the path actually was.
        at: RouterId,
    },
    /// No adjacency SID exists for the requested interface.
    NoAdjacencySid,
    /// A SID index does not fit an examiner's SRGB.
    SidOutOfRange,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Empty => write!(f, "policy resolves to no forwarding action"),
            PolicyError::Unreachable(r) => write!(f, "segment target {r} unreachable"),
            PolicyError::NotMember(r) => write!(f, "{r} is not an SR domain member"),
            PolicyError::AdjacencyNotOwned { owner, at } => {
                write!(f, "adjacency owned by {owner} but path is at {at}")
            }
            PolicyError::NoAdjacencySid => write!(f, "no adjacency SID for that interface"),
            PolicyError::SidOutOfRange => write!(f, "SID index outside an SRGB"),
        }
    }
}

impl std::error::Error for PolicyError {}

impl SrPolicy {
    /// A policy with no service SIDs.
    pub fn new(headend: RouterId, fec: Prefix, segments: Vec<Segment>) -> SrPolicy {
        SrPolicy { headend, fec, segments, service_sids: Vec::new() }
    }

    /// Compiles this policy into the push instruction the headend
    /// installs for its FEC.
    pub fn compile(
        &self,
        topo: &Topology,
        domain: &SrDomain<'_>,
    ) -> Result<PushInstruction, PolicyError> {
        let mut labels: Vec<Label> = Vec::new();
        let mut first_hop: Option<(IfaceId, RouterId)> = None;
        let mut current = self.headend;

        for segment in &self.segments {
            match *segment {
                Segment::Node(target) => {
                    if target == current {
                        continue; // a no-op segment
                    }
                    let index = domain.node_sid(target).ok_or(PolicyError::NotMember(target))?;
                    let (iface, neighbour) = domain
                        .spf()
                        .next_hop(current, target)
                        .ok_or(PolicyError::Unreachable(target))?;
                    let examiner = if first_hop.is_none() {
                        first_hop = Some((iface, neighbour));
                        neighbour
                    } else {
                        current
                    };
                    let label = domain
                        .srgb(examiner)
                        .ok_or(PolicyError::NotMember(examiner))?
                        .label_for(index.0)
                        .ok_or(PolicyError::SidOutOfRange)?;
                    labels.push(label);
                    current = target;
                }
                Segment::Adjacency { owner, out_iface } => {
                    if owner != current {
                        return Err(PolicyError::AdjacencyNotOwned { owner, at: current });
                    }
                    let remote =
                        topo.remote_iface(out_iface).ok_or(PolicyError::NoAdjacencySid)?.router;
                    if owner == self.headend && first_hop.is_none() {
                        // The headend resolves its own adjacency SID
                        // locally: no label, just the forced egress.
                        first_hop = Some((out_iface, remote));
                    } else {
                        let label =
                            domain.adj_sid(owner, out_iface).ok_or(PolicyError::NoAdjacencySid)?;
                        labels.push(label);
                    }
                    current = remote;
                }
            }
        }

        labels.extend(self.service_sids.iter().copied());

        let (out_iface, next_router) = first_hop.ok_or(PolicyError::Empty)?;
        Ok(PushInstruction { labels, out_iface, next_router })
    }
}

/// A service SID: a label with purely local meaning at its endpoint,
/// delivering the packet to a service function there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSid {
    /// The service endpoint router.
    pub at: RouterId,
    /// The SID label (allocated from the endpoint's SRLB or pool).
    pub label: Label,
}

impl ServiceSid {
    /// Installs the SID into the endpoint's LFIB inside `lfib_install`
    /// (a callback so callers can route the mutation through whatever
    /// owns the tables).
    pub fn action(&self) -> LfibAction {
        LfibAction::PopLocal
    }
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

    /// The paper's Fig. 3 topology:
    ///
    /// ```text
    /// A-B, B-C(stub), B-D, D-E, D-F, F-G, E-G, G-H   (all cost 1)
    /// ```
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

    fn fig3() -> Fixture {
        let mut topo = Topology::new();
        let asn = AsNumber(65_030);
        let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
        let routers: Vec<RouterId> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                topo.add_router(*n, asn, Vendor::Cisco, Ipv4Addr::new(10, 255, 6, (i + 1) as u8))
            })
            .collect();
        let pairs = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (4, 6), (6, 7)];
        for (n, (a, b)) in pairs.iter().enumerate() {
            topo.add_link(
                routers[*a],
                Ipv4Addr::new(10, 6, n as u8, 1),
                routers[*b],
                Ipv4Addr::new(10, 6, n as u8, 2),
                1,
            );
        }
        let spec = SrDomainSpec {
            members: routers.clone(),
            configs: vec![
                SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) };
                routers.len()
            ],
            extra_prefix_sids: vec![],
            php: false,
            install_node_ftn: true,
            node_sid_base: 101, // A=101 … H=108, echoing Fig. 3's numbering
        };
        Fixture::new(topo, routers, spec)
    }

    fn d_to_e_iface(topo: &Topology, d: RouterId, e: RouterId) -> IfaceId {
        topo.adjacencies(d)
            .find(|(_, _, _, remote, _)| *remote == e)
            .map(|(_, local_if, _, _, _)| local_if)
            .unwrap()
    }

    #[test]
    fn fig3_policy_compiles_to_three_label_stack() {
        let Fixture { topo, r, spec, spf } = fig3();
        let domain = compile(&topo, &spec, &spf);
        let (a, d, e, h) = (r[0], r[3], r[4], r[7]);
        let adj_iface = d_to_e_iface(&topo, d, e);
        let policy = SrPolicy::new(
            a,
            "203.0.113.0/24".parse().unwrap(),
            vec![
                Segment::Node(d),
                Segment::Adjacency { owner: d, out_iface: adj_iface },
                Segment::Node(h),
            ],
        );
        let push = policy.compile(&topo, &domain).unwrap();

        // Node SIDs: D = index 104 → 16,000+104; H = 108 → 16,108.
        // The adjacency SID is D's first SRLB label for that iface.
        let d_label = domain.node_label_at(r[1], d).unwrap();
        let adj = domain.adj_sid(d, adj_iface).unwrap();
        let h_label = domain.node_label_at(e, h).unwrap();
        assert_eq!(push.labels, vec![d_label, adj, h_label]);
        assert_eq!(d_label.value(), 16_104);
        assert_eq!(h_label.value(), 16_108);

        // The first hop from A must head toward D, i.e. via B.
        assert_eq!(push.next_router, r[1]);
    }

    #[test]
    fn leading_self_segment_is_skipped() {
        let Fixture { topo, r, spec, spf } = fig3();
        let domain = compile(&topo, &spec, &spf);
        let policy = SrPolicy::new(
            r[0],
            "198.51.100.0/24".parse().unwrap(),
            vec![Segment::Node(r[0]), Segment::Node(r[7])],
        );
        let push = policy.compile(&topo, &domain).unwrap();
        assert_eq!(push.labels.len(), 1, "only the H segment pushes a label");
    }

    #[test]
    fn headend_adjacency_first_segment_pushes_no_label() {
        let Fixture { topo, r, spec, spf } = fig3();
        let domain = compile(&topo, &spec, &spf);
        let (a, b) = (r[0], r[1]);
        let iface = d_to_e_iface(&topo, a, b);
        let policy = SrPolicy::new(
            a,
            "198.51.100.0/24".parse().unwrap(),
            vec![Segment::Adjacency { owner: a, out_iface: iface }, Segment::Node(r[7])],
        );
        let push = policy.compile(&topo, &domain).unwrap();
        assert_eq!(push.labels.len(), 1);
        assert_eq!(push.out_iface, iface);
        assert_eq!(push.next_router, b);
    }

    #[test]
    fn foreign_adjacency_requires_path_presence() {
        let Fixture { topo, r, spec, spf } = fig3();
        let domain = compile(&topo, &spec, &spf);
        let (a, d, e) = (r[0], r[3], r[4]);
        let iface = d_to_e_iface(&topo, d, e);
        // Asking for D's adjacency without first steering to D fails.
        let policy = SrPolicy::new(
            a,
            "198.51.100.0/24".parse().unwrap(),
            vec![Segment::Adjacency { owner: d, out_iface: iface }],
        );
        assert_eq!(
            policy.compile(&topo, &domain).unwrap_err(),
            PolicyError::AdjacencyNotOwned { owner: d, at: a }
        );
    }

    #[test]
    fn empty_policy_is_an_error() {
        let Fixture { topo, r, spec, spf } = fig3();
        let domain = compile(&topo, &spec, &spf);
        let policy = SrPolicy::new(r[0], "198.51.100.0/24".parse().unwrap(), vec![]);
        assert_eq!(policy.compile(&topo, &domain).unwrap_err(), PolicyError::Empty);
        let noop =
            SrPolicy::new(r[0], "198.51.100.0/24".parse().unwrap(), vec![Segment::Node(r[0])]);
        assert_eq!(noop.compile(&topo, &domain).unwrap_err(), PolicyError::Empty);
    }

    #[test]
    fn unknown_member_is_rejected() {
        let Fixture { topo, r, spec, spf } = fig3();
        let domain = compile(&topo, &spec, &spf);
        let policy = SrPolicy::new(
            r[0],
            "198.51.100.0/24".parse().unwrap(),
            vec![Segment::Node(RouterId(999))],
        );
        assert_eq!(
            policy.compile(&topo, &domain).unwrap_err(),
            PolicyError::NotMember(RouterId(999))
        );
    }

    #[test]
    fn service_sids_ride_the_stack_bottom() {
        let Fixture { topo, r, spec, spf } = fig3();
        let domain = compile(&topo, &spec, &spf);
        let service = Label::new(15_900).unwrap();
        let mut policy =
            SrPolicy::new(r[0], "198.51.100.0/24".parse().unwrap(), vec![Segment::Node(r[7])]);
        policy.service_sids.push(service);
        let push = policy.compile(&topo, &domain).unwrap();
        assert_eq!(push.labels.len(), 2);
        assert_eq!(*push.labels.last().unwrap(), service);
        assert_eq!(ServiceSid { at: r[7], label: service }.action(), LfibAction::PopLocal);
    }
}
