//! The paper's core soundness claim (§4.1), checked end to end: a
//! classic LDP-only AS — no Segment Routing anywhere — must not
//! trigger the detector's vendor-range or sequence flags, because
//! per-router dynamic allocation makes repeated labels a ~10⁻⁶
//! coincidence and keeps every label outside the reserved SRGB.
//!
//! The audit gate ties in: the property only means something on
//! control planes `arest-audit` certifies as error-free, so each
//! generated network is audited before it is traced.

use arest_suite::audit::audit_network;
use arest_suite::core::detect::{detect_segments, DetectorConfig};
use arest_suite::core::flags::Flag;
use arest_suite::core::model::{AugmentedHop, AugmentedTrace};
use arest_suite::fingerprint::combined::VendorEvidence;
use arest_suite::mpls::ldp::{LdpDomain, LdpFec};
use arest_suite::mpls::pool::DynamicLabelPool;
use arest_suite::simnet::Network;
use arest_suite::tnt::tracer::{trace_route, TraceConfig};
use arest_suite::topo::graph::Topology;
use arest_suite::topo::ids::{AsNumber, RouterId};
use arest_suite::topo::prefix::Prefix;
use arest_suite::topo::spf::DomainSpf;
use arest_suite::topo::vendor::Vendor;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Builds a chain of `n` routers (plus the chords) with an LDP
/// domain spanning everything behind the first router, which plays
/// the vantage point's plain-IP gateway.
///
/// Each router draws from a *disjoint* 1,000-label slice of the
/// dynamic range, so equal labels on distinct routers — the detector's
/// exact-match coincidence — cannot occur by construction. Labels that
/// share a decimal suffix across slices still can, which is exactly
/// the suffix-matching ambiguity the property tolerates.
fn build(n: usize, chords: &[(usize, usize)], php: bool) -> (Network, Vec<RouterId>, Ipv4Addr) {
    let mut topo = Topology::new();
    let asn = AsNumber(64_901);
    let routers: Vec<RouterId> = (0..n)
        .map(|i| {
            topo.add_router(
                format!("ldp{i}"),
                asn,
                Vendor::Cisco,
                Ipv4Addr::new(10, 210, 255, (i + 1) as u8),
            )
        })
        .collect();
    for i in 0..n - 1 {
        topo.add_link(
            routers[i],
            Ipv4Addr::new(10, 210, i as u8, 1),
            routers[i + 1],
            Ipv4Addr::new(10, 210, i as u8, 2),
            1,
        );
    }
    let mut seen = Vec::new();
    for &(a, b) in chords {
        let (a, b) = (a.min(b), a.max(b));
        if b >= n || b - a < 2 || seen.contains(&(a, b)) {
            continue;
        }
        seen.push((a, b));
        let k = seen.len() as u8;
        topo.add_link(
            routers[a],
            Ipv4Addr::new(10, 211, k, 1),
            routers[b],
            Ipv4Addr::new(10, 211, k, 2),
            1,
        );
    }

    let customer: Prefix = "100.210.0.0/24".parse().expect("prefix literal");
    let egress = *routers.last().expect("n >= 2");
    let members: Vec<RouterId> = routers[1..].to_vec();
    let spf = DomainSpf::for_members(&topo, &members);
    let mut pools: Vec<DynamicLabelPool> = routers
        .iter()
        .enumerate()
        .filter(|(_, r)| members.contains(r))
        .map(|(i, &r)| {
            let floor = 24_000 + 1_000 * i as u32;
            DynamicLabelPool::new(floor, floor + 999, u64::from(r.0) * 17 + 5)
        })
        .collect();
    let domain = LdpDomain::build(&spf, &[LdpFec { prefix: customer, egress }], &mut pools, php);

    let mut net = Network::new(topo);
    net.register_igp(asn, DomainSpf::for_as(net.topo(), asn));
    net.anchor_prefix(customer, egress);
    domain.install(&mut net.domain_planes_mut(spf.members()).1, |_| &[]);
    for &r in &routers {
        net.plane_mut(r).ttl_propagate = true;
        net.plane_mut(r).rfc4950 = true;
    }
    (net, routers, Ipv4Addr::new(100, 210, 0, 7))
}

/// Augments a trace the way the pipeline would after *perfect*
/// fingerprinting: every responding hop is known-Cisco. Honest
/// evidence is the adversarial case here — it arms the vendor-range
/// flags, which must still find nothing to bite on.
fn augment_all_cisco(trace: &arest_suite::tnt::trace::Trace) -> AugmentedTrace {
    let hops = trace
        .hops
        .iter()
        .map(|h| AugmentedHop {
            addr: h.addr,
            stack: h.stack.clone(),
            evidence: h.addr.map(|_| VendorEvidence::Exact(Vendor::Cisco)),
            revealed: h.revealed,
            quoted_ip_ttl: h.quoted_ip_ttl,
            is_destination: h.is_destination,
        })
        .collect();
    AugmentedTrace::new(trace.vp.clone(), trace.dst, hops)
}

/// Expands a random seed into up to three chord endpoint pairs
/// (`build` drops the out-of-range and duplicate ones).
fn chords_from(seed: u64, n: usize) -> Vec<(usize, usize)> {
    (0..seed % 4)
        .map(|k| {
            let bits = seed >> (16 * k + 2);
            (bits as usize % n, (bits >> 8) as usize % n)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Audit-clean LDP-only control planes never yield an SR
    /// detection: no vendor-range flag at any strength, no exact-match
    /// label sequence, no deep stacks.
    #[test]
    fn ldp_only_as_raises_no_sr_flags(
        n in 4usize..9,
        chord_seed: u64,
        php: bool,
        sport in 1024u16..60_000,
    ) {
        let (net, routers, dst) = build(n, &chords_from(chord_seed, n), php);

        let report = audit_network(&net);
        prop_assert!(report.is_clean(), "LDP tables must audit clean:\n{}", report.to_text());

        let config = TraceConfig { flow: (sport, 33_434), ..TraceConfig::default() };
        let vp = "vp".into();
        let trace = trace_route(&net, &vp, routers[0], Ipv4Addr::new(192, 0, 2, 9), dst, &config);
        prop_assert!(trace.reached, "generous defaults must reach the anchor");

        let augmented = augment_all_cisco(&trace);
        let segments = detect_segments(&augmented, &DetectorConfig::default());
        for segment in &segments {
            prop_assert!(
                !matches!(segment.flag, Flag::Cvr | Flag::Lvr | Flag::Lsvr),
                "vendor-range flag {:?} on an LDP-only AS (label {})",
                segment.flag,
                segment.label,
            );
            prop_assert!(segment.flag != Flag::Lso, "LDP pushes single labels, never stacks");
            if segment.flag == Flag::Co {
                prop_assert!(
                    segment.suffix_based,
                    "exact-label sequence across disjoint pools is impossible: {segment:?}",
                );
            }
        }
    }
}
