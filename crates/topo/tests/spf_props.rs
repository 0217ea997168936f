//! Property tests for the IGP oracle on seeded random topologies.
//!
//! Link costs are drawn from 1..=3, the generator's range, so
//! equal-cost ties (and therefore ECMP sets and the predecessor
//! tie-break) are common. Some links are downed and some routers are
//! left out of the domain, so both filters are exercised.

use arest_topo::graph::Topology;
use arest_topo::ids::{AsNumber, IfaceId, RouterId};
use arest_topo::spf::{DomainSpf, SpfTree, MAX_ECMP};
use arest_topo::vendor::Vendor;
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::net::Ipv4Addr;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random connected graph over `n` routers (a random spanning tree
/// plus up to `3n` extra links, parallel links allowed), a few links
/// downed afterwards, and a random ~80% domain subset.
fn random_domain(seed: u64, n: usize) -> (Topology, Vec<RouterId>) {
    let mut s = seed;
    let mut topo = Topology::new();
    let routers: Vec<RouterId> = (0..n)
        .map(|i| {
            topo.add_router(
                format!("r{i}"),
                AsNumber(65_000),
                Vendor::Cisco,
                Ipv4Addr::from(0x0aff_0000 + i as u32),
            )
        })
        .collect();
    let mut next_addr = 0x0a00_0000u32;
    let mut link = |topo: &mut Topology, a: usize, b: usize, cost: u32| {
        topo.add_link(
            routers[a],
            Ipv4Addr::from(next_addr),
            routers[b],
            Ipv4Addr::from(next_addr + 1),
            cost,
        );
        next_addr += 2;
    };
    for i in 1..n {
        let j = (splitmix(&mut s) % i as u64) as usize;
        link(&mut topo, i, j, 1 + (splitmix(&mut s) % 3) as u32);
    }
    for _ in 0..splitmix(&mut s) % (3 * n as u64 + 1) {
        let a = (splitmix(&mut s) % n as u64) as usize;
        let b = (splitmix(&mut s) % n as u64) as usize;
        if a != b {
            link(&mut topo, a, b, 1 + (splitmix(&mut s) % 3) as u32);
        }
    }
    let links: Vec<_> = topo.links().map(|l| l.id).collect();
    for id in links {
        if splitmix(&mut s).is_multiple_of(10) {
            topo.set_link_up(id, false);
        }
    }
    let members = routers.into_iter().filter(|_| !splitmix(&mut s).is_multiple_of(5)).collect();
    (topo, members)
}

/// Live in-domain adjacencies of `u` as `(local iface, neighbour, cost)`.
fn edges(topo: &Topology, set: &HashSet<RouterId>, u: RouterId) -> Vec<(IfaceId, RouterId, u32)> {
    topo.adjacencies(u)
        .filter(|(_, _, _, v, _)| set.contains(v))
        .map(|(_, iface, _, v, cost)| (iface, v, cost))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distances_satisfy_bellman_optimality(seed: u64, n in 2usize..24) {
        let (topo, members) = random_domain(seed, n);
        let set: HashSet<RouterId> = members.iter().copied().collect();
        let spf = DomainSpf::for_members(&topo, &members);
        for &s in &members {
            prop_assert_eq!(spf.distance(s, s), Some(0));
            for &t in &members {
                if t == s {
                    continue;
                }
                let mut best: Option<u32> = None;
                for &u in &members {
                    let Some(du) = spf.distance(s, u) else { continue };
                    for (_, v, cost) in edges(&topo, &set, u) {
                        if v == t {
                            best = Some(best.map_or(du + cost, |b| b.min(du + cost)));
                        }
                    }
                }
                // Reachable exactly when some in-neighbour is, at the
                // best in-neighbour's distance plus its link cost.
                prop_assert_eq!(spf.distance(s, t), best, "{} -> {}", s, t);
            }
        }
    }

    #[test]
    fn next_hops_are_capped_first_hops_of_shortest_paths(seed: u64, n in 2usize..24) {
        let (topo, members) = random_domain(seed, n);
        let set: HashSet<RouterId> = members.iter().copied().collect();
        let spf = DomainSpf::for_members(&topo, &members);
        for &s in &members {
            for &t in &members {
                let hops = spf.next_hops(s, t);
                prop_assert_eq!(spf.next_hop(s, t), hops.first().copied());
                let Some(dist) = spf.distance(s, t).filter(|_| t != s) else {
                    prop_assert!(hops.is_empty(), "{} -> {}: hops without a route", s, t);
                    continue;
                };
                // Every first hop that starts some shortest path.
                let shortest: BTreeSet<(IfaceId, RouterId)> = edges(&topo, &set, s)
                    .into_iter()
                    .filter(|&(_, v, cost)| spf.distance(v, t).is_some_and(|d| cost + d == dist))
                    .map(|(iface, v, _)| (iface, v))
                    .collect();
                let got: BTreeSet<(IfaceId, RouterId)> = hops.iter().copied().collect();
                prop_assert_eq!(got.len(), hops.len(), "{} -> {}: duplicate hops", s, t);
                prop_assert!(got.is_subset(&shortest), "{} -> {}: {:?}", s, t, got);
                prop_assert_eq!(hops.len(), shortest.len().min(MAX_ECMP), "{} -> {}", s, t);
            }
        }
    }

    #[test]
    fn path_cost_equals_distance(seed: u64, n in 2usize..24) {
        let (topo, members) = random_domain(seed, n);
        let set: HashSet<RouterId> = members.iter().copied().collect();
        let spf = DomainSpf::for_members(&topo, &members);
        for &s in &members {
            for &t in &members {
                let path = spf.path(s, t);
                prop_assert_eq!(path.is_some(), spf.distance(s, t).is_some());
                let Some(path) = path else { continue };
                prop_assert_eq!(path.first(), Some(&s));
                prop_assert_eq!(path.last(), Some(&t));
                let mut cost = 0;
                for pair in path.windows(2) {
                    let link = edges(&topo, &set, pair[0])
                        .into_iter()
                        .filter(|e| e.1 == pair[1])
                        .map(|e| e.2)
                        .min();
                    prop_assert!(link.is_some(), "{} -> {}: no live link on the path", s, t);
                    cost += link.unwrap_or_default();
                }
                prop_assert_eq!(Some(cost), spf.distance(s, t), "{} -> {}", s, t);
            }
        }
    }

    #[test]
    fn domain_spf_matches_restricted_single_source_trees(seed: u64, n in 2usize..24) {
        let (topo, members) = random_domain(seed, n);
        let set: HashSet<RouterId> = members.iter().copied().collect();
        let spf = DomainSpf::for_members(&topo, &members);
        for &s in &members {
            let tree = SpfTree::compute(&topo, s, |r| set.contains(&r));
            for t in topo.routers().map(|r| r.id) {
                prop_assert_eq!(spf.distance(s, t), tree.distance(t), "{} -> {}", s, t);
                prop_assert_eq!(spf.next_hops(s, t), tree.next_hops(t), "{} -> {}", s, t);
                prop_assert_eq!(spf.path(s, t), tree.path(t), "{} -> {}", s, t);
            }
        }
    }
}

/// Five equal-cost branches from one source: the ECMP set keeps the
/// first four in relaxation order.
#[test]
fn ecmp_fan_is_capped() {
    let mut topo = Topology::new();
    let r: Vec<RouterId> = (0..7)
        .map(|i| {
            topo.add_router(format!("f{i}"), AsNumber(1), Vendor::Cisco, Ipv4Addr::new(10, 9, 9, i))
        })
        .collect();
    for k in 1..=5u8 {
        topo.add_link(
            r[0],
            Ipv4Addr::new(10, 8, k, 1),
            r[usize::from(k)],
            Ipv4Addr::new(10, 8, k, 2),
            1,
        );
        topo.add_link(
            r[usize::from(k)],
            Ipv4Addr::new(10, 7, k, 1),
            r[6],
            Ipv4Addr::new(10, 7, k, 2),
            1,
        );
    }
    let spf = DomainSpf::for_members(&topo, &r);
    let via: Vec<RouterId> = spf.next_hops(r[0], r[6]).iter().map(|&(_, v)| v).collect();
    assert_eq!(via, r[1..=MAX_ECMP].to_vec());
    assert_eq!(spf.path(r[0], r[6]), Some(vec![r[0], r[1], r[6]]));
}
