//! Builds one AS: topology, control planes, and configuration.
//!
//! Generation runs plan → compute → install, because all ASes share
//! one [`Topology`] (the Internet is a single graph):
//!
//! 1. **plan** — [`plan_as`] adds the AS's routers and links to the
//!    topology and records the plan: BFS order, borders, SR/LDP
//!    membership, the SR/LDP junction, customer prefixes. Serial, in
//!    catalog order, since every AS appends to the one graph.
//! 2. **compute** — [`compute_as`] (once the whole graph exists)
//!    compiles the control planes into a per-AS [`DeployOutput`]: the
//!    IGP oracle, LDP with optional VPN-style stacked FECs, the SR
//!    domain with mapping-server SIDs and LDP mirroring for
//!    interworking, TE and service-SID policies, visibility and
//!    management-plane knobs. It only reads the topology and seeds
//!    its RNGs from the ASN and router ids, so ASes compute
//!    concurrently on the shared worker pool.
//! 3. **install** — [`install_as`] moves each output into the
//!    [`Network`], serially and in catalog order. An AS only ever
//!    writes the planes of its own routers.

use crate::catalog::AsProfile;
use crate::profile::DeploymentProfile;
use arest_mpls::ldp::{LdpDomain, LdpFec};
use arest_mpls::pool::DynamicLabelPool;
use arest_mpls::tables::LfibAction;
use arest_simnet::plane::RouterPlane;
use arest_simnet::Network;
use arest_sr::block::LabelBlock;
use arest_sr::domain::{SrDomain, SrDomainSpec, SrNodeConfig};
use arest_sr::interworking::{mapping_server_sids, mirrored_ldp_fecs};
use arest_sr::policy::SrPolicy;
use arest_sr::sid::{PrefixSidSpec, Segment, SidIndex};
use arest_topo::graph::Topology;
use arest_topo::ids::{AsNumber, RouterId};
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use arest_topo::vendor::Vendor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;

/// The SPFs computed for one AS, one per distinct member set: the
/// AS-wide IGP first, then any LDP or SR subset. LDP, its SR mirror,
/// RSVP-TE path selection and the SR domain all follow the same IGP
/// shortest paths, so a member set is never computed twice.
struct SpfCache(Vec<DomainSpf>);

impl SpfCache {
    /// The SPF over exactly `members`, computed on first request. A
    /// computation is timed as `netgen.deploy.spf.us`, so the protocol
    /// timers measure compilation alone.
    fn over(&mut self, topo: &Topology, members: &[RouterId]) -> DomainSpf {
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(spf) = self.0.iter().find(|spf| spf.members() == sorted) {
            return spf.clone();
        }
        let _timer = arest_obs::global().timer("netgen.deploy.spf.us");
        let spf = DomainSpf::for_members(topo, &sorted);
        self.0.push(spf.clone());
        spf
    }
}

/// The per-AS plan produced by phase 1.
#[derive(Debug, Clone)]
pub struct AsPlan {
    /// The catalog row this AS instantiates.
    pub entry: AsProfile,
    /// Its deployment profile.
    pub profile: DeploymentProfile,
    /// The ASN as a typed id.
    pub asn: AsNumber,
    /// Routers in creation order.
    pub routers: Vec<RouterId>,
    /// Routers in BFS order from the first border.
    pub bfs: Vec<RouterId>,
    /// Border routers facing the rest of the Internet.
    pub borders: Vec<RouterId>,
    /// SR domain members (BFS prefix).
    pub sr_members: Vec<RouterId>,
    /// Classic LDP domain members.
    pub ldp_members: Vec<RouterId>,
    /// The SR/LDP junction router, when both domains exist.
    pub junction: Option<RouterId>,
    /// Customer /24 prefixes and their anchor (edge) routers.
    pub customers: Vec<(Prefix, RouterId)>,
    /// The AS's infrastructure block (links + loopbacks).
    pub infra_block: Prefix,
    /// The aggregate covering all customer prefixes.
    pub customer_block: Prefix,
}

/// Phase 1: generate the AS topology into `topo`.
pub fn plan_as(
    topo: &mut Topology,
    entry: &AsProfile,
    profile: DeploymentProfile,
    seed: u64,
) -> AsPlan {
    plan_as_replica(topo, entry, profile, seed, 0)
}

/// [`plan_as`] for catalog replica `replica` (the
/// `GenConfig::catalog_scale` axis). Replica 0 is byte-identical to
/// [`plan_as`]; replica `r` shifts the AS's address plan into disjoint
/// space — infrastructure under `10+r.<id>/16`, customers under
/// `100+r.<64+id>/16` — so replicas never collide with each other, the
/// VP fabric (172.20/14), the transit links (192.168/16), or the VP
/// sources (198.18/15). The caller supplies a replica-unique
/// `entry.asn`; the per-AS RNG streams key off it, so each replica
/// grows its own topology rather than a copy.
pub fn plan_as_replica(
    topo: &mut Topology,
    entry: &AsProfile,
    profile: DeploymentProfile,
    seed: u64,
    replica: u8,
) -> AsPlan {
    assert!(replica < 64, "catalog replica {replica} out of the address plan's range");
    let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(entry.asn) << 8));
    let asn = AsNumber(entry.asn);
    let id = entry.id;
    let n = profile.routers;
    let infra_octet = 10 + replica;
    let customer_octet = 100 + replica;

    // Routers with vendors drawn from the mix; loopbacks in
    // 10+r.<id>.255.0/24.
    let routers: Vec<RouterId> = (0..n)
        .map(|i| {
            let vendor = draw_vendor(&profile.vendor_mix, &mut rng);
            topo.add_router(
                format!("{}-r{i}", entry.name.to_lowercase().replace(' ', "-")),
                asn,
                vendor,
                Ipv4Addr::new(infra_octet, id, 255, (i + 1) as u8),
            )
        })
        .collect();

    // Link fabric: a random tree plus chords; addresses allocated
    // pairwise from 10+r.<id>.0.0/16 (byte 255 reserved for loopbacks).
    let mut link_counter: u32 = 0;
    let alloc_pair = |counter: &mut u32| {
        let c = *counter;
        *counter += 1;
        let third = (c / 127) as u8;
        assert!(third < 255, "link address space exhausted in AS#{id}");
        let fourth = ((c % 127) * 2) as u8;
        (
            Ipv4Addr::new(infra_octet, id, third, fourth),
            Ipv4Addr::new(infra_octet, id, third, fourth + 1),
        )
    };
    let mut linked: HashSet<(RouterId, RouterId)> = HashSet::new();
    let add_link = |topo: &mut Topology,
                    a: RouterId,
                    b: RouterId,
                    rng: &mut StdRng,
                    counter: &mut u32,
                    linked: &mut HashSet<(RouterId, RouterId)>| {
        let key = (a.min(b), a.max(b));
        if a == b || !linked.insert(key) {
            return;
        }
        let (addr_a, addr_b) = alloc_pair(counter);
        let cost = rng.random_range(1..=3);
        topo.add_link(a, addr_a, b, addr_b, cost);
    };
    // Chain-biased tree: real ISP backbones have multi-hop depth, and
    // AReST's sequence flags need SR paths several labelled hops long.
    for i in 1..n {
        let parent = if rng.random_bool(0.65) { i - 1 } else { rng.random_range(0..i) };
        add_link(topo, routers[parent], routers[i], &mut rng, &mut link_counter, &mut linked);
    }
    for _ in 0..n / 6 {
        let a = rng.random_range(0..n);
        let b = rng.random_range(0..n);
        add_link(topo, routers[a], routers[b], &mut rng, &mut link_counter, &mut linked);
    }

    // BFS order from router 0; the prefix is connected by construction.
    let bfs = bfs_order(topo, routers[0], asn);

    // SR members: the BFS prefix. LDP: grown from the junction across
    // the non-SR remainder (connected by construction of the BFS).
    let sr_count = (n as f64 * profile.sr_share).round() as usize;
    let sr_members: Vec<RouterId> = bfs.iter().copied().take(sr_count).collect();
    let sr_set: HashSet<RouterId> = sr_members.iter().copied().collect();
    let ldp_count = (n as f64 * profile.ldp_share).round() as usize;
    let (ldp_members, junction) = if ldp_count >= 2 && sr_count > 0 && sr_count < n {
        // Junction: the last SR member with a non-SR neighbour.
        let junction = sr_members
            .iter()
            .rev()
            .find(|&&r| topo.adjacencies(r).any(|(_, _, _, rem, _)| !sr_set.contains(&rem)))
            .copied();
        match junction {
            Some(j) => {
                let mut members = grow_from(topo, j, asn, &sr_set, ldp_count + 1);
                if members.len() < 2 {
                    members.clear();
                }
                (members, Some(j))
            }
            None => (Vec::new(), None),
        }
    } else if sr_count == 0 && ldp_count >= 2 {
        (bfs.iter().copied().take(ldp_count).collect(), None)
    } else {
        (Vec::new(), None)
    };

    // Borders: BFS-first routers; with interworking, the junction-side
    // of the network gets its own entry point so LDP→SR chains are
    // observable.
    let mut borders: Vec<RouterId> = bfs.iter().copied().take(profile.borders).collect();
    if let Some(j) = junction {
        if let Some(ldp_edge) = ldp_members.iter().rev().find(|&&r| r != j) {
            if !borders.contains(ldp_edge) {
                borders.push(*ldp_edge);
            }
        }
    }

    // Customer prefixes: anchored mostly deep inside the SR domain
    // (full-SR tunnels dominate, §7.2), some on LDP routers
    // (interworking), and the rest on plain edge routers. Picking from
    // the *tail* of each domain keeps tunnels several hops long.
    let pick_tail = |members: &[RouterId], k: usize| -> Option<RouterId> {
        if members.is_empty() {
            return None;
        }
        let window = members.len().div_ceil(2);
        Some(members[members.len() - 1 - (k % window)])
    };
    let customers: Vec<(Prefix, RouterId)> = (0..profile.customer_prefixes)
        .map(|k| {
            let draw: f64 = rng.random_range(0.0..1.0);
            let anchor = if draw < 0.88 {
                pick_tail(&sr_members, k).or_else(|| pick_tail(&ldp_members, k))
            } else if draw < 0.94 {
                pick_tail(&ldp_members, k).or_else(|| pick_tail(&sr_members, k))
            } else {
                None
            }
            .unwrap_or_else(|| bfs[bfs.len() - 1 - (k % bfs.len().div_ceil(3))]);
            let prefix = Prefix::new(Ipv4Addr::new(customer_octet, 64 + id, k as u8, 0), 24)
                .expect("/24 under 100.64/10");
            (prefix, anchor)
        })
        .collect();

    AsPlan {
        entry: *entry,
        profile,
        asn,
        routers,
        bfs,
        borders,
        sr_members,
        ldp_members,
        junction,
        customers,
        infra_block: Prefix::new(Ipv4Addr::new(infra_octet, id, 0, 0), 16).expect("/16"),
        customer_block: Prefix::new(Ipv4Addr::new(customer_octet, 64 + id, 0, 0), 16).expect("/16"),
    }
}

fn draw_vendor(mix: &[(Vendor, f64)], rng: &mut StdRng) -> Vendor {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let mut draw = rng.random_range(0.0..total);
    for (vendor, weight) in mix {
        if draw < *weight {
            return *vendor;
        }
        draw -= weight;
    }
    mix.last().map_or(Vendor::Cisco, |(v, _)| *v)
}

fn bfs_order(topo: &Topology, start: RouterId, asn: AsNumber) -> Vec<RouterId> {
    let mut order = vec![start];
    let mut seen: HashSet<RouterId> = [start].into();
    let mut queue: VecDeque<RouterId> = [start].into();
    while let Some(r) = queue.pop_front() {
        for (_, _, _, remote, _) in topo.adjacencies(r) {
            if topo.router(remote).asn == asn && seen.insert(remote) {
                order.push(remote);
                queue.push_back(remote);
            }
        }
    }
    order
}

/// BFS from `start` over routers of `asn` that are not in `excluded`
/// (except `start` itself), up to `limit` members.
fn grow_from(
    topo: &Topology,
    start: RouterId,
    asn: AsNumber,
    excluded: &HashSet<RouterId>,
    limit: usize,
) -> Vec<RouterId> {
    let mut order = vec![start];
    let mut seen: HashSet<RouterId> = [start].into();
    let mut queue: VecDeque<RouterId> = [start].into();
    while let Some(r) = queue.pop_front() {
        if order.len() >= limit {
            break;
        }
        for (_, _, _, remote, _) in topo.adjacencies(r) {
            if order.len() >= limit {
                break;
            }
            if topo.router(remote).asn == asn && !excluded.contains(&remote) && seen.insert(remote)
            {
                order.push(remote);
                queue.push_back(remote);
            }
        }
    }
    order
}

/// Label-allocation facts recorded at deploy time for `arest-audit`.
///
/// The assembled [`arest_simnet::Network`] keeps only compiled
/// LFIB/FTN tables; the SRGB/SRLB configuration and the dynamic-pool
/// state that produced them are gone by the time an auditor looks.
/// This record preserves exactly what the label-space checks need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AsLabelRecord {
    /// Per SR member, its configured SRGB.
    pub srgbs: HashMap<RouterId, LabelBlock>,
    /// Per SR member with a separate local block, its SRLB.
    pub srlbs: HashMap<RouterId, LabelBlock>,
    /// Per router, the floor of its dynamic label pool.
    pub pool_floors: HashMap<RouterId, u32>,
    /// Per router, the pool watermark after deployment — the lowest
    /// label a future dynamic allocation could return, so
    /// `[floor, watermark)` bounds every label actually handed out.
    pub pool_watermarks: HashMap<RouterId, u32>,
    /// Highest SID index advertised in the SR domain, when one exists.
    pub max_sid_index: Option<u32>,
}

/// What phase 2 reports back for ground truth and bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct DeployedAs {
    /// Every address (interface or loopback) on an SR-capable router.
    pub sr_addresses: HashSet<Ipv4Addr>,
    /// Every address on a classic-MPLS (LDP-only) router.
    pub ldp_addresses: HashSet<Ipv4Addr>,
    /// Customer prefixes anchored at SR routers — their addresses are
    /// answered by the SR anchor, so probes "to" them observe SR.
    pub sr_prefixes: Vec<Prefix>,
    /// Customer prefixes anchored at LDP-only routers.
    pub ldp_prefixes: Vec<Prefix>,
    /// Label-allocation facts for the static audit.
    pub label_audit: AsLabelRecord,
}

/// Everything phase 2 computes for one AS, held until the serial
/// install moves it into the [`Network`].
#[derive(Debug)]
pub struct DeployOutput {
    /// The AS-wide IGP oracle.
    pub igp: DomainSpf,
    /// Customer prefixes and the edge routers that terminate them.
    pub anchors: Vec<(Prefix, RouterId)>,
    /// The compiled plane of each of the AS's routers, in `RouterId`
    /// order.
    pub planes: Vec<(RouterId, RouterPlane)>,
    /// Ground truth and label-allocation facts.
    pub deployed: DeployedAs,
}

/// The entries of `all` — one per router of the AS, in slot order of
/// its IGP `igp` — that belong to the sorted `members` of a subset
/// domain, in that domain's slot order.
fn domain_slice<'a, T>(igp: &DomainSpf, all: &'a mut [T], members: &[RouterId]) -> Vec<&'a mut T> {
    let mut wanted = members.iter().peekable();
    let picked: Vec<&mut T> = igp
        .members()
        .iter()
        .zip(all)
        .filter(|(r, _)| wanted.next_if_eq(r).is_some())
        .map(|(_, entry)| entry)
        .collect();
    assert!(wanted.next().is_none(), "a domain's members are routers of its AS");
    picked
}

/// Phase 2, compute step: compile this AS's control planes.
///
/// Pure: it reads only the finished topology and the plan, and seeds
/// every RNG from the seed, the ASN and router ids, so ASes can be
/// computed in any order or concurrently with the same result.
/// `transit_fecs` are external prefixes this AS carries for
/// neighbours, each with the border router where they exit.
///
/// The planes and label pools live in slot order of the AS-wide IGP,
/// which starts each plane from the default the network holds for an
/// undeployed router. Every control plane compiles straight into the
/// planes of its members, and each entry is installed once: LDP, its
/// VPN/entropy inner labels and mirror, RSVP-TE, then SR with its
/// service SIDs and policies — later installs win.
pub fn compute_as(
    topo: &Topology,
    plan: &AsPlan,
    transit_fecs: &[(Prefix, RouterId)],
    seed: u64,
) -> DeployOutput {
    let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(plan.entry.asn) << 16) ^ 0x5eed);
    let profile = &plan.profile;

    // IGP oracle. The plan's routers are exactly the AS's, so no scan
    // of the whole topology is needed.
    let registry = arest_obs::global();
    let igp = {
        let _timer = registry.timer("netgen.deploy.igp.us");
        DomainSpf::for_members(topo, &plan.routers)
    };
    debug_assert!(
        {
            let mut in_as: Vec<RouterId> = topo.routers_in_as(plan.asn).map(|r| r.id).collect();
            in_as.sort_unstable();
            in_as == igp.members()
        },
        "the plan's routers are not exactly the routers of {}",
        plan.asn
    );
    let slot =
        |r: RouterId| igp.slot(r).unwrap_or_else(|| panic!("{r} is not a router of this AS"));
    let mut planes: Vec<RouterPlane> =
        igp.members().iter().map(|_| RouterPlane::default()).collect();

    // Behaviour knobs. RFC 4950 support follows the AS-wide config
    // template (one OS image fleet-wide — per-router draws would
    // punch unlabelled holes into label sequences that no real
    // deployment exhibits); ttl-propagate is an ingress-side choice
    // and varies per router, which is what mixes tunnel types within
    // one AS (Appendix C).
    let rfc4950_template = rng.random_bool(profile.p_rfc4950);
    for &r in &plan.routers {
        let plane = &mut planes[slot(r)];
        plane.ttl_propagate = rng.random_bool(profile.p_propagate);
        plane.rfc4950 = rfc4950_template;
        plane.answers_echo = rng.random_bool(profile.echo_rate);
        plane.snmp_responsive = rng.random_bool(profile.snmp_rate);
    }
    let mut spfs = SpfCache(vec![igp.clone()]);

    // Label pools.
    let sr_exists = plan.sr_members.len() >= 2;
    let mut label_record = AsLabelRecord::default();
    let mut pools: Vec<DynamicLabelPool> = igp
        .members()
        .iter()
        .map(|&r| {
            let pool_seed = seed ^ u64::from(r.0).wrapping_mul(0x9e37_79b9);
            // Dynamic label regions are vendor-specific: Juniper
            // allocates from ~300k, Nokia SR OS from ~524k — the
            // source of the sparse high-label tail in Fig. 16.
            let floor = match topo.router(r).vendor {
                Vendor::Juniper => 299_776,
                Vendor::Nokia => 524_288,
                _ if sr_exists => arest_mpls::pool::SR_AWARE_POOL_START,
                _ => arest_mpls::pool::DEFAULT_POOL_START,
            };
            label_record.pool_floors.insert(r, floor);
            DynamicLabelPool::new(floor, arest_mpls::pool::POOL_END, pool_seed)
        })
        .collect();

    let sr_set: HashSet<RouterId> = plan.sr_members.iter().copied().collect();
    let ldp_set: HashSet<RouterId> = plan.ldp_members.iter().copied().collect();

    // ---- Classic LDP domain ----
    let mut vpn_fecs: Vec<(Prefix, RouterId)> = Vec::new();
    if plan.ldp_members.len() >= 2 {
        let ldp_spf = spfs.over(topo, &plan.ldp_members);
        let _timer = registry.timer("netgen.deploy.ldp.us");
        let mut fecs: Vec<LdpFec> = Vec::new();
        for &(prefix, anchor) in &plan.customers {
            if ldp_set.contains(&anchor) {
                fecs.push(LdpFec { prefix, egress: anchor });
                if rng.random_bool(profile.vpn_stack_share) {
                    vpn_fecs.push((prefix, anchor));
                }
            }
        }
        // Transit FECs exiting via an LDP border.
        for &(prefix, egress) in transit_fecs {
            if ldp_set.contains(&egress) {
                fecs.push(LdpFec { prefix, egress });
            }
        }
        let (domain, mirror_domain) = {
            let mut ldp_pools = domain_slice(&igp, &mut pools, ldp_spf.members());
            let domain = LdpDomain::build(&ldp_spf, &fecs, &mut ldp_pools, true);

            // LDP→SR mirroring: LDP routers tunnel toward SR-side
            // customer prefixes, terminating at the junction (RFC
            // 8661). Built without PHP so the junction receives the
            // label and stitches straight into the SR FTN — no
            // unlabelled gap mid-tunnel.
            let mirror_domain = plan.junction.map(|j| {
                let sr_side: Vec<Prefix> = plan
                    .customers
                    .iter()
                    .filter(|(_, anchor)| sr_set.contains(anchor))
                    .map(|(p, _)| *p)
                    .collect();
                let mirror_fecs = mirrored_ldp_fecs(&sr_side, j);
                LdpDomain::build(&ldp_spf, &mirror_fecs, &mut ldp_pools, false)
            });
            (domain, mirror_domain)
        };

        // VPN-style inner labels: deep classic stacks (the LSO noise
        // floor of §6.2). Drawn after both domains' labels, and their
        // egress entries land ahead of the domains'.
        let mut inner_labels: HashMap<Prefix, Vec<arest_wire::mpls::Label>> = HashMap::new();
        for &(prefix, egress) in &vpn_fecs {
            let s = slot(egress);
            let inner = pools[s].allocate().expect("pool not exhausted");
            inner_labels.insert(prefix, vec![inner]);
            planes[s].lfib.install(inner, LfibAction::PopLocal);
        }
        // RFC 6790 entropy pairs on a small share of the remaining
        // FECs: [ELI, EL] below the transport label. Pure
        // load-balancing state — AReST's detector must not read these
        // as steering stacks.
        for &LdpFec { prefix, egress } in &fecs {
            if inner_labels.contains_key(&prefix) || !rng.random_bool(0.08) {
                continue;
            }
            let eli = arest_wire::mpls::Label::ENTROPY_INDICATOR;
            let el = arest_wire::mpls::Label::new(rng.random_range(100_000..1_000_000))
                .expect("within label space");
            inner_labels.insert(prefix, vec![eli, el]);
            let plane = &mut planes[slot(egress)];
            plane.lfib.install(eli, LfibAction::PopLocal);
            plane.lfib.install(el, LfibAction::PopLocal);
        }

        // The transport entries, with each FEC's inner labels stacked
        // below its push; then the mirror's.
        let mut ldp_planes = domain_slice(&igp, &mut planes, ldp_spf.members());
        domain.install(&mut ldp_planes, |prefix| {
            inner_labels.get(&prefix).map_or(&[][..], Vec::as_slice)
        });
        if let Some(mirror) = mirror_domain {
            mirror.install(&mut ldp_planes, |_| &[]);
        }
    }

    // ---- RSVP-TE tunnels (classic traffic engineering) ----
    // In ASes running classic MPLS without SR, a couple of FECs ride
    // explicitly signalled RSVP-TE tunnels instead of LDP (the paper's
    // footnote 2). Their traces are indistinguishable from LDP —
    // hop-varying dynamic labels — which is the point.
    if !sr_exists && plan.ldp_members.len() >= 3 {
        let ldp_spf = spfs.over(topo, &plan.ldp_members);
        let _timer = registry.timer("netgen.deploy.rsvp_te.us");
        let head = *plan.ldp_members.first().expect("non-empty");
        let te_fecs: Vec<(Prefix, RouterId)> = plan
            .customers
            .iter()
            .filter(|(_, a)| ldp_set.contains(a) && *a != head)
            .take(2)
            .copied()
            .collect();
        for (prefix, anchor) in te_fecs {
            let Some(path) = ldp_spf.path(head, anchor) else {
                continue;
            };
            if path.len() < 2 {
                continue;
            }
            let tunnel = arest_mpls::rsvp::RsvpTunnel {
                name: format!("{}-te-{prefix}", plan.entry.name),
                path,
                fec: prefix,
            };
            let lsp = arest_mpls::rsvp::signal_tunnel(topo, &tunnel, |hop| {
                pools[igp.slot(hop)?].allocate()
            });
            if let Ok(lsp) = lsp {
                for (r, label, action) in lsp.lfib {
                    planes[slot(r)].lfib.install(label, action);
                }
                planes[slot(lsp.head)].ftn.install(lsp.fec, lsp.push);
            }
        }
    }

    // ---- SR-MPLS domain ----
    if sr_exists {
        let sr_spf = spfs.over(topo, &plan.sr_members);
        let _timer = registry.timer("netgen.deploy.sr.us");
        let srgb = LabelBlock::new(profile.srgb_base, 8_000);
        let srlb = LabelBlock::from_range(15_000, 15_999);
        let mut configs: Vec<SrNodeConfig> = plan
            .sr_members
            .iter()
            .map(|&r| {
                // Juniper-style members take adjacency SIDs from the
                // dynamic pool.
                let has_srlb = topo.router(r).vendor != Vendor::Juniper;
                SrNodeConfig { srgb, srlb: has_srlb.then_some(srlb) }
            })
            .collect();
        // Roughly one SR AS in eight runs a multi-vendor core where a
        // single router keeps a different SRGB base — the RFC 8402
        // deviation behind the paper's rare (~0.01 %) suffix-based
        // sequence matches (§6.2). Bases stay multiples of 1,000 so
        // the SID index survives as the decimal suffix.
        if plan.sr_members.len() >= 5 && profile.srgb_base == 16_000 && plan.entry.id == 29
        // China Telecom models the multi-vendor case
        {
            let victim = plan.sr_members.len() / 2;
            let has_srlb = topo.router(plan.sr_members[victim]).vendor != Vendor::Juniper;
            configs[victim] = SrNodeConfig {
                srgb: LabelBlock::new(30_000, 8_000),
                srlb: has_srlb.then_some(srlb),
            };
        }

        let mut extra: Vec<PrefixSidSpec> = Vec::new();
        let mut next_index: u32 = 2_000;
        let mut sr_customer_fecs: Vec<(Prefix, RouterId)> = Vec::new();
        for &(prefix, anchor) in &plan.customers {
            if sr_set.contains(&anchor) {
                extra.push(PrefixSidSpec { prefix, egress: anchor, index: SidIndex(next_index) });
                next_index += 1;
                sr_customer_fecs.push((prefix, anchor));
            }
        }
        // Mapping server: prefix SIDs on behalf of LDP-side customers,
        // anchored at the junction (SR→LDP interworking).
        if let Some(j) = plan.junction {
            let ldp_side: Vec<Prefix> = plan
                .customers
                .iter()
                .filter(|(_, anchor)| ldp_set.contains(anchor) && !sr_set.contains(anchor))
                .map(|(p, _)| *p)
                .collect();
            let sids = mapping_server_sids(&ldp_side, j, next_index);
            next_index += sids.len() as u32;
            extra.extend(sids);
        }
        // Transit FECs exiting via an SR border.
        for &(prefix, egress) in transit_fecs {
            if sr_set.contains(&egress) {
                extra.push(PrefixSidSpec { prefix, egress, index: SidIndex(next_index) });
                next_index += 1;
            }
        }

        for (&r, cfg) in plan.sr_members.iter().zip(&configs) {
            label_record.srgbs.insert(r, cfg.srgb);
            if let Some(block) = cfg.srlb {
                label_record.srlbs.insert(r, block);
            }
        }
        // Highest index advertised anywhere in the domain: the last
        // extra SID when any exist, else the last automatic node SID.
        label_record.max_sid_index = Some(if next_index > 2_000 {
            next_index - 1
        } else {
            100 + plan.sr_members.len() as u32 - 1
        });

        let spec = SrDomainSpec {
            members: plan.sr_members.clone(),
            configs,
            extra_prefix_sids: extra,
            php: profile.php,
            node_sid_base: 100,
            install_node_ftn: false,
        };
        let domain = SrDomain::build(
            topo,
            &spec,
            &sr_spf,
            &mut domain_slice(&igp, &mut pools, sr_spf.members()),
            &mut domain_slice(&igp, &mut planes, sr_spf.members()),
        );

        // TE policies and service SIDs at the SR borders.
        let sr_borders: Vec<RouterId> =
            plan.borders.iter().copied().filter(|b| sr_set.contains(b)).collect();
        for (fec_idx, &(prefix, egress)) in sr_customer_fecs.iter().enumerate() {
            let te = rng.random_bool(profile.te_policy_share);
            // ASes with service SIDs always run at least one such FEC
            // (ESnet's LSO residue is in the ground truth, Table 3).
            let svc = (profile.service_sid_share > 0.0 && fec_idx == 0)
                || rng.random_bool(profile.service_sid_share);
            if !te && !svc {
                continue;
            }
            // A waypoint roughly mid-domain for the TE detour.
            let mid = plan.sr_members[plan.sr_members.len() / 2];
            for &headend in &sr_borders {
                if headend == egress {
                    continue;
                }
                // Service-SID paths end their transport with an
                // adjacency SID *into* the egress: the penultimate
                // router pops transport and forces the last link, so
                // the egress receives only the two-label service stack
                // and quotes it — the "unshrinking stacks observable
                // at the destination" of §6.2, and the LSO residue the
                // ESnet ground truth confirmed (Table 3's 4.4 %).
                let into_egress = svc
                    .then(|| {
                        topo.adjacencies(egress)
                            .find(|(_, _, _, remote, _)| {
                                sr_set.contains(remote) && *remote != headend
                            })
                            .map(|(_, _, remote_if, remote, _)| (remote, remote_if))
                    })
                    .flatten();
                let segments = match into_egress {
                    Some((penultimate, out_iface)) if penultimate != egress => vec![
                        Segment::Node(penultimate),
                        Segment::Adjacency { owner: penultimate, out_iface },
                    ],
                    _ if te && mid != headend && mid != egress => {
                        vec![Segment::Node(mid), Segment::Node(egress)]
                    }
                    _ => vec![Segment::Node(egress)],
                };
                let mut policy = SrPolicy::new(headend, prefix, segments);
                if svc {
                    // Two service labels from the top of the egress
                    // SRLB (adjacency SIDs grow from the bottom), so
                    // the egress-received stack keeps depth >= 2.
                    for k in 0..2u32 {
                        let label = srlb
                            .label_for(srlb.size() - 1 - (2 * (next_index % 250) + k))
                            .expect("inside SRLB");
                        policy.service_sids.push(label);
                        planes[slot(egress)].lfib.install(label, LfibAction::PopLocal);
                    }
                }
                if let Ok(push) = policy.compile(topo, &domain) {
                    planes[slot(headend)].ftn.install(prefix, push);
                }
            }
        }
    }

    // Ground truth.
    for (&r, pool) in igp.members().iter().zip(&pools) {
        label_record.pool_watermarks.insert(r, pool.watermark());
    }
    let mut deployed = DeployedAs { label_audit: label_record, ..DeployedAs::default() };
    for &r in &plan.routers {
        let router = topo.router(r);
        let addrs: Vec<Ipv4Addr> = std::iter::once(router.loopback)
            .chain(router.ifaces.iter().map(|&i| topo.iface(i).addr))
            .collect();
        if sr_set.contains(&r) {
            deployed.sr_addresses.extend(addrs);
        } else if ldp_set.contains(&r) {
            deployed.ldp_addresses.extend(addrs);
        }
    }
    for &(prefix, anchor) in &plan.customers {
        if sr_set.contains(&anchor) {
            deployed.sr_prefixes.push(prefix);
        } else if ldp_set.contains(&anchor) {
            deployed.ldp_prefixes.push(prefix);
        }
    }
    let planes = igp.members().iter().copied().zip(planes).collect();
    DeployOutput { igp, anchors: plan.customers.clone(), planes, deployed }
}

/// Phase 2, install step: moves one AS's [`DeployOutput`] into the
/// network — its IGP oracle, its anchored prefixes, and its routers'
/// planes, which replace the untouched defaults — and returns the
/// AS's ground-truth facts. Called serially, in catalog order.
pub fn install_as(net: &mut Network, plan: &AsPlan, output: DeployOutput) -> DeployedAs {
    net.register_igp(plan.asn, output.igp);
    for (prefix, anchor) in output.anchors {
        net.anchor_prefix(prefix, anchor);
    }
    for (r, plane) in output.planes {
        debug_assert!(plan.routers.contains(&r), "{} wrote the plane of foreign {r}", plan.asn);
        *net.plane_mut(r) = plane;
    }
    output.deployed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::by_id;
    use crate::profile::profile_for;

    fn deploy_as(
        net: &mut Network,
        plan: &AsPlan,
        transit_fecs: &[(Prefix, RouterId)],
        seed: u64,
    ) -> DeployedAs {
        let output = compute_as(net.topo(), plan, transit_fecs, seed);
        install_as(net, plan, output)
    }

    fn plan(id: u8, scale: f64) -> (Topology, AsPlan) {
        let mut topo = Topology::new();
        let entry = by_id(id).unwrap();
        let profile = profile_for(entry, scale, 1.0);
        let plan = plan_as(&mut topo, entry, profile, 42);
        (topo, plan)
    }

    #[test]
    fn topology_is_connected() {
        let (topo, plan) = plan(15, 0.05); // Microsoft
        assert_eq!(plan.bfs.len(), plan.routers.len(), "BFS reaches every router");
        assert!(topo.link_count() >= plan.routers.len() - 1);
    }

    #[test]
    fn esnet_is_fully_sr_with_no_ldp() {
        let (_, plan) = plan(46, 0.05);
        assert_eq!(plan.sr_members.len(), plan.routers.len());
        assert!(plan.ldp_members.is_empty());
        assert!(plan.junction.is_none());
    }

    #[test]
    fn interworking_as_has_a_junction_inside_both_domains() {
        let (_, plan) = plan(28, 0.05); // Bell Canada: SR + LDP
        assert!(!plan.sr_members.is_empty());
        assert!(!plan.ldp_members.is_empty());
        let j = plan.junction.expect("junction exists");
        assert!(plan.sr_members.contains(&j));
        assert!(plan.ldp_members.contains(&j));
    }

    #[test]
    fn customers_are_anchored_on_edge_routers() {
        let (_, plan) = plan(35, 0.05); // AT&T
        assert!(!plan.customers.is_empty());
        for (prefix, anchor) in &plan.customers {
            assert!(plan.customer_block.covers(prefix));
            assert!(plan.routers.contains(anchor));
        }
    }

    #[test]
    fn deploy_installs_sr_tables_on_members() {
        let mut topo = Topology::new();
        let entry = by_id(46).unwrap(); // ESnet
        let profile = profile_for(entry, 0.05, 1.0);
        let plan = plan_as(&mut topo, entry, profile, 42);
        let mut net = Network::new(topo);
        let deployed = deploy_as(&mut net, &plan, &[], 42);
        assert!(!deployed.sr_addresses.is_empty());
        assert!(deployed.ldp_addresses.is_empty());
        // Every SR member got LFIB entries (node SIDs at least).
        for &r in &plan.sr_members {
            assert!(!net.plane(r).lfib.is_empty(), "{r} has no LFIB");
        }
        // ESnet routers answer no fingerprinting.
        for &r in &plan.routers {
            assert!(!net.plane(r).answers_echo);
            assert!(!net.plane(r).snmp_responsive);
        }
    }

    #[test]
    fn deploy_is_deterministic() {
        let build = || {
            let mut topo = Topology::new();
            let entry = by_id(28).unwrap();
            let profile = profile_for(entry, 0.05, 1.0);
            let plan = plan_as(&mut topo, entry, profile, 7);
            let mut net = Network::new(topo);
            let deployed = deploy_as(&mut net, &plan, &[], 7);
            let mut addrs: Vec<Ipv4Addr> = deployed.sr_addresses.into_iter().collect();
            addrs.sort();
            addrs
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn transit_fecs_create_tunnels_at_the_exit_border() {
        let mut topo = Topology::new();
        let entry = by_id(36).unwrap(); // GTT (confirmed transit)
        let profile = profile_for(entry, 0.05, 1.0);
        let plan = plan_as(&mut topo, entry, profile, 11);
        let mut net = Network::new(topo);
        let external: Prefix = "100.120.0.0/16".parse().unwrap();
        let egress = plan.borders[0];
        deploy_as(&mut net, &plan, &[(external, egress)], 11);
        // Some SR/LDP member should hold an FTN entry for the
        // external prefix (the transit LSP ingress).
        let has_ftn = plan
            .routers
            .iter()
            .any(|&r| net.plane(r).ftn.lookup(Ipv4Addr::new(100, 120, 0, 1)).is_some());
        assert!(has_ftn, "transit FEC installed nowhere");
    }
}
