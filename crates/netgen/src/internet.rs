//! Full-Internet assembly.
//!
//! Builds the complete measurement substrate: all 60 Table 5 ASes,
//! customer/provider wiring between them (stubs and content providers
//! buy transit from the transit/Tier-1 ASes, so traces *cross* the
//! big ASes exactly as Anaximander's transit targets intend), the 50
//! vantage points, the synthetic BGP view, the prefix-ownership table
//! for bdrmapIT-style annotation, and the ground-truth record the
//! validation experiments read.

use crate::builder::{compute_as, install_as, plan_as_replica, AsLabelRecord, AsPlan};
use crate::catalog::{AsProfile, AsType, CATALOG};
use crate::profile::profile_for;
use arest_obs::{ScopedTimer, Span, SpanContext, Tracer};
use arest_simnet::plane::Route;
use arest_simnet::Network;
use arest_tnt::pool;
use arest_topo::graph::Topology;
use arest_topo::ids::{AsNumber, RouterId};
use arest_topo::prefix::Prefix;
use arest_topo::vendor::Vendor;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::LazyLock;

/// The global registry's span tracer: generation phases and per-AS
/// deploy units open spans through it (inert while `AREST_OBS` is off).
static TRACER: LazyLock<Tracer> = LazyLock::new(|| arest_obs::global().tracer());

/// One generation phase. Dropping it records the phase twice: into
/// its `netgen.phase.*.us` histogram and as a span under the caller's.
struct Phase {
    span: Span,
    _timer: ScopedTimer,
}

impl Phase {
    fn start(timer: &'static str, span: &'static str, parent: SpanContext) -> Phase {
        Phase {
            span: TRACER.span_with_parent(span, parent),
            _timer: arest_obs::global().timer(timer),
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Multiplier on the paper's discovered-address counts when sizing
    /// ASes. The default keeps all 60 ASes plus 50 VPs around a few
    /// thousand routers.
    pub scale: f64,
    /// Master seed: same seed → bit-identical Internet.
    pub seed: u64,
    /// Number of vantage points (the paper uses 50).
    pub vp_count: usize,
    /// SR adoption level in `[0, 1]`: scales every AS's SR footprint.
    /// `1.0` is the paper's 2025 snapshot; lower values rewind the
    /// deployment clock for longitudinal what-if studies (the paper's
    /// stated future work).
    pub sr_adoption: f64,
    /// Catalog replication factor: the Internet holds
    /// `60 × catalog_scale` ASes. Replica 0 is the paper's Table 5
    /// verbatim (byte-identical to a `catalog_scale: 1` run); each
    /// further replica re-instantiates the 60 profiles under fresh
    /// ASNs (`asn + 1_000_000·r`), disjoint address space, and its own
    /// deterministic RNG streams. This is the throughput axis for the
    /// pipeline benchmarks: 10× catalog, same per-AS shape.
    /// Capped at 63 by the address plan (`plan_as_replica`).
    pub catalog_scale: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig { scale: 0.05, seed: 2_025, vp_count: 50, sr_adoption: 1.0, catalog_scale: 1 }
    }
}

impl GenConfig {
    /// A small configuration for unit tests: a handful of VPs over a
    /// downscaled Internet.
    pub fn tiny() -> GenConfig {
        GenConfig { scale: 0.01, seed: 7, vp_count: 4, sr_adoption: 1.0, catalog_scale: 1 }
    }
}

/// One vantage point.
#[derive(Debug, Clone)]
pub struct VpSpec {
    /// Name, `VM1`…`VM50` as in the paper's Appendix A.
    pub name: String,
    /// The VP's source address.
    pub addr: Ipv4Addr,
    /// The gateway router probes enter through.
    pub gateway: RouterId,
}

/// One synthetic BGP route (becomes `arest-mapping`'s `BgpRoute`).
#[derive(Debug, Clone)]
pub struct RouteSpec {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The origin AS.
    pub origin: AsNumber,
    /// The AS path as seen from the measurement side.
    pub path: Vec<AsNumber>,
}

/// What the generator knows to be true — the validation oracle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    /// Addresses on SR-capable routers.
    pub sr_addresses: HashSet<Ipv4Addr>,
    /// Addresses on LDP-only routers.
    pub ldp_addresses: HashSet<Ipv4Addr>,
    /// Customer prefixes anchored at SR routers (their anchor answers
    /// probes, so these addresses observe SR behaviour).
    pub sr_prefixes: Vec<Prefix>,
    /// Customer prefixes anchored at LDP-only routers.
    pub ldp_prefixes: Vec<Prefix>,
    /// Whether each AS actually deployed SR.
    pub sr_deployed: HashMap<AsNumber, bool>,
}

impl GroundTruth {
    /// The oracle AReST's validation uses: is this interface SR?
    pub fn is_sr(&self, addr: Ipv4Addr) -> bool {
        self.sr_addresses.contains(&addr) || self.sr_prefixes.iter().any(|p| p.contains(addr))
    }
}

/// The assembled synthetic Internet.
#[derive(Debug)]
pub struct Internet {
    /// The simulator.
    pub net: Network,
    /// Per-AS plans, in catalog order.
    pub plans: Vec<AsPlan>,
    /// The vantage points.
    pub vps: Vec<VpSpec>,
    /// The synthetic BGP view.
    pub routes: Vec<RouteSpec>,
    /// Prefix → owning AS (for bdrmapIT-style annotation).
    pub ownership: Vec<(Prefix, AsNumber)>,
    /// The validation oracle.
    pub ground_truth: GroundTruth,
    /// Per-AS label-allocation records for `arest-audit`.
    pub label_records: HashMap<AsNumber, AsLabelRecord>,
}

impl Internet {
    /// The plan for the AS with paper identifier `id`.
    pub fn plan(&self, id: u8) -> Option<&AsPlan> {
        self.plans.get(usize::from(id).checked_sub(1)?)
    }
}

fn hash2(a: u64, b: u64) -> u64 {
    let mut h = a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    h ^= h >> 29;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^ (h >> 32)
}

/// Sequential /31-style address-pair allocator over 172.20.0.0/14 and
/// 192.168.0.0/16 style blocks.
struct PairAlloc {
    base: [u8; 2],
    counter: u32,
}

impl PairAlloc {
    fn new(a: u8, b: u8) -> PairAlloc {
        PairAlloc { base: [a, b], counter: 0 }
    }

    fn next(&mut self) -> (Ipv4Addr, Ipv4Addr) {
        let c = self.counter;
        self.counter += 1;
        let second = self.base[1] as u32 + c / (127 * 256);
        assert!(second <= 255, "inter-AS link space exhausted");
        let third = ((c / 127) % 256) as u8;
        let fourth = ((c % 127) * 2) as u8;
        (
            Ipv4Addr::new(self.base[0], second as u8, third, fourth),
            Ipv4Addr::new(self.base[0], second as u8, third, fourth + 1),
        )
    }
}

/// Generates the full synthetic Internet.
pub fn generate(config: &GenConfig) -> Internet {
    generate_probed(config, None)
}

/// Like [`generate`], but deploys control/data planes only for the
/// ASes whose catalog index is set in `probed`, plus their transit
/// providers (a selected customer's traces cross its providers, so
/// those planes must forward).
///
/// The *topology* is always built in full — every AS's routers and
/// links, the provider wiring, the VP attachments, the BGP view and
/// ownership table — because provider selection, VP entry points, and
/// address allocation all hash over the complete plan set; skipping
/// any of it would change addresses everywhere. Only the expensive
/// per-AS phase-2 work (IGP SPF domains, LDP/SR label planes, customer
/// anchoring) is elided, and skipped ASes simply never forward — which
/// is fine, because an incremental campaign never probes them.
///
/// `probed: None` — or an all-true mask — is exactly [`generate`]:
/// the output is byte-identical.
///
/// Deploys on [`pool::worker_count`] workers; see [`generate_pooled`].
pub fn generate_probed(config: &GenConfig, probed: Option<&[bool]>) -> Internet {
    generate_pooled(config, probed, pool::worker_count(), SpanContext::NONE)
}

/// [`generate_probed`] with the per-AS deploy step on `workers` pool
/// threads, and each phase's span parented under `parent`.
///
/// The output does not depend on `workers`: each AS's planes are a
/// pure function of the finished topology and its plan, and they are
/// installed serially in catalog order.
pub fn generate_pooled(
    config: &GenConfig,
    probed: Option<&[bool]>,
    workers: usize,
    parent: SpanContext,
) -> Internet {
    let registry = arest_obs::global();
    let _timer = registry.timer("netgen.generate.us");
    // Each phase records its `netgen.phase.*.us` timer and its span
    // where it is dropped.
    let phase = Phase::start("netgen.phase.plan.us", "netgen.phase.plan", parent);
    let mut topo = Topology::new();

    // ---- Phase 1: AS topologies ----
    // Replica-major, catalog-minor: replica 0 lays down the paper's 60
    // ASes first (so `Internet::plan(id)` / `Dataset::result(id)` keep
    // addressing Table 5 rows at any scale), then each further replica
    // appends its own 60 under fresh ASNs and disjoint address space.
    let scale = config.catalog_scale.max(1);
    assert!(scale < 64, "catalog_scale {scale} exceeds the address plan (max 63)");
    let mut plans: Vec<AsPlan> = Vec::with_capacity(CATALOG.len() * scale);
    for replica in 0..scale {
        for entry in &CATALOG {
            let entry = AsProfile { asn: entry.asn + 1_000_000 * replica as u32, ..*entry };
            let profile = profile_for(&entry, config.scale, config.sr_adoption);
            plans.push(plan_as_replica(&mut topo, &entry, profile, config.seed, replica as u8));
        }
    }

    drop(phase);

    // ---- Provider wiring ----
    let phase = Phase::start("netgen.phase.providers.us", "netgen.phase.providers", parent);
    // Stubs and content providers buy transit from sizeable
    // transit/Tier-1 ASes; transit ASes peer upward with Tier-1s.
    let provider_pool: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter(|(_, p)| {
            matches!(p.entry.astype, AsType::Transit | AsType::Tier1) && p.routers.len() >= 12
        })
        .map(|(i, _)| i)
        .collect();

    let mut transit_alloc = PairAlloc::new(192, 168);
    // customer AS index → [(provider index, provider border, link iface on provider)]
    let mut providers: HashMap<usize, Vec<(usize, RouterId)>> = HashMap::new();
    // provider AS index → [(prefix, exit border)]
    let mut transit_fecs: HashMap<usize, Vec<(Prefix, RouterId)>> = HashMap::new();

    for (ci, customer) in plans.iter().enumerate() {
        let eligible = matches!(customer.entry.astype, AsType::Stub | AsType::Content)
            || (customer.entry.astype == AsType::Transit && customer.routers.len() < 12);
        if !eligible || provider_pool.is_empty() {
            continue;
        }
        let count = 1 + (hash2(customer.entry.asn.into(), 3) % 2) as usize;
        for k in 0..count {
            let pi = provider_pool
                [(hash2(customer.entry.asn.into(), 10 + k as u64) as usize) % provider_pool.len()];
            if pi == ci {
                continue;
            }
            let provider = &plans[pi];
            let p_border = provider.borders[(hash2(customer.entry.asn.into(), 20 + k as u64)
                as usize)
                % provider.borders.len()];
            let c_border = customer.borders[0];
            let (addr_p, addr_c) = transit_alloc.next();
            topo.add_link(p_border, addr_p, c_border, addr_c, 1);
            providers.entry(ci).or_default().push((pi, p_border));
            transit_fecs
                .entry(pi)
                .or_default()
                .extend([(customer.customer_block, p_border), (customer.infra_block, p_border)]);
        }
    }

    drop(phase);

    // ---- Vantage points ----
    let phase = Phase::start("netgen.phase.vps.us", "netgen.phase.vps", parent);
    // Each VP's gateway links to one border of every AS (VP-specific
    // choice, so different VPs enter through different ASBRs).
    let mut vp_alloc = PairAlloc::new(172, 20);
    let mut vp_gateways: Vec<RouterId> = Vec::new();
    // (vp, as index) → provider-side entry router the VP linked to.
    let mut vp_entry: HashMap<(usize, usize), RouterId> = HashMap::new();
    for j in 0..config.vp_count {
        let gateway = topo.add_router(
            format!("vp{j}"),
            AsNumber::MEASUREMENT,
            Vendor::Linux,
            Ipv4Addr::new(198, 18, j as u8, 1),
        );
        vp_gateways.push(gateway);
        for (ai, plan) in plans.iter().enumerate() {
            // VPs overwhelmingly enter through the core-side borders;
            // the appended LDP-island border (when interworking) only
            // takes 1-in-8 entries — LDP→SR chains stay the rare mode
            // the paper observes (§7.2).
            let h = hash2(j as u64, plan.entry.asn.into()) as usize;
            let core_borders = plan.profile.borders.min(plan.borders.len());
            let border = if plan.borders.len() > core_borders && h.is_multiple_of(48) {
                *plan.borders.last().expect("non-empty")
            } else {
                plan.borders[h % core_borders]
            };
            let (addr_vp, addr_b) = vp_alloc.next();
            topo.add_link(gateway, addr_vp, border, addr_b, 1);
            vp_entry.insert((j, ai), border);
        }
    }

    drop(phase);

    // ---- Phase 2: planes ----
    let phase = Phase::start("netgen.phase.deploy.us", "netgen.phase.deploy", parent);
    // The deploy set: every AS for a full run; for a slice, the
    // selected ASes plus their providers. Membership is an idempotent
    // OR, so the provider map's iteration order cannot matter.
    let deploy: Vec<bool> = match probed {
        None => vec![true; plans.len()],
        Some(mask) => {
            let selected = |i: usize| mask.get(i).copied().unwrap_or(false);
            let mut deploy: Vec<bool> = (0..plans.len()).map(selected).collect();
            for (ci, provs) in &providers {
                if selected(*ci) {
                    for (pi, _) in provs {
                        deploy[*pi] = true;
                    }
                }
            }
            deploy
        }
    };
    // Compute on the pool (one unit per deployed AS; results merge in
    // submission order, which is catalog order), then install
    // serially.
    let units: Vec<usize> = (0..plans.len()).filter(|&ai| deploy[ai]).collect();
    let deploy_ctx = phase.span.context();
    let outputs = pool::run_indexed(units.clone(), workers, &|_, ai| {
        let plan = &plans[ai];
        let mut span = TRACER.span_with_parent("netgen.deploy.unit", deploy_ctx);
        span.record("asn", plan.entry.asn);
        span.record("routers", plan.routers.len());
        let fecs = transit_fecs.get(&ai).map_or(&[][..], Vec::as_slice);
        compute_as(&topo, plan, fecs, config.seed)
    });
    let install = Phase::start("netgen.phase.install.us", "netgen.phase.install", deploy_ctx);
    let mut net = Network::new(topo);
    let mut ground_truth = GroundTruth::default();
    // Deployment intent derives from the plan alone, so the oracle
    // answers for skipped ASes too.
    for plan in &plans {
        ground_truth.sr_deployed.insert(plan.asn, plan.sr_members.len() >= 2);
    }
    let mut label_records = HashMap::new();
    for (ai, output) in units.into_iter().zip(outputs) {
        let plan = &plans[ai];
        let deployed = install_as(&mut net, plan, output);
        label_records.insert(plan.asn, deployed.label_audit);
        ground_truth.sr_addresses.extend(deployed.sr_addresses);
        ground_truth.ldp_addresses.extend(deployed.ldp_addresses);
        ground_truth.sr_prefixes.extend(deployed.sr_prefixes);
        ground_truth.ldp_prefixes.extend(deployed.ldp_prefixes);
    }

    drop(install);
    drop(phase);

    // Exit maps + direct border routes for transit, then the VP
    // gateway FIBs below: all routing state outside the IGP domains.
    let phase = Phase::start("netgen.phase.exits.us", "netgen.phase.exits", parent);
    for (ci, provs) in &providers {
        let customer = &plans[*ci];
        for (pi, p_border) in provs {
            let provider = &plans[*pi];
            for block in [customer.customer_block, customer.infra_block] {
                net.register_exit(provider.asn, block, *p_border);
            }
            // The provider border's direct route onto the customer link.
            let customer_border = customer.borders[0];
            let direct_iface = net
                .topo()
                .adjacencies(*p_border)
                .find(|(_, _, _, remote, _)| *remote == customer_border)
                .map(|(_, out_iface, _, _, _)| out_iface);
            if let Some(out_iface) = direct_iface {
                for block in [customer.customer_block, customer.infra_block] {
                    net.plane_mut(*p_border)
                        .install_route(block, Route { out_iface, next_router: customer_border });
                }
            }
        }
    }

    // VP gateway FIBs: route each AS's blocks to the VP's chosen entry
    // point — directly, or through a provider for half the (VP, AS)
    // pairs when the AS has one (creating transit-crossing traces).
    let mut vps = Vec::new();
    for (j, &gateway) in vp_gateways.iter().enumerate() {
        let iface_to: HashMap<RouterId, arest_topo::ids::IfaceId> = net
            .topo()
            .adjacencies(gateway)
            .map(|(_, local_if, _, remote, _)| (remote, local_if))
            .collect();
        for (ai, plan) in plans.iter().enumerate() {
            let direct = vp_entry[&(j, ai)];
            let via_provider = providers.get(&ai).and_then(|provs| {
                if hash2(j as u64, 100 + plan.entry.asn as u64).is_multiple_of(2) {
                    provs.first().copied()
                } else {
                    None
                }
            });
            let (infra_next, customer_next) = match via_provider {
                // Enter the provider wherever this VP enters it; its
                // exit map carries the packet across to the customer.
                Some((pi, _)) => {
                    let provider_entry = vp_entry[&(j, pi)];
                    (direct, provider_entry)
                }
                None => (direct, direct),
            };
            let gateway_plane =
                |next: RouterId| Route { out_iface: iface_to[&next], next_router: next };
            let infra_route = gateway_plane(infra_next);
            let customer_route = gateway_plane(customer_next);
            net.plane_mut(gateway).install_route(plan.infra_block, infra_route);
            net.plane_mut(gateway).install_route(plan.customer_block, customer_route);
        }
        vps.push(VpSpec {
            name: format!("VM{}", j + 1),
            addr: Ipv4Addr::new(198, 18, j as u8, 1),
            gateway,
        });
    }

    drop(phase);

    // ---- BGP view and ownership ----
    let phase = Phase::start("netgen.phase.bgp.us", "netgen.phase.bgp", parent);
    let mut routes = Vec::new();
    let mut ownership = Vec::new();
    for (ai, plan) in plans.iter().enumerate() {
        ownership.push((plan.infra_block, plan.asn));
        ownership.push((plan.customer_block, plan.asn));
        // Customers announce their own /24s (the aggregate exists only
        // in the internal routing state): Anaximander must see every
        // attached prefix to build a target list that explores the
        // whole edge, exactly as real BGP tables expose it.
        let announced: Vec<Prefix> = plan
            .customers
            .iter()
            .map(|(p, _)| *p)
            .chain(std::iter::once(plan.infra_block))
            .collect();
        for block in announced {
            routes.push(RouteSpec {
                prefix: block,
                origin: plan.asn,
                path: vec![AsNumber::MEASUREMENT, plan.asn],
            });
            if let Some(provs) = providers.get(&ai) {
                for (pi, _) in provs {
                    routes.push(RouteSpec {
                        prefix: block,
                        origin: plan.asn,
                        path: vec![AsNumber::MEASUREMENT, plans[*pi].asn, plan.asn],
                    });
                }
            }
        }
    }
    // Inter-AS link addresses: owned by the router's AS, as /32s.
    for iface in net.topo().ifaces() {
        let addr = iface.addr;
        let octets = addr.octets();
        if octets[0] == 192 || octets[0] == 172 || octets[0] == 198 {
            ownership.push((Prefix::host(addr), net.topo().router(iface.router).asn));
        }
    }

    drop(phase);

    if registry.is_enabled() {
        // Generation is cold (once per run), so registering here
        // instead of caching handles in a static is fine.
        registry.counter("netgen.internets").inc();
        registry.counter("netgen.routers").add(net.topo().router_count() as u64);
        registry.counter("netgen.links").add(net.topo().link_count() as u64);
        registry.counter("netgen.vps").add(vps.len() as u64);
        registry.counter("netgen.bgp_routes").add(routes.len() as u64);
    }
    Internet { net, plans, vps, routes, ownership, ground_truth, label_records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};

    fn tiny() -> Internet {
        generate(&GenConfig::tiny())
    }

    #[test]
    fn generates_all_60_ases_and_vps() {
        let internet = tiny();
        assert_eq!(internet.plans.len(), 60);
        assert_eq!(internet.vps.len(), 4);
        assert!(internet.net.topo().router_count() > 100);
        assert_eq!(internet.plan(46).unwrap().entry.name, "ESnet");
    }

    #[test]
    fn ground_truth_matches_profiles() {
        let internet = tiny();
        let esnet = internet.plan(46).unwrap();
        assert!(internet.ground_truth.sr_deployed[&esnet.asn]);
        // Every ESnet address is SR.
        for &r in &esnet.routers {
            let lo = internet.net.topo().router(r).loopback;
            assert!(internet.ground_truth.is_sr(lo));
        }
        // An unconfirmed stub deploys nothing.
        let proximus = internet.plan(7).unwrap();
        assert!(!internet.ground_truth.sr_deployed[&proximus.asn]);
    }

    #[test]
    fn probes_reach_customer_prefixes() {
        let internet = tiny();
        let vp = &internet.vps[0];
        let mut delivered = 0;
        let mut tried = 0;
        for plan in internet.plans.iter().filter(|p| p.routers.len() >= 4) {
            let Some(&(prefix, _)) = plan.customers.first() else { continue };
            tried += 1;
            let reply = internet.net.probe(
                &ProbeSpec {
                    entry: vp.gateway,
                    src: vp.addr,
                    dst: prefix.nth(7),
                    ttl: 40,
                    transport: TransportPayload::Udp {
                        src_port: 33_434,
                        dst_port: 33_434,
                        ident: 9,
                    },
                },
                &mut Vec::new(),
            );
            if matches!(reply, ProbeReply::DestUnreachable { .. }) {
                delivered += 1;
            }
        }
        assert!(tried > 10, "not enough sizeable ASes: {tried}");
        assert_eq!(delivered, tried, "every customer prefix must be reachable");
    }

    #[test]
    fn some_vp_as_pairs_transit_a_provider() {
        let internet = tiny();
        // At least one stub/content AS has a provider, and for some VP
        // the customer route detours through it.
        let has_detour = internet.vps.iter().any(|vp| {
            internet.plans.iter().any(|plan| {
                if plan.entry.astype != AsType::Stub && plan.entry.astype != AsType::Content {
                    return false;
                }
                let Some(&(prefix, _)) = plan.customers.first() else { return false };
                let reply = internet.net.probe(
                    &ProbeSpec {
                        entry: vp.gateway,
                        src: vp.addr,
                        dst: prefix.nth(3),
                        ttl: 60,
                        transport: TransportPayload::Udp {
                            src_port: 33_434,
                            dst_port: 33_434,
                            ident: 4,
                        },
                    },
                    &mut Vec::new(),
                );
                match reply {
                    // A detoured trace crosses the provider: clearly
                    // more forward hops than the AS's own diameter.
                    ProbeReply::DestUnreachable { forward_hops, .. } => {
                        usize::from(forward_hops) > plan.routers.len() + 2
                    }
                    _ => false,
                }
            })
        });
        assert!(has_detour, "no transit-crossing trace found");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.net.topo().router_count(), b.net.topo().router_count());
        assert_eq!(a.net.topo().iface_count(), b.net.topo().iface_count());
        let mut sra: Vec<Ipv4Addr> = a.ground_truth.sr_addresses.iter().copied().collect();
        let mut srb: Vec<Ipv4Addr> = b.ground_truth.sr_addresses.iter().copied().collect();
        sra.sort();
        srb.sort();
        assert_eq!(sra, srb);
    }

    #[test]
    fn bgp_view_has_transit_paths() {
        let internet = tiny();
        let with_transit = internet.routes.iter().filter(|r| r.path.len() >= 3).count();
        assert!(with_transit > 10, "expected provider paths, got {with_transit}");
    }

    #[test]
    fn probed_generation_keeps_topology_and_slices_planes() {
        let config = GenConfig::tiny();
        let full = tiny();
        // Select one sizeable AS; its providers ride along.
        let target = full
            .plans
            .iter()
            .position(|p| p.routers.len() >= 4 && !p.customers.is_empty())
            .expect("a sizeable AS exists");
        let mask: Vec<bool> = (0..full.plans.len()).map(|i| i == target).collect();
        let sliced = generate_probed(&config, Some(&mask));

        // The topology — and with it every address — is unchanged.
        assert_eq!(full.net.topo().router_count(), sliced.net.topo().router_count());
        assert_eq!(full.net.topo().iface_count(), sliced.net.topo().iface_count());
        assert_eq!(full.routes.len(), sliced.routes.len());
        assert_eq!(full.ownership.len(), sliced.ownership.len());

        // Only the selected AS (plus its providers) deployed planes,
        // but the plan-derived deployment oracle covers everything.
        assert!(sliced.label_records.contains_key(&sliced.plans[target].asn));
        assert!(sliced.label_records.len() < full.label_records.len());
        assert_eq!(full.ground_truth.sr_deployed, sliced.ground_truth.sr_deployed);

        // The selected AS still forwards: its first customer prefix
        // answers a probe through the sliced planes.
        let plan = &sliced.plans[target];
        let (prefix, _) = plan.customers[0];
        let vp = &sliced.vps[0];
        let reply = sliced.net.probe(
            &ProbeSpec {
                entry: vp.gateway,
                src: vp.addr,
                dst: prefix.nth(7),
                ttl: 40,
                transport: TransportPayload::Udp { src_port: 33_434, dst_port: 33_434, ident: 9 },
            },
            &mut Vec::new(),
        );
        assert!(matches!(reply, ProbeReply::DestUnreachable { .. }), "got {reply:?}");

        // An all-true mask is exactly a full run.
        let all = vec![true; full.plans.len()];
        let same = generate_probed(&config, Some(&all));
        assert_eq!(full.label_records.len(), same.label_records.len());
        let mut a: Vec<Ipv4Addr> = full.ground_truth.sr_addresses.iter().copied().collect();
        let mut b: Vec<Ipv4Addr> = same.ground_truth.sr_addresses.iter().copied().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn catalog_scale_replicates_without_collisions() {
        let scaled = generate(&GenConfig { catalog_scale: 3, ..GenConfig::tiny() });
        assert_eq!(scaled.plans.len(), 180);

        // Every replica gets distinct ASNs and distinct address blocks.
        let asns: HashSet<u32> = scaled.plans.iter().map(|p| p.entry.asn).collect();
        assert_eq!(asns.len(), 180, "replica ASNs collide");
        let blocks: HashSet<Ipv4Addr> =
            scaled.plans.iter().map(|p| p.infra_block.network()).collect();
        assert_eq!(blocks.len(), 180, "replica infra blocks collide");

        // Replica 0 is the Table 5 catalog verbatim: byte-identical to
        // an unscaled run, so Dataset::result(id) keeps its meaning.
        let base = tiny();
        for (a, b) in base.plans.iter().zip(&scaled.plans) {
            assert_eq!(a.entry.asn, b.entry.asn);
            assert_eq!(a.routers.len(), b.routers.len());
            assert_eq!(a.infra_block, b.infra_block);
            assert_eq!(a.customer_block, b.customer_block);
            assert_eq!(a.customers, b.customers);
        }

        // Later replicas diverge: same catalog row, different ASN, so
        // every ASN-keyed draw (hidden SR deployers, wiring RNG) runs
        // on a fresh stream rather than cloning replica 0.
        let differs = (0..60).any(|i| {
            scaled.ground_truth.sr_deployed[&scaled.plans[i].asn]
                != scaled.ground_truth.sr_deployed[&scaled.plans[i + 60].asn]
        });
        assert!(differs, "replica 1 cloned replica 0's deployment draws");
        for r in 1..3u32 {
            for i in 0..60 {
                let plan = &scaled.plans[(r as usize) * 60 + i];
                assert_eq!(plan.entry.asn, base.plans[i].entry.asn + 1_000_000 * r);
            }
        }
    }
}
