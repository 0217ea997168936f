//! The multi-vantage-point measurement driver.
//!
//! The paper probes each target list from 50 geographically spread
//! VPs, shuffling targets per VP (§5). This module reproduces that
//! schedule as `(AS, VP)` work units: [`campaign_unit`] runs one
//! vantage point over one AS's target list in its VP-specific order.
//! The streaming pipeline schedules those units on the shared
//! work-stealing pool ([`crate::pool`]), so a 60-AS build saturates
//! the machine instead of serializing AS after AS; the shuffle is
//! keyed on the VP alone, so a unit's traces are identical at any
//! worker count.

use crate::reveal::trace_with_revelation;
use crate::trace::Trace;
use crate::tracer::TraceConfig;
use arest_obs::SpanContext;
use arest_simnet::Network;
use arest_topo::ids::RouterId;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A measurement vantage point: a host address and the router its
/// probes enter the network through.
#[derive(Debug, Clone)]
pub struct VantagePoint {
    /// Human-readable name (e.g. "VM12-paris"), interned so every
    /// trace of a campaign shares the same allocation.
    pub name: Arc<str>,
    /// The VP's source address.
    pub addr: Ipv4Addr,
    /// The first router that processes the VP's probes.
    pub gateway: RouterId,
}

/// Campaign configuration. Every campaign trace runs TNT revelation,
/// the paper's setting.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignConfig {
    /// Per-trace configuration.
    pub trace: TraceConfig,
}

/// One `(AS, VP)` work unit: a vantage point traces one AS's target
/// list in its VP-specific order.
fn trace_unit(
    net: &Network,
    vp: &VantagePoint,
    targets: &[Ipv4Addr],
    config: &CampaignConfig,
) -> Vec<Trace> {
    let mut order: Vec<Ipv4Addr> = targets.to_vec();
    shuffle_for_vp(&mut order, vp.addr);
    order
        .into_iter()
        .map(|dst| trace_with_revelation(net, &vp.name, vp.gateway, vp.addr, dst, &config.trace))
        .collect()
}

/// Runs one `(AS, VP)` campaign unit under an explicit parent span —
/// the entry point the streaming pipeline schedules (one unit per
/// vantage point per AS).
///
/// Opens a `tnt.campaign.unit` span parented to `parent` (the AS's
/// flow span context, which is `Copy` and can ride inside a pool work
/// unit, so a unit stolen by any worker lands under the right AS in
/// the reconstructed tree) and returns the VP's traces in its shuffled
/// target order. The span is the unit's only one: it records the
/// unit's totals (`traces`, `hops`, `reached`), so the span count
/// follows the schedule, not the trace count.
pub fn campaign_unit(
    net: &Network,
    vp: &VantagePoint,
    targets: &[Ipv4Addr],
    config: &CampaignConfig,
    parent: SpanContext,
) -> Vec<Trace> {
    let mut unit_span = crate::obs::TRACER.span_with_parent("tnt.campaign.unit", parent);
    unit_span.record("vp", &*vp.name);
    unit_span.record("targets", targets.len());
    let traces = trace_unit(net, vp, targets, config);
    if unit_span.is_recording() {
        unit_span.record("traces", traces.len());
        unit_span.record("hops", traces.iter().map(|t| t.hops.len()).sum::<usize>());
        unit_span.record("reached", traces.iter().filter(|t| t.reached).count());
    }
    traces
}

/// Deterministic per-VP Fisher–Yates shuffle keyed on the VP address
/// (xorshift64*). Every VP visits the same target set in its own,
/// reproducible order.
pub fn shuffle_for_vp(targets: &mut [Ipv4Addr], vp_addr: Ipv4Addr) {
    let mut state = u64::from(u32::from(vp_addr)) | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        state
    };
    for i in (1..targets.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        targets.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_simnet::plane::Route;
    use arest_topo::graph::Topology;
    use arest_topo::ids::AsNumber;
    use arest_topo::prefix::Prefix;
    use arest_topo::vendor::Vendor;

    fn base_targets() -> Vec<Ipv4Addr> {
        (1..=16u8).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect()
    }

    #[test]
    fn shuffle_is_deterministic_per_vp() {
        let base = base_targets();
        let mut a = base.clone();
        let mut b = base;
        shuffle_for_vp(&mut a, Ipv4Addr::new(192, 0, 2, 1));
        shuffle_for_vp(&mut b, Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(a, b, "same VP → same order");
    }

    #[test]
    fn shuffle_differs_between_vps() {
        let base = base_targets();
        let mut a = base.clone();
        let mut b = base;
        shuffle_for_vp(&mut a, Ipv4Addr::new(192, 0, 2, 1));
        shuffle_for_vp(&mut b, Ipv4Addr::new(192, 0, 2, 2));
        assert_ne!(a, b, "different VP → different order");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let base = base_targets();
        for vp in [Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(203, 0, 113, 7)] {
            let mut shuffled = base.clone();
            shuffle_for_vp(&mut shuffled, vp);
            let mut sorted = shuffled;
            sorted.sort();
            assert_eq!(sorted, base, "no dropped or duplicated targets for {vp}");
        }
    }

    /// A three-router chain with routes to every loopback, plus two
    /// VPs entering at either end.
    fn testbed() -> (Network, Vec<VantagePoint>, Vec<Ipv4Addr>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_100);
        let routers: Vec<RouterId> = (0..3u8)
            .map(|i| {
                topo.add_router(
                    format!("c{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::new(10, 255, 10, i + 1),
                )
            })
            .collect();
        for i in 0..2u8 {
            topo.add_link(
                routers[i as usize],
                Ipv4Addr::new(10, 10, i, 1),
                routers[i as usize + 1],
                Ipv4Addr::new(10, 10, i, 2),
                1,
            );
        }
        let loopbacks: Vec<Ipv4Addr> = routers.iter().map(|&r| topo.router(r).loopback).collect();
        let mut net = Network::new(topo);
        let spf = arest_topo::spf::DomainSpf::for_members(net.topo(), &routers);
        for &from in &routers {
            for (&to, &lo) in routers.iter().zip(&loopbacks) {
                if from == to {
                    continue;
                }
                if let Some((out_iface, next_router)) = spf.next_hop(from, to) {
                    net.plane_mut(from)
                        .install_route(Prefix::host(lo), Route { out_iface, next_router });
                }
            }
        }
        let vps = vec![
            VantagePoint {
                name: Arc::from("vp-a"),
                addr: Ipv4Addr::new(192, 0, 2, 1),
                gateway: routers[0],
            },
            VantagePoint {
                name: Arc::from("vp-b"),
                addr: Ipv4Addr::new(192, 0, 2, 2),
                gateway: routers[2],
            },
        ];
        (net, vps, loopbacks)
    }

    /// Every VP's unit over `targets`, in VP order.
    fn run_units(net: &Network, vps: &[VantagePoint], targets: &[Ipv4Addr]) -> Vec<Trace> {
        vps.iter()
            .flat_map(|vp| {
                campaign_unit(net, vp, targets, &CampaignConfig::default(), SpanContext::NONE)
            })
            .collect()
    }

    #[test]
    fn traces_share_one_interned_vp_name_per_vp() {
        let (net, vps, loopbacks) = testbed();
        let traces = run_units(&net, &vps, &loopbacks);
        assert_eq!(traces.len(), vps.len() * loopbacks.len());
        for trace in &traces {
            let vp = vps.iter().find(|vp| vp.name == trace.vp).expect("known VP");
            assert!(
                Arc::ptr_eq(&trace.vp, &vp.name),
                "trace VP names must be interned, not per-trace copies"
            );
        }
    }

    #[test]
    fn empty_target_list_yields_no_traces() {
        let (net, vps, _) = testbed();
        assert!(run_units(&net, &vps, &[]).is_empty());
    }
}
