//! The quick campaign's Paris flows, shared by the probe-path tests.

use arest_experiments::pipeline::PipelineConfig;
use arest_mapping::anaximander::{build_target_list, AnaximanderConfig};
use arest_mapping::bgp::{BgpRoute, BgpView};
use arest_netgen::internet::{generate, Internet};
use arest_tnt::reveal::revelation_triggers;
use arest_tnt::tracer::{trace_route, TraceConfig};
use arest_topo::ids::RouterId;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One Paris flow: the vantage point's gateway, its address and the
/// destination.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    pub entry: RouterId,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
}

/// The quick campaign's Internet and its flows: every (VP, target)
/// pair with the target lists exactly as the pipeline derives them,
/// each followed by the revelation sub-flows (toward each trigger's
/// ending hop) its trace fires. Also returns how many flows are
/// revelation sub-flows.
pub fn quick_campaign_flows() -> (Internet, Vec<Flow>, usize) {
    let config = PipelineConfig::quick();
    let internet = generate(&config.gen);
    let view: BgpView = internet
        .routes
        .iter()
        .map(|r| BgpRoute { prefix: r.prefix, origin: r.origin, path: r.path.clone() })
        .collect();
    let anax = AnaximanderConfig { targets_per_prefix: 2, max_targets: config.targets_per_as };
    let trace_config = TraceConfig::default();

    let mut flows = Vec::new();
    let mut revelation_flows = 0;
    for plan in &internet.plans {
        let targets = build_target_list(&view, plan.asn, &anax);
        for vp in &internet.vps {
            let vp_name: Arc<str> = vp.name.as_str().into();
            for &dst in &targets {
                flows.push(Flow { entry: vp.gateway, src: vp.addr, dst });
                let trace =
                    trace_route(&internet.net, &vp_name, vp.gateway, vp.addr, dst, &trace_config);
                for (_, ending_hop) in revelation_triggers(&trace) {
                    flows.push(Flow { entry: vp.gateway, src: vp.addr, dst: ending_hop });
                    revelation_flows += 1;
                }
            }
        }
    }
    (internet, flows, revelation_flows)
}
