//! Generation does not depend on the worker count: the per-AS deploy
//! step runs on the shared pool and its outputs install in catalog
//! order, so a 1-worker and a 4-worker build are the same Internet.
//!
//! The planes are compared three times: by the deployed-tables digest
//! (every LFIB, FTN, protection map and label record, in a canonical
//! order), by the IGP-answers digest (every domain's ECMP sets, paths
//! and distances), and by behaviour — every VP probes a sample of
//! targets at every TTL, and the two networks must answer each probe
//! identically.

mod common;

use arest_netgen::internet::{generate_pooled, generate_probed, GenConfig, Internet};
use arest_obs::SpanContext;
use arest_simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};

/// Every VP × two targets per AS (a customer address and the loopback
/// of the AS's deepest router) × TTL 1..=32.
fn probe_set(internet: &Internet) -> Vec<ProbeSpec> {
    let topo = internet.net.topo();
    let targets: Vec<_> = internet
        .plans
        .iter()
        .flat_map(|plan| {
            let customer = plan.customers.first().map(|(prefix, _)| prefix.nth(7));
            let deepest = plan.bfs.last().map(|&r| topo.router(r).loopback);
            customer.into_iter().chain(deepest)
        })
        .collect();
    let mut specs = Vec::new();
    for (j, vp) in internet.vps.iter().enumerate() {
        for (k, &dst) in targets.iter().enumerate() {
            for ttl in 1..=32u8 {
                specs.push(ProbeSpec {
                    entry: vp.gateway,
                    src: vp.addr,
                    dst,
                    ttl,
                    transport: TransportPayload::Udp {
                        src_port: 33_434 + j as u16,
                        dst_port: 33_434 + (k % 64) as u16,
                        ident: u16::from(ttl),
                    },
                });
            }
        }
    }
    specs
}

fn assert_same(a: &Internet, b: &Internet, what: &str) {
    assert_eq!(a.ground_truth, b.ground_truth, "{what}: ground truth differs");
    assert_eq!(a.label_records, b.label_records, "{what}: label records differ");
    assert_eq!(
        common::tables_digest(a),
        common::tables_digest(b),
        "{what}: deployed tables differ"
    );
    assert_eq!(common::igp_digest(a), common::igp_digest(b), "{what}: IGP answers differ");
    let mut delivered = 0;
    for spec in probe_set(a) {
        let (mut a_bytes, mut b_bytes) = (Vec::new(), Vec::new());
        let reply = a.net.probe(&spec, &mut a_bytes);
        assert_eq!(reply, b.net.probe(&spec, &mut b_bytes), "{what}: replies differ for {spec:?}");
        assert_eq!(a_bytes, b_bytes, "{what}: reply bytes differ for {spec:?}");
        delivered += usize::from(matches!(reply, ProbeReply::DestUnreachable { .. }));
    }
    assert!(delivered > 0, "{what}: the probe set reached no target");
}

fn check(config: &GenConfig, mask: Option<&[bool]>) {
    let one = generate_pooled(config, mask, 1, SpanContext::NONE);
    assert!(!one.label_records.is_empty(), "the build deployed no AS");
    let four = generate_pooled(config, mask, 4, SpanContext::NONE);
    assert_same(&one, &four, "1 vs 4 workers");
    // `generate_probed` takes its worker count from `AREST_WORKERS`
    // (CI runs this test at 1 and at 4).
    let from_env = generate_probed(config, mask);
    assert_same(&one, &from_env, "1 worker vs AREST_WORKERS");
}

#[test]
fn generation_is_worker_count_invariant() {
    check(&GenConfig::tiny(), None);
}

#[test]
fn sliced_scaled_generation_is_worker_count_invariant() {
    let config = GenConfig { catalog_scale: 2, ..GenConfig::tiny() };
    let mask: Vec<bool> = (0..120).map(|i| i % 3 == 0).collect();
    check(&config, Some(&mask));
}
