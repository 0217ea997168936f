//! Regression test: a **disabled** registry adds no allocations on the
//! simnet hot path.
//!
//! The instrumented `Network::probe` must cost nothing when
//! observability is off — the promise that lets the instrumentation
//! live permanently in the forwarding engine. This test counts
//! allocations, warms up every lazy registration, and then asserts:
//!
//! 1. recording against disabled handles performs **zero** allocations;
//! 2. a probe loop allocates exactly as much with observability
//!    enabled as disabled — the handles never allocate after
//!    registration, enabled or not.
//!
//! The counting allocator lives in `common`.

mod common;

use arest_simnet::network::Network;
use arest_simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};
use arest_topo::graph::Topology;
use arest_topo::ids::{AsNumber, RouterId};
use arest_topo::prefix::Prefix;
use arest_topo::vendor::Vendor;
use common::{allocations, min_allocations};
use std::net::Ipv4Addr;

/// A 4-router IP chain with host routes toward every loopback.
fn chain_network() -> (Network, Vec<RouterId>, Ipv4Addr) {
    let mut topo = Topology::new();
    let asn = AsNumber(65_100);
    let routers: Vec<RouterId> = (0..4)
        .map(|i| {
            topo.add_router(
                format!("r{i}"),
                asn,
                Vendor::Cisco,
                Ipv4Addr::new(10, 255, 10, (i + 1) as u8),
            )
        })
        .collect();
    for i in 0..routers.len() - 1 {
        topo.add_link(
            routers[i],
            Ipv4Addr::new(10, 10, i as u8, 1),
            routers[i + 1],
            Ipv4Addr::new(10, 10, i as u8, 2),
            1,
        );
    }
    let target = topo.router(routers[3]).loopback;
    let spf = arest_topo::spf::DomainSpf::for_as(&topo, asn);
    let loopbacks: Vec<(RouterId, Ipv4Addr)> =
        routers.iter().map(|&r| (r, topo.router(r).loopback)).collect();
    let mut net = Network::new(topo);
    for &from in &routers {
        for &(to, lo) in &loopbacks {
            if from == to {
                continue;
            }
            if let Some((out_iface, next_router)) = spf.next_hop(from, to) {
                net.plane_mut(from).install_route(
                    Prefix::host(lo),
                    arest_simnet::plane::Route { out_iface, next_router },
                );
            }
        }
    }
    (net, routers, target)
}

fn probe(net: &Network, entry: RouterId, dst: Ipv4Addr, ttl: u8) -> ProbeReply {
    let spec = ProbeSpec {
        entry,
        src: Ipv4Addr::new(192, 0, 2, 1),
        dst,
        ttl,
        transport: TransportPayload::Udp { src_port: 33_434, dst_port: 33_434, ident: 7 },
    };
    net.probe(&spec, &mut Vec::new())
}

/// Runs one full pseudo-traceroute (TTL 1..=5) and returns the number
/// of allocations it performed.
fn allocations_per_trace(net: &Network, entry: RouterId, dst: Ipv4Addr) -> u64 {
    let before = allocations();
    for ttl in 1..=5u8 {
        let _ = probe(net, entry, dst, ttl);
    }
    allocations() - before
}

/// One test function on purpose (see `common`).
#[test]
fn disabled_observability_adds_no_allocations_to_the_probe_path() {
    // This test binary runs in its own process; nothing else touches
    // the global registry, and AREST_OBS is not set under `cargo test`
    // (tools/check.sh runs the instrumented builds separately).
    let registry = arest_obs::global();
    registry.set_enabled(false);

    let (net, routers, target) = chain_network();

    // Warm-up: the first probe initialises the simnet metrics
    // `LazyLock` (registration allocates, once per process) and any
    // lazily-built reply buffers.
    let _ = allocations_per_trace(&net, routers[0], target);

    // 1. Disabled handles alone: strictly zero allocations.
    let counter = registry.counter("no_alloc.test.counter");
    let histogram = registry.histogram("no_alloc.test.histogram");
    let gauge = registry.gauge("no_alloc.test.gauge");
    let metric_allocs = min_allocations(|| {
        for i in 0..100_000u64 {
            counter.inc();
            counter.add(3);
            gauge.add(1);
            gauge.set(-4);
            histogram.record(i);
            drop(registry.timer("no_alloc.test.timer.us"));
        }
    });
    assert_eq!(metric_allocs, 0, "disabled metric handles must never allocate");

    // 1b. Disabled spans: creation, field recording (including the
    // String-producing conversions, which must stay lazy), child
    // spans, context extraction, and drop — all strictly zero
    // allocations while the gate is off.
    let tracer = registry.tracer();
    drop(tracer.span("no_alloc.warmup")); // warm the tracer handle path
    let span_allocs = min_allocations(|| {
        for i in 0..100_000u64 {
            let mut span = tracer.span("no_alloc.test.span");
            span.record("iteration", i);
            span.record("label", "static text");
            let context = span.context();
            let mut child = tracer.span_with_parent("no_alloc.test.child", context);
            child.record("parent_active", u64::from(context.is_active()));
            drop(child.child("no_alloc.test.grandchild"));
        }
    });
    assert_eq!(span_allocs, 0, "disabled spans must never allocate");
    assert!(tracer.take_records().is_empty(), "disabled spans must record nothing");

    // 2. The probe path costs the same with observability on or off:
    // after warm-up, recording is atomics only. Each side takes the
    // minimum over a few runs for the same harness-noise reason.
    let disabled_cost = min_allocations(|| {
        let _ = allocations_per_trace(&net, routers[0], target);
    });
    registry.set_enabled(true);
    let _ = allocations_per_trace(&net, routers[0], target); // warm enabled paths
    let enabled_cost = min_allocations(|| {
        let _ = allocations_per_trace(&net, routers[0], target);
    });
    registry.set_enabled(false);
    assert_eq!(disabled_cost, enabled_cost, "instrumentation must not allocate on the probe path");

    // Sanity: the enabled window actually recorded probes.
    let snap = registry.snapshot();
    assert!(snap.counter("simnet.probes") >= 10, "snapshot: {:?}", snap.counters);
}
