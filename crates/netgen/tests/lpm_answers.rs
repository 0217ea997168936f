//! Pins what every longest-prefix match in a generated Internet
//! answers: each router's FIB and FTN, the anchor table behind
//! `Network::terminal_router`, and the ownership map bdrmapIT-style
//! annotation builds from `Internet::ownership`.
//!
//! The queries are every interface address and loopback, the first
//! and last address of every customer prefix, and each of those ±1,
//! so both sides of every stored boundary are asked. A FIB or
//! ownership answer hashes the matched prefix and its value; an FTN
//! answer hashes the push instruction (`Ftn::lookup` does not return
//! the prefix), an anchor answer the terminating router.
//!
//! A change to how `PrefixMap` stores or searches its entries must
//! leave these digests as they are; `-- --nocapture` prints them.

mod common;

use arest_netgen::internet::{generate_pooled, GenConfig, Internet};
use arest_obs::SpanContext;
use arest_topo::prefix::{Prefix, PrefixMap};
use common::Fnv;
use std::net::Ipv4Addr;

/// The query addresses, sorted and deduplicated.
fn queries(internet: &Internet) -> Vec<Ipv4Addr> {
    let topo = internet.net.topo();
    let mut seeds: Vec<u32> = topo
        .ifaces()
        .map(|iface| iface.addr)
        .chain(topo.routers().map(|router| router.loopback))
        .map(u32::from)
        .collect();
    for plan in &internet.plans {
        for (prefix, _) in &plan.customers {
            let first = u32::from(prefix.network());
            seeds.push(first);
            seeds.push(first.wrapping_add(prefix.size() - 1));
        }
    }
    let mut addrs: Vec<u32> =
        seeds.iter().flat_map(|&a| [a.wrapping_sub(1), a, a.wrapping_add(1)]).collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs.into_iter().map(Ipv4Addr::from).collect()
}

fn answer<T>(h: &mut Fnv, found: Option<(&Prefix, &T)>, value: impl FnOnce(&mut Fnv, &T)) {
    match found {
        Some((prefix, v)) => {
            h.bytes(&[1]);
            h.prefix(prefix);
            value(h, v);
        }
        None => h.bytes(&[0]),
    }
}

fn answers_digest(internet: &Internet) -> u64 {
    let queries = queries(internet);
    let mut h = Fnv::new();
    h.len(queries.len());
    for router in internet.net.topo().routers() {
        let plane = internet.net.plane(router.id);
        h.u32(router.id.0);
        h.len(plane.fib.len());
        h.len(plane.ftn.len());
        for &q in &queries {
            answer(&mut h, plane.fib.lookup(q), |h, route| {
                h.u32(route.out_iface.0);
                h.u32(route.next_router.0);
            });
            match plane.ftn.lookup(q) {
                Some(push) => {
                    h.bytes(&[1]);
                    h.push(push);
                }
                None => h.bytes(&[0]),
            }
        }
    }

    let ownership: PrefixMap<_> = internet.ownership.iter().copied().collect();
    h.len(ownership.len());
    for &q in &queries {
        answer(&mut h, ownership.lookup(q), |h, asn| h.u32(asn.0));
        match internet.net.terminal_router(q) {
            Some(router) => {
                h.bytes(&[1]);
                h.u32(router.0);
            }
            None => h.bytes(&[0]),
        }
    }
    h.0
}

fn digest(config: &GenConfig, mask: Option<&[bool]>) -> u64 {
    let workers = arest_tnt::pool::worker_count();
    let internet = generate_pooled(config, mask, workers, SpanContext::NONE);
    let digest = answers_digest(&internet);
    println!("lpm answers digest at {workers} worker(s): {digest:#018x}");
    digest
}

#[test]
fn tiny_answers_are_pinned() {
    assert_eq!(digest(&GenConfig::tiny(), None), 0x3531_d823_600f_4326);
}

#[test]
fn sliced_scaled_answers_are_pinned() {
    let config = GenConfig { catalog_scale: 2, ..GenConfig::tiny() };
    let mask: Vec<bool> = (0..120).map(|i| i % 3 == 0).collect();
    assert_eq!(digest(&config, Some(&mask)), 0x3568_5610_9afd_f0b6);
}
