//! The FNV-1a hasher, the deployed-tables digest and the IGP-answers
//! digest shared by the netgen integration tests.
//!
//! `RouterPlane` and `AsLabelRecord` hold hash maps, so their bytes
//! are fed to the hash in a canonical order: LFIB entries by label,
//! protection repairs by interface, label records by ASN and router.
//! Collisions keep their install order and the FTN its install order
//! (a `PrefixMap` iterates in first-insertion order), since both are
//! part of what a deploy produces.

// Each binary uses a subset of the helpers.
#![allow(dead_code)]

use arest_mpls::tables::{LfibAction, PushInstruction};
use arest_netgen::internet::Internet;
use arest_sr::block::LabelBlock;
use arest_topo::ids::RouterId;
use arest_topo::prefix::Prefix;
use arest_topo::spf::DomainSpf;
use std::collections::HashMap;

/// FNV-1a, 64-bit.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn len(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    pub fn action(&mut self, action: &LfibAction) {
        match *action {
            LfibAction::Swap { out_label, out_iface, next_router } => {
                self.bytes(&[0]);
                self.u32(out_label.value());
                self.u32(out_iface.0);
                self.u32(next_router.0);
            }
            LfibAction::PopForward { out_iface, next_router } => {
                self.bytes(&[1]);
                self.u32(out_iface.0);
                self.u32(next_router.0);
            }
            LfibAction::PopLocal => self.bytes(&[2]),
        }
    }

    pub fn prefix(&mut self, prefix: &Prefix) {
        self.bytes(&prefix.network().octets());
        self.bytes(&[prefix.len()]);
    }

    pub fn push(&mut self, push: &PushInstruction) {
        self.len(push.labels.len());
        for label in &push.labels {
            self.u32(label.value());
        }
        self.u32(push.out_iface.0);
        self.u32(push.next_router.0);
    }

    pub fn routers<T>(&mut self, map: &HashMap<RouterId, T>, mut value: impl FnMut(&mut Fnv, &T)) {
        let mut keys: Vec<RouterId> = map.keys().copied().collect();
        keys.sort_unstable();
        self.len(keys.len());
        for r in keys {
            self.u32(r.0);
            value(self, &map[&r]);
        }
    }

    pub fn block(&mut self, block: &LabelBlock) {
        self.u32(block.start());
        self.u32(block.size());
    }
}

/// The FNV-1a 64 of every router's deployed MPLS state, in `RouterId`
/// order — LFIB entries sorted by label, its collisions, the FTN, the
/// protection map — followed by every AS's label record in ASN order.
pub fn tables_digest(internet: &Internet) -> u64 {
    let mut h = Fnv::new();
    for router in internet.net.topo().routers() {
        let plane = internet.net.plane(router.id);
        h.u32(router.id.0);

        let mut lfib: Vec<_> = plane.lfib.iter().map(|(&l, &a)| (l, a)).collect();
        lfib.sort_unstable_by_key(|&(l, _)| l);
        h.len(lfib.len());
        for (label, action) in &lfib {
            h.u32(label.value());
            h.action(action);
        }
        h.len(plane.lfib.collisions().len());
        for (label, old, new) in plane.lfib.collisions() {
            h.u32(label.value());
            h.action(old);
            h.action(new);
        }

        h.len(plane.ftn.len());
        for (prefix, push) in plane.ftn.iter() {
            h.prefix(prefix);
            h.push(push);
        }

        let mut protection: Vec<_> = plane.protection.iter().collect();
        protection.sort_unstable_by_key(|&(iface, _)| *iface);
        h.len(protection.len());
        for (iface, push) in protection {
            h.u32(iface.0);
            h.push(push);
        }
    }

    let mut asns: Vec<_> = internet.label_records.keys().copied().collect();
    asns.sort_unstable();
    for asn in asns {
        let record = &internet.label_records[&asn];
        h.u32(asn.0);
        h.routers(&record.srgbs, Fnv::block);
        h.routers(&record.srlbs, Fnv::block);
        h.routers(&record.pool_floors, |h, &v| h.u32(v));
        h.routers(&record.pool_watermarks, |h, &v| h.u32(v));
        match record.max_sid_index {
            Some(index) => {
                h.bytes(&[1]);
                h.u32(index);
            }
            None => h.bytes(&[0]),
        }
    }
    h.0
}

/// The FNV-1a 64 of every IGP answer a generated Internet's domains
/// give: for each AS in catalog order, the SPF over its routers and
/// over its LDP and SR subsets (as the deploy step computes them),
/// every member pair's ordered ECMP set, reachability and primary slot
/// hop, then the distance and primary path from the first, middle and
/// last member toward every member.
pub fn igp_digest(internet: &Internet) -> u64 {
    let topo = internet.net.topo();
    let mut h = Fnv::new();
    for plan in &internet.plans {
        h.u32(plan.asn.0);
        for members in [&plan.routers, &plan.ldp_members, &plan.sr_members] {
            let spf = DomainSpf::for_members(topo, members);
            let members = spf.members();
            h.len(members.len());
            for (a, &from) in members.iter().enumerate() {
                for (b, &to) in members.iter().enumerate() {
                    let hops = spf.next_hops(from, to);
                    h.len(hops.len());
                    for (iface, next) in hops.iter() {
                        h.u32(iface.0);
                        h.u32(next.0);
                    }
                    h.bytes(&[u8::from(spf.reaches(a, b))]);
                    match spf.next_hop_slot(a, b) {
                        Some((iface, slot)) => {
                            h.u32(iface.0);
                            h.len(slot);
                        }
                        None => h.bytes(&[0xff]),
                    }
                }
            }
            let mut sources = vec![0, members.len() / 2, members.len().saturating_sub(1)];
            sources.dedup();
            for &from in sources.iter().filter_map(|&s| members.get(s)) {
                for &to in members {
                    h.u32(spf.distance(from, to).unwrap_or(u32::MAX));
                    let path = spf.path(from, to).unwrap_or_default();
                    h.len(path.len());
                    for r in path {
                        h.u32(r.0);
                    }
                }
            }
        }
    }
    h.0
}
