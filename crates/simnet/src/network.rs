//! The forwarding engine.

use crate::packet::{DropReason, ProbeReply, ProbeSpec, SimPacket, TransportPayload};
use crate::plane::RouterPlane;
use crate::walk::{received_at, Expiry, FlowWalk, Outcome, SymLse, SymStack, SymTtl, Terminal};
use arest_mpls::tables::LfibAction;
use arest_topo::graph::Topology;
use arest_topo::ids::{AsNumber, IfaceId, RouterId};
use arest_topo::prefix::{Prefix, PrefixMap};
use arest_topo::spf::DomainSpf;
use arest_wire::icmp::{write_error, ErrorKind};
use arest_wire::mpls::{LabelStack, Lse};
use std::collections::HashMap;
use std::iter::Copied;
use std::net::Ipv4Addr;
use std::ops::RangeInclusive;
use std::slice;

/// Safety bound on router visits per probe; anything beyond this is a
/// control-plane bug surfacing as a forwarding loop.
const MAX_VISITS: usize = 1_024;

/// The assembled network: topology plus per-router planes.
///
/// Besides per-router FIB entries, three shared structures keep
/// Internet-scale routing state sub-quadratic:
///
/// * **IGP domains** — one [`DomainSpf`] per AS answers "next hop from
///   here toward that router" for every intra-AS pair, standing in for
///   the loopback /32 routes the IGP would install on every router;
/// * **anchors** — prefixes terminated *at* a router (customer blocks
///   on an edge router): probes into an anchored prefix are answered
///   by the anchor as if the covered host replied;
/// * **exit maps** — per-AS longest-prefix tables naming the egress
///   border router for external destinations (the iBGP view).
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    planes: Vec<RouterPlane>,
    igp: HashMap<AsNumber, DomainSpf>,
    anchors: PrefixMap<RouterId>,
    exits: HashMap<AsNumber, PrefixMap<RouterId>>,
}

impl Network {
    /// Wraps a topology with default (pure-IP, fully visible) planes.
    pub fn new(topo: Topology) -> Network {
        let planes = (0..topo.router_count()).map(|_| RouterPlane::default()).collect();
        Network {
            topo,
            planes,
            igp: HashMap::new(),
            anchors: PrefixMap::new(),
            exits: HashMap::new(),
        }
    }

    /// Registers the IGP shortest-path oracle for one AS.
    pub fn register_igp(&mut self, asn: AsNumber, spf: DomainSpf) {
        self.igp.insert(asn, spf);
    }

    /// Anchors a prefix at a router: probes to any covered address are
    /// delivered there (the router answers on behalf of the covered
    /// hosts, e.g. a customer block on an edge router).
    pub fn anchor_prefix(&mut self, prefix: Prefix, router: RouterId) {
        self.anchors.insert(prefix, router);
    }

    /// Declares that, within `asn`, external destinations under
    /// `prefix` leave the AS at border router `exit`.
    pub fn register_exit(&mut self, asn: AsNumber, prefix: Prefix, exit: RouterId) {
        self.exits.entry(asn).or_default().insert(prefix, exit);
    }

    /// The router that terminates `addr`: its interface/loopback
    /// owner, or the anchor of a covering prefix.
    pub fn terminal_router(&self, addr: Ipv4Addr) -> Option<RouterId> {
        if let Some(router) = self.topo.router_by_any_addr(addr) {
            return Some(router.id);
        }
        self.anchors.lookup(addr).map(|(_, r)| *r)
    }

    /// The underlying topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to the topology (failure injection).
    pub fn topo_mut(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// A router's plane.
    pub fn plane(&self, r: RouterId) -> &RouterPlane {
        &self.planes[r.index()]
    }

    /// Mutable access to a router's plane (used by generators).
    pub fn plane_mut(&mut self, r: RouterId) -> &mut RouterPlane {
        &mut self.planes[r.index()]
    }

    /// Splits the network for a control plane compiling into it: the
    /// topology, and the planes of `members` in order — one per slot of
    /// a [`DomainSpf`] over them.
    ///
    /// # Panics
    /// Panics unless `members` are sorted, distinct routers of the
    /// network (as a `DomainSpf`'s members are).
    pub fn domain_planes_mut(
        &mut self,
        members: &[RouterId],
    ) -> (&Topology, Vec<&mut RouterPlane>) {
        let mut wanted = members.iter().map(|r| r.index()).peekable();
        let planes: Vec<&mut RouterPlane> = self
            .planes
            .iter_mut()
            .enumerate()
            .filter(|&(i, _)| wanted.next_if_eq(&i).is_some())
            .map(|(_, plane)| plane)
            .collect();
        assert!(wanted.next().is_none(), "domain members must be sorted, distinct routers");
        (&self.topo, planes)
    }

    /// Injects one probe and runs it to completion: a one-TTL
    /// [`walk`](Network::walk), answered into `reply_bytes` as
    /// [`reply`](Network::reply) does.
    pub fn probe(&self, spec: &ProbeSpec, reply_bytes: &mut Vec<u8>) -> ProbeReply {
        self.reply(&self.walk(spec, spec.ttl..=spec.ttl), spec, reply_bytes)
    }

    /// Forwards the Paris flow of `flow` once, resolving every probe
    /// TTL in `ttls` (`flow.ttl` and the probe ident are ignored —
    /// neither steers forwarding). Each TTL either expires at some
    /// router, recorded with the stack that router received and the IP
    /// TTL it quotes, or shares the walk's terminal outcome: delivery
    /// or a [`DropReason`]. The walk stops as soon as no TTL is left
    /// pending. See [`crate::walk`] for why this is exact.
    pub fn walk(&self, flow: &ProbeSpec, ttls: RangeInclusive<u8>) -> FlowWalk {
        let hi = i32::from(*ttls.end());
        // The lowest TTL not yet resolved; pending TTLs are next..=hi.
        let mut next = i32::from(*ttls.start());
        // Each expiry resolves at least one TTL of the range, so one
        // reservation holds them all.
        let mut expiries: Vec<Expiry> = Vec::with_capacity(ttls.len());
        let dst = flow.dst;
        let mut ip = SymTtl::PROBE;
        let mut stack: SymStack = Vec::new();
        let mut current = flow.entry;
        let mut incoming_iface: Option<IfaceId> = None;
        let mut received_labeled: Option<SymStack> = None;
        let mut hops: u8 = 0;
        let mut visits: u32 = 0;
        let flow_key = flow_hash(flow);
        // Who answers for the destination is the same at every visit.
        let dst_owner = self.topo.router_by_any_addr(dst).map(|r| r.id);
        let anchor = self.anchors.lookup(dst).map(|(_, r)| *r);
        let terminal = dst_owner.or(anchor);

        let terminal = loop {
            if next > hi {
                break None;
            }
            if visits as usize == MAX_VISITS {
                break Some(Terminal::Dropped(DropReason::HopBudgetExhausted));
            }
            visits += 1;
            let plane = &self.planes[current.index()];
            // Replies come from the incoming interface, or the loopback
            // at the entry router; only expiries need the address.
            let reply_src = move || {
                incoming_iface
                    .map_or(self.topo.router(current).loopback, |i| self.topo.iface(i).addr)
            };

            if let Some(&top) = stack.last() {
                // ---- MPLS visit ----
                // The pending TTLs whose top LSE reads ≤ 1 expire here,
                // quoting the stack as this router received it (as in
                // `forward`, a PopLocal keeps that stack for the next
                // pass at the same router).
                let action = plane.lfib.lookup(top.label);
                let pop_local = matches!(action, Some(LfibAction::PopLocal));
                let through = top.ttl.expiring_through().min(hi);
                let expiring = through >= next;
                let mut received = (expiring || pop_local)
                    .then(|| received_labeled.take().unwrap_or_else(|| stack.clone()));
                if expiring {
                    let quoted = if pop_local { received.clone() } else { received.take() };
                    expiries.push(Expiry {
                        last_ttl: through as u8,
                        router: current,
                        reply_src: reply_src(),
                        ip,
                        received: quoted,
                        hops,
                    });
                    next = through + 1;
                    if next > hi {
                        continue;
                    }
                }
                let top = stack.last_mut().expect("stack checked non-empty");
                top.ttl = top.ttl.decremented();
                let out = match action {
                    None => break Some(Terminal::Dropped(DropReason::NoLabelEntry)),
                    Some(LfibAction::Swap { out_label, out_iface, next_router }) => {
                        top.label = out_label;
                        (out_iface, next_router)
                    }
                    Some(LfibAction::PopForward { out_iface, next_router }) => {
                        pop_merge(&mut stack, &mut ip);
                        (out_iface, next_router)
                    }
                    Some(LfibAction::PopLocal) => {
                        pop_merge(&mut stack, &mut ip);
                        // Reprocess at this router; remember the stack
                        // it received so ICMP errors can quote it.
                        received_labeled = received;
                        continue;
                    }
                };
                match self.walk_hop(current, out, &mut stack, ip) {
                    Some((remote, next_router)) => {
                        incoming_iface = Some(remote);
                        current = next_router;
                        hops = hops.saturating_add(1);
                        received_labeled = None;
                    }
                    None => break Some(Terminal::Dropped(DropReason::NoRoute)),
                }
                continue;
            }

            // ---- IP visit ----
            if dst_owner == Some(current) {
                break Some(Terminal::Delivered {
                    router: current,
                    ip,
                    received: received_labeled,
                    hops,
                });
            }
            // The anchor and the transit router both decrement first;
            // the pending TTLs reading ≤ 1 expire here, quoting the IP
            // TTL they arrived with.
            let through = ip.expiring_through().min(hi);
            if through >= next {
                expiries.push(Expiry {
                    last_ttl: through as u8,
                    router: current,
                    reply_src: reply_src(),
                    ip,
                    received: received_labeled.take(),
                    hops,
                });
                next = through + 1;
                if next > hi {
                    continue;
                }
            }
            ip = ip.decremented();
            if anchor == Some(current) {
                // The virtual CE beyond the anchor answers, as plain IP.
                break Some(Terminal::Delivered {
                    router: current,
                    ip,
                    received: None,
                    hops: hops.saturating_add(1),
                });
            }
            let out = if let Some(push) = plane.ftn.lookup(dst) {
                let lse_ttl = if plane.ttl_propagate { ip } else { SymTtl::constant(255) };
                stack.extend(push.labels.iter().rev().map(|&label| SymLse { label, ttl: lse_ttl }));
                Some((push.out_iface, push.next_router))
            } else {
                self.route_ip(current, dst, terminal, flow_key)
                    .map(|r| (r.out_iface, r.next_router))
            };
            match out.and_then(|out| self.walk_hop(current, out, &mut stack, ip)) {
                Some((remote, next_router)) => {
                    incoming_iface = Some(remote);
                    current = next_router;
                    hops = hops.saturating_add(1);
                    received_labeled = None;
                }
                None => break Some(Terminal::Dropped(DropReason::NoRoute)),
            }
        };
        crate::obs::METRICS.record_walk(visits);
        FlowWalk { flow: flow_key, entry: flow.entry, src: flow.src, dst, ttls, expiries, terminal }
    }

    /// The reply to one probe of `walk`'s flow, built and encoded for
    /// this probe alone (its own TTL and ident) and accounted once in
    /// `simnet.*`.
    ///
    /// A time-exceeded or destination-unreachable reply is encoded as
    /// ICMP bytes into `reply_bytes`, replacing its contents; any
    /// other reply leaves it empty. Reusing one buffer across probes
    /// makes a reply allocation-free: the received label stack goes
    /// straight from the walk's symbolic stack, evaluated at the
    /// probe's TTL, into the encoder.
    ///
    /// # Panics
    ///
    /// If `spec` is not a probe of the walk ([`FlowWalk::serves`]): a
    /// foreign probe must never be answered from another flow's path.
    pub fn reply(
        &self,
        walk: &FlowWalk,
        spec: &ProbeSpec,
        reply_bytes: &mut Vec<u8>,
    ) -> ProbeReply {
        assert!(walk.serves(spec), "probe {spec:?} is not on the walked flow");
        reply_bytes.clear();
        let ttl = spec.ttl;
        let mut pkt = spec.packet();
        let reply = match walk.outcome(ttl) {
            Outcome::Expired(expiry) => {
                pkt.ip.ttl = expiry.ip.at(ttl);
                let received = received_at(expiry.received.as_deref(), ttl);
                let (router, src, hops) = (expiry.router, expiry.reply_src, expiry.hops);
                self.time_exceeded(router, src, &pkt, received, hops, reply_bytes)
            }
            Outcome::Terminal(Terminal::Delivered { router, ip, received, hops }) => {
                pkt.ip.ttl = ip.at(ttl);
                let received = received_at(received.as_deref(), ttl);
                self.deliver(*router, &pkt, received, *hops, reply_bytes)
            }
            Outcome::Terminal(Terminal::Dropped(reason)) => ProbeReply::Silent(*reason),
        };
        crate::obs::METRICS.record(&reply);
        reply
    }

    /// Crosses `out` from `current` on a walk, through the TI-LFA
    /// repair when its link is down: `hop` plus `try_repair`, on the
    /// symbolic stack.
    fn walk_hop(
        &self,
        current: RouterId,
        (out_iface, next_router): (IfaceId, RouterId),
        stack: &mut SymStack,
        ip: SymTtl,
    ) -> Option<(IfaceId, RouterId)> {
        if let Some(remote) = self.hop(out_iface) {
            return Some((remote, next_router));
        }
        let repair = self.planes[current.index()].protection.get(&out_iface)?;
        let remote = self.hop(repair.out_iface)?;
        let lse_ttl = stack.last().map_or(ip, |l| l.ttl);
        stack.extend(repair.labels.iter().rev().map(|&label| SymLse { label, ttl: lse_ttl }));
        Some((remote, repair.next_router))
    }

    /// The per-TTL forwarding loop: one probe, forwarded from scratch
    /// and not accounted in `simnet.*`, its reply bytes encoded into
    /// `reply_bytes` as [`reply`](Network::reply) does.
    ///
    /// This is the **reference** the walk is tested against: the
    /// differential tests check that [`reply`](Network::reply) on a
    /// [`walk`](Network::walk) returns, byte for byte, what this loop
    /// returns for each TTL. Probing goes through the walk; nothing in
    /// production calls this.
    pub fn forward(&self, spec: &ProbeSpec, reply_bytes: &mut Vec<u8>) -> ProbeReply {
        reply_bytes.clear();
        // The flow key: per-flow load balancers hash the 5-tuple. The
        // Paris design keeps it constant across a trace (ports fixed,
        // ident in the checksum), so every probe of one trace follows
        // one ECMP choice.
        let flow = flow_hash(spec);
        let mut pkt = spec.packet();
        let mut current = spec.entry;
        let mut incoming_iface: Option<IfaceId> = None;
        // Set when the packet arrived at `current` carrying labels that
        // were popped locally — RFC 4950 quoting still applies then.
        let mut received_labeled: Option<LabelStack> = None;
        let mut hops: u8 = 0;

        for _ in 0..MAX_VISITS {
            let plane = &self.planes[current.index()];
            let reply_src = incoming_iface
                .map_or(self.topo.router(current).loopback, |i| self.topo.iface(i).addr);

            if !pkt.stack.is_empty() {
                // ---- MPLS visit ----
                // RFC 4950 quotes the stack of the packet *as received
                // by this router*: when a PopLocal loops back here with
                // a shorter stack, the quote still shows what arrived.
                // The quote is materialized only when someone will use
                // it — imminent TTL expiry or a PopLocal — so the hot
                // Swap/PopForward path never clones the stack.
                let top = *pkt.stack.top().expect("stack checked non-empty");
                let action = plane.lfib.lookup(top.label);
                let received = (top.ttl <= 1 || matches!(action, Some(LfibAction::PopLocal)))
                    .then(|| received_labeled.take().unwrap_or_else(|| pkt.stack.clone()));
                let ttl = pkt.stack.decrement_ttl().expect("stack checked non-empty");
                if ttl == 0 {
                    let received = received_entries(&received);
                    return self.time_exceeded(
                        current,
                        reply_src,
                        &pkt,
                        received,
                        hops,
                        reply_bytes,
                    );
                }
                match action {
                    None => return ProbeReply::Silent(DropReason::NoLabelEntry),
                    Some(LfibAction::Swap { out_label, out_iface, next_router }) => {
                        pkt.stack.swap(out_label);
                        match self
                            .hop(out_iface)
                            .map(|r| (r, next_router))
                            .or_else(|| self.try_repair(current, out_iface, &mut pkt))
                        {
                            Some((remote, next)) => {
                                incoming_iface = Some(remote);
                                current = next;
                                hops = hops.saturating_add(1);
                                received_labeled = None;
                            }
                            None => return ProbeReply::Silent(DropReason::NoRoute),
                        }
                    }
                    Some(LfibAction::PopForward { out_iface, next_router }) => {
                        let popped = pkt.stack.pop().expect("non-empty");
                        merge_ttl_down(&mut pkt, popped.ttl);
                        match self
                            .hop(out_iface)
                            .map(|r| (r, next_router))
                            .or_else(|| self.try_repair(current, out_iface, &mut pkt))
                        {
                            Some((remote, next)) => {
                                incoming_iface = Some(remote);
                                current = next;
                                hops = hops.saturating_add(1);
                                received_labeled = None;
                            }
                            None => return ProbeReply::Silent(DropReason::NoRoute),
                        }
                    }
                    Some(LfibAction::PopLocal) => {
                        let popped = pkt.stack.pop().expect("non-empty");
                        merge_ttl_down(&mut pkt, popped.ttl);
                        // Reprocess at this router; remember the stack
                        // we received so ICMP errors can quote it.
                        received_labeled = received;
                    }
                }
                continue;
            }

            // ---- IP visit ----
            // Delivery check precedes the TTL decrement: a destination
            // host consumes the packet rather than forwarding it.
            if self.topo.router_by_any_addr(pkt.ip.dst_addr).is_some_and(|r| r.id == current) {
                // The probed address belongs to this router itself: it
                // answers directly, quoting any received label stack.
                let received = received_entries(&received_labeled);
                return self.deliver(current, &pkt, received, hops, reply_bytes);
            }
            if self.anchors.lookup(pkt.ip.dst_addr).map(|(_, r)| *r) == Some(current) {
                // The probed address sits in a customer prefix anchored
                // here: this router is the provider edge, and the
                // actual destination (the virtual CE) is one IP hop
                // beyond it. The PE decrements and may expire the probe
                // (quoting its received labels); otherwise the CE
                // answers — as plain IP, because MPLS never reaches the
                // customer side.
                let received_ttl = pkt.ip.ttl;
                pkt.ip.ttl = pkt.ip.ttl.saturating_sub(1);
                if pkt.ip.ttl == 0 {
                    // Quote the packet as received: restore the TTL in
                    // place — nothing reads the decremented copy after
                    // this return.
                    pkt.ip.ttl = received_ttl;
                    let received = received_entries(&received_labeled);
                    return self.time_exceeded(
                        current,
                        reply_src,
                        &pkt,
                        received,
                        hops,
                        reply_bytes,
                    );
                }
                let hops = hops.saturating_add(1);
                return self.deliver(current, &pkt, received_entries(&None), hops, reply_bytes);
            }
            let received_ttl = pkt.ip.ttl;
            pkt.ip.ttl = pkt.ip.ttl.saturating_sub(1);
            if pkt.ip.ttl == 0 {
                // As above: restore the received TTL in place for the
                // RFC 4950 quote instead of cloning the whole packet.
                pkt.ip.ttl = received_ttl;
                let received = received_entries(&received_labeled);
                return self.time_exceeded(current, reply_src, &pkt, received, hops, reply_bytes);
            }

            // Ingress encapsulation: FTN first (MPLS/SR preferred over
            // plain IP). Deliberately NO owner-loopback fallback here:
            // LDP/SR bind FECs to loopbacks and customer prefixes, not
            // to link subnets, which is why probing an interface
            // address rides plain IP — the property TNT's revelation
            // techniques (DPR/BRPR) exploit to expose hidden tunnels.
            if let Some(push) = plane.ftn.lookup(pkt.ip.dst_addr) {
                if !push.labels.is_empty() {
                    let lse_ttl = if plane.ttl_propagate { pkt.ip.ttl } else { 255 };
                    for &label in push.labels.iter().rev() {
                        pkt.stack.push(label, lse_ttl);
                    }
                }
                match self
                    .hop(push.out_iface)
                    .map(|r| (r, push.next_router))
                    .or_else(|| self.try_repair(current, push.out_iface, &mut pkt))
                {
                    Some((remote, next)) => {
                        incoming_iface = Some(remote);
                        current = next;
                        hops = hops.saturating_add(1);
                        received_labeled = None;
                        continue;
                    }
                    None => return ProbeReply::Silent(DropReason::NoRoute),
                }
            }

            // Plain IP routing.
            let terminal = self.terminal_router(pkt.ip.dst_addr);
            match self.route_ip(current, pkt.ip.dst_addr, terminal, flow) {
                Some(route) => match self
                    .hop(route.out_iface)
                    .map(|r| (r, route.next_router))
                    .or_else(|| self.try_repair(current, route.out_iface, &mut pkt))
                {
                    Some((remote, next)) => {
                        incoming_iface = Some(remote);
                        current = next;
                        hops = hops.saturating_add(1);
                        received_labeled = None;
                    }
                    None => return ProbeReply::Silent(DropReason::NoRoute),
                },
                None => return ProbeReply::Silent(DropReason::NoRoute),
            }
        }
        ProbeReply::Silent(DropReason::HopBudgetExhausted)
    }

    /// The IP routing decision at `current` for `dst`, in lookup
    /// order: explicit FIB entry, intra-AS IGP shortest path toward
    /// the terminal router, per-AS exit map toward the egress border,
    /// FIB entry for the terminal router's loopback. `terminal` is
    /// [`terminal_router`](Network::terminal_router)`(dst)`. IGP
    /// decisions hash `flow` over the equal-cost next-hop set (ECMP).
    fn route_ip(
        &self,
        current: RouterId,
        dst: Ipv4Addr,
        terminal: Option<RouterId>,
        flow: u64,
    ) -> Option<crate::plane::Route> {
        let plane = &self.planes[current.index()];
        if let Some((_, route)) = plane.fib.lookup(dst) {
            return Some(*route);
        }
        let asn = self.topo.router(current).asn;
        if let Some(terminal) = terminal {
            if self.topo.router(terminal).asn == asn {
                if let Some(route) = self.igp_route(asn, current, terminal, flow) {
                    return Some(route);
                }
            }
        }
        if let Some(exits) = self.exits.get(&asn) {
            if let Some((_, &exit)) = exits.lookup(dst) {
                if exit != current {
                    if let Some(route) = self.igp_route(asn, current, exit, flow) {
                        return Some(route);
                    }
                }
            }
        }
        let loopback = self.topo.router(terminal?).loopback;
        plane.fib.lookup(loopback).map(|(_, r)| *r)
    }

    /// The per-flow ECMP choice among the IGP's equal-cost next hops.
    fn igp_route(
        &self,
        asn: AsNumber,
        from: RouterId,
        to: RouterId,
        flow: u64,
    ) -> Option<crate::plane::Route> {
        let hops = self.igp.get(&asn)?.next_hops(from, to);
        if hops.is_empty() {
            return None;
        }
        // Mix the local router in, as real ECMP hashes do: two routers
        // on the path make independent choices for the same flow.
        let slot = (flow ^ u64::from(from.0).wrapping_mul(0x9e37_79b9)) as usize % hops.len();
        let (out_iface, next_router) = hops[slot];
        Some(crate::plane::Route { out_iface, next_router })
    }

    /// Crosses a link: the remote interface of `out_iface`, if up.
    fn hop(&self, out_iface: IfaceId) -> Option<IfaceId> {
        self.topo.remote_iface(out_iface).map(|i| i.id)
    }

    /// TI-LFA local repair: when `out_iface`'s link is down and the
    /// router holds a precomputed repair for it, prepend the repair
    /// labels and redirect onto the repair path. Returns the remote
    /// incoming interface and next router, or `None` when the traffic
    /// is unprotected (or the repair path is down too).
    fn try_repair(
        &self,
        current: RouterId,
        out_iface: IfaceId,
        pkt: &mut SimPacket,
    ) -> Option<(IfaceId, RouterId)> {
        let repair = self.planes[current.index()].protection.get(&out_iface)?;
        let remote = self.hop(repair.out_iface)?;
        let lse_ttl = pkt.stack.top().map_or(pkt.ip.ttl, |l| l.ttl);
        for &label in repair.labels.iter().rev() {
            pkt.stack.push(label, lse_ttl);
        }
        Some((remote, repair.next_router))
    }

    /// The time-exceeded `router` sends for `pkt`, encoded into
    /// `reply_bytes`. `received` is the label stack the router
    /// received, top entry first (empty for plain IP); it is quoted
    /// only by an RFC 4950 router.
    fn time_exceeded(
        &self,
        router: RouterId,
        reply_src: Ipv4Addr,
        pkt: &SimPacket,
        received: impl ExactSizeIterator<Item = Lse>,
        hops: u8,
        reply_bytes: &mut Vec<u8>,
    ) -> ProbeReply {
        if !self.planes[router.index()].icmp_enabled {
            return ProbeReply::Silent(DropReason::IcmpDisabled);
        }
        if !self.encode_error(router, ErrorKind::TimeExceeded, pkt, received, reply_bytes) {
            return ProbeReply::Silent(DropReason::ReplyUnencodable);
        }
        let vendor = self.topo.router(router).vendor;
        ProbeReply::TimeExceeded {
            from: reply_src,
            reply_ttl: vendor.time_exceeded_initial_ttl().saturating_sub(hops),
            forward_hops: hops,
        }
    }

    /// The reply of the router answering for `pkt`'s destination: a
    /// port unreachable (encoded into `reply_bytes`, quoting
    /// `received` like [`time_exceeded`](Network::time_exceeded)) or
    /// an echo reply.
    fn deliver(
        &self,
        router: RouterId,
        pkt: &SimPacket,
        received: impl ExactSizeIterator<Item = Lse>,
        hops: u8,
        reply_bytes: &mut Vec<u8>,
    ) -> ProbeReply {
        let plane = &self.planes[router.index()];
        let vendor = self.topo.router(router).vendor;
        match pkt.transport {
            TransportPayload::Udp { .. } => {
                if !plane.icmp_enabled {
                    return ProbeReply::Silent(DropReason::TargetSilent);
                }
                let port_unreachable = ErrorKind::DestUnreachable(3);
                if !self.encode_error(router, port_unreachable, pkt, received, reply_bytes) {
                    return ProbeReply::Silent(DropReason::ReplyUnencodable);
                }
                ProbeReply::DestUnreachable {
                    from: pkt.ip.dst_addr,
                    reply_ttl: vendor.time_exceeded_initial_ttl().saturating_sub(hops),
                    forward_hops: hops,
                }
            }
            TransportPayload::Echo { .. } => {
                if !plane.answers_echo {
                    return ProbeReply::Silent(DropReason::TargetSilent);
                }
                ProbeReply::EchoReply {
                    from: pkt.ip.dst_addr,
                    reply_ttl: vendor.echo_reply_initial_ttl().saturating_sub(hops),
                    forward_hops: hops,
                }
            }
        }
    }

    /// Encodes `router`'s ICMP error for `pkt` into `reply_bytes`:
    /// the 28-byte quote plus, at an RFC 4950 router, the received
    /// stack. False when the reply cannot be encoded.
    fn encode_error(
        &self,
        router: RouterId,
        kind: ErrorKind,
        pkt: &SimPacket,
        received: impl ExactSizeIterator<Item = Lse>,
        reply_bytes: &mut Vec<u8>,
    ) -> bool {
        let quoted = if self.planes[router.index()].rfc4950 { received.len() } else { 0 };
        pkt.quoted_datagram()
            .and_then(|quote| write_error(reply_bytes, kind, &quote, received.take(quoted)))
            .is_ok()
    }
}

/// The 5-tuple flow hash per-flow load balancers use.
pub(crate) fn flow_hash(spec: &ProbeSpec) -> u64 {
    let (a, b) = match spec.transport {
        TransportPayload::Udp { src_port, dst_port, .. } => (src_port, dst_port),
        TransportPayload::Echo { ident, .. } => (ident, 0),
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in
        [u64::from(u32::from(spec.src)), u64::from(u32::from(spec.dst)), u64::from(a), u64::from(b)]
    {
        h ^= chunk;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A concrete received stack's entries, top first (none for plain IP).
fn received_entries(stack: &Option<LabelStack>) -> Copied<slice::Iter<'_, Lse>> {
    stack.as_ref().map_or(&[][..], LabelStack::entries).iter().copied()
}

/// [`merge_ttl_down`] on a walk: pops the symbolic top entry and
/// merges its TTL into the exposed one.
fn pop_merge(stack: &mut SymStack, ip: &mut SymTtl) {
    let popped = stack.pop().expect("stack checked non-empty");
    match stack.last_mut() {
        Some(top) => top.ttl = top.ttl.min(popped.ttl),
        None => *ip = ip.min(popped.ttl),
    }
}

/// RFC 3443 TTL merge on pop: the exposed TTL (next label or the IP
/// header) never exceeds the popped one. Short-pipe tunnels (LSE
/// pushed at 255) therefore leave the IP TTL untouched; uniform
/// tunnels (propagated TTL) carry their decrements out.
fn merge_ttl_down(pkt: &mut SimPacket, popped_ttl: u8) {
    if let Some(top) = pkt.stack.top_mut() {
        top.ttl = top.ttl.min(popped_ttl);
    } else {
        pkt.ip.ttl = pkt.ip.ttl.min(popped_ttl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::Route;
    use arest_mpls::ldp::{LdpDomain, LdpFec};
    use arest_mpls::pool::DynamicLabelPool;
    use arest_sr::block::{cisco_srgb, cisco_srlb};
    use arest_sr::domain::{SrDomain, SrDomainSpec, SrNodeConfig};
    use arest_topo::ids::AsNumber;
    use arest_topo::prefix::Prefix;
    use arest_topo::vendor::Vendor;
    use arest_wire::icmp::IcmpMessage;
    use arest_wire::ipv4::Ipv4Packet;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }

    /// Linear topology: VPGW(R0) - R1 - R2 - R3 - R4(target holder).
    /// The target prefix 203.0.113.0/24 is owned by R4 (delivery to
    /// its interface addresses tests use the loopback).
    struct Net {
        net: Network,
        r: Vec<RouterId>,
        target: Ipv4Addr, // R4's loopback
    }

    fn chain(n: usize) -> (Topology, Vec<RouterId>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_100);
        let routers: Vec<RouterId> = (0..n)
            .map(|i| {
                topo.add_router(format!("r{i}"), asn, Vendor::Cisco, ip(10, 255, 10, (i + 1) as u8))
            })
            .collect();
        for i in 0..n - 1 {
            topo.add_link(
                routers[i],
                ip(10, 10, i as u8, 1),
                routers[i + 1],
                ip(10, 10, i as u8, 2),
                1,
            );
        }
        (topo, routers)
    }

    /// Installs plain IP routes along the chain toward every loopback.
    fn install_ip_routes(net: &mut Network, routers: &[RouterId]) {
        let spf = arest_topo::spf::DomainSpf::for_members(net.topo(), routers);
        let loopbacks: Vec<(RouterId, Ipv4Addr)> =
            routers.iter().map(|&r| (r, net.topo().router(r).loopback)).collect();
        for &from in routers {
            for &(to, lo) in &loopbacks {
                if from == to {
                    continue;
                }
                if let Some((out_iface, next_router)) = spf.next_hop(from, to) {
                    net.plane_mut(from)
                        .install_route(Prefix::host(lo), Route { out_iface, next_router });
                }
            }
        }
    }

    fn plain_ip_net() -> Net {
        let (topo, r) = chain(5);
        let target = topo.router(r[4]).loopback;
        let mut net = Network::new(topo);
        install_ip_routes(&mut net, &r);
        Net { net, r, target }
    }

    fn probe(net: &Net, ttl: u8) -> ProbeReply {
        probe_bytes(net, ttl).0
    }

    /// A probe's reply and the ICMP bytes it came back as.
    fn probe_bytes(net: &Net, ttl: u8) -> (ProbeReply, Vec<u8>) {
        let mut raw = Vec::new();
        let reply = net.net.probe(
            &ProbeSpec {
                entry: net.r[0],
                src: ip(192, 0, 2, 1),
                dst: net.target,
                ttl,
                transport: TransportPayload::Udp { src_port: 33_434, dst_port: 33_434, ident: 77 },
            },
            &mut raw,
        );
        (reply, raw)
    }

    #[test]
    fn ip_traceroute_reveals_every_hop() {
        let net = plain_ip_net();
        // TTL 1 expires at the entry router R0 itself.
        match probe_bytes(&net, 1) {
            (ProbeReply::TimeExceeded { from, .. }, raw) => {
                assert_eq!(from, net.net.topo().router(net.r[0]).loopback);
                let msg = IcmpMessage::parse(&raw).unwrap();
                assert!(msg.mpls_extension().is_none());
            }
            other => panic!("expected TE, got {other:?}"),
        }
        // TTLs 2..=4 expire at R1..R3, replying from the incoming iface.
        for (ttl, idx) in [(2u8, 1usize), (3, 2), (4, 3)] {
            match probe(&net, ttl) {
                ProbeReply::TimeExceeded { from, .. } => {
                    assert_eq!(from, ip(10, 10, (idx - 1) as u8, 2), "hop {idx}");
                }
                other => panic!("ttl {ttl}: expected TE, got {other:?}"),
            }
        }
        // TTL 5 reaches R4's loopback: port unreachable from the target.
        match probe_bytes(&net, 5) {
            (ProbeReply::DestUnreachable { from, .. }, raw) => {
                assert_eq!(from, net.target);
                let msg = IcmpMessage::parse(&raw).unwrap();
                match msg {
                    IcmpMessage::DestUnreachable { code, .. } => assert_eq!(code, 3),
                    _ => panic!("wrong variant"),
                }
            }
            other => panic!("expected port unreachable, got {other:?}"),
        }
    }

    #[test]
    fn quoted_datagram_round_trips_paris_ident() {
        let net = plain_ip_net();
        if let (ProbeReply::TimeExceeded { .. }, raw) = probe_bytes(&net, 3) {
            let msg = IcmpMessage::parse(&raw).unwrap();
            let quoted = msg.original_datagram().unwrap();
            let udp = arest_wire::udp::UdpPacket::new_unchecked(&quoted[20..]);
            assert_eq!(udp.checksum(), 77, "ident survives the quote");
        } else {
            panic!("expected TE");
        }
    }

    #[test]
    fn icmp_disabled_router_is_silent() {
        let mut net = plain_ip_net();
        net.net.plane_mut(net.r[2]).icmp_enabled = false;
        match probe(&net, 3) {
            ProbeReply::Silent(DropReason::IcmpDisabled) => {}
            other => panic!("expected silence, got {other:?}"),
        }
        // Other hops still answer.
        assert!(matches!(probe(&net, 2), ProbeReply::TimeExceeded { .. }));
    }

    #[test]
    fn echo_request_gets_vendor_ttl_reply() {
        let net = plain_ip_net();
        let reply = net.net.probe(
            &ProbeSpec {
                entry: net.r[0],
                src: ip(192, 0, 2, 1),
                dst: net.target,
                ttl: 64,
                transport: TransportPayload::Echo { ident: 1, seq: 1 },
            },
            &mut Vec::new(),
        );
        match reply {
            ProbeReply::EchoReply { from, reply_ttl, forward_hops } => {
                assert_eq!(from, net.target);
                assert_eq!(forward_hops, 4);
                // Cisco echo-reply initial TTL 255 minus 4 return hops.
                assert_eq!(reply_ttl, 251);
            }
            other => panic!("expected echo reply, got {other:?}"),
        }
    }

    #[test]
    fn no_route_is_silent() {
        let net = plain_ip_net();
        let reply = net.net.probe(
            &ProbeSpec {
                entry: net.r[0],
                src: ip(192, 0, 2, 1),
                dst: ip(8, 8, 8, 8),
                ttl: 64,
                transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 3 },
            },
            &mut Vec::new(),
        );
        assert!(matches!(reply, ProbeReply::Silent(DropReason::NoRoute)));
    }

    // ---- MPLS tunnels: the four visibility types ----

    /// Builds the chain with an LDP tunnel R1→R3 (ingress R1, egress
    /// R3) for the target FEC, with the requested visibility.
    fn ldp_net(ttl_propagate: bool, rfc4950: bool, php: bool) -> Net {
        let (topo, r) = chain(5);
        let target = topo.router(r[4]).loopback;
        let fec = Prefix::host(target);
        let members = vec![r[1], r[2], r[3]];
        let spf = DomainSpf::for_members(&topo, &members);
        let mut pools: Vec<DynamicLabelPool> = spf
            .members()
            .iter()
            .map(|&m| DynamicLabelPool::classic(u64::from(m.0) * 13 + 5))
            .collect();
        let domain =
            LdpDomain::build(&spf, &[LdpFec { prefix: fec, egress: r[3] }], &mut pools, php);
        let mut net = Network::new(topo);
        install_ip_routes(&mut net, &r);
        domain.install(&mut net.domain_planes_mut(spf.members()).1, |_| &[]);
        for &m in &members {
            net.plane_mut(m).ttl_propagate = ttl_propagate;
            net.plane_mut(m).rfc4950 = rfc4950;
        }
        Net { net, r, target }
    }

    #[test]
    fn explicit_tunnel_quotes_lses() {
        let net = ldp_net(true, true, true);
        // Hop 3 is R2, inside the LSP: the TE must carry an extension.
        match probe_bytes(&net, 3) {
            (ProbeReply::TimeExceeded { .. }, raw) => {
                let msg = IcmpMessage::parse(&raw).unwrap();
                let ext = msg.mpls_extension().expect("explicit tunnels quote the stack");
                assert_eq!(ext.stack.depth(), 1);
                // The quoted (received) LSE TTL is 1: about to expire.
                assert_eq!(ext.stack.top().unwrap().ttl, 1);
            }
            other => panic!("expected TE, got {other:?}"),
        }
    }

    #[test]
    fn implicit_tunnel_reveals_hops_without_lses() {
        let net = ldp_net(true, false, true);
        match probe_bytes(&net, 3) {
            (ProbeReply::TimeExceeded { from, .. }, raw) => {
                let msg = IcmpMessage::parse(&raw).unwrap();
                assert!(msg.mpls_extension().is_none(), "no RFC 4950 quote");
                assert_eq!(from, ip(10, 10, 1, 2), "interior hop still visible");
            }
            other => panic!("expected TE, got {other:?}"),
        }
    }

    #[test]
    fn opaque_tunnel_reveals_only_ending_hop_with_lse() {
        // no-propagate + RFC 4950 + no PHP: the egress receives the
        // label, pops locally, and its IP TTL expiry quotes the LSE.
        let net = ldp_net(false, true, false);
        // Probes that would have expired inside the tunnel (ttl 3)
        // sail through (LSE TTL 255) and expire at the egress R3,
        // whose reply quotes the label it received.
        match probe_bytes(&net, 3) {
            (ProbeReply::TimeExceeded { from, .. }, raw) => {
                assert_eq!(from, ip(10, 10, 2, 2), "the ending hop R3");
                let msg = IcmpMessage::parse(&raw).unwrap();
                let ext = msg.mpls_extension().expect("EH quotes the received stack");
                assert_eq!(ext.stack.depth(), 1);
                assert!(ext.stack.top().unwrap().ttl > 200, "LSE TTL stayed near 255");
            }
            other => panic!("expected TE from EH, got {other:?}"),
        }
    }

    #[test]
    fn invisible_tunnel_hides_interior_entirely() {
        // no-propagate + PHP: interior LSRs never see a TTL expiry and
        // the packet emerges unlabeled; nothing quotes an LSE.
        let net = ldp_net(false, true, true);
        let mut seen = Vec::new();
        for ttl in 1..=6u8 {
            if let (ProbeReply::TimeExceeded { from, .. }, raw) = probe_bytes(&net, ttl) {
                let msg = IcmpMessage::parse(&raw).unwrap();
                assert!(msg.mpls_extension().is_none(), "ttl {ttl} must not quote LSE");
                seen.push(from);
            }
        }
        // Interior hop R2 (10.10.1.2) never appears.
        assert!(!seen.contains(&ip(10, 10, 1, 2)), "hidden interior leaked: {seen:?}");
    }

    // ---- SR-MPLS ----

    /// The chain with an SR domain over R1..R3 (Cisco defaults) and
    /// target FEC anchored at R3 via a prefix SID.
    fn sr_net(php: bool) -> Net {
        let (topo, r) = chain(5);
        let target = topo.router(r[4]).loopback;
        let members = vec![r[1], r[2], r[3]];
        let configs = vec![SrNodeConfig { srgb: cisco_srgb(), srlb: Some(cisco_srlb()) }; 3];
        let spec = SrDomainSpec {
            members,
            configs,
            extra_prefix_sids: vec![arest_sr::sid::PrefixSidSpec {
                prefix: Prefix::host(target),
                egress: r[3],
                index: arest_sr::sid::SidIndex(500),
            }],
            php,
            install_node_ftn: true,
            node_sid_base: 100,
        };
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let mut net = Network::new(topo);
        install_ip_routes(&mut net, &r);
        let (topo, mut planes) = net.domain_planes_mut(spf.members());
        let no_pools: &mut [DynamicLabelPool] = &mut [];
        SrDomain::build(topo, &spec, &spf, no_pools, &mut planes);
        Net { net, r, target }
    }

    #[test]
    fn sr_tunnel_shows_same_label_on_consecutive_hops() {
        let net = sr_net(false);
        let mut labels = Vec::new();
        for ttl in 1..=6u8 {
            if let (ProbeReply::TimeExceeded { .. }, raw) = probe_bytes(&net, ttl) {
                let msg = IcmpMessage::parse(&raw).unwrap();
                if let Some(ext) = msg.mpls_extension() {
                    labels.push(ext.stack.top().unwrap().label.value());
                }
            }
        }
        // R2 and R3 both see the prefix SID label 16,500 — the
        // persistence AReST's CO/CVR flags key on. Without PHP the
        // egress occupies two TTL slots (it decrements the LSE TTL on
        // the MPLS pass and the IP TTL after popping — the well-known
        // "extra hop" artifact of no-PHP tunnels), and both of its
        // replies quote the received label.
        assert_eq!(labels, vec![16_500, 16_500, 16_500]);
    }

    #[test]
    fn sr_php_hides_label_at_final_segment_hop() {
        let net = sr_net(true);
        let mut labels = Vec::new();
        for ttl in 1..=6u8 {
            if let (ProbeReply::TimeExceeded { .. }, raw) = probe_bytes(&net, ttl) {
                let msg = IcmpMessage::parse(&raw).unwrap();
                if let Some(ext) = msg.mpls_extension() {
                    labels.push(ext.stack.top().unwrap().label.value());
                }
            }
        }
        // Ingress R1 pushes toward R2; R2 sees the label, then pops
        // (penultimate to the R3 segment egress).
        assert_eq!(labels, vec![16_500]);
    }

    #[test]
    fn delivery_still_works_through_sr() {
        let net = sr_net(false);
        match probe(&net, 10) {
            ProbeReply::DestUnreachable { from, .. } => assert_eq!(from, net.target),
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    // ---- ECMP and Paris flow stability ----

    /// A diamond: GW — {B, C} — D(target holder), equal costs.
    fn diamond() -> (Network, Vec<RouterId>, Ipv4Addr) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_101);
        let r: Vec<RouterId> = (0..4)
            .map(|i| topo.add_router(format!("d{i}"), asn, Vendor::Cisco, ip(10, 254, 2, i + 1)))
            .collect();
        for (k, (a, b)) in [(0usize, 1usize), (0, 2), (1, 3), (2, 3)].iter().enumerate() {
            topo.add_link(
                r[*a],
                ip(10, 254, 20 + k as u8, 1),
                r[*b],
                ip(10, 254, 20 + k as u8, 2),
                1,
            );
        }
        let target = topo.router(r[3]).loopback;
        let spf = arest_topo::spf::DomainSpf::for_as(&topo, asn);
        let mut net = Network::new(topo);
        net.register_igp(asn, spf);
        (net, r, target)
    }

    #[test]
    fn paris_flow_is_path_stable_but_flows_diverge() {
        let (net, r, target) = diamond();
        let middle_hop = |sport: u16| -> Ipv4Addr {
            let reply = net.probe(
                &ProbeSpec {
                    entry: r[0],
                    src: ip(192, 0, 2, 1),
                    dst: target,
                    ttl: 2,
                    transport: TransportPayload::Udp {
                        src_port: sport,
                        dst_port: 33_434,
                        ident: 1,
                    },
                },
                &mut Vec::new(),
            );
            match reply {
                ProbeReply::TimeExceeded { from, .. } => from,
                other => panic!("expected TE, got {other:?}"),
            }
        };
        // Same flow, repeated: always the same middle router (Paris).
        let first = middle_hop(33_434);
        for _ in 0..8 {
            assert_eq!(middle_hop(33_434), first, "one flow, one path");
        }
        // Across many flows, both branches are exercised (ECMP).
        let mut seen: std::collections::HashSet<Ipv4Addr> = Default::default();
        for sport in 33_400..33_464 {
            seen.insert(middle_hop(sport));
        }
        assert_eq!(seen.len(), 2, "both equal-cost branches used: {seen:?}");
    }

    // ---- Failure injection ----

    #[test]
    fn stale_lfib_blackholes_after_link_failure() {
        // An LSP whose transit link dies mid-stream blackholes until
        // the control plane reconverges — the simulator must surface
        // that as silence, not panic or misroute.
        let mut net = ldp_net(true, true, true).net;
        // Down the R2—R3 link (third link added: LinkId 2).
        net.topo_mut().set_link_up(arest_topo::ids::LinkId(2), false);
        let reply = net.probe(
            &ProbeSpec {
                entry: RouterId(0),
                src: ip(192, 0, 2, 1),
                dst: ip(10, 255, 10, 5),
                ttl: 20,
                transport: TransportPayload::Udp { src_port: 33_434, dst_port: 33_434, ident: 4 },
            },
            &mut Vec::new(),
        );
        assert!(
            matches!(reply, ProbeReply::Silent(DropReason::NoRoute)),
            "stale LSP must blackhole: {reply:?}"
        );
    }

    #[test]
    fn forwarding_loops_hit_the_hop_budget() {
        // Two routers pointing default routes at each other.
        let (topo, r) = chain(2);
        let mut net = Network::new(topo);
        let if0 = net.topo().adjacencies(r[0]).next().unwrap().1;
        let if1 = net.topo().adjacencies(r[1]).next().unwrap().1;
        net.plane_mut(r[0])
            .install_route(Prefix::DEFAULT, Route { out_iface: if0, next_router: r[1] });
        net.plane_mut(r[1])
            .install_route(Prefix::DEFAULT, Route { out_iface: if1, next_router: r[0] });
        let reply = net.probe(
            &ProbeSpec {
                entry: r[0],
                src: ip(192, 0, 2, 1),
                dst: ip(8, 8, 8, 8),
                ttl: 255,
                transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 3 },
            },
            &mut Vec::new(),
        );
        // The IP TTL drains first (255 decrements), producing a TE from
        // inside the loop rather than an infinite walk.
        assert!(
            matches!(reply, ProbeReply::TimeExceeded { .. }),
            "loops must terminate via TTL: {reply:?}"
        );
    }

    #[test]
    fn udp_target_with_icmp_disabled_is_silent() {
        let mut net = plain_ip_net();
        let last = *net.r.last().unwrap();
        net.net.plane_mut(last).icmp_enabled = false;
        match probe(&net, 10) {
            ProbeReply::Silent(DropReason::TargetSilent) => {}
            other => panic!("expected silent target, got {other:?}"),
        }
    }

    #[test]
    fn labeled_packet_at_ip_only_router_is_dropped() {
        // Push a label toward a router with an empty LFIB.
        let (topo, r) = chain(3);
        let mut net = Network::new(topo);
        let spf = arest_topo::spf::DomainSpf::for_as(net.topo(), AsNumber(65_100));
        net.register_igp(AsNumber(65_100), spf);
        let out_iface = net.topo().adjacencies(r[0]).next().unwrap().1;
        net.plane_mut(r[0]).ftn.install(
            Prefix::host(ip(10, 255, 10, 3)),
            arest_mpls::tables::PushInstruction {
                labels: vec![arest_wire::mpls::Label::new(50_000).unwrap()],
                out_iface,
                next_router: r[1],
            },
        );
        let reply = net.probe(
            &ProbeSpec {
                entry: r[0],
                src: ip(192, 0, 2, 1),
                dst: ip(10, 255, 10, 3),
                ttl: 20,
                transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 9 },
            },
            &mut Vec::new(),
        );
        assert!(
            matches!(reply, ProbeReply::Silent(DropReason::NoLabelEntry)),
            "unknown label must drop: {reply:?}"
        );
    }

    /// A square SR domain: r0—r1—r2 primary, r0—r3—r2 backup, with
    /// TI-LFA repairs installed and the customer block 100.99.0.0/24
    /// anchored at r2. Returns the network, its routers and the
    /// protected r1—r2 link.
    fn tilfa_square() -> (Network, Vec<RouterId>, arest_topo::ids::LinkId) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_102);
        let r: Vec<RouterId> = (0..4)
            .map(|i| topo.add_router(format!("q{i}"), asn, Vendor::Cisco, ip(10, 254, 3, i + 1)))
            .collect();
        let mut protected_link = None;
        for (k, (a, b)) in [(0usize, 1usize), (1, 2), (0, 3), (3, 2)].iter().enumerate() {
            let link = topo.add_link(
                r[*a],
                ip(10, 254, 30 + k as u8, 1),
                r[*b],
                ip(10, 254, 30 + k as u8, 2),
                1,
            );
            if k == 1 {
                protected_link = Some(link); // r1—r2
            }
        }
        let customer: Prefix = "100.99.0.0/24".parse().unwrap();
        let spec = arest_sr::domain::SrDomainSpec {
            members: r.clone(),
            configs: vec![
                arest_sr::domain::SrNodeConfig {
                    srgb: cisco_srgb(),
                    srlb: Some(cisco_srlb())
                };
                r.len()
            ],
            extra_prefix_sids: vec![arest_sr::sid::PrefixSidSpec {
                prefix: customer,
                egress: r[2],
                index: arest_sr::sid::SidIndex(700),
            }],
            php: false,
            node_sid_base: 100,
            install_node_ftn: false,
        };
        let spf = DomainSpf::for_members(&topo, &spec.members);
        let mut net = Network::new(topo);
        net.register_igp(asn, arest_topo::spf::DomainSpf::for_as(net.topo(), asn));
        net.anchor_prefix(customer, r[2]);
        let (topo, mut planes) = net.domain_planes_mut(spf.members());
        let no_pools: &mut [DynamicLabelPool] = &mut [];
        let domain = SrDomain::build(topo, &spec, &spf, no_pools, &mut planes);
        let tilfa = arest_sr::tilfa::compute_tilfa(topo, &domain);
        for ((plr, protected), repair) in tilfa.iter() {
            net.plane_mut(*plr).install_protection(*protected, repair.clone());
        }
        (net, r, protected_link.unwrap())
    }

    #[test]
    fn tilfa_repairs_traffic_before_reconvergence() {
        let (mut net, r, protected_link) = tilfa_square();
        let probe = |net: &Network| {
            net.probe(
                &ProbeSpec {
                    entry: r[0],
                    src: ip(192, 0, 2, 1),
                    dst: ip(100, 99, 0, 7),
                    ttl: 32,
                    transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 8 },
                },
                &mut Vec::new(),
            )
        };
        // Healthy network: delivery via the primary side.
        assert!(matches!(probe(&net), ProbeReply::DestUnreachable { .. }));

        // Fail r1—r2 WITHOUT reconverging: the stale LFIB at r1 points
        // into the dead link, but the TI-LFA repair carries the packet
        // around via r0—r3—r2.
        net.topo_mut().set_link_up(protected_link, false);
        match probe(&net) {
            ProbeReply::DestUnreachable { forward_hops, .. } => {
                assert!(forward_hops >= 4, "the repair detour is longer: {forward_hops}");
            }
            other => panic!("TI-LFA must keep delivering, got {other:?}"),
        }
    }

    // ---- Shared routing structures (IGP oracle / anchors / exits) ----

    #[test]
    fn igp_oracle_replaces_per_router_fib_entries() {
        let (topo, r) = chain(5);
        let target = topo.router(r[4]).loopback;
        let asn = topo.router(r[0]).asn;
        let spf = arest_topo::spf::DomainSpf::for_as(&topo, asn);
        let mut net = Network::new(topo);
        net.register_igp(asn, spf);
        // No FIB entries installed at all — the oracle routes.
        let reply = net.probe(
            &ProbeSpec {
                entry: r[0],
                src: ip(192, 0, 2, 1),
                dst: target,
                ttl: 32,
                transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 5 },
            },
            &mut Vec::new(),
        );
        assert!(matches!(reply, ProbeReply::DestUnreachable { .. }), "{reply:?}");
    }

    #[test]
    fn anchored_prefix_is_delivered_at_the_anchor() {
        let (topo, r) = chain(3);
        let asn = topo.router(r[0]).asn;
        let spf = arest_topo::spf::DomainSpf::for_as(&topo, asn);
        let mut net = Network::new(topo);
        net.register_igp(asn, spf);
        let customer: Prefix = "100.66.0.0/24".parse().unwrap();
        net.anchor_prefix(customer, r[2]);
        let dst = ip(100, 66, 0, 42);
        let reply = net.probe(
            &ProbeSpec {
                entry: r[0],
                src: ip(192, 0, 2, 1),
                dst,
                ttl: 32,
                transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 5 },
            },
            &mut Vec::new(),
        );
        match reply {
            ProbeReply::DestUnreachable { from, forward_hops, .. } => {
                assert_eq!(from, dst, "the virtual CE answers beyond the anchor");
                assert_eq!(forward_hops, 3, "r1, r2, plus the CE hop");
            }
            other => panic!("expected anchored delivery, got {other:?}"),
        }
    }

    #[test]
    fn exit_map_steers_external_destinations_to_the_border() {
        // Two ASes: chain A (r0..r2) in 65,100, single router X in
        // 65,999 holding the external prefix, linked to r2.
        let (mut topo, r) = chain(3);
        let asn = topo.router(r[0]).asn;
        let x = topo.add_router("x", AsNumber(65_999), Vendor::Juniper, ip(10, 255, 99, 1));
        topo.add_link(r[2], ip(10, 99, 0, 1), x, ip(10, 99, 0, 2), 1);
        let spf = arest_topo::spf::DomainSpf::for_as(&topo, asn);
        let mut net = Network::new(topo);
        net.register_igp(asn, spf);
        let external: Prefix = "100.77.0.0/24".parse().unwrap();
        net.anchor_prefix(external, x);
        net.register_exit(asn, external, r[2]);
        // The border itself needs the direct FIB route onto the
        // inter-AS link.
        let out_iface = net.topo().adjacencies(r[2]).find(|(_, _, _, rem, _)| *rem == x).unwrap().1;
        net.plane_mut(r[2]).install_route(external, Route { out_iface, next_router: x });
        let reply = net.probe(
            &ProbeSpec {
                entry: r[0],
                src: ip(192, 0, 2, 1),
                dst: ip(100, 77, 0, 9),
                ttl: 32,
                transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 5 },
            },
            &mut Vec::new(),
        );
        match reply {
            ProbeReply::DestUnreachable { from, forward_hops, .. } => {
                assert_eq!(from, ip(100, 77, 0, 9));
                assert_eq!(forward_hops, 4, "r1, r2, X, plus the CE hop");
            }
            other => panic!("expected cross-AS delivery, got {other:?}"),
        }
    }

    // ---- Walk-once vs per-TTL forwarding (the reference) ----

    fn udp_flow(entry: RouterId, dst: Ipv4Addr, src_port: u16) -> ProbeSpec {
        ProbeSpec {
            entry,
            src: ip(192, 0, 2, 1),
            dst,
            ttl: 1,
            transport: TransportPayload::Udp { src_port, dst_port: 33_434, ident: 1 },
        }
    }

    /// One walk over TTL 1..=64 answers every probe byte for byte as
    /// [`Network::forward`] does (each probe with its own ident, as a
    /// traceroute sends them); so do one-TTL probes at the edges of
    /// the TTL space and an echo request of the same flow.
    fn assert_walk_matches_forward(net: &Network, flow: ProbeSpec) {
        let walk = net.walk(&flow, 1..=64);
        let (mut walked, mut forwarded) = (Vec::new(), Vec::new());
        for ttl in 1..=64u8 {
            let transport = match flow.transport {
                TransportPayload::Udp { src_port, dst_port, .. } => {
                    TransportPayload::Udp { src_port, dst_port, ident: 0x4000 + u16::from(ttl) }
                }
                echo @ TransportPayload::Echo { .. } => echo,
            };
            let spec = ProbeSpec { ttl, transport, ..flow };
            let reply = net.reply(&walk, &spec, &mut walked);
            assert_eq!(reply, net.forward(&spec, &mut forwarded), "walk, ttl {ttl}, {flow:?}");
            assert_eq!(walked, forwarded, "walk bytes, ttl {ttl}, {flow:?}");
            // Below the terminal TTL a probe expires: it is answered
            // with a time-exceeded or silenced at the expiring router.
            let expires = matches!(
                reply,
                ProbeReply::TimeExceeded { .. }
                    | ProbeReply::Silent(DropReason::IcmpDisabled | DropReason::ReplyUnencodable)
            );
            let past_terminal = walk.terminal_ttl().is_some_and(|t| ttl >= t);
            assert!(expires || past_terminal, "ttl {ttl} ends the walk early, {flow:?}");
            assert!(
                !matches!(reply, ProbeReply::TimeExceeded { .. }) || !past_terminal,
                "ttl {ttl} expires past the terminal TTL, {flow:?}"
            );
            if past_terminal && walk.is_dropped() {
                assert!(matches!(reply, ProbeReply::Silent(_)), "ttl {ttl} past a drop, {flow:?}");
            }
        }
        for ttl in [0u8, 1, 32, 255] {
            let spec = ProbeSpec { ttl, ..flow };
            let reply = net.probe(&spec, &mut walked);
            assert_eq!(reply, net.forward(&spec, &mut forwarded), "probe, ttl {ttl}, {flow:?}");
            assert_eq!(walked, forwarded, "probe bytes, ttl {ttl}, {flow:?}");
        }
        let echo = ProbeSpec {
            ttl: 64,
            transport: TransportPayload::Echo { ident: 0xf1f0, seq: 1 },
            ..flow
        };
        let reply = net.probe(&echo, &mut walked);
        assert_eq!(reply, net.forward(&echo, &mut forwarded), "echo, {flow:?}");
        assert_eq!(walked, forwarded, "echo bytes, {flow:?}");
    }

    #[test]
    fn walk_matches_forward_on_plain_ip() {
        let net = plain_ip_net();
        assert_walk_matches_forward(&net.net, udp_flow(net.r[0], net.target, 33_434));
        // One expiry per transit router, then delivery for TTL 5..=64.
        let walk = net.net.walk(&udp_flow(net.r[0], net.target, 33_434), 1..=64);
        assert_eq!(walk.expiries.iter().map(|e| e.last_ttl).collect::<Vec<_>>(), [1, 2, 3, 4]);
        assert!(matches!(walk.terminal, Some(Terminal::Delivered { hops: 4, .. })));
    }

    #[test]
    fn walk_matches_forward_on_every_ldp_visibility() {
        for ttl_propagate in [false, true] {
            for rfc4950 in [false, true] {
                for php in [false, true] {
                    let net = ldp_net(ttl_propagate, rfc4950, php);
                    assert_walk_matches_forward(&net.net, udp_flow(net.r[0], net.target, 33_434));
                }
            }
        }
    }

    #[test]
    fn walk_matches_forward_through_sr() {
        for php in [false, true] {
            let net = sr_net(php);
            assert_walk_matches_forward(&net.net, udp_flow(net.r[0], net.target, 33_434));
        }
    }

    #[test]
    fn walk_matches_forward_through_a_tilfa_repair() {
        let (mut net, r, protected_link) = tilfa_square();
        net.topo_mut().set_link_up(protected_link, false);
        assert_walk_matches_forward(&net, udp_flow(r[0], ip(100, 99, 0, 7), 1));
        assert_walk_matches_forward(&net, udp_flow(r[0], net.topo().router(r[2]).loopback, 1));
    }

    #[test]
    fn walk_matches_forward_on_every_ecmp_flow() {
        let (net, r, target) = diamond();
        for src_port in 33_400..33_432 {
            assert_walk_matches_forward(&net, udp_flow(r[0], target, src_port));
        }
    }

    #[test]
    fn walk_matches_forward_in_an_ip_forwarding_loop() {
        let (topo, r) = chain(2);
        let mut net = Network::new(topo);
        let if0 = net.topo().adjacencies(r[0]).next().unwrap().1;
        let if1 = net.topo().adjacencies(r[1]).next().unwrap().1;
        net.plane_mut(r[0])
            .install_route(Prefix::DEFAULT, Route { out_iface: if0, next_router: r[1] });
        net.plane_mut(r[1])
            .install_route(Prefix::DEFAULT, Route { out_iface: if1, next_router: r[0] });
        assert_walk_matches_forward(&net, udp_flow(r[0], ip(8, 8, 8, 8), 1));
    }

    /// A chain r0 — … whose first `lead` routers route 100.88.0.0/24
    /// as plain IP to r[lead], which pushes a short-pipe LSP that loops
    /// between the next two routers: the 255 LSE drains to 0, expiring
    /// every pending TTL at once, `lead + 255` links from the entry.
    fn short_pipe_label_loop(lead: usize) -> (Network, Vec<RouterId>) {
        let (topo, r) = chain(lead + 3);
        let mut net = Network::new(topo);
        let towards = |net: &Network, from: RouterId, to: RouterId| {
            net.topo().adjacencies(from).find(|(_, _, _, rem, _)| *rem == to).unwrap().1
        };
        let prefix: Prefix = "100.88.0.0/24".parse().unwrap();
        let label = |v| arest_wire::mpls::Label::new(v).unwrap();
        for pair in r[..=lead].windows(2) {
            let out_iface = towards(&net, pair[0], pair[1]);
            net.plane_mut(pair[0]).install_route(prefix, Route { out_iface, next_router: pair[1] });
        }
        let (ler, a, b) = (r[lead], r[lead + 1], r[lead + 2]);
        let (ler_to_a, a_to_b, b_to_a) =
            (towards(&net, ler, a), towards(&net, a, b), towards(&net, b, a));
        net.plane_mut(ler).ttl_propagate = false;
        net.plane_mut(ler).ftn.install(
            prefix,
            arest_mpls::tables::PushInstruction {
                labels: vec![label(20_000)],
                out_iface: ler_to_a,
                next_router: a,
            },
        );
        net.plane_mut(a).lfib.install(
            label(20_000),
            LfibAction::Swap { out_label: label(20_001), out_iface: a_to_b, next_router: b },
        );
        net.plane_mut(b).lfib.install(
            label(20_001),
            LfibAction::Swap { out_label: label(20_000), out_iface: b_to_a, next_router: a },
        );
        (net, r)
    }

    /// With the loop's ingress one IP hop past the entry, the LSE
    /// expires 256 links from the entry: the forward depth saturates at
    /// 255 instead of overflowing, and the reply TTL reads 0.
    #[test]
    fn walk_matches_forward_when_a_deep_short_pipe_lse_drains() {
        let (net, r) = short_pipe_label_loop(1);
        let flow = udp_flow(r[0], ip(100, 88, 0, 1), 1);
        assert_walk_matches_forward(&net, flow);
        // TTL 1 and 2 expire on the IP hops; every other TTL in the loop.
        let walk = net.walk(&flow, 1..=64);
        assert_eq!(walk.expiries.len(), 3);
        for ttl in 3..=64 {
            match net.reply(&walk, &ProbeSpec { ttl, ..flow }, &mut Vec::new()) {
                ProbeReply::TimeExceeded { forward_hops, reply_ttl, .. } => {
                    assert_eq!(forward_hops, 255, "ttl {ttl}");
                    assert_eq!(reply_ttl, 0, "ttl {ttl}");
                }
                other => panic!("expected the drained LSE to expire, got {other:?}"),
            }
        }
    }

    #[test]
    fn walk_matches_forward_when_a_short_pipe_lse_drains() {
        let (net, r) = short_pipe_label_loop(0);
        let flow = udp_flow(r[0], ip(100, 88, 0, 1), 1);
        assert_walk_matches_forward(&net, flow);
        // TTL 1 expires at the ingress; every other TTL where the LSE
        // runs out, 255 forwards later, in one shared expiry.
        let walk = net.walk(&flow, 1..=64);
        assert_eq!(walk.expiries.len(), 2);
        assert!(walk.terminal.is_none());
        let mut raw = Vec::new();
        match net.reply(&walk, &ProbeSpec { ttl: 9, ..flow }, &mut raw) {
            ProbeReply::TimeExceeded { forward_hops, .. } => {
                assert_eq!(forward_hops, 255);
                let msg = IcmpMessage::parse(&raw).unwrap();
                assert_eq!(msg.mpls_extension().unwrap().stack.top().unwrap().ttl, 1);
                let quoted = Ipv4Packet::new_unchecked(msg.original_datagram().unwrap());
                assert_eq!(quoted.ttl(), 8, "the IP TTL under the pipe is untouched");
            }
            other => panic!("expected the drained LSE to expire, got {other:?}"),
        }
    }

    #[test]
    fn walk_serves_only_its_own_flow() {
        let net = plain_ip_net();
        let flow = udp_flow(net.r[0], net.target, 33_434);
        let walk = net.net.walk(&flow, 1..=8);
        assert!(walk.serves(&ProbeSpec { ttl: 8, ..flow }));
        assert!(!walk.serves(&ProbeSpec { ttl: 9, ..flow }), "TTL outside the walk");
        assert!(!walk.serves(&udp_flow(net.r[0], net.target, 33_435)), "another flow");
        assert!(!walk.serves(&ProbeSpec { dst: ip(10, 255, 10, 4), ..flow }), "another dst");
        assert!(!walk.serves(&ProbeSpec { entry: net.r[1], ..flow }), "another entry");
    }

    #[test]
    #[should_panic(expected = "not on the walked flow")]
    fn replying_to_a_foreign_probe_panics() {
        let net = plain_ip_net();
        let walk = net.net.walk(&udp_flow(net.r[0], net.target, 33_434), 1..=8);
        let _ = net.net.reply(&walk, &udp_flow(net.r[0], net.target, 40_000), &mut Vec::new());
    }
}
