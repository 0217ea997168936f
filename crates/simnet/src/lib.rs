//! # arest-simnet
//!
//! A packet-level network simulator with wire-accurate edges.
//!
//! Routers forward an in-memory packet representation for speed, but
//! every ICMP reply handed back to the prober is a real byte buffer
//! built with `arest-wire` — including RFC 4884 extension structures
//! and RFC 4950 MPLS Label Stack objects — so the measurement stack
//! above (`arest-tnt`) exercises genuine parsing end to end.
//!
//! The TTL semantics follow RFC 3443 and the behaviours the paper's
//! tunnel taxonomy depends on:
//!
//! * ingress LERs either copy the IP TTL into pushed LSEs
//!   (`ttl-propagate`) or set 255;
//! * interior LSRs decrement only the top LSE TTL;
//! * popping merges TTLs with the `min` rule, so short-pipe tunnels
//!   stay invisible and uniform tunnels expose their hops;
//! * routers with RFC 4950 quote the *received* label stack in their
//!   time-exceeded messages.
//!
//! ## Walk once, answer every TTL
//!
//! A Paris traceroute sends one flow at TTL 1, 2, …, k. Forwarding
//! does not depend on the TTL (the flow hash ignores it and the probe
//! ident), so [`Network::walk`] forwards the flow **once** and records,
//! for every TTL in a range, where that probe expires — router, reply
//! source, received label stack (the RFC 4950 quote, PopLocal
//! included) and quoted IP TTL — or the terminal outcome the TTLs past
//! the last expiry share: delivery, delivery by the virtual CE behind
//! an anchor, or a [`DropReason`]. Each TTL field is carried as
//! `min(t − off, cap)` of the probe TTL `t`, a form closed under
//! decrement, copy-on-push, a 255 short-pipe push and the RFC 3443 pop
//! `min`; the [`walk`] module shows why that makes the walk exact for
//! every TTL, with no fallback. A trace costs one walk instead of
//! ~L²/2 hop visits.
//!
//! What stays per probe: [`Network::reply`] builds each probe's reply
//! with its own TTL and ident and encodes it as real ICMP bytes into a
//! buffer the caller owns, and the prober parses every reply through
//! the borrowed `arest_wire::icmp::IcmpView`. The RFC 4950 encoder and
//! decoder are part of what is reproduced, so they run for every
//! probe, not once per walk; with one buffer per trace, neither
//! allocates. [`Network::probe`] is a
//! one-TTL walk, so production has one forwarding engine.
//! [`Network::forward`], the per-TTL loop the walk replaced, remains
//! only as the reference the differential tests compare against.
//!
//! ## Observability
//!
//! Forwarding is instrumented with `arest-obs` against the global
//! registry — a no-op unless `AREST_OBS` enables it. Every reply
//! accounts itself once (`simnet.probes`, `simnet.forwarded_hops` —
//! the reply's forward depth —, `simnet.ttl_expired`, and
//! per-[`DropReason`] `simnet.drop.*`), and every walk once
//! (`simnet.walks`, `simnet.walk_visits` — the router visits actually
//! made). Nothing is recorded per visit.
//!
//! Modules:
//! * [`plane`] — per-router forwarding state (FIB/LFIB/FTN + ICMP and
//!   visibility configuration).
//! * [`packet`] — the simulated packet, probe specification, and reply
//!   types.
//! * [`network`] — the [`network::Network`] forwarding engine.
//! * [`walk`] — the symbolic TTL algebra and the [`FlowWalk`] result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
mod obs;
pub mod packet;
pub mod plane;
pub mod walk;

pub use network::Network;
pub use packet::{DropReason, ProbeReply, ProbeSpec, SimPacket, TransportPayload};
pub use plane::{Route, RouterPlane};
pub use walk::FlowWalk;

/// Thread-safety audit: the measurement pipeline shares one
/// `&Network` across its worker pool, so `Network` (and everything it
/// owns — topology, per-router planes, IGP state) must stay `Send`
/// and `Sync`. This is a compile-time assertion: adding a field with
/// interior mutability (`Cell`, `Rc`, …) breaks the build here rather
/// than racing in a campaign.
#[cfg(test)]
mod thread_safety {
    const fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn network_is_shareable_across_workers() {
        assert_send_sync::<super::Network>();
        assert_send_sync::<super::RouterPlane>();
        assert_send_sync::<super::ProbeReply>();
    }
}
