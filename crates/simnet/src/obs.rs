//! Instrumentation: cached handles into the global `arest-obs`
//! registry.
//!
//! Registration happens once (first probe) inside the `LazyLock`;
//! after that, recording a reply is a handful of gate-checked relaxed
//! atomics — and when the registry is disabled, each degenerates to a
//! single relaxed load. The forwarding loop itself is untouched: the
//! engine records once per walk and once per reply it builds, never
//! per visit.

use crate::packet::{DropReason, ProbeReply};
use arest_obs::{Counter, Histogram};
use std::sync::LazyLock;

pub(crate) struct Metrics {
    /// `simnet.probes` — probes injected into the network.
    probes: Counter,
    /// `simnet.forwarded_hops` — router-to-router forwards summed over
    /// all answered probes (silent drops cannot report their depth).
    forwarded_hops: Counter,
    /// `simnet.ttl_expired` — probes answered with a time-exceeded.
    ttl_expired: Counter,
    /// `simnet.delivered` — probes that reached their destination
    /// (port-unreachable or echo reply).
    delivered: Counter,
    /// `simnet.echo_replies` — the echo-reply subset of `delivered`.
    echo_replies: Counter,
    /// `simnet.forward_depth` — log₂ histogram of per-answered-probe
    /// forwarding depth (how deep each probe travelled before its
    /// reply), the distribution behind `simnet.forwarded_hops`.
    forward_depth: Histogram,
    /// `simnet.drop.*` — silent probes by [`DropReason`], indexed by
    /// [`drop_slot`].
    drops: [Counter; 6],
    /// `simnet.walks` — flow walks (one per trace, revelation
    /// sub-trace, MDA flow or single probe).
    walks: Counter,
    /// `simnet.walk_visits` — router visits summed over all walks: the
    /// forwarding work actually done, against `simnet.forwarded_hops`,
    /// which sums each reply's forward depth.
    walk_visits: Counter,
}

pub(crate) static METRICS: LazyLock<Metrics> = LazyLock::new(|| {
    let registry = arest_obs::global();
    Metrics {
        probes: registry.counter("simnet.probes"),
        forwarded_hops: registry.counter("simnet.forwarded_hops"),
        ttl_expired: registry.counter("simnet.ttl_expired"),
        delivered: registry.counter("simnet.delivered"),
        echo_replies: registry.counter("simnet.echo_replies"),
        forward_depth: registry.histogram("simnet.forward_depth"),
        drops: [
            registry.counter("simnet.drop.no_route"),
            registry.counter("simnet.drop.no_label_entry"),
            registry.counter("simnet.drop.icmp_disabled"),
            registry.counter("simnet.drop.target_silent"),
            registry.counter("simnet.drop.hop_budget_exhausted"),
            registry.counter("simnet.drop.reply_unencodable"),
        ],
        walks: registry.counter("simnet.walks"),
        walk_visits: registry.counter("simnet.walk_visits"),
    }
});

fn drop_slot(reason: DropReason) -> usize {
    match reason {
        DropReason::NoRoute => 0,
        DropReason::NoLabelEntry => 1,
        DropReason::IcmpDisabled => 2,
        DropReason::TargetSilent => 3,
        DropReason::HopBudgetExhausted => 4,
        DropReason::ReplyUnencodable => 5,
    }
}

impl Metrics {
    /// Accounts one finished walk.
    pub(crate) fn record_walk(&self, visits: u32) {
        self.walks.inc();
        self.walk_visits.add(u64::from(visits));
    }

    /// Accounts one completed probe from its reply.
    pub(crate) fn record(&self, reply: &ProbeReply) {
        self.probes.inc();
        match reply {
            ProbeReply::TimeExceeded { forward_hops, .. } => {
                self.forwarded_hops.add(u64::from(*forward_hops));
                self.forward_depth.record(u64::from(*forward_hops));
                self.ttl_expired.inc();
            }
            ProbeReply::DestUnreachable { forward_hops, .. } => {
                self.forwarded_hops.add(u64::from(*forward_hops));
                self.forward_depth.record(u64::from(*forward_hops));
                self.delivered.inc();
            }
            ProbeReply::EchoReply { forward_hops, .. } => {
                self.forwarded_hops.add(u64::from(*forward_hops));
                self.forward_depth.record(u64::from(*forward_hops));
                self.delivered.inc();
                self.echo_replies.inc();
            }
            ProbeReply::Silent(reason) => self.drops[drop_slot(*reason)].inc(),
        }
    }
}
