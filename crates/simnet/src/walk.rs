//! Walk-once probing: one pass over a Paris flow answers every probe
//! TTL in a range.
//!
//! The flow hash covers the 5-tuple but neither the IP TTL nor the
//! probe ident, so the routers a Paris flow visits, the labels it
//! carries and its ECMP choices are the same for every probe TTL; only
//! the point where a probe expires moves with its TTL.
//! [`Network::walk`](crate::Network::walk) therefore forwards the flow
//! once and carries each TTL field — the IP TTL and every LSE TTL — as
//! a function of the probe's initial TTL `t`, `SymTtl`:
//! `min(t − off, cap)`. That form is closed under everything the data
//! plane does to a TTL:
//!
//! * a decrement is `min(t − (off + 1), cap − 1)`;
//! * a copy on push (`ttl-propagate`, a TI-LFA repair) is the same
//!   function;
//! * a short-pipe push at 255 is `min(t − (−∞), 255)`;
//! * the RFC 3443 pop merge is `min(t − max(off₁, off₂), min(cap₁,
//!   cap₂))`.
//!
//! At each decrement, the TTLs whose active field still reads ≤ 1
//! expire there: every pending TTL when `cap ≤ 1`, otherwise those up
//! to `off + 1`. The pending TTLs thus always form a suffix of the
//! range, and no field of a pending TTL has ever been decremented
//! below 1, so saturation never happens and each value the walk
//! reports is exactly the one per-TTL forwarding
//! ([`Network::forward`](crate::Network::forward)) computes. There is
//! no case the walk cannot answer.

use crate::packet::{DropReason, ProbeSpec};
use arest_topo::ids::RouterId;
use arest_wire::mpls::{Label, Lse};
use std::net::Ipv4Addr;
use std::ops::RangeInclusive;

/// An offset far below any reachable TTL: `t − UNBOUNDED` exceeds 255
/// for every `t`, and `MAX_VISITS` decrements cannot bring it back.
const UNBOUNDED: i32 = -(1 << 16);

/// A TTL field as a function of the probe's initial IP TTL `t`:
/// `min(t − off, cap)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SymTtl {
    off: i32,
    cap: i32,
}

impl SymTtl {
    /// The probe's own IP TTL: `t`.
    pub(crate) const PROBE: SymTtl = SymTtl { off: 0, cap: 255 };

    /// A TTL independent of the probe TTL (a short-pipe push).
    pub(crate) fn constant(value: u8) -> SymTtl {
        SymTtl { off: UNBOUNDED, cap: i32::from(value) }
    }

    /// The field after one decrement.
    pub(crate) fn decremented(self) -> SymTtl {
        SymTtl { off: self.off + 1, cap: self.cap - 1 }
    }

    /// The RFC 3443 merge: the smaller of two fields, for every `t`.
    pub(crate) fn min(self, other: SymTtl) -> SymTtl {
        SymTtl { off: self.off.max(other.off), cap: self.cap.min(other.cap) }
    }

    /// The highest probe TTL for which this field reads ≤ 1 — the TTLs
    /// a decrement of it expires (`i32::MAX` when all of them do).
    pub(crate) fn expiring_through(self) -> i32 {
        if self.cap <= 1 {
            i32::MAX
        } else {
            self.off + 1
        }
    }

    /// The field's value for a probe sent with TTL `ttl`.
    pub(crate) fn at(self, ttl: u8) -> u8 {
        let value = (i32::from(ttl) - self.off).min(self.cap);
        debug_assert!((0..=255).contains(&value), "{self:?} at {ttl} reads {value}");
        value.clamp(0, 255) as u8
    }
}

/// One label stack entry with a symbolic TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SymLse {
    pub(crate) label: Label,
    pub(crate) ttl: SymTtl,
}

/// A symbolic label stack, **bottom entry first** so the top is the
/// cheap end of the vector.
pub(crate) type SymStack = Vec<SymLse>;

/// The stack a probe sent with TTL `ttl` carries, as concrete
/// entries top first (none when `stack` is `None`), evaluated lazily
/// for the reply encoder. Bottom-of-stack bits are left to the
/// encoder.
pub(crate) fn received_at(
    stack: Option<&[SymLse]>,
    ttl: u8,
) -> impl ExactSizeIterator<Item = Lse> + '_ {
    let stack = stack.unwrap_or_default();
    stack.iter().rev().map(move |lse| Lse::new(lse.label, false, lse.ttl.at(ttl)))
}

/// Where a contiguous block of probe TTLs expires.
#[derive(Debug, Clone)]
pub(crate) struct Expiry {
    /// The highest TTL expiring here; the block starts right after the
    /// previous expiry's.
    pub(crate) last_ttl: u8,
    /// The router the probes expire at.
    pub(crate) router: RouterId,
    /// The address its time-exceeded comes from.
    pub(crate) reply_src: Ipv4Addr,
    /// The IP TTL the time-exceeded quotes.
    pub(crate) ip: SymTtl,
    /// The label stack as received (RFC 4950 quote), if any.
    pub(crate) received: Option<SymStack>,
    /// Router-to-router forwards before the expiry.
    pub(crate) hops: u8,
}

/// What happens to every probe TTL that outlives the last expiry.
#[derive(Debug, Clone)]
pub(crate) enum Terminal {
    /// The probe reaches the router that answers for the destination.
    Delivered {
        /// The answering router.
        router: RouterId,
        /// The IP TTL the reply quotes.
        ip: SymTtl,
        /// The label stack as received, if any.
        received: Option<SymStack>,
        /// Router-to-router forwards, the customer hop included.
        hops: u8,
    },
    /// The probe is dropped without a reply.
    Dropped(DropReason),
}

/// The outcome of one probe TTL on a walk.
pub(crate) enum Outcome<'a> {
    /// The probe expires in the network.
    Expired(&'a Expiry),
    /// The probe shares the walk's terminal outcome.
    Terminal(&'a Terminal),
}

/// One Paris flow forwarded once, answering every probe TTL in its
/// range. Built by
/// [`Network::walk`](crate::Network::walk); each probe's reply comes
/// from [`Network::reply`](crate::Network::reply).
#[derive(Debug, Clone)]
pub struct FlowWalk {
    pub(crate) flow: u64,
    pub(crate) entry: RouterId,
    pub(crate) src: Ipv4Addr,
    pub(crate) dst: Ipv4Addr,
    pub(crate) ttls: RangeInclusive<u8>,
    pub(crate) expiries: Vec<Expiry>,
    pub(crate) terminal: Option<Terminal>,
}

impl FlowWalk {
    /// Whether `spec` is a probe of this walk: the same flow (hash,
    /// entry router, source and destination) and a TTL in range. A UDP
    /// probe's ident is free: it rides the checksum, which the flow
    /// hash ignores.
    pub fn serves(&self, spec: &ProbeSpec) -> bool {
        crate::network::flow_hash(spec) == self.flow
            && spec.entry == self.entry
            && spec.src == self.src
            && spec.dst == self.dst
            && self.ttls.contains(&spec.ttl)
    }

    /// The first TTL of the range that outlives every expiry and so
    /// shares the walk's terminal outcome (delivery or a drop), or
    /// `None` when every TTL in range expires.
    pub fn terminal_ttl(&self) -> Option<u8> {
        let first = match self.expiries.last() {
            Some(expiry) => expiry.last_ttl.checked_add(1)?,
            None => *self.ttls.start(),
        };
        (first <= *self.ttls.end()).then_some(first)
    }

    /// Whether the walk ends in a drop, so that no TTL from
    /// [`terminal_ttl`](FlowWalk::terminal_ttl) on is answered.
    pub fn is_dropped(&self) -> bool {
        matches!(self.terminal, Some(Terminal::Dropped(_)))
    }

    /// The outcome for a probe TTL in range.
    pub(crate) fn outcome(&self, ttl: u8) -> Outcome<'_> {
        let idx = self.expiries.partition_point(|e| e.last_ttl < ttl);
        match self.expiries.get(idx) {
            Some(expiry) => Outcome::Expired(expiry),
            None => Outcome::Terminal(
                self.terminal.as_ref().expect("a TTL past every expiry reaches the terminal"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_wire::mpls::LabelStack;

    /// The concrete per-TTL operations the symbolic ones stand for.
    #[test]
    fn symbolic_ttls_track_concrete_ones() {
        for t in 0..=255u8 {
            let mut ip = SymTtl::PROBE;
            let mut concrete = t;
            // Only decrement while the field stays ≥ 1: the walk never
            // decrements a pending probe's field below that.
            for _ in 0..5 {
                if concrete >= 2 {
                    assert!(i32::from(t) > ip.expiring_through());
                    ip = ip.decremented();
                    concrete -= 1;
                } else {
                    assert!(i32::from(t) <= ip.expiring_through());
                }
            }
            assert_eq!(ip.at(t), concrete);
            let pipe = SymTtl::constant(255).decremented().decremented();
            assert_eq!(pipe.at(t), 253);
            assert_eq!(ip.min(pipe).at(t), concrete.min(253));
        }
    }

    #[test]
    fn a_drained_cap_expires_every_ttl() {
        let mut lse = SymTtl::constant(255);
        for _ in 0..254 {
            lse = lse.decremented();
        }
        assert_eq!(lse.at(9), 1);
        assert_eq!(lse.expiring_through(), i32::MAX);
    }

    #[test]
    fn stacks_materialize_bottom_first() {
        let label = |v| Label::new(v).unwrap();
        let stack = vec![
            SymLse { label: label(16_001), ttl: SymTtl::constant(255) },
            SymLse { label: label(16_002), ttl: SymTtl::PROBE.decremented() },
        ];
        let concrete: LabelStack = received_at(Some(&stack), 7).collect();
        let mut expected = LabelStack::new();
        expected.push(label(16_001), 255);
        expected.push(label(16_002), 6);
        assert_eq!(concrete, expected);
        assert_eq!(concrete.top().unwrap().label, label(16_002));
        assert!(concrete.bottom().unwrap().bottom);
        assert_eq!(received_at(None, 7).len(), 0);
    }
}
