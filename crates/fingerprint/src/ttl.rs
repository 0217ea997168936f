//! TTL-based router signatures (Vanaubel et al.).
//!
//! A router's ICMP implementation initializes the IP TTL of the
//! messages it *originates* from a vendor-characteristic constant.
//! Observing an echo reply and a time-exceeded message from the same
//! address therefore yields a signature `(init(echo), init(te))` that
//! partitions routers into coarse vendor classes.

use arest_simnet::packet::{ProbeReply, ProbeSpec, TransportPayload};
use arest_simnet::Network;
use arest_topo::ids::RouterId;
use arest_wire::ipv4::initial_ttl_guess;
use std::net::Ipv4Addr;

/// A `(echo-reply initial TTL, time-exceeded initial TTL)` signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TtlSignature {
    /// Inferred initial TTL of echo replies.
    pub echo_reply: u8,
    /// Inferred initial TTL of time-exceeded messages.
    pub time_exceeded: u8,
}

impl TtlSignature {
    /// Builds a signature from raw observed reply TTLs.
    pub fn from_observed(echo_reply: u8, time_exceeded: u8) -> TtlSignature {
        TtlSignature {
            echo_reply: initial_ttl_guess(echo_reply),
            time_exceeded: initial_ttl_guess(time_exceeded),
        }
    }
}

/// The vendor classes TTL signatures can distinguish.
///
/// The crucial limitation (paper §5): Cisco and Huawei share
/// `(255, 255)`, so TTL-derived vendor-range flags must match the
/// intersection of their SR label spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TtlClass {
    /// `(255, 255)` — Cisco or Huawei, indistinguishable.
    CiscoOrHuawei,
    /// `(64, 255)` — Juniper-like (Nokia shares this signature).
    JuniperLike,
    /// `(255, 64)` — Brocade-like platforms.
    BrocadeLike,
    /// `(64, 64)` — host-stack platforms (Linux, MikroTik, Arista).
    HostLike,
    /// Anything else.
    Other,
}

/// Classifies a signature.
pub fn ttl_class(signature: TtlSignature) -> TtlClass {
    match (signature.echo_reply, signature.time_exceeded) {
        (255, 255) => TtlClass::CiscoOrHuawei,
        (64, 255) => TtlClass::JuniperLike,
        (255, 64) => TtlClass::BrocadeLike,
        (64, 64) => TtlClass::HostLike,
        _ => TtlClass::Other,
    }
}

/// Pings `target` from a vantage point and returns the observed echo
/// reply TTL, if the target answers.
pub fn ping_echo_ttl(
    net: &Network,
    entry: RouterId,
    src: Ipv4Addr,
    target: Ipv4Addr,
) -> Option<u8> {
    let spec = ProbeSpec {
        entry,
        src,
        dst: target,
        ttl: 64,
        transport: TransportPayload::Echo { ident: 0xf1f0, seq: 1 },
    };
    // An echo reply carries no ICMP bytes to keep; the buffer only
    // takes an error reply's.
    match net.probe(&spec, &mut Vec::new()) {
        ProbeReply::EchoReply { reply_ttl, .. } => Some(reply_ttl),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_topo::vendor::Vendor;

    #[test]
    fn vendor_constants_map_to_expected_classes() {
        for (vendor, expected) in [
            (Vendor::Cisco, TtlClass::CiscoOrHuawei),
            (Vendor::Huawei, TtlClass::CiscoOrHuawei),
            (Vendor::Juniper, TtlClass::JuniperLike),
            (Vendor::Nokia, TtlClass::JuniperLike),
            (Vendor::Brocade, TtlClass::BrocadeLike),
            (Vendor::Linux, TtlClass::HostLike),
            (Vendor::Arista, TtlClass::HostLike),
        ] {
            let sig = TtlSignature {
                echo_reply: vendor.echo_reply_initial_ttl(),
                time_exceeded: vendor.time_exceeded_initial_ttl(),
            };
            assert_eq!(ttl_class(sig), expected, "{vendor}");
        }
    }

    #[test]
    fn signatures_are_inferred_from_decremented_observations() {
        // A Cisco reply 12 hops away arrives with TTLs 243/243.
        let sig = TtlSignature::from_observed(243, 243);
        assert_eq!(sig, TtlSignature { echo_reply: 255, time_exceeded: 255 });
        assert_eq!(ttl_class(sig), TtlClass::CiscoOrHuawei);
        // A Juniper reply 5 hops away: echo 59, te 250.
        let sig = TtlSignature::from_observed(59, 250);
        assert_eq!(ttl_class(sig), TtlClass::JuniperLike);
    }

    #[test]
    fn unusual_signature_is_other() {
        assert_eq!(
            ttl_class(TtlSignature { echo_reply: 128, time_exceeded: 255 }),
            TtlClass::Other
        );
    }
}
