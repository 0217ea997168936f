//! The simulated packet and the probe request/reply vocabulary.

use arest_topo::ids::RouterId;
use arest_wire::icmp::IcmpMessage;
use arest_wire::ipv4::{Ipv4Repr, Protocol};
use arest_wire::mpls::LabelStack;
use arest_wire::udp::UdpRepr;
use arest_wire::WireResult;
use std::net::Ipv4Addr;

/// The transport payload of a simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportPayload {
    /// A UDP probe. `ident` is the Paris-traceroute probe identifier
    /// carried in the UDP checksum field (flow-invariant).
    Udp {
        /// Source port (part of the flow tuple).
        src_port: u16,
        /// Destination port (part of the flow tuple).
        dst_port: u16,
        /// Probe identifier, emitted as the UDP checksum.
        ident: u16,
    },
    /// An ICMP echo request (used by fingerprinting pings).
    Echo {
        /// Echo identifier.
        ident: u16,
        /// Echo sequence number.
        seq: u16,
    },
}

/// A packet in flight inside the simulator.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// The IP header fields (TTL mutates hop by hop).
    pub ip: Ipv4Repr,
    /// Transport payload.
    pub transport: TransportPayload,
    /// The MPLS label stack, empty for plain IP.
    pub stack: LabelStack,
}

/// Length of the datagram a router quotes in an ICMP error: the IPv4
/// header plus the first 8 transport bytes.
pub const QUOTE_LEN: usize = 28;

impl SimPacket {
    /// Builds the first [`QUOTE_LEN`] bytes a router would quote in an
    /// ICMP error: the IPv4 header plus 8 transport bytes, faithfully
    /// encoding the Paris identifier in the UDP checksum field. Fails
    /// when the header claims more payload than a probe carries.
    pub fn quoted_datagram(&self) -> WireResult<[u8; QUOTE_LEN]> {
        let mut quote = [0u8; QUOTE_LEN];
        self.ip.emit(&mut quote)?;
        match self.transport {
            TransportPayload::Udp { src_port, dst_port, ident } => {
                let repr = UdpRepr { src_port, dst_port };
                // Target-checksum emit needs a 10-byte scratch area.
                let mut udp = [0u8; 10];
                let ident = if ident == 0 { 1 } else { ident };
                repr.emit_with_target_checksum(
                    &mut udp,
                    ident,
                    self.ip.src_addr,
                    self.ip.dst_addr,
                )?;
                quote[20..].copy_from_slice(&udp[..8]);
            }
            TransportPayload::Echo { ident, seq } => {
                IcmpMessage::EchoRequest { ident, seq }.emit(&mut quote[20..])?;
            }
        }
        Ok(quote)
    }
}

/// A probe request handed to the simulator.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// The router where the probe enters the network (the vantage
    /// point's gateway).
    pub entry: RouterId,
    /// Source address (the vantage point).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Initial IP TTL.
    pub ttl: u8,
    /// Transport payload (flow tuple + probe identifier).
    pub transport: TransportPayload,
}

impl ProbeSpec {
    /// The packet this spec expands to.
    pub fn packet(&self) -> SimPacket {
        let protocol = match self.transport {
            TransportPayload::Udp { .. } => Protocol::Udp,
            TransportPayload::Echo { .. } => Protocol::Icmp,
        };
        SimPacket {
            ip: Ipv4Repr {
                src_addr: self.src,
                dst_addr: self.dst,
                protocol,
                ttl: self.ttl,
                ident: match self.transport {
                    TransportPayload::Udp { ident, .. } => ident,
                    TransportPayload::Echo { seq, .. } => seq,
                },
                payload_len: 8,
            },
            transport: self.transport,
            stack: LabelStack::new(),
        }
    }
}

/// Why a probe produced no reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No route toward the destination at some hop.
    NoRoute,
    /// A labeled packet hit a router with no LFIB entry for its top
    /// label.
    NoLabelEntry,
    /// The router that should have replied has ICMP disabled.
    IcmpDisabled,
    /// The destination host answers no probes.
    TargetSilent,
    /// The forwarding loop exceeded its hop budget (a routing loop).
    HopBudgetExhausted,
    /// The replying router could not encode its ICMP error (a quoted
    /// stack carried a field outside its wire representation).
    ReplyUnencodable,
}

/// The outcome of one probe.
///
/// A reply that comes back as ICMP bytes (time-exceeded, destination
/// unreachable) leaves them in the buffer the caller passed to
/// [`Network::reply`](crate::Network::reply); parse them with
/// `arest_wire::icmp::IcmpView`.
///
/// `forward_hops` saturates at 255: a probe that crosses more links
/// (possible in a label forwarding loop under a short-pipe LSE, up to
/// the hop budget) reports 255, and its `reply_ttl` reads 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeReply {
    /// An ICMP time-exceeded came back.
    TimeExceeded {
        /// Source address of the ICMP (the replying hop).
        from: Ipv4Addr,
        /// The reply's IP TTL as observed back at the vantage point
        /// (vendor initial TTL minus return-path length).
        reply_ttl: u8,
        /// Routers traversed forward before the reply.
        forward_hops: u8,
    },
    /// An ICMP destination-unreachable came back (port unreachable
    /// means the probe reached its UDP target).
    DestUnreachable {
        /// Source address of the ICMP.
        from: Ipv4Addr,
        /// Reply IP TTL at the vantage point.
        reply_ttl: u8,
        /// Routers traversed forward.
        forward_hops: u8,
    },
    /// An echo reply came back.
    EchoReply {
        /// Source address (the pinged target).
        from: Ipv4Addr,
        /// Reply IP TTL at the vantage point.
        reply_ttl: u8,
        /// Routers traversed forward.
        forward_hops: u8,
    },
    /// Nothing came back.
    Silent(DropReason),
}

impl ProbeReply {
    /// The address that answered, if anything did.
    pub fn from_addr(&self) -> Option<Ipv4Addr> {
        match self {
            ProbeReply::TimeExceeded { from, .. }
            | ProbeReply::DestUnreachable { from, .. }
            | ProbeReply::EchoReply { from, .. } => Some(*from),
            ProbeReply::Silent(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arest_wire::ipv4::Ipv4Packet;
    use arest_wire::udp::UdpPacket;

    #[test]
    fn quoted_datagram_embeds_paris_ident_in_udp_checksum() {
        let spec = ProbeSpec {
            entry: RouterId(0),
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 9),
            ttl: 7,
            transport: TransportPayload::Udp { src_port: 33_434, dst_port: 33_434, ident: 0x4242 },
        };
        let quoted = spec.packet().quoted_datagram().unwrap();
        let ip = Ipv4Packet::new_unchecked(&quoted[..]);
        assert_eq!(ip.ttl(), 7);
        assert_eq!(ip.src_addr(), spec.src);
        let udp = UdpPacket::new_unchecked(&quoted[20..]);
        assert_eq!(udp.src_port(), 33_434);
        assert_eq!(udp.checksum(), 0x4242, "Paris ident rides the checksum");
    }

    #[test]
    fn quoted_datagram_echo_variant() {
        let spec = ProbeSpec {
            entry: RouterId(0),
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 9),
            ttl: 3,
            transport: TransportPayload::Echo { ident: 7, seq: 9 },
        };
        let quoted = spec.packet().quoted_datagram().unwrap();
        assert_eq!(quoted[20], 8, "ICMP echo request type");
        assert_eq!(u16::from_be_bytes([quoted[24], quoted[25]]), 7);
        assert_eq!(u16::from_be_bytes([quoted[26], quoted[27]]), 9);
    }

    #[test]
    fn a_header_claiming_more_payload_cannot_be_quoted() {
        let mut pkt = ProbeSpec {
            entry: RouterId(0),
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 9),
            ttl: 3,
            transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 5 },
        }
        .packet();
        pkt.ip.payload_len = 9;
        assert!(pkt.quoted_datagram().is_err());
    }

    #[test]
    fn zero_ident_is_bumped_to_one() {
        // UDP checksum 0 means "none"; the encoder must avoid it.
        let spec = ProbeSpec {
            entry: RouterId(0),
            src: Ipv4Addr::new(192, 0, 2, 1),
            dst: Ipv4Addr::new(203, 0, 113, 9),
            ttl: 3,
            transport: TransportPayload::Udp { src_port: 1, dst_port: 2, ident: 0 },
        };
        let quoted = spec.packet().quoted_datagram().unwrap();
        let udp = UdpPacket::new_unchecked(&quoted[20..]);
        assert_eq!(udp.checksum(), 1);
    }

    #[test]
    fn probe_reply_accessors() {
        let silent = ProbeReply::Silent(DropReason::NoRoute);
        assert!(silent.from_addr().is_none());
        let echo = ProbeReply::EchoReply {
            from: Ipv4Addr::new(1, 2, 3, 4),
            reply_ttl: 60,
            forward_hops: 4,
        };
        assert_eq!(echo.from_addr(), Some(Ipv4Addr::new(1, 2, 3, 4)));
    }
}
