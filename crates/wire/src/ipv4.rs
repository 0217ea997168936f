//! A minimal IPv4 header codec (RFC 791, options unsupported).
//!
//! Probe packets and quoted datagrams in the AReST pipeline never use
//! IPv4 options, so the codec fixes IHL at 5 on emit and rejects
//! packets advertising an IHL shorter than the minimum on parse
//! (packets with options parse fine; their options are skipped).

use crate::checksum;
use crate::error::{WireError, WireResult};
use core::fmt;
use std::net::Ipv4Addr;

/// Length in bytes of an option-less IPv4 header.
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers used in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ICMP (1).
    Icmp,
    /// UDP (17).
    Udp,
    /// Anything else, kept verbatim.
    Other(u8),
}

impl From<u8> for Protocol {
    fn from(value: u8) -> Protocol {
        match value {
            1 => Protocol::Icmp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(value: Protocol) -> u8 {
        match value {
            Protocol::Icmp => 1,
            Protocol::Udp => 17,
            Protocol::Other(other) => other,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Icmp => write!(f, "ICMP"),
            Protocol::Udp => write!(f, "UDP"),
            Protocol::Other(p) => write!(f, "proto-{p}"),
        }
    }
}

/// A read/write view over an IPv4 packet buffer.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wraps a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Ipv4Packet<T> {
        Ipv4Packet { buffer }
    }

    /// Wraps a buffer, validating version, IHL, and total length.
    pub fn new_checked(buffer: T) -> WireResult<Ipv4Packet<T>> {
        let packet = Ipv4Packet::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> WireResult<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[0] >> 4 != 4 {
            return Err(WireError::BadVersion);
        }
        let ihl = usize::from(data[0] & 0xf) * 4;
        if ihl < HEADER_LEN || data.len() < ihl {
            return Err(WireError::Malformed);
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < ihl || data.len() < total_len {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    /// Consumes the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0xf) * 4
    }

    /// The Total Length field.
    pub fn total_len(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[2], d[3]])
    }

    /// The Identification field.
    pub fn ident(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[4], d[5]])
    }

    /// The Time To Live field.
    pub fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// The Protocol field.
    pub fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[9])
    }

    /// The header checksum field as stored.
    pub fn header_checksum(&self) -> u16 {
        let d = self.buffer.as_ref();
        u16::from_be_bytes([d[10], d[11]])
    }

    /// The source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[12], d[13], d[14], d[15])
    }

    /// The destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[16], d[17], d[18], d[19])
    }

    /// Whether the stored header checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        let d = self.buffer.as_ref();
        checksum::verify(&d[..self.header_len()])
    }

    /// The payload following the header, bounded by Total Length.
    pub fn payload(&self) -> &[u8] {
        let d = self.buffer.as_ref();
        let start = self.header_len();
        let end = usize::from(self.total_len()).min(d.len());
        &d[start..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    /// Sets the TTL and refreshes the header checksum.
    pub fn set_ttl(&mut self, ttl: u8) {
        self.buffer.as_mut()[8] = ttl;
        self.fill_checksum();
    }

    /// Sets the Identification field and refreshes the checksum.
    pub fn set_ident(&mut self, ident: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&ident.to_be_bytes());
        self.fill_checksum();
    }

    /// Recomputes and stores the header checksum.
    pub fn fill_checksum(&mut self) {
        let header_len = self.header_len();
        let d = self.buffer.as_mut();
        d[10] = 0;
        d[11] = 0;
        let c = checksum::checksum(&d[..header_len]);
        d[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable access to the payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let start = self.header_len();
        let end = usize::from(self.total_len());
        let d = self.buffer.as_mut();
        let end = end.min(d.len());
        &mut d[start..end]
    }
}

/// An owned, high-level IPv4 header representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src_addr: Ipv4Addr,
    /// Destination address.
    pub dst_addr: Ipv4Addr,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification (used by MIDAR-style alias resolution).
    pub ident: u16,
    /// Payload length in bytes (excludes the 20-byte header).
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Parses the header fields out of a checked packet view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Ipv4Packet<T>) -> WireResult<Ipv4Repr> {
        Ok(Ipv4Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            ttl: packet.ttl(),
            ident: packet.ident(),
            payload_len: usize::from(packet.total_len()) - packet.header_len(),
        })
    }

    /// Total emitted length: header plus payload.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emits a 20-byte header (IHL 5, no fragmentation, DSCP 0) into
    /// `buf` and fills the checksum. The payload area is not touched.
    pub fn emit(&self, buf: &mut [u8]) -> WireResult<()> {
        if buf.len() < self.buffer_len() {
            return Err(WireError::Truncated);
        }
        let total_len = u16::try_from(self.buffer_len()).map_err(|_| WireError::Malformed)?;
        buf[0] = 0x45;
        buf[1] = 0;
        buf[2..4].copy_from_slice(&total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6..8].copy_from_slice(&[0, 0]); // flags + fragment offset
        buf[8] = self.ttl;
        buf[9] = u8::from(self.protocol);
        buf[10..12].copy_from_slice(&[0, 0]);
        buf[12..16].copy_from_slice(&self.src_addr.octets());
        buf[16..20].copy_from_slice(&self.dst_addr.octets());
        let c = checksum::checksum(&buf[..HEADER_LEN]);
        buf[10..12].copy_from_slice(&c.to_be_bytes());
        Ok(())
    }
}

/// Infers the initial TTL a reply started from (64, 128, or 255): the
/// smallest common stack default at or above the observed TTL (TNT's
/// return-path rule, and the TTL vendor signature's).
pub fn initial_ttl_guess(observed: u8) -> u8 {
    if observed <= 64 {
        64
    } else if observed <= 128 {
        128
    } else {
        255
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn initial_ttl_guesses() {
        assert_eq!(initial_ttl_guess(62), 64);
        assert_eq!(initial_ttl_guess(64), 64);
        assert_eq!(initial_ttl_guess(65), 128);
        assert_eq!(initial_ttl_guess(129), 255);
        assert_eq!(initial_ttl_guess(250), 255);
    }

    fn sample_repr() -> Ipv4Repr {
        Ipv4Repr {
            src_addr: Ipv4Addr::new(10, 0, 0, 1),
            dst_addr: Ipv4Addr::new(192, 0, 2, 7),
            protocol: Protocol::Udp,
            ttl: 64,
            ident: 0xbeef,
            payload_len: 8,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(Ipv4Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn checked_rejects_short_buffer() {
        assert_eq!(Ipv4Packet::new_checked(&[0u8; 10][..]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn checked_rejects_wrong_version() {
        let mut buf = [0u8; 20];
        buf[0] = 0x65; // IPv6 version nibble
        buf[3] = 20;
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap_err(), WireError::BadVersion);
    }

    #[test]
    fn checked_rejects_bad_ihl() {
        let mut buf = [0u8; 20];
        buf[0] = 0x43; // IHL 3 < 5
        buf[3] = 20;
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn checked_rejects_total_len_beyond_buffer() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        buf[3] = 200; // total length larger than the buffer
        assert_eq!(Ipv4Packet::new_checked(&buf[..]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn set_ttl_keeps_checksum_valid() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf).unwrap();
        let mut packet = Ipv4Packet::new_checked(&mut buf[..]).unwrap();
        packet.set_ttl(1);
        assert_eq!(packet.ttl(), 1);
        assert!(packet.verify_checksum());
    }

    #[test]
    fn payload_respects_total_len() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.buffer_len() + 6]; // trailing padding
        repr.emit(&mut buf).unwrap();
        let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.payload().len(), repr.payload_len);
    }

    #[test]
    fn protocol_conversions() {
        assert_eq!(Protocol::from(1), Protocol::Icmp);
        assert_eq!(Protocol::from(17), Protocol::Udp);
        assert_eq!(Protocol::from(6), Protocol::Other(6));
        assert_eq!(u8::from(Protocol::Icmp), 1);
        assert_eq!(u8::from(Protocol::Other(89)), 89);
    }

    proptest! {
        #[test]
        fn prop_round_trip(src: [u8; 4], dst: [u8; 4], ttl: u8, ident: u16,
                           proto: u8, payload_len in 0usize..64) {
            let repr = Ipv4Repr {
                src_addr: Ipv4Addr::from(src),
                dst_addr: Ipv4Addr::from(dst),
                protocol: Protocol::from(proto),
                ttl,
                ident,
                payload_len,
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf).unwrap();
            let packet = Ipv4Packet::new_checked(&buf[..]).unwrap();
            prop_assert!(packet.verify_checksum());
            prop_assert_eq!(Ipv4Repr::parse(&packet).unwrap(), repr);
        }
    }
}
