//! ICMP messages (RFC 792) with multi-part extensions (RFC 4884) and
//! the MPLS Label Stack object (RFC 4950).
//!
//! RFC 4950 is the mechanism that makes MPLS tunnels *explicit* to
//! traceroute: when an LSE TTL expires, a compliant LSR quotes the
//! entire received label stack in an extension object appended to the
//! ICMP time-exceeded message. AReST consumes exactly that quotation.
//!
//! Layout of an extended time-exceeded message:
//!
//! ```text
//! type(11) code(0) checksum
//! unused(1 byte) length(1 byte, 32-bit words of original datagram) unused(2)
//! original datagram (padded to length*4 bytes, >= 128 when extended)
//! extension header: version(2)<<4 | reserved, reserved, checksum
//!   object: length, class(1 = MPLS LS), ctype(1 = incoming stack)
//!     LSEs ...
//! ```

use crate::checksum;
use crate::error::{WireError, WireResult};
use crate::mpls::{LabelStack, Lse, Lses, LSE_LEN};
use std::sync::LazyLock;

/// `(wire.icmp.parsed, wire.icmp.parse_errors)` — cached handles into
/// the global `arest-obs` registry (free when observability is off).
static PARSE_METRICS: LazyLock<(arest_obs::Counter, arest_obs::Counter)> = LazyLock::new(|| {
    let registry = arest_obs::global();
    (registry.counter("wire.icmp.parsed"), registry.counter("wire.icmp.parse_errors"))
});

/// ICMP header length (type, code, checksum, 4 rest-of-header bytes).
pub const HEADER_LEN: usize = 8;

/// RFC 4884: when an extension is present the original datagram part
/// is padded to at least 128 bytes.
pub const ORIGINAL_DATAGRAM_MIN_LEN: usize = 128;

/// RFC 4884 extension version.
pub const EXTENSION_VERSION: u8 = 2;

/// RFC 4950 class number for the MPLS Label Stack object.
pub const MPLS_CLASS: u8 = 1;

/// RFC 4950 c-type for "incoming MPLS label stack".
pub const MPLS_CTYPE_INCOMING: u8 = 1;

/// ICMP message types used by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Echo Reply (0).
    EchoReply,
    /// Destination Unreachable (3).
    DestUnreachable,
    /// Echo Request (8).
    EchoRequest,
    /// Time Exceeded (11).
    TimeExceeded,
    /// Any other type, kept verbatim.
    Other(u8),
}

impl From<u8> for IcmpType {
    fn from(value: u8) -> IcmpType {
        match value {
            0 => IcmpType::EchoReply,
            3 => IcmpType::DestUnreachable,
            8 => IcmpType::EchoRequest,
            11 => IcmpType::TimeExceeded,
            other => IcmpType::Other(other),
        }
    }
}

impl From<IcmpType> for u8 {
    fn from(value: IcmpType) -> u8 {
        match value {
            IcmpType::EchoReply => 0,
            IcmpType::DestUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
            IcmpType::Other(other) => other,
        }
    }
}

/// The RFC 4950 MPLS Label Stack extension object.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MplsExtension {
    /// The label stack quoted from the packet whose TTL expired,
    /// top entry first.
    pub stack: LabelStack,
}

/// The ICMP error messages a probe draws (RFC 792), the ones that may
/// carry an RFC 4950 quote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Time Exceeded, code 0 (TTL expired in transit).
    TimeExceeded,
    /// Destination Unreachable with the given code (3 = port
    /// unreachable).
    DestUnreachable(u8),
}

impl ErrorKind {
    fn type_and_code(self) -> (IcmpType, u8) {
        match self {
            ErrorKind::TimeExceeded => (IcmpType::TimeExceeded, 0),
            ErrorKind::DestUnreachable(code) => (IcmpType::DestUnreachable, code),
        }
    }
}

/// Wire length of the quoted-datagram part: as given without an
/// extension, else padded to [`ORIGINAL_DATAGRAM_MIN_LEN`] and a
/// multiple of 4 bytes (RFC 4884).
fn quoted_len(original: usize, depth: usize) -> usize {
    if depth == 0 {
        original
    } else {
        original.max(ORIGINAL_DATAGRAM_MIN_LEN).div_ceil(4) * 4
    }
}

/// Wire length of an error message quoting `original` bytes and
/// `depth` LSEs; the extension structure (header, MPLS object header,
/// LSEs) is present only when `depth > 0`.
fn error_len(original: usize, depth: usize) -> usize {
    let extension = if depth == 0 { 0 } else { 4 + 4 + depth * LSE_LEN };
    HEADER_LEN + quoted_len(original, depth) + extension
}

/// Encodes an ICMP error message into `out`, replacing its contents:
/// the header, `original` (the quoted datagram) and, when `lses`
/// yields any entry, the RFC 4884 extension structure holding one RFC
/// 4950 MPLS Label Stack object with those entries, top first. Both
/// checksums are filled. Only the last entry carries the
/// bottom-of-stack bit, whatever the given entries say.
///
/// This is the one encoder of error messages; it reuses `out`'s
/// allocation, so a caller that keeps one buffer per trace encodes
/// every reply without allocating. On error `out` is left empty.
pub fn write_error<I>(
    out: &mut Vec<u8>,
    kind: ErrorKind,
    original: &[u8],
    lses: I,
) -> WireResult<()>
where
    I: ExactSizeIterator<Item = Lse>,
{
    out.clear();
    out.resize(error_len(original.len(), lses.len()), 0);
    let written = emit_error(out, kind, original, lses);
    if written.is_err() {
        out.clear();
    }
    written
}

/// Emits an error message into `buf`, which is zeroed and exactly
/// [`error_len`] long.
fn emit_error<I>(buf: &mut [u8], kind: ErrorKind, original: &[u8], lses: I) -> WireResult<()>
where
    I: ExactSizeIterator<Item = Lse>,
{
    let (icmp_type, code) = kind.type_and_code();
    buf[0] = u8::from(icmp_type);
    buf[1] = code;
    buf[HEADER_LEN..HEADER_LEN + original.len()].copy_from_slice(original);
    let depth = lses.len();
    if depth > 0 {
        // RFC 4884: the length field counts 32-bit words of the padded
        // original datagram, in the second rest-of-header byte.
        let quoted = quoted_len(original.len(), depth);
        buf[5] = u8::try_from(quoted / 4).map_err(|_| WireError::Malformed)?;
        let ext = &mut buf[HEADER_LEN + quoted..];
        ext[0] = EXTENSION_VERSION << 4;
        let obj_len = u16::try_from(4 + depth * LSE_LEN).map_err(|_| WireError::Malformed)?;
        ext[4..6].copy_from_slice(&obj_len.to_be_bytes());
        ext[6] = MPLS_CLASS;
        ext[7] = MPLS_CTYPE_INCOMING;
        for (i, (slot, lse)) in ext[8..].chunks_exact_mut(LSE_LEN).zip(lses).enumerate() {
            Lse { bottom: i + 1 == depth, ..lse }.emit(slot)?;
        }
        let c = checksum::checksum(ext);
        ext[2..4].copy_from_slice(&c.to_be_bytes());
    }
    let c = checksum::checksum(buf);
    buf[2..4].copy_from_slice(&c.to_be_bytes());
    Ok(())
}

/// The validated LSE bytes of the first MPLS Label Stack object in an
/// RFC 4884 extension structure (other object classes are skipped),
/// or `None` when it holds none.
fn mpls_object(ext: &[u8]) -> WireResult<Option<&[u8]>> {
    if ext.len() < 4 {
        return Err(WireError::Truncated);
    }
    if ext[0] >> 4 != EXTENSION_VERSION {
        return Err(WireError::BadVersion);
    }
    if !checksum::verify(ext) {
        return Err(WireError::BadChecksum);
    }
    let mut offset = 4;
    while offset + 4 <= ext.len() {
        let obj_len = usize::from(u16::from_be_bytes([ext[offset], ext[offset + 1]]));
        let class = ext[offset + 2];
        let ctype = ext[offset + 3];
        if obj_len < 4 || offset + obj_len > ext.len() {
            return Err(WireError::Malformed);
        }
        if class == MPLS_CLASS && ctype == MPLS_CTYPE_INCOMING {
            let entries = &ext[offset + 4..offset + obj_len];
            let stack_len = Lses::parse(entries)?.len() * LSE_LEN;
            return Ok(Some(&entries[..stack_len]));
        }
        offset += obj_len;
    }
    Ok(None)
}

/// The entries an owned extension quotes, top first.
fn quoted_entries(
    extension: &Option<MplsExtension>,
) -> core::iter::Copied<core::slice::Iter<'_, Lse>> {
    extension.as_ref().map_or(&[][..], |e| e.stack.entries()).iter().copied()
}

/// A parsed ICMP message, borrowed from its buffer: checksums
/// verified, the quoted datagram and the RFC 4950 label stack located
/// and validated, nothing copied. [`IcmpMessage::parse`] is its owned
/// form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpView<'a> {
    icmp_type: IcmpType,
    code: u8,
    /// Rest-of-header bytes (an echo's identifier and sequence).
    rest: [u8; 4],
    /// The quoted datagram; empty for echo messages.
    original: &'a [u8],
    /// The validated LSE bytes; empty without an MPLS object.
    lses: &'a [u8],
}

impl<'a> IcmpView<'a> {
    /// Parses an ICMP message, verifying its checksum and, for an RFC
    /// 4884 multi-part error, the extension's checksum and label
    /// stack. Counts `wire.icmp.parsed` and, on failure,
    /// `wire.icmp.parse_errors`.
    pub fn parse(buf: &'a [u8]) -> WireResult<IcmpView<'a>> {
        let parsed = Self::parse_inner(buf);
        let metrics = &*PARSE_METRICS;
        metrics.0.inc();
        if parsed.is_err() {
            metrics.1.inc();
        }
        parsed
    }

    fn parse_inner(buf: &'a [u8]) -> WireResult<IcmpView<'a>> {
        let Some((header, body)) = buf.split_first_chunk::<HEADER_LEN>() else {
            return Err(WireError::Truncated);
        };
        if !checksum::verify(buf) {
            return Err(WireError::BadChecksum);
        }
        let icmp_type = IcmpType::from(header[0]);
        let rest = [header[4], header[5], header[6], header[7]];
        let mut view = IcmpView { icmp_type, code: header[1], rest, original: &[], lses: &[] };
        match icmp_type {
            IcmpType::EchoRequest | IcmpType::EchoReply => {}
            IcmpType::TimeExceeded | IcmpType::DestUnreachable => {
                let length_words = usize::from(header[5]);
                if length_words == 0 {
                    view.original = body;
                } else {
                    // RFC 4884 multi-part message.
                    let quoted_len = length_words * 4;
                    if quoted_len > body.len() {
                        return Err(WireError::Truncated);
                    }
                    let (original, ext) = body.split_at(quoted_len);
                    view.original = original;
                    view.lses = mpls_object(ext)?.unwrap_or_default();
                }
            }
            IcmpType::Other(_) => return Err(WireError::Malformed),
        }
        Ok(view)
    }

    /// The quoted original datagram (padding included), for error
    /// messages.
    pub fn original_datagram(&self) -> Option<&'a [u8]> {
        matches!(self.icmp_type, IcmpType::TimeExceeded | IcmpType::DestUnreachable)
            .then_some(self.original)
    }

    /// The RFC 4950 quoted label stack, top first; empty when the
    /// message carries no MPLS object.
    pub fn lses(&self) -> Lses<'a> {
        Lses::validated(self.lses)
    }
}

impl From<IcmpView<'_>> for IcmpMessage {
    fn from(view: IcmpView<'_>) -> IcmpMessage {
        let [id_hi, id_lo, seq_hi, seq_lo] = view.rest;
        let (ident, seq) =
            (u16::from_be_bytes([id_hi, id_lo]), u16::from_be_bytes([seq_hi, seq_lo]));
        let original = view.original.to_vec();
        let extension =
            (!view.lses.is_empty()).then(|| MplsExtension { stack: view.lses().collect() });
        match view.icmp_type {
            IcmpType::EchoRequest => IcmpMessage::EchoRequest { ident, seq },
            IcmpType::EchoReply => IcmpMessage::EchoReply { ident, seq },
            IcmpType::TimeExceeded => IcmpMessage::TimeExceeded { original, extension },
            // `IcmpView::parse` admits no other type.
            IcmpType::DestUnreachable | IcmpType::Other(_) => {
                IcmpMessage::DestUnreachable { code: view.code, original, extension }
            }
        }
    }
}

/// A decoded ICMP message, owning its quoted datagram and label
/// stack: the owned form of [`IcmpView`] and of [`write_error`]'s
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Echo request carrying an identifier and sequence number.
    EchoRequest {
        /// Identifier, usually the prober's session id.
        ident: u16,
        /// Sequence number.
        seq: u16,
    },
    /// Echo reply mirroring the request's identifier and sequence.
    EchoReply {
        /// Identifier echoed back.
        ident: u16,
        /// Sequence echoed back.
        seq: u16,
    },
    /// Time exceeded (TTL expiry in transit), quoting the offending
    /// datagram and, for RFC 4950 routers, the incoming label stack.
    TimeExceeded {
        /// The quoted original datagram (IPv4 header + leading payload).
        original: Vec<u8>,
        /// The RFC 4950 MPLS extension, if the router emitted one.
        extension: Option<MplsExtension>,
    },
    /// Destination unreachable with the given code (3 = port
    /// unreachable, the signal that a UDP probe reached its target).
    DestUnreachable {
        /// The unreachable code.
        code: u8,
        /// The quoted original datagram.
        original: Vec<u8>,
        /// The RFC 4950 MPLS extension, if present.
        extension: Option<MplsExtension>,
    },
}

impl IcmpMessage {
    /// The ICMP type of this message.
    pub fn icmp_type(&self) -> IcmpType {
        match self {
            IcmpMessage::EchoRequest { .. } => IcmpType::EchoRequest,
            IcmpMessage::EchoReply { .. } => IcmpType::EchoReply,
            IcmpMessage::TimeExceeded { .. } => IcmpType::TimeExceeded,
            IcmpMessage::DestUnreachable { .. } => IcmpType::DestUnreachable,
        }
    }

    /// The quoted MPLS extension, for error messages that carry one.
    pub fn mpls_extension(&self) -> Option<&MplsExtension> {
        match self {
            IcmpMessage::TimeExceeded { extension, .. }
            | IcmpMessage::DestUnreachable { extension, .. } => extension.as_ref(),
            _ => None,
        }
    }

    /// The quoted original datagram, for error messages.
    pub fn original_datagram(&self) -> Option<&[u8]> {
        match self {
            IcmpMessage::TimeExceeded { original, .. }
            | IcmpMessage::DestUnreachable { original, .. } => Some(original),
            _ => None,
        }
    }

    /// Emitted wire length in bytes. An extension with an empty stack
    /// is not emitted.
    pub fn buffer_len(&self) -> usize {
        match self {
            IcmpMessage::EchoRequest { .. } | IcmpMessage::EchoReply { .. } => HEADER_LEN,
            IcmpMessage::TimeExceeded { original, extension }
            | IcmpMessage::DestUnreachable { original, extension, .. } => {
                error_len(original.len(), quoted_entries(extension).len())
            }
        }
    }

    /// Emits the message (with checksum) into `buf`; error messages go
    /// through the encoder behind [`write_error`].
    pub fn emit(&self, buf: &mut [u8]) -> WireResult<()> {
        let total = self.buffer_len();
        if buf.len() < total {
            return Err(WireError::Truncated);
        }
        let buf = &mut buf[..total];
        buf.fill(0);
        match self {
            IcmpMessage::EchoRequest { ident, seq } | IcmpMessage::EchoReply { ident, seq } => {
                buf[0] = u8::from(self.icmp_type());
                buf[4..6].copy_from_slice(&ident.to_be_bytes());
                buf[6..8].copy_from_slice(&seq.to_be_bytes());
                let c = checksum::checksum(buf);
                buf[2..4].copy_from_slice(&c.to_be_bytes());
                Ok(())
            }
            IcmpMessage::TimeExceeded { original, extension } => {
                emit_error(buf, ErrorKind::TimeExceeded, original, quoted_entries(extension))
            }
            IcmpMessage::DestUnreachable { code, original, extension } => emit_error(
                buf,
                ErrorKind::DestUnreachable(*code),
                original,
                quoted_entries(extension),
            ),
        }
    }

    /// Returns the wire encoding as an owned vector. Fails like
    /// [`IcmpMessage::emit`] when a quoted datagram or extension
    /// cannot be encoded.
    pub fn to_bytes(&self) -> WireResult<Vec<u8>> {
        let mut buf = vec![0u8; self.buffer_len()];
        self.emit(&mut buf)?;
        Ok(buf)
    }

    /// Parses an ICMP message, verifying its checksum: an owned copy
    /// of [`IcmpView::parse`].
    pub fn parse(buf: &[u8]) -> WireResult<IcmpMessage> {
        IcmpView::parse(buf).map(IcmpMessage::from)
    }
}

/// A thin checked view exposing type/code/checksum of a raw buffer.
#[derive(Debug, Clone)]
pub struct IcmpPacket<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> IcmpPacket<T> {
    /// Wraps a buffer, validating the minimum length.
    pub fn new_checked(buffer: T) -> WireResult<IcmpPacket<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        Ok(IcmpPacket { buffer })
    }

    /// The message type.
    pub fn icmp_type(&self) -> IcmpType {
        IcmpType::from(self.buffer.as_ref()[0])
    }

    /// The message code.
    pub fn code(&self) -> u8 {
        self.buffer.as_ref()[1]
    }

    /// Whether the stored checksum verifies.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(self.buffer.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpls::Label;
    use proptest::prelude::*;

    fn stack(labels: &[u32]) -> LabelStack {
        let labels: Vec<Label> = labels.iter().map(|&l| Label::new(l).unwrap()).collect();
        LabelStack::from_labels(&labels, 1)
    }

    #[test]
    fn echo_round_trip() {
        let msg = IcmpMessage::EchoRequest { ident: 77, seq: 4242 };
        assert_eq!(IcmpMessage::parse(&msg.to_bytes().unwrap()).unwrap(), msg);
        let msg = IcmpMessage::EchoReply { ident: 1, seq: 2 };
        assert_eq!(IcmpMessage::parse(&msg.to_bytes().unwrap()).unwrap(), msg);
    }

    #[test]
    fn time_exceeded_without_extension() {
        let original = vec![0xaa; 28];
        let msg = IcmpMessage::TimeExceeded { original: original.clone(), extension: None };
        let parsed = IcmpMessage::parse(&msg.to_bytes().unwrap()).unwrap();
        assert_eq!(parsed.original_datagram().unwrap(), &original[..]);
        assert!(parsed.mpls_extension().is_none());
    }

    #[test]
    fn time_exceeded_with_rfc4950_extension() {
        let original = vec![0x45; 28];
        let ext = MplsExtension { stack: stack(&[16_005, 24_001]) };
        let msg =
            IcmpMessage::TimeExceeded { original: original.clone(), extension: Some(ext.clone()) };
        let bytes = msg.to_bytes().unwrap();
        let parsed = IcmpMessage::parse(&bytes).unwrap();
        // The quoted datagram is padded to 128 bytes per RFC 4884.
        let quoted = parsed.original_datagram().unwrap();
        assert_eq!(quoted.len(), ORIGINAL_DATAGRAM_MIN_LEN);
        assert_eq!(&quoted[..original.len()], &original[..]);
        assert_eq!(parsed.mpls_extension().unwrap(), &ext);
    }

    #[test]
    fn dest_unreachable_round_trip() {
        let msg = IcmpMessage::DestUnreachable {
            code: 3,
            original: vec![1; 28],
            extension: Some(MplsExtension { stack: stack(&[30_000]) }),
        };
        let parsed = IcmpMessage::parse(&msg.to_bytes().unwrap()).unwrap();
        assert_eq!(parsed, msg_with_padded_original(msg.clone()));
        match parsed {
            IcmpMessage::DestUnreachable { code, .. } => assert_eq!(code, 3),
            _ => panic!("wrong variant"),
        }
    }

    /// Emitting pads the original datagram; mirror that for equality checks.
    fn msg_with_padded_original(msg: IcmpMessage) -> IcmpMessage {
        match msg {
            IcmpMessage::TimeExceeded { mut original, extension } => {
                if extension.is_some() {
                    original.resize(ORIGINAL_DATAGRAM_MIN_LEN, 0);
                }
                IcmpMessage::TimeExceeded { original, extension }
            }
            IcmpMessage::DestUnreachable { code, mut original, extension } => {
                if extension.is_some() {
                    original.resize(ORIGINAL_DATAGRAM_MIN_LEN, 0);
                }
                IcmpMessage::DestUnreachable { code, original, extension }
            }
            other => other,
        }
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let mut bytes = IcmpMessage::EchoReply { ident: 5, seq: 6 }.to_bytes().unwrap();
        bytes[4] ^= 0xff;
        assert_eq!(IcmpMessage::parse(&bytes).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn corrupted_extension_checksum_is_rejected() {
        let ext = MplsExtension { stack: stack(&[16_000]) };
        let msg = IcmpMessage::TimeExceeded { original: vec![0; 28], extension: Some(ext) };
        let mut bytes = msg.to_bytes().unwrap();
        let ext_start = HEADER_LEN + ORIGINAL_DATAGRAM_MIN_LEN;
        bytes[ext_start + 8] ^= 0x01; // flip a bit inside the first LSE
                                      // Fix the outer ICMP checksum so only the extension checksum fails.
        bytes[2] = 0;
        bytes[3] = 0;
        let c = checksum::checksum(&bytes);
        bytes[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(IcmpMessage::parse(&bytes).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn extension_skips_foreign_objects() {
        // Build an extension with a non-MPLS object before the MPLS one.
        let mpls = stack(&[17_005]);
        let mut buf = vec![0u8; 4 + 8 + 4 + mpls.wire_len()];
        buf[0] = EXTENSION_VERSION << 4;
        // Foreign object: length 8, class 3 (interface info), ctype 1.
        buf[4..6].copy_from_slice(&8u16.to_be_bytes());
        buf[6] = 3;
        buf[7] = 1;
        // MPLS object afterwards.
        let obj_len = 4 + mpls.wire_len();
        buf[12..14].copy_from_slice(&(obj_len as u16).to_be_bytes());
        buf[14] = MPLS_CLASS;
        buf[15] = MPLS_CTYPE_INCOMING;
        mpls.emit(&mut buf[16..]).unwrap();
        let c = checksum::checksum(&buf);
        buf[2..4].copy_from_slice(&c.to_be_bytes());
        let entries = mpls_object(&buf).unwrap().unwrap();
        assert_eq!(Lses::validated(entries).collect::<LabelStack>(), mpls);
    }

    #[test]
    fn extension_absent_returns_none() {
        let mut buf = vec![0u8; 4];
        buf[0] = EXTENSION_VERSION << 4;
        let c = checksum::checksum(&buf);
        buf[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(mpls_object(&buf).unwrap(), None);
    }

    #[test]
    fn extension_bad_version() {
        let buf = [0x10, 0, 0, 0];
        assert_eq!(mpls_object(&buf).unwrap_err(), WireError::BadVersion);
    }

    #[test]
    fn writer_matches_the_owned_encoding_and_reuses_its_buffer() {
        let original = [0x45u8; 28];
        let quoted = stack(&[16_005, 24_001, 3]);
        let mut out = Vec::with_capacity(256);
        let capacity = out.capacity();
        for (kind, msg) in [
            (
                ErrorKind::TimeExceeded,
                IcmpMessage::TimeExceeded {
                    original: original.to_vec(),
                    extension: Some(MplsExtension { stack: quoted.clone() }),
                },
            ),
            (
                ErrorKind::DestUnreachable(3),
                IcmpMessage::DestUnreachable {
                    code: 3,
                    original: original.to_vec(),
                    extension: Some(MplsExtension { stack: quoted.clone() }),
                },
            ),
        ] {
            write_error(&mut out, kind, &original, quoted.entries().iter().copied()).unwrap();
            assert_eq!(out, msg.to_bytes().unwrap());
            let view = IcmpView::parse(&out).unwrap();
            assert_eq!(view.lses().collect::<LabelStack>(), quoted);
            assert_eq!(view.original_datagram().unwrap().len(), ORIGINAL_DATAGRAM_MIN_LEN);
            assert_eq!(IcmpMessage::from(view), IcmpMessage::parse(&out).unwrap());
        }
        // No entries: no extension, no padding, no length byte.
        write_error(&mut out, ErrorKind::TimeExceeded, &original, core::iter::empty()).unwrap();
        assert_eq!(out.len(), HEADER_LEN + original.len());
        assert_eq!(out[5], 0);
        let view = IcmpView::parse(&out).unwrap();
        assert_eq!(view.original_datagram().unwrap(), &original[..]);
        assert_eq!(view.lses().len(), 0);
        assert_eq!(out.capacity(), capacity, "the writer reuses the caller's allocation");
    }

    #[test]
    fn writer_fixes_bottom_of_stack_bits() {
        let lses = [16_001, 16_002].map(|v| Lse::new(Label::new(v).unwrap(), true, 9));
        let mut out = Vec::new();
        write_error(&mut out, ErrorKind::TimeExceeded, &[0; 28], lses.into_iter()).unwrap();
        let bottoms: Vec<bool> = IcmpView::parse(&out).unwrap().lses().map(|l| l.bottom).collect();
        assert_eq!(bottoms, [false, true]);
    }

    #[test]
    fn unencodable_entries_leave_the_buffer_empty() {
        let bad = Lse { label: Label::GAL, tc: 8, bottom: true, ttl: 1 };
        let mut out = vec![1, 2, 3];
        let written = write_error(&mut out, ErrorKind::TimeExceeded, &[0; 28], [bad].into_iter());
        assert_eq!(written, Err(WireError::Malformed));
        assert!(out.is_empty());
    }

    #[test]
    fn icmp_packet_view() {
        let bytes = IcmpMessage::EchoRequest { ident: 9, seq: 10 }.to_bytes().unwrap();
        let view = IcmpPacket::new_checked(&bytes[..]).unwrap();
        assert_eq!(view.icmp_type(), IcmpType::EchoRequest);
        assert_eq!(view.code(), 0);
        assert!(view.verify_checksum());
        assert!(IcmpPacket::new_checked(&bytes[..4]).is_err());
    }

    proptest! {
        #[test]
        fn prop_time_exceeded_round_trip(
            original in prop::collection::vec(any::<u8>(), 20..120),
            labels in prop::collection::vec(0u32..=crate::mpls::MAX_LABEL, 1..8),
            with_ext: bool,
        ) {
            let extension = with_ext.then(|| MplsExtension { stack: stack(&labels) });
            let msg = IcmpMessage::TimeExceeded { original: original.clone(), extension: extension.clone() };
            let parsed = IcmpMessage::parse(&msg.to_bytes().unwrap()).unwrap();
            match parsed {
                IcmpMessage::TimeExceeded { original: got, extension: got_ext } => {
                    prop_assert_eq!(&got[..original.len()], &original[..]);
                    prop_assert_eq!(got_ext, extension);
                }
                _ => prop_assert!(false, "wrong variant"),
            }
        }

        #[test]
        fn prop_echo_round_trip(ident: u16, seq: u16) {
            let msg = IcmpMessage::EchoRequest { ident, seq };
            prop_assert_eq!(IcmpMessage::parse(&msg.to_bytes().unwrap()).unwrap(), msg);
        }
    }
}
