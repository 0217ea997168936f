//! Robustness of the borrowed ICMP decoder against damaged replies.
//!
//! Encodes the replies a probe can draw — time-exceeded and port
//! unreachable, without an extension, with RFC 4950 stacks of depth
//! 1–4, and with a non-MPLS object ahead of the MPLS one — and feeds
//! every truncation and every single-bit flip of each to
//! `IcmpView::parse`. Each mutation is fed twice: as is (the ICMP
//! checksum catches it) and resealed (both checksums recomputed), so
//! the structural checks behind the checksums — the RFC 4884 length
//! byte, object lengths, bottom-of-stack bits — meet damaged input
//! too. Every input must decode to a value or a typed error, never
//! panic; agree with the owned `IcmpMessage::parse`; and the sweep
//! must allocate nothing.
//!
//! The counting allocator lives in `common`.

mod common;

use arest_wire::checksum;
use arest_wire::icmp::{write_error, ErrorKind, IcmpMessage, IcmpView, HEADER_LEN};
use arest_wire::mpls::{Label, Lse, LSE_LEN};
use arest_wire::WireResult;
use common::min_allocations;

/// The quoted datagram every reply carries.
const QUOTE: [u8; 28] = [0x45; 28];

fn stack(depth: u32) -> Vec<Lse> {
    (0..depth).map(|i| Lse::new(Label::new(16_000 + i).expect("a label"), false, 250)).collect()
}

/// Recomputes the extension checksum (when the length byte points at
/// an extension) and then the ICMP checksum, so a mutation reaches
/// the structural checks.
fn reseal(buf: &mut [u8]) {
    if buf.len() < HEADER_LEN {
        return;
    }
    let ext_start = HEADER_LEN + usize::from(buf[5]) * 4;
    if buf[5] > 0 && ext_start + 4 <= buf.len() {
        let ext = &mut buf[ext_start..];
        ext[2..4].fill(0);
        let c = checksum::checksum(ext);
        ext[2..4].copy_from_slice(&c.to_be_bytes());
    }
    buf[2..4].fill(0);
    let c = checksum::checksum(buf);
    buf[2..4].copy_from_slice(&c.to_be_bytes());
}

/// `reply` with an 8-byte interface-information object (class 2)
/// spliced in ahead of its MPLS object.
fn with_foreign_object(reply: &[u8]) -> Vec<u8> {
    let ext_start = HEADER_LEN + usize::from(reply[5]) * 4;
    let mut spliced = reply[..ext_start + 4].to_vec();
    spliced.extend_from_slice(&[0, 8, 2, 1, 0xde, 0xad, 0xbe, 0xef]);
    spliced.extend_from_slice(&reply[ext_start + 4..]);
    reseal(&mut spliced);
    spliced
}

/// The encoded replies and the stack depth each quotes.
fn replies() -> Vec<(Vec<u8>, usize)> {
    let mut replies = Vec::new();
    for kind in [ErrorKind::TimeExceeded, ErrorKind::DestUnreachable(3)] {
        for depth in 0..=4 {
            let mut reply = Vec::new();
            write_error(&mut reply, kind, &QUOTE, stack(depth).into_iter()).expect("encodable");
            if depth == 2 {
                replies.push((with_foreign_object(&reply), 2));
            }
            replies.push((reply, depth as usize));
        }
    }
    replies
}

/// Every truncation and single-bit flip of `reply`, each as is and
/// resealed.
fn mutations(reply: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for len in 0..reply.len() {
        out.push(reply[..len].to_vec());
        let mut sealed = reply[..len].to_vec();
        reseal(&mut sealed);
        out.push(sealed);
    }
    for bit in 0..reply.len() * 8 {
        let mut flipped = reply.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        out.push(flipped.clone());
        reseal(&mut flipped);
        out.push(flipped);
    }
    out
}

/// Decodes `buf` fully through the view: the quote's length and every
/// entry of the stack, folded so that nothing is skipped.
fn decode(buf: &[u8]) -> WireResult<u64> {
    let view = IcmpView::parse(buf)?;
    let quoted = view.original_datagram().map_or(0, <[u8]>::len) as u64;
    let lses = view.lses();
    let depth = lses.len();
    let mut fold = quoted;
    for (i, lse) in lses.enumerate() {
        assert_eq!(lse.bottom, i + 1 == depth, "a validated stack ends at its bottom entry");
        fold = fold.wrapping_mul(31) + u64::from(lse.label.value()) + u64::from(lse.ttl);
    }
    Ok(fold)
}

/// One test function on purpose (see `common`).
#[test]
fn damaged_replies_decode_to_values_or_typed_errors_without_allocating() {
    let replies = replies();
    for (reply, depth) in &replies {
        let view = IcmpView::parse(reply).expect("an intact reply parses");
        assert_eq!(view.lses().len(), *depth);
        assert_eq!(&view.original_datagram().expect("an error message")[..QUOTE.len()], &QUOTE);
    }
    let inputs: Vec<Vec<u8>> = replies
        .iter()
        .flat_map(|(reply, _)| mutations(reply))
        .chain(replies.iter().map(|r| r.0.clone()))
        .collect();

    let mut decoded = 0usize;
    for input in &inputs {
        let view = IcmpView::parse(input);
        assert_eq!(view.map(IcmpMessage::from), IcmpMessage::parse(input), "{input:02x?}");
        decoded += usize::from(view.is_ok());
        if let Ok(view) = view {
            let quoted = view.original_datagram().map_or(0, <[u8]>::len);
            assert!(HEADER_LEN + quoted + view.lses().len() * LSE_LEN <= input.len());
        }
    }
    // Resealed flips of padding and label bits still decode.
    assert!(decoded > replies.len(), "only {decoded} of {} inputs decoded", inputs.len());

    let mut sink = 0u64;
    let allocations = min_allocations(|| {
        for input in &inputs {
            sink = sink.wrapping_add(decode(input).unwrap_or(1));
        }
    });
    assert_eq!(allocations, 0, "the view allocated while decoding {} inputs", inputs.len());
    assert_ne!(sink, 0);
}
