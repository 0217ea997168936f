//! The incremental-run sidecar: per-serial carry-forward metadata.
//!
//! A snapshot records *what* a campaign measured; the sidecar records
//! *how to build on it incrementally* — which serial it was based on,
//! which ASes were carried forward rather than re-probed, each AS's
//! raw trace volume (needed to reconstruct merged totals without the
//! raw traces themselves), and the fingerprint cache's addr→TTL
//! entries so the next slice re-probe can rehydrate the cache and
//! skip echo probes for unchanged addresses.
//!
//! The sidecar lives next to its snapshot as `run-<serial>.arest.aux`
//! and is sealed in the same frame as the run file (`frame.rs`), here
//! with three header fields: a checksummed fixed header, an FNV-1a 64
//! payload digest, typed [`LedgerError`]s on every malformed input,
//! and strict trailing-byte rejection. The snapshot format itself
//! stays at VERSION 1 — a reader that ignores sidecars sees exactly
//! the runs it always did.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "ARESTAUX"
//!      8     2  format version (big-endian u16, currently 1)
//!     10     2  RFC 1071 checksum over the whole 36-byte header
//!               (computed with this field zeroed)
//!     12     8  serial
//!     20     8  payload length in bytes
//!     28     8  payload digest (FNV-1a 64 of the payload bytes)
//! ```
//!
//! The payload reuses the snapshot codec (LEB128 varints, strict
//! booleans, big-endian addresses):
//!
//! ```text
//! bool has_base + varint base_serial        (if has_base)
//! varint n_carried + n_carried × varint asn (catalog order)
//! varint n_as + n_as × (varint asn, varint raw_traces)
//! varint n_cache + n_cache × (4-byte BE addr, bool has_ttl,
//!                             1 TTL byte if has_ttl)
//! ```

use crate::codec::{put_bool, put_varint, Reader};
use crate::error::{LedgerError, LedgerResult};
use crate::frame::Frame;
use std::net::Ipv4Addr;

/// The 8-byte sidecar magic.
pub const AUX_MAGIC: [u8; 8] = *b"ARESTAUX";

/// The sidecar format version this build writes and accepts.
pub const AUX_VERSION: u16 = 1;

const FRAME: Frame<3> = Frame {
    magic: AUX_MAGIC,
    version: AUX_VERSION,
    trailing: "trailing bytes after the aux payload",
};

/// Fixed sidecar header size in bytes.
pub const AUX_HEADER_LEN: usize = FRAME.header_len();

/// Minimum encoded sizes of one list entry, in bytes: a carried ASN
/// is one varint; a raw-trace pair two; a cache entry an address plus
/// its `has_ttl` byte. [`Reader::entries`] bounds each count by the
/// bytes left over its entry's minimum size, so no count can pre-size
/// a list beyond what the payload could actually hold.
const MIN_CARRIED_BYTES: usize = 1;
const MIN_RAW_TRACE_BYTES: usize = 2;
const MIN_CACHE_BYTES: usize = 5;

/// Carry-forward metadata for one committed serial.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuxRecord {
    /// The serial this run was merged against, if it was incremental.
    pub base_serial: Option<u64>,
    /// ASNs whose results were carried forward unprobed, in catalog
    /// order. Empty for a full run.
    pub carried: Vec<u32>,
    /// `(asn, raw trace count)` for every catalog AS, in catalog
    /// order — the inputs a future merge needs to recompute
    /// `RunTotals::raw_traces` without the traces themselves.
    pub raw_traces: Vec<(u32, u64)>,
    /// The fingerprint cache's memoized `(address, TTL)` entries,
    /// address-sorted. `None` records a probe that got no echo reply.
    pub cache: Vec<(Ipv4Addr, Option<u8>)>,
}

impl AuxRecord {
    /// The recorded raw trace count for `asn`, if present.
    #[must_use]
    pub fn raw_for(&self, asn: u32) -> Option<u64> {
        self.raw_traces.iter().find(|(a, _)| *a == asn).map(|(_, raw)| *raw)
    }
}

fn encode_aux_payload(aux: &AuxRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_bool(&mut out, aux.base_serial.is_some());
    if let Some(base) = aux.base_serial {
        put_varint(&mut out, base);
    }
    put_varint(&mut out, aux.carried.len() as u64);
    for asn in &aux.carried {
        put_varint(&mut out, u64::from(*asn));
    }
    put_varint(&mut out, aux.raw_traces.len() as u64);
    for (asn, raw) in &aux.raw_traces {
        put_varint(&mut out, u64::from(*asn));
        put_varint(&mut out, *raw);
    }
    put_varint(&mut out, aux.cache.len() as u64);
    for (addr, ttl) in &aux.cache {
        out.extend_from_slice(&addr.octets());
        put_bool(&mut out, ttl.is_some());
        if let Some(ttl) = ttl {
            out.push(*ttl);
        }
    }
    out
}

fn decode_aux_payload(payload: &[u8]) -> LedgerResult<AuxRecord> {
    let mut r = Reader::new(payload);
    let base_serial = if r.bool()? { Some(r.varint()?) } else { None };
    let n_carried = r.entries(MIN_CARRIED_BYTES)?;
    let mut carried = Vec::with_capacity(n_carried);
    for _ in 0..n_carried {
        let asn = u32::try_from(r.varint()?)
            .map_err(|_| LedgerError::Malformed("carried ASN exceeds 32 bits"))?;
        carried.push(asn);
    }
    let n_as = r.entries(MIN_RAW_TRACE_BYTES)?;
    let mut raw_traces = Vec::with_capacity(n_as);
    for _ in 0..n_as {
        let asn = u32::try_from(r.varint()?)
            .map_err(|_| LedgerError::Malformed("raw-trace ASN exceeds 32 bits"))?;
        raw_traces.push((asn, r.varint()?));
    }
    let n_cache = r.entries(MIN_CACHE_BYTES)?;
    let mut cache = Vec::with_capacity(n_cache);
    for _ in 0..n_cache {
        let octets: [u8; 4] = r.take(4)?.try_into().expect("take(4) returns exactly four bytes");
        let ttl = if r.bool()? { Some(r.u8()?) } else { None };
        cache.push((Ipv4Addr::from(octets), ttl));
    }
    if !r.is_empty() {
        return Err(LedgerError::Malformed("trailing bytes after the aux payload"));
    }
    Ok(AuxRecord { base_serial, carried, raw_traces, cache })
}

/// Serializes a complete sidecar file: header + payload.
#[must_use]
pub fn encode_aux_file(aux: &AuxRecord, serial: u64) -> Vec<u8> {
    FRAME.seal(&[serial], &encode_aux_payload(aux)).0
}

/// Decodes a complete sidecar file, verifying the header checksum,
/// the serial, the payload length, and the payload digest before
/// touching the payload structure.
pub fn decode_aux_file(bytes: &[u8], expected_serial: Option<u64>) -> LedgerResult<AuxRecord> {
    decode_aux_payload(FRAME.open(bytes, expected_serial)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8], serial: u64) -> Vec<u8> {
        FRAME.seal(&[serial], payload).0
    }

    fn sample() -> AuxRecord {
        AuxRecord {
            base_serial: Some(3),
            carried: vec![65010, 65020],
            raw_traces: vec![(65010, 12), (65020, 0), (65030, 7)],
            cache: vec![
                (Ipv4Addr::new(10, 0, 0, 1), Some(255)),
                (Ipv4Addr::new(10, 0, 0, 2), None),
                (Ipv4Addr::new(10, 0, 9, 9), Some(64)),
            ],
        }
    }

    #[test]
    fn aux_round_trips() {
        let aux = sample();
        let bytes = encode_aux_file(&aux, 4);
        let decoded = decode_aux_file(&bytes, Some(4)).expect("decode");
        assert_eq!(decoded, aux);
        assert_eq!(decoded.raw_for(65030), Some(7));
        assert_eq!(decoded.raw_for(99999), None);

        let full = AuxRecord::default();
        let bytes = encode_aux_file(&full, 1);
        assert_eq!(decode_aux_file(&bytes, None).expect("decode"), full);
    }

    #[test]
    fn aux_encoding_is_deterministic() {
        assert_eq!(encode_aux_file(&sample(), 4), encode_aux_file(&sample(), 4));
    }

    #[test]
    fn corruption_is_typed_never_a_panic() {
        let bytes = encode_aux_file(&sample(), 4);
        assert!(matches!(decode_aux_file(&bytes[..10], None), Err(LedgerError::Truncated)));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(decode_aux_file(&bad_magic, None), Err(LedgerError::BadMagic)));

        let mut flipped_header = bytes.clone();
        flipped_header[13] ^= 0x01;
        assert!(matches!(decode_aux_file(&flipped_header, None), Err(LedgerError::HeaderChecksum)));

        let mut flipped_payload = bytes.clone();
        let last = flipped_payload.len() - 1;
        flipped_payload[last] ^= 0x01;
        assert!(matches!(decode_aux_file(&flipped_payload, None), Err(LedgerError::PayloadDigest)));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(decode_aux_file(&trailing, None), Err(LedgerError::Malformed(_))));

        assert!(matches!(
            decode_aux_file(&bytes, Some(9)),
            Err(LedgerError::SerialMismatch { file: 9, header: 4 })
        ));
    }

    #[test]
    fn forged_cache_count_is_malformed_before_any_allocation() {
        // No base, no carried ASNs, no raw-trace pairs, then a cache
        // count of 10^6 with nothing behind it: the smallest sidecar
        // (36-byte header + 6-byte payload) that claims a million
        // entries, with a correct checksum and payload digest.
        let mut payload = vec![0u8, 0, 0];
        put_varint(&mut payload, 1_000_000);
        let bytes = frame(&payload, 1);
        assert_eq!(bytes.len(), 42);
        assert!(matches!(
            decode_aux_file(&bytes, Some(1)),
            Err(LedgerError::Malformed("count exceeds the bytes left"))
        ));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        // Each list may claim at most as many entries as the bytes left
        // could hold at that entry's minimum size.
        for (prefix, min) in [(vec![0u8], 1usize), (vec![0, 0], 2), (vec![0, 0, 0], 5)] {
            for (claimed, ok) in [(1u64, true), (2, false)] {
                let mut payload = prefix.clone();
                put_varint(&mut payload, claimed);
                payload.resize(payload.len() + min, 0);
                let result = decode_aux_file(&frame(&payload, 1), None);
                let malformed_count =
                    matches!(result, Err(LedgerError::Malformed("count exceeds the bytes left")));
                assert_eq!(!malformed_count, ok, "prefix {prefix:?} claiming {claimed}");
            }
        }
    }
}
