//! The on-disk snapshot file: a fixed checksummed header followed by
//! the interned payload.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "ARESTLDG"
//!      8     2  format version (big-endian u16, currently 1)
//!     10     2  RFC 1071 checksum over the whole 60-byte header
//!               (computed with this field zeroed)
//!     12     8  serial
//!     20     8  committed_unix (seconds)
//!     28     8  config digest  (FNV-1a 64 of the pipeline config)
//!     36     8  catalog digest (FNV-1a 64 of the AS catalog)
//!     44     8  payload length in bytes
//!     52     8  payload digest (FNV-1a 64 of the payload bytes)
//! ```
//!
//! The header checksum catches any flipped header byte; the payload
//! digest catches any flipped payload byte. The payload deliberately
//! excludes the serial and timestamp, so two commits of the same
//! campaign produce byte-identical payloads (and equal payload
//! digests) — the content-addressed identity the empty-delta
//! byte-verification rides. The header is the sealed frame run files
//! share with their sidecars (`frame.rs`), here with six fields; this
//! module maps them to and from [`RunMeta`]. Decoding returns a typed
//! [`LedgerError`](crate::LedgerError) on every malformed input; it
//! never panics.

use crate::error::LedgerResult;
use crate::frame::Frame;
use crate::snapshot::{decode_payload, encode_payload, RunSnapshot};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ARESTLDG";

/// The format version this build writes and accepts.
pub const VERSION: u16 = 1;

const FRAME: Frame<6> =
    Frame { magic: MAGIC, version: VERSION, trailing: "trailing bytes after the payload" };

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = FRAME.header_len();

/// Everything the header records about a committed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// Monotonic serial within the ledger directory.
    pub serial: u64,
    /// Commit wall-clock time (Unix seconds, caller-supplied).
    pub committed_unix: u64,
    /// Digest of the pipeline configuration that produced the run.
    pub config_digest: u64,
    /// Digest of the AS catalog the run measured.
    pub catalog_digest: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Content digest of the payload — equal payloads, equal runs.
    pub payload_digest: u64,
}

impl RunMeta {
    fn from_fields(fields: [u64; 6]) -> RunMeta {
        let [serial, committed_unix, config_digest, catalog_digest, payload_len, payload_digest] =
            fields;
        RunMeta {
            serial,
            committed_unix,
            config_digest,
            catalog_digest,
            payload_len,
            payload_digest,
        }
    }
}

/// Serializes a complete snapshot file: header + payload.
#[must_use]
pub fn encode_file(snapshot: &RunSnapshot, meta: &RunMeta) -> Vec<u8> {
    seal_file(snapshot, meta).0
}

/// [`encode_file`], also returning the payload digest it stamped.
/// `meta`'s payload length and digest are ignored.
pub(crate) fn seal_file(snapshot: &RunSnapshot, meta: &RunMeta) -> (Vec<u8>, u64) {
    let leading = [meta.serial, meta.committed_unix, meta.config_digest, meta.catalog_digest];
    FRAME.seal(&leading, &encode_payload(snapshot))
}

/// Decodes and verifies the fixed header. `expected_serial` is the
/// serial the file *name* claims, when the caller knows it.
pub fn decode_header(bytes: &[u8], expected_serial: Option<u64>) -> LedgerResult<RunMeta> {
    FRAME.header(bytes, expected_serial).map(RunMeta::from_fields)
}

/// [`decode_header`] over a run file's leading bytes, plus the check
/// that a file of `file_len` bytes holds exactly the payload the
/// header claims; the payload itself is not read.
pub(crate) fn decode_sized_header(
    header: &[u8],
    file_len: u64,
    expected_serial: Option<u64>,
) -> LedgerResult<RunMeta> {
    let fields = FRAME.header(header, expected_serial)?;
    FRAME.check_len(&fields, file_len.saturating_sub(HEADER_LEN as u64))?;
    Ok(RunMeta::from_fields(fields))
}

/// Verifies a complete snapshot file's header checksum, payload
/// length and payload digest, and borrows its payload.
pub(crate) fn open_payload(
    bytes: &[u8],
    expected_serial: Option<u64>,
) -> LedgerResult<(RunMeta, &[u8])> {
    let (fields, payload) = FRAME.open(bytes, expected_serial)?;
    Ok((RunMeta::from_fields(fields), payload))
}

/// Decodes a complete snapshot file, verifying the header checksum,
/// the payload length, and the payload digest before touching the
/// payload structure.
pub fn decode_file(
    bytes: &[u8],
    expected_serial: Option<u64>,
) -> LedgerResult<(RunMeta, RunSnapshot)> {
    let (meta, payload) = open_payload(bytes, expected_serial)?;
    Ok((meta, decode_payload(payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::fnv64;
    use crate::error::LedgerError;
    use crate::snapshot::tests::sample;

    fn meta() -> RunMeta {
        RunMeta {
            serial: 3,
            committed_unix: 1_700_000_000,
            config_digest: 0x1111_2222_3333_4444,
            catalog_digest: 0x5555_6666_7777_8888,
            payload_len: 0, // filled by encode_file
            payload_digest: 0,
        }
    }

    #[test]
    fn file_round_trips() {
        let snapshot = sample();
        let bytes = encode_file(&snapshot, &meta());
        let (decoded_meta, decoded) = decode_file(&bytes, Some(3)).expect("decode");
        assert_eq!(decoded, snapshot);
        assert_eq!(decoded_meta.serial, 3);
        assert_eq!(decoded_meta.committed_unix, 1_700_000_000);
        assert_eq!(decoded_meta.payload_len as usize, bytes.len() - HEADER_LEN);
        assert_eq!(decoded_meta.payload_digest, fnv64(&bytes[HEADER_LEN..]));
    }

    #[test]
    fn serial_and_timestamp_stay_out_of_the_payload() {
        let snapshot = sample();
        let a = encode_file(&snapshot, &meta());
        let b = encode_file(&snapshot, &RunMeta { serial: 9, committed_unix: 42, ..meta() });
        assert_eq!(&a[HEADER_LEN..], &b[HEADER_LEN..], "payload is serial-independent");
        let da = decode_header(&a, None).expect("header a");
        let db = decode_header(&b, None).expect("header b");
        assert_eq!(da.payload_digest, db.payload_digest, "content-addressed identity");
    }

    #[test]
    fn filename_serial_mismatch_is_typed() {
        let bytes = encode_file(&sample(), &meta());
        assert!(matches!(
            decode_file(&bytes, Some(4)),
            Err(LedgerError::SerialMismatch { file: 4, header: 3 })
        ));
    }

    #[test]
    fn foreign_version_is_rejected_after_checksum() {
        let snapshot = sample();
        let mut bytes = encode_file(&snapshot, &meta());
        // A future writer would stamp version 2 with a *valid*
        // checksum; rebuild the header the way it would.
        bytes[8..10].copy_from_slice(&2u16.to_be_bytes());
        bytes[10..12].copy_from_slice(&[0, 0]);
        let checksum = arest_wire::checksum::checksum(&bytes[..HEADER_LEN]);
        bytes[10..12].copy_from_slice(&checksum.to_be_bytes());
        assert!(matches!(decode_file(&bytes, None), Err(LedgerError::BadVersion(2))));
    }
}
