//! The sealed frame a run file ([`crate::file`]) and its sidecar
//! ([`crate::aux`]) share: an 8-byte magic, a big-endian u16 version,
//! an RFC 1071 checksum over the header (computed with its own field
//! zeroed), then `FIELDS` big-endian u64s — the serial first, the
//! payload length and its FNV-1a 64 digest last — then the payload.
//! Every malformed input is a typed [`LedgerError`], checked in one
//! order: truncated header, magic, header checksum, version, serial,
//! payload length, payload digest.

use crate::digest::fnv64;
use crate::error::{LedgerError, LedgerResult};

/// Bytes before the first u64 field: magic, version, checksum.
const PREAMBLE: usize = 12;

/// One sealed-file layout with `FIELDS` header fields.
pub(crate) struct Frame<const FIELDS: usize> {
    pub(crate) magic: [u8; 8],
    pub(crate) version: u16,
    /// The [`LedgerError::Malformed`] text for bytes past the payload.
    pub(crate) trailing: &'static str,
}

impl<const FIELDS: usize> Frame<FIELDS> {
    /// The fixed header size in bytes.
    pub(crate) const fn header_len(&self) -> usize {
        PREAMBLE + 8 * FIELDS
    }

    /// Prefixes `payload` with its header; `leading` are the fields
    /// before the payload length and digest. Returns the file bytes
    /// and the payload digest.
    pub(crate) fn seal(&self, leading: &[u64], payload: &[u8]) -> (Vec<u8>, u64) {
        debug_assert_eq!(leading.len() + 2, FIELDS, "a frame header has {FIELDS} fields");
        let digest = fnv64(payload);
        let mut out = Vec::with_capacity(self.header_len() + payload.len());
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        for field in leading.iter().chain(&[payload.len() as u64, digest]) {
            out.extend_from_slice(&field.to_be_bytes());
        }
        let checksum = arest_wire::checksum::checksum(&out);
        out[10..12].copy_from_slice(&checksum.to_be_bytes());
        out.extend_from_slice(payload);
        (out, digest)
    }

    /// Verifies the header alone and returns its fields.
    /// `expected_serial` is the serial the file *name* claims.
    pub(crate) fn header(
        &self,
        bytes: &[u8],
        expected_serial: Option<u64>,
    ) -> LedgerResult<[u64; FIELDS]> {
        let header = bytes.get(..self.header_len()).ok_or(LedgerError::Truncated)?;
        if header[..8] != self.magic {
            return Err(LedgerError::BadMagic);
        }
        if !arest_wire::checksum::verify(header) {
            return Err(LedgerError::HeaderChecksum);
        }
        let version = u16::from_be_bytes([header[8], header[9]]);
        if version != self.version {
            return Err(LedgerError::BadVersion(version));
        }
        let fields: [u64; FIELDS] = std::array::from_fn(|i| {
            let at = PREAMBLE + 8 * i;
            u64::from_be_bytes(header[at..at + 8].try_into().expect("8-byte field"))
        });
        match expected_serial {
            Some(file) if file != fields[0] => {
                Err(LedgerError::SerialMismatch { file, header: fields[0] })
            }
            _ => Ok(fields),
        }
    }

    /// The length rule: the payload after the header must be exactly
    /// as long as the header's length field says.
    pub(crate) fn check_len(&self, fields: &[u64; FIELDS], payload_len: u64) -> LedgerResult<()> {
        match payload_len.cmp(&fields[FIELDS - 2]) {
            std::cmp::Ordering::Less => Err(LedgerError::Truncated),
            std::cmp::Ordering::Greater => Err(LedgerError::Malformed(self.trailing)),
            std::cmp::Ordering::Equal => Ok(()),
        }
    }

    /// Verifies a whole sealed file and borrows its payload.
    pub(crate) fn open<'a>(
        &self,
        bytes: &'a [u8],
        expected_serial: Option<u64>,
    ) -> LedgerResult<([u64; FIELDS], &'a [u8])> {
        let fields = self.header(bytes, expected_serial)?;
        let payload = &bytes[self.header_len()..];
        self.check_len(&fields, payload.len() as u64)?;
        if fnv64(payload) != fields[FIELDS - 1] {
            return Err(LedgerError::PayloadDigest);
        }
        Ok((fields, payload))
    }
}
