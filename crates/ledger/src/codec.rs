//! The payload byte codec: LEB128 varints and a bounds-checked
//! reader.
//!
//! Snapshot payloads are dominated by small integers (table indices,
//! hop offsets, flag counts), so LEB128 varints keep them compact;
//! fixed-width fields (addresses, the header) use big-endian like the
//! rest of `arest-wire`. The [`Reader`] checks every bound and
//! returns a typed [`LedgerError`] instead of panicking, which is the
//! property the corruption-matrix tests lean on.

use crate::error::{LedgerError, LedgerResult};

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a boolean as one strict byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

/// A cursor over payload bytes; every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> LedgerResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(LedgerError::Truncated)?;
        if end > self.bytes.len() {
            return Err(LedgerError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> LedgerResult<u8> {
        let byte = *self.bytes.get(self.pos).ok_or(LedgerError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a strict boolean byte: anything but 0 or 1 is malformed.
    pub fn bool(&mut self) -> LedgerResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(LedgerError::Malformed("boolean byte is not 0 or 1")),
        }
    }

    /// Reads a LEB128 varint (at most ten bytes, no overlong forms
    /// past the 64th bit).
    pub fn varint(&mut self) -> LedgerResult<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(LedgerError::Malformed("varint exceeds 64 bits"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(LedgerError::Malformed("varint exceeds 64 bits"))
    }

    /// Reads a varint and narrows it to `usize`, treating anything
    /// beyond `limit` as malformed — the guard that keeps a corrupted
    /// count field from driving a multi-gigabyte allocation.
    pub fn count(&mut self, limit: usize) -> LedgerResult<usize> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| LedgerError::Malformed("count overflows usize"))?;
        if n > limit {
            return Err(LedgerError::Malformed("count exceeds the structural limit"));
        }
        Ok(n)
    }

    /// Reads a list count whose entries each encode to at least
    /// `min_entry_bytes`, rejecting any count the bytes after it
    /// could not hold — so a forged count can never pre-size a list
    /// beyond what the input justifies.
    pub fn entries(&mut self, min_entry_bytes: usize) -> LedgerResult<usize> {
        let n = self.count(usize::MAX)?;
        match n.checked_mul(min_entry_bytes) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(LedgerError::Malformed("count exceeds the bytes left")),
        }
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> LedgerResult<&'a str> {
        let len = self.varint()?;
        let len =
            usize::try_from(len).map_err(|_| LedgerError::Malformed("string length overflow"))?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| LedgerError::Malformed("string is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for value in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut reader = Reader::new(&buf);
            assert_eq!(reader.varint().unwrap(), value);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // Eleven continuation bytes can never be a valid u64.
        let overlong = [0xffu8; 11];
        assert!(matches!(
            Reader::new(&overlong).varint(),
            Err(LedgerError::Malformed(_)) | Err(LedgerError::Truncated)
        ));
        let truncated = [0x80u8];
        assert!(matches!(Reader::new(&truncated).varint(), Err(LedgerError::Truncated)));
    }

    #[test]
    fn strings_and_bools_round_trip_and_reject_garbage() {
        let mut buf = Vec::new();
        put_str(&mut buf, "vp07");
        put_bool(&mut buf, true);
        let mut reader = Reader::new(&buf);
        assert_eq!(reader.str().unwrap(), "vp07");
        assert!(reader.bool().unwrap());

        assert!(matches!(Reader::new(&[2]).str(), Err(LedgerError::Truncated)));
        assert!(matches!(Reader::new(&[7]).bool(), Err(LedgerError::Malformed(_))));
        let bad_utf8 = [2u8, 0xff, 0xfe];
        assert!(matches!(Reader::new(&bad_utf8).str(), Err(LedgerError::Malformed(_))));
    }

    #[test]
    fn entries_are_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Reader::new(&buf).entries(2).unwrap(), 3);
        assert!(matches!(Reader::new(&buf).entries(3), Err(LedgerError::Malformed(_))));
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert!(matches!(Reader::new(&huge).entries(2), Err(LedgerError::Malformed(_))));
    }

    #[test]
    fn count_guard_rejects_implausible_lengths() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 40);
        assert!(matches!(Reader::new(&buf).count(1024), Err(LedgerError::Malformed(_))));
    }
}
