//! Helpers shared by the ledger's integration tests.

use arest_ledger::{fnv64, HEADER_LEN};

/// Re-stamps a run file's payload length, payload digest and header
/// checksum to match the payload bytes it now carries, as a writer
/// sealing those bytes would. Damage to the payload then passes the
/// frame checks and reaches the payload parser.
pub fn reseal(file: &mut [u8]) {
    let payload_len = (file.len() - HEADER_LEN) as u64;
    let digest = fnv64(&file[HEADER_LEN..]);
    file[HEADER_LEN - 16..HEADER_LEN - 8].copy_from_slice(&payload_len.to_be_bytes());
    file[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&digest.to_be_bytes());
    file[10..12].copy_from_slice(&[0, 0]);
    let checksum = arest_wire::checksum::checksum(&file[..HEADER_LEN]);
    file[10..12].copy_from_slice(&checksum.to_be_bytes());
}
