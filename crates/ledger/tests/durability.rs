//! Snapshot durability: the corruption matrix and the property
//! round-trip.
//!
//! The ledger's contract is that **no** on-disk corruption panics or
//! silently decodes — truncation at any length, any single flipped
//! bit, a foreign magic, a file renamed onto the wrong serial all
//! surface as typed [`LedgerError`]s. These tests exercise the full
//! matrix against a real encoded file, then property-test the
//! encode/decode round trip over randomized snapshots.

use arest_ledger::file::{decode_file, decode_header, encode_file};
use arest_ledger::snapshot::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord, RunSnapshot, RunTotals,
};
use arest_ledger::{CommitOptions, Ledger, LedgerError, RunMeta, HEADER_LEN};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::Arc;

/// SplitMix64: the deterministic stream behind the generated
/// snapshots.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

const FLAGS: [(&str, u8); 5] = [("CVR", 5), ("CO", 4), ("LSVR", 4), ("LVR", 3), ("LSO", 1)];
const VENDORS: [Option<&str>; 3] = [Some("Cisco"), Some("Juniper"), None];

fn generated_detection(mix: &mut Mix, asn: u32) -> DetectionRecord {
    let (flag, stars) = FLAGS[mix.below(FLAGS.len() as u64) as usize];
    let start = mix.below(12);
    let fingerprint = VENDORS[mix.below(3) as usize].map(str::to_string);
    DetectionRecord {
        asn,
        vp: format!("vp{:02}", mix.below(8)),
        dst: format!("10.9.{}.{}", mix.below(200), mix.below(200)),
        flag: flag.to_string(),
        stars,
        start,
        end: start + 1 + mix.below(4),
        label: 16_000 + mix.below(4000) as u32,
        suffix_based: mix.below(2) == 0,
        provenance: ProvenanceRecord {
            trigger_hop: start,
            run_len: 1 + mix.below(5),
            distinct_addrs: 1 + mix.below(5),
            lses_consulted: mix.below(6),
            effective_depth: mix.below(4),
            fingerprint,
            label_in_vendor_range: mix.below(2) == 0,
            suffix_matched: mix.below(2) == 0,
            chain: format!("trigger_hop={start} label_run=..."),
        },
    }
}

/// A seed-determined snapshot: a handful of ASes, addresses whose
/// detection lists share records (so interning paths run), and
/// non-trivial totals.
fn generated_snapshot(seed: u64) -> RunSnapshot {
    let mut mix = Mix(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0x1405_7b7e_f767_814f);
    let as_count = 1 + mix.below(4) as usize;
    let mut ases = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..as_count {
        let asn = 64_500 + i as u32;
        let addr_count = mix.below(4) as usize;
        let shared = Arc::new(generated_detection(&mut mix, asn));
        let mut as_flags = FlagTotals::default();
        for a in 0..addr_count {
            let mut detections = Vec::new();
            if mix.below(2) == 0 {
                detections.push(Arc::clone(&shared));
            }
            if mix.below(3) == 0 {
                detections.push(Arc::new(generated_detection(&mut mix, asn)));
            }
            for d in &detections {
                as_flags.add(&d.flag);
            }
            let vendor = VENDORS[mix.below(3) as usize];
            addrs.push(AddrEntry {
                addr: Ipv4Addr::new(10, i as u8, a as u8, 1),
                asn,
                fingerprint: vendor.map(str::to_string),
                fingerprint_source: vendor.map(|_| "snmp".to_string()),
                detections,
            });
        }
        ases.push(AsRecord {
            id: (i + 1) as u8,
            asn,
            name: format!("AS {asn}"),
            astype: ["Stub", "Transit", "Tier-1"][mix.below(3) as usize].to_string(),
            confirmation: ["cisco", "survey", "none"][mix.below(3) as usize].to_string(),
            analyzed: mix.below(4) != 0,
            targets_probed: mix.below(64),
            traces: mix.below(64),
            addresses: addr_count as u64,
            fingerprinted: mix.below(1 + addr_count as u64),
            flags: as_flags,
        });
    }
    let totals = RunTotals {
        ases: as_count as u64,
        analyzed: ases.iter().filter(|a| a.analyzed).count() as u64,
        sr_deployed: ases.iter().filter(|a| a.flags.strong() > 0).count() as u64,
        addresses: addrs.len() as u64,
        fingerprinted: addrs.iter().filter(|a| a.fingerprint.is_some()).count() as u64,
        raw_traces: mix.below(500),
        intra_as_traces: mix.below(100),
        vantage_points: 1 + mix.below(8),
        flags: ases.iter().fold(FlagTotals::default(), |mut acc, a| {
            acc += a.flags;
            acc
        }),
    };
    RunSnapshot { ases, addrs, totals }
}

fn encoded_sample() -> Vec<u8> {
    let meta = RunMeta {
        serial: 3,
        committed_unix: 1_750_000_000,
        config_digest: 0x1234_5678_9abc_def0,
        catalog_digest: 0x0fed_cba9_8765_4321,
        payload_len: 0,
        payload_digest: 0,
    };
    encode_file(&generated_snapshot(42), &meta)
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let bytes = encoded_sample();
    for len in 0..bytes.len() {
        let result = decode_file(&bytes[..len], Some(3));
        assert!(
            result.is_err(),
            "a {len}-byte prefix of a {}-byte file must not decode",
            bytes.len()
        );
    }
    // And the whole file still does.
    decode_file(&bytes, Some(3)).expect("untouched file decodes");
}

#[test]
fn every_single_bit_flip_is_a_typed_error() {
    let bytes = encoded_sample();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            let result = decode_file(&flipped, Some(3));
            assert!(result.is_err(), "flipping bit {bit} of byte {i} must not decode cleanly");
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = encoded_sample();
    bytes[..8].copy_from_slice(b"NOTALEDG");
    assert!(matches!(decode_file(&bytes, Some(3)), Err(LedgerError::BadMagic)));
    assert!(matches!(decode_header(&bytes, None), Err(LedgerError::BadMagic)));
}

#[test]
fn sub_header_inputs_are_truncated() {
    assert!(matches!(decode_file(&[], None), Err(LedgerError::Truncated)));
    let bytes = encoded_sample();
    assert!(matches!(decode_file(&bytes[..HEADER_LEN - 1], Some(3)), Err(LedgerError::Truncated)));
}

#[test]
fn serial_regression_via_rename_is_typed() {
    let dir = scratch_dir("regress");
    let ledger = Ledger::open(&dir).expect("open");
    let options = CommitOptions { committed_unix: 1_750_000_000, ..Default::default() };
    ledger.commit(&generated_snapshot(1), &options).expect("commit 1");
    ledger.commit(&generated_snapshot(2), &options).expect("commit 2");
    // An operator (or an attacker) renames serial 1's file to serial
    // 5 — regressing history under a newer name. The header carries
    // the true serial, so the load is a typed mismatch, not silent
    // acceptance.
    std::fs::copy(ledger.path_of(1), ledger.path_of(5)).expect("copy");
    match ledger.load(5) {
        Err(LedgerError::SerialMismatch { file, header }) => {
            assert_eq!((file, header), (5, 1));
        }
        other => panic!("expected SerialMismatch, got {other:?}"),
    }
    assert!(matches!(ledger.meta(5), Err(LedgerError::SerialMismatch { .. })));
    // Serials 1 and 2 still load fine.
    ledger.load(1).expect("serial 1 intact");
    ledger.load(2).expect("serial 2 intact");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arest-ledger-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any generated snapshot survives the full file round trip, and
    /// its payload bytes are independent of serial and timestamp.
    #[test]
    fn file_round_trip(seed in 0u64..10_000, serial in 1u64..1_000_000) {
        let snapshot = generated_snapshot(seed);
        let meta = RunMeta {
            serial,
            committed_unix: 1_700_000_000 + seed,
            config_digest: seed.wrapping_mul(3),
            catalog_digest: seed.wrapping_mul(7),
            payload_len: 0,
            payload_digest: 0,
        };
        let bytes = encode_file(&snapshot, &meta);
        let (decoded_meta, decoded) = decode_file(&bytes, Some(serial)).expect("decode");
        prop_assert_eq!(&decoded, &snapshot);
        prop_assert_eq!(decoded_meta.serial, serial);
        prop_assert_eq!(decoded_meta.config_digest, seed.wrapping_mul(3));

        // Re-encode under a different serial and timestamp: payload
        // bytes (and so the content digest) must not move.
        let remeta = RunMeta { serial: serial + 1, committed_unix: 1, ..meta };
        let rebytes = encode_file(&snapshot, &remeta);
        prop_assert_eq!(&bytes[HEADER_LEN..], &rebytes[HEADER_LEN..]);
        prop_assert_eq!(decoded_meta.payload_digest,
            decode_file(&rebytes, Some(serial + 1)).expect("decode").0.payload_digest);
    }
}
