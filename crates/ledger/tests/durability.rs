//! Snapshot durability: the corruption matrix and the property
//! round-trip.
//!
//! The ledger's contract is that **no** on-disk corruption panics or
//! silently decodes — truncation at any length, any single flipped
//! bit, a foreign magic, a file renamed onto the wrong serial all
//! surface as typed [`LedgerError`]s. These tests exercise the full
//! matrix against a real encoded file, then property-test the
//! encode/decode round trip over randomized snapshots.

use arest_ledger::aux::encode_aux_file;
use arest_ledger::file::{decode_file, decode_header, encode_file};
use arest_ledger::snapshot::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord, RunSnapshot, RunTotals,
};
use arest_ledger::{fnv64, AuxRecord, CommitOptions, Ledger, LedgerError, RunMeta, HEADER_LEN};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::Arc;

mod common;

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
    let fingerprint = VENDORS[mix.below(3) as usize].map(Into::into);
    DetectionRecord {
        asn,
        vp: format!("vp{:02}", mix.below(8)).into(),
        dst: format!("10.9.{}.{}", mix.below(200), mix.below(200)).into(),
        flag: flag.into(),
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
            chain: format!("trigger_hop={start} label_run=...").into(),
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

/// FNV-1a 64 over the whole encoded sample run file.
const PINNED_RUN_FNV: u64 = 0xb4a1_ca99_bb75_7828;
/// Its payload length, so a size drift reads as such.
const PINNED_RUN_PAYLOAD_LEN: usize = 57;
/// FNV-1a 64 over the whole encoded sample sidecar (serial 3).
const PINNED_AUX_FNV: u64 = 0xbbed_869d_9880_f16d;

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

/// A sidecar with every list non-empty and both cache TTL shapes.
fn sample_aux() -> AuxRecord {
    AuxRecord {
        base_serial: Some(2),
        carried: vec![64_500, 64_502],
        raw_traces: vec![(64_500, 17), (64_501, 0), (64_502, 300)],
        cache: vec![
            (Ipv4Addr::new(10, 0, 0, 1), Some(255)),
            (Ipv4Addr::new(10, 0, 0, 2), None),
            (Ipv4Addr::new(10, 3, 1, 1), Some(64)),
        ],
    }
}

/// The full bytes of both file kinds, header included, are pinned:
/// the payload digest alone would let a header layout drift unseen.
#[test]
fn file_bytes_are_pinned() {
    let run = encoded_sample();
    assert_eq!(run.len() - HEADER_LEN, PINNED_RUN_PAYLOAD_LEN);
    assert_eq!(fnv64(&run), PINNED_RUN_FNV, "run file fnv64 {:#018x}", fnv64(&run));
    let aux = encode_aux_file(&sample_aux(), 3);
    assert_eq!(fnv64(&aux), PINNED_AUX_FNV, "sidecar fnv64 {:#018x}", fnv64(&aux));
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

/// `Ledger::meta` verifies only the header and the file's length, yet
/// over the truncation, trailing-byte and header bit-flip matrix it
/// returns the same typed error as a full load. A corrupt payload is
/// a full load's finding alone: `meta` still reads `Ok`.
#[test]
fn meta_matches_a_full_load_on_header_and_length_faults() {
    let dir = scratch_dir("meta");
    let ledger = Ledger::open(&dir).expect("open");
    let bytes = encoded_sample();
    let meta_of = |file: &[u8]| {
        std::fs::write(ledger.path_of(3), file).expect("write run file");
        ledger.meta(3)
    };
    let mut cases: Vec<Vec<u8>> = (0..bytes.len()).map(|len| bytes[..len].to_vec()).collect();
    for extra in [1, 2, 9] {
        let mut longer = bytes.clone();
        longer.resize(bytes.len() + extra, 0);
        cases.push(longer);
    }
    for i in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            cases.push(flipped);
        }
    }
    for case in &cases {
        let full = decode_file(case, Some(3)).expect_err("a faulty file must not decode");
        let header_only = meta_of(case).expect_err("meta must reject it too");
        assert_eq!(
            format!("{header_only:?}"),
            format!("{full:?}"),
            "meta and a full load disagree on a {}-byte file",
            case.len()
        );
    }

    let expected = decode_file(&bytes, Some(3)).expect("untouched file decodes").0;
    assert_eq!(meta_of(&bytes).expect("untouched file"), expected);
    let mut corrupt = bytes.clone();
    *corrupt.last_mut().expect("non-empty payload") ^= 0x40;
    assert!(matches!(decode_file(&corrupt, Some(3)), Err(LedgerError::PayloadDigest)));
    assert_eq!(meta_of(&corrupt).expect("payload bytes are not read"), expected);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `load`, `summary` and `diff` verify a run through one frame check
/// and one payload parser, so they fail alike. Over every truncation
/// and every single-byte flip of a small committed run, raw and with
/// the payload resealed so that the damage reaches the parser,
/// `diff(bad, good)` and `diff(good, bad)` return exactly `load(bad)`'s
/// error, and so does `summary(bad)`. A flip the parser accepts (a
/// scalar changed to another valid value) loads, and diffs, cleanly.
#[test]
fn load_and_diff_report_the_same_error_for_every_corruption() {
    // A few ASes, with a detection listed at more than one address.
    let snapshot = (0u64..)
        .map(generated_snapshot)
        .find(|s| {
            let listed = s.addrs.iter().map(|e| e.detections.len()).sum::<usize>();
            s.ases.len() >= 3 && listed >= 4
        })
        .expect("some seed has a few ASes");
    let dir = scratch_dir("load-diff-agree");
    let ledger = Ledger::open(&dir).expect("open");
    for _ in 0..2 {
        ledger.commit(&snapshot, &CommitOptions::default()).expect("commit");
    }
    // Serial 1 stays good; serial 2's file takes every damaged form.
    let good = std::fs::read(ledger.path_of(2)).expect("read run 2");
    let mut cases: Vec<(Vec<u8>, bool)> = Vec::new();
    for len in 0..good.len() {
        cases.push((good[..len].to_vec(), false));
        if len >= HEADER_LEN {
            cases.push((good[..len].to_vec(), true));
        }
    }
    for at in 0..good.len() {
        for bit in 0..8 {
            let mut flipped = good.clone();
            flipped[at] ^= 1 << bit;
            // Raw, one bit per byte: past the header every raw flip
            // is a digest mismatch.
            if bit == at % 8 {
                cases.push((flipped.clone(), false));
            }
            if at >= HEADER_LEN {
                cases.push((flipped, true));
            }
        }
    }

    let mut errors = std::collections::BTreeSet::new();
    let mut accepted = 0;
    for (mut bytes, resealed) in cases {
        if resealed {
            common::reseal(&mut bytes);
        }
        std::fs::write(ledger.path_of(2), &bytes).expect("write run 2");
        match ledger.load(2) {
            Err(error) => {
                let error = error.to_string();
                let diff_error =
                    |a, b| ledger.diff(a, b).expect_err("diff of a bad run").to_string();
                assert_eq!(diff_error(2, 1), error, "diff(bad, good), {} bytes", bytes.len());
                assert_eq!(diff_error(1, 2), error, "diff(good, bad), {} bytes", bytes.len());
                let summary = ledger.summary(2).expect_err("summary of a bad run").to_string();
                assert_eq!(summary, error, "summary(bad), {} bytes", bytes.len());
                errors.insert(error);
            }
            Ok(run) => {
                assert!(resealed, "only a resealed payload can load");
                ledger.diff(2, 1).expect("diff(accepted, good)");
                ledger.diff(1, 2).expect("diff(good, accepted)");
                let (meta, totals) = ledger.summary(2).expect("summary of an accepted run");
                assert_eq!((meta, totals), (run.meta, run.snapshot.totals));
                accepted += 1;
            }
        }
    }
    // The frame's errors and many of the parser's own.
    let malformed = errors.iter().filter(|e| e.starts_with("malformed")).count();
    assert!(malformed >= 10, "the resealed cases must reach the parser: {errors:#?}");
    assert!(errors.iter().any(|e| e.contains("digest")), "{errors:#?}");
    assert!(accepted > 0, "some resealed flips change only a value");
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
