//! Ledger round-trip determinism at pipeline scale.
//!
//! `parallel_build_matches_ledger_roundtrip` rides the CI determinism
//! gate (`cargo test … parallel_build_matches` at `AREST_WORKERS=1`
//! and `4`): a campaign committed to the ledger and loaded back must
//! serve byte-identical JSON to the freshly built store, whatever the
//! worker count. `parallel_build_matches_golden_payload_digest` rides
//! the same gate and pins the quick campaign's payload digest against
//! `tests/golden/`. The other tests pin the delta semantics: same build
//! twice → byte-identical payloads and an empty delta; a different
//! campaign → both announcements and withdrawals.

use arest_experiments::ledger_io::{commit_dataset, commit_incremental};
use arest_experiments::pipeline::{Dataset, PipelineConfig, SliceSpec};
use arest_experiments::serve_store;
use arest_ledger::{Ledger, HEADER_LEN};
use arest_serve::store::{addr_json, as_json};
use arest_serve::Store;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arest-ledger-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every JSON body the server derives from a store, concatenated:
/// the summary rollup, each AS detail, and each address detail.
fn all_bodies(store: &Store) -> String {
    let mut out = store.summary_json().render();
    for a in store.ases() {
        out.push_str(&as_json(a).render());
    }
    for r in store.addrs() {
        out.push_str(&addr_json(r, store.as_name(r.asn)).render());
    }
    out
}

#[test]
fn parallel_build_matches_ledger_roundtrip() {
    let config = PipelineConfig::quick();
    let dataset = Dataset::build(config);
    let fresh = Store::new(Arc::new(serve_store::snapshot(&dataset)));

    let dir = scratch_dir("determinism");
    let ledger = Ledger::open(&dir).expect("open ledger");
    let receipt = commit_dataset(&ledger, &dataset, &config, 1_750_000_000).expect("commit");
    let run = ledger.load(receipt.serial).expect("load committed run");
    assert_eq!(run.meta.payload_digest, receipt.payload_digest);

    // The snapshot round-trips exactly, so a store over the loaded
    // snapshot serves byte-identical bodies to the store over the
    // snapshot flattened straight from the dataset.
    assert_eq!(**fresh.snapshot(), run.snapshot);
    let reloaded = Store::new(Arc::new(run.snapshot));
    assert_eq!(all_bodies(&fresh), all_bodies(&reloaded));

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The quick campaign's pinned ledger payload digest.
const GOLDEN_DIGEST: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/quick_payload_digest.txt");

/// Pins what the quick campaign commits, not just that worker counts
/// agree: a change to generation, probing or detection that moves any
/// served byte moves this digest. Regenerate deliberately with
/// `AREST_GOLDEN_WRITE=1 cargo test -p arest-experiments --test
/// ledger_roundtrip parallel_build_matches_golden` and review why.
#[test]
fn parallel_build_matches_golden_payload_digest() {
    let digests: Vec<u64> = [1, 4]
        .into_iter()
        .map(|workers| {
            let config = PipelineConfig { workers: Some(workers), ..PipelineConfig::quick() };
            let dataset = Dataset::build(config);
            let dir = scratch_dir(&format!("golden-{workers}"));
            let ledger = Ledger::open(&dir).expect("open ledger");
            let receipt =
                commit_dataset(&ledger, &dataset, &config, 1_750_000_000).expect("commit");
            std::fs::remove_dir_all(&dir).expect("cleanup");
            receipt.payload_digest
        })
        .collect();
    assert_eq!(digests[0], digests[1], "workers 1 and 4 committed different payloads");
    let rendered = format!("{:#018x}\n", digests[0]);

    if std::env::var("AREST_GOLDEN_WRITE").is_ok_and(|v| v == "1") {
        std::fs::write(GOLDEN_DIGEST, &rendered).expect("write golden digest");
        return;
    }
    let pinned = std::fs::read_to_string(GOLDEN_DIGEST).expect("golden digest file exists");
    assert_eq!(
        rendered.trim(),
        pinned.trim(),
        "quick-campaign payload digest moved (regenerate deliberately with AREST_GOLDEN_WRITE=1)"
    );
}

#[test]
fn committing_the_same_build_twice_yields_identical_payloads_and_an_empty_delta() {
    let config = PipelineConfig::quick();
    let dataset = Dataset::build(config);

    let dir = scratch_dir("twice");
    let ledger = Ledger::open(&dir).expect("open ledger");
    // Different wall-clock stamps on purpose: identity is content, not
    // commit time.
    let first = commit_dataset(&ledger, &dataset, &config, 1_750_000_000).expect("commit 1");
    let second = commit_dataset(&ledger, &dataset, &config, 1_750_009_999).expect("commit 2");
    assert_eq!(first.payload_digest, second.payload_digest);

    // Byte-verified beyond the header (the header differs by design:
    // serial and timestamp live there, outside the content identity).
    let bytes_a = std::fs::read(ledger.path_of(first.serial)).expect("read run 1");
    let bytes_b = std::fs::read(ledger.path_of(second.serial)).expect("read run 2");
    assert_eq!(bytes_a[HEADER_LEN..], bytes_b[HEADER_LEN..]);

    let delta = ledger.diff(first.serial, second.serial).expect("diff");
    assert!(delta.is_empty(), "identical builds must produce an empty delta");
    assert!(delta.per_as.is_empty());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Commits a full quick campaign as the base run, then re-probes the
/// given slice against it, returning the ledger plus both commits.
fn base_then_slice(
    tag: &str,
    slice: SliceSpec,
) -> (Ledger, PathBuf, arest_ledger::CommitReceipt, arest_experiments::ledger_io::IncrementalCommit)
{
    let config = PipelineConfig::quick();
    let dir = scratch_dir(tag);
    let ledger = Ledger::open(&dir).expect("open ledger");
    let full = Dataset::build(config);
    let base = commit_dataset(&ledger, &full, &config, 1_750_000_000).expect("commit base");

    let mut sliced = config;
    sliced.reprobe = slice;
    sliced.base_serial = Some(base.serial);
    let seed = ledger.load_aux(base.serial).expect("load aux").expect("base has a sidecar");
    let (dataset, _) = Dataset::build_streaming_seeded(sliced, &seed.cache, |_| {});
    let merged =
        commit_incremental(&ledger, &dataset, &sliced, 1_750_000_500).expect("incremental commit");
    (ledger, dir, base, merged)
}

/// The tentpole identity: a 100%-slice incremental run must produce a
/// payload byte-identical to a from-scratch full rebuild — the merge
/// path adds nothing and loses nothing.
#[test]
fn parallel_build_matches_a_full_slice_incremental_rebuild() {
    let (ledger, dir, base, merged) = base_then_slice("full-slice", SliceSpec::Percent(100));
    assert_eq!(merged.fresh.len(), 60, "a 100% slice re-probes every catalog AS");
    assert!(merged.carried.is_empty());
    assert_eq!(merged.receipt.payload_digest, base.payload_digest);

    let bytes_a = std::fs::read(ledger.path_of(base.serial)).expect("read base");
    let bytes_b = std::fs::read(ledger.path_of(merged.receipt.serial)).expect("read merged");
    assert_eq!(bytes_a[HEADER_LEN..], bytes_b[HEADER_LEN..]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A 0% slice probes nothing: the commit is pure carry-forward and
/// must reproduce the base payload byte for byte, with an empty delta.
#[test]
fn parallel_build_matches_the_base_under_a_pure_carry_forward() {
    let (ledger, dir, base, merged) = base_then_slice("zero-slice", SliceSpec::Percent(0));
    assert!(merged.fresh.is_empty(), "a 0% slice re-probes nothing");
    assert_eq!(merged.carried.len(), 60);
    assert_eq!(merged.receipt.payload_digest, base.payload_digest);

    let bytes_a = std::fs::read(ledger.path_of(base.serial)).expect("read base");
    let bytes_b = std::fs::read(ledger.path_of(merged.receipt.serial)).expect("read merged");
    assert_eq!(bytes_a[HEADER_LEN..], bytes_b[HEADER_LEN..]);

    let delta = ledger.diff(base.serial, merged.receipt.serial).expect("diff");
    assert!(delta.is_empty(), "carry-forward must not invent or lose detections");
    assert!(delta.per_as.is_empty());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Carried ASes must never surface in the delta against the base: only
/// re-probed ASes may contribute per-AS rows. (With a deterministic
/// build the fresh AS reproduces its base results too, so the whole
/// delta is empty — the carried assertion is the load-bearing one.)
#[test]
fn parallel_build_matches_carried_ases_with_empty_deltas() {
    let (ledger, dir, base, merged) = base_then_slice("one-as", SliceSpec::Asn(15169));
    assert_eq!(merged.fresh, vec![15169]);
    assert_eq!(merged.carried.len(), 59);
    assert!(!merged.carried.contains(&15169));

    let delta = ledger.diff(base.serial, merged.receipt.serial).expect("diff");
    for row in &delta.per_as {
        assert!(
            !merged.carried.contains(&row.asn),
            "carried AS {} leaked into the delta against its own base",
            row.asn
        );
    }
    assert!(delta.is_empty(), "deterministic re-probe must change nothing");

    // The merged run's sidecar records its provenance, so it can serve
    // as the base of the *next* incremental run.
    let aux = ledger.load_aux(merged.receipt.serial).expect("load aux").expect("sidecar");
    assert_eq!(aux.base_serial, Some(base.serial));
    assert_eq!(aux.carried, merged.carried);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn a_different_campaign_announces_and_withdraws() {
    let base = PipelineConfig::quick();
    let mut other = base;
    other.gen.seed = base.gen.seed + 4;

    let dir = scratch_dir("differing");
    let ledger = Ledger::open(&dir).expect("open ledger");
    let a = commit_dataset(&ledger, &Dataset::build(base), &base, 1_750_000_000).expect("commit a");
    let b =
        commit_dataset(&ledger, &Dataset::build(other), &other, 1_750_000_001).expect("commit b");

    let delta = ledger.diff(a.serial, b.serial).expect("diff");
    assert!(!delta.is_empty());
    assert!(!delta.announced.is_empty(), "new seed should announce new detections");
    assert!(!delta.withdrawn.is_empty(), "new seed should withdraw old detections");
    assert_ne!(delta.from.config_digest, delta.to.config_digest);
    assert_eq!(delta.from.catalog_digest, delta.to.catalog_digest);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
