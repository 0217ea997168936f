//! End-to-end operations, driven through the public entry points a
//! user goes through: a campaign (`Dataset::build_with_stats` plus
//! `ledger_io::commit_dataset`) and a refresh (seed-cache rehydrate,
//! `build_streaming_seeded`, `commit_incremental`, `Ledger::diff`).

use arest_experiments::ledger_io::{commit_dataset, commit_incremental};
use arest_experiments::pipeline::BuildStats;
use arest_experiments::{Dataset, PipelineConfig, SliceSpec};
use arest_ledger::Ledger;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fixed commit timestamp: commits stay byte-deterministic.
pub const COMMITTED_UNIX: u64 = 1_760_000_000;

/// The generator seed detection quality is reported at.
pub const QUALITY_SEED: u64 = 2025;

/// The refresh slice: the `--reprobe 5%` run of the workload table.
pub const REFRESH_SLICE: SliceSpec = SliceSpec::Percent(5);

/// The pipeline configuration of a workload.
pub fn config(seed: u64, catalog_scale: usize, vps: usize) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.gen.seed = seed;
    config.gen.catalog_scale = catalog_scale;
    config.gen.vp_count = vps;
    config.workers = Some(crate::WORKERS);
    config
}

/// A fresh, empty ledger directory under `work`.
pub fn fresh_ledger(work: &Path, tag: &str) -> Ledger {
    let dir: PathBuf = work.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create ledger dir");
    Ledger::open(dir).expect("open ledger")
}

/// One campaign: full build plus ledger commit.
pub struct Campaign {
    pub dataset: Dataset,
    pub stats: BuildStats,
    /// Build plus commit wall time.
    pub wall: Duration,
    pub serial: u64,
    pub digest: u64,
}

pub fn campaign(config: PipelineConfig, ledger: &Ledger) -> Campaign {
    let started = Instant::now();
    let (dataset, stats) = Dataset::build_with_stats(config);
    let receipt = commit_dataset(ledger, &dataset, &config, COMMITTED_UNIX).expect("commit");
    let wall = started.elapsed();
    Campaign { dataset, stats, wall, serial: receipt.serial, digest: receipt.payload_digest }
}

/// One refresh: the `--reprobe 5% --base N` sequence.
pub struct Refresh {
    pub wall: Duration,
    pub digest: u64,
    pub fresh: usize,
    /// Whether `Ledger::diff` against the base found no change.
    pub diff_empty: bool,
}

pub fn refresh(config: PipelineConfig, ledger: &Ledger, base: u64) -> Refresh {
    let started = Instant::now();
    let mut sliced = config;
    sliced.reprobe = REFRESH_SLICE;
    sliced.base_serial = Some(base);
    let seed_cache = ledger.load_aux(base).expect("load aux").map_or_else(Vec::new, |a| a.cache);
    let (dataset, _) = Dataset::build_streaming_seeded(sliced, &seed_cache, |_| {});
    let merged = commit_incremental(ledger, &dataset, &sliced, COMMITTED_UNIX).expect("commit");
    drop(dataset);
    let delta = ledger.diff(base, merged.receipt.serial).expect("diff");
    Refresh {
        wall: started.elapsed(),
        digest: merged.receipt.payload_digest,
        fresh: merged.fresh.len(),
        diff_empty: delta.is_empty(),
    }
}

/// Interface precision and recall against the generator's ground
/// truth, over all ASes.
pub fn quality(dataset: &Dataset) -> (f64, f64) {
    let validation =
        arest_core::metrics::validate(dataset.results.iter().flat_map(|r| r.detections()), |a| {
            dataset.internet.ground_truth.is_sr(a)
        });
    (validation.iface_precision().unwrap_or(0.0), validation.iface_recall().unwrap_or(0.0))
}

/// Resets this process's peak-RSS mark (`VmHWM`) to its current RSS,
/// so that the next [`peak_rss_mb`] reads the peak since now. Returns
/// that RSS in MB, or `None` where the kernel refuses.
pub fn reset_peak_rss() -> Option<f64> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only returns free heap pages to the
    // kernel; it takes no pointers and is thread-safe.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").ok().map(|()| rss_mb())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
