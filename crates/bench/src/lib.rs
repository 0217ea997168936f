//! # arest-bench
//!
//! Criterion benchmarks for the AReST reproduction. The library part
//! only hosts shared fixtures; the interesting code lives in
//! `benches/`:
//!
//! * `wire_codec` — LSE/IPv4/ICMP parse and emit throughput.
//! * `classifier` — the AReST detector over synthetic traces.
//! * `simulator` — per-probe forwarding cost and Internet generation.
//! * `experiments_tables` — one group per paper table (1, 3, 5).
//! * `experiments_figures` — one group per paper figure (1, 5–17,
//!   headline, ablation).
//! * `pipeline` — the streaming build at 1 vs N workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arest_experiments::pipeline::{Dataset, PipelineConfig};
use arest_netgen::internet::GenConfig;
use std::sync::OnceLock;

/// A shared, lazily built small dataset so table/figure benches
/// measure the *experiment* code, not the pipeline build.
pub fn bench_dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        let mut config = PipelineConfig::quick();
        config.gen =
            GenConfig { scale: 0.02, seed: 2_025, vp_count: 4, sr_adoption: 1.0, catalog_scale: 1 };
        config.targets_per_as = 10;
        Dataset::build(config)
    })
}
