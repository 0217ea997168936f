//! Pipeline benchmarks: the full streaming build at one worker vs the
//! machine's worker count — the speedup the work-stealing scheduler
//! buys (bounded by available cores).

use arest_experiments::pipeline::{Dataset, PipelineConfig};
use arest_netgen::internet::GenConfig;
use arest_tnt::pool::worker_count;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn quick_config(workers: usize) -> PipelineConfig {
    let mut config = PipelineConfig::quick();
    config.gen =
        GenConfig { scale: 0.02, seed: 2_025, vp_count: 4, sr_adoption: 1.0, catalog_scale: 1 };
    config.targets_per_as = 10;
    config.workers = Some(workers);
    config
}

fn bench_pipeline_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_build");
    group.sample_size(10);
    group.bench_function("workers_1", |b| {
        b.iter(|| Dataset::build(black_box(quick_config(1))));
    });
    let parallel = worker_count().max(2);
    group.bench_function(format!("workers_{parallel}"), |b| {
        b.iter(|| Dataset::build(black_box(quick_config(parallel))));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline_build);
criterion_main!(benches);
