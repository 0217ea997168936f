//! Regression test: the `tnt.pool.queue_depth` gauge drains back to
//! zero after every `pool::run_indexed` batch, and the
//! `tnt.pool.units_per_worker` histogram accounts for every unit run —
//! one sample per worker, at one worker as at many, for both pool
//! entry points.
//!
//! The gauge is a live level — submit adds the batch size, each
//! dequeue subtracts one — so any asymmetry between the submit,
//! dequeue, and disconnect paths shows up as a residue after the
//! batch completes. This file holds a single test function in its own
//! process on purpose: it enables the process-global registry, which
//! would race other tests sharing the binary.

use arest_tnt::pool::{run_dynamic, run_indexed};

#[test]
fn queue_depth_gauge_drains_to_zero_after_run_indexed() {
    let registry = arest_obs::global();
    registry.set_enabled(true);
    let gauge = registry.gauge("tnt.pool.queue_depth");

    // A mix of shapes: one worker (workers=1, and a single-unit
    // batch), small parallel batches, more workers than units, and a
    // batch large enough for real stealing interleavings.
    for (n, workers) in [(1usize, 4usize), (8, 1), (8, 4), (3, 8), (500, 4)] {
        let items: Vec<u64> = (0..n as u64).collect();
        let out = run_indexed(items, workers, &|idx, x: u64| {
            assert_eq!(idx as u64, x);
            x * 2
        });
        assert_eq!(out.len(), n);
        assert_eq!(
            gauge.get(),
            0,
            "queue depth must drain to zero after a batch (n={n}, workers={workers})"
        );
    }

    // Uneven unit cost exercises the steal paths harder; the gauge
    // must still balance.
    let out = run_indexed((0..64u64).collect(), 4, &|_, x| {
        if x % 16 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        x
    });
    assert_eq!(out.len(), 64);
    assert_eq!(gauge.get(), 0, "queue depth must drain to zero under uneven unit cost");

    // Every worker records one `units_per_worker` sample when it
    // leaves the pull loop; the samples sum to the units run. The
    // single-worker case runs on the calling thread and must record
    // too (`--workers 1` builds report their per-worker units).
    let histogram = registry.histogram("tnt.pool.units_per_worker");
    for workers in [1usize, 4] {
        let (count, sum) = (histogram.count(), histogram.sum());
        let out = run_indexed((0..10u64).collect(), workers, &|_, x| x);
        assert_eq!(out.len(), 10);
        assert_eq!(
            histogram.count() - count,
            workers as u64,
            "run_indexed samples, workers={workers}"
        );
        assert_eq!(histogram.sum() - sum, 10, "run_indexed units, workers={workers}");

        // Three initial units, each injecting one follow-up: six run.
        let (count, sum) = (histogram.count(), histogram.sum());
        run_dynamic(vec![1u8, 1, 1], workers, &|unit, injector| {
            if unit == 1 {
                injector.push(0);
            }
        });
        assert_eq!(
            histogram.count() - count,
            workers as u64,
            "run_dynamic samples, workers={workers}"
        );
        assert_eq!(histogram.sum() - sum, 6, "run_dynamic units, workers={workers}");
    }
    assert_eq!(gauge.get(), 0, "queue depth must drain to zero after the histogram batches");
}
