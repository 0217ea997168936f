//! Regression test: the `tnt.pool.queue_depth` gauge drains back to
//! zero on the **panic-propagation** paths of both pool entry points.
//!
//! A worker panic unwinds the scope before the normal drain runs, so
//! any units still queued at that moment would stay counted forever —
//! poisoning every later reading of the gauge. The drain must be tied
//! to scope exit itself (a drop guard), not to the happy path.
//!
//! This file holds a single test function in its own process on
//! purpose: it enables the process-global registry, which would race
//! other tests sharing the binary.

use arest_tnt::pool::{run_dynamic, run_indexed};
use std::panic;

#[test]
fn queue_depth_gauge_drains_to_zero_when_workers_panic() {
    let registry = arest_obs::global();
    registry.set_enabled(true);
    let gauge = registry.gauge("tnt.pool.queue_depth");

    // run_indexed: every unit panics, so with two workers both die
    // with units still queued and nobody left to pull them.
    let result = panic::catch_unwind(|| {
        run_indexed((0..16u64).collect(), 2, &|_, x: u64| -> u64 { panic!("boom {x}") })
    });
    assert!(result.is_err(), "the worker panic must reach the caller");
    assert_eq!(gauge.get(), 0, "run_indexed all-workers-panic must drain the gauge");

    // run_indexed: a single poisoned unit among slow ones, so the
    // surviving worker is mid-unit when the panicking one dies.
    let result = panic::catch_unwind(|| {
        run_indexed((0..16u64).collect(), 2, &|_, x: u64| {
            if x == 0 {
                panic!("boom");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        })
    });
    assert!(result.is_err(), "the worker panic must reach the caller");
    assert_eq!(gauge.get(), 0, "run_indexed single-panic must drain the gauge");

    // run_dynamic, parallel path: the first unit panics while the
    // rest (and an injected follow-up) are still queued.
    let result = panic::catch_unwind(|| {
        run_dynamic((0..16u64).collect(), 2, &|x, injector| {
            if x == 1 {
                injector.push(99);
            }
            assert_ne!(x, 0, "boom");
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
    });
    assert!(result.is_err(), "the worker panic must reach the caller");
    assert_eq!(gauge.get(), 0, "run_dynamic parallel panic must drain the gauge");

    // run_dynamic at one worker: the panic aborts the calling
    // thread's pull loop with units still queued.
    let result = panic::catch_unwind(|| {
        run_dynamic((0..8u64).collect(), 1, &|x, _| assert_ne!(x, 2, "boom"));
    });
    assert!(result.is_err(), "the panic must reach the caller");
    assert_eq!(gauge.get(), 0, "run_dynamic sequential panic must drain the gauge");
}
