//! The shared work-stealing worker pool.
//!
//! Every parallel stage of the measurement pipeline — netgen's per-AS
//! deploy, target lists, the `(AS, VP)` campaign units and each AS's
//! fingerprint→alias→detect tail — and the HTTP server's
//! accept/dispatch run on one scheduler, [`run_dynamic`]: work units
//! go into one MPMC channel, a fixed pool of workers pulls until every
//! unit (injected follow-ups included) has completed, and idle workers
//! "steal" whatever is next, so an expensive unit never serializes the
//! rest behind it. [`run_indexed`] is the batch form on the same loop:
//! each result lands in its submission slot, so a parallel batch is
//! result-identical to a sequential one regardless of worker count or
//! scheduling.
//!
//! Workers are `arest_conc::thread` scoped threads (the calling thread
//! is one of them), so the model checker explores the pool's
//! interleavings under the `model-check` feature.

use arest_conc::atomic::{AtomicUsize, Ordering};
use arest_conc::sync::Mutex;
use crossbeam::channel;
use std::panic;

/// Drop guard balancing the `tnt.pool.queue_depth` gauge: when it
/// drops — normal return *or* a panic unwinding out of the pool — it
/// drains whatever is still buffered in the unit channel and
/// subtracts each abandoned unit. Tying the drain to scope exit
/// itself (rather than to happy-path code after the scope) is what
/// keeps the gauge at zero when a worker panic propagates.
struct GaugeDrain<'a, T>(&'a channel::Receiver<Msg<T>>);

impl<T> Drop for GaugeDrain<'_, T> {
    fn drop(&mut self) {
        let metrics = &*crate::obs::METRICS;
        for msg in self.0.try_iter() {
            if matches!(msg, Msg::Unit(_)) {
                metrics.pool_queue_depth.add(-1);
            }
        }
    }
}

/// Worker count for parallel stages: the `AREST_WORKERS` environment
/// variable when set (clamped to at least 1), otherwise the machine's
/// available parallelism.
pub fn worker_count() -> usize {
    worker_count_from(std::env::var("AREST_WORKERS").ok().as_deref())
}

/// [`worker_count`] with the `AREST_WORKERS` value injected, so tests
/// can exercise the parse paths without mutating the process
/// environment (which races other tests in the same binary).
fn worker_count_from(override_raw: Option<&str>) -> usize {
    if let Some(raw) = override_raw {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `work` over `items` on a pool of `workers` threads and
/// returns the results **in item order**, exactly as a serial
/// `items.into_iter().enumerate().map(|(i, x)| work(i, x))` would.
///
/// A thin layer over [`run_dynamic`]: each `(index, item)` pair is one
/// unit that never injects, run on `workers.min(items.len())`
/// workers, and its result is written into the unit's slot. A worker
/// panic aborts the remaining queue and is propagated to the caller
/// with its original payload.
pub fn run_indexed<T, R, F>(items: Vec<T>, workers: usize, work: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    // Each slot is written once, by the worker that pulled its index,
    // and read after every worker has joined: the locks never contend.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_dynamic(items.into_iter().enumerate().collect(), workers.min(n), &|(idx, item), _| {
        let result = work(idx, item);
        *slots[idx].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every unit completes")
        })
        .collect()
}

/// A worker's message on the dynamic pool's shared channel: either a
/// unit of work or the shutdown sentinel cascading through the pool.
enum Msg<T> {
    Unit(T),
    Done,
}

/// Handle through which a running [`run_dynamic`] work unit schedules
/// follow-up units onto the same pool — the primitive behind the
/// streaming pipeline, where the last `(AS, VP)` probe unit of an AS
/// injects that AS's fingerprint→alias→detect tail.
pub struct Injector<'a, T> {
    tx: &'a channel::Sender<Msg<T>>,
    pending: &'a AtomicUsize,
}

impl<T> Injector<'_, T> {
    /// Enqueues a follow-up unit. May be called from inside `work` at
    /// any time before that unit returns; the pool only shuts down
    /// once every queued and running unit (injected ones included)
    /// has completed.
    pub fn push(&self, unit: T) {
        let metrics = &*crate::obs::METRICS;
        metrics.pool_units.inc();
        metrics.pool_queue_depth.add(1);
        // Incremented before the send — and therefore before the
        // injecting unit's own decrement — so the pending count can
        // never hit zero while injected work is still queued.
        // Relaxed: RMWs on one atomic share a total modification
        // order and this thread's add precedes its own later sub in
        // program order, so the count is exact; the unit itself is
        // published by the channel's mutex, not by this counter.
        self.pending.fetch_add(1, Ordering::Relaxed);
        assert!(self.tx.send(Msg::Unit(unit)).is_ok(), "queueing injected work");
    }
}

/// Runs a **dynamic** batch: starts from `initial` units and lets any
/// running unit inject follow-up units through the [`Injector`].
/// Returns once every unit — initial and injected — has completed.
///
/// There is no result merge: units communicate through whatever
/// channels or shared state the caller closes over (the streaming
/// pipeline sends completed ASes into a bounded channel;
/// [`run_indexed`] fills result slots). The calling thread is one of
/// the `workers`; each pulls the next queued unit as soon as it
/// finishes its current one. A worker panic aborts the remaining
/// queue and is re-raised on the caller with its original payload.
pub fn run_dynamic<T, F>(initial: Vec<T>, workers: usize, work: &F)
where
    T: Send,
    F: Fn(T, &Injector<'_, T>) + Sync,
{
    if initial.is_empty() {
        return;
    }
    let metrics = &*crate::obs::METRICS;
    metrics.pool_batches.inc();
    metrics.pool_units.add(initial.len() as u64);

    let n = initial.len();
    let (tx, rx) = channel::unbounded::<Msg<T>>();
    let pending = AtomicUsize::new(n);
    for unit in initial {
        assert!(tx.send(Msg::Unit(unit)).is_ok(), "queueing initial work units");
    }
    metrics.pool_queue_depth.add(n as i64);

    // The queue-depth gauge drains on every exit path, so units
    // abandoned by a panic shutdown stop counting.
    let _drain = GaugeDrain(&rx);

    // First panic payload observed by any worker; re-raised after the
    // scope joins so the caller sees the original panic.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let worker = || {
        let injector = Injector { tx: &tx, pending: &pending };
        let mut stolen = 0u64;
        // Every worker leaves through a `Done`: the live `tx` means
        // the channel never disconnects under the pull loop.
        while let Ok(Msg::Unit(unit)) = rx.recv() {
            metrics.pool_queue_depth.add(-1);
            stolen += 1;
            let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| work(unit, &injector)));
            if let Err(payload) = outcome {
                let mut slot = panicked.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                slot.get_or_insert(payload);
                // Abort: cascade shutdown without waiting for pending
                // to drain.
                break;
            }
            // The 1→0 transition happens on exactly one worker: it
            // starts the Done cascade that walks every other worker
            // out of its pull loop. Relaxed: the RMW total order alone
            // decides who saw 1→0; everything the units wrote is
            // published by the channel mutex and the scope join, not
            // by this counter.
            if pending.fetch_sub(1, Ordering::Relaxed) == 1 {
                break;
            }
        }
        // Start or forward the sentinel so every remaining worker sees
        // it, then exit.
        let _ = tx.send(Msg::Done);
        metrics.pool_units_per_worker.record(stolen);
    };
    arest_conc::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });

    if let Some(payload) = panicked.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for workers in [1, 2, 4, 7] {
            let parallel = run_indexed(items.clone(), workers, &|_, x: u64| x * x);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let tagged = run_indexed(items, 3, &|idx, s: &str| format!("{idx}:{s}"));
        assert_eq!(tagged, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_indexed(Vec::<u32>::new(), 4, &|_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_unit_cost_still_merges_deterministically() {
        // Make early units slow so late units finish first.
        let items: Vec<u64> = (0..16).collect();
        let out = run_indexed(items, 4, &|_, x: u64| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x + 100
        });
        assert_eq!(out, (100..116).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(vec![1u32, 2, 3], 2, &|_, x| {
                assert_ne!(x, 2, "boom");
                x
            })
        });
        assert!(result.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn concurrent_metric_increments_from_the_pool_all_land() {
        // Workers hammer one shared counter handle; every increment
        // must land regardless of scheduling.
        let registry = arest_obs::Registry::new();
        let counter = registry.counter("test.pool.increments");
        let items: Vec<u64> = (0..1_000).collect();
        let out = run_indexed(items, 4, &|_, x: u64| {
            counter.inc();
            x
        });
        assert_eq!(out.len(), 1_000);
        assert_eq!(counter.get(), 1_000);
    }

    #[test]
    fn dynamic_pool_runs_injected_follow_up_work() {
        // Each initial unit n injects two children n-1 down to zero: a
        // binary fan-out whose total unit count is known in advance.
        use std::sync::atomic::{AtomicU64, Ordering};
        let expected = |n: u64| 2u64.pow(n as u32 + 1) - 1; // units in one fan-out tree
        for workers in [1, 4] {
            let executed = AtomicU64::new(0);
            run_dynamic(vec![3u64, 2], workers, &|n, injector| {
                executed.fetch_add(1, Ordering::SeqCst);
                if n > 0 {
                    injector.push(n - 1);
                    injector.push(n - 1);
                }
            });
            assert_eq!(
                executed.load(Ordering::SeqCst),
                expected(3) + expected(2),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn dynamic_pool_with_empty_input_returns_immediately() {
        run_dynamic(Vec::<u8>::new(), 4, &|_, _| unreachable!("no units to run"));
    }

    #[test]
    fn dynamic_pool_propagates_worker_panics() {
        for workers in [1, 3] {
            let result = std::panic::catch_unwind(|| {
                run_dynamic(vec![1u32, 2, 3, 4], workers, &|x, injector| {
                    if x == 1 {
                        injector.push(99);
                    }
                    assert_ne!(x, 99, "boom");
                });
            });
            assert!(result.is_err(), "workers={workers}: the panic must reach the caller");
        }
    }

    #[test]
    fn worker_count_honors_env_override() {
        assert_eq!(worker_count_from(Some("3")), 3);
        assert_eq!(worker_count_from(Some(" 5 ")), 5, "whitespace trimmed");
        assert_eq!(worker_count_from(Some("0")), 1, "clamped to at least one worker");
        assert!(worker_count_from(Some("nonsense")) >= 1, "bad value falls back");
        assert!(worker_count_from(None) >= 1, "unset falls back to hardware");
    }
}
