//! Checked concurrency primitives for the AReST workspace.
//!
//! Every hand-rolled concurrent structure in this repository — the
//! crossbeam-shim MPMC channel, the `arest_tnt::pool` work-stealing
//! pool, the sharded `FingerprintCache`, the `arest-obs` metric cells,
//! the streaming pipeline's admission window — synchronizes through
//! this crate instead of `std::sync` directly. In a normal build the
//! cost is zero: [`sync`], [`atomic`], and [`thread`] are plain
//! re-exports of the `std` items. Under the `model-check` feature they
//! become *scheduler-controlled* primitives: threads run one at a
//! time, every visible operation (lock, unlock-to-wait, notify, atomic
//! access, spawn, join) is a scheduling point, and the `model`
//! module's DFS explorer enumerates interleavings exhaustively up to a
//! preemption bound — the same discipline loom applies to concurrent
//! data structures, rebuilt here dependency-free.
//!
//! The checker detects:
//!
//! * **deadlocks and lost wakeups** — every live thread blocked with
//!   nobody left to unblock it (a receiver that missed its disconnect
//!   notification looks exactly like this);
//! * **assertion failures** — any panic in the modeled code, reported
//!   with the schedule that produced it;
//! * **livelocks** — a run that exceeds the per-run step budget.
//!
//! Failures print a replayable schedule (the decision vector) and an
//! operation trace; `model::Model::replay` re-executes a schedule
//! deterministically.
//!
//! # What is and is not modeled
//!
//! The explorer enumerates *interleavings under sequential
//! consistency*. Atomic `Ordering` arguments are accepted for API
//! compatibility but executed as `SeqCst`; weak-memory reorderings are
//! **not** explored (each ordering choice in the workspace instead
//! carries a one-line invariant comment justifying it, and the
//! ThreadSanitizer CI job covers the data-race side). Condvar wakeups
//! are FIFO and never spurious. `Mutex` acquisition order among
//! blocked threads is explored, not FIFO.
//!
//! A schedule point is inserted *before* every visible operation.
//! Releases (mutex unlock, rwlock downgrade) deliberately get no
//! point: a release only ever *enables* other threads and its effect
//! is durable, so any interleaving reachable with a pre-release switch
//! is also reachable by switching at the enabled thread's own next
//! point. Notifies do get a point — a wakeup delivered while nobody
//! waits is lost, which is precisely the race class the checker must
//! reach.
//!
//! # Writing a model test
//!
//! ```ignore
//! use arest_conc::model::Model;
//! use arest_conc::sync::Mutex;
//!
//! Model::default().check(|| {
//!     let m = Mutex::new(0u32);
//!     arest_conc::thread::scope(|s| {
//!         let h = s.spawn(|| *m.lock().unwrap() += 1);
//!         *m.lock().unwrap() += 1;
//!         h.join().unwrap();
//!     });
//!     assert_eq!(*m.lock().unwrap(), 2);
//! });
//! ```
//!
//! Outside a `model::Model` run the model-check primitives fall
//! through to their `std` counterparts, so a test binary built with
//! the feature still runs its ordinary tests unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "model-check")]
pub mod model;
#[cfg(feature = "model-check")]
mod model_atomic;
#[cfg(feature = "model-check")]
mod model_sync;
#[cfg(feature = "model-check")]
mod model_thread;

/// Mutexes, condition variables, and reader-writer locks.
///
/// Normal builds: re-exports of `std::sync`. With `model-check`:
/// cooperative versions whose blocking is mediated by the active
/// `model` scheduler (and which pass through to `std` when no model
/// run is active on the current thread).
pub mod sync {
    #[cfg(feature = "model-check")]
    pub use crate::model_sync::{
        Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    };
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
    pub use std::sync::{LockResult, PoisonError};
}

/// Atomic integers and booleans.
///
/// Normal builds: re-exports of `std::sync::atomic`. With
/// `model-check`: every access is a schedule point, executed `SeqCst`
/// (see the crate docs for the memory-model caveat). `Ordering` is
/// always the `std` enum.
pub mod atomic {
    #[cfg(feature = "model-check")]
    pub use crate::model_atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
    #[cfg(not(feature = "model-check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize};
}

/// Scoped and free-standing threads.
///
/// Normal builds: re-exports of `std::thread`'s spawning surface. With
/// `model-check`: spawned threads register with the active scheduler
/// and run cooperatively; `scope` joins its children through the
/// scheduler before the underlying `std` scope exits, so a scope never
/// blocks the real OS thread while cooperative children wait for their
/// turn.
pub mod thread {
    #[cfg(feature = "model-check")]
    pub use crate::model_thread::{scope, spawn, JoinHandle, Scope, ScopedJoinHandle};
    #[cfg(not(feature = "model-check"))]
    pub use std::thread::{scope, spawn, JoinHandle, Scope, ScopedJoinHandle};
}

#[cfg(test)]
mod tests {
    // These run in *both* modes: `cargo test -p arest-conc` exercises
    // the std re-exports, `--features model-check` the passthrough
    // paths of the cooperative types (no model run is active here).
    use super::{atomic, sync, thread};
    use atomic::Ordering;

    #[test]
    fn mutex_and_condvar_roundtrip() {
        let pair = (sync::Mutex::new(false), sync::Condvar::new());
        thread::scope(|s| {
            s.spawn(|| {
                let (lock, cvar) = &pair;
                *lock.lock().expect("lock") = true;
                cvar.notify_one();
            });
            let (lock, cvar) = &pair;
            let mut ready = lock.lock().expect("lock");
            while !*ready {
                ready = cvar.wait(ready).expect("wait");
            }
            assert!(*ready);
        });
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let lock = sync::RwLock::new(7u32);
        assert_eq!(*lock.read().expect("read"), 7);
        *lock.write().expect("write") = 9;
        assert_eq!(*lock.read().expect("read"), 9);
    }

    #[test]
    fn atomics_count() {
        let n = atomic::AtomicUsize::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        n.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(n.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn spawn_and_join() {
        let h = thread::spawn(|| 21u32 * 2);
        assert_eq!(h.join().expect("join"), 42);
    }
}
