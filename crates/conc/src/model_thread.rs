//! Cooperative thread spawning for `model-check` builds.
//!
//! Threads are real OS threads (spawned through `std::thread`), but
//! inside a model run they register with the active [`Execution`] and
//! every *visible* operation they perform waits for the scheduler
//! token, so at most one modeled thread makes visible progress at a
//! time.
//!
//! The delicate part is scope exit: `std::thread::scope` performs a
//! *real* join of its children, which would deadlock if a child were
//! still parked waiting for the token. So [`scope`] first joins all
//! children *cooperatively* (a scheduling point that lets them run to
//! completion), and on a panicking body aborts the run before
//! unwinding into the real join — aborted children wake, unwind, and
//! terminate, letting the real join complete.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::model::{clear_current, current, set_current, Execution};

type Caught<T> = Result<T, Box<dyn Any + Send + 'static>>;

/// Wraps a thread body so the OS thread participates in `exec` as
/// `tid`: visible ops gate on the token, completion and panics are
/// reported to the scheduler, and panics never escape to the real
/// join (the payload travels in the returned `Result` instead).
fn run_modeled<T>(exec: Arc<Execution>, tid: usize, f: impl FnOnce() -> T) -> Caught<T> {
    set_current(Arc::clone(&exec), tid);
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    clear_current();
    match result {
        Ok(value) => {
            // `thread_exit` can itself unwind (run aborted while
            // handing the token on); the exit is still recorded.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| exec.thread_exit(tid)));
            Ok(value)
        }
        Err(payload) => {
            exec.thread_panicked(tid, payload.as_ref());
            Err(payload)
        }
    }
}

/// A scope for spawning borrowing threads; counterpart of
/// [`std::thread::Scope`].
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    // Model tids of spawned children, for the cooperative join at
    // scope exit. Plain `std` mutex: registration is already
    // serialized by the scheduler token, this only satisfies `Sync`.
    children: std::sync::Mutex<Vec<usize>>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread; counterpart of
    /// [`std::thread::Scope::spawn`].
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match current() {
            None => ScopedJoinHandle {
                inner: self.inner.spawn(|| panic::catch_unwind(AssertUnwindSafe(f))),
                tid: None,
            },
            Some((exec, parent)) => {
                let tid = exec.spawn_thread(parent);
                self.children.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(tid);
                let child_exec = Arc::clone(&exec);
                ScopedJoinHandle {
                    inner: self.inner.spawn(move || run_modeled(child_exec, tid, f)),
                    tid: Some(tid),
                }
            }
        }
    }
}

/// Handle to join one scoped thread; counterpart of
/// [`std::thread::ScopedJoinHandle`].
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, Caught<T>>,
    tid: Option<usize>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits (cooperatively, inside a model run) for the thread to
    /// finish and returns its result.
    ///
    /// # Errors
    /// Returns the thread's panic payload if it panicked.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(target), Some((exec, tid))) = (self.tid, current()) {
            exec.join_thread(tid, target);
        }
        // The real join is quick: the thread either finished
        // cooperatively above or is unwinding from an abort.
        self.inner.join().and_then(|caught| caught)
    }
}

/// Creates a scope for spawning borrowing threads; counterpart of
/// [`std::thread::scope`].
///
/// Inside a model run, children still running when the body returns
/// are joined cooperatively before the underlying `std` scope's real
/// join, and a panicking body aborts the run first so parked children
/// terminate instead of deadlocking the real join.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|s| {
        let wrapper = Scope { inner: s, children: std::sync::Mutex::new(Vec::new()) };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&wrapper)));
        let children = std::mem::take(
            &mut *wrapper.children.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        match result {
            Ok(value) => {
                if let Some((exec, tid)) = current() {
                    // May unwind on abort; the std scope then
                    // real-joins children that are already dying.
                    exec.join_all(tid, children);
                }
                value
            }
            Err(payload) => {
                if let Some((exec, _)) = current() {
                    exec.abort_for_panic(payload.as_ref());
                }
                panic::resume_unwind(payload)
            }
        }
    })
}

/// Handle to join a free-standing thread; counterpart of
/// [`std::thread::JoinHandle`].
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<Caught<T>>,
    tid: Option<usize>,
}

impl<T> JoinHandle<T> {
    /// Waits (cooperatively, inside a model run) for the thread to
    /// finish and returns its result.
    ///
    /// # Errors
    /// Returns the thread's panic payload if it panicked.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(target), Some((exec, tid))) = (self.tid, current()) {
            exec.join_thread(tid, target);
        }
        self.inner.join().and_then(|caught| caught)
    }
}

/// Spawns a free-standing thread; counterpart of
/// [`std::thread::spawn`]. Inside a model run the thread must be
/// joined before the body returns, or it is aborted with the run.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current() {
        None => JoinHandle {
            inner: std::thread::spawn(|| panic::catch_unwind(AssertUnwindSafe(f))),
            tid: None,
        },
        Some((exec, parent)) => {
            let tid = exec.spawn_thread(parent);
            JoinHandle {
                inner: std::thread::spawn(move || run_modeled(exec, tid, f)),
                tid: Some(tid),
            }
        }
    }
}
