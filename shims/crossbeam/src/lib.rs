//! Offline shim for the crossbeam channels the workspace uses:
//!
//! * [`channel::unbounded`] — a multi-producer multi-consumer FIFO
//!   channel (mutex + condvar) with crossbeam's disconnect semantics:
//!   `recv` drains remaining messages after the last sender drops,
//!   then reports disconnection.
//! * [`channel::bounded`] — the same channel with a capacity:
//!   `send` blocks while the queue is full (backpressure) and wakes
//!   when a receiver pops or every receiver disconnects.
//!
//! Scoped threads are not part of the shim: the workspace spawns
//! every thread through `arest_conc::thread`.
//!
//! All synchronization goes through `arest-conc`: plain `std` in
//! normal builds, cooperative scheduler-controlled primitives under
//! the `model-check` feature, where the model tests in
//! `tests/model.rs` exhaustively explore this module's interleavings.

#![forbid(unsafe_code)]

/// MPMC channels, mirroring the `crossbeam::channel` subset the
/// work-stealing pipeline needs (`unbounded`, clonable ends,
/// disconnect detection).
pub mod channel {
    use arest_conc::sync::{Condvar, Mutex};
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// Everything the condvar predicate depends on lives under one
    /// mutex: a receiver's senders-gone check and the last sender's
    /// decrement are serialized, so the disconnect notification can
    /// never fire in the window between a receiver observing a live
    /// sender and blocking (the classic lost-wakeup race).
    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
        /// Producers blocked on a full bounded queue wait here; woken
        /// by a pop or by the last receiver disconnecting.
        space: Condvar,
        /// `None` for unbounded channels.
        capacity: Option<usize>,
    }

    /// The sending half; cloning adds a producer.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloning adds a consumer (every message is
    /// delivered to exactly one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// `send` failed because every receiver was dropped; carries the
    /// undeliverable message back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// `recv` failed because the channel is empty and every sender
    /// was dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// `try_recv` found no message: either the channel is momentarily
    /// `Empty` (senders remain) or it is `Disconnected` for good.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message queued, but senders still exist.
        Empty,
        /// No message queued and every sender has been dropped.
        Disconnected,
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Creates a bounded FIFO channel holding at most `capacity`
    /// queued messages: `send` blocks while the queue is full, which
    /// propagates backpressure from a slow consumer to producers.
    /// Unlike crossbeam this shim has no zero-capacity rendezvous
    /// mode; `capacity` must be at least 1.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity > 0, "shim bounded channel needs capacity >= 1 (no rendezvous mode)");
        new_channel(Some(capacity))
    }

    fn new_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        });
        (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
    }

    impl<T> Sender<T> {
        /// Enqueues a message; fails only when all receivers are gone.
        /// The check and the push happen under one lock, so a send
        /// racing the final receiver drop reports `SendError` rather
        /// than silently queueing to an unreachable channel. On a
        /// bounded channel this blocks while the queue is at capacity.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().expect("channel lock");
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state = self.shared.space.wait(state).expect("channel lock");
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }

        /// Number of messages currently queued. Racy by nature (the
        /// queue may change before the caller acts on the answer);
        /// useful for depth gauges, not for synchronization.
        pub fn len(&self) -> usize {
            self.shared.state.lock().expect("channel lock").queue.len()
        }

        /// Whether the queue is momentarily empty (see [`Sender::len`]).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.shared.state.lock().expect("channel lock").senders += 1;
            Sender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let Ok(mut state) = self.shared.state.lock() else { return };
            state.senders -= 1;
            let disconnected = state.senders == 0;
            drop(state);
            if disconnected {
                // Last producer gone: wake every blocked receiver so
                // it can observe the disconnect. The decrement was
                // serialized with recv's predicate check by the state
                // mutex, so no receiver can block after missing this.
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues the next message, blocking while the channel is
        /// empty but still connected. Returns `Err` once the channel
        /// is empty *and* every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().expect("channel lock");
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.shared.space.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.ready.wait(state).expect("channel lock");
            }
        }

        /// Dequeues the next message without blocking, distinguishing
        /// a momentarily empty channel from a disconnected one.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.state.lock().expect("channel lock");
            if let Some(value) = state.queue.pop_front() {
                drop(state);
                self.shared.space.notify_one();
                return Ok(value);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// A blocking iterator over messages, ending on disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }

        /// A non-blocking iterator: yields queued messages until the
        /// channel is empty (or disconnected), then stops — it never
        /// waits for producers.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.shared.state.lock().expect("channel lock").receivers += 1;
            Receiver { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let Ok(mut state) = self.shared.state.lock() else { return };
            state.receivers -= 1;
            let disconnected = state.receivers == 0;
            drop(state);
            if disconnected {
                // Producers blocked on a full bounded queue must wake
                // to observe the disconnect and return `SendError`.
                self.shared.space.notify_all();
            }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    pub struct TryIter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.try_recv().ok()
        }
    }
}

/// Seeded historical bugs, compiled only for the model checker's
/// regression tests: each variant reintroduces a race this repository
/// once shipped (or nearly shipped) so `tests/model.rs` can prove the
/// checker still finds it with a minimal replayable schedule.
#[cfg(feature = "model-check")]
pub mod mutations {
    use arest_conc::atomic::{AtomicUsize, Ordering};
    use arest_conc::sync::{Condvar, Mutex};
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// The pre-review PR 2 channel shape: the sender count lives in an
    /// atomic *outside* the queue mutex, so the last sender's
    /// decrement-and-notify is not serialized with a receiver's
    /// senders-gone check — the disconnect wakeup can fire in the
    /// window between a receiver observing a live sender and parking,
    /// leaving it blocked forever (lost wakeup).
    struct BuggyShared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// BUG under test: not protected by `queue`'s mutex.
        senders: AtomicUsize,
    }

    /// Sending half of the seeded lost-wakeup channel.
    pub struct BuggySender<T> {
        shared: Arc<BuggyShared<T>>,
    }

    /// Receiving half of the seeded lost-wakeup channel.
    pub struct BuggyReceiver<T> {
        shared: Arc<BuggyShared<T>>,
    }

    /// Creates the seeded lost-wakeup channel (unbounded).
    pub fn buggy_unbounded<T>() -> (BuggySender<T>, BuggyReceiver<T>) {
        let shared = Arc::new(BuggyShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
        });
        (BuggySender { shared: Arc::clone(&shared) }, BuggyReceiver { shared })
    }

    impl<T> BuggySender<T> {
        /// Enqueues a message and wakes one receiver.
        pub fn send(&self, value: T) {
            self.shared.queue.lock().expect("channel lock").push_back(value);
            self.shared.ready.notify_one();
        }
    }

    impl<T> Clone for BuggySender<T> {
        fn clone(&self) -> BuggySender<T> {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            BuggySender { shared: Arc::clone(&self.shared) }
        }
    }

    impl<T> Drop for BuggySender<T> {
        fn drop(&mut self) {
            // BUG under test: the decrement and the wakeup are not
            // under the queue mutex, so they can slot in between a
            // receiver's check and its wait.
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> BuggyReceiver<T> {
        /// Dequeues the next message, blocking while the channel is
        /// empty but (apparently) still connected; `None` on
        /// disconnect.
        pub fn recv(&self) -> Option<T> {
            let mut queue = self.shared.queue.lock().expect("channel lock");
            loop {
                if let Some(value) = queue.pop_front() {
                    return Some(value);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return None;
                }
                queue = self.shared.ready.wait(queue).expect("channel lock");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_is_fifo_and_disconnects() {
        let (tx, rx) = super::channel::unbounded();
        for i in 0..5u32 {
            tx.send(i).expect("send");
        }
        drop(tx);
        let drained: Vec<u32> = rx.iter().collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4], "FIFO order, drained past disconnect");
        assert_eq!(rx.recv(), Err(super::channel::RecvError));
    }

    #[test]
    fn try_recv_distinguishes_empty_from_disconnected() {
        use super::channel::TryRecvError;
        let (tx, rx) = super::channel::unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty), "connected but empty");
        tx.send(1u8).expect("send");
        tx.send(2u8).expect("send");
        assert_eq!(rx.try_iter().collect::<Vec<u8>>(), vec![1, 2], "drains without blocking");
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn channel_send_fails_without_receivers() {
        let (tx, rx) = super::channel::unbounded();
        drop(rx);
        assert_eq!(tx.send(7u8), Err(super::channel::SendError(7)));
    }

    #[test]
    fn channel_delivers_each_message_once_across_consumers() {
        let (tx, rx) = super::channel::unbounded();
        let n = 100u64;
        let consumed: Vec<u64> = arest_conc::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || rx.iter().collect::<Vec<u64>>())
                })
                .collect();
            for i in 0..n {
                tx.send(i).expect("send");
            }
            drop(tx);
            handles.into_iter().flat_map(|h| h.join().expect("worker")).collect()
        });
        let mut sorted = consumed;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<u64>>(), "every message exactly once");
    }

    #[test]
    fn sender_drop_wakes_blocked_receivers() {
        // Regression for a lost-wakeup race: the last sender dropping
        // concurrently with receivers entering `recv` must never leave
        // a receiver blocked forever. Many short rounds to give the
        // race a window; each round must terminate with a disconnect.
        // (tests/model.rs additionally proves this exhaustively with
        // the model checker.)
        for _ in 0..200 {
            let (tx, rx) = super::channel::unbounded::<u8>();
            arest_conc::thread::scope(|s| {
                let waiters: Vec<_> = (0..2)
                    .map(|_| {
                        let rx = rx.clone();
                        s.spawn(move || rx.recv())
                    })
                    .collect();
                drop(tx);
                for h in waiters {
                    assert_eq!(h.join().expect("worker"), Err(super::channel::RecvError));
                }
            });
        }
    }

    #[test]
    fn bounded_send_blocks_at_capacity_until_a_pop_frees_space() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        let (tx, rx) = super::channel::bounded::<u32>(2);
        let sent = AtomicUsize::new(0);
        arest_conc::thread::scope(|s| {
            let producer = {
                let tx = tx.clone();
                let sent = &sent;
                s.spawn(move || {
                    for i in 0..5u32 {
                        tx.send(i).expect("send");
                        // Relaxed: a pure event count for the polling
                        // loop below; the queue-state assertions are
                        // ordered by the channel's own mutex, not by
                        // this counter.
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                })
            };
            // The producer can complete at most capacity sends while
            // nothing is consuming; poll until it visibly stalls.
            let mut stalled_at = 0;
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(1));
                // Relaxed: same single-counter poll; no other memory
                // is claimed ordered by this load.
                stalled_at = sent.load(Ordering::Relaxed);
                if stalled_at == 2 {
                    break;
                }
            }
            assert_eq!(stalled_at, 2, "producer must block once the queue holds `capacity`");
            assert_eq!(tx.len(), 2, "queue sits exactly at capacity while the producer blocks");
            // Draining unblocks it; every message arrives in order.
            let drained: Vec<u32> = (0..5).map(|_| rx.recv().expect("recv")).collect();
            assert_eq!(drained, vec![0, 1, 2, 3, 4]);
            producer.join().expect("producer");
        });
        assert!(tx.is_empty(), "fully drained");
    }

    #[test]
    fn bounded_queue_drains_to_zero_on_disconnect() {
        // Producers fill the queue and drop; the receiver must drain
        // every queued message before observing the disconnect, and a
        // producer blocked on a full queue must wake with `SendError`
        // when the last receiver goes away.
        let (tx, rx) = super::channel::bounded::<u32>(3);
        for i in 0..3u32 {
            tx.send(i).expect("send");
        }
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<u32>>(), vec![0, 1, 2], "drains past disconnect");
        assert_eq!(rx.recv(), Err(super::channel::RecvError));

        let (tx, rx) = super::channel::bounded::<u32>(1);
        tx.send(0).expect("send");
        let blocked = arest_conc::thread::scope(|s| {
            let h = s.spawn(move || tx.send(1));
            std::thread::sleep(std::time::Duration::from_millis(5));
            drop(rx);
            h.join().expect("producer")
        });
        assert_eq!(
            blocked,
            Err(super::channel::SendError(1)),
            "receiver drop must wake a producer blocked on a full queue"
        );
    }
}
