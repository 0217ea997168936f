//! Exhaustive model checks of the channel shim's concurrency
//! invariants (`cargo test -p crossbeam --features model-check`), plus
//! the seeded-mutation regression proving the checker finds the PR 2
//! lost-wakeup bug with a minimal replayable schedule.

#![cfg(feature = "model-check")]

use arest_conc::model::{FailureKind, Model};
use crossbeam::channel::{RecvError, SendError};

/// Invariant: the last sender dropping wakes *every* blocked receiver;
/// no interleaving of two receivers entering `recv` against the drop
/// may leave a receiver parked forever.
#[test]
fn model_last_sender_drop_wakes_all_receivers() {
    let report = Model::default().check(|| {
        let (tx, rx) = crossbeam::channel::unbounded::<u8>();
        arest_conc::thread::scope(|s| {
            let r1 = rx.clone();
            let h1 = s.spawn(move || r1.recv());
            let r2 = rx.clone();
            let h2 = s.spawn(move || r2.recv());
            drop(tx);
            assert_eq!(h1.join().expect("r1"), Err(RecvError));
            assert_eq!(h2.join().expect("r2"), Err(RecvError));
        });
    });
    assert!(report.complete, "schedule space not exhausted in {} runs", report.runs);
}

/// Invariant: a blocking send on a full bounded queue racing the final
/// receiver drop is atomic — the producer always terminates, and with
/// nobody left to drain the queue it must get its message back.
#[test]
fn model_bounded_send_vs_final_receiver_drop_is_atomic() {
    let report = Model::default().check(|| {
        let (tx, rx) = crossbeam::channel::bounded::<u8>(1);
        tx.send(0).expect("fill to capacity");
        arest_conc::thread::scope(|s| {
            let h = s.spawn(move || tx.send(1));
            drop(rx);
            assert_eq!(h.join().expect("producer"), Err(SendError(1)));
        });
    });
    assert!(report.complete, "schedule space not exhausted in {} runs", report.runs);
}

/// Invariant: a message sent while a receiver is (or is about to be)
/// blocked is always delivered — the send's notify cannot be lost.
#[test]
fn model_send_always_reaches_a_blocked_receiver() {
    Model::default().check(|| {
        let (tx, rx) = crossbeam::channel::unbounded::<u8>();
        arest_conc::thread::scope(|s| {
            s.spawn(move || tx.send(7).expect("send"));
            assert_eq!(rx.recv(), Ok(7));
        });
    });
}

/// Invariant: with capacity 1 and a consumer draining, two queued
/// producers all complete (space notifications are never lost).
#[test]
fn model_bounded_backpressure_never_wedges() {
    Model::default().check(|| {
        let (tx, rx) = crossbeam::channel::bounded::<u8>(1);
        arest_conc::thread::scope(|s| {
            let t1 = tx.clone();
            s.spawn(move || t1.send(1).expect("send 1"));
            let t2 = tx.clone();
            s.spawn(move || t2.send(2).expect("send 2"));
            drop(tx);
            let mut got: Vec<u8> = rx.iter().collect();
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        });
    });
}

/// The body under mutation test: one receiver blocks on an empty
/// buggy channel while the only sender drops. With the sender count
/// outside the queue mutex (the pre-review PR 2 shape), the
/// disconnect notify can land between the receiver's senders-check
/// and its park — a lost wakeup.
fn seeded_lost_wakeup() {
    let (tx, rx) = crossbeam::mutations::buggy_unbounded::<u8>();
    arest_conc::thread::scope(|s| {
        s.spawn(move || drop(tx));
        assert_eq!(rx.recv(), None);
    });
}

/// Mutation regression: the checker must find the seeded bug, report
/// it as a deadlock, prove the schedule minimal (exactly one
/// preemption), and replay it deterministically.
#[test]
fn model_detects_seeded_lost_wakeup_with_minimal_schedule() {
    let report = Model::default().explore(seeded_lost_wakeup);
    let failure = report.failure.expect("the seeded lost wakeup must be found");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
    assert_eq!(
        failure.preemptions, 1,
        "iterative deepening must surface the 1-preemption schedule first:\n{failure}"
    );

    // The printed failure carries everything needed to reproduce.
    let rendered = failure.to_string();
    assert!(rendered.contains("replayable schedule"), "{rendered}");
    assert!(rendered.contains("cond.wait"), "{rendered}");

    let replayed = Model::default()
        .replay(&failure.schedule, seeded_lost_wakeup)
        .expect("the recorded schedule must reproduce the lost wakeup");
    assert_eq!(replayed.kind, FailureKind::Deadlock);
}

/// The fixed channel passes the exact scenario the mutation fails:
/// counts under the queue mutex serialize the check with the notify.
#[test]
fn model_fixed_channel_survives_the_mutation_scenario() {
    Model::default().check(|| {
        let (tx, rx) = crossbeam::channel::unbounded::<u8>();
        arest_conc::thread::scope(|s| {
            s.spawn(move || drop(tx));
            assert_eq!(rx.recv(), Err(RecvError));
        });
    });
}
