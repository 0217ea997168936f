//! Work-time accounting shared across streaming workers.
//!
//! The streaming dataflow has no fingerprint or detect *barrier*, so
//! there is no wall-clock interval to report for those stages. What it
//! does have is per-AS work sections executing on pool workers; a
//! [`WorkClock`] sums their durations across threads, giving
//! [`BuildStats`](crate::pipeline::BuildStats) and the
//! `pipeline.work.*.us` metrics a per-stage work figure that, unlike
//! the wall clock, does not depend on how the pool scheduled the
//! sections.
//!
//! Like [`crate::admission::AdmissionWindow`], the struct is free of
//! pipeline types so its one invariant — concurrent additions are
//! never lost, the total is the exact sum — is checked exhaustively by
//! the `model-check` suite (`tests/model_window.rs`).

use arest_conc::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonic sum of work durations, safe to add to from any worker.
///
/// Durations accumulate in nanoseconds: `u64` nanoseconds hold ~584
/// years of work, far beyond any build, and nanosecond resolution
/// keeps many tiny sections (one per AS) from truncating to zero.
#[derive(Debug, Default)]
pub struct WorkClock {
    nanos: AtomicU64,
}

impl WorkClock {
    /// A clock at zero.
    pub fn new() -> WorkClock {
        WorkClock { nanos: AtomicU64::new(0) }
    }

    /// Adds one work section's duration.
    pub fn add(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: a pure statistic. RMWs on one atomic share a total
        // modification order, so concurrent additions all land; the
        // total is read only after the workers have joined.
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// The summed work time so far.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(WorkClock::new().total(), Duration::ZERO);
    }

    #[test]
    fn additions_sum() {
        let clock = WorkClock::new();
        clock.add(Duration::from_micros(3));
        clock.add(Duration::from_nanos(500));
        clock.add(Duration::ZERO);
        assert_eq!(clock.total(), Duration::from_nanos(3_500));
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let clock = WorkClock::new();
        clock.add(Duration::MAX);
        assert_eq!(clock.total(), Duration::from_nanos(u64::MAX));
    }
}
