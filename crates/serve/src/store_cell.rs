//! The atomically swappable store: how the daemon refreshes its
//! dataset without dropping a request.
//!
//! A [`StoreCell`] holds the currently served [`StoreVersion`] — the
//! immutable [`Store`] plus the [`LedgerStamp`] saying which ledger
//! serial it came from — behind one `arest-conc` `RwLock` around an
//! `Arc`. A request handler calls [`StoreCell::load`] exactly once
//! and keeps the returned `Arc` for the request's whole lifetime, so
//! every answer is internally consistent even while the ledger
//! watcher swaps a new serial in underneath: readers see the old
//! version or the new one, never a mixture. The swap itself is just
//! an `Arc` pointer replacement under the write lock — O(1), no
//! copying, no window where the cell is empty.
//!
//! [`StoreCell::swap`] additionally enforces **serial monotonicity**:
//! a swap carrying a serial no newer than the current one is refused.
//! That makes the watcher idempotent (observing the same latest
//! serial twice is a no-op) and immunises the daemon against a ledger
//! directory that regresses.
//!
//! The whole protocol is model-checked in `tests/model_store_cell.rs`
//! under `--features model-check`, where the `arest-conc` scheduler
//! exhaustively interleaves concurrent swaps and loads.

use crate::store::Store;
use arest_conc::sync::RwLock;
use std::sync::Arc;

/// How a run's per-AS results were obtained, from its carry-forward
/// sidecar: re-probed fresh, or carried from a base serial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOrigin {
    /// The serial an incremental run merged against, `None` for a
    /// full run.
    pub base_serial: Option<u64>,
    /// ASes re-probed in this run.
    pub fresh: u64,
    /// ASes carried forward from the base.
    pub carried: u64,
}

/// Where a served store came from in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerStamp {
    /// The committed serial this store was loaded from.
    pub serial: u64,
    /// The snapshot's content digest (FNV-1a 64 over the payload).
    pub payload_digest: u64,
    /// The commit's wall-clock time (Unix seconds, caller-supplied).
    pub committed_unix: u64,
    /// The fresh/carried origin breakdown, when the serial carries a
    /// sidecar (runs committed by older writers have none).
    pub origin: Option<RunOrigin>,
}

/// One immutable store plus its provenance stamp. `stamp` is `None`
/// for servers running on a directly built dataset with no ledger.
#[derive(Debug, Clone)]
pub struct StoreVersion {
    /// The dataset being served.
    pub store: Arc<Store>,
    /// The ledger serial it came from, when any.
    pub stamp: Option<LedgerStamp>,
}

/// The swappable cell the server reads from and the watcher writes to.
#[derive(Debug)]
pub struct StoreCell {
    current: RwLock<Arc<StoreVersion>>,
}

impl StoreCell {
    /// A cell serving `version`.
    #[must_use]
    pub fn new(version: StoreVersion) -> StoreCell {
        StoreCell { current: RwLock::new(Arc::new(version)) }
    }

    /// A cell serving a bare store with no ledger stamp.
    #[must_use]
    pub fn bare(store: Arc<Store>) -> StoreCell {
        StoreCell::new(StoreVersion { store, stamp: None })
    }

    /// The current version. The returned `Arc` stays valid (and
    /// unchanging) for as long as the caller holds it, regardless of
    /// later swaps — hold it for one whole request, never longer.
    ///
    /// # Panics
    /// If the lock is poisoned, which `forbid(unsafe_code)` handlers
    /// that never panic make unreachable.
    #[must_use]
    pub fn load(&self) -> Arc<StoreVersion> {
        Arc::clone(&self.current.read().expect("store cell lock poisoned"))
    }

    /// The currently served ledger serial, when any.
    #[must_use]
    pub fn serial(&self) -> Option<u64> {
        self.load().stamp.map(|s| s.serial)
    }

    /// Atomically replaces the served version, refusing regressions:
    /// the swap happens only if `version` carries a stamp strictly
    /// newer than the current one (an unstamped current version counts
    /// as older than everything). Returns whether the swap happened.
    ///
    /// # Panics
    /// If the lock is poisoned (see [`StoreCell::load`]).
    pub fn swap(&self, version: StoreVersion) -> bool {
        let Some(new_stamp) = version.stamp else {
            return false; // an unstamped version can never win
        };
        let mut current = self.current.write().expect("store cell lock poisoned");
        let newer = match current.stamp {
            Some(stamp) => new_stamp.serial > stamp.serial,
            None => true,
        };
        if newer {
            *current = Arc::new(version);
        }
        newer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;

    fn stamped(serial: u64) -> StoreVersion {
        StoreVersion {
            store: Arc::new(Store::new(Arc::default())),
            stamp: Some(LedgerStamp {
                serial,
                payload_digest: serial * 31,
                committed_unix: 1_750_000_000 + serial,
                origin: None,
            }),
        }
    }

    #[test]
    fn swaps_are_monotonic() {
        let cell = StoreCell::new(stamped(3));
        assert_eq!(cell.serial(), Some(3));
        assert!(!cell.swap(stamped(3)), "same serial is refused");
        assert!(!cell.swap(stamped(2)), "regression is refused");
        assert_eq!(cell.serial(), Some(3));
        assert!(cell.swap(stamped(4)));
        assert_eq!(cell.serial(), Some(4));
    }

    #[test]
    fn bare_cells_accept_any_stamped_version_but_no_bare_one() {
        let store = Arc::new(Store::new(Arc::default()));
        let cell = StoreCell::bare(Arc::clone(&store));
        assert_eq!(cell.serial(), None);
        assert!(!cell.swap(StoreVersion { store, stamp: None }));
        assert!(cell.swap(stamped(1)));
        assert_eq!(cell.serial(), Some(1));
    }

    #[test]
    fn loads_pin_their_version_across_swaps() {
        let cell = StoreCell::new(stamped(1));
        let pinned = cell.load();
        assert!(cell.swap(stamped(2)));
        assert_eq!(pinned.stamp.map(|s| s.serial), Some(1), "held Arc never mutates");
        assert_eq!(cell.serial(), Some(2));
    }
}
