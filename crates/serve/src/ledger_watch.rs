//! The ledger directory watcher: how a running daemon picks up newly
//! committed serials with zero downtime.
//!
//! [`Ledger::commit`] publishes a snapshot by atomically renaming a
//! complete, checksummed file into the directory, so polling is safe:
//! the watcher either sees the new `run-<serial>.arest` in full or
//! not at all. When [`refresh`] observes a serial newer than the one
//! the [`StoreCell`] serves, it loads and verifies the file, indexes
//! the loaded snapshot as the serving store, and swaps it in —
//! requests in flight keep the version they loaded, the next request
//! gets the new one, and the cell's monotonicity check makes racing
//! watchers harmless.
//!
//! Verification failures (a corrupt file, a mid-rename glimpse on a
//! non-POSIX filesystem) leave the current version serving and are
//! retried on the next poll; the ledger's own `ledger.errors` counter
//! records them.

use crate::store::Store;
use crate::store_cell::{LedgerStamp, RunOrigin, StoreCell, StoreVersion};
use arest_ledger::{Ledger, LedgerResult};
use std::sync::Arc;
use std::time::Duration;

/// One poll step: if the ledger holds a serial newer than the cell
/// serves, load it and swap it in. Returns the serial swapped in, or
/// `None` when the cell was already current (or the directory is
/// empty).
pub fn refresh(cell: &StoreCell, ledger: &Ledger) -> LedgerResult<Option<u64>> {
    let Some(latest) = ledger.latest()? else {
        return Ok(None);
    };
    if cell.serial().is_some_and(|serving| serving >= latest) {
        return Ok(None);
    }
    let run = ledger.load(latest)?;
    // A missing or unreadable sidecar only costs the origin
    // breakdown; the run itself still serves.
    let origin = ledger.load_aux(latest).ok().flatten().map(|aux| {
        let carried = aux.carried.len() as u64;
        RunOrigin {
            base_serial: aux.base_serial,
            fresh: (run.snapshot.ases.len() as u64).saturating_sub(carried),
            carried,
        }
    });
    let stamp = LedgerStamp {
        serial: run.meta.serial,
        payload_digest: run.meta.payload_digest,
        committed_unix: run.meta.committed_unix,
        origin,
    };
    let version =
        StoreVersion { store: Arc::new(Store::new(Arc::new(run.snapshot))), stamp: Some(stamp) };
    Ok(cell.swap(version).then_some(latest))
}

/// Polls `ledger` every `poll` until `stop` returns true, swapping
/// newer serials into `cell` as they land. Run it on its own thread
/// (`arest_conc::thread::scope`) beside [`Server::run`].
///
/// [`Server::run`]: crate::server::Server::run
pub fn watch(cell: &StoreCell, ledger: &Ledger, poll: Duration, stop: &(dyn Fn() -> bool + Sync)) {
    while !stop() {
        // A failed refresh (transient IO, a corrupt commit) keeps the
        // current version serving; the next poll retries.
        let _ = refresh(cell, ledger);
        std::thread::sleep(poll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::{tiny, tiny_snapshot};
    use arest_ledger::CommitOptions;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arest-serve-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn refresh_swaps_new_serials_and_idles_otherwise() {
        let dir = scratch_dir("refresh");
        let ledger = Ledger::open(&dir).expect("open");
        let cell = StoreCell::bare(Arc::new(tiny()));

        // Empty directory: nothing to do.
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), None);

        let options = CommitOptions { committed_unix: 1_750_000_000, ..Default::default() };
        ledger.commit(&tiny_snapshot(), &options).expect("commit");
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), Some(1));
        assert_eq!(cell.serial(), Some(1));

        // Already current: idempotent.
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), None);

        ledger.commit(&tiny_snapshot(), &options).expect("commit");
        assert_eq!(refresh(&cell, &ledger).expect("refresh"), Some(2));
        assert_eq!(cell.serial(), Some(2));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_corrupt_latest_leaves_the_current_version_serving() {
        let dir = scratch_dir("corrupt");
        let ledger = Ledger::open(&dir).expect("open");
        let cell = StoreCell::bare(Arc::new(tiny()));
        let options = CommitOptions::default();
        ledger.commit(&tiny_snapshot(), &options).expect("commit");
        refresh(&cell, &ledger).expect("refresh");

        // Serial 2 lands bit-flipped: refresh errors, the cell stays
        // on serial 1.
        let receipt = ledger.commit(&tiny_snapshot(), &options).expect("commit");
        let mut bytes = std::fs::read(&receipt.path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&receipt.path, &bytes).expect("rewrite");
        assert!(refresh(&cell, &ledger).is_err());
        assert_eq!(cell.serial(), Some(1), "corruption must not dethrone the served store");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
