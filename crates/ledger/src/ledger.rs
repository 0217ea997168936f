//! The directory-level store: one file per serial, committed
//! atomically, loaded with full verification.
//!
//! A ledger directory holds `run-<serial>.arest` files with strictly
//! increasing serials. [`Ledger::commit`] assigns the next serial,
//! writes the encoded snapshot to a dot-prefixed temporary name in
//! the same directory, and **renames** it into place — on POSIX
//! filesystems the rename is atomic, so a concurrent reader (the
//! serving layer's directory watcher) either sees the complete file
//! or no file, never a half-written one. That rename is the
//! zero-downtime refresh protocol's foundation (`DESIGN.md` §13).
//!
//! Loading re-verifies everything: the header checksum, the serial
//! against the file name, the payload digest, and the payload
//! structure. [`Ledger::summary`] and [`Ledger::diff`] verify the same
//! way through the same parser, and fail with the same error. Every
//! failure is a typed [`LedgerError`]; no input — truncated,
//! bit-flipped, renamed, or hostile — panics.

use crate::aux::{decode_aux_file, encode_aux_file, AuxRecord};
use crate::delta::{self, DetectionDelta, PayloadView};
use crate::error::{LedgerError, LedgerResult};
use crate::file::{decode_file, decode_sized_header, open_payload, seal_file, RunMeta, HEADER_LEN};
use crate::obs::{record_us, METRICS, TRACER};
use crate::snapshot::{payload_totals, RunSnapshot, RunTotals};
use arest_conc::thread;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Caller-supplied commit metadata. The timestamp is an input, not a
/// clock read, so tests and documentation builds commit with fixed
/// times and stay byte-deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitOptions {
    /// Commit wall-clock time (Unix seconds).
    pub committed_unix: u64,
    /// Digest of the pipeline configuration that produced the run.
    pub config_digest: u64,
    /// Digest of the AS catalog the run measured.
    pub catalog_digest: u64,
}

/// What [`Ledger::commit`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// The serial the snapshot landed under.
    pub serial: u64,
    /// Content digest of the payload.
    pub payload_digest: u64,
    /// Total file size in bytes (header + payload).
    pub bytes: u64,
    /// The file's final path.
    pub path: PathBuf,
}

/// One loaded run: verified header plus decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRun {
    /// The verified header.
    pub meta: RunMeta,
    /// The decoded snapshot.
    pub snapshot: RunSnapshot,
}

/// A handle on one ledger directory.
#[derive(Debug)]
pub struct Ledger {
    dir: PathBuf,
}

fn serial_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let serial = name.strip_prefix("run-")?.strip_suffix(".arest")?;
    // Strict decimal, no signs or leading junk.
    if serial.is_empty() || !serial.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    serial.parse().ok()
}

/// Opens a ledger file for reading; `Ok(None)` when it does not exist.
fn open_file(path: &Path) -> LedgerResult<Option<File>> {
    match File::open(path) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(LedgerError::Io(e)),
    }
}

/// Reads a whole ledger file; `Ok(None)` when it does not exist.
fn read(path: &Path) -> LedgerResult<Option<Vec<u8>>> {
    let Some(mut file) = open_file(path)? else {
        return Ok(None);
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    Ok(Some(bytes))
}

/// Writes `bytes` to `path` through `.<name>.tmp` in the same
/// directory and an atomic rename. A failure counts on
/// `ledger.errors` and leaves no temporary behind.
fn write_atomic(path: &Path, bytes: &[u8]) -> LedgerResult<()> {
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(path.file_name().expect("ledger paths name a file"));
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)).map_err(|e| {
        METRICS.errors.inc();
        let _ = std::fs::remove_file(&tmp);
        LedgerError::Io(e)
    })
}

impl Ledger {
    /// Opens (creating if needed) the ledger directory at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> LedgerResult<Ledger> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Ledger { dir })
    }

    /// The directory this ledger lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a serial's snapshot file lives at.
    #[must_use]
    pub fn path_of(&self, serial: u64) -> PathBuf {
        self.dir.join(format!("run-{serial}.arest"))
    }

    /// Every committed serial, ascending. Files that do not match the
    /// `run-<serial>.arest` shape are ignored (editor droppings, the
    /// commit temporary).
    pub fn serials(&self) -> LedgerResult<Vec<u64>> {
        let mut serials = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            if let Some(serial) = serial_of(&entry?.path()) {
                serials.push(serial);
            }
        }
        serials.sort_unstable();
        serials.dedup();
        Ok(serials)
    }

    /// The newest committed serial, if any.
    pub fn latest(&self) -> LedgerResult<Option<u64>> {
        Ok(self.serials()?.into_iter().next_back())
    }

    /// Commits `snapshot` under the next serial: encode, write to a
    /// temporary in the same directory, fsync-free atomic rename into
    /// place.
    pub fn commit(
        &self,
        snapshot: &RunSnapshot,
        options: &CommitOptions,
    ) -> LedgerResult<CommitReceipt> {
        let started = Instant::now();
        let mut span = TRACER.span("ledger.commit");
        let serial = self.latest()?.map_or(1, |s| s + 1);
        let meta = RunMeta {
            serial,
            committed_unix: options.committed_unix,
            config_digest: options.config_digest,
            catalog_digest: options.catalog_digest,
            payload_len: 0,    // stamped by seal_file
            payload_digest: 0, // stamped by seal_file
        };
        let encode_started = Instant::now();
        let (bytes, payload_digest) = seal_file(snapshot, &meta);
        record_us(&METRICS.encode_us, encode_started.elapsed());
        let path = self.path_of(serial);
        write_atomic(&path, &bytes)?;
        METRICS.commits.inc();
        METRICS.snapshot_bytes.record(bytes.len() as u64);
        record_us(&METRICS.commit_us, started.elapsed());
        span.record("serial", serial);
        span.record("bytes", bytes.len() as u64);
        Ok(CommitReceipt { serial, payload_digest, bytes: bytes.len() as u64, path })
    }

    /// The path a serial's carry-forward sidecar lives at.
    #[must_use]
    pub fn aux_path(&self, serial: u64) -> PathBuf {
        self.dir.join(format!("run-{serial}.arest.aux"))
    }

    /// [`Ledger::commit`] plus an atomically-written carry-forward
    /// sidecar under the same serial. The snapshot file is identical
    /// to a plain commit's — the sidecar never changes the payload,
    /// so content-addressed identity is unaffected.
    pub fn commit_with_aux(
        &self,
        snapshot: &RunSnapshot,
        options: &CommitOptions,
        aux: &AuxRecord,
    ) -> LedgerResult<CommitReceipt> {
        let receipt = self.commit(snapshot, options)?;
        write_atomic(&self.aux_path(receipt.serial), &encode_aux_file(aux, receipt.serial))?;
        Ok(receipt)
    }

    /// Reads and fully verifies one serial's carry-forward sidecar.
    /// `Ok(None)` means the serial was committed without one (by an
    /// older writer, or via plain [`Ledger::commit`]).
    pub fn load_aux(&self, serial: u64) -> LedgerResult<Option<AuxRecord>> {
        read(&self.aux_path(serial))?.map(|bytes| decode_aux_file(&bytes, Some(serial))).transpose()
    }

    /// Reads and fully verifies one run (header checksum, serial,
    /// payload digest, payload structure).
    pub fn load(&self, serial: u64) -> LedgerResult<StoredRun> {
        let started = Instant::now();
        let result = self.read_run(serial).and_then(|bytes| {
            let (meta, snapshot) = decode_file(&bytes, Some(serial))?;
            Ok(StoredRun { meta, snapshot })
        });
        match &result {
            Ok(_) => {
                METRICS.loads.inc();
                record_us(&METRICS.load_us, started.elapsed());
            }
            Err(_) => METRICS.errors.inc(),
        }
        result
    }

    /// Reads and verifies one run's header only — enough for run
    /// listings without reading the payload. The header's payload
    /// length is still checked against the file size, so a truncated
    /// file surfaces here too.
    pub fn meta(&self, serial: u64) -> LedgerResult<RunMeta> {
        let file = open_file(&self.path_of(serial))?.ok_or(LedgerError::UnknownSerial(serial))?;
        let file_len = file.metadata()?.len();
        let mut header = Vec::with_capacity(HEADER_LEN);
        file.take(HEADER_LEN as u64).read_to_end(&mut header)?;
        decode_sized_header(&header, file_len, Some(serial))
    }

    /// Reads and fully verifies one run, as [`Ledger::load`] does, and
    /// returns its header and campaign totals without building the
    /// snapshot: every check [`Ledger::load`] makes fails here the
    /// same way.
    pub fn summary(&self, serial: u64) -> LedgerResult<(RunMeta, RunTotals)> {
        let result = self.read_run(serial).and_then(|bytes| {
            let (meta, payload) = open_payload(&bytes, Some(serial))?;
            Ok((meta, payload_totals(payload)?))
        });
        if result.is_err() {
            METRICS.errors.inc();
        }
        result
    }

    /// The bytes of one serial's run file.
    fn read_run(&self, serial: u64) -> LedgerResult<Vec<u8>> {
        read(&self.path_of(serial))?.ok_or(LedgerError::UnknownSerial(serial))
    }

    /// Reads one serial's run file into `bytes`, verifies it as
    /// [`Ledger::load`] does, and parses its payload into a view
    /// borrowing `bytes`.
    fn view<'a>(
        &self,
        serial: u64,
        bytes: &'a mut Vec<u8>,
    ) -> LedgerResult<(RunMeta, PayloadView<'a>)> {
        *bytes = self.read_run(serial)?;
        let bytes: &'a Vec<u8> = bytes;
        let (meta, payload) = open_payload(bytes, Some(serial))?;
        Ok((meta, PayloadView::parse(payload)?))
    }

    /// Computes the announce/withdraw delta from run `a` to run `b`.
    /// Each run is read, verified exactly as [`Ledger::load`] verifies
    /// it, and parsed into a view of its payload bytes; no snapshot is
    /// decoded. The `ledger.diff` span records the entry counts and how
    /// many address rows the diff walked and found differing.
    ///
    /// `b` is read and parsed on a scoped thread while `a` is on the
    /// caller's. When `a` fails its error is returned, whether or not
    /// `b` failed too.
    pub fn diff(&self, a: u64, b: u64) -> LedgerResult<DetectionDelta> {
        let started = Instant::now();
        let mut span = TRACER.span("ledger.diff");
        let (mut bytes_a, mut bytes_b) = (Vec::new(), Vec::new());
        let slot_b = &mut bytes_b;
        let (from, to) = thread::scope(|s| {
            let to = s.spawn(move || self.view(b, slot_b));
            let from = self.view(a, &mut bytes_a);
            (from, to.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        });
        let ((from_meta, from), (to_meta, to)) = match (from, to) {
            (Ok(from), Ok(to)) => (from, to),
            (Err(e), _) | (_, Err(e)) => {
                METRICS.errors.inc();
                return Err(e);
            }
        };
        let compute_started = Instant::now();
        let (delta, work) = delta::walk(from_meta, &from, to_meta, &to);
        record_us(&METRICS.delta_us, compute_started.elapsed());
        METRICS.diffs.inc();
        record_us(&METRICS.diff_us, started.elapsed());
        span.record("from", a);
        span.record("to", b);
        span.record("announced", delta.announced.len() as u64);
        span.record("withdrawn", delta.withdrawn.len() as u64);
        span.record("changed", delta.changed.len() as u64);
        span.record("addrs", work.addrs);
        span.record("addrs_differing", work.addrs_differing);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::sample;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "arest-ledger-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn serials_are_monotonic_and_listable() {
        let dir = scratch_dir("serials");
        let ledger = Ledger::open(&dir).expect("open");
        assert_eq!(ledger.latest().expect("latest"), None);
        let options = CommitOptions { committed_unix: 1_700_000_000, ..Default::default() };
        let first = ledger.commit(&sample(), &options).expect("commit 1");
        let second = ledger.commit(&sample(), &options).expect("commit 2");
        assert_eq!((first.serial, second.serial), (1, 2));
        assert_eq!(ledger.serials().expect("serials"), vec![1, 2]);
        assert_eq!(ledger.latest().expect("latest"), Some(2));
        assert_eq!(
            first.payload_digest, second.payload_digest,
            "same snapshot, same content digest"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_round_trips_and_unknown_serials_are_typed() {
        let dir = scratch_dir("load");
        let ledger = Ledger::open(&dir).expect("open");
        let snapshot = sample();
        let options = CommitOptions {
            committed_unix: 1_700_000_777,
            config_digest: 0xabc,
            catalog_digest: 0xdef,
        };
        ledger.commit(&snapshot, &options).expect("commit");
        let run = ledger.load(1).expect("load");
        assert_eq!(run.snapshot, snapshot);
        assert_eq!(run.meta.committed_unix, 1_700_000_777);
        assert_eq!(run.meta.config_digest, 0xabc);
        assert!(matches!(ledger.load(9), Err(LedgerError::UnknownSerial(9))));
        assert!(matches!(ledger.meta(9), Err(LedgerError::UnknownSerial(9))));
        assert_eq!(ledger.meta(1).expect("meta"), run.meta);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn foreign_files_are_ignored_and_no_temp_survives() {
        let dir = scratch_dir("foreign");
        let ledger = Ledger::open(&dir).expect("open");
        std::fs::write(dir.join("README"), b"not a snapshot").expect("write");
        std::fs::write(dir.join("run-x.arest"), b"junk").expect("write");
        ledger.commit(&sample(), &CommitOptions::default()).expect("commit");
        assert_eq!(ledger.serials().expect("serials"), vec![1]);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "commit must not leave temporaries");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn aux_sidecar_commits_and_loads_next_to_its_snapshot() {
        let dir = scratch_dir("aux");
        let ledger = Ledger::open(&dir).expect("open");
        let aux = AuxRecord {
            base_serial: None,
            carried: Vec::new(),
            raw_traces: vec![(65010, 5)],
            cache: vec![(std::net::Ipv4Addr::new(10, 0, 0, 1), Some(255))],
        };
        let receipt =
            ledger.commit_with_aux(&sample(), &CommitOptions::default(), &aux).expect("commit");
        assert_eq!(receipt.serial, 1);
        // The sidecar never pollutes the serial listing, and a plain
        // commit has no sidecar.
        ledger.commit(&sample(), &CommitOptions::default()).expect("commit 2");
        assert_eq!(ledger.serials().expect("serials"), vec![1, 2]);
        assert_eq!(ledger.load_aux(1).expect("load aux"), Some(aux));
        assert_eq!(ledger.load_aux(2).expect("load aux 2"), None);
        // The snapshot itself is byte-identical either way.
        let plain = ledger.load(2).expect("load 2");
        let with_aux = ledger.load(1).expect("load 1");
        assert_eq!(plain.meta.payload_digest, with_aux.meta.payload_digest);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn diff_of_a_serial_against_itself_is_empty() {
        let dir = scratch_dir("diff");
        let ledger = Ledger::open(&dir).expect("open");
        ledger.commit(&sample(), &CommitOptions::default()).expect("commit");
        let delta = ledger.diff(1, 1).expect("diff");
        assert!(delta.is_empty());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// `diff(a, b)` reports `a`'s failure whenever `a` fails, however
    /// `b` fares, and `b`'s failure only when `a` loads.
    #[test]
    fn diff_reports_the_first_serials_error_first() {
        let dir = scratch_dir("diff-errors");
        let ledger = Ledger::open(&dir).expect("open");
        for _ in 0..3 {
            ledger.commit(&sample(), &CommitOptions::default()).expect("commit");
        }
        // Run 1 is junk; run 2 has a flipped payload byte. Their
        // errors differ, so the test can tell whose error came back.
        std::fs::write(ledger.path_of(1), b"not a ledger file at all").expect("write");
        let mut bytes = std::fs::read(ledger.path_of(2)).expect("read");
        *bytes.last_mut().expect("payload byte") ^= 0x40;
        std::fs::write(ledger.path_of(2), &bytes).expect("write");
        let load_error = |serial| ledger.load(serial).expect_err("bad serial").to_string();
        let diff_error = |a, b| ledger.diff(a, b).expect_err("bad diff").to_string();
        assert_ne!(load_error(1), load_error(2));

        for (a, b) in [(8, 9), (1, 2), (2, 1), (1, 9), (9, 2), (1, 3), (2, 3)] {
            assert_eq!(diff_error(a, b), load_error(a), "diff({a}, {b})");
        }
        for (a, b) in [(3, 9), (3, 2), (3, 1)] {
            assert_eq!(diff_error(a, b), load_error(b), "diff({a}, {b})");
        }
        assert!(ledger.diff(3, 3).expect("diff").is_empty());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
