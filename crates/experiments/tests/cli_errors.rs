//! Operator-facing CLI error paths: conditions an operator hits in
//! normal use (an empty ledger, a typo'd ASN) must answer with one
//! friendly stderr line and a clean nonzero exit — not a usage dump,
//! not a panic, not a successful listing of nothing.
//!
//! These tests spawn the binary in subprocesses (no dataset is built;
//! every path under test fails before the expensive work starts).
//!
//! A reader that closes its pipe early (`… | head -2`, `… | grep -q`)
//! is normal use too: the output ends there, and the exit code stays
//! the one the command would have had.

use std::path::PathBuf;
use std::process::{Command, ExitStatus, Output, Stdio};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arest-cli-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arest-experiments"))
        .args(args)
        .output()
        .expect("spawn arest-experiments")
}

/// One friendly `error:` line on stderr and exit code 1 — the shape
/// every operator-facing failure shares.
fn assert_friendly(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "want exit 1, got {:?}: {stderr}", out.status);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "one line, not a usage dump: {stderr:?}");
    assert!(lines[0].starts_with("error: "), "friendly prefix missing: {stderr:?}");
    assert!(lines[0].contains(needle), "expected {needle:?} in {stderr:?}");
    assert!(out.stdout.is_empty(), "errors go to stderr only");
}

#[test]
fn history_on_an_empty_ledger_is_a_friendly_one_liner() {
    let dir = scratch_dir("history-empty");
    let out = run(&["--ledger", dir.to_str().unwrap(), "history"]);
    assert_friendly(&out, "has no committed runs yet");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn diff_on_an_empty_ledger_is_a_friendly_one_liner() {
    let dir = scratch_dir("diff-empty");
    let out = run(&["--ledger", dir.to_str().unwrap(), "diff", "1", "2"]);
    assert_friendly(&out, "cannot diff runs 1 and 2");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn history_on_a_missing_ledger_dir_still_works_or_fails_cleanly() {
    // `Ledger::open` creates the directory, so a missing path behaves
    // exactly like an empty ledger: same friendly line, same exit.
    let dir = scratch_dir("history-missing");
    std::fs::remove_dir_all(&dir).expect("drop the dir before the run");
    let out = run(&["--ledger", dir.to_str().unwrap(), "history"]);
    assert_friendly(&out, "has no committed runs yet");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_asn_outside_the_catalog_is_refused_before_building() {
    let dir = scratch_dir("bad-asn");
    let out = run(&[
        "--quick",
        "--ledger",
        dir.to_str().unwrap(),
        "--reprobe",
        "as1001",
        "--base",
        "1",
        "headline",
    ]);
    assert_friendly(&out, "ASN 1001 is not in this campaign's catalog");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn an_unknown_experiment_id_is_refused_before_building() {
    let out = run(&["--quick", "bogus"]);
    assert_friendly(&out, "unknown experiment id: bogus");
    // A valid id next to the typo does not rescue the run.
    let out = run(&["--quick", "headline", "bogus2"]);
    assert_friendly(&out, "unknown experiment id: bogus2");
}

#[test]
fn an_incremental_run_against_a_missing_base_fails_friendly() {
    let dir = scratch_dir("missing-base");
    let out = run(&[
        "--quick",
        "--ledger",
        dir.to_str().unwrap(),
        "--reprobe",
        "25%",
        "--base",
        "7",
        "headline",
    ]);
    assert_friendly(&out, "cannot load base run 7");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Runs `program` with `stream` ("stdout" or "stderr") connected to a
/// pipe whose read end is already closed, so every write to it fails
/// with `BrokenPipe`.
fn run_into_closed_pipe(program: &str, args: &[&str], stream: &str) -> ExitStatus {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let mut command = Command::new(program);
    command.args(args).stdin(Stdio::null());
    match stream {
        "stdout" => command.stdout(writer).stderr(Stdio::null()),
        _ => command.stderr(writer).stdout(Stdio::null()),
    };
    command.status().unwrap_or_else(|e| panic!("spawn {program}: {e}"))
}

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_arest-experiments");

#[test]
fn usage_on_a_closed_stderr_pipe_still_exits_2() {
    // Exit 101 would be the panic of a failed `eprintln!`.
    let status = run_into_closed_pipe(EXPERIMENTS, &["--clients", "2"], "stderr");
    assert_eq!(status.code(), Some(2), "{status:?}");
}

#[test]
fn a_listing_into_a_closed_stdout_pipe_exits_0() {
    let dir = scratch_dir("history-closed-pipe");
    let ledger = arest_ledger::Ledger::open(&dir).expect("open ledger");
    let options = arest_ledger::CommitOptions::default();
    for _ in 0..2 {
        ledger.commit(&arest_ledger::RunSnapshot::default(), &options).expect("commit");
    }
    let dir = dir.to_str().unwrap();
    let status = run_into_closed_pipe(EXPERIMENTS, &["--ledger", dir, "history"], "stdout");
    assert_eq!(status.code(), Some(0), "{status:?}");
    let status = run_into_closed_pipe(
        EXPERIMENTS,
        &["--ledger", dir, "--out", dir, "diff", "1", "2"],
        "stdout",
    );
    assert_eq!(status.code(), Some(0), "{status:?}");
    std::fs::remove_dir_all(dir).expect("cleanup");
}

#[test]
fn a_trace_into_a_closed_stdout_pipe_exits_0() {
    // `arest-trace --as 2 | true`: the traces still run (AS 2 reveals
    // hops), and exit 101 would be the panic of a failed `println!`.
    let status = run_into_closed_pipe(env!("CARGO_BIN_EXE_arest-trace"), &["--as", "2"], "stdout");
    assert_eq!(status.code(), Some(0), "{status:?}");
}
