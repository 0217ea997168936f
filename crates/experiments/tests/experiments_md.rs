//! Keeps `EXPERIMENTS.md`'s runner index in lockstep with the code:
//! every id in [`arest_experiments::EXPERIMENTS`] must appear in
//! the document's "Runner index" table, and every id the table lists
//! must be a real runner.

use arest_experiments::EXPERIMENTS;
use std::collections::BTreeSet;

/// Extracts the backticked id from the first cell of each table row in
/// the "## Runner index" section.
fn documented_ids(markdown: &str) -> BTreeSet<String> {
    let section = markdown
        .split("## Runner index")
        .nth(1)
        .expect("EXPERIMENTS.md must keep a '## Runner index' section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| {
            let cell = line.strip_prefix("| `")?;
            let (id, _) = cell.split_once('`')?;
            Some(id.to_string())
        })
        .collect()
}

#[test]
fn runner_index_matches_all_experiments_in_both_directions() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let markdown = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let documented = documented_ids(&markdown);
    let registered: BTreeSet<String> =
        EXPERIMENTS.iter().map(|(id, _)| (*id).to_string()).collect();

    let undocumented: Vec<&String> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "experiment ids missing from EXPERIMENTS.md's runner index: {undocumented:?}"
    );
    let phantom: Vec<&String> = documented.difference(&registered).collect();
    assert!(
        phantom.is_empty(),
        "EXPERIMENTS.md documents ids the harness does not register: {phantom:?}"
    );
    assert_eq!(documented.len(), EXPERIMENTS.len());
}

#[test]
fn knobs_and_artifacts_are_documented() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let markdown = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    for needle in [
        "AREST_OBS",
        "AREST_WORKERS",
        "RUN_REPORT",
        "--listen",
        "docs/API.md",
        "--trace-out",
        "RUN_REPORT_provenance",
        "trace.json",
        "trace.folded",
        "--ledger",
        "RUN_REPORT_delta.txt",
        "history",
    ] {
        assert!(markdown.contains(needle), "EXPERIMENTS.md must document {needle}");
    }
}
