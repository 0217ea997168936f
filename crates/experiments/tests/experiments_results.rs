//! Pins the reproduction: every runner in
//! [`arest_experiments::EXPERIMENTS`], run over the default campaign,
//! must render exactly the bytes committed as
//! `EXPERIMENTS-results/<id>.txt` — the files
//! `arest-experiments --out EXPERIMENTS-results all` writes.
//!
//! The default campaign is deterministic (seeded generation and a
//! worker-count-invariant pipeline), so any difference is a behaviour
//! change, to be reviewed as a diff of the committed files.
//!
//! ## Regenerating
//!
//! After a deliberate change to a detector rule, the generator, or a
//! report's layout, rewrite every file in place with
//!
//! ```text
//! AREST_EXPERIMENTS_WRITE=1 cargo test -p arest-experiments --release --test experiments_results
//! ```
//!
//! and review the diff like any other code change. Nothing else
//! writes these files.

use arest_experiments::pipeline::{Dataset, PipelineConfig};
use arest_experiments::EXPERIMENTS;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS-results");

#[test]
fn every_report_matches_its_committed_file() {
    let write_mode = std::env::var("AREST_EXPERIMENTS_WRITE").is_ok_and(|v| v == "1");
    let dataset = Dataset::build(PipelineConfig::default());

    let mut mismatches: Vec<String> = Vec::new();
    for (id, run) in EXPERIMENTS {
        let path = format!("{RESULTS}/{id}.txt");
        let rendered = run(&dataset).render();
        if write_mode {
            std::fs::write(&path, &rendered).expect("write report file");
            continue;
        }
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("read {path}: {e} (regenerate with AREST_EXPERIMENTS_WRITE=1)")
        });
        if committed != rendered {
            let first = committed
                .lines()
                .zip(rendered.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| committed.lines().count().min(rendered.lines().count()));
            mismatches.push(format!(
                "{id}.txt differs from line {}:\n-- committed: {:?}\n-- rendered:  {:?}",
                first + 1,
                committed.lines().nth(first).unwrap_or("<end of file>"),
                rendered.lines().nth(first).unwrap_or("<end of file>"),
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} reports moved (regenerate with AREST_EXPERIMENTS_WRITE=1 only on purpose):\n{}",
        mismatches.len(),
        EXPERIMENTS.len(),
        mismatches.join("\n")
    );
}
