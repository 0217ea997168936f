//! # arest-experiments
//!
//! The experiment harness: one runner per table and figure of the
//! paper's evaluation (see `DESIGN.md` §4 for the full index), all
//! fed by a shared measurement [`pipeline`] that chains the substrate
//! crates end to end:
//!
//! ```text
//! arest-netgen  → synthetic Internet (60 ASes, 50 VPs, ground truth)
//! arest-mapping → Anaximander target lists from the BGP view
//! arest-tnt     → Paris/TNT campaign from every VP
//! arest-fingerprint → SNMPv3 + TTL vendor evidence
//! arest-mapping → bdrmapIT-style AS restriction (+ alias clusters)
//! arest-core    → AReST segments, areas, interworking, validation
//! ```
//!
//! Experiments are pure functions over the resulting [`pipeline::Dataset`],
//! each returning a [`Report`] that renders the same rows/series the
//! paper's table or figure shows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod clock;
pub mod delta_report;
pub mod exp_audit;
pub mod exp_background;
pub mod exp_characterization;
pub mod exp_dataset;
pub mod exp_detection;
pub mod exp_longitudinal;
pub mod exp_validation;
pub mod ledger_io;
pub mod output;
pub mod pipeline;
pub mod provenance;
pub mod render;
pub mod run_report;
pub mod serve_store;

pub use pipeline::{AsResult, Dataset, PipelineConfig, SliceSpec};
pub use render::{Report, Table};

/// One experiment runner: renders its table or figure from a built
/// dataset (the background figures ignore it).
pub type Runner = fn(&Dataset) -> Report;

/// Every experiment, in paper order (plus the future-work sweep and
/// the substrate audit): its id and its runner.
pub const EXPERIMENTS: [(&str, Runner); 21] = [
    ("fig1", |_| exp_background::fig01_publications()),
    ("table1", |_| exp_background::table1_vendor_ranges()),
    ("table2_fig5", |_| exp_background::fig05_survey()),
    ("fig6", |_| exp_validation::fig06_flags_walkthrough()),
    ("fig7", |_| exp_background::fig07_stack_evolution()),
    ("table3", exp_validation::table3_ground_truth),
    ("fig8", exp_detection::fig08_flags_per_as),
    ("fig9", exp_detection::fig09_stack_sizes),
    ("fig10", exp_characterization::fig10_deployment),
    ("fig11", exp_characterization::fig11_interworking_modes),
    ("fig12", exp_characterization::fig12_cloud_sizes),
    ("table5", exp_dataset::table5_dataset),
    ("fig13", exp_dataset::fig13_tunnel_types),
    ("fig14", exp_dataset::fig14_fingerprint_sources),
    ("fig15", exp_dataset::fig15_vendor_heatmap),
    ("fig16", exp_dataset::fig16_label_ranges),
    ("fig17", exp_dataset::fig17_vp_cdf),
    ("headline", exp_validation::headline_detection),
    ("ablation", exp_validation::ablation_flags),
    ("longitudinal", exp_longitudinal::longitudinal_adoption),
    ("audit", exp_audit::audit_substrate),
];

/// Runs one experiment by id against a built dataset.
pub fn run_experiment(id: &str, dataset: &Dataset) -> Option<Report> {
    EXPERIMENTS.iter().find(|(known, _)| *known == id).map(|(_, run)| run(dataset))
}
