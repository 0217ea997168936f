//! End-to-end runs: public entry points only, tracing off.
//!
//! A run repeats rounds of one campaign (build plus commit) and one
//! refresh against it, for `--seconds` and at least three rounds.
//! Campaigns and refreshes interleave so that both sample the host over
//! the whole run rather than one stretch of it: on a shared host the
//! speed moves over about a minute, and a run much shorter than that
//! reads whichever speed it happened to meet.
//!
//! Detection quality is taken at one reference seed, whatever `--seed`
//! is: it is exact, so every run of the same code reads the same value,
//! and a change that trades quality for speed shows against a tight
//! bound. Over seeds it moves by several percent, which would force a
//! bound too wide to catch such a trade. The run's own seed's quality
//! is in the note.

use crate::ops;
use crate::report::Report;
use crate::stats;
use crate::Args;
use arest_experiments::Dataset;
use std::path::Path;
use std::time::{Duration, Instant};

pub fn run(args: &Args, work: &Path) -> Report {
    let config = args.workload.config(args.seed);
    let ledger = ops::fresh_ledger(work, "e2e");
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut campaign_s = Vec::new();
    let mut traces_per_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let mut rss_at_reset_mb = Vec::new();
    let mut refresh_s = Vec::new();

    let started = Instant::now();
    let mut reference: Option<u64> = None;
    let mut quality = None;
    while campaign_s.len() < 3 || started.elapsed() < budget {
        // Peak RSS of the campaign alone: what earlier rounds left is
        // returned to the kernel, and the mark reset, before it.
        let reset = ops::reset_peak_rss();
        let c = ops::campaign(config, &ledger);
        match reset {
            Some(rss) => {
                peak_rss_mb.push(ops::peak_rss_mb());
                rss_at_reset_mb.push(rss);
            }
            None => report.check(false, || "could not reset the peak RSS mark".to_string()),
        }
        let wall = c.wall.as_secs_f64();
        campaign_s.push(wall);
        traces_per_s.push(c.dataset.raw_trace_count as f64 / wall);
        setup_s.push(c.stats.timings.generate.as_secs_f64());
        let expected = *reference.get_or_insert(c.digest);
        report.op(c.digest == expected, || {
            format!("campaign digest {:016x} != first repeat {expected:016x}", c.digest)
        });
        quality.get_or_insert_with(|| ops::quality(&c.dataset));
        let (base, base_digest) = (c.serial, c.digest);
        drop(c);

        let r = ops::refresh(config, &ledger, base);
        refresh_s.push(r.wall.as_secs_f64());
        report.op(r.digest == base_digest && r.diff_empty && r.fresh > 0, || {
            format!(
                "refresh: digest {:016x} vs base {base_digest:016x}, diff empty {}, {} fresh",
                r.digest, r.diff_empty, r.fresh
            )
        });
    }

    let (own_precision, own_recall) = quality.unwrap_or_default();
    let (reference, _) = Dataset::build_with_stats(args.workload.config(ops::QUALITY_SEED));
    let (precision, recall) = ops::quality(&reference);
    drop(reference);
    let quality_note = |own: f64| {
        format!(
            "core::metrics::validate, all ASes, seed {}; seed {}: {own:.6}",
            ops::QUALITY_SEED,
            args.seed
        )
    };
    let at_reset = if rss_at_reset_mb.is_empty() {
        f64::NAN
    } else {
        stats::summarize(&rss_at_reset_mb).median
    };

    report.median("campaign_s", "s", &campaign_s, "build_with_stats + commit_dataset");
    report.median("traces_per_s", "1/s", &traces_per_s, "raw traces / campaign_s");
    report.median("setup_s", "s", &setup_s, "generate phase of each build");
    report.median(
        "peak_rss_mb",
        "MB",
        &peak_rss_mb,
        &format!("VmHWM over one campaign, reset before it at a median RSS of {at_reset:.1} MB"),
    );
    report.value("iface_precision", "ratio", precision, quality_note(own_precision));
    report.value("iface_recall", "ratio", recall, quality_note(own_recall));
    report.median("refresh_s", "s", &refresh_s, "aux load + seeded build + commit + diff");
    report
}
