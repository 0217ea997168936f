//! The run's result: the contract's last-line JSON object, plus a
//! detail line with every metric's quartiles and sample counts.

use crate::stats::{self, Summary};
use std::fmt::Write as _;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Quartiles over the repeats the value is the median of.
    pub spread: Option<Summary>,
    /// Free-form context (sample counts, percentile used, marks).
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Output checks that did not hold.
    pub mismatches: Vec<String>,
}

impl Report {
    /// Records an operation; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    /// Records an output check that is not an operation of its own;
    /// a failed check fails the run's last operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    pub fn value(&mut self, name: &str, unit: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            spread: None,
            note: note.into(),
        });
    }

    /// Reports the median of `samples`, with its quartiles; `what` says
    /// what one sample is.
    pub fn median(&mut self, name: &str, unit: &'static str, samples: &[f64], what: &str) {
        if samples.is_empty() {
            self.check(false, || format!("{name}: no samples"));
            return;
        }
        let s = stats::summarize(samples);
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: s.median,
            spread: Some(s),
            note: format!("median of {} repeats: {what}", s.n),
        });
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let spread = m.spread.map_or(String::new(), |s| {
                format!("  [q1 {} .. q3 {}]", fmt_num(s.q1), fmt_num(s.q3))
            });
            let _ = writeln!(
                out,
                "  {:<34} {:>14} {:<6}{spread}  {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.note
            );
        }
        for miss in &self.mismatches {
            let _ = writeln!(out, "  CHECK FAILED: {miss}");
        }
        out
    }

    /// `{"detail": {...}}`: quartiles, sample counts and notes.
    pub fn detail_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = format!(
            "{{\"detail\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"metrics\": {{",
            quote(workload),
            u8::from(trace)
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}, \"note\": {}",
                quote(&m.name),
                json_num(m.value),
                quote(m.unit),
                quote(&m.note)
            );
            if let Some(s) = m.spread {
                let _ = write!(
                    out,
                    ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}",
                    s.n,
                    json_num(s.q1),
                    json_num(s.median),
                    json_num(s.q3)
                );
            }
            out.push('}');
        }
        out.push_str("}, \"checks_failed\": [");
        for (i, miss) in self.mismatches.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote(miss));
        }
        out.push_str("]}}");
        out
    }

    /// The contract's result object.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.mismatches.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                json_num(m.value),
                quote(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

fn fmt_num(v: f64) -> String {
    if v.abs() >= 1000.0 || v == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with all its digits; non-finite values (a ratio over
/// an empty count) become a large sentinel.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e9".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
