//! The AReST benchmark harness.
//!
//! ```text
//! arest-perfbench --workload <campaign|catalog-x10>
//!                 --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! `--trace 0` runs the end-to-end operations through the program's
//! public entry points and reports the end-to-end metrics; `--trace 1`
//! composes the same work from each layer's public functions, times
//! every call, and reports the per-layer metrics. Either way the last
//! stdout line is the result object; the line before it carries every
//! metric's quartiles and sample counts. Scratch ledgers live under
//! `--work-dir` and are removed on exit.

mod e2e;
mod http;
mod ops;
mod report;
mod stats;
mod traced;

use std::path::PathBuf;

/// Worker threads of every build and of the traced run's pool.
pub const WORKERS: usize = 2;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    CatalogX10,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "campaign" => Workload::Campaign,
            "catalog-x10" => Workload::CatalogX10,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::CatalogX10 => "catalog-x10",
        }
    }

    /// `--catalog-scale 10 --vps 5` for `catalog-x10`; the default
    /// `PipelineConfig` otherwise.
    pub fn config(self, seed: u64) -> arest_experiments::PipelineConfig {
        match self {
            Workload::CatalogX10 => ops::config(seed, 10, 5),
            Workload::Campaign => ops::config(seed, 1, 50),
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("arest-perfbench: {msg}");
    eprintln!(
        "usage: arest-perfbench --workload <campaign|catalog-x10> --seed <n> \
         --seconds <s> --trace <0|1> --work-dir <dir>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 2025u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => trace = value() == "1",
            "--work-dir" => work_dir = Some(PathBuf::from(value())),
            other => usage(&format!("unknown option {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        work_dir: work_dir.unwrap_or_else(|| usage("--work-dir is required")),
    }
}

fn main() {
    let args = parse_args();
    let work = args.work_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create work dir");
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} workers {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        WORKERS,
        available
    );
    let report = if args.trace { traced::run(&args, &work) } else { e2e::run(&args, &work) };
    let _ = std::fs::remove_dir_all(&work);
    eprint!("{}", report.table());
    println!("{}", report.detail_json(args.workload.name(), args.seed, args.trace));
    println!("{}", report.result_json());
}
