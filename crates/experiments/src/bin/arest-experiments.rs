//! Experiment runner CLI.
//!
//! ```text
//! arest-experiments [options] <experiment ids… | all>
//! arest-experiments [options] serve
//! arest-experiments --ledger <dir> history
//! arest-experiments --ledger <dir> diff <a> <b>
//!
//! options:
//!   --quick          tiny Internet (unit-test scale)
//!   --scale <f64>    generator scale (default 0.05)
//!   --vps <n>        vantage points (default 50)
//!   --targets <n>    Anaximander target cap per AS (default 48)
//!   --seed <n>       generator seed (default 2025)
//!   --workers <n>    worker threads (default: AREST_WORKERS / cores)
//!   --catalog-scale <n>  replicate the 60-AS catalog n times
//!   --stream         print one progress row per finished AS, in
//!                    completion order, while the catalog builds
//!   --out <dir>      also write each report to <dir>/<id>.txt
//!   --obs            enable observability (same as AREST_OBS=1)
//!   --trace-out <dir> write span-trace artifacts into <dir>
//!                    (implies --obs)
//!   --listen <a:p>   serve bind address
//!                    (default 127.0.0.1:8080; port 0 = ephemeral)
//!   --ledger <dir>   commit every completed build to the run ledger
//!                    at <dir>; `serve` additionally watches it for
//!                    newly committed serials (zero-downtime refresh)
//!   --reprobe <spec> re-probe only a catalog slice: `all`, `N%`
//!                    (first N percent), `N` (first N ASes), or
//!                    `asN` (the one AS numbered N)
//!   --base <serial>  merge the sliced re-probe against this ledger
//!                    serial: unselected ASes carry forward, the
//!                    fingerprint cache rehydrates from the base's
//!                    sidecar, and the full merged snapshot commits
//!                    under the next serial (needs --ledger)
//! ```
//!
//! With `--ledger <dir>`, every mode that builds a dataset (`all`,
//! explicit ids, `serve`) commits the completed campaign under the
//! ledger's next serial. `history` lists the committed runs;
//! `diff <a> <b>` prints the announce/withdraw delta between two
//! serials and writes `RUN_REPORT_delta.txt`. A `serve --ledger`
//! daemon polls the directory every 250 ms and atomically swaps newly
//! committed runs into the serving store — no restart, no dropped
//! request (`DESIGN.md` §13).
//!
//! With `--reprobe <spec> --base <serial>`, any build mode runs an
//! **incremental campaign**: only the selected catalog slice is
//! probed, everything else carries forward from the base serial, and
//! the commit is a full merged snapshot whose sidecar records the
//! fresh/carried origin of every AS. The diff against the base lands
//! in `RUN_REPORT_delta.txt` automatically.
//!
//! Performance is measured by the `perfbench/` harness, not here.
//!
//! With observability on (`--obs` or `AREST_OBS=1`), every mode —
//! explicit ids, `all`, and `serve` — additionally writes the
//! final metrics snapshot as `RUN_REPORT.txt` / `RUN_REPORT.csv` into
//! `--out` (or the working directory). Metrics never alter experiment
//! output: reports are byte-identical with observability on or off.
//!
//! `serve` builds the dataset, flattens it into the read-only store
//! (`arest_experiments::serve_store`), and runs the `arest-serve`
//! HTTP daemon on `--listen` until SIGINT (ctrl-c), which triggers a
//! graceful shutdown: in-flight requests complete, then the process
//! exits 0. Observability is forced on so `GET /metrics` reports live
//! request counters. See `docs/API.md` for the endpoint reference.
//!
//! `--trace-out <dir>` (which turns observability on by itself)
//! additionally drains the span ring buffer at the end of the run and
//! writes three artifacts into `<dir>`: `trace.json` (Chrome
//! trace-event JSON — load in Perfetto or `chrome://tracing`),
//! `trace.folded` (collapsed flamegraph stacks for `flamegraph.pl` /
//! `inferno`), and `RUN_REPORT_provenance.txt` (one evidence-chain
//! line per AReST detection).

use arest_experiments::output::emit;
use arest_experiments::pipeline::{Dataset, PipelineConfig, SliceSpec};
use arest_experiments::{note, run_experiment, say, EXPERIMENTS};
use std::io::Write;
use std::net::Ipv4Addr;
use std::time::Instant;

/// The non-experiment words the command line accepts in place of ids.
const MODES: [&str; 4] = ["all", "serve", "history", "diff"];

/// How often a `serve --ledger` daemon polls the ledger directory for
/// newly committed serials.
const LEDGER_POLL: std::time::Duration = std::time::Duration::from_millis(250);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut config_options: Vec<(String, String)> = Vec::new();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut stream = false;
    let mut listen = String::from("127.0.0.1:8080");
    let mut ledger_dir: Option<String> = None;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--reprobe" => {
                let spec = iter
                    .next()
                    .unwrap_or_else(|| usage("--reprobe needs a slice spec (all, N%, N, or asN)"));
                config_options.push((arg, spec));
            }
            option if CONFIG_OPTIONS.contains(&option) => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage(&format!("{option} needs a numeric value")));
                config_options.push((arg, value));
            }
            "--stream" => stream = true,
            "--listen" => {
                listen = iter.next().unwrap_or_else(|| usage("--listen needs addr:port"));
            }
            "--ledger" => {
                ledger_dir = Some(iter.next().unwrap_or_else(|| usage("--ledger needs a dir")));
            }
            "--out" => out_dir = Some(iter.next().unwrap_or_else(|| usage("--out needs a dir"))),
            "--obs" => arest_obs::global().set_enabled(true),
            "--trace-out" => {
                trace_out = Some(iter.next().unwrap_or_else(|| usage("--trace-out needs a dir")));
                // Tracing rides the observability gate.
                arest_obs::global().set_enabled(true);
            }
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown option {other}")),
            id => ids.push(id.to_string()),
        }
    }
    let config = pipeline_config(quick, &config_options);
    if config.base_serial.is_some() && ledger_dir.is_none() {
        usage("--base needs --ledger <dir> to merge against");
    }
    if let SliceSpec::Asn(asn) = config.reprobe {
        // An unmatched ASN would silently carry everything forward;
        // that is always an operator typo, so refuse it up front.
        if config.slice_mask().is_some_and(|mask| !mask.contains(&true)) {
            fail(&format!("--reprobe as{asn}: ASN {asn} is not in this campaign's catalog"));
        }
    }
    // Refuse typos before anything expensive runs. `diff` takes the
    // two serials after it as arguments, not ids.
    let diff_args = ids.iter().position(|i| i == "diff").map_or(0..0, |pos| pos + 1..pos + 3);
    let unknown = ids.iter().enumerate().find(|&(pos, id)| {
        !diff_args.contains(&pos)
            && !MODES.contains(&id.as_str())
            && !EXPERIMENTS.iter().any(|(known, _)| known == id)
    });
    if let Some((_, id)) = unknown {
        fail(&format!("unknown experiment id: {id} (see --help)"));
    }
    if ids.iter().any(|i| i == "history") {
        let dir = ledger_dir.as_deref().unwrap_or_else(|| usage("history needs --ledger <dir>"));
        history(dir);
        return;
    }
    if let Some(pos) = ids.iter().position(|i| i == "diff") {
        let dir = ledger_dir.as_deref().unwrap_or_else(|| usage("diff needs --ledger <dir>"));
        let serial = |offset: usize| -> u64 {
            ids.get(pos + offset)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage("diff needs two run serials: diff <a> <b>"))
        };
        diff_runs(dir, serial(1), serial(2), out_dir.as_deref());
        return;
    }
    if ids.iter().any(|i| i == "serve") {
        serve(config, &listen, ledger_dir.as_deref());
        write_run_report(out_dir.as_deref());
        return;
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = EXPERIMENTS.iter().map(|(id, _)| (*id).to_string()).collect();
    }

    let seed_cache = load_seed_cache(config, ledger_dir.as_deref());
    note!(
        "building dataset (scale {}, {} VPs, {} targets/AS, seed {})…",
        config.gen.scale,
        config.gen.vp_count,
        config.targets_per_as,
        config.gen.seed
    );
    let started = Instant::now();
    // With --stream, one row per finished AS, in completion order,
    // while the rest of the catalog is still being measured.
    let mut done = 0usize;
    let (dataset, _) = Dataset::build_streaming_seeded(config, &seed_cache, |result| {
        if stream {
            done += 1;
            note!(
                "  [{done:>2}] AS#{:<2} asn{}: {} intra-AS traces, {} addresses",
                result.id,
                result.asn.0,
                result.restricted.len(),
                result.discovered.len(),
            );
        }
    });
    note!(
        "dataset ready in {:.1}s: {} raw traces, {} routers",
        started.elapsed().as_secs_f64(),
        dataset.raw_trace_count,
        dataset.internet.net.topo().router_count(),
    );

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output dir");
    }

    for id in &ids {
        let report = run_experiment(id, &dataset).expect("ids were checked before the build");
        let rendered = report.render();
        say!("{rendered}");
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{id}.txt");
            let mut file = std::fs::File::create(&path).expect("create report file");
            file.write_all(rendered.as_bytes()).expect("write report");
        }
    }
    if let Some(dir) = &ledger_dir {
        commit_to_ledger(dir, &dataset, &config, out_dir.as_deref());
    }
    write_run_report(out_dir.as_deref());
    if let Some(dir) = &trace_out {
        write_trace_artifacts(dir, &dataset);
    }
}

/// Prints one friendly line and exits nonzero — for operator-facing
/// conditions (an empty ledger, a missing serial) where the full
/// usage dump would bury the message.
fn fail(msg: &str) -> ! {
    note!("error: {msg}");
    std::process::exit(1);
}

/// Opens (creating if needed) the run ledger at `dir`, exiting with a
/// friendly error when the directory is unusable.
fn open_ledger(dir: &str) -> arest_ledger::Ledger {
    arest_ledger::Ledger::open(dir)
        .unwrap_or_else(|e| fail(&format!("cannot open ledger {dir}: {e}")))
}

/// The fingerprint cache entries to rehydrate from: the base serial's
/// sidecar for an incremental run (`--base`), empty otherwise.
fn load_seed_cache(
    config: PipelineConfig,
    ledger_dir: Option<&str>,
) -> Vec<(Ipv4Addr, Option<u8>)> {
    let (Some(dir), Some(base)) = (ledger_dir, config.base_serial) else {
        return Vec::new();
    };
    let ledger = open_ledger(dir);
    match ledger.load_aux(base) {
        Ok(Some(aux)) => {
            note!(
                "ledger: rehydrating fingerprint cache from run {base} ({} entries)",
                aux.cache.len()
            );
            aux.cache
        }
        // Tell a run that was never committed apart from one that
        // predates the sidecar format.
        Ok(None) => match ledger.meta(base) {
            Ok(_) => fail(&format!(
                "base run {base} in {dir} has no carry-forward sidecar \
                 (re-commit it with this build)"
            )),
            Err(_) => fail(&format!("cannot load base run {base} from {dir}: not committed")),
        },
        Err(e) => fail(&format!("cannot load base run {base} from {dir}: {e}")),
    }
}

/// Commits a completed campaign under the ledger's next serial and
/// reports the receipt. Used by every dataset-building mode when
/// `--ledger <dir>` is given. With `--base <serial>` the commit is an
/// incremental merge: fresh results for the re-probed slice, carried
/// records for the rest, and the diff against the base is written as
/// `RUN_REPORT_delta.txt`.
fn commit_to_ledger(dir: &str, dataset: &Dataset, config: &PipelineConfig, out_dir: Option<&str>) {
    let ledger = open_ledger(dir);
    if config.base_serial.is_some() {
        let merged =
            arest_experiments::ledger_io::commit_incremental(&ledger, dataset, config, now_unix())
                .unwrap_or_else(|e| fail(&format!("incremental commit to {dir} failed: {e}")));
        let receipt = &merged.receipt;
        note!(
            "ledger: committed run {} to {dir} ({} bytes, payload digest {:016x})",
            receipt.serial,
            receipt.bytes,
            receipt.payload_digest
        );
        note!(
            "ledger: incremental against run {}: {} fresh, {} carried AS(es)",
            merged.base_serial,
            merged.fresh.len(),
            merged.carried.len()
        );
        write_delta_report(&ledger, dir, merged.base_serial, receipt.serial, out_dir);
    } else {
        let receipt =
            arest_experiments::ledger_io::commit_dataset(&ledger, dataset, config, now_unix())
                .unwrap_or_else(|e| fail(&format!("ledger commit to {dir} failed: {e}")));
        note!(
            "ledger: committed run {} to {dir} ({} bytes, payload digest {:016x})",
            receipt.serial,
            receipt.bytes,
            receipt.payload_digest
        );
    }
}

/// Computes the delta from `a` to `b`, writes it as
/// `RUN_REPORT_delta.txt` into `out_dir` (or the working directory),
/// and returns its text.
fn write_delta_report(
    ledger: &arest_ledger::Ledger,
    dir: &str,
    a: u64,
    b: u64,
    out_dir: Option<&str>,
) -> String {
    let delta = ledger
        .diff(a, b)
        .unwrap_or_else(|e| fail(&format!("cannot diff runs {a} and {b} in {dir}: {e}")));
    let text = arest_experiments::delta_report::to_text(&delta);
    let dir_out = out_dir.unwrap_or(".");
    if let Some(out) = out_dir {
        std::fs::create_dir_all(out).expect("create output dir");
    }
    let path = format!("{dir_out}/RUN_REPORT_delta.txt");
    std::fs::write(&path, &text).expect("write RUN_REPORT_delta.txt");
    note!("wrote {path}");
    text
}

fn now_unix() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// `history` mode: one line per committed run, oldest first. Runs
/// whose headers fail verification are listed as unreadable rather
/// than aborting the listing — the operator needs to see them to fix
/// them. An empty or missing ledger is a friendly one-line error, not
/// a listing of nothing.
fn history(dir: &str) {
    let ledger = open_ledger(dir);
    let serials =
        ledger.serials().unwrap_or_else(|e| fail(&format!("cannot list ledger {dir}: {e}")));
    if serials.is_empty() {
        fail(&format!(
            "ledger {dir} has no committed runs yet — run a campaign with --ledger {dir} first"
        ));
    }
    say!("ledger {dir}: {} committed run(s)", serials.len());
    for serial in serials {
        match ledger.meta(serial) {
            Ok(meta) => say!(
                "  run {serial:>4}  committed_unix={}  config={:016x}  catalog={:016x}  \
                 payload={:016x} ({} bytes)",
                meta.committed_unix,
                meta.config_digest,
                meta.catalog_digest,
                meta.payload_digest,
                meta.payload_len
            ),
            Err(e) => say!("  run {serial:>4}  UNREADABLE: {e}"),
        }
    }
}

/// `diff <a> <b>` mode: prints the announce/withdraw feed between two
/// committed runs and writes it as `RUN_REPORT_delta.txt` into `--out`
/// (or the working directory).
fn diff_runs(dir: &str, a: u64, b: u64, out_dir: Option<&str>) {
    let text = write_delta_report(&open_ledger(dir), dir, a, b, out_dir);
    emit(std::io::stdout().lock(), format_args!("{text}"));
}

/// Builds the dataset, flattens it into the serving store, and runs
/// the `arest-serve` HTTP daemon on `listen` until SIGINT requests a
/// graceful shutdown (in-flight requests complete, then this
/// returns). With `--ledger <dir>`, the completed build is committed
/// to the ledger first, and a watcher thread polls the directory
/// every [`LEDGER_POLL`] for newer serials, atomically swapping each
/// into the serving store.
fn serve(config: PipelineConfig, listen: &str, ledger_dir: Option<&str>) {
    // Live request counters on /metrics, whatever AREST_OBS says.
    let registry = arest_obs::global();
    registry.set_enabled(true);

    note!(
        "building dataset (scale {}, {} VPs, {} targets/AS, seed {})…",
        config.gen.scale,
        config.gen.vp_count,
        config.targets_per_as,
        config.gen.seed
    );
    let started = Instant::now();
    let dataset = Dataset::build(config);
    let snapshot = arest_experiments::serve_store::snapshot(&dataset);
    let store = std::sync::Arc::new(arest_serve::Store::new(std::sync::Arc::new(snapshot)));
    note!(
        "dataset ready in {:.1}s: {} ASes, {} addresses, {} raw traces",
        started.elapsed().as_secs_f64(),
        store.ases().len(),
        store.summary().addresses,
        store.summary().raw_traces,
    );

    let ledger = ledger_dir.map(|dir| {
        commit_to_ledger(dir, &dataset, &config, None);
        std::sync::Arc::new(open_ledger(dir))
    });

    ctrlc::install();
    let mut server = arest_serve::Server::bind(listen, store, registry, config.workers)
        .unwrap_or_else(|e| usage(&format!("cannot bind {listen}: {e}")));
    if let Some(ledger) = &ledger {
        server.attach_ledger(std::sync::Arc::clone(ledger));
    }
    say!("arest-serve: listening on http://{}", server.local_addr());
    note!("arest-serve: {} pool workers; ctrl-c for graceful shutdown", server.workers());
    if let Some(ledger) = &ledger {
        // Stamp the serving store with the serial just committed, then
        // watch the directory: each newer serial is loaded off the
        // request path and atomically swapped in (DESIGN.md §13).
        let cell = server.store_cell();
        if let Ok(Some(serial)) = arest_serve::ledger_watch::refresh(&cell, ledger) {
            note!("arest-serve: serving ledger run {serial}");
        }
        arest_conc::thread::scope(|s| {
            let watcher = s.spawn(|| {
                arest_serve::ledger_watch::watch(&cell, ledger, LEDGER_POLL, &ctrlc::interrupted);
            });
            server.run_until(&ctrlc::interrupted);
            watcher.join().expect("ledger watcher thread");
        });
    } else {
        server.run_until(&ctrlc::interrupted);
    }
    let stats = server.stats();
    note!(
        "arest-serve: drained ({} connections accepted, {} completed)",
        stats.accepted,
        stats.completed
    );
}

/// Drains the span ring buffer and writes the `--trace-out` artifacts:
/// `trace.json` (Chrome trace events), `trace.folded` (collapsed
/// flamegraph stacks), and `RUN_REPORT_provenance.txt` (per-detection
/// evidence chains).
fn write_trace_artifacts(dir: &str, dataset: &Dataset) {
    std::fs::create_dir_all(dir).expect("create trace output dir");
    let tracer = arest_obs::global().tracer();
    let records = tracer.take_records();
    let dropped = tracer.dropped();
    if dropped > 0 {
        note!(
            "note: the span ring evicted {dropped} oldest span(s); the exported tree treats \
             spans with missing parents as roots"
        );
    }
    let json_path = format!("{dir}/trace.json");
    std::fs::write(&json_path, arest_obs::to_chrome_trace(&records)).expect("write trace.json");
    let folded_path = format!("{dir}/trace.folded");
    std::fs::write(&folded_path, arest_obs::to_flamegraph(&records)).expect("write trace.folded");
    let prov_path = format!("{dir}/RUN_REPORT_provenance.txt");
    std::fs::write(&prov_path, arest_experiments::provenance::to_text(dataset))
        .expect("write RUN_REPORT_provenance.txt");
    note!("wrote {json_path}, {folded_path}, and {prov_path} ({} spans)", records.len());
}

/// Writes the final `RUN_REPORT.txt` / `RUN_REPORT.csv` metrics
/// artifacts when observability is on (`--obs` / `AREST_OBS=1`);
/// otherwise a silent no-op, so default runs stay artifact-free.
fn write_run_report(out_dir: Option<&str>) {
    let registry = arest_obs::global();
    if !registry.is_enabled() {
        return;
    }
    let snapshot = registry.snapshot();
    let dir = out_dir.unwrap_or(".");
    let txt_path = format!("{dir}/RUN_REPORT.txt");
    let csv_path = format!("{dir}/RUN_REPORT.csv");
    std::fs::write(&txt_path, arest_experiments::run_report::to_text(&snapshot))
        .expect("write RUN_REPORT.txt");
    std::fs::write(&csv_path, arest_experiments::run_report::to_csv(&snapshot))
        .expect("write RUN_REPORT.csv");
    note!("wrote {txt_path} and {csv_path}");
}

/// The options that edit the pipeline configuration. They are applied
/// once the whole command line is read, on top of the base `--quick`
/// selects, so their position relative to `--quick` does not matter.
const CONFIG_OPTIONS: [&str; 8] = [
    "--scale",
    "--vps",
    "--targets",
    "--seed",
    "--workers",
    "--catalog-scale",
    "--reprobe",
    "--base",
];

/// The pipeline configuration a command line asks for: the `--quick`
/// base (or the default) with each `(option, value)` of
/// [`CONFIG_OPTIONS`] applied in command-line order.
fn pipeline_config(quick: bool, options: &[(String, String)]) -> PipelineConfig {
    fn numeric<T: std::str::FromStr>(option: &str, value: &str) -> T {
        value.parse().unwrap_or_else(|_| usage(&format!("{option} needs a numeric value")))
    }
    let mut config = if quick { PipelineConfig::quick() } else { PipelineConfig::default() };
    for (option, value) in options {
        match option.as_str() {
            "--scale" => config.gen.scale = numeric(option, value),
            "--vps" => config.gen.vp_count = numeric(option, value),
            "--targets" => config.targets_per_as = numeric(option, value),
            "--seed" => config.gen.seed = numeric(option, value),
            "--workers" => config.workers = Some(numeric(option, value)),
            "--catalog-scale" => config.gen.catalog_scale = numeric(option, value),
            "--reprobe" => config.reprobe = SliceSpec::parse(value).unwrap_or_else(|e| usage(&e)),
            "--base" => config.base_serial = Some(numeric(option, value)),
            other => unreachable!("{other} is not in CONFIG_OPTIONS"),
        }
    }
    config
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        note!("error: {err}\n");
    }
    note!(
        "usage: arest-experiments [--quick] [--scale F] [--vps N] [--targets N] [--seed N] \
         [--workers N] [--catalog-scale N] [--stream] [--out DIR] [--obs] \
         [--trace-out DIR] [--listen A:P] [--ledger DIR] [--reprobe SLICE] \
         [--base SERIAL] <ids…|all|serve|history|diff A B>\n\
         slice specs: all, N% (first N percent of the catalog), N (first N ASes), asN\n\
         experiments: {}",
        EXPERIMENTS.map(|(id, _)| id).join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|&(o, v)| (o.to_string(), v.to_string())).collect()
    }

    /// `--quick` picks the base wherever it appears on the command
    /// line; every configuration option applies on top of it.
    #[test]
    fn quick_keeps_the_options_around_it() {
        let edits = options(&[
            ("--workers", "1"),
            ("--seed", "77"),
            ("--vps", "3"),
            ("--targets", "5"),
            ("--catalog-scale", "2"),
            ("--reprobe", "as15169"),
            ("--base", "4"),
        ]);
        let config = pipeline_config(true, &edits);
        assert_eq!(config.workers, Some(1));
        assert_eq!(config.gen.seed, 77);
        assert_eq!(config.gen.vp_count, 3);
        assert_eq!(config.targets_per_as, 5);
        assert_eq!(config.gen.catalog_scale, 2);
        assert_eq!(config.reprobe, SliceSpec::Asn(15_169));
        assert_eq!(config.base_serial, Some(4));
        // Everything not named keeps the quick base.
        let quick = PipelineConfig::quick();
        assert_eq!(config.gen.scale, quick.gen.scale);
        assert_eq!(config.alias_paths_per_as, quick.alias_paths_per_as);
        assert_eq!(pipeline_config(false, &edits).gen.scale, PipelineConfig::default().gen.scale);
    }

    #[test]
    fn later_options_win() {
        let config = pipeline_config(false, &options(&[("--scale", "0.1"), ("--scale", "0.2")]));
        assert_eq!(config.gen.scale, 0.2);
    }
}
