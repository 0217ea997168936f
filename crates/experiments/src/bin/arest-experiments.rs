//! Experiment runner CLI.
//!
//! ```text
//! arest-experiments [options] <experiment ids… | all>
//! arest-experiments [options] bench-pipeline
//! arest-experiments [options] serve
//! arest-experiments [options] bench-serve
//! arest-experiments [options] bench-ledger
//! arest-experiments [options] bench-incremental
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
//!   --out <dir>      also write each report to <dir>/<id>.txt; the
//!                    bench modes write their BENCH_*.json there
//!                    (default: the working directory)
//!   --obs            enable observability (same as AREST_OBS=1)
//!   --trace-out <dir> write span-trace artifacts into <dir>
//!                    (implies --obs)
//!   --listen <a:p>   serve / bench-serve bind address
//!                    (default 127.0.0.1:8080; port 0 = ephemeral)
//!   --clients <n>    bench-serve concurrent clients (default 4)
//!   --requests <n>   bench-serve requests per client (default 200)
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
//!   --ledger-poll-ms <ms>  serve: ledger directory poll interval
//!                    in milliseconds (default 250)
//! ```
//!
//! With `--ledger <dir>`, every mode that builds a dataset (`all`,
//! explicit ids, `serve`, `bench-pipeline`, `bench-serve`) commits the
//! completed campaign under the ledger's next serial. `history` lists
//! the committed runs; `diff <a> <b>` prints the announce/withdraw
//! delta between two serials and writes `RUN_REPORT_delta.txt`;
//! `bench-ledger` measures commit/load/diff latency and writes
//! `BENCH_ledger.json`. A `serve --ledger` daemon polls the directory
//! (every `--ledger-poll-ms` milliseconds) and atomically swaps newly
//! committed runs into the serving store — no restart, no dropped
//! request (`DESIGN.md` §13).
//!
//! With `--reprobe <spec> --base <serial>`, any build mode runs an
//! **incremental campaign**: only the selected catalog slice is
//! probed, everything else carries forward from the base serial, and
//! the commit is a full merged snapshot whose sidecar records the
//! fresh/carried origin of every AS. The diff against the base lands
//! in `RUN_REPORT_delta.txt` automatically. `bench-incremental`
//! measures the cost-vs-slice-fraction curve (5/25/50/100% against a
//! full rebuild) and writes `BENCH_incremental.json`, asserting that
//! the 100% slice reproduces the full rebuild's payload digest.
//!
//! `bench-pipeline` builds the dataset at one worker and at
//! `--workers` (or the machine's parallelism), then writes
//! `BENCH_pipeline.json` with per-phase seconds, each run's
//! fingerprint/detect work figures and peak resident raw-trace count,
//! the parallel speedup, and the host core count (a single-core host
//! gets an explicit caveat). `--catalog-scale` is the throughput
//! axis: 10 replicas ≈ the paper's catalog at 10× scale.
//!
//! With observability on (`--obs` or `AREST_OBS=1`), every mode —
//! explicit ids, `all`, and `bench-pipeline` — additionally writes the
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
//! `bench-serve` starts the same daemon on an ephemeral loopback port,
//! drives it with `--clients` keep-alive connections issuing
//! `--requests` requests each over a mixed endpoint schedule, and
//! writes `BENCH_serve.json` with requests/sec and p50/p95/p99
//! latency percentiles taken from the `arest-obs` histograms.
//!
//! `--trace-out <dir>` (which turns observability on by itself)
//! additionally drains the span ring buffer at the end of the run and
//! writes three artifacts into `<dir>`: `trace.json` (Chrome
//! trace-event JSON — load in Perfetto or `chrome://tracing`),
//! `trace.folded` (collapsed flamegraph stacks for `flamegraph.pl` /
//! `inferno`), and `RUN_REPORT_provenance.txt` (one evidence-chain
//! line per AReST detection).

use arest_experiments::pipeline::{BuildStats, Dataset, PipelineConfig, SliceSpec};
use arest_experiments::{run_experiment, ALL_EXPERIMENTS};
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::time::Instant;

/// The non-experiment words the command line accepts in place of ids.
const MODES: [&str; 8] = [
    "all",
    "bench-pipeline",
    "serve",
    "bench-serve",
    "bench-ledger",
    "bench-incremental",
    "history",
    "diff",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = PipelineConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut out_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut stream = false;
    let mut listen = String::from("127.0.0.1:8080");
    let mut clients = 4usize;
    let mut requests = 200usize;
    let mut ledger_dir: Option<String> = None;
    let mut ledger_poll_ms = 250u64;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => config = PipelineConfig::quick(),
            "--scale" => config.gen.scale = expect_value(&mut iter, "--scale"),
            "--vps" => config.gen.vp_count = expect_value(&mut iter, "--vps"),
            "--targets" => config.targets_per_as = expect_value(&mut iter, "--targets"),
            "--seed" => config.gen.seed = expect_value(&mut iter, "--seed"),
            "--workers" => config.workers = Some(expect_value(&mut iter, "--workers")),
            "--catalog-scale" => {
                config.gen.catalog_scale = expect_value(&mut iter, "--catalog-scale");
            }
            "--stream" => stream = true,
            "--listen" => {
                listen = iter.next().unwrap_or_else(|| usage("--listen needs addr:port"));
            }
            "--clients" => clients = expect_value(&mut iter, "--clients"),
            "--requests" => requests = expect_value(&mut iter, "--requests"),
            "--ledger" => {
                ledger_dir = Some(iter.next().unwrap_or_else(|| usage("--ledger needs a dir")));
            }
            "--reprobe" => {
                let spec = iter
                    .next()
                    .unwrap_or_else(|| usage("--reprobe needs a slice spec (all, N%, N, or asN)"));
                config.reprobe = SliceSpec::parse(&spec).unwrap_or_else(|e| usage(&e));
            }
            "--base" => config.base_serial = Some(expect_value(&mut iter, "--base")),
            "--ledger-poll-ms" => ledger_poll_ms = expect_value(&mut iter, "--ledger-poll-ms"),
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
            && !ALL_EXPERIMENTS.contains(&id.as_str())
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
    if ids.iter().any(|i| i == "bench-ledger") {
        bench_ledger(config, ledger_dir.as_deref(), out_dir.as_deref());
        return;
    }
    if ids.iter().any(|i| i == "bench-incremental") {
        bench_incremental(config, out_dir.as_deref());
        return;
    }
    if ids.iter().any(|i| i == "serve") {
        serve(config, &listen, ledger_dir.as_deref(), ledger_poll_ms);
        write_run_report(out_dir.as_deref());
        return;
    }
    if ids.iter().any(|i| i == "bench-serve") {
        bench_serve(config, &listen, clients, requests, ledger_dir.as_deref(), out_dir.as_deref());
        return;
    }
    if ids.iter().any(|i| i == "bench-pipeline") {
        let dataset = bench_pipeline(config, out_dir.as_deref());
        if let Some(dir) = &ledger_dir {
            commit_to_ledger(dir, &dataset, &config, out_dir.as_deref());
        }
        write_run_report(out_dir.as_deref());
        if let Some(dir) = &trace_out {
            write_trace_artifacts(dir, &dataset);
        }
        return;
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(std::string::ToString::to_string).collect();
    }

    let seed_cache = load_seed_cache(config, ledger_dir.as_deref());
    eprintln!(
        "building dataset (scale {}, {} VPs, {} targets/AS, seed {})…",
        config.gen.scale, config.gen.vp_count, config.targets_per_as, config.gen.seed
    );
    let started = Instant::now();
    // With --stream, one row per finished AS, in completion order,
    // while the rest of the catalog is still being measured.
    let mut done = 0usize;
    let (dataset, _) = Dataset::build_streaming_seeded(config, &seed_cache, |result| {
        if stream {
            done += 1;
            eprintln!(
                "  [{done:>2}] AS#{:<2} asn{}: {} intra-AS traces, {} addresses",
                result.id,
                result.asn.0,
                result.restricted.len(),
                result.discovered.len(),
            );
        }
    });
    eprintln!(
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
        println!("{rendered}");
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
    eprintln!("error: {msg}");
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
            eprintln!(
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
        eprintln!(
            "ledger: committed run {} to {dir} ({} bytes, payload digest {:016x})",
            receipt.serial, receipt.bytes, receipt.payload_digest
        );
        eprintln!(
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
        eprintln!(
            "ledger: committed run {} to {dir} ({} bytes, payload digest {:016x})",
            receipt.serial, receipt.bytes, receipt.payload_digest
        );
    }
}

/// Computes the delta from `a` to `b` and writes it as
/// `RUN_REPORT_delta.txt` into `out_dir` (or the working directory).
fn write_delta_report(
    ledger: &arest_ledger::Ledger,
    dir: &str,
    a: u64,
    b: u64,
    out_dir: Option<&str>,
) {
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
    eprintln!("wrote {path}");
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
    println!("ledger {dir}: {} committed run(s)", serials.len());
    for serial in serials {
        match ledger.meta(serial) {
            Ok(meta) => println!(
                "  run {serial:>4}  committed_unix={}  config={:016x}  catalog={:016x}  \
                 payload={:016x} ({} bytes)",
                meta.committed_unix,
                meta.config_digest,
                meta.catalog_digest,
                meta.payload_digest,
                meta.payload_len
            ),
            Err(e) => println!("  run {serial:>4}  UNREADABLE: {e}"),
        }
    }
}

/// `diff <a> <b>` mode: prints the announce/withdraw feed between two
/// committed runs and writes it as `RUN_REPORT_delta.txt` into `--out`
/// (or the working directory).
fn diff_runs(dir: &str, a: u64, b: u64, out_dir: Option<&str>) {
    let ledger = open_ledger(dir);
    let delta = ledger
        .diff(a, b)
        .unwrap_or_else(|e| fail(&format!("cannot diff runs {a} and {b} in {dir}: {e}")));
    let text = arest_experiments::delta_report::to_text(&delta);
    print!("{text}");
    let dir_out = out_dir.unwrap_or(".");
    if let Some(out) = out_dir {
        std::fs::create_dir_all(out).expect("create output dir");
    }
    let path = format!("{dir_out}/RUN_REPORT_delta.txt");
    std::fs::write(&path, &text).expect("write RUN_REPORT_delta.txt");
    eprintln!("wrote {path}");
}

/// `bench-ledger` mode: builds one dataset, then times commit, load,
/// and diff against a ledger directory (`--ledger`, or a throwaway
/// under the system temp dir) and writes `BENCH_ledger.json`.
fn bench_ledger(config: PipelineConfig, ledger_dir: Option<&str>, out_dir: Option<&str>) {
    eprintln!(
        "building dataset (scale {}, {} VPs, {} targets/AS, seed {})…",
        config.gen.scale, config.gen.vp_count, config.targets_per_as, config.gen.seed
    );
    let dataset = Dataset::build(config);

    let scratch = ledger_dir.map_or_else(
        || {
            let dir =
                std::env::temp_dir().join(format!("arest-bench-ledger-{}", std::process::id()));
            dir.to_string_lossy().into_owned()
        },
        String::from,
    );
    let cleanup = ledger_dir.is_none();
    let ledger = open_ledger(&scratch);

    const ITERATIONS: u64 = 8;
    let mut commit_us: Vec<u64> = Vec::new();
    let mut load_us: Vec<u64> = Vec::new();
    let mut diff_us: Vec<u64> = Vec::new();
    let mut snapshot_bytes = 0u64;
    let mut serials: Vec<u64> = Vec::new();
    let base_unix = now_unix();
    for i in 0..ITERATIONS {
        let started = Instant::now();
        let receipt =
            arest_experiments::ledger_io::commit_dataset(&ledger, &dataset, &config, base_unix + i)
                .unwrap_or_else(|e| usage(&format!("ledger commit to {scratch} failed: {e}")));
        commit_us.push(micros(started));
        snapshot_bytes = receipt.bytes;
        serials.push(receipt.serial);

        let started = Instant::now();
        ledger.load(receipt.serial).expect("load committed run");
        load_us.push(micros(started));
    }
    for pair in serials.windows(2) {
        let started = Instant::now();
        ledger.diff(pair[0], pair[1]).expect("diff committed runs");
        diff_us.push(micros(started));
    }
    eprintln!(
        "bench-ledger: {ITERATIONS} commits of {snapshot_bytes} bytes — commit p50 {}µs, \
         load p50 {}µs, diff p50 {}µs",
        percentile(&mut commit_us, 50),
        percentile(&mut load_us, 50),
        percentile(&mut diff_us, 50),
    );

    // Hand-rolled JSON, like the rest of the suite (no serde).
    let stanza = |values: &mut Vec<u64>| {
        format!(
            "{{\"p50\": {}, \"p95\": {}, \"max\": {}}}",
            percentile(values, 50),
            percentile(values, 95),
            values.last().copied().unwrap_or(0)
        )
    };
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"iterations\": {ITERATIONS},\n"));
    json.push_str(&format!("  \"snapshot_bytes\": {snapshot_bytes},\n"));
    json.push_str(&format!("  \"commit_us\": {},\n", stanza(&mut commit_us)));
    json.push_str(&format!("  \"load_us\": {},\n", stanza(&mut load_us)));
    json.push_str(&format!("  \"diff_us\": {}\n", stanza(&mut diff_us)));
    json.push_str("}\n");
    write_bench(out_dir, "BENCH_ledger.json", &json);

    if cleanup {
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// `bench-incremental` mode: times one full campaign, commits it to a
/// throwaway ledger, then re-probes 5/25/50/100% slices against that
/// base and writes the cost-vs-slice-fraction curve as
/// `BENCH_incremental.json`. The 100% slice doubles as an identity
/// check: its merged payload digest must equal the full rebuild's.
fn bench_incremental(mut config: PipelineConfig, out_dir: Option<&str>) {
    config.reprobe = SliceSpec::Full;
    config.base_serial = None;
    // The curve measures the *marginal* cost of re-probing a slice, so
    // per-AS probing must dominate the fixed Phase-1 topology cost.
    // Floor the probing knobs; explicit --vps/--targets above the
    // floor still win.
    config.gen.vp_count = config.gen.vp_count.max(24);
    config.targets_per_as = config.targets_per_as.max(96);
    eprintln!(
        "building full dataset (scale {}, {} VPs, {} targets/AS, seed {})…",
        config.gen.scale, config.gen.vp_count, config.targets_per_as, config.gen.seed
    );
    let started = Instant::now();
    let (full, _) = Dataset::build_streaming_seeded(config, &[], |_| {});
    let full_seconds = started.elapsed().as_secs_f64();

    let scratch = std::env::temp_dir().join(format!("arest-bench-incr-{}", std::process::id()));
    let scratch = scratch.to_string_lossy().into_owned();
    let ledger = open_ledger(&scratch);
    let base = arest_experiments::ledger_io::commit_dataset(&ledger, &full, &config, now_unix())
        .unwrap_or_else(|e| fail(&format!("ledger commit to {scratch} failed: {e}")));
    eprintln!(
        "bench-incremental: full build {full_seconds:.2}s, base run {} (payload {:016x})",
        base.serial, base.payload_digest
    );

    let mut rows: Vec<String> = Vec::new();
    for pct in [5u8, 25, 50, 100] {
        let mut sliced = config;
        sliced.reprobe = SliceSpec::Percent(pct);
        sliced.base_serial = Some(base.serial);
        let seed_cache =
            ledger.load_aux(base.serial).ok().flatten().map_or_else(Vec::new, |aux| aux.cache);
        let started = Instant::now();
        let (dataset, _) = Dataset::build_streaming_seeded(sliced, &seed_cache, |_| {});
        let seconds = started.elapsed().as_secs_f64();
        let merged = arest_experiments::ledger_io::commit_incremental(
            &ledger,
            &dataset,
            &sliced,
            now_unix(),
        )
        .unwrap_or_else(|e| fail(&format!("incremental commit ({pct}%) failed: {e}")));
        let ratio = seconds / full_seconds.max(f64::EPSILON);
        let matches_full = merged.receipt.payload_digest == base.payload_digest;
        eprintln!(
            "bench-incremental: {pct:>3}% slice — {} fresh, {} carried, {seconds:.2}s \
             ({:.1}% of full), payload {:016x}",
            merged.fresh.len(),
            merged.carried.len(),
            ratio * 100.0,
            merged.receipt.payload_digest,
        );
        assert!(
            pct != 100 || matches_full,
            "100% slice must reproduce the full rebuild's payload digest \
             ({:016x} != {:016x})",
            merged.receipt.payload_digest,
            base.payload_digest,
        );
        rows.push(format!(
            "    {{\"percent\": {pct}, \"fresh\": {}, \"carried\": {}, \
             \"seconds\": {seconds:.4}, \"ratio\": {ratio:.4}, \
             \"payload_digest\": \"{:016x}\", \"digest_matches_full\": {matches_full}}}",
            merged.fresh.len(),
            merged.carried.len(),
            merged.receipt.payload_digest,
        ));
    }

    // Hand-rolled JSON, like the rest of the suite (no serde).
    let mut json = String::from("{\n");
    let workers = config.workers.unwrap_or_else(arest_tnt::pool::worker_count);
    json.push_str(&format!("  \"workers\": {workers},\n"));
    json.push_str(&format!("  \"full_seconds\": {full_seconds:.4},\n"));
    json.push_str(&format!("  \"full_payload_digest\": \"{:016x}\",\n", base.payload_digest));
    json.push_str("  \"slices\": [\n");
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    write_bench(out_dir, "BENCH_incremental.json", &json);
    let _ = std::fs::remove_dir_all(&scratch);
}

fn micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile; sorts in place.
fn percentile(values: &mut [u64], pct: usize) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (values.len() * pct).div_ceil(100).max(1);
    values[rank - 1]
}

/// The daemon's store over the flattened `dataset`.
fn serving_store(dataset: &Dataset) -> std::sync::Arc<arest_serve::Store> {
    let snapshot = arest_experiments::serve_store::snapshot(dataset);
    std::sync::Arc::new(arest_serve::Store::new(std::sync::Arc::new(snapshot)))
}

/// Builds the dataset, flattens it into the serving store, and runs
/// the `arest-serve` HTTP daemon on `listen` until SIGINT requests a
/// graceful shutdown (in-flight requests complete, then this
/// returns). With `--ledger <dir>`, the completed build is committed
/// to the ledger first, and a watcher thread polls the directory
/// every `poll_ms` milliseconds (`--ledger-poll-ms`) for newer
/// serials, atomically swapping each into the serving store.
fn serve(config: PipelineConfig, listen: &str, ledger_dir: Option<&str>, poll_ms: u64) {
    // Live request counters on /metrics, whatever AREST_OBS says.
    let registry = arest_obs::global();
    registry.set_enabled(true);

    eprintln!(
        "building dataset (scale {}, {} VPs, {} targets/AS, seed {})…",
        config.gen.scale, config.gen.vp_count, config.targets_per_as, config.gen.seed
    );
    let started = Instant::now();
    let dataset = Dataset::build(config);
    let store = serving_store(&dataset);
    eprintln!(
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
    println!("arest-serve: listening on http://{}", server.local_addr());
    eprintln!("arest-serve: {} pool workers; ctrl-c for graceful shutdown", server.workers());
    if let Some(ledger) = &ledger {
        // Stamp the serving store with the serial just committed, then
        // watch the directory: each newer serial is loaded off the
        // request path and atomically swapped in (DESIGN.md §13).
        let cell = server.store_cell();
        if let Ok(Some(serial)) = arest_serve::ledger_watch::refresh(&cell, ledger) {
            eprintln!("arest-serve: serving ledger run {serial}");
        }
        arest_conc::thread::scope(|s| {
            let watcher = s.spawn(|| {
                arest_serve::ledger_watch::watch(
                    &cell,
                    ledger,
                    std::time::Duration::from_millis(poll_ms),
                    &ctrlc::interrupted,
                );
            });
            server.run_until(&ctrlc::interrupted);
            watcher.join().expect("ledger watcher thread");
        });
    } else {
        server.run_until(&ctrlc::interrupted);
    }
    let stats = server.stats();
    eprintln!(
        "arest-serve: drained ({} connections accepted, {} completed)",
        stats.accepted, stats.completed
    );
}

/// Starts the daemon on an ephemeral loopback port, drives it with
/// `clients` keep-alive connections issuing `requests` requests each
/// over a mixed endpoint schedule, and writes `BENCH_serve.json`.
fn bench_serve(
    config: PipelineConfig,
    listen: &str,
    clients: usize,
    requests: usize,
    ledger_dir: Option<&str>,
    out_dir: Option<&str>,
) {
    eprintln!(
        "building dataset (scale {}, {} VPs, {} targets/AS, seed {})…",
        config.gen.scale, config.gen.vp_count, config.targets_per_as, config.gen.seed
    );
    let dataset = Dataset::build(config);
    let store = serving_store(&dataset);
    if let Some(dir) = ledger_dir {
        commit_to_ledger(dir, &dataset, &config, None);
    }

    // A private, always-enabled registry: the bench must measure even
    // when AREST_OBS is off, without polluting the global snapshot.
    let registry = arest_obs::Registry::new();

    // Mixed schedule over real dataset keys: every endpoint class,
    // weighted toward the API routes.
    let asn = store.ases().first().map_or(0, |s| s.asn);
    let detected_asn = store.ases().iter().find(|s| s.flags.total() > 0).map_or(asn, |s| s.asn);
    let addr = store.addrs().next().map(|r| r.addr.to_string());
    let mut targets = vec![
        "/api/summary".to_string(),
        format!("/api/as/{asn}"),
        format!("/api/as/{detected_asn}"),
        "/status".to_string(),
        "/metrics".to_string(),
    ];
    if let Some(addr) = &addr {
        targets.push(format!("/api/addr/{addr}"));
    }

    // The pool serves connections with `workers - 1` threads (one
    // camps on the listener); size it so every client can be in
    // flight at once.
    let workers = (clients + 1).max(2);
    let bind = if listen == "127.0.0.1:8080" { "127.0.0.1:0" } else { listen };
    let server = arest_serve::Server::bind(bind, store, &registry, Some(workers))
        .unwrap_or_else(|e| usage(&format!("cannot bind {bind}: {e}")));
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    eprintln!(
        "bench-serve: {clients} client(s) × {requests} request(s) against http://{addr} \
         ({workers} server workers, {} endpoints)…",
        targets.len()
    );

    let load_config = arest_serve::LoadConfig { clients, requests_per_client: requests };
    let mut report = None;
    arest_conc::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        report = Some(arest_serve::load::run(addr, &targets, &load_config, &registry));
        handle.shutdown();
        runner.join().expect("server thread");
    });
    let report = report.expect("load run completed");

    let snapshot = registry.snapshot();
    let latency = snapshot.histograms.get("serve.bench.latency.us");
    let (p50, p95, p99) = latency.map_or((0, 0, 0), arest_obs::HistogramSnapshot::percentiles);
    let mean = latency.map_or(0, |h| h.sum.checked_div(h.count).unwrap_or(0));
    eprintln!(
        "bench-serve: {} requests ({} failed) in {:.2}s — {:.0} req/s, \
         latency p50 {p50}µs p95 {p95}µs p99 {p99}µs",
        report.requests(),
        report.failed,
        report.elapsed.as_secs_f64(),
        report.requests_per_second(),
    );

    // Hand-rolled JSON, like the rest of the suite (no serde).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"requests_per_client\": {requests},\n"));
    json.push_str(&format!("  \"server_workers\": {workers},\n"));
    json.push_str(&format!("  \"requests\": {},\n", report.requests()));
    json.push_str(&format!("  \"failures\": {},\n", report.failed));
    json.push_str(&format!("  \"elapsed_seconds\": {:.6},\n", report.elapsed.as_secs_f64()));
    json.push_str(&format!("  \"requests_per_second\": {:.2},\n", report.requests_per_second()));
    json.push_str(&format!(
        "  \"latency_us\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \
         \"mean\": {mean}}},\n"
    ));
    json.push_str("  \"per_endpoint\": {\n");
    let labels: Vec<&str> = {
        let mut seen = Vec::new();
        for target in &targets {
            let label = arest_serve::load::target_label(target);
            if !seen.contains(&label) {
                seen.push(label);
            }
        }
        seen
    };
    for (i, label) in labels.iter().enumerate() {
        let name = format!("serve.bench.latency.us.{label}");
        let hist = snapshot.histograms.get(&name);
        let (p50, p95, p99) = hist.map_or((0, 0, 0), arest_obs::HistogramSnapshot::percentiles);
        json.push_str(&format!(
            "    \"{label}\": {{\"requests\": {}, \"p50\": {p50}, \"p95\": {p95}, \
             \"p99\": {p99}}}{}\n",
            hist.map_or(0, |h| h.count),
            if i + 1 < labels.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    write_bench(out_dir, "BENCH_serve.json", &json);
}

/// Writes one bench report into `out_dir` (or the working directory),
/// so a smoke run pointed at a scratch `--out` never overwrites the
/// committed numbers.
fn write_bench(out_dir: Option<&str>, name: &str, json: &str) {
    let dir = out_dir.unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = format!("{dir}/{name}");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
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
        eprintln!(
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
    eprintln!("wrote {json_path}, {folded_path}, and {prov_path} ({} spans)", records.len());
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
    eprintln!("wrote {txt_path} and {csv_path}");
}

/// Builds the same dataset at one worker and at the requested worker
/// count, printing per-phase timings and writing `BENCH_pipeline.json`.
/// Returns the last dataset built, so `--trace-out` can render its
/// detection provenance.
fn bench_pipeline(config: PipelineConfig, out_dir: Option<&str>) -> Dataset {
    let parallel_workers = config.workers.unwrap_or_else(arest_tnt::pool::worker_count).max(1);
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut worker_counts = vec![1];
    if parallel_workers > 1 {
        worker_counts.push(parallel_workers);
    }

    let mut runs: Vec<BuildStats> = Vec::new();
    let mut last_dataset: Option<Dataset> = None;
    for &workers in &worker_counts {
        let run_config = PipelineConfig { workers: Some(workers), ..config };
        eprintln!(
            "bench-pipeline: build (scale {}, catalog ×{}, {} VPs, seed {}) with {workers} \
             worker(s)…",
            run_config.gen.scale,
            run_config.gen.catalog_scale,
            run_config.gen.vp_count,
            run_config.gen.seed
        );
        let (dataset, stats) = Dataset::build_with_stats(run_config);
        eprintln!(
            "  total {:.2}s ({} raw traces, peak resident {}, fingerprint work {:.3}s, \
             detect work {:.3}s)",
            stats.total.as_secs_f64(),
            dataset.raw_trace_count,
            stats.peak_resident_traces,
            stats.fingerprint_work.as_secs_f64(),
            stats.detect_work.as_secs_f64(),
        );
        for (name, duration) in stats.stages() {
            eprintln!("    {name:<12}{:.3}s", duration.as_secs_f64());
        }
        runs.push(stats);
        last_dataset = Some(dataset);
    }

    // Parallel scaling: the one-worker total over the last run's.
    let speedup = match (runs.first(), runs.last()) {
        (Some(serial), Some(parallel)) => {
            serial.total.as_secs_f64() / parallel.total.as_secs_f64().max(f64::EPSILON)
        }
        _ => 1.0,
    };
    eprintln!(
        "speedup at {parallel_workers} worker(s): {speedup:.2}x (host has {available} core(s))"
    );

    // Hand-rolled JSON, like the rest of the suite (no serde).
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host_cores\": {available},\n"));
    json.push_str(&format!("  \"available_parallelism\": {available},\n"));
    if available == 1 {
        json.push_str(
            "  \"caveat\": \"single-core host: workers time-share one core, so the speedup \
             measures scheduling overhead, not parallel scaling\",\n",
        );
    }
    json.push_str(&format!("  \"catalog_scale\": {},\n", config.gen.catalog_scale));
    json.push_str(&format!("  \"speedup\": {speedup:.4},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, stats) in runs.iter().enumerate() {
        json.push_str(&format!("    {{\"workers\": {}, \"stages\": {{", stats.workers));
        for (j, (name, duration)) in stats.stages().iter().enumerate() {
            if j > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{name}\": {:.6}", duration.as_secs_f64()));
        }
        json.push_str(&format!(
            "}}, \"fingerprint_seconds\": {:.6}, \"detect_seconds\": {:.6}, \
             \"total_seconds\": {:.6}, \"peak_resident_traces\": {}}}",
            stats.fingerprint_work.as_secs_f64(),
            stats.detect_work.as_secs_f64(),
            stats.total.as_secs_f64(),
            stats.peak_resident_traces
        ));
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    write_bench(out_dir, "BENCH_pipeline.json", &json);
    last_dataset.expect("bench-pipeline always builds at least once")
}

fn expect_value<T: std::str::FromStr>(iter: &mut impl Iterator<Item = String>, flag: &str) -> T {
    iter.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a numeric value")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: arest-experiments [--quick] [--scale F] [--vps N] [--targets N] [--seed N] \
         [--workers N] [--catalog-scale N] [--stream] [--out DIR] [--obs] \
         [--trace-out DIR] [--listen A:P] [--clients N] [--requests N] [--ledger DIR] \
         [--reprobe SLICE] [--base SERIAL] [--ledger-poll-ms N] \
         <ids…|all|bench-pipeline|serve|bench-serve|bench-ledger|bench-incremental|\
         history|diff A B>\n\
         slice specs: all, N% (first N percent of the catalog), N (first N ASes), asN\n\
         experiments: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
