//! Keeps `docs/API.md` honest: every documented request is replayed
//! against an in-process `arest-serve` daemon over the quick dataset,
//! and the documented status line and body must match the served
//! bytes exactly.
//!
//! The served bodies are deterministic because the quick dataset is
//! (seeded generation, worker-count-invariant pipeline — see the
//! identity tests in `pipeline.rs`), the server runs a fixed
//! `workers: 2` configuration, `/status` is clock-free by design, and
//! `/metrics` is scraped off a *disabled* registry whose metrics are
//! registered up front and therefore render as a stable all-zeros
//! exposition.
//!
//! The server is ledger-backed so the history routes have something
//! to document: run 1 is the quick campaign minus one detection (a
//! synthetic "previous run"), run 2 is the quick campaign itself, and
//! the daemon serves run 2 through the ledger swap path — exactly the
//! configuration a `serve --ledger` deployment reaches after its
//! first refresh. Commit timestamps are pinned, so every byte stays
//! reproducible.
//!
//! ## Document format
//!
//! A replayable example is a fenced block
//!
//! ~~~text
//! ```http
//! GET /api/as/9002 HTTP/1.1
//! ```
//! ~~~
//!
//! whose **next** fenced block holds the expected response: its first
//! line is the status line, the rest is the body, byte for byte.
//! Prose between the two blocks is fine.
//!
//! ## Regenerating
//!
//! After changing a JSON encoder, a store field, or the quick
//! dataset, refresh every response block in place with
//!
//! ```text
//! AREST_API_MD_WRITE=1 cargo test -p arest-experiments --test api_md
//! ```
//!
//! and review the diff like any other code change.

use arest_experiments::pipeline::{Dataset, PipelineConfig};
use arest_ledger::{CommitOptions, FlagTotals, Ledger, RunSnapshot};
use arest_serve::Store;
use std::net::SocketAddr;
use std::sync::Arc;

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/API.md");

/// The documented "previous campaign": the current snapshot minus one
/// detection (the last one on the first detected address), with the
/// AS and campaign flag totals decremented to match — so the
/// `/api/diff/1/2` example is a short, readable announce feed rather
/// than thousands of lines.
fn previous_campaign(current: &RunSnapshot) -> RunSnapshot {
    let mut prev = current.clone();
    let entry = prev
        .addrs
        .iter_mut()
        .find(|e| !e.detections.is_empty())
        .expect("quick dataset has detections");
    let removed = entry.detections.pop().expect("non-empty detection list");
    let dec = |flags: &mut FlagTotals| match removed.flag.as_str() {
        "CVR" => flags.cvr -= 1,
        "CO" => flags.co -= 1,
        "LSVR" => flags.lsvr -= 1,
        "LVR" => flags.lvr -= 1,
        _ => flags.lso -= 1,
    };
    for a in &mut prev.ases {
        if a.asn == removed.asn {
            dec(&mut a.flags);
        }
    }
    dec(&mut prev.totals.flags);
    prev
}

/// Sends one documented request line and returns the actual
/// `(status line, body)` pair.
fn send(addr: SocketAddr, request_line: &str) -> (String, String) {
    let raw = format!("{request_line}\r\nHost: docs.example\r\nConnection: close\r\n\r\n");
    let (_status, head, body) =
        arest_serve::load::one_shot(addr, raw.as_bytes()).expect("daemon answered");
    let status_line = head.lines().next().expect("status line").to_string();
    (status_line, body)
}

#[test]
fn documented_examples_match_served_bytes() {
    let write_mode = std::env::var("AREST_API_MD_WRITE").is_ok_and(|v| v == "1");
    let text = std::fs::read_to_string(DOC).expect("docs/API.md exists");
    let lines: Vec<&str> = text.lines().collect();

    let config = PipelineConfig::quick();
    let dataset = Dataset::build(config);
    let current = Arc::new(arest_experiments::serve_store::snapshot(&dataset));
    let store = Arc::new(Store::new(Arc::clone(&current)));

    // A two-run ledger with pinned commit timestamps: run 1 is the
    // synthetic previous campaign, run 2 the quick campaign itself.
    let ledger_dir =
        std::env::temp_dir().join(format!("arest-api-md-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ledger_dir);
    let ledger = Arc::new(Ledger::open(&ledger_dir).expect("open ledger"));
    let options = |committed_unix| CommitOptions {
        committed_unix,
        config_digest: arest_experiments::ledger_io::config_digest(&config),
        catalog_digest: arest_experiments::ledger_io::catalog_digest(),
    };
    // Run 1 is committed bare (no aux sidecar — its documented
    // `origin` is `null`); run 2 carries the sidecar every CLI commit
    // writes, here the full-campaign shape (no base, nothing carried).
    ledger.commit(&previous_campaign(&current), &options(1_750_000_000)).expect("commit run 1");
    let aux = arest_ledger::AuxRecord {
        base_serial: None,
        carried: Vec::new(),
        raw_traces: current.ases.iter().map(|a| (a.asn, a.traces)).collect(),
        cache: Vec::new(),
    };
    ledger.commit_with_aux(&current, &options(1_750_000_600), &aux).expect("commit run 2");

    // Disabled registry: /metrics renders every pre-registered metric
    // as zero, so the documented scrape is byte-stable no matter how
    // many examples ran before it.
    let registry = arest_obs::Registry::disabled();
    let mut server =
        arest_serve::Server::bind("127.0.0.1:0", store, &registry, Some(2)).expect("bind");
    server.attach_ledger(Arc::clone(&ledger));
    let swapped =
        arest_serve::ledger_watch::refresh(&server.store_cell(), &ledger).expect("refresh");
    assert_eq!(swapped, Some(2), "the daemon must serve the latest committed run");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();

    let mut out: Vec<String> = Vec::new();
    let mut replayed: Vec<String> = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    arest_conc::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        let mut i = 0;
        while i < lines.len() {
            if lines[i].trim() != "```http" {
                out.push(lines[i].to_string());
                i += 1;
                continue;
            }
            // The request block: fence, request line, closing fence.
            out.push(lines[i].to_string());
            let request_line = lines[i + 1].to_string();
            assert!(
                request_line.ends_with("HTTP/1.1"),
                "line {} of docs/API.md: {request_line:?} is not a request line",
                i + 2
            );
            assert_eq!(lines[i + 2].trim(), "```", "request block must be a single line");
            out.push(request_line.clone());
            out.push(lines[i + 2].to_string());
            i += 3;
            // Prose until the response block's opening fence.
            while !lines[i].starts_with("```") {
                out.push(lines[i].to_string());
                i += 1;
            }
            out.push(lines[i].to_string());
            i += 1;
            // The expected response: status line, then the body.
            let mut expected: Vec<&str> = Vec::new();
            while lines[i].trim() != "```" {
                expected.push(lines[i]);
                i += 1;
            }
            let (status_line, body) = send(addr, &request_line);
            let actual = format!("{status_line}\n{body}");
            if write_mode {
                out.extend(actual.split('\n').map(str::to_string));
            } else {
                let documented = expected.join("\n");
                if documented != actual {
                    mismatches.push(format!(
                        "== {request_line}\n-- documented:\n{documented}\n-- served:\n{actual}"
                    ));
                }
                out.extend(expected.iter().map(|l| (*l).to_string()));
            }
            out.push(lines[i].to_string());
            i += 1;
            replayed.push(request_line);
        }
        handle.shutdown();
        runner.join().expect("server thread");
    });
    let _ = std::fs::remove_dir_all(&ledger_dir);

    if write_mode {
        std::fs::write(DOC, out.join("\n") + "\n").expect("rewrite docs/API.md");
        eprintln!("rewrote {} response blocks in docs/API.md", replayed.len());
    }
    assert!(
        mismatches.is_empty(),
        "docs/API.md drifted from the served bytes (regenerate with \
         AREST_API_MD_WRITE=1):\n\n{}",
        mismatches.join("\n\n")
    );

    // The manual must exercise every route — success AND failure
    // shapes — or the byte-for-byte guarantee means little.
    for needle in
        ["/api/summary", "/api/as/", "/api/addr/", "/api/runs", "/api/diff/", "/metrics", "/status"]
    {
        assert!(
            replayed.iter().any(|r| r.contains(needle)),
            "docs/API.md documents no example for {needle}"
        );
    }
    let final_text = out.join("\n");
    for status in ["404", "422", "405"] {
        assert!(
            final_text.contains(&format!("HTTP/1.1 {status}")),
            "docs/API.md shows no {status} example"
        );
    }
    assert!(replayed.len() >= 8, "expected a full example matrix, found {}", replayed.len());
}
