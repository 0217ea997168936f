//! Zero-downtime refresh torture: a new ledger serial lands while a
//! keep-alive client is mid-session, and every response — before,
//! during, and after the atomic store swap — is a complete, untorn
//! body from exactly one committed snapshot. No request is dropped,
//! the connection never closes, and `/status` converges on the new
//! serial.
//!
//! The swap path itself is model-checked in `model_store_cell.rs`;
//! this test exercises the same `StoreCell` end-to-end through real
//! sockets, the watcher thread, and the ledger directory.

use arest_ledger::snapshot::{
    AddrEntry, AsRecord, DetectionRecord, FlagTotals, ProvenanceRecord, RunSnapshot, RunTotals,
};
use arest_ledger::{CommitOptions, Ledger};
use arest_serve::ledger_watch::{refresh, watch};
use arest_serve::{Server, Store};
use std::io::{Read as _, Write as _};
use std::net::{Ipv4Addr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A small snapshot whose contents vary with `generation`, so the two
/// committed snapshots serve visibly different `/api/summary` bodies.
fn generation_snapshot(generation: u64) -> RunSnapshot {
    let flags = FlagTotals { cvr: 1, ..FlagTotals::default() };
    let mut ases = vec![AsRecord {
        id: 1,
        asn: 64512,
        name: "Test Net".to_string(),
        astype: "Stub".to_string(),
        confirmation: "none".to_string(),
        analyzed: true,
        targets_probed: 8,
        traces: 5 + generation,
        addresses: 3,
        fingerprinted: 1,
        flags,
    }];
    if generation > 1 {
        ases.push(AsRecord {
            id: 2,
            asn: 64513,
            name: "Late Net".to_string(),
            astype: "Transit".to_string(),
            confirmation: "survey".to_string(),
            analyzed: true,
            targets_probed: 8,
            traces: 2,
            addresses: 1,
            fingerprinted: 0,
            flags: FlagTotals { lso: 1, ..FlagTotals::default() },
        });
    }
    let addr = AddrEntry {
        addr: Ipv4Addr::new(10, 0, 0, 1),
        asn: 64512,
        fingerprint: Some("Cisco".to_string()),
        fingerprint_source: Some("snmp".to_string()),
        detections: vec![Arc::new(DetectionRecord {
            asn: 64512,
            vp: "vp00".to_string(),
            dst: "10.0.0.9".to_string(),
            flag: "CVR".to_string(),
            stars: 5,
            start: 1,
            end: 3,
            label: 16001,
            suffix_based: false,
            provenance: ProvenanceRecord {
                trigger_hop: 1,
                run_len: 3,
                distinct_addrs: 3,
                lses_consulted: 3,
                effective_depth: 1,
                fingerprint: Some("Cisco".to_string()),
                label_in_vendor_range: true,
                suffix_matched: false,
                chain: "trigger_hop=1 run_len=3".to_string(),
            },
        })],
    };
    let totals = RunTotals {
        ases: ases.len() as u64,
        analyzed: ases.len() as u64,
        sr_deployed: 1,
        addresses: 3 + generation,
        fingerprinted: 1,
        raw_traces: 40 + generation,
        intra_as_traces: 5,
        vantage_points: 4,
        flags,
    };
    RunSnapshot { ases, addrs: vec![addr], totals }
}

fn commit_generation(ledger: &Ledger, generation: u64) {
    let options = CommitOptions {
        committed_unix: 1_750_000_000 + generation,
        config_digest: 7,
        catalog_digest: 9,
    };
    ledger.commit(&generation_snapshot(generation), &options).expect("commit generation");
}

/// Reads one full response from `stream` into `buf`, returning its
/// body and draining the consumed bytes.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> String {
    loop {
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
        if let Some(end) = head_end {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "non-200 mid-torture:\n{head}");
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("Content-Length")
                .trim()
                .parse()
                .expect("numeric length");
            if buf.len() >= end + 4 + length {
                let body = String::from_utf8_lossy(&buf[end + 4..end + 4 + length]).into_owned();
                buf.drain(..end + 4 + length);
                return body;
            }
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => panic!("connection closed mid-response: a request was dropped"),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn scratch_dir() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("arest-ledger-serve-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_serial_committed_mid_session_swaps_in_without_dropping_a_request() {
    let dir = scratch_dir();
    let ledger = Arc::new(Ledger::open(&dir).expect("open ledger"));
    commit_generation(&ledger, 1);

    // The exact bodies each committed snapshot serves: the serving
    // store is rebuilt from the loaded snapshot, so expectations go
    // through the same load path.
    let body_of = |serial: u64| {
        let loaded = ledger.load(serial).expect("load").snapshot;
        Store::new(Arc::new(loaded)).summary_json().render()
    };
    let body_v1 = body_of(1);

    let registry = arest_obs::Registry::new();
    let store = Arc::new(Store::new(Arc::new(generation_snapshot(1))));
    let mut server = Server::bind("127.0.0.1:0", store, &registry, Some(2)).expect("bind");
    server.attach_ledger(Arc::clone(&ledger));
    let cell = server.store_cell();
    assert_eq!(refresh(&cell, &ledger).expect("initial refresh"), Some(1));

    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let stop = arest_conc::atomic::AtomicBool::new(false);

    arest_conc::thread::scope(|s| {
        let runner = s.spawn(|| server.run());
        let watcher = s.spawn(|| {
            watch(&cell, &ledger, Duration::from_millis(2), &|| {
                stop.load(arest_conc::atomic::Ordering::SeqCst)
            });
        });

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = Vec::new();
        let request = b"GET /api/summary HTTP/1.1\r\nHost: t\r\n\r\n";

        // Warm the keep-alive session on generation 1.
        for round in 0..20 {
            stream.write_all(request).expect("write request");
            let body = read_one_response(&mut stream, &mut buf);
            assert_eq!(body, body_v1, "pre-swap round {round} served a foreign body");
        }

        // A new campaign lands mid-session…
        commit_generation(&ledger, 2);
        let body_v2 = body_of(2);
        assert_ne!(body_v1, body_v2, "the two generations must be distinguishable");

        // …and every subsequent response is byte-for-byte one of the
        // two committed snapshots — never a torn mixture — until the
        // watcher swaps and the new serial takes over.
        let mut saw_new = false;
        for round in 0..500 {
            stream.write_all(request).expect("write request");
            let body = read_one_response(&mut stream, &mut buf);
            assert!(
                body == body_v1 || body == body_v2,
                "round {round} served a torn body:\n{body}"
            );
            if body == body_v2 {
                saw_new = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_new, "the watcher never swapped in serial 2");

        // The same connection's /status now reports the new serial.
        stream.write_all(b"GET /status HTTP/1.1\r\nHost: t\r\n\r\n").expect("write status request");
        let status = read_one_response(&mut stream, &mut buf);
        assert!(status.contains("\"serial\": 2"), "status after swap:\n{status}");
        assert!(status.contains("\"runs_behind_latest\": 0"), "status after swap:\n{status}");

        stop.store(true, arest_conc::atomic::Ordering::SeqCst);
        watcher.join().expect("watcher thread");
        handle.shutdown();
        runner.join().expect("server thread");
    });

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Load → serve → commit keeps one record per detection-table row:
/// two addresses covered by the same segment hold the same `Arc` at
/// every step, so no layer quietly reintroduces per-address copies.
#[test]
fn a_loaded_run_shares_each_detection_across_its_addresses() {
    let mut snapshot = generation_snapshot(1);
    let second = AddrEntry { addr: Ipv4Addr::new(10, 0, 0, 2), ..snapshot.addrs[0].clone() };
    snapshot.addrs.push(second);

    let dir =
        std::env::temp_dir().join(format!("arest-ledger-serve-sharing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = Ledger::open(&dir).expect("open ledger");
    ledger.commit(&snapshot, &CommitOptions::default()).expect("commit");
    let loaded = ledger.load(1).expect("load").snapshot;
    assert_eq!(loaded, snapshot);
    let served = Store::new(Arc::new(loaded));
    // The served snapshot commits again unchanged (same content digest).
    let recommitted = ledger.commit(served.snapshot(), &CommitOptions::default()).expect("commit");
    assert_eq!(recommitted.payload_digest, ledger.meta(1).expect("meta").payload_digest);

    let pair = |a: &[Arc<arest_ledger::DetectionRecord>],
                b: &[Arc<arest_ledger::DetectionRecord>]| {
        Arc::ptr_eq(&a[0], &b[0])
    };
    let loaded = &served.snapshot().addrs;
    assert!(pair(&loaded[0].detections, &loaded[1].detections), "load");
    let row = |ip: [u8; 4]| served.addr(Ipv4Addr::from(ip)).expect("served address");
    assert!(pair(&row([10, 0, 0, 1]).detections, &row([10, 0, 0, 2]).detections), "serve");
    assert!(pair(&loaded[0].detections, &row([10, 0, 0, 2]).detections), "index");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
