//! Interactive traceroute over the synthetic Internet.
//!
//! ```text
//! arest-trace [options] [<target ip>…]
//!
//! options:
//!   --as <id>        pick targets inside AS #id (default: 46, ESnet)
//!   --vp <n>         vantage point index (default 0)
//!   --scale <f64>    generator scale (default 0.03)
//!   --seed <n>       generator seed (default 2025)
//!   --mda            run MDA multipath enumeration instead
//!   --no-reveal      plain Paris traceroute (skip TNT revelation)
//!
//! Without explicit targets, traces the AS's first two customer
//! prefixes. After each trace, runs AReST and prints the detected
//! segments — a miniature of the paper's pipeline on one path.
//! ```
//!
//! A reader that closes the pipe early (`arest-trace | head`) ends the
//! output; the traces still run and the exit code is unchanged.

use arest_core::detect::{detect_segments, DetectorConfig};
use arest_experiments::pipeline::augment;
use arest_experiments::{note, say};
use arest_netgen::internet::{generate, GenConfig};
use arest_tnt::multipath::{multipath_trace, MdaConfig};
use arest_tnt::reveal::trace_with_revelation;
use arest_tnt::tracer::{trace_route, TraceConfig};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut as_id: u8 = 46;
    let mut vp_index: usize = 0;
    let mut scale: f64 = 0.03;
    let mut seed: u64 = 2_025;
    let mut mda = false;
    let mut reveal = true;
    let mut targets: Vec<Ipv4Addr> = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--as" => as_id = next_value(&mut iter, "--as"),
            "--vp" => vp_index = next_value(&mut iter, "--vp"),
            "--scale" => scale = next_value(&mut iter, "--scale"),
            "--seed" => seed = next_value(&mut iter, "--seed"),
            "--mda" => mda = true,
            "--no-reveal" => reveal = false,
            "--help" | "-h" => usage(""),
            other if other.starts_with('-') => usage(&format!("unknown option {other}")),
            ip => targets.push(ip.parse().unwrap_or_else(|_| usage(&format!("bad ip {ip}")))),
        }
    }

    note!("generating the synthetic Internet (scale {scale}, seed {seed})…");
    let internet =
        generate(&GenConfig { scale, seed, vp_count: 8, sr_adoption: 1.0, catalog_scale: 1 });
    let vp = internet
        .vps
        .get(vp_index)
        .unwrap_or_else(|| usage(&format!("vp index {vp_index} out of range")));
    let plan = internet
        .plan(as_id)
        .unwrap_or_else(|| usage(&format!("AS id {as_id} out of range (1–60)")));
    if targets.is_empty() {
        targets = plan.customers.iter().take(2).map(|(p, _)| p.nth(1)).collect();
    }
    say!(
        "tracing from {} ({}) toward AS#{} ({}, {} routers)\n",
        vp.name,
        vp.addr,
        as_id,
        plan.entry.name,
        plan.routers.len()
    );

    let vp_name: Arc<str> = vp.name.as_str().into();
    for dst in targets {
        if mda {
            let trace =
                multipath_trace(&internet.net, vp.gateway, vp.addr, dst, &MdaConfig::default());
            say!("MDA toward {dst} (max width {}):", trace.max_width());
            for level in &trace.levels {
                let branches: Vec<String> = level
                    .branches
                    .iter()
                    .map(|(addr, flows)| format!("{addr} ({} flows)", flows.len()))
                    .collect();
                say!(
                    "  {:>2}  {}",
                    level.ttl,
                    if branches.is_empty() { "*".into() } else { branches.join("  |  ") }
                );
            }
            say!();
            continue;
        }

        let config = TraceConfig::default();
        let trace = if reveal {
            trace_with_revelation(&internet.net, &vp_name, vp.gateway, vp.addr, dst, &config)
        } else {
            trace_route(&internet.net, &vp_name, vp.gateway, vp.addr, dst, &config)
        };
        say!("traceroute to {dst} ({}):", if trace.reached { "reached" } else { "incomplete" });
        for hop in &trace.hops {
            let addr = hop.addr.map_or("*".to_string(), |a| a.to_string());
            let mut notes = String::new();
            if let Some(stack) = &hop.stack {
                notes.push_str(&format!("  MPLS {stack}"));
            }
            if hop.revealed {
                notes.push_str("  (revealed)");
            }
            say!("  {:>2}  {addr:<16}{notes}", hop.ttl);
        }

        let augmented = augment(&trace, &HashMap::new());
        let segments = detect_segments(&augmented, &DetectorConfig::default());
        if segments.is_empty() {
            say!("  AReST: no SR-MPLS signals\n");
        } else {
            for segment in segments {
                say!(
                    "  AReST: {} ({}) hops {}..={} label {}",
                    segment.flag,
                    "*".repeat(usize::from(segment.flag.signal_strength())),
                    segment.start,
                    segment.end,
                    segment.label,
                );
            }
            say!();
        }
    }
}

fn next_value<T: std::str::FromStr>(iter: &mut impl Iterator<Item = String>, flag: &str) -> T {
    iter.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        note!("error: {err}\n");
    }
    note!(
        "usage: arest-trace [--as N] [--vp N] [--scale F] [--seed N] [--mda] [--no-reveal] [ip…]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
