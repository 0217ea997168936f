//! The traced run: the same work as the end-to-end operations,
//! composed here from each layer's public functions, with every call
//! timed from outside. The program's own `arest-obs` counters are read
//! around the composed operation; no span is added inside the program.
//!
//! Each phase below is a barrier over all ASes, run on the program's
//! work-stealing pool with the workload's worker count. A phase's wall
//! time is its layer's self time (they add up to the traced wall, which
//! `trace.coverage` checks); `*_s` metrics of pooled phases are the
//! summed busy time of their calls across workers.
//!
//! The composed campaign assembles a `Dataset` and commits it; its
//! payload digest must equal the end-to-end commit's, which proves the
//! breakdown measured the same work. A composed refresh against it (the
//! 5% slice) gives the carried-cache and incremental-ledger metrics.

use crate::http::{self, Client};
use crate::ops::{self, COMMITTED_UNIX, REFRESH_SLICE};
use crate::report::Report;
use crate::stats;
use crate::{Args, Workload, WORKERS};
use arest_core::detect::{detect_segments, DetectedSegment};
use arest_core::model::AugmentedTrace;
use arest_experiments::ledger_io::{catalog_digest, commit_incremental, config_digest};
use arest_experiments::pipeline::augment;
use arest_experiments::{serve_store, AsResult, Dataset, PipelineConfig};
use arest_fingerprint::combined::{FingerprintSource, VendorEvidence};
use arest_fingerprint::snmp::SnmpDataset;
use arest_fingerprint::FingerprintCache;
use arest_ledger::{AuxRecord, CommitOptions, Ledger};
use arest_mapping::alias::{AliasResolver, IpIdOracle};
use arest_mapping::anaximander::{build_target_list, AnaximanderConfig};
use arest_mapping::bdrmap::AsAnnotator;
use arest_mapping::bgp::{BgpRoute, BgpView};
use arest_netgen::internet::generate_probed;
use arest_obs::{Registry, SpanContext};
use arest_serve::ledger_bridge::{snapshot_from_store, store_from_snapshot};
use arest_serve::ledger_watch;
use arest_tnt::campaign::{campaign_unit, CampaignConfig, VantagePoint};
use arest_tnt::pool;
use arest_tnt::trace::{collect_addrs, Trace};
use arest_topo::ids::{AsNumber, RouterId};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Fingerprints = HashMap<Ipv4Addr, (VendorEvidence, FingerprintSource)>;

/// Runs `f`, returning its result and wall time.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// One layer phase: its wall time and, for pooled phases, the summed
/// busy time of its calls.
#[derive(Debug, Clone, Copy, Default)]
struct Phase {
    wall: Duration,
    busy: Duration,
}

/// Per-phase timings of one composed operation, in pipeline order.
#[derive(Debug, Default)]
struct Phases {
    list: Vec<(&'static str, &'static str, Phase)>,
}

impl Phases {
    fn add(&mut self, layer: &'static str, name: &'static str, wall: Duration, busy: Duration) {
        self.list.push((layer, name, Phase { wall, busy }));
    }

    fn get(&self, name: &str) -> Phase {
        self.list.iter().find(|(_, n, _)| *n == name).map_or(Phase::default(), |(_, _, p)| *p)
    }

    fn wall_sum(&self) -> Duration {
        self.list.iter().map(|(_, _, p)| p.wall).sum()
    }

    /// Self time per layer, in first-seen order.
    fn by_layer(&self) -> Vec<(&'static str, Duration)> {
        let mut out: Vec<(&'static str, Duration)> = Vec::new();
        for (layer, _, p) in &self.list {
            match out.iter_mut().find(|(l, _)| l == layer) {
                Some((_, d)) => *d += p.wall,
                None => out.push((layer, p.wall)),
            }
        }
        out
    }
}

/// Runs `work` over `items` on the pool and returns the outputs in
/// item order, the phase wall, and the summed busy time of the calls.
fn pooled<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    work: &(dyn Fn(usize, T) -> R + Sync),
) -> (Vec<R>, Phase) {
    let started = Instant::now();
    let out = pool::run_indexed(items, workers, &|i, item| {
        let t = Instant::now();
        let r = work(i, item);
        (r, t.elapsed())
    });
    let wall = started.elapsed();
    let busy = out.iter().map(|(_, d)| *d).sum();
    (out.into_iter().map(|(r, _)| r).collect(), Phase { wall, busy })
}

/// What one composed operation produced.
struct Composed {
    dataset: Dataset,
    phases: Phases,
    wall: Duration,
    serial: u64,
    digest: u64,
    bytes: u64,
    /// Campaign-unit durations, ms.
    unit_ms: Vec<f64>,
    targets: usize,
    addrs: usize,
    traces_detected: usize,
    segments: usize,
    /// `(rehydrated, stale)` of the carried cache, for a refresh.
    rehydrate: Option<(usize, usize)>,
    /// Whether the diff against the base came back empty (refresh).
    diff_empty: Option<bool>,
    /// Program counters over the operation.
    counters: arest_obs::Snapshot,
}

/// One AS between phases.
struct AsWork {
    raw: Vec<Trace>,
    fingerprints: Fingerprints,
    clusters: HashMap<Ipv4Addr, usize>,
    restricted: Vec<Trace>,
    discovered: Vec<Vec<Ipv4Addr>>,
    augmented: Vec<AugmentedTrace>,
    segments: Vec<Vec<DetectedSegment>>,
}

/// Composes a campaign from layer calls and commits it: a full
/// campaign when `base` is `None`, else the refresh slice against
/// `base` (aux load, cache rehydrate, incremental commit, diff).
fn compose(config: PipelineConfig, ledger: &Ledger, base: Option<u64>) -> Composed {
    let registry = arest_obs::global();
    let before = registry.snapshot();
    let workers = config.workers.unwrap_or_else(pool::worker_count);
    let mut config = config;
    if let Some(base) = base {
        config.reprobe = REFRESH_SLICE;
        config.base_serial = Some(base);
    }
    let mut phases = Phases::default();
    let op_started = Instant::now();

    // ledger: the carried fingerprint cache of the base.
    let seed_cache = base.map(|b| {
        let (aux, d) = timed(|| ledger.load_aux(b).expect("load aux").expect("base has aux"));
        phases.add("ledger", "aux_load", d, d);
        aux.cache
    });

    // netgen.
    let mask = config.slice_mask();
    let (internet, d) = timed(|| generate_probed(&config.gen, mask.as_deref()));
    phases.add("netgen", "generate", d, d);
    let n_as = internet.plans.len();
    let selected: Vec<bool> = mask.unwrap_or_else(|| vec![true; n_as]);

    // mapping: BGP view and Anaximander target lists.
    let started = Instant::now();
    let view: BgpView = internet
        .routes
        .iter()
        .map(|r| BgpRoute { prefix: r.prefix, origin: r.origin, path: r.path.clone() })
        .collect();
    let vps: Vec<VantagePoint> = internet
        .vps
        .iter()
        .map(|vp| VantagePoint {
            name: Arc::from(vp.name.as_str()),
            addr: vp.addr,
            gateway: vp.gateway,
        })
        .collect();
    let anax = AnaximanderConfig { targets_per_prefix: 2, max_targets: config.targets_per_as };
    let plans: Vec<_> = internet.plans.iter().collect();
    let (target_lists, mut phase) = pooled(plans, workers, &|i, plan| {
        if selected[i] {
            build_target_list(&view, plan.asn, &anax)
        } else {
            Vec::new()
        }
    });
    phase.wall = started.elapsed();
    phases.add("mapping", "targets", phase.wall, phase.busy);

    // fingerprint: the SNMPv3 harvest.
    let (snmp, d) = timed(|| SnmpDataset::harvest(&internet.net));
    phases.add("fingerprint", "harvest", d, d);

    // tnt + simnet: one campaign unit per (AS, VP).
    let campaign_cfg = CampaignConfig::default();
    let units: Vec<(usize, usize)> = (0..n_as)
        .filter(|&a| selected[a])
        .flat_map(|a| (0..vps.len()).map(move |v| (a, v)))
        .collect();
    let (probed, phase) = pooled(units.clone(), workers, &|_, (a, v)| {
        let t = Instant::now();
        let traces = campaign_unit(
            &internet.net,
            &vps[v],
            &target_lists[a],
            &campaign_cfg,
            SpanContext::NONE,
        );
        (traces, t.elapsed())
    });
    phases.add("tnt", "probe", phase.wall, phase.busy);
    let unit_ms: Vec<f64> = probed.iter().map(|(_, d)| d.as_secs_f64() * 1e3).collect();
    let mut work: Vec<Option<AsWork>> = (0..n_as).map(|_| None).collect();
    for ((a, _), (traces, _)) in units.into_iter().zip(probed) {
        let w = work[a].get_or_insert_with(|| AsWork {
            raw: Vec::new(),
            fingerprints: HashMap::new(),
            clusters: HashMap::new(),
            restricted: Vec::new(),
            discovered: Vec::new(),
            augmented: Vec::new(),
            segments: Vec::new(),
        });
        w.raw.extend(traces);
    }
    let raw_counts: Vec<usize> =
        work.iter().map(|w| w.as_ref().map_or(0, |w| w.raw.len())).collect();

    // fingerprint: the shared memoizing cache, rehydrated when carried.
    let (fp_entry, fp_src) =
        vps.first().map_or((RouterId(0), Ipv4Addr::UNSPECIFIED), |vp| (vp.gateway, vp.addr));
    let cache = FingerprintCache::new(&internet.net, fp_entry, fp_src);
    let rehydrate = seed_cache.map(|seed| {
        let (stats, d) = timed(|| cache.rehydrate(&seed));
        phases.add("fingerprint", "rehydrate", d, d);
        (stats.rehydrated, stats.stale)
    });
    // `slots[i]` is the catalog index of the i-th probed AS.
    let slots: Vec<usize> = (0..n_as).filter(|&a| work[a].is_some()).collect();
    let items: Vec<AsWork> = work.iter_mut().filter_map(Option::take).collect();
    let (items, phase) = pooled(items, workers, &|_, mut w: AsWork| {
        let (addrs, te_ttls) = collect_addrs(&w.raw);
        for &addr in &addrs {
            if let Some(e) = cache.evidence(addr, te_ttls[&addr], &snmp) {
                w.fingerprints.insert(addr, e);
            }
        }
        (w, addrs.len())
    });
    phases.add("fingerprint", "evidence", phase.wall, phase.busy);
    let addrs: usize = items.iter().map(|(_, n)| n).sum();
    let items: Vec<AsWork> = items.into_iter().map(|(w, _)| w).collect();

    // mapping: per-AS alias resolution.
    let oracle = IpIdOracle::new(&internet.net);
    let (items, phase) = pooled(items, workers, &|_, mut w: AsWork| {
        let paths: Vec<Vec<Ipv4Addr>> = w
            .raw
            .iter()
            .take(config.alias_paths_per_as)
            .map(|t| t.responding_addrs().collect())
            .collect();
        w.clusters = AliasResolver::resolve_paths(&oracle, &paths, 5);
        w
    });
    phases.add("mapping", "alias", phase.wall, phase.busy);

    // mapping: bdrmap restriction (alias view, intra-AS span, cut,
    // duplicate collapse, discovered addresses).
    let annotator = AsAnnotator::new(internet.ownership.iter().copied());
    let asns: Vec<AsNumber> = internet.plans.iter().map(|p| p.asn).collect();
    let (items, phase) = pooled(items, workers, &|i, mut w: AsWork| {
        let asn = asns[slots[i]];
        let view = annotator.with_aliases(std::mem::take(&mut w.clusters));
        for trace in std::mem::take(&mut w.raw) {
            let Some((first, last)) = view.intra_as_span(trace.hops.iter().map(|h| h.addr), asn)
            else {
                continue;
            };
            let Trace { vp, src, dst, mut hops, reached } = trace;
            hops.truncate(last + 1);
            hops.drain(..first);
            hops.dedup_by(|b, a| a.addr.is_some() && a.addr == b.addr);
            let discovered: Vec<Ipv4Addr> = hops
                .iter()
                .filter_map(|h| h.addr)
                .filter(|&a| view.annotate(a) == Some(asn))
                .collect();
            w.restricted.push(Trace { vp, src, dst, hops, reached });
            w.discovered.push(discovered);
        }
        w
    });
    phases.add("mapping", "restrict", phase.wall, phase.busy);

    // experiments: augmentation with fingerprint evidence.
    let (items, phase) = pooled(items, workers, &|_, mut w: AsWork| {
        w.augmented = w.restricted.iter().map(|t| augment(t, &w.fingerprints)).collect();
        w
    });
    phases.add("experiments", "augment", phase.wall, phase.busy);

    // core: AReST detection.
    let (items, phase) = pooled(items, workers, &|_, mut w: AsWork| {
        w.segments = w.augmented.iter().map(|t| detect_segments(t, &config.detector)).collect();
        w
    });
    phases.add("core", "detect", phase.wall, phase.busy);
    let traces_detected: usize = items.iter().map(|w| w.augmented.len()).sum();
    let segments: usize = items.iter().flat_map(|w| &w.segments).map(Vec::len).sum();

    // experiments: assemble the dataset in catalog order.
    let started = Instant::now();
    let mut per_as: Vec<Option<AsWork>> = (0..n_as).map(|_| None).collect();
    for (i, w) in items.into_iter().enumerate() {
        per_as[slots[i]] = Some(w);
    }
    let mut results = Vec::with_capacity(n_as);
    let mut fingerprints: Fingerprints = HashMap::new();
    let mut per_vp_discovered: HashMap<Arc<str>, HashSet<Ipv4Addr>> = HashMap::new();
    for (a, slot) in per_as.into_iter().enumerate() {
        let plan = &internet.plans[a];
        let mut result = AsResult {
            id: plan.entry.id,
            asn: plan.asn,
            targets_probed: target_lists[a].len(),
            raw_traces: raw_counts[a],
            restricted: Vec::new(),
            augmented: Vec::new(),
            segments: Vec::new(),
            discovered: HashSet::new(),
        };
        if let Some(w) = slot {
            for (addr, e) in w.fingerprints {
                fingerprints.entry(addr).or_insert(e);
            }
            for (trace, discovered) in w.restricted.iter().zip(w.discovered) {
                let vp_set = per_vp_discovered.entry(trace.vp.clone()).or_default();
                for addr in discovered {
                    result.discovered.insert(addr);
                    vp_set.insert(addr);
                }
            }
            result.restricted = w.restricted;
            result.augmented = w.augmented;
            result.segments = w.segments;
        }
        results.push(result);
    }
    let cache_entries = cache.export();
    drop(cache);
    let raw_trace_count = raw_counts.iter().sum();
    let targets = target_lists.iter().map(Vec::len).sum();
    let dataset = Dataset {
        internet,
        config,
        results,
        fingerprints,
        snmp,
        per_vp_discovered,
        raw_trace_count,
        cache_entries,
    };
    let d = started.elapsed();
    phases.add("experiments", "assemble", d, d);

    // Commit: the full path composed from its layers; the incremental
    // merge through its public entry point (it builds the serving
    // store and the snapshot inside).
    let (serial, digest, bytes, diff_empty) = match base {
        None => {
            let (store, d) = timed(|| serve_store::build(&dataset));
            phases.add("experiments", "serve_store", d, d);
            let (snapshot, d) = timed(|| snapshot_from_store(&store));
            phases.add("serve", "bridge", d, d);
            let options = CommitOptions {
                committed_unix: COMMITTED_UNIX,
                config_digest: config_digest(&config),
                catalog_digest: catalog_digest(),
            };
            let aux = AuxRecord {
                base_serial: None,
                carried: Vec::new(),
                raw_traces: dataset
                    .results
                    .iter()
                    .map(|r| (r.asn.0, r.raw_traces as u64))
                    .collect(),
                cache: dataset.cache_entries.clone(),
            };
            let (receipt, d) = timed(|| ledger.commit_with_aux(&snapshot, &options, &aux));
            phases.add("ledger", "commit", d, d);
            let receipt = receipt.expect("commit");
            (receipt.serial, receipt.payload_digest, receipt.bytes, None)
        }
        Some(base) => {
            let (merged, d) =
                timed(|| commit_incremental(ledger, &dataset, &config, COMMITTED_UNIX));
            phases.add("ledger", "incremental_commit", d, d);
            let merged = merged.expect("incremental commit");
            let (delta, d) = timed(|| ledger.diff(base, merged.receipt.serial));
            phases.add("ledger", "diff", d, d);
            let empty = delta.expect("diff").is_empty();
            (
                merged.receipt.serial,
                merged.receipt.payload_digest,
                merged.receipt.bytes,
                Some(empty),
            )
        }
    };
    let wall = op_started.elapsed();
    let counters = registry.snapshot().diff(&before);
    Composed {
        dataset,
        phases,
        wall,
        serial,
        digest,
        bytes,
        unit_ms,
        targets,
        addrs,
        traces_detected,
        segments,
        rehydrate,
        diff_empty,
        counters,
    }
}

/// Latency samples, ms, per endpoint name.
type EndpointSamples = Vec<(&'static str, Vec<f64>)>;

/// Per-endpoint closed-loop latencies, ms, over one keep-alive
/// connection: `per_endpoint` requests per endpoint kind. Addresses are
/// taken at evenly spaced ranks over *all* of the store's addresses,
/// heaviest provenance records included.
fn endpoint_latencies(
    addr: std::net::SocketAddr,
    store: &arest_serve::Store,
    per_endpoint: usize,
) -> std::io::Result<(EndpointSamples, usize)> {
    let mut addrs: Vec<(usize, Ipv4Addr)> =
        store.addrs().map(|r| (r.detections.len(), r.addr)).collect();
    addrs.sort_unstable();
    let n = addrs.len().max(1);
    let ases = store.ases();
    let mut client = Client::connect(addr)?;
    let mut out = Vec::new();
    let mut failed = 0;
    for endpoint in http::Endpoint::ALL {
        let mut samples = Vec::with_capacity(per_endpoint);
        for i in 0..per_endpoint {
            let target = match endpoint {
                http::Endpoint::Summary => "/api/summary".to_string(),
                http::Endpoint::Status => "/status".to_string(),
                http::Endpoint::Metrics => "/metrics".to_string(),
                http::Endpoint::As => format!("/api/as/{}", ases[i % ases.len()].asn),
                http::Endpoint::Addr => format!("/api/addr/{}", addrs[(i * 7919) % n].1),
            };
            let t = Instant::now();
            let (status, _) = client.get(&target)?;
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            if status != 200 {
                failed += 1;
            }
        }
        out.push((endpoint.name(), samples));
    }
    Ok((out, failed))
}

/// What the serve probe measured.
struct ServeProbe {
    endpoints: EndpointSamples,
    swap_s: Vec<f64>,
}

/// Binds a server on `store`, times every endpoint closed-loop, then
/// times three commit + `ledger_watch::refresh` swaps.
fn serve_probe(
    report: &mut Report,
    store: Arc<arest_serve::Store>,
    ledger: &Ledger,
    config: &PipelineConfig,
    per_endpoint: usize,
) -> ServeProbe {
    let registry = Registry::new();
    let server = &http::bind(Arc::clone(&store), &registry, ledger);
    let addr = server.local_addr();
    let snapshot = snapshot_from_store(&store);
    let options = CommitOptions {
        committed_unix: COMMITTED_UNIX,
        config_digest: config_digest(config),
        catalog_digest: catalog_digest(),
    };
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run());
        let stop_guard = http::StopOnDrop(server.shutdown_handle());
        let ready = http::wait_ready(addr);
        report.op(ready, || "server never answered /status with 200".to_string());
        let (endpoints, failed) = match endpoint_latencies(addr, &store, per_endpoint) {
            Ok(v) => v,
            Err(e) => {
                report.op(false, || format!("endpoint probe failed: {e}"));
                (Vec::new(), 0)
            }
        };
        let requests: usize = endpoints.iter().map(|(_, s)| s.len()).sum();
        report.attempted += requests;
        report.check(failed == 0, || format!("{failed} endpoint probes answered non-200"));
        let cell = server.store_cell();
        let mut swap_s = Vec::new();
        for _ in 0..3 {
            let committed = ledger.commit(&snapshot, &options);
            let (swapped, d) = timed(|| ledger_watch::refresh(&cell, ledger));
            let ok = committed.is_ok() && matches!(swapped, Ok(Some(_)));
            report.op(ok, || "commit + ledger_watch::refresh did not swap".to_string());
            swap_s.push(d.as_secs_f64());
        }
        drop(stop_guard);
        serving.join().expect("server thread");
        ServeProbe { endpoints, swap_s }
    })
}

pub fn run(args: &Args, work: &Path) -> Report {
    let config = args.workload.config(args.seed);
    let ledger = ops::fresh_ledger(work, "traced");
    let mut report = Report::default();
    let registry = arest_obs::global();
    registry.set_enabled(false);

    // Untraced references: the end-to-end campaign the composed one
    // must reproduce, and its wall time.
    let reference = ops::campaign(config, &ledger);
    report.op(true, String::new);
    let (ref_serial, ref_digest) = (reference.serial, reference.digest);
    let peak_resident = reference.stats.peak_resident_traces as f64;
    let mut reference_walls = vec![reference.wall.as_secs_f64()];
    drop(reference);
    // A second reference where a campaign is cheap (~2 s, not ~9 s).
    if args.workload == Workload::Campaign {
        let again = ops::campaign(config, &ledger);
        report.op(again.digest == ref_digest, || "reference campaigns differ".to_string());
        reference_walls.push(again.wall.as_secs_f64());
    }

    // netgen's phase-1 share: the same generation with nothing deployed.
    let no_deploy =
        vec![false; config.gen.catalog_scale.max(1) * arest_netgen::catalog::CATALOG.len()];
    let (internet, topology) = timed(|| generate_probed(&config.gen, Some(&no_deploy)));
    drop(internet);

    registry.set_enabled(true);
    let full = compose(config, &ledger, None);
    report.op(full.digest == ref_digest, || {
        format!("composed campaign digest {:016x} != end-to-end {ref_digest:016x}", full.digest)
    });
    let delta = ledger.diff(ref_serial, full.serial);
    report.check(delta.is_ok_and(|d| d.is_empty()), || {
        "composed campaign diffs non-empty against the end-to-end commit".to_string()
    });
    let (loaded, load_d) = timed(|| ledger.load(full.serial).expect("load"));
    let (_, store_from_d) = timed(|| store_from_snapshot(&loaded.snapshot));
    drop(loaded);
    let store = Arc::new(serve_store::build(&full.dataset));

    let slice = compose(config, &ledger, Some(full.serial));
    report.op(slice.digest == full.digest && slice.diff_empty == Some(true), || {
        format!(
            "composed refresh digest {:016x} vs base {:016x}, diff empty {:?}",
            slice.digest, full.digest, slice.diff_empty
        )
    });
    let probe = serve_probe(&mut report, store, &ledger, &config, 1000);
    registry.set_enabled(false);

    let phase = |name: &str| full.phases.get(name);
    let secs = |d: Duration| d.as_secs_f64();
    let counter = |name: &str| full.counters.counter(name) as f64;

    let generate = secs(phase("generate").wall);
    report.value("netgen.generate_s", "s", generate, "generate_probed, this workload's mask");
    report.value("netgen.topology_s", "s", secs(topology), "generate_probed, all-false mask");
    report.value("netgen.deploy_s", "s", generate - secs(topology), "generate - topology");
    report.value("netgen.routers", "count", counter("netgen.routers"), "netgen.routers counter");

    report.value("mapping.targets_s", "s", secs(phase("targets").busy), "build_target_list calls");
    report.value("mapping.targets", "count", full.targets as f64, "targets over all ASes");
    report.value("mapping.alias_s", "s", secs(phase("alias").busy), "resolve_paths calls");
    report.value("mapping.alias_clusters", "count", counter("mapping.alias.clusters"), "counter");
    report.value(
        "mapping.restrict_s",
        "s",
        secs(phase("restrict").busy),
        "with_aliases + span + cut",
    );

    let probe_phase = phase("probe");
    let traces = counter("tnt.traces");
    report.value("tnt.probe_busy_s", "s", secs(probe_phase.busy), "sum of campaign_unit calls");
    report.value("tnt.probe_wall_s", "s", secs(probe_phase.wall), "probe phase wall");
    let idle = secs(probe_phase.wall) * WORKERS as f64 - secs(probe_phase.busy);
    report.value("tnt.pool_idle_s", "s", idle, format!("wall x {WORKERS} workers - busy"));
    let units = stats::sorted(&full.unit_ms);
    let n_units = units.len();
    report.value(
        "tnt.unit_p50_ms",
        "ms",
        stats::quantile_sorted(&units, 0.5),
        format!("{n_units} campaign units"),
    );
    let (label, tail) = stats::tail_percentile(&units).unwrap_or(("max", units[n_units - 1]));
    let note = if label == "p99" || label == "p99.9" {
        format!("{n_units} campaign units")
    } else {
        format!("{n_units} campaign units: fewer than ten beyond p99, reporting {label}")
    };
    let p99 = if label == "p99.9" { stats::quantile_sorted(&units, 0.99) } else { tail };
    report.value("tnt.unit_p99_ms", "ms", p99, note);
    report.value("tnt.traces", "count", traces, "tnt.traces counter");
    report.value(
        "tnt.probes_per_trace",
        "ratio",
        counter("tnt.probes") / traces,
        "tnt.probes / tnt.traces",
    );
    report.value(
        "simnet.hops_per_trace",
        "ratio",
        counter("simnet.forwarded_hops") / traces,
        "simnet.forwarded_hops / tnt.traces",
    );

    let lookups = counter("fingerprint.cache.hits") + counter("fingerprint.cache.misses");
    report.value("fingerprint.harvest_s", "s", secs(phase("harvest").wall), "SnmpDataset::harvest");
    report.value(
        "fingerprint.evidence_s",
        "s",
        secs(phase("evidence").busy),
        "FingerprintCache::evidence",
    );
    report.value("fingerprint.addrs", "count", full.addrs as f64, "addresses fingerprinted");
    report.value(
        "fingerprint.cache_hit_ratio",
        "ratio",
        counter("fingerprint.cache.hits") / lookups,
        format!("hits / {lookups} lookups"),
    );
    let (rehydrated, stale) = slice.rehydrate.unwrap_or((0, 0));
    report.value(
        "fingerprint.rehydrate_s",
        "s",
        secs(slice.phases.get("rehydrate").wall),
        format!("{} carried entries", rehydrated + stale),
    );
    report.value(
        "fingerprint.stale_ratio",
        "ratio",
        stale as f64 / (rehydrated + stale).max(1) as f64,
        format!("{stale} stale of {} offered", rehydrated + stale),
    );

    let detect = phase("detect").busy;
    report.value("core.detect_s", "s", secs(detect), "sum of detect_segments calls");
    report.value(
        "core.ns_per_trace",
        "ns",
        detect.as_nanos() as f64 / full.traces_detected.max(1) as f64,
        format!("{} traces", full.traces_detected),
    );
    report.value("core.segments", "count", full.segments as f64, "segments in the full campaign");

    report.value(
        "experiments.augment_s",
        "s",
        secs(phase("augment").busy),
        "pipeline::augment calls",
    );
    report.value(
        "experiments.serve_store_s",
        "s",
        secs(full.phases.get("serve_store").wall),
        "serve_store::build of the full campaign",
    );
    report.value(
        "experiments.peak_resident_traces",
        "count",
        peak_resident,
        "streaming engine watermark, untraced reference build",
    );

    report.value("ledger.commit_s", "s", secs(full.phases.get("commit").wall), "commit_with_aux");
    report.value("ledger.snapshot_bytes", "bytes", full.bytes as f64, "full campaign run file");
    report.value("ledger.load_s", "s", secs(load_d), "Ledger::load of the full campaign");
    report.value(
        "ledger.aux_load_s",
        "s",
        secs(slice.phases.get("aux_load").wall),
        "Ledger::load_aux",
    );
    report.value(
        "ledger.incremental_commit_s",
        "s",
        secs(slice.phases.get("incremental_commit").wall),
        "commit_incremental (serve_store + bridge + merge + commit)",
    );
    report.value(
        "ledger.diff_s",
        "s",
        secs(slice.phases.get("diff").wall),
        "Ledger::diff of the refresh against its base",
    );

    report.value(
        "serve.bridge_s",
        "s",
        secs(full.phases.get("bridge").wall),
        "snapshot_from_store",
    );
    report.value("serve.store_from_snapshot_s", "s", secs(store_from_d), "store_from_snapshot");
    report.median("serve.swap_s", "s", &probe.swap_s, "commit + ledger_watch::refresh");
    for (name, samples) in &probe.endpoints {
        let sorted = stats::sorted(samples);
        let n = sorted.len();
        report.value(
            &format!("serve.{name}_p50_ms"),
            "ms",
            stats::quantile_sorted(&sorted, 0.5),
            format!("{n} closed-loop requests"),
        );
        report.value(
            &format!("serve.{name}_p99_ms"),
            "ms",
            stats::quantile_sorted(&sorted, 0.99),
            format!("{n} closed-loop requests"),
        );
    }

    // Self-check: layer self times against the traced wall, and the
    // traced wall against the untraced one.
    let reference = stats::summarize(&reference_walls).median;
    let coverage = secs(full.phases.wall_sum()) / secs(full.wall);
    let overhead = secs(full.wall) / reference;
    let basis = format!("composed campaign vs {} untraced", reference_walls.len());
    report.value(
        "trace.coverage",
        "ratio",
        coverage,
        format!("layer self time / traced wall, {basis}"),
    );
    report.value(
        "trace.overhead",
        "ratio",
        overhead,
        format!("traced wall / untraced median, {basis}"),
    );

    eprintln!("per-layer self time of the composed campaign ({:.3} s):", secs(full.wall));
    for (layer, d) in full.phases.by_layer() {
        eprintln!("  {layer:<12} {:>8.3} s  {:>5.1}%", secs(d), 100.0 * secs(d) / secs(full.wall));
    }
    report
}
