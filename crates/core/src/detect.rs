//! The AReST segment detector (§4).
//!
//! Walks an augmented trace and extracts SR-MPLS *segments*:
//! contiguous hop spans that raised one of the five flags. Sequence
//! flags (CVR/CO) are matched first — a hop claimed by a sequence is
//! not re-flagged by the per-hop stack flags (LSVR/LVR/LSO).

use crate::flags::Flag;
use crate::model::{AugmentedHop, AugmentedTrace};
use crate::ranges::label_in_sr_range;
use arest_fingerprint::combined::VendorEvidence;
use arest_obs::{Counter, SpanContext, Tracer};
use arest_wire::mpls::Label;
use std::fmt::Write as _;
use std::sync::LazyLock;

/// Cached handles into the global `arest-obs` registry: traces walked
/// and per-flag segment detections (free when observability is off).
struct ObsMetrics {
    /// `core.detect.traces` — traces run through the detector.
    traces: Counter,
    /// `core.detect.segments` — segments detected across all flags.
    segments: Counter,
    /// `core.detect.flag.{cvr,co,lsvr,lvr,lso}`, indexed by
    /// [`flag_slot`].
    flags: [Counter; 5],
}

/// The global registry's span tracer (inert while `AREST_OBS` is
/// off).
static TRACER: LazyLock<Tracer> = LazyLock::new(|| arest_obs::global().tracer());

static OBS: LazyLock<ObsMetrics> = LazyLock::new(|| {
    let registry = arest_obs::global();
    ObsMetrics {
        traces: registry.counter("core.detect.traces"),
        segments: registry.counter("core.detect.segments"),
        flags: [
            registry.counter("core.detect.flag.cvr"),
            registry.counter("core.detect.flag.co"),
            registry.counter("core.detect.flag.lsvr"),
            registry.counter("core.detect.flag.lvr"),
            registry.counter("core.detect.flag.lso"),
        ],
    }
});

fn flag_slot(flag: Flag) -> usize {
    match flag {
        Flag::Cvr => 0,
        Flag::Co => 1,
        Flag::Lsvr => 2,
        Flag::Lvr => 3,
        Flag::Lso => 4,
    }
}

/// Detector knobs. The defaults follow the paper; the alternatives
/// exist for the ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct DetectorConfig {
    /// Whether label sequences may match on a shared decimal suffix
    /// (handles neighbours with different SRGB bases, §4.1 footnote).
    pub suffix_matching: bool,
    /// Minimum number of hops in a CVR/CO sequence.
    pub min_sequence_len: usize,
    /// Whether RFC 6790 entropy pairs (an ELI special-purpose label
    /// and the entropy label under it) are excluded when measuring
    /// stack depth. Entropy labels exist purely for load balancing —
    /// they say nothing about steering — so counting them would let
    /// plain LDP + entropy masquerade as the multi-label stacks the
    /// LSVR/LSO flags key on. An implementation refinement over the
    /// paper, on by default; disable to reproduce the raw behaviour.
    pub ignore_entropy_labels: bool,
}

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig { suffix_matching: true, min_sequence_len: 2, ignore_entropy_labels: true }
    }
}

/// Steering stack depth: the hop's quoted stack with everything from
/// the first RFC 6790 Entropy Label Indicator downward cut off, since
/// that is load-balancing plumbing, not steering state. 0 when the
/// hop quoted no stack.
pub fn steering_depth(hop: &AugmentedHop) -> usize {
    let Some(stack) = &hop.stack else { return 0 };
    stack
        .entries()
        .iter()
        .position(|lse| lse.label == Label::ENTROPY_INDICATOR)
        .unwrap_or(stack.depth())
}

/// Stack depth as the detector sees it: the [`steering_depth`] when
/// entropy labels are ignored, the raw quoted depth otherwise.
fn effective_depth(hop: &AugmentedHop, config: &DetectorConfig) -> usize {
    if config.ignore_entropy_labels {
        steering_depth(hop)
    } else {
        hop.stack.as_ref().map_or(0, |stack| stack.depth())
    }
}

/// The evidence chain behind one detection: which hop triggered it,
/// what the detector consulted on the way, and which inputs tipped the
/// flag decision. Every [`DetectedSegment`] carries one, so a flag can
/// always be traced back to the probes and fingerprints that caused it
/// (rendered into `RUN_REPORT_provenance.txt` and recorded as span
/// fields by [`detect_segments_spanned`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// Index (in `trace.hops`) of the hop that triggered the
    /// detection: the first hop of a CVR/CO sequence, the flagged hop
    /// itself for the per-hop stack flags.
    pub trigger_hop: usize,
    /// Length of the matched label run (1 for per-hop flags).
    pub run_len: usize,
    /// Distinct replying addresses across the segment (the ≥2
    /// requirement that separates a sequence from a no-PHP egress
    /// quoting itself twice).
    pub distinct_addrs: usize,
    /// Label-stack entries the detector examined: one top label per
    /// sequence hop, the full visible stack for per-hop flags.
    pub lses_consulted: usize,
    /// Stack depth after RFC 6790 entropy-pair exclusion on the
    /// trigger hop — the depth the LSVR/LVR/LSO split keyed on.
    pub effective_depth: usize,
    /// The fingerprint verdict consulted: for CVR, the verdict of the
    /// hop whose own label confirmed a vendor SR range; for CO, the
    /// first fingerprinted hop in the sequence (consulted but not
    /// confirming); for per-hop flags, the hop's own verdict.
    pub fingerprint: Option<VendorEvidence>,
    /// Whether the consulted fingerprint mapped the active label into
    /// its vendor's SR range (the CVR-vs-CO and LSVR/LVR-vs-LSO
    /// discriminator).
    pub label_in_vendor_range: bool,
    /// Whether the sequence needed decimal-suffix matching at any
    /// point (always `false` for per-hop flags).
    pub suffix_matched: bool,
}

impl Provenance {
    /// One-line evidence chain, `key=value` pairs in causal order.
    #[must_use]
    pub fn chain(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "trigger_hop={} run_len={} distinct_addrs={} lses_consulted={} effective_depth={}",
            self.trigger_hop,
            self.run_len,
            self.distinct_addrs,
            self.lses_consulted,
            self.effective_depth,
        );
        match self.fingerprint {
            Some(evidence) => {
                let _ = write!(out, " fingerprint={evidence}");
            }
            None => out.push_str(" fingerprint=none"),
        }
        let _ = write!(
            out,
            " in_vendor_range={} suffix_matched={}",
            self.label_in_vendor_range, self.suffix_matched
        );
        out
    }
}

/// One detected SR-MPLS segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedSegment {
    /// The flag that fired.
    pub flag: Flag,
    /// Index of the first hop of the segment in `trace.hops`.
    pub start: usize,
    /// Index of the last hop (inclusive).
    pub end: usize,
    /// The active label that triggered the flag (the first hop's top
    /// label for sequences).
    pub label: Label,
    /// Whether the sequence needed suffix-based matching at any point
    /// (always `false` for non-sequence flags).
    pub suffix_based: bool,
    /// The evidence chain that produced this detection.
    pub provenance: Provenance,
}

impl DetectedSegment {
    /// Number of hops in the segment.
    pub fn hop_count(&self) -> usize {
        self.end - self.start + 1
    }
}

/// Runs the detector over one trace.
pub fn detect_segments(trace: &AugmentedTrace, config: &DetectorConfig) -> Vec<DetectedSegment> {
    detect_segments_spanned(trace, config, SpanContext::NONE)
}

/// [`detect_segments`] parented under an explicit span context: opens
/// a `core.detect.trace` span and records one `detection` field per
/// segment carrying its full [`Provenance`] chain.
pub fn detect_segments_spanned(
    trace: &AugmentedTrace,
    config: &DetectorConfig,
    parent: SpanContext,
) -> Vec<DetectedSegment> {
    let mut span = TRACER.span_with_parent("core.detect.trace", parent);
    let segments = detect_segments_inner(trace, config);
    if span.is_recording() {
        span.record("dst", trace.dst);
        span.record("segments", segments.len());
        for segment in &segments {
            span.record("detection", format!("{} {}", segment.flag, segment.provenance.chain()));
        }
    }
    segments
}

fn detect_segments_inner(trace: &AugmentedTrace, config: &DetectorConfig) -> Vec<DetectedSegment> {
    let hops = &trace.hops;
    let mut segments = Vec::new();
    let mut claimed = vec![false; hops.len()];

    // ---- Phase 1: label sequences (CVR / CO) ----
    let mut i = 0;
    while i < hops.len() {
        let Some(first_label) = hops[i].top_label() else {
            i += 1;
            continue;
        };
        let mut j = i;
        let mut prev_label = first_label;
        let mut suffix_based = false;
        while j + 1 < hops.len() {
            let Some(next_label) = hops[j + 1].top_label() else { break };
            if next_label == prev_label {
                j += 1;
                prev_label = next_label;
            } else if config.suffix_matching && next_label.suffix_matches(prev_label) {
                suffix_based = true;
                j += 1;
                prev_label = next_label;
            } else {
                break;
            }
        }
        let run_len = j - i + 1;
        // Label locality is per *router*: the same label quoted twice
        // by one address (e.g. a no-PHP egress occupying two TTL
        // slots) says nothing about SR. A sequence needs at least two
        // distinct replying addresses.
        let distinct_addrs = {
            let mut addrs: Vec<_> = hops[i..=j].iter().filter_map(|h| h.addr).collect();
            addrs.sort_unstable();
            addrs.dedup();
            addrs.len()
        };
        if run_len >= config.min_sequence_len && distinct_addrs >= 2 {
            // CVR needs at least one hop whose fingerprint maps its
            // own active label into a vendor SR range.
            let confirming_hop = (i..=j).find(|&k| {
                hops[k]
                    .evidence
                    .is_some_and(|e| hops[k].top_label().is_some_and(|l| label_in_sr_range(e, l)))
            });
            let flag = if confirming_hop.is_some() { Flag::Cvr } else { Flag::Co };
            // The verdict consulted: the confirming hop's for CVR,
            // otherwise the first fingerprinted hop in the sequence
            // (evidence seen, but not range-confirming).
            let fingerprint = confirming_hop
                .and_then(|k| hops[k].evidence)
                .or_else(|| hops[i..=j].iter().find_map(|h| h.evidence));
            segments.push(DetectedSegment {
                flag,
                start: i,
                end: j,
                label: first_label,
                suffix_based,
                provenance: Provenance {
                    trigger_hop: i,
                    run_len,
                    distinct_addrs,
                    // Sequence matching reads one top label per hop.
                    lses_consulted: run_len,
                    effective_depth: effective_depth(&hops[i], config),
                    fingerprint,
                    label_in_vendor_range: confirming_hop.is_some(),
                    suffix_matched: suffix_based,
                },
            });
            for claimed_slot in claimed.iter_mut().take(j + 1).skip(i) {
                *claimed_slot = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }

    // ---- Phase 2: per-hop stack flags (LSVR / LVR / LSO) ----
    for (idx, hop) in hops.iter().enumerate() {
        if claimed[idx] {
            continue;
        }
        let Some(label) = hop.top_label() else { continue };
        let depth = effective_depth(hop, config);
        if depth == 0 {
            // The visible stack is nothing but an entropy pair.
            continue;
        }
        let in_range = hop.evidence.is_some_and(|e| label_in_sr_range(e, label));
        let flag = if depth >= 2 {
            if in_range {
                Some(Flag::Lsvr)
            } else {
                Some(Flag::Lso)
            }
        } else if in_range {
            Some(Flag::Lvr)
        } else {
            // A lone label outside known ranges is indistinguishable
            // from classic MPLS — the stated false-negative case §6.3.
            None
        };
        if let Some(flag) = flag {
            segments.push(DetectedSegment {
                flag,
                start: idx,
                end: idx,
                label,
                suffix_based: false,
                provenance: Provenance {
                    trigger_hop: idx,
                    run_len: 1,
                    distinct_addrs: usize::from(hop.addr.is_some()),
                    // Per-hop flags examine the whole visible stack.
                    lses_consulted: hop.stack.as_ref().map_or(0, |s| s.depth()),
                    effective_depth: depth,
                    fingerprint: hop.evidence,
                    label_in_vendor_range: in_range,
                    suffix_matched: false,
                },
            });
        }
    }

    segments.sort_by_key(|s| (s.start, s.end));
    let obs = &*OBS;
    obs.traces.inc();
    obs.segments.add(segments.len() as u64);
    for segment in &segments {
        obs.flags[flag_slot(segment.flag)].inc();
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AugmentedHop;
    use arest_fingerprint::combined::VendorEvidence;
    use arest_topo::vendor::Vendor;
    use arest_wire::mpls::LabelStack;
    use std::net::Ipv4Addr;

    fn stack(labels: &[u32]) -> LabelStack {
        let labels: Vec<Label> = labels.iter().map(|&v| Label::new(v).unwrap()).collect();
        LabelStack::from_labels(&labels, 1)
    }

    fn hop(n: u8, labels: &[u32]) -> AugmentedHop {
        let addr = Ipv4Addr::new(10, 0, 0, n);
        if labels.is_empty() {
            AugmentedHop::ip(addr)
        } else {
            AugmentedHop::labeled(addr, stack(labels))
        }
    }

    fn with_evidence(mut h: AugmentedHop, e: VendorEvidence) -> AugmentedHop {
        h.evidence = Some(e);
        h
    }

    fn trace(hops: Vec<AugmentedHop>) -> AugmentedTrace {
        AugmentedTrace::new("vp", Ipv4Addr::new(203, 0, 113, 1), hops)
    }

    fn detect(hops: Vec<AugmentedHop>) -> Vec<DetectedSegment> {
        detect_segments(&trace(hops), &DetectorConfig::default())
    }

    // ---- The Fig. 6 walkthrough, flag by flag ----

    #[test]
    fn fig6_green_path_raises_cvr() {
        // 16,005 across P1..P3, with P1 fingerprinted Cisco.
        let segments = detect(vec![
            with_evidence(hop(1, &[16_005]), VendorEvidence::Exact(Vendor::Cisco)),
            hop(2, &[16_005]),
            hop(3, &[16_005]),
        ]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Cvr);
        assert_eq!((segments[0].start, segments[0].end), (0, 2));
        assert_eq!(segments[0].hop_count(), 3);
        assert!(!segments[0].suffix_based);
    }

    #[test]
    fn fig6_gray_path_raises_co() {
        // 17,005 across P4..P6, nobody fingerprinted: CO even though
        // the label value happens to sit inside Cisco's SRGB.
        let segments = detect(vec![hop(4, &[17_005]), hop(5, &[17_005]), hop(6, &[17_005])]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Co);
    }

    #[test]
    fn fig6_purple_path_raises_lsvr_and_excludes_neighbour() {
        // P7 (Cisco) quotes [20,000; 37,000]; P8 shows an unrelated
        // single label and must not join the segment.
        let segments = detect(vec![
            with_evidence(hop(7, &[20_000, 37_000]), VendorEvidence::Exact(Vendor::Cisco)),
            hop(8, &[345_129]),
        ]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Lsvr);
        assert_eq!((segments[0].start, segments[0].end), (0, 0));
    }

    #[test]
    fn fig6_blue_path_raises_lvr() {
        let segments =
            detect(vec![with_evidence(hop(9, &[16_105]), VendorEvidence::Exact(Vendor::Cisco))]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Lvr);
    }

    #[test]
    fn fig6_orange_path_raises_lso() {
        let segments = detect(vec![hop(10, &[345_100, 345_200])]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Lso);
    }

    // ---- Edge behaviour ----

    #[test]
    fn lone_unmapped_single_label_raises_nothing() {
        // The documented false-negative case (§6.3).
        assert!(detect(vec![hop(1, &[345_000])]).is_empty());
    }

    #[test]
    fn plain_ip_trace_raises_nothing() {
        assert!(detect(vec![hop(1, &[]), hop(2, &[]), hop(3, &[])]).is_empty());
    }

    #[test]
    fn suffix_matching_joins_differing_srgbs() {
        // The §4.1 footnote example: 16,005 → 13,005.
        let segments = detect(vec![hop(1, &[16_005]), hop(2, &[13_005])]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Co);
        assert!(segments[0].suffix_based);
    }

    #[test]
    fn suffix_matching_can_be_ablated() {
        let config = DetectorConfig { suffix_matching: false, ..Default::default() };
        let t = trace(vec![hop(1, &[16_005]), hop(2, &[13_005])]);
        let segments = detect_segments(&t, &config);
        // Without suffix matching the two lone labels fall through to
        // per-hop flags; neither carries evidence → nothing at all
        // for the 13,005 one, LVR impossible, so nothing fires.
        assert!(segments.iter().all(|s| s.flag != Flag::Co && s.flag != Flag::Cvr));
    }

    #[test]
    fn silent_hop_breaks_a_sequence() {
        let silent = AugmentedHop {
            addr: None,
            stack: None,
            evidence: None,
            revealed: false,
            quoted_ip_ttl: None,
            is_destination: false,
        };
        let segments = detect(vec![hop(1, &[17_000]), silent, hop(3, &[17_000])]);
        assert!(segments.iter().all(|s| s.flag != Flag::Co), "no sequence across a gap");
    }

    #[test]
    fn cvr_needs_the_evidence_hop_to_match_its_own_label() {
        // P2 is fingerprinted Juniper (no published ranges): even
        // though 16,005 is in Cisco's SRGB, no hop maps ITS label via
        // ITS vendor → CO, not CVR.
        let segments = detect(vec![
            hop(1, &[16_005]),
            with_evidence(hop(2, &[16_005]), VendorEvidence::Exact(Vendor::Juniper)),
        ]);
        assert_eq!(segments[0].flag, Flag::Co);
    }

    #[test]
    fn ttl_evidence_uses_intersection_for_cvr() {
        // TTL fingerprint (Cisco-or-Huawei) + label 40,000: inside
        // Huawei's SRGB but outside the intersection → CO.
        let segments = detect(vec![
            with_evidence(hop(1, &[40_000]), VendorEvidence::CiscoOrHuawei),
            hop(2, &[40_000]),
        ]);
        assert_eq!(segments[0].flag, Flag::Co);
        // Same shape with 16,005 (inside the intersection) → CVR.
        let segments = detect(vec![
            with_evidence(hop(1, &[16_005]), VendorEvidence::CiscoOrHuawei),
            hop(2, &[16_005]),
        ]);
        assert_eq!(segments[0].flag, Flag::Cvr);
    }

    #[test]
    fn sequence_consumes_hops_before_stack_flags() {
        // Three hops with deep stacks and the same top label: one CO
        // segment, not three LSO segments.
        let segments = detect(vec![
            hop(1, &[17_000, 99_000]),
            hop(2, &[17_000, 99_000]),
            hop(3, &[17_000, 99_000]),
        ]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Co);
    }

    #[test]
    fn mixed_trace_yields_multiple_segments_in_order() {
        let segments = detect(vec![
            hop(1, &[]),       // IP
            hop(2, &[17_005]), // CO (with next)
            hop(3, &[17_005]),
            hop(4, &[]),                                                     // IP
            hop(5, &[600_000, 700_000]),                                     // LSO
            with_evidence(hop(6, &[16_009]), VendorEvidence::CiscoOrHuawei), // LVR
        ]);
        let flags: Vec<Flag> = segments.iter().map(|s| s.flag).collect();
        assert_eq!(flags, vec![Flag::Co, Flag::Lso, Flag::Lvr]);
        assert!(segments.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn entropy_pairs_do_not_fake_deep_stacks() {
        // [transport, ELI(7), EL]: an LDP LSP with RFC 6790 entropy.
        // With the default config the effective depth is 1 and the
        // transport label sits outside every vendor range → nothing.
        let entropy_hop = hop(1, &[600_000, 7, 412_345]);
        assert!(detect(vec![entropy_hop.clone()]).is_empty());

        // Disabling the refinement reproduces the raw reading: depth 3
        // → LSO.
        let config = DetectorConfig { ignore_entropy_labels: false, ..Default::default() };
        let t = trace(vec![entropy_hop]);
        let segments = detect_segments(&t, &config);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Lso);
    }

    #[test]
    fn entropy_below_a_real_stack_still_counts_the_real_part() {
        // [sr-ish, service, ELI, EL]: effective depth 2 → LSO (no
        // evidence), the entropy tail ignored.
        let segments = detect(vec![hop(1, &[600_000, 700_000, 7, 99_000])]);
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].flag, Flag::Lso);
    }

    // ---- Provenance ----

    #[test]
    fn cvr_provenance_names_the_confirming_fingerprint() {
        let segments = detect(vec![
            hop(1, &[16_005]),
            with_evidence(hop(2, &[16_005]), VendorEvidence::Exact(Vendor::Cisco)),
            hop(3, &[16_005]),
        ]);
        assert_eq!(segments[0].flag, Flag::Cvr);
        let p = &segments[0].provenance;
        assert_eq!(p.trigger_hop, 0);
        assert_eq!(p.run_len, 3);
        assert_eq!(p.distinct_addrs, 3);
        assert_eq!(p.lses_consulted, 3, "one top label per sequence hop");
        assert_eq!(p.fingerprint, Some(VendorEvidence::Exact(Vendor::Cisco)));
        assert!(p.label_in_vendor_range);
        assert!(!p.suffix_matched);
        let chain = p.chain();
        assert!(chain.contains("trigger_hop=0"), "{chain}");
        assert!(chain.contains("fingerprint=Cisco "), "{chain}");
        assert!(chain.contains("in_vendor_range=true"), "{chain}");
    }

    #[test]
    fn co_provenance_records_consulted_but_unconfirming_evidence() {
        // Juniper evidence was consulted, but Juniper publishes no
        // ranges → CO with the verdict preserved in the chain.
        let segments = detect(vec![
            hop(1, &[16_005]),
            with_evidence(hop(2, &[16_005]), VendorEvidence::Exact(Vendor::Juniper)),
        ]);
        assert_eq!(segments[0].flag, Flag::Co);
        let p = &segments[0].provenance;
        assert_eq!(p.fingerprint, Some(VendorEvidence::Exact(Vendor::Juniper)));
        assert!(!p.label_in_vendor_range);
        // And with nobody fingerprinted at all:
        let segments = detect(vec![hop(4, &[17_005]), hop(5, &[17_005])]);
        assert_eq!(segments[0].provenance.fingerprint, None);
        assert!(segments[0].provenance.chain().contains("fingerprint=none"));
    }

    #[test]
    fn stack_flag_provenance_counts_the_full_visible_stack() {
        // [sr-ish, service, ELI, EL]: 4 LSEs consulted, effective
        // depth 2 after the entropy pair is excluded.
        let segments = detect(vec![hop(1, &[600_000, 700_000, 7, 99_000])]);
        assert_eq!(segments[0].flag, Flag::Lso);
        let p = &segments[0].provenance;
        assert_eq!(p.trigger_hop, 0);
        assert_eq!(p.run_len, 1);
        assert_eq!(p.lses_consulted, 4);
        assert_eq!(p.effective_depth, 2);
        assert_eq!(p.fingerprint, None);
        assert!(!p.label_in_vendor_range);
    }

    #[test]
    fn suffix_matched_sequences_say_so_in_their_chain() {
        let segments = detect(vec![hop(1, &[16_005]), hop(2, &[13_005])]);
        assert!(segments[0].provenance.suffix_matched);
        assert!(segments[0].provenance.chain().contains("suffix_matched=true"));
    }

    #[test]
    fn longer_min_sequence_len_demotes_pairs() {
        let config = DetectorConfig { min_sequence_len: 3, ..Default::default() };
        let t = trace(vec![hop(1, &[17_005]), hop(2, &[17_005])]);
        let segments = detect_segments(&t, &config);
        assert!(segments.iter().all(|s| s.flag != Flag::Co));
    }
}
