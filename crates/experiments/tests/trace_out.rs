//! End-to-end `--trace-out` acceptance: the runner must emit a Chrome
//! trace-event JSON that actually parses (validated by the
//! recursive-descent parser below, not by eyeballing), a collapsed
//! flamegraph stack file, and `RUN_REPORT_provenance.txt` — and the
//! `pipeline.stage.*.us` timings in `RUN_REPORT.csv` must agree with
//! the span-derived stage durations within tolerance.
//!
//! These tests spawn the binary in subprocesses, so they never touch
//! this process's global registry and can share one test binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn trace_out_emits_valid_chrome_trace_flamegraph_and_provenance() {
    let dir = scratch_dir("trace-out");
    let out = Command::new(env!("CARGO_BIN_EXE_arest-experiments"))
        .args(["--quick", "--obs", "--trace-out"])
        .arg(&dir)
        .arg("--out")
        .arg(&dir)
        .arg("all")
        .output()
        .expect("spawn arest-experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "runner failed: {}\n{stderr}", out.status);
    // Every build of the run (`ablation` and `longitudinal` rebuild)
    // must fit the span ring: an eviction leaves a partial trace.json.
    assert!(!stderr.contains("span ring evicted"), "spans were evicted:\n{stderr}");

    // trace.json must be well-formed Chrome trace-event JSON.
    let trace = Json::parse(&read(&dir.join("trace.json"))).expect("trace.json must parse");
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty(), "a full run must record spans");
    let mut saw_build = false;
    for event in events {
        let name = event.get("name").and_then(Json::as_str).expect("event name");
        saw_build |= name == "pipeline.build";
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"), "complete events only");
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(event.get(key).and_then(Json::as_f64).is_some(), "{name} missing {key}");
        }
        let args = event.get("args").expect("event args");
        assert!(args.get("span_id").and_then(Json::as_f64).is_some(), "{name} missing span_id");
    }
    assert!(saw_build, "root pipeline.build span missing from trace.json");

    // trace.folded: `stack;frames weight` lines, weights numeric.
    let folded = read(&dir.join("trace.folded"));
    assert!(!folded.trim().is_empty(), "flamegraph output empty");
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` format");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        weight.parse::<u64>().unwrap_or_else(|e| panic!("bad weight in {line:?}: {e}"));
    }
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("pipeline.build;") || l.starts_with("pipeline.build ")),
        "flamegraph must be rooted at pipeline.build:\n{folded}"
    );

    // Provenance artifact: one evidence chain per detection.
    let provenance = read(&dir.join("RUN_REPORT_provenance.txt"));
    assert!(provenance.starts_with("RUN_REPORT_provenance"), "{provenance}");
    assert!(provenance.contains("trigger_hop="), "evidence chains missing:\n{provenance}");
    assert!(provenance.contains("fingerprint="), "evidence chains missing:\n{provenance}");

    // `--obs --out` still writes the metrics reports next to the traces.
    assert!(dir.join("RUN_REPORT.txt").exists(), "RUN_REPORT.txt missing");
    assert!(dir.join("RUN_REPORT.csv").exists(), "RUN_REPORT.csv missing");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_report_stage_timings_agree_with_span_durations() {
    let dir = scratch_dir("trace-stages");
    // One build, so the span ring holds exactly that build's
    // pipeline.stage.* spans and each stage histogram one sample.
    let status = Command::new(env!("CARGO_BIN_EXE_arest-experiments"))
        .args(["--quick", "--workers", "1", "--trace-out"])
        .arg(&dir)
        .arg("--out")
        .arg(&dir)
        .arg("headline")
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn arest-experiments");
    assert!(status.success(), "runner failed: {status}");

    // `histogram,pipeline.stage.{name}.us,,count,sum,…` rows.
    let csv = read(&dir.join("RUN_REPORT.csv"));
    let stages: Vec<(String, f64)> = csv
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            let name = fields.get(1)?.strip_prefix("pipeline.stage.")?.strip_suffix(".us")?;
            assert_eq!(fields[0], "histogram", "{line}");
            assert_eq!(fields[3], "1", "one build, one sample: {line}");
            Some((name.to_string(), fields[4].parse().expect("stage sum")))
        })
        .collect();
    let names: Vec<&str> = stages.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["generate", "stream"], "RUN_REPORT.csv must report both stages");

    let trace = Json::parse(&read(&dir.join("trace.json"))).expect("trace json");
    let events = trace.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let span_us = |name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .map(|e| e.get("dur").and_then(Json::as_f64).expect("dur"))
            .sum()
    };

    // Generation traces by phase and by AS: every netgen phase hangs
    // off the generate stage, and the deploy phase holds one unit per
    // deployed AS (the quick catalog deploys all 60), each naming its
    // ASN.
    let arg = |e: &Json, key: &str| e.get("args").and_then(|a| a.get(key)).and_then(Json::as_f64);
    let named = |name: &str| -> Vec<&Json> {
        events.iter().filter(|e| e.get("name").and_then(Json::as_str) == Some(name)).collect()
    };
    let generate = named("pipeline.stage.generate");
    assert_eq!(generate.len(), 1, "one build, one generate stage");
    let generate_id = arg(generate[0], "span_id").expect("generate span id");
    for phase in ["plan", "providers", "vps", "deploy", "exits", "bgp"] {
        let spans = named(&format!("netgen.phase.{phase}"));
        assert_eq!(spans.len(), 1, "one netgen.phase.{phase} span");
        assert_eq!(arg(spans[0], "parent_id"), Some(generate_id), "{phase} under generate");
    }
    let deploy_id = arg(named("netgen.phase.deploy")[0], "span_id").expect("deploy span id");
    let install = named("netgen.phase.install");
    assert_eq!(install.len(), 1, "one serial install");
    assert_eq!(arg(install[0], "parent_id"), Some(deploy_id), "install under deploy");
    let units = named("netgen.deploy.unit");
    assert_eq!(units.len(), 60, "one deploy unit per AS");
    let mut asns: Vec<u64> = units
        .iter()
        .map(|u| {
            assert_eq!(arg(u, "parent_id"), Some(deploy_id), "deploy units under deploy");
            arg(u, "asn").expect("deploy unit records its ASN") as u64
        })
        .collect();
    asns.sort_unstable();
    asns.dedup();
    assert_eq!(asns.len(), 60, "each AS deploys exactly once");

    for (name, report_us) in stages {
        let from_spans = span_us(&format!("pipeline.stage.{name}"));
        assert!(from_spans > 0.0, "no pipeline.stage.{name} span recorded");
        let tolerance = (report_us * 0.25).max(150_000.0);
        assert!(
            (report_us - from_spans).abs() <= tolerance,
            "stage {name}: RUN_REPORT says {report_us:.0}us, spans say {from_spans:.0}us \
             (tolerance {tolerance:.0}us)"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Minimal recursive-descent JSON parser — enough to *validate* the
/// exporters' output in-tree without a serde dependency. Rejects
/// trailing garbage, unterminated strings, and malformed escapes.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&byte) if byte < 0x20 => {
                return Err(format!("raw control byte {byte:#04x} in string"));
            }
            Some(_) => {
                // Consume one UTF-8 scalar, decoded from a window of at
                // most 4 bytes (the longest scalar): validating the
                // whole rest of the input per character made parsing
                // quadratic in the document size.
                let window = &bytes[*pos..bytes.len().min(*pos + 4)];
                let valid = match std::str::from_utf8(window) {
                    Ok(text) => text,
                    Err(e) => std::str::from_utf8(&window[..e.valid_up_to()])
                        .map_err(|e| e.to_string())?,
                };
                let ch = valid.chars().next().ok_or("invalid UTF-8 in string")?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected `,` or `]`, got {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        entries.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            other => return Err(format!("expected `,` or `}}`, got {other:?}")),
        }
    }
}
