#!/usr/bin/env bash
# The full local CI gate. Run from anywhere inside the repository;
# everything must pass before a change is mergeable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> concurrency allowlist lint"
tools/conc_lint.sh

echo "==> cargo build --release (examples included)"
cargo build --workspace --release --examples
cargo build --workspace --release

echo "==> benchmark harness build (read-only; a public-API break fails here)"
cargo build --release --offline --manifest-path perfbench/harness/Cargo.toml \
    --target-dir target/perfbench-harness

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> model-check: exhaustive concurrency invariant suites"
cargo test -p arest-conc --features model-check --quiet
cargo test -p crossbeam --features model-check --quiet --test model
cargo test -p arest-tnt --features model-check --quiet --test model_pool
cargo test -p arest-obs --features model-check --quiet --test model_obs
cargo test -p arest-fingerprint --features model-check --quiet --test model_cache
cargo test -p arest-fingerprint --features model-check --quiet --test model_cache_rehydrate
cargo test -p arest-experiments --features model-check --quiet --test model_window
cargo test -p arest-serve --features model-check --quiet --test model_serve
cargo test -p arest-serve --features model-check --quiet --test model_store_cell

echo "==> cargo doc (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Smoke runs write their RUN_REPORT.* and trace artifacts into
# BENCH_OUT, so a smoke run never overwrites the committed reports in
# the tree. A caller (CI) may name the directory to keep them; it is
# then left in place. Otherwise a temp dir is used and removed.
if [[ -n "${BENCH_OUT:-}" ]]; then
    mkdir -p "$BENCH_OUT"
    OWN_BENCH_OUT=0
else
    BENCH_OUT=$(mktemp -d)
    OWN_BENCH_OUT=1
fi

echo "==> the README's cargo run form reaches the experiments CLI (default-run)"
# (the usage goes to stderr)
cargo run --release -p arest-experiments -- --help 2>&1 | grep -q '^usage: arest-experiments '

echo "==> removed bench modes are refused before any build (perfbench/ is the benchmark)"
REFUSED_LOG=$(mktemp)
REFUSED_STATUS=0
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick bench-pipeline 2>"$REFUSED_LOG" || REFUSED_STATUS=$?
test "$REFUSED_STATUS" -eq 1
grep -q 'unknown experiment id' "$REFUSED_LOG"
rm -f "$REFUSED_LOG"

echo "==> netgen catalog-scale smoke run (10x replication)"
cargo run --release -p arest-netgen --bin netgen -- --scale 10 --scale-factor 0.01 --vps 2 \
    | grep -q "total: 600 ASes"

echo "==> catalog-scale smoke run (quick build at catalog x2)"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --catalog-scale 2 headline >/dev/null

echo "==> streaming dataflow smoke run (--stream per-AS progress rows)"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --stream headline >/dev/null

echo "==> observability smoke run (RUN_REPORT + trace artifacts)"
AREST_OBS=1 cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --out "$BENCH_OUT" --trace-out "$BENCH_OUT/trace-artifacts" \
    headline audit >/dev/null
test -s "$BENCH_OUT/RUN_REPORT.txt"
test -s "$BENCH_OUT/RUN_REPORT.csv"
test -s "$BENCH_OUT/trace-artifacts/trace.json"
test -s "$BENCH_OUT/trace-artifacts/trace.folded"
test -s "$BENCH_OUT/trace-artifacts/RUN_REPORT_provenance.txt"

echo "==> default-scale trace run (a whole campaign fits the span ring)"
FULL_TRACE=$(mktemp -d)
AREST_OBS=1 cargo run --release -p arest-experiments --bin arest-experiments -- \
    --out "$FULL_TRACE" --trace-out "$FULL_TRACE" headline >/dev/null 2>"$FULL_TRACE/stderr.txt"
test -s "$FULL_TRACE/trace.json"
if grep 'span ring evicted' "$FULL_TRACE/stderr.txt"; then
    exit 1
fi
rm -rf "$FULL_TRACE"

echo "==> tracing example smoke run"
cargo run --release --example tracing >/dev/null

echo "==> arest-trace smoke run (Paris + TNT revelation, then MDA enumeration)"
# arest-trace is the only caller of multipath_trace. Output goes to a
# file before grepping, as for `history` below.
TRACE_LOG=$(mktemp -d)
cargo run --release -p arest-experiments --bin arest-trace > "$TRACE_LOG/plain.txt"
grep -q '^traceroute to .* (reached):' "$TRACE_LOG/plain.txt"
grep -q 'AReST: ' "$TRACE_LOG/plain.txt"
# The default AS fires no revelation trigger; AS 2 hides tunnel
# interiors that TNT must reveal.
cargo run --release -p arest-experiments --bin arest-trace -- --as 2 > "$TRACE_LOG/reveal.txt"
grep -q '(revealed)$' "$TRACE_LOG/reveal.txt"
cargo run --release -p arest-experiments --bin arest-trace -- --mda > "$TRACE_LOG/mda.txt"
grep -q '^MDA toward .* (max width [1-9][0-9]*):' "$TRACE_LOG/mda.txt"
grep -q '(16 flows)' "$TRACE_LOG/mda.txt"
rm -rf "$TRACE_LOG"

echo "==> arest-serve smoke run (ephemeral port, live /status + /metrics)"
SERVE_LOG=$(mktemp)
SERVE_OUT=$(mktemp -d)    # serve forces --obs; keep its RUN_REPORT out of the tree
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --out "$SERVE_OUT" serve --listen 127.0.0.1:0 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 100); do
    SERVE_URL=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$SERVE_LOG" || true)
    [[ -n "$SERVE_URL" ]] && break
    sleep 0.2
done
test -n "$SERVE_URL"
curl -sf "$SERVE_URL/status" | grep -q '"status": "serving"'
curl -sf "$SERVE_URL/metrics" | grep -q 'serve_http_requests_status 1'
kill -INT "$SERVE_PID"
wait "$SERVE_PID"    # graceful SIGINT drain must exit 0
test -s "$SERVE_OUT/RUN_REPORT.txt"
rm -rf "$SERVE_LOG" "$SERVE_OUT"

echo "==> ledger smoke run (two campaigns, history, announce/withdraw diff)"
LEDGER_DIR=$(mktemp -d)
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --ledger "$LEDGER_DIR" headline >/dev/null
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --seed 11 --ledger "$LEDGER_DIR" headline >/dev/null
# `grep -q` may close the pipe mid-listing; the listing still exits 0.
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --ledger "$LEDGER_DIR" history | grep -q '2 committed run(s)'
DELTA_DIR=$(mktemp -d)
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --ledger "$LEDGER_DIR" --out "$DELTA_DIR" diff 1 2 > "$DELTA_DIR/stdout.txt"
grep -q '^announce ' "$DELTA_DIR/stdout.txt"
grep -q '^withdraw ' "$DELTA_DIR/stdout.txt"
test -s "$DELTA_DIR/RUN_REPORT_delta.txt"
rm -rf "$LEDGER_DIR" "$DELTA_DIR"

echo "==> incremental smoke run (full campaign, 1-AS re-probe, carry-forward delta)"
INCR_DIR=$(mktemp -d)
INCR_OUT=$(mktemp -d)
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --ledger "$INCR_DIR" headline >/dev/null
# Re-probe a single catalog AS against run 1: everything else is
# carried forward and the deterministic build leaves an empty delta.
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --ledger "$INCR_DIR" --reprobe as15169 --base 1 --out "$INCR_OUT" \
    headline >/dev/null 2>"$INCR_OUT/stderr.txt"
grep -q 'rehydrating fingerprint cache from run 1' "$INCR_OUT/stderr.txt"
grep -q 'incremental against run 1: 1 fresh, 59 carried' "$INCR_OUT/stderr.txt"
grep -q 'no detection-level differences' "$INCR_OUT/RUN_REPORT_delta.txt"
rm -rf "$INCR_DIR" "$INCR_OUT"

if [[ $OWN_BENCH_OUT == 1 ]]; then
    rm -rf "$BENCH_OUT"
fi

echo "==> all checks passed"
