#!/usr/bin/env python3
"""Builds and runs the AReST benchmark harness.

    python3 perfbench/run.py --workload <campaign|catalog-x10>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--record FILE]

Run it from the root of a checkout. It builds the harness in
perfbench/harness (release profile, offline) into $CARGO_TARGET_DIR,
default .bench_build, runs one measurement, and prints the harness's
result object as the last line of standard output. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

--record FILE appends the run (workload, seed, trace, host facts, every
metric with its quartiles and notes) as one JSON line to FILE, for
perfbench/compare.py.

Exits non-zero, without printing a result, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ("campaign", "catalog-x10")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def host_facts():
    """Cores, available parallelism, and the git revision if known."""
    rev = "unknown"
    # Only a checkout that is itself a repository: git must not walk up
    # into directories outside it.
    if os.path.exists(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())),
            )
            if out.returncode == 0:
                rev = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cores": os.cpu_count(),
        "available_parallelism": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "serve_probe_transport": "loopback TCP (127.0.0.1)",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run as a JSON line to FILE")
    args = ap.parse_args()

    if not os.path.isfile(MANIFEST):
        fail(f"missing {MANIFEST}")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("building the harness failed")
    binary = os.path.join(target_dir, "release", "arest-perfbench")

    facts = host_facts()
    print(
        "perfbench: host {cores} cores, available parallelism {available_parallelism}, "
        "git {git_rev}, serve probe over {serve_probe_transport}".format(**facts),
        file=sys.stderr,
    )
    work_dir = os.path.join(target_dir, "perfbench-work")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode != 0 or len(lines) < 2:
        fail(f"the harness failed (exit {run.returncode})")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])

    for name, m in detail["metrics"].items():
        spread = ""
        if "q1" in m:
            spread = f"  [q1 {m['q1']:.6g} .. q3 {m['q3']:.6g}, n={m['n']}]"
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']:<6}{spread}  {m['note']}")
    print(
        f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
    )
    if args.record:
        record = dict(detail, host=facts, result=result)
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
