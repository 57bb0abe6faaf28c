#!/usr/bin/env python3
"""Benchmark entry point named by BENCHMARK.json.

Builds the benchmark package (perfbench/, which compiles the minrej
libraries from src/) as a Release build under .bench_build/perfbench, runs
one workload through minrej_perfbench, and prints the result:

  python3 perfbench/run.py --rate dense_burst=49000 --rate power_law=150000 \
      --rate setcover_ft=80000 --workload power_law --seed 3 --seconds 10 \
      --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  metrics holds BENCHMARK.json's end_to_end
metrics under --trace 0 and its per_layer metrics under --trace 1.  The
full report (both metric sets plus provenance) is written to --report, and
a traced run writes its spans next to it.  --tiny runs a small instance of
the workload, for tests.

Exits nonzero without a result when the sources or BENCHMARK.json are
missing, the build fails, a correctness check fails, or a metric is
missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "perfbench-results"
BINARY = BUILD / "minrej_perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--rate", action="append", default=[], metavar="WORKLOAD=R",
                   help="open-loop offered rate (arrivals/s) of a workload")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--report", type=Path, default=None)
    return p.parse_args(argv)


def offered_rate(rates, workload):
    for item in rates:
        name, _, value = item.partition("=")
        if name == workload:
            return float(value)
    raise BenchError(f"no --rate given for workload '{workload}'")


def source_digest():
    """sha256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"minrej sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "minrej_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv):
    args = parse_args(argv)
    declared = declared_metrics(args.trace)
    rate = offered_rate(args.rate, args.workload)
    build()

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report_path = args.report or RESULTS / f"{stem}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rate", repr(rate)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        # One spans file per workload (tens of MB), replaced by each run.
        spans = report_path.parent / f"{args.workload}.spans.jsonl"
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"benchmark run exceeded {RUN_TIMEOUT_S} s") from e
    if done.returncode != 0:
        raise BenchError(f"minrej_perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("minrej_perfbench printed no report")
    report = json.loads(lines[-1])
    report["provenance"]["source_digest"] = source_digest()
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    measured = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            raise BenchError(f"metric {m['name']} missing from the report")
        if got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} has unit {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    print(f"report: {report_path}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
