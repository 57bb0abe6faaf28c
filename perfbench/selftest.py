#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny instances of every workload.

  python3 perfbench/selftest.py

For each workload minrej_perfbench knows (BENCHMARK.json lists the steady
ones; dense_burst is left out there) it runs the benchmark command with
--tiny twice untraced and once traced, and checks that
  * every run exits 0 and ends with a result line that has exactly the keys
    correct, attempted, failed and metrics, with correct true and no
    failed arrivals;
  * the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) list, each with its declared unit and a finite value;
  * the deterministic metrics (rejection_cost_ratio,
    service.oversubscribed_units, core.augmentation_steps,
    core.alpha_phases) repeat exactly for a fixed seed;
  * oversubscription is 0 on the shard-disjoint dense_burst and nonzero on
    setcover_ft;
  * the traced run wrote spans for every layer.
It also checks that the command fails, without a result line, in a
directory that holds only BENCHMARK.json and perfbench/.
Writes only under .bench_build/.  Exits 1 on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "selftest"
SEED = 7
WORKLOADS = ("dense_burst", "power_law", "setcover_ft")
LAYERS = {"sim", "service", "core", "io", "offline", "driver"}
DETERMINISTIC = ("rejection_cost_ratio", "service.oversubscribed_units",
                 "core.augmentation_steps", "core.alpha_phases")


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_bench(spec, workload, trace, report, cwd=ROOT):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "1", "--trace", str(trace),
                             "--tiny", "--report", str(report)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def result_line(done, what):
    if done.returncode != 0:
        fail(f"{what}: exit {done.returncode}\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{what}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}")
    return result


def check_metrics(result, declared, what):
    got = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(got) != sorted(names):
        fail(f"{what}: metrics {sorted(got)} != declared {sorted(names)}")
    for m in declared:
        value = got[m["name"]]
        if value["unit"] != m["unit"]:
            fail(f"{what}: {m['name']} unit {value['unit']} != {m['unit']}")
        if not isinstance(value["value"], (int, float)) or \
                not math.isfinite(value["value"]):
            fail(f"{what}: {m['name']} value {value['value']!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for w in WORKLOADS:
        reports = []
        for rep in range(2):
            path = WORK / f"{w}-{rep}.json"
            done = run_bench(spec, w, 0, path)
            check_metrics(result_line(done, f"{w} untraced"),
                          spec["end_to_end"], f"{w} untraced")
            reports.append(json.loads(path.read_text()))
        for name in DETERMINISTIC:
            section = "end_to_end" if name in reports[0]["end_to_end"] \
                else "per_layer"
            a, b = (r[section][name]["value"] for r in reports)
            if a != b:
                fail(f"{w}: {name} differs between runs of seed {SEED}: "
                     f"{a} vs {b}")
        layer = reports[0]["per_layer"]
        oversub = layer["service.oversubscribed_units"]["value"]
        if w == "dense_burst" and oversub != 0:
            fail(f"dense_burst oversubscribed {oversub} units")
        if w == "setcover_ft" and oversub <= 0:
            fail("setcover_ft shows no oversubscription")

        done = run_bench(spec, w, 1, WORK / f"{w}-traced.json")
        check_metrics(result_line(done, f"{w} traced"), spec["per_layer"],
                      f"{w} traced")
        spans = WORK / f"{w}.spans.jsonl"
        seen = {json.loads(line)["layer"]
                for line in spans.read_text().splitlines()}
        if seen != LAYERS:
            fail(f"{w}: spans cover layers {sorted(seen)}, "
                 f"want {sorted(LAYERS)}")
        print(f"selftest: {w} ok")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(spec, spec["workloads"][0]["name"], 0,
                     bare / "report.json", cwd=bare)
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        fail("the benchmark ran without the sources next to it")
    print("selftest: fails cleanly without the sources")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
