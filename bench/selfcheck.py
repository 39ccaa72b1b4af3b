"""Fast self-check of the benchmark harness (about a minute).

    python3 bench/selfcheck.py

Runs every workload at reduced size (``--small 1``: one process, one
pass of each kind), untraced and traced, and checks that

* the last line of output holds exactly ``correct``, ``attempted``,
  ``failed`` and ``metrics``, with every run correct and nothing failed;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) names of BENCHMARK.json, each a finite number with its unit,
  the end-to-end ones positive;
* the traced spans at the bottom of the stack cover at least 95% of the
  traced pass;
* a second traced run on the same seed repeats every count exactly;
* in a directory holding only BENCHMARK.json and ``bench/`` the benchmark
  exits non-zero without printing a result.

Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT_UNITS = ("count", "bytes")


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--small", "1"],
        cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    if proc.returncode != 0:
        sys.exit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        sys.exit(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                 f"failed={result['failed']}\n{proc.stderr}")
    return result


def check_metrics(result: dict, wanted: list[dict], label: str, positive: bool) -> None:
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        sys.exit(f"{label}: metric names differ from BENCHMARK.json: "
                 f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got[m["name"]]
        value = entry["value"]
        if entry["unit"] != m["unit"]:
            sys.exit(f"{label}: {m['name']} has unit {entry['unit']!r}, not {m['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or (positive and value <= 0):
            sys.exit(f"{label}: {m['name']} = {value!r}")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "equilibrate", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        sys.exit("bare directory: the benchmark ran without the program")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        label = f"{workload} untraced"
        check_metrics(result_of(bench(ROOT, workload, 0), label), spec["end_to_end"],
                      label, positive=True)
        traced = []
        for attempt in (1, 2):
            label = f"{workload} traced #{attempt}"
            result = result_of(bench(ROOT, workload, 1), label)
            check_metrics(result, spec["per_layer"], label, positive=False)
            traced.append(result["metrics"])
        coverage = traced[0]["trace.coverage"]["value"]
        if coverage < 0.95:
            sys.exit(f"{workload}: top-level spans cover {coverage:.3f} of the traced pass")
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
        differ = [n for n in exact if traced[0][n]["value"] != traced[1][n]["value"]]
        if differ:
            sys.exit(f"{workload}: counts differ between same-seed runs: {differ}")
        print(f"ok  {workload}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics, coverage {coverage:.3f}, "
              f"{len(exact)} counts repeat exactly")
    check_bare_directory()
    print("ok  bare directory: exits non-zero without a result")


if __name__ == "__main__":
    main()
