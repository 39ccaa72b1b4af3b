"""ineqstats benchmark: four pipeline workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts worker processes one after
another (``bench/worker.py``, BLAS/OpenMP pinned to one thread; five
untraced, two traced), shares ``--seconds`` of timed passes among them,
and prints two JSON lines: the host provenance, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the ``end_to_end`` list of BENCHMARK.json with
``--trace 0`` and the ``per_layer`` list with ``--trace 1``.  An
operation counts as failed on an exception, a non-zero exit, a broken
correctness gate, data files that differ from another pass on the same
seed, or (traced) layer counts that differ from another traced pass.

``--small 1`` shrinks every workload for the harness self-check
(``bench/selfcheck.py``) and uses one process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 5           # untraced: set-up is measured once per process
TRACED_PROCESSES = 2    # traced: counts are compared across processes
DEADLINE_S = 170.0
# Claims tuned on other seeds are validated on this one.
HELD_OUT_SEED = 90210
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_workers(args) -> list[dict]:
    env = dict(os.environ, **{name: "1" for name in SINGLE_THREAD})
    env.pop("PYTHONPATH", None)
    processes = 1 if args.small else TRACED_PROCESSES if args.trace else PROCESSES
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + DEADLINE_S
    remaining = args.seconds
    results = []
    try:
        for i in range(processes):
            result_file = work / f"result-{i}.json"
            cmd = [sys.executable, str(HERE / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--budget", str(max(remaining, 0.0) / (processes - i)),
                   "--trace", str(args.trace), "--small", str(args.small),
                   "--work", str(work / f"p{i}"), "--result", str(result_file)]
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise SystemExit(f"worker {i} exited with code {proc.returncode}")
            results.append(json.loads(result_file.read_text()))
            remaining -= results[-1]["loop_s"]
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {DEADLINE_S:.0f} s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def check_repeats(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations over every pass, failing an
    operation whose data differ from an earlier pass on the same seed and
    every operation of a traced pass whose exact counts differ."""
    attempted = failed = 0
    errors: list[str] = []
    digests: dict[str, str] = {}
    counts = None
    for p in passes:
        count_error = None
        if p["traced"]:
            counts = counts or p["counts"]
            if p["counts"] != counts:
                diff = sorted(k for k in counts if p["counts"].get(k) != counts[k])
                count_error = f"layer counts differ between traced passes: {diff}"
        for key, _kind, _ms, error, digest in p["ops"]:
            attempted += 1
            if error is None and digest is not None:
                if digests.setdefault(key, digest) != digest:
                    error = "data files differ from an earlier pass on the same seed"
            error = error or count_error
            if error:
                failed += 1
                errors.append(f"{key}: {error}")
    return attempted, failed, errors


def best_pass_s(passes: list[dict]) -> float:
    """One pass's time at the fastest speed the run saw, in seconds.

    An operation's share of a pass is the median, over passes, of its
    latency divided by its pass's total.  Each latency divided by its
    operation's share is the pass time that sample implies; the smallest
    implied pass time is returned.  One fast sample of any operation is
    enough, so a run that spends most of its time on a contended machine
    still reports the uncontended cost.
    """
    shares: dict[str, list[float]] = {}
    for p in passes:
        total = sum(ms for _key, _kind, ms, *_ in p["ops"])
        for key, _kind, ms, *_ in p["ops"]:
            shares.setdefault(key, []).append(ms / total)
    share = {key: statistics.median(values) for key, values in shares.items()}
    return min(ms / share[key] for p in passes for key, _kind, ms, *_ in p["ops"]) / 1e3


def end_to_end(results: list[dict], passes: list[dict]) -> dict[str, float]:
    return {
        "wall_s": best_pass_s(passes),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(results: list[dict], passes: list[dict]) -> dict[str, float]:
    """The layer numbers of the fastest traced pass, plus the overhead of
    tracing on the best pass time."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = dict(min(traced, key=lambda p: p["wall_s"])["layers"])
    out["trace.overhead_s"] = best_pass_s(traced) - best_pass_s(untraced)
    return out


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(args, results: list[dict]) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        level = _read(index / "level")
        name = f"L{level}" + ({"Data": "d", "Instruction": "i"}.get(kind, ""))
        caches[name] = _read(index / "size")
    src_lines = sum(1 for path in sorted((ROOT / "src").rglob("*.py"))
                    for line in path.read_text(encoding="utf-8").splitlines()
                    if line.strip())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "commit": git_commit(),
        "src_nonblank_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "processes": len(results),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    results = run_workers(args)
    passes = [p for r in results for p in r["passes"]]
    attempted, failed, errors = check_repeats(passes)
    for line in errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    values = (per_layer if args.trace else end_to_end)(results, passes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")

    print(json.dumps({"provenance": provenance(args, results)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
