"""One benchmark process: set up a workload, run timed passes, check them.

    python3 bench/worker.py --workload NAME --seed N --budget SECONDS \
        --trace 0|1 --small 0|1 --work DIR --result FILE

``run.py`` starts several of these one after another and aggregates
their result files.  Set-up time is measured from the top of this file,
before numpy and ineqstats are imported, to the end of input generation
and warm-up.  Passes then run until the budget is spent (at least one;
with tracing, untraced and traced passes alternate and at least one of
each runs).  ineqstats is always imported from ``src/`` of the checkout
that holds this file.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import ineqstats  # noqa: E402

if not Path(ineqstats.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"ineqstats was imported from {ineqstats.__file__}, not from {SRC}")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_pass(workload, out: Path, traced: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        ops, state = workload.run(out)
    finally:
        wall_s = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    workload.check(ops, state, out)
    record = {
        "traced": traced,
        "wall_s": wall_s,
        "ops": [[op.key, op.kind, op.ms, op.error, op.digest] for op in ops],
    }
    if tracer:
        record["layers"] = tracer.layer_metrics(wall_s)
        record["counts"] = tracer.exact_counts()
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](small=bool(args.small))
    workload.setup(args.work, args.seed)
    setup_s = time.perf_counter() - _START

    passes = []
    loop_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, args.work / "pass", traced))
        elapsed = time.perf_counter() - loop_start
        if len(passes) < 1 + args.trace:
            continue
        # stop when one more pass would end nearer past the budget than
        # stopping now falls short of it
        if elapsed + 0.5 * elapsed / len(passes) > args.budget:
            break

    args.result.write_text(json.dumps({
        "loop_s": elapsed,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "passes": passes,
    }))


if __name__ == "__main__":
    main()
