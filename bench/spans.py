"""Outside-in tracer for the ineqstats benchmark.

The library is not edited.  For the length of a traced pass, each target
callable is replaced by a timing wrapper through attribute substitution:

* a module-level function is replaced in *every* loaded ``ineqstats``
  module that holds it, found by identity, so names bound with
  ``from .x import f`` (``cli.fit_report``, ``cli.couple_systems``,
  ``cli.stationary_solution``, the package re-exports, ...) are rebound
  along with the defining module;
* a method or classmethod is replaced on its class.

Spans nest on one stack, so each finished span knows its parent: its
duration is added to the parent's child time (giving ``self_s``) or, at
the bottom of the stack, to the top-level total (giving coverage).  A
counter of open spans per name answers "is this call under X?", which is
how model builds are attributed to the crossover search and to the
refinement.  Spans are aggregated as they close rather than stored, so a
pass with tens of thousands of calls keeps a constant footprint.

Targets that no longer exist are skipped, so a later change that removes
or renames a function reports zero for it instead of breaking the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# Span name -> (owner, attribute).  The owner is a module path or a
# "module:Class" path.
TARGETS = {
    "cli.dispatch": ("ineqstats.cli", "dispatch"),
    "io.write_csv": ("ineqstats.io", "write_csv"),
    "io.write_json": ("ineqstats.io", "write_json"),
    "io.sha256_file": ("ineqstats.io", "sha256_file"),
    "kinetic.run_simulation": ("ineqstats.kinetic", "run_simulation"),
    "kinetic.BinnedHistogram.from_ensemble": ("ineqstats.kinetic:BinnedHistogram",
                                              "from_ensemble"),
    "kinetic.entropy": ("ineqstats.kinetic", "entropy"),
    "kinetic.couple_systems": ("ineqstats.kinetic", "couple_systems"),
    "distributions.TwoClassModel": ("ineqstats.distributions:TwoClassModel",
                                    "__init__"),
    "distributions.TwoClassModel.cdf": ("ineqstats.distributions:TwoClassModel",
                                        "cdf"),
    "income.from_csv": ("ineqstats.income:IncomeBinTable", "from_csv"),
    "income.fit_report": ("ineqstats.income", "fit_report"),
    "income.fit_temperature": ("ineqstats.income", "fit_temperature"),
    "income.fit_pareto_exponent": ("ineqstats.income", "fit_pareto_exponent"),
    "income.fit_crossover": ("ineqstats.income", "fit_crossover"),
    "income.refine_parameters": ("ineqstats.income", "refine_parameters"),
    "fokker_planck.make_grid": ("ineqstats.fokker_planck", "make_grid"),
    "fokker_planck.stationary_solution": ("ineqstats.fokker_planck",
                                          "stationary_solution"),
    "fokker_planck.evolve_transient": ("ineqstats.fokker_planck",
                                       "evolve_transient"),
    "energy.ingest_wri": ("ineqstats.energy", "ingest_wri"),
    "energy.weighted_cdf": ("ineqstats.energy", "weighted_cdf"),
    "energy.lorenz_energy": ("ineqstats.energy", "lorenz_energy"),
    "energy.slope_profile": ("ineqstats.energy", "slope_profile"),
    "energy.world_average": ("ineqstats.energy", "world_average"),
    "weighted.WeightedCDF": ("ineqstats.weighted:WeightedCDF", "__init__"),
}

CHECKPOINT_SPANS = ("kinetic.BinnedHistogram.from_ensemble", "kinetic.entropy")
ANALYTICS_SPANS = ("energy.weighted_cdf", "energy.lorenz_energy",
                   "energy.slope_profile", "energy.world_average")


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# Observers run when a span closes and turn arguments or results into
# layer counters.  They take (tracer, fn, args, kwargs, result).

def _file_bytes(key):
    def observe(tr, fn, args, kwargs, result):
        tr.counts[key] += os.path.getsize(_argument(fn, args, kwargs, "path"))
    return observe


def _run_simulation(tr, fn, args, kwargs, result):
    tr.counts["kinetic.attempts"] += int(result.steps[-1])


def _entropy(tr, fn, args, kwargs, result):
    if tr.active["kinetic.run_simulation"]:
        tr.counts["kinetic.checkpoints"] += 1


def _couple_systems(tr, fn, args, kwargs, result):
    tr.counts["kinetic.couple.events"] += result.events
    tr.counts["kinetic.couple.exchanges_accepted"] += result.exchanges_accepted
    tr.counts["kinetic.couple.migrations_accepted"] += result.migrations_accepted


def _model_build(tr, fn, args, kwargs, result):
    if tr.active["income.fit_crossover"]:
        tr.counts["income.fit_crossover.evals"] += 1
    if tr.active["income.refine_parameters"]:
        tr.counts["income.refine.evals"] += 1


def _fit_crossover(tr, fn, args, kwargs, result):
    tr.counts["income.crossover.grid_fallbacks"] += result.method == "grid"
    tr.counts["income.crossover.degenerate"] += bool(result.degenerate)


def _make_grid(tr, fn, args, kwargs, result):
    tr.counts["fokker_planck.grid_points"] += len(result)


def _evolve_transient(tr, fn, args, kwargs, result):
    tr.counts["fokker_planck.transient_steps"] += _argument(fn, args, kwargs, "steps")


def _ingest_wri(tr, fn, args, kwargs, result):
    _records, drops = result
    tr.counts["energy.rows_read"] += drops.joined + drops.n_dropped
    tr.counts["energy.rows_dropped"] += drops.n_dropped


OBSERVERS = {
    "io.write_csv": _file_bytes("io.write_csv.bytes"),
    "io.sha256_file": _file_bytes("io.sha256_file.bytes"),
    "kinetic.run_simulation": _run_simulation,
    "kinetic.entropy": _entropy,
    "kinetic.couple_systems": _couple_systems,
    "distributions.TwoClassModel": _model_build,
    "income.fit_crossover": _fit_crossover,
    "fokker_planck.make_grid": _make_grid,
    "fokker_planck.evolve_transient": _evolve_transient,
    "energy.ingest_wri": _ingest_wri,
}

# Counters that must repeat exactly between two passes on the same seed.
COUNTERS = ("io.write_csv.bytes", "io.sha256_file.bytes", "kinetic.attempts",
            "kinetic.checkpoints", "kinetic.couple.events",
            "kinetic.couple.exchanges_accepted",
            "kinetic.couple.migrations_accepted", "income.fit_crossover.evals",
            "income.refine.evals", "income.crossover.grid_fallbacks",
            "income.crossover.degenerate", "fokker_planck.grid_points",
            "fokker_planck.transient_steps", "energy.rows_read",
            "energy.rows_dropped")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = sys.modules.get(module_name)
    if obj is not None and class_name:
        obj = getattr(obj, class_name, None)
    return obj


class Tracer:
    """Span stack plus per-name aggregates for one traced pass."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.active = defaultdict(int)
        self.top_level_s = 0.0
        self._stack: list[list] = []      # [name, child seconds]
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        stack, active = self._stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                active[name] -= 1
                self.busy[name] += took
                self.self_time[name] += took - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += took
                else:
                    self.top_level_s += took
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ineqstats" or n.startswith("ineqstats."))]
        for name, (owner_path, attr) in TARGETS.items():
            owner = _resolve(owner_path)
            if owner is None:
                continue
            if isinstance(owner, type):
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__))
                else:
                    replacement = self._wrap(name, original)
                setattr(owner, attr, replacement)
                self._undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            replacement = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers for one traced pass of ``wall_s`` seconds."""
        busy, calls, counts = self.busy, self.calls, self.counts

        def per(numerator, denominator, scale=1.0):
            return scale * numerator / denominator if denominator else 0.0

        rounds_s = self.self_time["kinetic.run_simulation"]
        couple_s = busy["kinetic.couple_systems"]
        model_calls = calls["distributions.TwoClassModel"]
        return {
            "cli.dispatch.calls": calls["cli.dispatch"],
            "cli.dispatch.busy_s": busy["cli.dispatch"],
            "cli.dispatch.self_s": self.self_time["cli.dispatch"],
            "io.write_csv.calls": calls["io.write_csv"],
            "io.write_csv.busy_s": busy["io.write_csv"],
            "io.write_csv.bytes": counts["io.write_csv.bytes"],
            "io.write_json.busy_s": busy["io.write_json"],
            "io.sha256_file.busy_s": busy["io.sha256_file"],
            "io.sha256_file.bytes": counts["io.sha256_file.bytes"],
            "kinetic.run_simulation.calls": calls["kinetic.run_simulation"],
            "kinetic.run_simulation.busy_s": busy["kinetic.run_simulation"],
            "kinetic.rounds.self_s": rounds_s,
            "kinetic.attempts": counts["kinetic.attempts"],
            "kinetic.attempts_per_s": per(counts["kinetic.attempts"], rounds_s),
            "kinetic.checkpoint.busy_s": sum(busy[n] for n in CHECKPOINT_SPANS),
            "kinetic.checkpoints": counts["kinetic.checkpoints"],
            "kinetic.couple_systems.calls": calls["kinetic.couple_systems"],
            "kinetic.couple_systems.busy_s": couple_s,
            "kinetic.couple.events": counts["kinetic.couple.events"],
            "kinetic.couple.exchanges_accepted": counts["kinetic.couple.exchanges_accepted"],
            "kinetic.couple.migrations_accepted": counts["kinetic.couple.migrations_accepted"],
            "kinetic.couple.accept_ratio": per(
                counts["kinetic.couple.exchanges_accepted"]
                + counts["kinetic.couple.migrations_accepted"],
                counts["kinetic.couple.events"]),
            "kinetic.couple.us_per_event": per(couple_s, counts["kinetic.couple.events"], 1e6),
            "distributions.TwoClassModel.calls": model_calls,
            "distributions.TwoClassModel.busy_s": busy["distributions.TwoClassModel"],
            "distributions.TwoClassModel.ms_per_call": per(
                busy["distributions.TwoClassModel"], model_calls, 1e3),
            "distributions.TwoClassModel.cdf.calls": calls["distributions.TwoClassModel.cdf"],
            "distributions.TwoClassModel.cdf.busy_s": busy["distributions.TwoClassModel.cdf"],
            "income.from_csv.busy_s": busy["income.from_csv"],
            "income.fit_report.calls": calls["income.fit_report"],
            "income.fit_report.busy_s": busy["income.fit_report"],
            "income.fit_report.self_s": self.self_time["income.fit_report"],
            "income.fit_temperature.busy_s": busy["income.fit_temperature"],
            "income.fit_pareto_exponent.busy_s": busy["income.fit_pareto_exponent"],
            "income.fit_crossover.busy_s": busy["income.fit_crossover"],
            "income.fit_crossover.evals": counts["income.fit_crossover.evals"],
            "income.crossover.grid_fallbacks": counts["income.crossover.grid_fallbacks"],
            "income.crossover.degenerate": counts["income.crossover.degenerate"],
            "income.refine_parameters.busy_s": busy["income.refine_parameters"],
            "income.refine.evals": counts["income.refine.evals"],
            "fokker_planck.make_grid.busy_s": busy["fokker_planck.make_grid"],
            "fokker_planck.grid_points": counts["fokker_planck.grid_points"],
            "fokker_planck.stationary_solution.calls": calls["fokker_planck.stationary_solution"],
            "fokker_planck.stationary_solution.busy_s": busy["fokker_planck.stationary_solution"],
            "fokker_planck.evolve_transient.busy_s": busy["fokker_planck.evolve_transient"],
            "fokker_planck.transient_steps": counts["fokker_planck.transient_steps"],
            "fokker_planck.us_per_step": per(busy["fokker_planck.evolve_transient"],
                                             counts["fokker_planck.transient_steps"], 1e6),
            "energy.ingest_wri.calls": calls["energy.ingest_wri"],
            "energy.ingest_wri.busy_s": busy["energy.ingest_wri"],
            "energy.rows_read": counts["energy.rows_read"],
            "energy.rows_dropped": counts["energy.rows_dropped"],
            "energy.analytics.busy_s": sum(busy[n] for n in ANALYTICS_SPANS),
            "weighted.WeightedCDF.calls": calls["weighted.WeightedCDF"],
            "weighted.WeightedCDF.busy_s": busy["weighted.WeightedCDF"],
            "trace.coverage": per(self.top_level_s, wall_s),
        }

    def exact_counts(self) -> dict[str, int]:
        """Every count that must repeat exactly on the same seed."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out.update({key: self.counts[key] for key in COUNTERS})
        return out
