"""Command-line entry point.

Four subcommands cover the pipelines: ``simulate`` (kinetic money
exchange, optionally a coupled two-system run), ``fp`` (stationary
income diffusion solutions), ``fit-income`` (two-class fitting of a
binned income table) and ``energy`` (per-capita consumption analytics).

Every run writes its data files plus a ``manifest.json`` recording the
configuration, the SHA-256 digest of the bytes it read from each input
(a pipe's too), the Python, numpy and machine that made its bytes, with
the target of numpy's float64 exp, log, power, arctan and expm1 loops on
this CPU, and the list of outputs, so a run can be reproduced and
verified exactly.
Each input is opened once: its digest is taken from the bytes the run
read, not from the path again once the outputs are written.  Exit codes:
0 success, 1 domain/data errors, 2 usage errors.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import platform
import sys
import time
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from . import __version__
from .energy import ingest_wri, slope_profile, weighted_cdf
from .errors import IneqStatsError
from .fokker_planck import DriftDiffusionSpec, make_grid, stationary_solution
from .income import IncomeBinTable, fit_report
from .io import (build_config, inputs_read, json_object, read_text, recording_inputs,
                 write_csv, write_json)
from .kinetic import (BinnedHistogram, CoupledConfig, SimulationConfig,
                      couple_systems, init_ensemble, run_from_config,
                      run_simulation)

__all__ = ["build_parser", "dispatch", "emit_manifest", "main"]


# the float64 ufuncs whose loop numpy picks by CPU feature and whose last
# place the outputs depend on
_DISPATCHED = ("exp", "log", "power", "arctan", "expm1")


@functools.cache
def _dispatch_targets() -> dict[str, str]:
    """The target of numpy's float64 loop for each ufunc of
    ``_DISPATCHED`` in this process, as ``opt_func_info`` names it."""
    return {name: target["current"] for name in _DISPATCHED
            for target in opt_func_info(func_name=f"^{name}$",
                                        signature="float64")[name].values()}


def emit_manifest(out_dir: Path, subcommand: str, config: dict,
                  outputs: list[str]) -> None:
    """Write manifest.json: config in effect, the SHA-256 of the bytes
    read from each input, as the readers entered it in the run's record
    (``dispatch`` opens one; no input is opened again), the Python, numpy,
    machine and numpy float64 dispatch targets that made the outputs, and
    the outputs."""
    manifest = {
        "tool": "ineqstats",
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "subcommand": subcommand,
        "config": config,
        "inputs": inputs_read(),
        "python": sys.version,
        "numpy": np.__version__,
        "machine": platform.machine(),
        "dispatch": _dispatch_targets(),
        "outputs": sorted(outputs),
    }
    write_json(out_dir / "manifest.json", manifest)


def _out_dir(path) -> Path:
    """The --out directory, created: a run calls this once its checks and
    its computation have passed, so a refused run leaves no directory."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# run flags named otherwise than the config fields they set
_OPTIONS = {"n_agents": "--agents", "total_money_quanta": "--money",
            "n_agents2": "--agents2", "total_money_quanta2": "--money2"}


def _option(field: str) -> str:
    return _OPTIONS.get(field, "--" + field.replace("_", "-"))


def _given(args, document: str | None = None) -> dict:
    """The run flags given, by config field: argparse leaves the others None."""
    return {name: value for name, value in vars(args).items()
            if value is not None and name not in ("subcommand", "out", document)}


def _bind(func, flags: dict) -> dict:
    """The flags given that ``func`` takes, and its defaults for the rest."""
    signature = inspect.signature(func)
    bound = signature.bind_partial(**{name: value for name, value in flags.items()
                                      if name in signature.parameters})
    bound.apply_defaults()
    return bound.arguments


def _refuse(flags, unread, mode: str) -> None:
    """Exit 1 naming the first flag given in ``unread``: the run would drop it."""
    for name in flags:
        if name in unread:
            raise IneqStatsError(f"{_option(name)} is not read {mode}")


def _values(args, document: str, flags: dict, covered, what: str) -> dict:
    """The values a config is built from: the JSON object in the
    ``document`` file if it is given, which replaces the flags in
    ``covered`` (any given is refused), and else those flags."""
    if getattr(args, document) is None:
        return {name: value for name, value in flags.items() if name in covered}
    _refuse(flags, covered, f"with --{document.replace('_', '-')}")
    return json_object(read_text(getattr(args, document)), what)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _run_single(out_path, config: SimulationConfig) -> list[str]:
    traj = run_from_config(config)
    out = _out_dir(out_path)
    qv = config.quantum_value
    write_csv(out / "trajectory.csv", ("step", "entropy", "temperature"),
              (traj.steps, traj.entropy, traj.temperature * qv))
    hist = traj.final_histogram
    write_csv(out / "histogram.csv", ("bin_lower", "count"),
              (hist.bin_lowers() * qv, hist.counts))
    print(f"simulated {traj.steps[-1]} exchange attempts; "
          f"final entropy {traj.entropy[-1]:.1f}", file=sys.stderr)
    return ["trajectory.csv", "histogram.csv"]


def _run_coupled(out_path, config: CoupledConfig) -> list[str]:
    rule = config.exchange_rule()
    ens1 = init_ensemble(config.n_agents, config.total_money_quanta)
    ens2 = init_ensemble(config.n_agents2, config.total_money_quanta2)
    rng = np.random.default_rng(config.seed)
    run_simulation(ens1, rule, config.steps, seed=rng)
    run_simulation(ens2, rule, config.steps, seed=rng)
    report = couple_systems(ens1, ens2, rule, config.events,
                            config.migration_rate, seed=rng)
    out = _out_dir(out_path)
    (out / "flux.json").write_text(report.to_json() + "\n", encoding="utf-8")
    for tag, ens in (("1", ens1), ("2", ens2)):
        hist = BinnedHistogram.from_ensemble(ens, origin=rule.floor)
        write_csv(out / f"histogram{tag}.csv", ("bin_lower", "count"),
                  (hist.bin_lowers(), hist.counts))
    print(f"coupled run: dM={report.delta_money} dN={report.delta_agents} "
          f"dS_est={report.delta_entropy_estimate:.4f}", file=sys.stderr)
    return ["flux.json", "histogram1.csv", "histogram2.csv"]


def _cmd_simulate(args) -> int:
    flags = _given(args, "config")
    values = _values(args, "config", flags, flags, "simulation config")
    coupled = not values.keys().isdisjoint({"n_agents2", "total_money_quanta2"})
    cls = CoupledConfig if coupled else SimulationConfig
    if args.config is None:
        required = [f.name for f in fields(cls) if f.default is MISSING]
        missing = [name for name in required if name not in flags]
        if missing:
            print(f"usage: simulate needs --config or all of "
                  f"{'/'.join(map(_option, required))} "
                  f"(missing: {', '.join(map(_option, missing))})", file=sys.stderr)
            return 2
        _refuse(flags, flags.keys() - {f.name for f in fields(cls)},
                "in coupled mode" if coupled else "without --agents2/--money2")
    config = build_config(cls, values, "simulation config")
    outputs = (_run_coupled if coupled else _run_single)(args.out, config)
    out = Path(args.out)
    (out / "config.json").write_text(json.dumps(asdict(config)) + "\n", encoding="utf-8")
    emit_manifest(out, "simulate", asdict(config), outputs + ["config.json"])
    return 0


# ---------------------------------------------------------------------------
# fp
# ---------------------------------------------------------------------------


def _cmd_fp(args) -> int:
    flags = _given(args, "spec_json")
    spec_fields = {f.name for f in fields(DriftDiffusionSpec)}
    what = "drift/diffusion spec"
    spec = build_config(DriftDiffusionSpec,
                        _values(args, "spec_json", flags, spec_fields, what), what)
    grid_args = _bind(make_grid, flags)
    grid = make_grid(spec, **grid_args)
    dist = stationary_solution(spec, grid)
    out = _out_dir(args.out)
    write_csv(out / "solution.csv", ("r", "density"), (dist.grid, dist.density))
    (out / "spec.json").write_text(spec.to_json() + "\n", encoding="utf-8")
    emit_manifest(out, "fp", {**asdict(spec), **grid_args}, ["solution.csv", "spec.json"])
    print(f"stationary solution on {grid.size} grid points", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# fit-income
# ---------------------------------------------------------------------------


def _cmd_fit_income(args) -> int:
    flags = {name: tuple(value) if isinstance(value, list) else value   # windows are tuples
             for name, value in _given(args, "input").items()}
    read_args = _bind(IncomeBinTable.from_csv, flags)
    fit_args = _bind(fit_report, flags)
    table = IncomeBinTable.from_csv(args.input, **read_args)
    report = fit_report(table, **fit_args)
    curve = table.bin_incomes(max(report.alpha_staged, 1.0001)).lorenz()
    out = _out_dir(args.out)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    write_csv(out / "lorenz.csv", ("x", "y"), (curve.x, curve.y))
    print(report.table_row())
    emit_manifest(out, "fit-income", {"input": args.input, **read_args, **fit_args},
                  ["report.json", "lorenz.csv"])
    return 0


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def _cmd_energy(args) -> int:
    table, drops = ingest_wri(args.energy, args.population, args.year,
                              per_capita=args.per_capita)
    if drops.n_dropped:
        print(f"dropped {drops.n_dropped} rows:", file=sys.stderr)
        for name, reason in drops.dropped:
            print(f"  {name}: {reason}", file=sys.stderr)
    cdf = weighted_cdf(table)
    curve = cdf.lorenz()
    profile = slope_profile(curve)
    out = _out_dir(args.out)
    write_csv(out / "cdf.csv", ("epsilon_kw", "C"), (cdf.values, cdf.complementary))
    write_csv(out / "lorenz.csv", ("x", "y"), (curve.x, curve.y))
    write_json(out / "summary.json", {
        "year": args.year,
        "countries": len(table),
        "world_avg_kw": cdf.mean,
        "gini": curve.gini,
        "kink_x": profile.kink_x,
    })
    emit_manifest(out, "energy", _given(args), ["cdf.csv", "lorenz.csv", "summary.json"])
    print(f"{len(table)} countries; world average "
          f"{cdf.mean:.3f} kW", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqstats",
        description="Kinetic money exchange, income diffusion and "
                    "energy-consumption inequality pipelines.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # run flags default to None, "not given": the config types own the defaults
    sim = sub.add_parser("simulate", help="kinetic money-exchange simulation")
    sim.add_argument("--config", help="JSON run config whose keys are the fields of "
                     "SimulationConfig, or of CoupledConfig when it holds n_agents2 or "
                     "total_money_quanta2; replaces the individual flags")
    sim.add_argument("--agents", dest="n_agents", type=int)
    sim.add_argument("--money", dest="total_money_quanta", type=int,
                     help="total money in quanta")
    sim.add_argument("--steps", type=int, help="number of exchange attempts")
    sim.add_argument("--rule", choices=("fixed", "uniform"))
    sim.add_argument("--delta", type=int,
                     help="transfer scale in quanta (default: 1 for fixed, "
                          "2*money/agents for uniform)")
    sim.add_argument("--floor", type=int, help="minimum balance; negative enables debt")
    sim.add_argument("--quantum-value", type=float,
                     help="money value of one quantum, for output scaling")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--checkpoint-every", type=int)
    sim.add_argument("--agents2", dest="n_agents2", type=int,
                     help="second system size (enables coupled mode)")
    sim.add_argument("--money2", dest="total_money_quanta2", type=int,
                     help="second system total money in quanta")
    sim.add_argument("--migration-rate", type=float)
    sim.add_argument("--events", type=int, help="coupling events in coupled mode")
    sim.add_argument("--out", required=True)

    fp = sub.add_parser("fp", help="stationary income diffusion solution")
    fp.add_argument("--kind", choices=("additive", "multiplicative", "combined"))
    fp.add_argument("--a0", type=float)
    fp.add_argument("--a", type=float)
    fp.add_argument("--b0", type=float)
    fp.add_argument("--b", type=float)
    fp.add_argument("--spec-json", help="read the spec from a JSON file instead of flags")
    fp.add_argument("--r-max", type=float)
    fp.add_argument("--r-min", type=float, help="grid start (required > 0 for multiplicative)")
    fp.add_argument("--points-per-decade", type=int)
    fp.add_argument("--out", required=True)

    fit = sub.add_parser("fit-income", help="two-class income fit")
    fit.add_argument("--input", required=True,
                     help="CSV: level_kusd,returns_at_or_above (or in-bin)")
    fit.add_argument("--mode", choices=("at-or-above", "in-bin"))
    fit.add_argument("--year", type=int)
    fit.add_argument("--exp-window", type=float, nargs=2, metavar=("LO", "HI"))
    fit.add_argument("--tail-window", type=float, nargs=2, metavar=("LO", "HI"))
    fit.add_argument("--no-refine", dest="refine", action="store_false", default=None,
                     help="skip the joint refinement pass")
    fit.add_argument("--out", required=True)

    en = sub.add_parser("energy", help="energy-consumption inequality")
    en.add_argument("--energy", required=True, help="CSV: country,year,value")
    en.add_argument("--population", required=True, help="CSV: country,year,value")
    en.add_argument("--year", type=int, required=True)
    en.add_argument("--per-capita", action="store_true",
                    help="energy values are already kW per capita")
    en.add_argument("--out", required=True)

    return parser


_COMMANDS = {"simulate": _cmd_simulate, "fp": _cmd_fp,
             "fit-income": _cmd_fit_income, "energy": _cmd_energy}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``dispatch`` reuses: building one costs about 0.7 ms, a
    sixth of a small ``fit-income`` run, and parsing leaves it unchanged."""
    return build_parser()


def dispatch(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with recording_inputs():
            return _COMMANDS[args.subcommand](args)
    except (IneqStatsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
