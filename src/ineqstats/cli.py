"""Command-line entry point.

Four subcommands cover the pipelines: ``simulate`` (kinetic money
exchange, optionally a coupled two-system run), ``fp`` (stationary
income diffusion solutions), ``fit-income`` (two-class fitting of a
binned income table) and ``energy`` (per-capita consumption analytics).

Every run writes its data files plus a ``manifest.json`` recording the
configuration, SHA-256 digests of the inputs and the list of outputs, so
a run can be reproduced and verified exactly.  Exit codes: 0 success,
1 domain/data errors, 2 usage errors.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .energy import ingest_wri, slope_profile, weighted_cdf
from .errors import IneqStatsError
from .fokker_planck import DriftDiffusionSpec, make_grid, stationary_solution
from .income import IncomeBinTable, fit_report
from .io import read_text, sha256_file, write_csv, write_json
from .kinetic import (BinnedHistogram, SimulationConfig, couple_systems,
                      init_ensemble, run_from_config, run_simulation)

__all__ = ["build_parser", "dispatch", "emit_manifest", "main"]


def emit_manifest(out_dir: Path, subcommand: str, config: dict,
                  inputs: list, outputs: list[str]) -> None:
    """Write manifest.json: config echo, input digests, output list."""
    manifest = {
        "tool": "ineqstats",
        "version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": sorted(outputs),
    }
    write_json(out_dir / "manifest.json", manifest)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_echo(args) -> dict:
    skip = {"func", "flag_default"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _reject_unread(args, names, mode: str) -> None:
    """Fail on a flag in ``names`` set away from its parser default: the
    chosen ``mode`` never reads it, so running would silently drop it."""
    for name in names:
        if getattr(args, name) != args.flag_default(name):
            raise IneqStatsError(f"--{name.replace('_', '-')} is not read {mode}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    out = _out_dir(args)
    outputs = []
    inputs = []

    coupled = args.agents2 is not None or args.money2 is not None
    if args.config:
        if coupled:
            print("usage: --config covers single-system runs only", file=sys.stderr)
            return 2
        _reject_unread(args, ("agents", "money", "steps", "seed", "rule", "delta",
                              "floor", "quantum_value", "checkpoint_every",
                              "migration_rate", "events"), "with --config")
        config = SimulationConfig.from_json(read_text(args.config))
        inputs.append(args.config)
    else:
        missing = [name for name in ("agents", "money", "steps", "seed")
                   if getattr(args, name) is None]
        if missing:
            print("usage: simulate needs --config or all of "
                  "--agents/--money/--steps/--seed "
                  f"(missing: {', '.join('--' + m for m in missing)})",
                  file=sys.stderr)
            return 2
        if coupled:
            _reject_unread(args, ("quantum_value", "checkpoint_every"),
                           "in coupled mode")
        else:
            _reject_unread(args, ("migration_rate", "events"),
                           "without --agents2/--money2")
        config = SimulationConfig(
            n_agents=args.agents, total_money_quanta=args.money,
            steps=args.steps, seed=args.seed, rule=args.rule,
            delta=args.delta, floor=args.floor,
            quantum_value=args.quantum_value,
            checkpoint_every=args.checkpoint_every)

    if coupled:
        if args.agents2 is None or args.money2 is None:
            raise IneqStatsError("coupled mode needs both --agents2 and --money2")
        rule = config.exchange_rule()
        ens1 = init_ensemble(config.n_agents, config.total_money_quanta)
        ens2 = init_ensemble(args.agents2, args.money2)
        rng = np.random.default_rng(config.seed)
        run_simulation(ens1, rule, config.steps, rng=rng)
        run_simulation(ens2, rule, config.steps, rng=rng)
        report = couple_systems(ens1, ens2, rule, args.events,
                                args.migration_rate, rng=rng)
        (out / "flux.json").write_text(report.to_json() + "\n", encoding="utf-8")
        outputs.append("flux.json")
        for tag, ens in (("1", ens1), ("2", ens2)):
            hist = BinnedHistogram.from_ensemble(ens, origin=rule.floor)
            name = f"histogram{tag}.csv"
            write_csv(out / name, ("bin_lower", "count"),
                      zip(hist.bin_lowers().tolist(), hist.counts.tolist()))
            outputs.append(name)
        print(f"coupled run: dM={report.delta_money} dN={report.delta_agents} "
              f"dS_est={report.delta_entropy_estimate:.4f}", file=sys.stderr)
        config_echo = _config_echo(args)
    else:
        traj = run_from_config(config)
        qv = config.quantum_value
        write_csv(out / "trajectory.csv", ("step", "entropy", "temperature"),
                  [(s, e, t * qv) for s, e, t in traj.rows()])
        hist = traj.final_histogram
        write_csv(out / "histogram.csv", ("bin_lower", "count"),
                  zip((hist.bin_lowers() * qv).tolist(), hist.counts.tolist()))
        (out / "config.json").write_text(config.to_json() + "\n", encoding="utf-8")
        outputs += ["trajectory.csv", "histogram.csv", "config.json"]
        print(f"simulated {traj.steps[-1]} exchange attempts; "
              f"final entropy {traj.entropy[-1]:.1f}", file=sys.stderr)
        config_echo = json.loads(config.to_json())

    emit_manifest(out, "simulate", config_echo, inputs, outputs)
    return 0


# ---------------------------------------------------------------------------
# fp
# ---------------------------------------------------------------------------


def _cmd_fp(args) -> int:
    out = _out_dir(args)
    inputs = []
    if args.spec_json:
        _reject_unread(args, ("kind", "a0", "a", "b0", "b"), "with --spec-json")
        spec = DriftDiffusionSpec.from_json(read_text(args.spec_json))
        inputs.append(args.spec_json)
    else:
        spec = DriftDiffusionSpec(kind=args.kind, a0=args.a0, a=args.a,
                                  b0=args.b0, b=args.b)
    grid = make_grid(spec, r_max=args.r_max, r_min=args.r_min,
                     points_per_decade=args.points_per_decade)
    dist = stationary_solution(spec, grid)
    write_csv(out / "solution.csv", ("r", "density"), dist.rows())
    (out / "spec.json").write_text(spec.to_json() + "\n", encoding="utf-8")
    emit_manifest(out, "fp", _config_echo(args), inputs,
                  ["solution.csv", "spec.json"])
    print(f"stationary solution on {grid.size} grid points", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# fit-income
# ---------------------------------------------------------------------------


def _cmd_fit_income(args) -> int:
    out = _out_dir(args)
    table = IncomeBinTable.from_csv(args.input, mode=args.mode, year=args.year)
    report = fit_report(table,
                        exp_window=tuple(args.exp_window),
                        tail_window=tuple(args.tail_window),
                        refine=not args.no_refine)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    curve = table.bin_incomes(max(report.alpha_staged, 1.0001)).lorenz()
    write_csv(out / "lorenz.csv", ("x", "y"),
              zip(curve.x.tolist(), curve.y.tolist()))
    print(report.table_row())
    emit_manifest(out, "fit-income", _config_echo(args), [args.input],
                  ["report.json", "lorenz.csv"])
    return 0


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------


def _cmd_energy(args) -> int:
    out = _out_dir(args)
    records, drops = ingest_wri(args.energy, args.population, args.year,
                                per_capita=args.per_capita)
    if drops.n_dropped:
        print(f"dropped {drops.n_dropped} rows:", file=sys.stderr)
        for name, reason in drops.dropped:
            print(f"  {name}: {reason}", file=sys.stderr)
    cdf = weighted_cdf(records)
    curve = cdf.lorenz()
    profile = slope_profile(curve)
    write_csv(out / "cdf.csv", ("epsilon_kw", "C"), cdf.rows())
    write_csv(out / "lorenz.csv", ("x", "y"),
              zip(curve.x.tolist(), curve.y.tolist()))
    write_json(out / "summary.json", {
        "year": args.year,
        "countries": len(records),
        "world_avg_kw": cdf.mean,
        "gini": curve.gini,
        "kink_x": profile.kink_x,
    })
    emit_manifest(out, "energy", _config_echo(args),
                  [args.energy, args.population],
                  ["cdf.csv", "lorenz.csv", "summary.json"])
    print(f"{len(records)} countries; world average "
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

    sim = sub.add_parser("simulate", help="kinetic money-exchange simulation")
    sim.add_argument("--config", default=None,
                     help="JSON run config (keys: n_agents, total_money_quanta, "
                          "quantum_value, rule, delta, floor, steps, seed, "
                          "checkpoint_every); replaces the individual flags")
    sim.add_argument("--agents", type=int, default=None)
    sim.add_argument("--money", type=int, default=None,
                     help="total money in quanta")
    sim.add_argument("--steps", type=int, default=None,
                     help="number of exchange attempts")
    sim.add_argument("--rule", choices=("fixed", "uniform"), default="uniform")
    sim.add_argument("--delta", type=int, default=None,
                     help="transfer scale in quanta (default: 1 for fixed, "
                          "2*money/agents for uniform)")
    sim.add_argument("--floor", type=int, default=0,
                     help="minimum balance; negative enables debt")
    sim.add_argument("--quantum-value", type=float, default=1.0,
                     help="money value of one quantum, for output scaling")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--checkpoint-every", type=int, default=None)
    sim.add_argument("--agents2", type=int, default=None,
                     help="second system size (enables coupled mode)")
    sim.add_argument("--money2", type=int, default=None,
                     help="second system total money in quanta")
    sim.add_argument("--migration-rate", type=float, default=0.0)
    sim.add_argument("--events", type=int, default=1000,
                     help="coupling events in coupled mode")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate, flag_default=sim.get_default)

    fp = sub.add_parser("fp", help="stationary income diffusion solution")
    fp.add_argument("--kind", choices=("additive", "multiplicative", "combined"))
    fp.add_argument("--a0", type=float, default=None)
    fp.add_argument("--a", type=float, default=None)
    fp.add_argument("--b0", type=float, default=None)
    fp.add_argument("--b", type=float, default=None)
    fp.add_argument("--spec-json", default=None,
                    help="read the spec from a JSON file instead of flags")
    fp.add_argument("--r-max", type=float, default=None)
    fp.add_argument("--r-min", type=float, default=0.0,
                    help="grid start (required > 0 for multiplicative)")
    fp.add_argument("--points-per-decade", type=int, default=2000)
    fp.add_argument("--out", required=True)
    fp.set_defaults(func=_cmd_fp, flag_default=fp.get_default)

    fit = sub.add_parser("fit-income", help="two-class income fit")
    fit.add_argument("--input", required=True,
                     help="CSV: level_kusd,returns_at_or_above (or in-bin)")
    fit.add_argument("--mode", choices=("at-or-above", "in-bin"),
                     default="at-or-above")
    fit.add_argument("--year", type=int, default=None)
    fit.add_argument("--exp-window", type=float, nargs=2, default=(0.1, 0.95),
                     metavar=("LO", "HI"))
    fit.add_argument("--tail-window", type=float, nargs=2, default=(0.001, 0.03),
                     metavar=("LO", "HI"))
    fit.add_argument("--no-refine", action="store_true",
                     help="skip the joint refinement pass")
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_fit_income)

    en = sub.add_parser("energy", help="energy-consumption inequality")
    en.add_argument("--energy", required=True, help="CSV: country,year,value")
    en.add_argument("--population", required=True, help="CSV: country,year,value")
    en.add_argument("--year", type=int, required=True)
    en.add_argument("--per-capita", action="store_true",
                    help="energy values are already kW per capita")
    en.add_argument("--out", required=True)
    en.set_defaults(func=_cmd_energy)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
