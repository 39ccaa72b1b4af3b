"""The four benchmark workloads, one per ineqstats pipeline family.

Each workload generates its inputs from the seed in ``setup`` (untimed),
runs one pass of fixed work in ``run`` (timed), and checks the outputs of
that pass in ``check`` (untimed).  A pass is a list of operations: one CLI
invocation, one coupled-system replica or one transient leg.  An
operation fails on an exception, a non-zero exit or a broken gate; the
check also gives every successful operation a digest of its data files so
that passes on the same seed can be compared byte for byte.

Library calls go through module attributes (``kinetic.run_simulation``,
``cli.dispatch``, ...) at call time, so the tracer's substitutions see
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ineqstats import cli, distributions, fokker_planck, income, kinetic


@dataclass
class Op:
    key: str                   # stable across passes, e.g. "energy/1990"
    kind: str                  # "simulate", "replica", "fit-income", "fp", "leg", "energy"
    ms: float = 0.0
    error: str | None = None
    digest: str | None = None
    stderr: str = ""


def run_cli(argv: list[str]) -> str:
    """One in-process CLI invocation; returns its stderr text and raises
    on a non-zero exit."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.dispatch(argv)
    text = sink.getvalue()
    if code != 0:
        last = text.strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"exit {code}: {last[0]}")
    return text


def timed(op: Op, fn, *args):
    """Run one operation, recording its latency and any exception."""
    start = time.perf_counter()
    result = None
    try:
        result = fn(*args)
    except Exception as exc:   # an operation failure is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"
    op.ms = (time.perf_counter() - start) * 1e3
    return result


def digest_files(directory: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def fail(op: Op, message: str) -> None:
    if op.error is None:
        op.error = message


def write_rows(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    name = ""

    def __init__(self, small: bool):
        self.small = small

    def setup(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def run(self, out: Path):
        """Timed pass; returns (ops, state handed to ``check``)."""
        raise NotImplementedError

    def check(self, ops: list[Op], state, out: Path) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# equilibrate: large simulate runs relaxing to Boltzmann-Gibbs
# ---------------------------------------------------------------------------


class Equilibrate(Workload):
    name = "equilibrate"
    N, T, DELTA = 10_000, 50, 100
    RUNS, STEPS, CHECKPOINT = 25, 2_000_000, 1_000_000

    def setup(self, work, seed):
        runs = 2 if self.small else self.RUNS
        seeds = np.random.default_rng(seed).integers(0, 2**31, size=runs)
        self.configs = []
        for i, run_seed in enumerate(seeds.tolist()):
            path = work / f"equilibrate-{i}.json"
            path.write_text(json.dumps({
                "n_agents": self.N, "total_money_quanta": self.N * self.T,
                "rule": "uniform", "delta": self.DELTA, "steps": self.STEPS,
                "seed": run_seed, "checkpoint_every": self.CHECKPOINT}))
            self.configs.append(path)
        warm = work / "warm.json"
        warm.write_text(json.dumps({
            "n_agents": 1000, "total_money_quanta": 1000 * self.T,
            "rule": "uniform", "delta": self.DELTA, "steps": 20_000,
            "seed": seed, "checkpoint_every": 5_000}))
        run_cli(["simulate", "--config", str(warm), "--out", str(work / "warm")])

    def run(self, out):
        ops = []
        for i, config in enumerate(self.configs):
            op = Op(f"simulate/{i}", "simulate")
            ops.append(op)
            timed(op, run_cli, ["simulate", "--config", str(config),
                                "--out", str(out / f"simulate-{i}")])
        return ops, None

    def check(self, ops, state, out):
        for i, op in enumerate(ops):
            if op.error is None:
                self._check_run(op, out / f"simulate-{i}")

    def _check_run(self, op, d):
        bins, counts = [], []
        for line in (d / "histogram.csv").read_text().splitlines()[1:]:
            lower, count = line.split(",")
            bins.append(int(float(lower)))
            counts.append(int(count))
        money = sum(b * c for b, c in zip(bins, counts))
        if sum(counts) != self.N or money != self.N * self.T:
            fail(op, f"histogram holds {sum(counts)} agents and {money} quanta; "
                     f"expected {self.N} and {self.N * self.T}")
        if any(b < 0 for b, c in zip(bins, counts) if c):
            fail(op, "a balance is below the floor 0")
        # KS distance between the balance complementary CDF and exp(-m/T)
        counts_arr = np.asarray(counts, dtype=float)
        below = np.concatenate([[0.0], np.cumsum(counts_arr)[:-1]])
        comp = 1.0 - below / counts_arr.sum()
        ks = float(np.abs(comp - np.exp(-np.asarray(bins, dtype=float) / self.T)).max())
        if ks >= 0.02:
            fail(op, f"KS distance {ks:.4f} >= 0.02")
        last = (d / "trajectory.csv").read_text().strip().splitlines()[-1]
        s_final = float(last.split(",")[1])
        s_eq = self.N * (1.0 + math.log(self.T))
        if abs(s_final / s_eq - 1.0) >= 0.01:
            fail(op, f"final entropy {s_final:.1f} not within 1% of {s_eq:.1f}")
        if op.error is None:
            op.digest = digest_files(d, ("trajectory.csv", "histogram.csv", "config.json"))


# ---------------------------------------------------------------------------
# flux-replicas: the coupled-system protocol, small N, many replicas
# ---------------------------------------------------------------------------


class FluxReplicas(Workload):
    name = "flux-replicas"
    N = 500
    HOT_T, COLD_T = 100, 50
    ROUNDS = 200
    EXCHANGE_EVENTS, MIGRATION_EVENTS = 2000, 500
    MIN_SHARE = 0.95

    def setup(self, work, seed):
        replicas = 20 if self.small else 100
        rng = np.random.default_rng(seed)
        self.seeds = rng.integers(0, 2**32, size=(replicas, 4)).tolist()
        self.hot_rule = kinetic.ExchangeRule("uniform", delta=2 * self.HOT_T)
        self.cold_rule = kinetic.ExchangeRule("uniform", delta=2 * self.COLD_T)
        self.rule = kinetic.ExchangeRule("uniform", delta=100)
        self._replica(50, self.seeds[0])   # warm-up at a tenth of the size

    def _replica(self, n, seeds):
        steps = self.ROUNDS * (n // 2)
        hot = kinetic.init_ensemble(n, n * self.HOT_T)
        kinetic.run_simulation(hot, self.hot_rule, steps, seed=seeds[0])
        cold = kinetic.init_ensemble(n, n * self.COLD_T)
        kinetic.run_simulation(cold, self.cold_rule, steps, seed=seeds[1])
        pair = (hot.copy(), cold.copy())
        money = kinetic.couple_systems(*pair, self.rule, self.EXCHANGE_EVENTS,
                                       migration_rate=0.0, seed=seeds[2])
        migration = kinetic.couple_systems(hot, cold, self.rule, self.MIGRATION_EVENTS,
                                           migration_rate=1.0, seed=seeds[3])
        return pair, (hot, cold), money, migration

    def run(self, out):
        ops, results = [], []
        for r, seeds in enumerate(self.seeds):
            op = Op(f"replica/{r}", "replica")
            ops.append(op)
            results.append(timed(op, self._replica, self.N, seeds))
        return ops, results

    def check(self, ops, results, out):
        money_in = self.N * (self.HOT_T + self.COLD_T)
        signs = [0, 0, 0]
        for op, result in zip(ops, results):
            if op.error:
                continue
            pair, systems, money, migration = result
            for a, b in (pair, systems):
                if a.total + b.total != money_in or a.n + b.n != 2 * self.N:
                    fail(op, "money or agents not conserved by couple_systems")
            signs[0] += money.delta_money > 0
            signs[1] += money.delta_entropy_estimate >= 0
            signs[2] += migration.delta_agents < 0
            h = hashlib.sha256((money.to_json() + migration.to_json()).encode())
            for ens in pair + systems:
                h.update(ens.balances.tobytes())
            op.digest = h.hexdigest()
        need = math.ceil(self.MIN_SHARE * len(ops))
        if min(signs) < need:
            for op in ops:
                fail(op, f"flux signs right in {signs} of {len(ops)} replicas "
                         f"(money, dS, agents); need {need} each")


# ---------------------------------------------------------------------------
# income-fit: two-class fits of synthetic annual tables
# ---------------------------------------------------------------------------


class IncomeFit(Workload):
    name = "income-fit"
    TABLES = 12
    RETURNS = 100_000
    LEVELS = 50
    FIRST_YEAR = 1996
    # Recovery tolerances (relative), loose by design: the 12-table sweep
    # recovers less tightly than the single-table acceptance criterion.
    TOLERANCE = {"temperature": 0.15, "alpha": 0.25, "r0": 0.35}

    @classmethod
    def parameters(cls, k: int) -> tuple[float, float, float]:
        """(T, alpha, r0) of table k: T sweeps 30..60 k$, alpha sweeps
        1.3..1.7 in a fixed interleaved order, r0 = 2.35 T."""
        t = 30.0 + 30.0 * k / (cls.TABLES - 1)
        alpha = 1.3 + 0.4 * ((5 * k) % cls.TABLES) / (cls.TABLES - 1)
        return t, alpha, 2.35 * t

    def setup(self, work, seed):
        rng = np.random.default_rng(seed)
        self.tables = []
        for k in range(2 if self.small else self.TABLES):
            year = self.FIRST_YEAR + k
            t, alpha, r0 = self.parameters(k)
            model = distributions.TwoClassModel(t, alpha, r0)
            table = income.sample_income_table(model, self.RETURNS, rng,
                                               n_levels=self.LEVELS, year=year)
            at_or_above = table.counts[::-1].cumsum()[::-1]
            path = work / f"income-{year}.csv"
            write_rows(path, "level_kusd,returns_at_or_above",
                       zip(table.levels.tolist(), at_or_above.tolist()))
            self.tables.append((year, path, (t, alpha, r0)))
        _, path, _ = self.tables[0]
        run_cli(["fit-income", "--input", str(path), "--no-refine",
                 "--out", str(work / "warm")])

    def run(self, out):
        ops = []
        for year, path, _ in self.tables:
            op = Op(f"fit-income/{year}", "fit-income")
            ops.append(op)
            timed(op, run_cli, ["fit-income", "--input", str(path), "--year", str(year),
                                "--out", str(out / f"fit-{year}")])
        return ops, None

    def check(self, ops, state, out):
        for op, (year, _, truth) in zip(ops, self.tables):
            if op.error:
                continue
            d = out / f"fit-{year}"
            report = json.loads((d / "report.json").read_text())
            f = report["tail_fraction"]
            if report["gini"] != (1.0 + f) / 2.0:
                fail(op, f"G={report['gini']!r} is not (1+f)/2 for f={f!r}")
            for key, true_value in zip(("temperature", "alpha", "r0"), truth):
                err = abs(report[key] / true_value - 1.0)
                if err > self.TOLERANCE[key]:
                    fail(op, f"{key}={report[key]:.4g} is {100 * err:.1f}% from "
                             f"{true_value:.4g}; tolerance {100 * self.TOLERANCE[key]:.0f}%")
            if op.error is None:
                op.digest = digest_files(d, ("report.json", "lorenz.csv"))


# ---------------------------------------------------------------------------
# fp-energy: stationary Fokker-Planck solves, the pulse relaxation and the
# energy pipeline over a 46-year WRI-shaped pair of files
# ---------------------------------------------------------------------------

# kW carried by 1 ktoe per year: 41.85e9 J per toe over 3.15576e7 s per year
KW_PER_KTOE_YEAR = 41.85e9 / 3.15576e7
CLOSE = 1e-9       # relative tolerance for the energy recomputation

FP_JOBS = {
    "additive": ["--kind", "additive", "--a0", "2", "--b0", "80"],
    "multiplicative": ["--kind", "multiplicative", "--a", "1", "--b", "2",
                       "--r-min", "1", "--r-max", "1e6"],
    "combined": ["--kind", "combined", "--a0", "500", "--a", "1",
                 "--b0", "20000", "--b", "2"],
}


def fp_error(kind: str, r: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(error, tolerance) of a stationary solution against its closed form,
    with the tolerances of acceptance criterion 4."""
    if kind == "additive":          # exponential with T = b0/a0 = 40
        sel = r <= 400.0
        return float(np.abs(p[sel] / (np.exp(-r[sel] / 40.0) / 40.0) - 1).max()), 1e-4
    if kind == "combined":          # two-class density, T=40, alpha=1.5, r0=100
        model = distributions.TwoClassModel(40.0, 1.5, 100.0)
        return float(np.abs(p[1:-1] / model.pdf(r[1:-1]) - 1).max()), 1e-4
    sel = (r >= 1e2) & (r <= 1e5) & (p > 0)   # Pareto tail, slope -(1 + alpha)
    slope = np.polyfit(np.log(r[sel]), np.log(p[sel]), 1)[0]
    return abs(float(slope) + 2.5), 1e-3


def make_wri_files(rng, energy_path: Path, population_path: Path,
                   n_countries: int, years) -> dict[int, dict]:
    """Write a seeded WRI-shaped `country,year,value` pair (energy in
    ktoe/yr, population in persons) with a few faulty rows planted per
    year, and return the expected summary of each year."""
    names = [f"Country {i:03d}" for i in range(n_countries)]
    pop0 = rng.lognormal(math.log(5e6), 1.5, n_countries)
    pop_growth = rng.normal(0.015, 0.01, n_countries)
    kw0 = rng.lognormal(math.log(1.5), 1.0, n_countries)
    kw_trend = rng.normal(0.01, 0.015, n_countries)
    energy_rows, population_rows = {}, {}
    expected = {}
    for year in years:
        t = year - years[0]
        pop = np.maximum(1000, np.rint(pop0 * np.exp(pop_growth * t))).astype(np.int64)
        ktoe = kw0 * np.exp(kw_trend * t) * pop / KW_PER_KTOE_YEAR
        planted = rng.choice(n_countries, size=int(rng.integers(1, 4)), replace=False)
        faults = dict(zip(planted.tolist(), rng.integers(0, 4, planted.size).tolist()))
        for i, name in enumerate(names):
            fault = faults.get(i)
            if fault != 0:      # 0: energy row missing
                energy_rows[(name, year)] = "n/a" if fault == 1 else repr(float(ktoe[i]))
            if fault != 2:      # 2: population row missing
                population_rows[(name, year)] = "" if fault == 3 else str(int(pop[i]))
        keep = np.array([i not in faults for i in range(n_countries)])
        kw = ktoe[keep] * KW_PER_KTOE_YEAR / pop[keep]
        weights = pop[keep].astype(float)
        order = np.argsort(kw)
        kw, weights = kw[order], weights[order]
        x = np.concatenate([[0.0], np.cumsum(weights) / weights.sum()])
        y = np.concatenate([[0.0], np.cumsum(kw * weights) / np.sum(kw * weights)])
        expected[year] = {
            "countries": int(keep.sum()),
            "dropped": len(faults),
            "gini": 1.0 - float(np.sum((y[1:] + y[:-1]) * np.diff(x))),
            "world_avg_kw": float(np.sum(kw * weights) / weights.sum()),
        }
    for path, rows in ((energy_path, energy_rows), (population_path, population_rows)):
        write_rows(path, "country,year,value",
                   ((name, year, value) for (name, year), value in rows.items()))
    return expected


class FpEnergy(Workload):
    name = "fp-energy"
    COUNTRIES = 200
    YEARS = tuple(range(1960, 2006))
    LEGS, LEG_TIME = 6, 4.0

    def setup(self, work, seed):
        # pulse at r = 5T relaxing on a 401-point linear grid, T = 1
        self.spec = fokker_planck.DriftDiffusionSpec.additive(a0=1.0, b0=1.0)
        grid = np.linspace(0.0, 15.0, 401)
        pulse = np.exp(-0.5 * ((grid - 5.0) / 0.2) ** 2)
        pulse /= np.sum(pulse * np.gradient(grid))
        self.start = fokker_planck.GridDistribution(grid, pulse)
        self.stationary = fokker_planck.stationary_solution(self.spec, grid)
        self.dt = 0.4 * (grid[1] - grid[0]) ** 2
        self.steps = int(self.LEG_TIME / self.dt)

        years = self.YEARS[-5:] if self.small else self.YEARS
        self.energy_csv = work / "energy.csv"
        self.population_csv = work / "population.csv"
        self.expected = make_wri_files(np.random.default_rng(seed), self.energy_csv,
                                       self.population_csv, self.COUNTRIES, years)

        run_cli(["fp", *FP_JOBS["additive"], "--points-per-decade", "50",
                 "--out", str(work / "warm-fp")])
        fokker_planck.evolve_transient(self.start, self.spec, self.dt, 10)
        self._energy(years[0], work / "warm-energy")

    def _energy(self, year, out):
        return run_cli(["energy", "--energy", str(self.energy_csv),
                        "--population", str(self.population_csv),
                        "--year", str(year), "--out", str(out)])

    def run(self, out):
        ops = []
        for kind, argv in FP_JOBS.items():
            op = Op(f"fp/{kind}", "fp")
            ops.append(op)
            timed(op, run_cli, ["fp", *argv, "--out", str(out / f"fp-{kind}")])
        states = []
        state = self.start
        for leg in range(self.LEGS):
            op = Op(f"leg/{leg}", "leg")
            ops.append(op)
            if len(states) < leg:
                op.error = "not run: an earlier leg failed"
                continue
            state = timed(op, fokker_planck.evolve_transient, state, self.spec,
                          self.dt, self.steps)
            if op.error is None:
                states.append(state)
        for year in self.expected:
            op = Op(f"energy/{year}", "energy")
            ops.append(op)
            op.stderr = timed(op, self._energy, year, out / f"energy-{year}") or ""
        return ops, states

    def check(self, ops, states, out):
        by_kind = {}
        for op in ops:
            by_kind.setdefault(op.kind, []).append(op)
        for op, kind in zip(by_kind["fp"], FP_JOBS):
            if op.error:
                continue
            d = out / f"fp-{kind}"
            r, p = np.loadtxt(d / "solution.csv", delimiter=",", skiprows=1, unpack=True)
            err, tolerance = fp_error(kind, r, p)
            if not err < tolerance:
                fail(op, f"{kind} solution off its closed form by {err:.2e} (>= {tolerance:g})")
            else:
                op.digest = digest_files(d, ("solution.csv", "spec.json"))

        mass0 = self.start.mass
        previous = self.start.l1_distance(self.stationary)
        for op, state in zip(by_kind["leg"], states):
            l1 = state.l1_distance(self.stationary)
            if abs(state.mass - mass0) > 1e-12:
                fail(op, f"mass drifted by {state.mass - mass0:.2e}")
            if l1 > previous:
                fail(op, f"L1 distance rose from {previous:.3e} to {l1:.3e}")
            previous = l1
            op.digest = hashlib.sha256(state.density.tobytes()).hexdigest()
        if len(states) == self.LEGS and not previous < 1e-3:
            fail(by_kind["leg"][-1], f"final L1 distance {previous:.2e} >= 1e-3")

        for op, (year, want) in zip(by_kind["energy"], self.expected.items()):
            if op.error:
                continue
            d = out / f"energy-{year}"
            summary = json.loads((d / "summary.json").read_text())
            match = re.search(r"dropped (\d+) rows", op.stderr)
            dropped = int(match.group(1)) if match else 0
            if dropped != want["dropped"] or summary["countries"] != want["countries"]:
                fail(op, f"{year}: {summary['countries']} countries, {dropped} dropped; "
                         f"planted {want['dropped']} faulty rows")
            for key in ("gini", "world_avg_kw"):
                if not math.isclose(summary[key], want[key], rel_tol=CLOSE):
                    fail(op, f"{year}: {key}={summary[key]!r}, recomputed {want[key]!r}")
            if op.error is None:
                op.digest = digest_files(d, ("cdf.csv", "lorenz.csv", "summary.json"))


WORKLOADS = {w.name: w for w in (Equilibrate, FluxReplicas, IncomeFit, FpEnergy)}
