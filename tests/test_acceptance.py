"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured numbers.  Run with `pytest -v -s tests/test_acceptance.py`
to see the lines as they complete."""

import math
import time

import numpy as np
import pytest

from conftest import (WORLD_AVERAGE_KW, WRI_FIXTURE, lattice_ks, requires_wri,
                      wri_data_dir)
from ineqstats import (DriftDiffusionSpec, ExchangeRule, RULE_FIXED,
                       RULE_UNIFORM, TwoClassModel, class_boundary,
                       couple_systems, delta_r2_diagnostic, fit_report,
                       ingest_wri, init_ensemble, per_capita_kw, run_simulation,
                       sample_income_table, sample_lorenz_curve,
                       stationary_solution, weighted_cdf)
from ineqstats.cli import dispatch
from conftest import loglog_slope


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


N_AGENTS = 10_000
T_QUANTA = 50
STEPS = 100_000_000


@pytest.fixture(scope="module", params=[RULE_UNIFORM, RULE_FIXED])
def equilibrium_run(request):
    rule_kind = request.param
    delta = 2 * T_QUANTA if rule_kind == RULE_UNIFORM else 1
    rule = ExchangeRule(rule_kind, delta=delta)
    ens = init_ensemble(N_AGENTS, N_AGENTS * T_QUANTA)
    start = time.perf_counter()
    traj = run_simulation(ens, rule, STEPS, checkpoint_every=1_000_000, seed=7)
    elapsed = time.perf_counter() - start
    return rule_kind, traj, elapsed


def test_criterion_01_boltzmann_gibbs_convergence(equilibrium_run):
    rule_kind, traj, elapsed = equilibrium_run
    ks = lattice_ks(traj.ensemble.balances, T_QUANTA)
    s_eq = N_AGENTS * (1 + math.log(T_QUANTA))
    entropy_ratio = traj.entropy[-1] / s_eq
    # windowed entropy non-decreasing until within 1 percent of equilibrium
    reached = np.argmax(traj.entropy >= 0.99 * s_eq)
    monotone = bool(np.all(np.diff(traj.entropy[:reached + 1]) > -1e-9))
    plateau_ok = bool(np.all(np.abs(traj.entropy[reached:] / s_eq - 1) < 0.01))
    ok = (ks < 0.02 and abs(entropy_ratio - 1) < 0.01 and elapsed < 60
          and monotone and plateau_ok)
    report(f"1[{rule_kind}]", ok,
           f"KS={ks:.4f} (<0.02), S/S_eq={entropy_ratio:.4f} (within 1%), "
           f"runtime={elapsed:.1f}s (<60s), entropy trend monotone={monotone}")


def test_criterion_02_exact_conservation(equilibrium_run):
    rule_kind, traj, _ = equilibrium_run
    # the big run asserts the integer total at every 1e6-step checkpoint
    # internally; re-check the final state here
    main_ok = traj.ensemble.total == N_AGENTS * T_QUANTA

    ens = init_ensemble(2000, 100_000)
    debt_rule = ExchangeRule(RULE_UNIFORM, delta=100, floor=-50)
    debt = run_simulation(ens, debt_rule, 20_000_000, checkpoint_every=1_000_000,
                          seed=13)
    debt_ok = (debt.ensemble.total == 100_000
               and debt.ensemble.balances.min() >= -50)
    report(f"2[{rule_kind}]", main_ok and debt_ok,
           f"total after {STEPS} steps exact={main_ok}, "
           f"debt-mode total exact={debt_ok} "
           f"(min balance {debt.ensemble.balances.min()}, floor -50)")


def _equilibrated(n, t_quanta, seed):
    ens = init_ensemble(n, n * t_quanta)
    run_simulation(ens, ExchangeRule(RULE_UNIFORM, delta=2 * t_quanta),
                   200 * (n // 2), seed=seed)
    return ens


def test_criterion_03_flux_directions():
    start = time.perf_counter()
    rule = ExchangeRule(RULE_UNIFORM, delta=100)
    money_pos = entropy_pos = migration_neg = 0
    replicas = 100
    for rep in range(replicas):
        ens1 = _equilibrated(500, 100, seed=50_000 + rep)
        ens2 = _equilibrated(500, 50, seed=60_000 + rep)
        money = couple_systems(ens1.copy(), ens2.copy(), rule, 2000,
                               migration_rate=0.0, seed=70_000 + rep)
        money_pos += money.delta_money > 0
        entropy_pos += money.delta_entropy_estimate >= 0
        migration = couple_systems(ens1, ens2, rule, 500,
                                   migration_rate=1.0, seed=80_000 + rep)
        migration_neg += migration.delta_agents < 0
    elapsed = time.perf_counter() - start
    ok = (money_pos >= 95 and entropy_pos >= 95 and migration_neg >= 95
          and elapsed < 300)
    report(3, ok,
           f"money flux 1->2 positive in {money_pos}/100, dS>=0 in "
           f"{entropy_pos}/100, agent flux toward hot system in "
           f"{migration_neg}/100, runtime={elapsed:.0f}s (<300s)")


def test_criterion_04_fokker_planck_equivalence():
    start = time.perf_counter()
    additive = stationary_solution(DriftDiffusionSpec.additive(a0=2.0, b0=80.0))
    T = 40.0
    sel = additive.grid <= 10 * T
    err_add = np.abs(additive.density[sel] / (np.exp(-additive.grid[sel] / T) / T) - 1).max()

    spec = DriftDiffusionSpec.combined(a0=500.0, a=1.0, b0=2e4, b=2.0)
    combined = stationary_solution(spec)
    model = TwoClassModel(spec.temperature, spec.pareto_exponent,
                          spec.crossover_income)
    err_comb = np.abs(combined.density[1:-1] / model.pdf(combined.grid[1:-1]) - 1).max()

    mult = stationary_solution(DriftDiffusionSpec.multiplicative(a=1.0, b=2.0),
                               np.geomspace(1.0, 1e6, 8000))
    slope = loglog_slope(mult.grid, mult.density, 1e2, 1e5)
    err_slope = abs(slope + 2.5)
    elapsed = time.perf_counter() - start
    ok = err_add < 1e-4 and err_comb < 1e-4 and err_slope < 1e-3 and elapsed < 5
    report(4, ok,
           f"additive vs exponential {err_add:.2e} (<1e-4), combined vs "
           f"closed form {err_comb:.2e} (<1e-4), multiplicative slope error "
           f"{err_slope:.2e} (<1e-3), runtime={elapsed:.2f}s (<5s)")


def test_criterion_05_stationarity_criterion():
    spec = DriftDiffusionSpec.multiplicative(a=0.37, b=0.37)   # alpha = 2
    r = np.concatenate([[0.0], np.geomspace(1e-6, 1e9, 4001)])
    values = delta_r2_diagnostic(r, spec)
    worst = np.abs(values).max()
    ok = worst == 0.0
    report(5, ok, f"max |d<r^2>/dt| over grid = {worst} (exact zero), "
                  f"alpha = {spec.pareto_exponent}")


def test_criterion_06_fit_round_trip():
    model = TwoClassModel(48.0, 1.34, 113.0)
    rng = np.random.default_rng(20260808)
    table = sample_income_table(model, 100_000, rng, n_levels=50, year=2007)
    rep = fit_report(table)
    errs = (abs(rep.temperature / 48.0 - 1), abs(rep.alpha / 1.34 - 1),
            abs(rep.r0 / 113.0 - 1))
    ok = (errs[0] <= 0.02 and errs[1] <= 0.05 and errs[2] <= 0.10
          and abs(rep.tail_fraction - 0.215) <= 0.02
          and abs(rep.gini - 0.60) <= 0.015)
    report(6, ok,
           f"T={rep.temperature:.2f} ({100 * errs[0]:.1f}%<=2%), "
           f"alpha={rep.alpha:.3f} ({100 * errs[1]:.1f}%<=5%), "
           f"r0={rep.r0:.1f} ({100 * errs[2]:.1f}%<=10%), "
           f"f={rep.tail_fraction:.3f} (0.215+-0.02), "
           f"G={rep.gini:.3f} (0.60+-0.015)")


def test_criterion_07_class_boundary():
    T, alpha = 48.0, 1.5
    pl_prefactor = math.exp(-3.5) * (3.5 * T) ** alpha
    r_star, fraction = class_boundary(T, alpha, pl_prefactor)
    ok = abs(r_star - 3.5 * T) < 1e-6 and abs(fraction - 0.030) <= 0.001
    report(7, ok, f"r*={r_star:.3f} (=3.5T), upper-class fraction "
                  f"{100 * fraction:.2f}% (3.0+-0.1%)")


def test_criterion_08_gini_identities():
    g_exp = sample_lorenz_curve(0.0).gini
    details = [f"G(exp)={g_exp:.4f}"]
    ok = abs(g_exp - 0.5) <= 0.005
    for f in (0.0, 0.1, 0.215, 0.4):
        g = sample_lorenz_curve(f).gini
        details.append(f"G(f={f})={g:.4f} vs {(1 + f) / 2:.4f}")
        ok = ok and abs(g - (1 + f) / 2) <= 0.005
    report(8, ok, ", ".join(details) + " (all +-0.005)")


def test_criterion_09_energy_fixture():
    start = time.perf_counter()
    records, drops = ingest_wri(*WRI_FIXTURE, 2005, per_capita=True)
    cdf_values = {rec.name: per_capita_kw(rec) for rec in records}
    world = WORLD_AVERAGE_KW[2005]
    usa = cdf_values["United States"] / world
    india = cdf_values["India"] / world
    gini = weighted_cdf(records).lorenz().gini
    elapsed = time.perf_counter() - start
    ok = (len(records) == 22 and drops.n_dropped == 0
          and 4.0 < usa < 5.0 and 0.2 < india < 0.3 and elapsed < 1.0)
    report("9[fixture]", ok,
           f"{len(records)} countries joined (22), {drops.n_dropped} dropped (0), "
           f"USA eps/<eps>={usa:.2f} (4..5), India={india:.2f} (0.2..0.3), "
           f"fixture Gini={gini:.3f}, runtime={elapsed:.2f}s (<1s)")


@requires_wri
def test_criterion_09_full_wri_dataset():
    base = wri_data_dir()
    averages = {}
    ginis = {}
    for year in (1990, 2000, 2005):
        recs, _ = ingest_wri(f"{base}/energy.csv", f"{base}/population.csv", year)
        cdf = weighted_cdf(recs)
        averages[year] = cdf.mean
        ginis[year] = cdf.lorenz().gini
    ok = (abs(averages[1990] - 2.2) <= 0.1 and abs(averages[2000] - 2.2) <= 0.1
          and abs(averages[2005] - 2.3) <= 0.1
          and ginis[1990] > ginis[2000] > ginis[2005])
    report("9[full]", ok, f"averages={averages}, ginis={ginis}")


def test_criterion_10_determinism(tmp_path):
    model = TwoClassModel(48.0, 1.34, 113.0)
    rng = np.random.default_rng(99)
    table = sample_income_table(model, 50_000, rng, n_levels=40)
    comp = table.counts[::-1].cumsum()[::-1]
    income_csv = tmp_path / "income.csv"
    from ineqstats.io import write_csv
    write_csv(income_csv, ("level_kusd", "returns_at_or_above"), (table.levels, comp))
    e_csv, p_csv = WRI_FIXTURE

    jobs = {
        "simulate": (["simulate", "--agents", "500", "--money", "25000",
                      "--steps", "100000", "--seed", "11"],
                     ["trajectory.csv", "histogram.csv", "config.json"]),
        "fp": (["fp", "--kind", "combined", "--a0", "500", "--a", "1",
                "--b0", "20000", "--b", "2"], ["solution.csv", "spec.json"]),
        "fit-income": (["fit-income", "--input", str(income_csv)],
                       ["report.json", "lorenz.csv"]),
        "energy": (["energy", "--energy", str(e_csv), "--population",
                    str(p_csv), "--year", "2005", "--per-capita"],
                   ["cdf.csv", "lorenz.csv", "summary.json"]),
    }
    mismatches = []
    for name, (args, outputs) in jobs.items():
        dirs = [tmp_path / f"{name}-1", tmp_path / f"{name}-2"]
        for d in dirs:
            code = dispatch(args + ["--out", str(d)])
            assert code == 0, f"{name} exited {code}"
        for out_name in outputs:
            if (dirs[0] / out_name).read_bytes() != (dirs[1] / out_name).read_bytes():
                mismatches.append(f"{name}/{out_name}")
    ok = not mismatches
    report(10, ok, "all data outputs byte-identical on rerun"
           if ok else f"mismatched: {mismatches}")
