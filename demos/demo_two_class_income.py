"""Two-class income distribution: fitting the interpolating model.

Draws a synthetic tax table from the interpolating distribution with the
2007-style parameters (T=48 k$, alpha=1.34, r0=113 k$), runs the staged
fitting procedure (exponential body, power-law tail, crossover search)
plus the joint refinement, and prints the recovered parameters alongside
the derived inequality measures: the tail income share f, the Gini
coefficient (1+f)/2, and the class boundary r*.

Run:  python demos/demo_two_class_income.py
"""

from pathlib import Path

import numpy as np

from ineqstats import (TwoClassModel, WeightedCDF, fit_report,
                       sample_income_table)
from ineqstats.io import write_csv

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

truth = TwoClassModel(T=48.0, alpha=1.34, r0=113.0)
print(f"generator: {truth}")
print(f"  mean income {truth.mean():.2f} k$, population above r0: "
      f"{truth.cdf(truth.r0):.1%}")

rng = np.random.default_rng(2007)
table = sample_income_table(truth, 100_000, rng, n_levels=50, year=2007)
print(f"\nsynthetic table: {table.total:,} returns over {len(table.levels)} levels "
      f"spanning {table.levels[1]:.1f} .. {table.levels[-1]:.0f} k$")

cdf = WeightedCDF(table.levels, table.counts)
write_csv(OUT / "income_cdf.csv", ("r", "C"), (cdf.values, cdf.complementary))

report = fit_report(table)
print("\nstaged fits (the tax-data procedure):")
print(f"  body exponential  -> T  = {report.temperature_staged:6.2f} k$")
print(f"  tail power law    -> a  = {report.alpha_staged:6.3f}")
print(f"  crossover scan    -> r0 = {report.r0_staged:6.1f} k$")
print("refined (joint per-bin least squares):")
print(f"  T = {report.temperature:.2f} k$   alpha = {report.alpha:.3f}   "
      f"r0 = {report.r0:.1f} k$")

print("\nderived inequality measures:")
print(f"  mean income <r>     = {report.mean_income:6.2f} k$")
print(f"  tail income share f = {report.tail_fraction:6.1%}")
print(f"  Gini (1+f)/2        = {report.gini:6.3f}")
print(f"  Gini from Lorenz    = {report.gini_lorenz:6.3f}")
print(f"  class boundary r*   = {report.r_star:6.1f} k$ "
      f"({report.r_star / report.temperature:.2f} T)")
print(f"  upper-class share   = {report.upper_class_fraction:6.1%} of returns")

print("\ntable row:")
print("  " + report.table_row())

curve = table.bin_incomes(max(report.alpha_staged, 1.0001)).lorenz()
write_csv(OUT / "income_lorenz.csv", ("x", "y"), (curve.x, curve.y))
print(f"\nLorenz curve -> {OUT / 'income_lorenz.csv'}")
print("CDF          ->", OUT / "income_cdf.csv")
