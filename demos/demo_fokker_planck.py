"""Income diffusion: stationary solutions and transient relaxation.

Solves the stationary diffusion equation for the three drift/diffusion
kinds (additive -> exponential, multiplicative -> power law, combined ->
the interpolating distribution), checks them against the closed forms,
relaxes a narrow income pulse to the stationary state, and tabulates the
d<r^2>/dt diagnostic whose scale-free zero marks alpha = 2.

Run:  python demos/demo_fokker_planck.py
"""

from pathlib import Path

import numpy as np

from ineqstats import (DriftDiffusionSpec, GridDistribution, TwoClassModel,
                       delta_r2_diagnostic, evolve_transient,
                       stationary_solution)
from ineqstats.io import write_csv

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# --- additive: constant drift and diffusion give the exponential --------
add = DriftDiffusionSpec.additive(a0=2.0, b0=80.0)
dist = stationary_solution(add)
T = add.temperature
sel = dist.grid <= 10 * T
err = np.abs(dist.density[sel] / (np.exp(-dist.grid[sel] / T) / T) - 1).max()
print(f"additive (a0=2, b0=80): T = b0/a0 = {T:.0f}")
print(f"  stationary solution vs exp(-r/T)/T: max relative error {err:.2e}")

# --- multiplicative: proportional changes give the Pareto tail ----------
mult = DriftDiffusionSpec.multiplicative(a=1.0, b=2.0)
grid = np.geomspace(1.0, 1e6, 6000)
pl = stationary_solution(mult, grid)
mask = (pl.grid > 1e2) & (pl.grid < 1e5)
slope = np.polyfit(np.log(pl.grid[mask]), np.log(pl.density[mask]), 1)[0]
print(f"\nmultiplicative (a=1, b=2): alpha = 1 + a/b = {mult.pareto_exponent}")
print(f"  tail log-log slope {slope:.4f} (expected -(1+alpha) = "
      f"{-(1 + mult.pareto_exponent)})")

# --- combined: exponential body, power-law tail --------------------------
comb = DriftDiffusionSpec.combined(a0=500.0, a=1.0, b0=2e4, b=2.0)
both = stationary_solution(comb)
model = TwoClassModel(comb.temperature, comb.pareto_exponent,
                      comb.crossover_income)
err = np.abs(both.density[1:-1] / model.pdf(both.grid[1:-1]) - 1).max()
print(f"\ncombined (a0=500, a=1, b0=2e4, b=2): T={comb.temperature:.0f}, "
      f"alpha={comb.pareto_exponent:.1f}, r0={comb.crossover_income:.0f}")
print(f"  quadrature vs closed form: max relative error {err:.2e}")
write_csv(OUT / "stationary_combined.csv", ("r", "density"), (both.grid, both.density))

# --- transient: a mid-income pulse relaxes to the exponential -----------
spec = DriftDiffusionSpec.additive(a0=1.0, b0=1.0)   # T = 1
lin = np.linspace(0.0, 15.0, 401)
stat = stationary_solution(spec, lin)
widths = np.gradient(lin)
pulse = np.exp(-0.5 * ((lin - 5.0) / 0.2) ** 2)
pulse /= np.sum(pulse * widths)
state = GridDistribution(lin, pulse)
dt = 0.4 * (lin[1] - lin[0]) ** 2

print("\npulse at r = 5T relaxing to the stationary exponential:")
print(f"  {'time':>6}  {'L1 distance':>12}  {'mass':>10}")
for leg in range(6):
    steps = int(4.0 / dt)
    state = evolve_transient(state, spec, dt, steps)
    t = 4.0 * (leg + 1)
    print(f"  {t:6.1f}  {state.l1_distance(stat):12.3e}  {state.mass:10.8f}")

# --- the d<r^2>/dt diagnostic ------------------------------------------
print("\nd<r^2>/dt = 2(B - rA):")
r = np.array([10.0, 40.0, 100.0])
print(f"  additive at r={r.tolist()}: {delta_r2_diagnostic(r, add).round(1).tolist()}"
      "   (sign change at r = T)")
for a in (0.5, 1.0, 2.0):
    diag = delta_r2_diagnostic(100.0, DriftDiffusionSpec.multiplicative(a=a, b=1.0))
    alpha = 1 + a
    print(f"  multiplicative a={a}, b=1 (alpha={alpha:.1f}): "
          f"d<r^2>/dt at r=100 is {diag:+.0f}"
          + ("   <- scale-free stationary point" if diag == 0 else ""))
