"""Kinetic money exchange: relaxation to the Boltzmann-Gibbs state.

Starts 5000 agents with exactly 50 quanta each (zero entropy), runs a few
million pairwise exchanges, and watches the entropy climb to the
equilibrium value N(1 + ln T) while the balance histogram turns into the
exponential distribution.  Then couples a rich and a poor system and
reports the money and population fluxes, and prices a closed trading
cycle between the two temperatures.

Run:  python demos/demo_money_exchange.py
"""

import math
from pathlib import Path

from ineqstats import (CycleSpec, ExchangeRule, couple_systems,
                       cycle_profit_and_rate, init_ensemble, run_simulation,
                       temperature_and_potential)
from ineqstats.io import write_csv

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

N, T = 5000, 50
ens = init_ensemble(N, N * T)
rule = ExchangeRule("uniform", delta=2 * T)

print(f"{N} agents, {T} quanta each; equal start -> entropy 0")
traj = run_simulation(ens, rule, 5_000_000, checkpoint_every=500_000, seed=2024)

s_eq = N * (1 + math.log(T))
print(f"\n  {'steps':>10}  {'entropy':>9}  {'S / S_eq':>8}")
for step, s in zip(traj.steps.tolist(), traj.entropy.tolist()):
    print(f"  {int(step):>10,}  {s:9.1f}  {s / s_eq:8.4f}")

temperature, mu = temperature_and_potential(ens)
print(f"\nmoney temperature T = M/N = {temperature:.1f} quanta")
print(f"chemical potential mu = -T ln(T/m*) = {mu:.1f} quanta")

# final histogram against the exponential prediction exp(-m/T)/T
hist = traj.final_histogram
write_csv(OUT / "balance_histogram.csv", ("bin_lower", "count"),
          (hist.bin_lowers(), hist.counts))
print(f"\nbalance histogram -> {OUT / 'balance_histogram.csv'}")
print("  m      P(m) measured   P(m) exponential")
probs = hist.counts / hist.n_total
for m in (0, 25, 50, 100, 150, 200):
    if m < probs.size:
        print(f"  {m:3d}    {probs[m]:.5f}         {math.exp(-m / T) / T:.5f}")

# ---------------------------------------------------------------------------
# Two systems at different temperatures
# ---------------------------------------------------------------------------

print("\ncoupling a rich system (T1=100) to a poor one (T2=50)...")
rich = init_ensemble(500, 500 * 100)
poor = init_ensemble(500, 500 * 50)
run_simulation(rich, ExchangeRule("uniform", delta=200), 50_000, seed=5)
run_simulation(poor, ExchangeRule("uniform", delta=100), 50_000, seed=6)

money = couple_systems(rich.copy(), poor.copy(), ExchangeRule("uniform", delta=100),
                       2000, migration_rate=0.0, seed=7)
print(f"  money-only coupling: dM(1->2) = {money.delta_money:+d} quanta "
      f"(rich -> poor), dS estimate = {money.delta_entropy_estimate:+.2f}")

migration = couple_systems(rich, poor, ExchangeRule("uniform", delta=100),
                           500, migration_rate=1.0, seed=8)
print(f"  migration-only coupling: dN(1->2) = {migration.delta_agents:+d} agents "
      f"(net flow toward the rich system)")

# ---------------------------------------------------------------------------
# Profit of a closed trading cycle between the two temperatures
# ---------------------------------------------------------------------------

cycle = CycleSpec(p1=2.0, p2=1.0, v1=0.0, v2=5.0, t1=100.0, t2=50.0)
profit, rate = cycle_profit_and_rate(cycle)
print(f"\ntrading cycle: buy {cycle.v2 - cycle.v1} units at {cycle.p2}, "
      f"sell at {cycle.p1}")
print(f"  profit per cycle = {profit:.1f}; maximal rate from the "
      f"temperature ratio = {rate:.0%}")
