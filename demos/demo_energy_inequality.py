"""Global energy-consumption inequality from the embedded country fixture.

Builds the population-weighted complementary CDF of per-capita energy
consumption for 1990/2000/2005, compares it with the parameter-free
exponential overlay exp(-eps/T) where T is the world average, and tracks
the Lorenz curve and Gini coefficient across the three years.  The same
pipeline accepts full WRI downloads via `ineqstats energy`.

Run:  python demos/demo_energy_inequality.py
"""

import math
from pathlib import Path

from ineqstats import per_capita_kw, slope_profile, weighted_cdf
from ineqstats.io import write_csv
from ineqstats.wri_fixture import (FIXTURE_YEARS, WORLD_AVERAGE_KW,
                                   fixture_records)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

print("embedded fixture: 22 countries, per-capita energy use in kW\n")

for year in FIXTURE_YEARS:
    cdf = weighted_cdf(fixture_records(year))
    avg = cdf.mean
    curve = cdf.lorenz()
    print(f"{year}: fixture-weighted average {avg:.2f} kW "
          f"(published world row {WORLD_AVERAGE_KW[year]:.1f} kW), "
          f"Gini {curve.gini:.3f}")
    write_csv(OUT / f"energy_lorenz_{year}.csv", ("x", "y"), (curve.x, curve.y))

print("\nGini decreases 1990 -> 2000 -> 2005: the energy gap narrows "
      "as the economy globalises.")

# --- 2005 in detail -------------------------------------------------------
records = fixture_records(2005)
cdf = weighted_cdf(records)
world = WORLD_AVERAGE_KW[2005]
write_csv(OUT / "energy_cdf_2005.csv", ("epsilon_kw", "C"), (cdf.values, cdf.complementary))

print(f"\n2005 ladder (world average {world} kW):")
print(f"  {'country':<22} {'eps kW':>7} {'eps/<eps>':>9} {'C(eps)':>8} "
      f"{'exp overlay':>11}")
for rec, comp in zip(sorted(records, key=per_capita_kw), cdf.complementary):
    eps = per_capita_kw(rec)
    overlay = math.exp(-eps / world)
    print(f"  {rec.name:<22} {eps:7.1f} {eps / world:9.2f} {comp:8.3f} "
          f"{overlay:11.3f}")

print("\nUSA sits between 4 and 5 world averages; India near one quarter.")
print("The overlay column is exp(-eps/T) with T fixed by the world "
      "average: no fitted parameters.")

# --- the Lorenz kink ------------------------------------------------------
profile = slope_profile(weighted_cdf(fixture_records(1990)).lorenz())
print(f"\n1990 Lorenz slope profile: largest slope jump at x = "
      f"{profile.kink_x:.3f} (jump {profile.max_jump:.2f})")
print("On the full country set this kink marks the developed/developing "
      "boundary; on the 22-country fixture it sits at the small "
      "high-consumption states near x = 1.")
print(f"\nCSV outputs in {OUT}/")
