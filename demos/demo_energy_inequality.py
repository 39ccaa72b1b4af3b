"""Global energy-consumption inequality from the 22-country WRI fixture.

Reads the fixture pair in tests/data (country,year,value rows, energy in
kW per capita, approximate populations) through `ingest_wri`, the reader
that `ineqstats energy` uses.  Builds the population-weighted
complementary CDF of per-capita energy consumption for 1990/2000/2005,
compares it with the parameter-free exponential overlay exp(-eps/T) where
T is the world average, and tracks the Lorenz curve and Gini coefficient
across the three years.  The same pipeline accepts full WRI downloads via
`ineqstats energy`.

Run:  python demos/demo_energy_inequality.py
"""

import math
from pathlib import Path

from ineqstats import ingest_wri, slope_profile, weighted_cdf
from ineqstats.io import write_csv

DATA = Path(__file__).parents[1] / "tests" / "data"
OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

FIXTURE_YEARS = (1990, 2000, 2005)
# Published population-weighted world averages, kW per capita.
WORLD_AVERAGE_KW = {1990: 2.2, 2000: 2.2, 2005: 2.3}


def fixture_year(year):
    return ingest_wri(DATA / "wri_fixture_energy.csv", DATA / "wri_fixture_population.csv",
                      year, per_capita=True)[0]


print("WRI fixture: 22 countries, per-capita energy use in kW\n")

for year in FIXTURE_YEARS:
    cdf = weighted_cdf(fixture_year(year))
    avg = cdf.mean
    curve = cdf.lorenz()
    print(f"{year}: fixture-weighted average {avg:.2f} kW "
          f"(published world row {WORLD_AVERAGE_KW[year]:.1f} kW), "
          f"Gini {curve.gini:.3f}")
    write_csv(OUT / f"energy_lorenz_{year}.csv", ("x", "y"), (curve.x, curve.y))

print("\nGini decreases 1990 -> 2000 -> 2005: the energy gap narrows "
      "as the economy globalises.")

# --- 2005 in detail -------------------------------------------------------
table = fixture_year(2005)
cdf = weighted_cdf(table)
world = WORLD_AVERAGE_KW[2005]
write_csv(OUT / "energy_cdf_2005.csv", ("epsilon_kw", "C"), (cdf.values, cdf.complementary))

print(f"\n2005 ladder (world average {world} kW):")
print(f"  {'country':<22} {'eps kW':>7} {'eps/<eps>':>9} {'C(eps)':>8} "
      f"{'exp overlay':>11}")
kw = table.per_capita_kw()
ladder = sorted(zip(kw.tolist(), table.names))
for (eps, name), comp in zip(ladder, cdf.complementary):
    overlay = math.exp(-eps / world)
    print(f"  {name:<22} {eps:7.1f} {eps / world:9.2f} {comp:8.3f} "
          f"{overlay:11.3f}")

print("\nUSA sits between 4 and 5 world averages; India near one quarter.")
print("The overlay column is exp(-eps/T) with T fixed by the world "
      "average: no fitted parameters.")

# --- the Lorenz kink ------------------------------------------------------
profile = slope_profile(weighted_cdf(fixture_year(1990)).lorenz())
print(f"\n1990 Lorenz slope profile: largest slope jump at x = "
      f"{profile.kink_x:.3f} (jump {profile.max_jump:.2f})")
print("On the full country set this kink marks the developed/developing "
      "boundary; on the 22-country fixture it sits at the small "
      "high-consumption states near x = 1.")
print(f"\nCSV outputs in {OUT}/")
