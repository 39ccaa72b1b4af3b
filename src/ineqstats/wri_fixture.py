"""Embedded per-capita energy fixture: the 22 countries tabulated in the
source dataset for 1990/2000/2005, in kW per person, plus the published
world-average rows.

Populations are approximate mid-year figures (millions, standard UN/World
Bank estimates) and are used only as CDF/Lorenz weights; the per-capita
values themselves are the tabulated ones.  Full analyses need the real
WRI downloads (see README); this fixture exists so tests and demos run
offline.
"""

from __future__ import annotations

from .energy import CountryRecord
from .io import write_csv

__all__ = ["FIXTURE_YEARS", "WORLD_AVERAGE_KW", "fixture_records",
           "write_fixture_csvs"]

FIXTURE_YEARS = (1990, 2000, 2005)

# Published population-weighted world averages, kW per capita.
WORLD_AVERAGE_KW = {1990: 2.2, 2000: 2.2, 2005: 2.3}

# name, label, eps_kw by year, population (millions) by year
_COUNTRIES = (
    ("Australia",            "AUS", (6.9, 7.7, 7.9),    (17.1, 19.2, 20.4)),
    ("Bahrain",              "BHR", (13.0, 12.8, 14.9), (0.50, 0.67, 0.73)),
    ("Brazil",               "BRA", (1.2, 1.4, 1.5),    (149.6, 174.5, 186.1)),
    ("Canada",               "CAN", (10.0, 10.9, 11.3), (27.7, 30.7, 32.3)),
    ("China",                "CHN", (1.0, 1.2, 1.7),    (1135.2, 1262.6, 1303.7)),
    ("Cuba",                 "CUB", (2.1, 1.4, 1.2),    (10.6, 11.1, 11.3)),
    ("France",               "FRA", (5.3, 5.8, 6.0),    (56.7, 59.0, 61.0)),
    ("Germany",              "DEU", (6.0, 5.6, 5.6),    (79.4, 82.2, 82.5)),
    ("Iceland",              "ISL", (11.3, 15.3, 16.3), (0.25, 0.28, 0.30)),
    ("India",                "IND", (0.5, 0.6, 0.6),    (873.3, 1056.6, 1144.3)),
    ("Iran",                 "IRN", (1.6, 2.4, 3.1),    (56.4, 65.8, 70.1)),
    ("Israel",               "ISR", (3.6, 4.2, 3.9),    (4.66, 6.29, 6.93)),
    ("Japan",                "JPN", (4.8, 5.5, 5.5),    (123.5, 126.8, 127.8)),
    ("Kenya",                "KEN", (0.7, 0.6, 0.7),    (23.4, 31.3, 35.6)),
    ("Kuwait",               "KWT", (5.3, 12.2, 13.9),  (2.10, 1.93, 2.26)),
    ("Mexico",               "MEX", (2.0, 2.0, 2.3),    (83.9, 98.9, 104.0)),
    ("Netherlands Antilles", "ANT", (10.4, 10.2, 11.9), (0.19, 0.18, 0.19)),
    ("Russia",               "RUS", (7.9, 5.6, 6.0),    (148.3, 146.6, 143.2)),
    ("Arab Emirates",        "ARE", (16.1, 14.7, 15.2), (1.86, 3.15, 4.30)),
    ("United Kingdom",       "GBR", (4.9, 5.3, 5.2),    (57.2, 58.9, 60.4)),
    ("United States",        "USA", (10.0, 10.8, 10.4), (249.6, 282.2, 295.5)),
    ("Qatar",                "QAT", (18.1, 25.6, 26.5), (0.47, 0.59, 0.82)),
)


def fixture_records(year: int) -> list[CountryRecord]:
    """The 22 fixture countries for one year, in per-capita mode."""
    if year not in FIXTURE_YEARS:
        raise ValueError(f"fixture covers years {FIXTURE_YEARS}; got {year}")
    idx = FIXTURE_YEARS.index(year)
    return [
        CountryRecord(name, label, year, eps[idx], pop[idx] * 1e6, per_capita=True)
        for name, label, eps, pop in _COUNTRIES
    ]


def write_fixture_csvs(energy_path, population_path) -> None:
    """Render the fixture as the `country,year,value` CSV pair the energy
    pipeline ingests (energy in kW per capita: use the per-capita flag)."""
    names = [name for name, *_ in _COUNTRIES for _ in FIXTURE_YEARS]
    years = FIXTURE_YEARS * len(_COUNTRIES)
    eps = [kw for _, _, eps_kw, _ in _COUNTRIES for kw in eps_kw]
    pop = [int(millions * 1e6) for *_, pop_millions in _COUNTRIES for millions in pop_millions]
    write_csv(energy_path, ("country", "year", "value"), (names, years, eps))
    write_csv(population_path, ("country", "year", "value"), (names, years, pop))
