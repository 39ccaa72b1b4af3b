"""Country-level energy consumption analytics.

Ingests WRI-style CSV extracts (total energy use in ktoe per year and
population), converts to per-capita consumption in kW, and builds the
population-weighted complementary CDF, the Lorenz curve with its Gini
coefficient, and the slope profile used to locate the developed /
developing kink.  The same operations accept any non-negative per-capita
quantity (CO2 works identically), supplied directly with the per-capita
flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import LorenzCurve
from .errors import DomainError, EmptyJoinError, FormatError
from .io import read_csv_rows, record_line, usable_row
from .weighted import WeightedCDF

__all__ = [
    "KTOE_PER_YEAR_TO_KW",
    "SECONDS_PER_YEAR",
    "CountryRecord",
    "DropReport",
    "SlopeProfile",
    "ingest_wri",
    "per_capita_kw",
    "weighted_cdf",
    "slope_profile",
]

# 1 toe = 41.85e9 J; a year is 365.25 days.
JOULES_PER_TOE = 41.85e9
SECONDS_PER_YEAR = 3.15576e7
# kW carried by 1 ktoe per year
KTOE_PER_YEAR_TO_KW = 1000.0 * JOULES_PER_TOE / SECONDS_PER_YEAR / 1000.0


@dataclass(frozen=True)
class CountryRecord:
    """One country-year: energy in ktoe/yr, or directly in kW per capita
    when ``per_capita`` is set."""

    name: str
    label: str
    year: int
    energy: float
    population: float
    per_capita: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.energy) and math.isfinite(self.population)):
            raise DomainError(f"{self.name}: energy and population must be finite")
        if self.population <= 0:
            raise DomainError(f"{self.name}: population must be positive")
        if self.energy < 0:
            raise DomainError(f"{self.name}: energy must be non-negative")


def per_capita_kw(record: CountryRecord) -> float:
    """Energy consumption per capita in kW."""
    if record.per_capita:
        return record.energy
    return record.energy * KTOE_PER_YEAR_TO_KW / record.population


@dataclass(frozen=True)
class DropReport:
    """Rows lost while joining the two input files."""

    joined: int
    dropped: tuple[tuple[str, str], ...]   # (country or file:line, reason)

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)


def _read_country_year_csv(path, year: int) -> dict[str, float | None]:
    """Values of ``year`` in `country,year,value` rows, keyed by country
    name; None when missing, non-numeric or not finite.  Every row's year
    is validated, so FormatError names the line of a bad row in any year.
    Each distinct year cell is parsed once."""
    years: dict[str, int] = {}
    out: dict[str, float | None] = {}
    for record, row in read_csv_rows(path):
        try:
            row_year, cell = years[row[1]], row[2]   # a short row raises in any year
        except (KeyError, IndexError):
            if not usable_row(path, record, row, 3, "country,year,value"):
                continue
            try:
                row_year = years[row[1]] = int(row[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{record_line(path, record)}: "
                                  f"bad year {row[1]!r}") from exc
            cell = row[2]
        if row_year != year:
            continue
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        out[row[0].strip()] = value if math.isfinite(value) else None
    return out


def _label_for(name: str) -> str:
    letters = [ch for ch in name.upper() if ch.isalpha()]
    return "".join(letters[:3]) if letters else name[:3].upper()


def ingest_wri(energy_csv, population_csv, year: int,
               per_capita: bool = False) -> tuple[list[CountryRecord], DropReport]:
    """Inner-join the energy and population files on country name for one
    year, parsing only that year's rows.  Rows with missing or non-numeric
    values on either side are dropped and reported, sorted by name; an
    empty join raises."""
    energy = _read_country_year_csv(energy_csv, year)
    population = _read_country_year_csv(population_csv, year)

    records: list[CountryRecord] = []
    dropped: list[tuple[str, str]] = []
    for name in sorted(energy.keys() | population.keys()):
        e = energy.get(name)
        p = population.get(name)
        if name not in energy:
            dropped.append((name, "missing from energy file"))
        elif name not in population:
            dropped.append((name, "missing from population file"))
        elif e is None:
            dropped.append((name, "non-numeric energy value"))
        elif p is None:
            dropped.append((name, "non-numeric population value"))
        elif p <= 0:
            dropped.append((name, "non-positive population"))
        elif e < 0:
            dropped.append((name, "negative energy"))
        else:
            records.append(CountryRecord(name, _label_for(name), year, e, p,
                                         per_capita=per_capita))
    if not records:
        err = EmptyJoinError(
            f"no usable country rows for {year} after joining "
            f"{energy_csv} with {population_csv} "
            f"({len(dropped)} rows dropped)")
        err.drops = DropReport(0, tuple(dropped))
        raise err
    return records, DropReport(len(records), tuple(dropped))


def weighted_cdf(records) -> WeightedCDF:
    """Population-weighted distribution of per-capita consumption: every
    resident of a country is assigned that country's value.  Its ``mean``
    is the world average and its ``lorenz()`` the Lorenz curve; countries
    sort by (consumption, label, name), so ties break the same way for
    any input order."""
    recs = sorted(records, key=lambda rec: (per_capita_kw(rec), rec.label, rec.name))
    values = np.array([per_capita_kw(r) for r in recs])
    weights = np.array([r.population for r in recs], dtype=float)
    return WeightedCDF(values, weights)


@dataclass(frozen=True)
class SlopeProfile:
    """Per-segment Lorenz slopes and the location of the largest slope
    jump (the kink separating country groups)."""

    slopes: np.ndarray
    kink_x: float
    max_jump: float


def slope_profile(curve: LorenzCurve) -> SlopeProfile:
    """Finite-difference slopes per curve segment and the x maximising
    the jump between consecutive slopes."""
    if len(curve) < 3:
        raise DomainError("need at least three points for a slope profile")
    dx = np.diff(curve.x)
    dy = np.diff(curve.y)
    keep = dx > 0
    slopes = dy[keep] / dx[keep]
    x_nodes = curve.x[1:][keep]          # right endpoint of each segment
    if slopes.size < 2:
        return SlopeProfile(slopes, float(x_nodes[-1]), 0.0)
    jumps = np.abs(np.diff(slopes))
    k = int(np.argmax(jumps))
    return SlopeProfile(slopes, float(x_nodes[k]), float(jumps[k]))
