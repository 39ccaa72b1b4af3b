"""Country-level energy consumption analytics.

Ingests WRI-style CSV extracts (total energy use in ktoe per year and
population), converts to per-capita consumption in kW, and builds the
population-weighted complementary CDF, the Lorenz curve with its Gini
coefficient, and the slope profile used to locate the developed /
developing kink.  The same operations accept any non-negative per-capita
quantity (CO2 works identically), supplied directly with the per-capita
flag.

Each input file is parsed once into a table of its rows by year, and
the tables of the latest two files read without error are kept, keyed
on their exact bytes, so reading several years of one file pair in one
process parses each file once; each entry, file and table, holds at
most 16 MiB.  A process that reads one year gains nothing.  An entry
also holds the SHA-256 of its bytes, taken when the file is parsed, which
each read enters in the running CLI command's record of its inputs: a
read that finds its bytes kept hashes nothing.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .distributions import LorenzCurve
from .errors import DomainError, EmptyJoinError, FormatError
from .io import read_csv_rows, record_input, usable_row, whole_number
from .weighted import WeightedCDF

__all__ = [
    "KTOE_PER_YEAR_TO_KW",
    "SECONDS_PER_YEAR",
    "CountryTable",
    "DropReport",
    "SlopeProfile",
    "ingest_wri",
    "weighted_cdf",
    "slope_profile",
]

# 1 toe = 41.85e9 J; a year is 365.25 days.
JOULES_PER_TOE = 41.85e9
SECONDS_PER_YEAR = 3.15576e7
# kW carried by 1 ktoe per year
KTOE_PER_YEAR_TO_KW = 1000.0 * JOULES_PER_TOE / SECONDS_PER_YEAR / 1000.0


@dataclass(frozen=True)
class CountryTable:
    """One year's countries as columns: the names sorted, and each
    country's energy in ktoe/yr, or directly in kW per capita when
    ``per_capita`` is set, and its population.  Rows given in any order
    are sorted by name; a name given twice, a value that is not finite, a
    population <= 0 or an energy < 0 is refused, naming the first such
    country in name order.  ``year`` is a whole number, kept as an int."""

    names: tuple[str, ...]
    energy: np.ndarray
    population: np.ndarray
    year: int
    per_capita: bool = False

    def __post_init__(self):
        object.__setattr__(self, "year", whole_number(self.year, "year"))
        names = tuple(self.names)
        energy = np.array(self.energy, dtype=float)
        population = np.array(self.population, dtype=float)
        if energy.shape != (len(names),) or population.shape != (len(names),):
            raise DomainError(f"need one energy and one population value for each of "
                              f"{len(names)} countries")
        if any(a >= b for a, b in zip(names, names[1:])):
            order = sorted(range(len(names)), key=names.__getitem__)
            names = tuple(names[i] for i in order)
            energy, population = energy[order], population[order]
            for a, b in zip(names, names[1:]):
                if a == b:
                    raise DomainError(f"{a}: country given twice")
        finite = np.isfinite(energy) & np.isfinite(population)
        bad = np.flatnonzero(~finite | (population <= 0) | (energy < 0))
        if bad.size:
            i = bad[0]
            if not finite[i]:
                why = "energy and population must be finite"
            elif population[i] <= 0:
                why = "population must be positive"
            else:
                why = "energy must be non-negative"
            raise DomainError(f"{names[i]}: {why}")
        energy.flags.writeable = population.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "population", population)

    def __len__(self):
        return len(self.names)

    def per_capita_kw(self) -> np.ndarray:
        """Energy consumption per capita in kW, one value per country."""
        if self.per_capita:
            return self.energy
        return self.energy * KTOE_PER_YEAR_TO_KW / self.population


@dataclass(frozen=True)
class DropReport:
    """Rows lost while joining the two input files."""

    joined: int
    dropped: tuple[tuple[str, str], ...]   # (country or file:line, reason)

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)


def _year_table(path, data: bytes):
    """The rows of the `country,year,value` file ``path``, whose bytes are
    ``data``, parsed once by the CSV reader and grouped by year, and the
    FormatError of its first bad row or None.  ``table[year]`` is (lines,
    names, values): each row's file line, its name stripped (one str
    object per distinct name) and its value as a float, NaN where the cell
    is not a number.  A file with a bad row is parsed up to that row."""
    table: dict[int, tuple[array, list[str], array]] = {}
    by_cell: dict[str, tuple[array, list[str], array]] = {}   # keyed on the year cell
    names: dict[str, str] = {}
    try:
        for line, row in read_csv_rows(path, data):
            try:
                rows, cell = by_cell[row[1]], row[2]   # a short row raises in any year
            except (KeyError, IndexError):
                if not usable_row(path, line, row, 3, "country,year,value"):
                    continue
                try:
                    year = int(row[1])
                except ValueError as exc:
                    raise FormatError(f"{path}:{line}: bad year {row[1]!r}") from exc
                rows = by_cell[row[1]] = table.setdefault(year, (array("q"), [], array("d")))
                cell = row[2]
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            name = row[0].strip()
            rows[0].append(line)
            rows[1].append(names.setdefault(name, name))
            rows[2].append(value)
    except FormatError as exc:
        return table, exc
    return table, None


_TABLE_BUDGET = 2 ** 24   # bytes one kept file may hold, 24 a row of its table included
_year_tables = ()   # ((bytes, table, sha256), ...) of the latest two files read, newest first


def _read_country_year_csv(path, year: int) -> dict[str, float | None]:
    """Values of ``year`` in `country,year,value` rows, keyed by country
    name; None when missing, non-numeric or not finite.  Every row's year
    is validated, so FormatError names the line of a bad row in any year,
    and a second row of one country in ``year`` is refused; ``year``'s
    rows before a bad row are checked for a second row first.  The file is
    read once and parsed by ``_year_table``, and the digest of its bytes
    is recorded.  The tables of the latest two files read without error
    are kept with their digests, keyed on their exact bytes, not their
    size or mtime, so a later year of an unchanged file is a lookup and a
    file rewritten in place is parsed again; an entry of more than
    _TABLE_BUDGET bytes, file and table, is not kept."""
    global _year_tables
    with open(path, "rb") as fh:
        data = fh.read()
    kept = next((entry for entry in _year_tables if entry[0] == data), None)
    table, error = (kept[1], None) if kept else _year_table(path, data)
    lines, names, values = table.get(year, ((), (), ()))
    first: dict[str, int] = {}
    for line, name in zip(lines, names):
        if name in first:
            raise FormatError(f"{path}:{line}: second {year} row for {name!r} "
                              f"(the first is on line {first[name]})")
        first[name] = line
    if error is not None:
        raise error
    if kept is None:
        kept = (data, table, hashlib.sha256(data).hexdigest())
        size = len(data) + 24 * sum(len(rows[1]) for rows in table.values())
        if size <= _TABLE_BUDGET:
            _year_tables = (kept,) + _year_tables[:1]
    else:
        _year_tables = (kept,) + tuple(entry for entry in _year_tables if entry is not kept)[:1]
    record_input(path, data, kept[2])
    return {name: value if math.isfinite(value) else None
            for name, value in zip(names, values)}


def ingest_wri(energy_csv, population_csv, year: int,
               per_capita: bool = False) -> tuple[CountryTable, DropReport]:
    """Inner-join the energy and population files on country name for one
    year, a whole number (FormatError otherwise, before either file is
    opened).  Every row of both files is parsed, and the tables of the
    latest two files are kept, so a later year of the same bytes needs no
    second parse.  Rows with missing or non-numeric values on either side
    are dropped and reported, sorted by name; an empty join raises."""
    year = whole_number(year, "year")
    energy = _read_country_year_csv(energy_csv, year)
    population = _read_country_year_csv(population_csv, year)

    names: list[str] = []
    energies: list[float] = []
    populations: list[float] = []
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
            names.append(name)
            energies.append(e)
            populations.append(p)
    if not names:
        err = EmptyJoinError(
            f"no usable country rows for {year} after joining "
            f"{energy_csv} with {population_csv} "
            f"({len(dropped)} rows dropped)")
        err.drops = DropReport(0, tuple(dropped))
        raise err
    table = CountryTable(tuple(names), energies, populations, year, per_capita)
    return table, DropReport(len(table), tuple(dropped))


def weighted_cdf(table: CountryTable) -> WeightedCDF:
    """Population-weighted distribution of per-capita consumption: every
    resident of a country is assigned that country's value.  Its ``mean``
    is the world average and its ``lorenz()`` the Lorenz curve; countries
    sort by (consumption, name), so ties break the same way for any input
    order."""
    values = table.per_capita_kw()
    order = np.argsort(values, kind="stable")   # the names are sorted already
    return WeightedCDF(values[order], table.population[order])


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
