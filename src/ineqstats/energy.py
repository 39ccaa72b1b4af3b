"""Country-level energy consumption analytics.

Ingests WRI-style CSV extracts (total energy use in ktoe per year and
population), converts to per-capita consumption in kW, and builds the
population-weighted complementary CDF, the Lorenz curve with its Gini
coefficient, and the slope profile used to locate the developed /
developing kink.  The same operations accept any non-negative per-capita
quantity (CO2 works identically), supplied directly with the per-capita
flag.

A plain input file's year index (its newline offsets and the year of
each line) is kept for the latest two such files, keyed on their exact
bytes, so reading several years of one file pair in one process scans
each file once; each entry, file and index, holds at most 16 MiB.  A
quoted, CRLF or otherwise irregular file and a process that reads one
year gain nothing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .distributions import LorenzCurve
from .errors import DomainError, EmptyJoinError, FormatError
from .io import read_csv_rows, usable_row
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
    country in name order."""

    names: tuple[str, ...]
    energy: np.ndarray
    population: np.ndarray
    year: int
    per_capita: bool = False

    def __post_init__(self):
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


def _year_rows_csv(path, data: bytes, year: int):
    """(line, name, value cell) of each ``year`` row of the file ``path``,
    whose bytes are ``data``, by the CSV reader: the path for every file
    that ``_year_rows_plain`` cannot prove plain, and the one that finds a
    bad row; ``line`` is the file line the row starts on."""
    years: dict[str, int] = {}
    for line, row in read_csv_rows(path, data):
        try:
            row_year, cell = years[row[1]], row[2]   # a short row raises in any year
        except (KeyError, IndexError):
            if not usable_row(path, line, row, 3, "country,year,value"):
                continue
            try:
                row_year = years[row[1]] = int(row[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{line}: bad year {row[1]!r}") from exc
            cell = row[2]
        if row_year == year:
            yield line, row[0], cell


def _plain_index(data: bytes):
    """The line index of the file whose bytes are ``data``, or None unless
    the file is plain: UTF-8 with no quote, CR or NUL byte, ending in a
    newline, no blank line, no line longer than the CSV field limit, and
    every line after the header of three cells, the year of 1-9 ASCII
    digits.  Such a file has one record per line, split at its two
    commas.  The index is (ends, years): the offset of every newline and
    the year of every line after the header, 16 bytes a line."""
    if b'"' in data or b"\r" in data or b"\0" in data or not data.endswith(b"\n"):
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    gaps = np.diff(ends, prepend=-1)   # line lengths, newline included
    if gaps.min() < 2 or gaps.max() - 1 > csv.field_size_limit():
        return None
    commas = np.flatnonzero(buf[ends[0]:] == ord(",")) + ends[0]
    first, second = commas[0::2], commas[1::2]
    if (commas.size != 2 * (ends.size - 1) or np.any(first <= ends[:-1])
            or np.any(second >= ends[1:])):
        return None
    width = second - first - 1
    if width.min(initial=1) < 1 or width.max(initial=0) > 9:
        return None
    years = np.zeros(width.size, np.int64)
    for j in range(width.max(initial=0)):
        live = j < width
        digit = buf[np.minimum(first + 1 + j, second)] - ord("0")   # uint8: wraps below '0'
        if np.any(live & (digit > 9)):
            return None
        years = np.where(live, 10 * years + digit, years)
    return ends, years


_PLAIN_BUDGET = 2 ** 24   # bytes one kept plain file may hold, its index included
_plain_indexes = ()   # ((bytes, index), ...) of the latest two plain files, newest first


def _year_rows_plain(data: bytes, year: int):
    """The rows ``_year_rows_csv`` yields, or None unless the file whose
    bytes are ``data`` is plain (see ``_plain_index``); only the requested
    year's lines are decoded.  The indexes of the latest two plain files
    are kept, keyed on their exact bytes, so a later year of the same
    bytes needs no second scan; an entry of more than _PLAIN_BUDGET bytes,
    file and index, is not kept."""
    global _plain_indexes
    for i, (kept, index) in enumerate(_plain_indexes):
        if kept == data:
            _plain_indexes = (_plain_indexes[i],) + _plain_indexes[:i] + _plain_indexes[i + 1:]
            break
    else:
        index = _plain_index(data)
        if index is None:
            return None
        if len(data) + sum(a.nbytes for a in index) <= _PLAIN_BUDGET:
            _plain_indexes = ((data, index),) + _plain_indexes[:1]
    ends, years = index
    hits = np.flatnonzero(years == year)
    rows = []
    for k, a, b in zip(hits.tolist(), (ends[hits] + 1).tolist(), ends[hits + 1].tolist()):
        name, _, cell = data[a:b].decode().split(",")
        rows.append((k + 2, name, cell))
    return rows


def _read_country_year_csv(path, year: int) -> dict[str, float | None]:
    """Values of ``year`` in `country,year,value` rows, keyed by country
    name; None when missing, non-numeric or not finite.  Every row's year
    is validated, so FormatError names the line of a bad row in any year,
    and a second row of one country in ``year`` is refused.  A plain file
    is scanned with numpy and any other goes to the CSV reader; the two
    give the same result on every file both accept.  The file is read
    once, and both take its bytes.  The scan's index of the latest two
    plain files is kept, keyed on their exact bytes, not their size or
    mtime, so a later year of an unchanged file skips the scan and a file
    rewritten in place is scanned again."""
    with open(path, "rb") as fh:
        data = fh.read()
    rows = _year_rows_plain(data, year)
    if rows is None:
        rows = _year_rows_csv(path, data, year)
    del data   # a plain file's rows hold only their decoded cells
    out: dict[str, float | None] = {}
    first: dict[str, int] = {}
    for line, name, cell in rows:
        name = name.strip()
        if name in first:
            raise FormatError(f"{path}:{line}: second {year} row for {name!r} "
                              f"(the first is on line {first[name]})")
        first[name] = line
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        out[name] = value if math.isfinite(value) else None
    return out


def ingest_wri(energy_csv, population_csv, year: int,
               per_capita: bool = False) -> tuple[CountryTable, DropReport]:
    """Inner-join the energy and population files on country name for one
    year, parsing only that year's rows.  Rows with missing or non-numeric
    values on either side are dropped and reported, sorted by name; an
    empty join raises."""
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
