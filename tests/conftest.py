"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

from ineqstats import ingest_wri

# The offline stand-in for the WRI downloads: the 22 countries tabulated
# in the source dataset for 1990/2000/2005, as a country,year,value pair
# with energy in kW per capita (read it with per_capita=True).  The
# populations are approximate mid-year figures, used only as weights.
_DATA = Path(__file__).parent / "data"
WRI_FIXTURE = (_DATA / "wri_fixture_energy.csv", _DATA / "wri_fixture_population.csv")
FIXTURE_YEARS = (1990, 2000, 2005)
# Published population-weighted world averages, kW per capita.
WORLD_AVERAGE_KW = {1990: 2.2, 2000: 2.2, 2005: 2.3}


def fixture_year(year):
    """The fixture's country records for one year, read through the ingest."""
    return ingest_wri(*WRI_FIXTURE, year, per_capita=True)[0]


def loglog_slope(x, y, lo, hi):
    """Least-squares slope of ln y vs ln x restricted to x in [lo, hi]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x >= lo) & (x <= hi) & (y > 0)
    return float(np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)[0])


def lattice_ks(balances, temperature, floor=0):
    """Kolmogorov-Smirnov distance between the complementary CDF of the
    integer balances and exp(-m/T), evaluated on the integer lattice."""
    shifted = np.asarray(balances) - floor
    ms = np.arange(0, shifted.max() + 1)
    comp = 1.0 - np.searchsorted(np.sort(shifted), ms, side="left") / shifted.size
    return float(np.abs(comp - np.exp(-ms / temperature)).max())


def wri_data_dir():
    """Directory with real WRI downloads (energy.csv / population.csv),
    or None; gates the full-dataset tests."""
    path = os.environ.get("INEQSTATS_WRI_DIR")
    if path and os.path.isdir(path):
        return path
    return None


requires_wri = pytest.mark.skipif(
    wri_data_dir() is None,
    reason="set INEQSTATS_WRI_DIR to a directory with WRI energy.csv and "
           "population.csv to run the full-dataset checks",
)
