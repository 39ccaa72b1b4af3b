"""Weighted empirical distributions over sorted (value, weight) levels.

Used with count weights for income tables and population weights for the
energy data; both pipelines share the complementary CDF and the Lorenz
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import LorenzCurve
from .errors import DegenerateCurveError, DomainError

__all__ = ["WeightedCDF"]


@dataclass(frozen=True)
class WeightedCDF:
    """Sorted levels with complementary cumulative weight fractions.

    ``complementary[i]`` is the weight fraction at values >= values[i]
    (inclusive), so it equals 1 at the smallest level and is
    non-increasing.  Zero-weight levels are dropped; they carry no mass
    and would break the log-scale fits downstream.
    """

    values: np.ndarray
    weights: np.ndarray
    complementary: np.ndarray = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.size == 0 or values.size != weights.size:
            raise DomainError("need matching, non-empty value and weight arrays")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(weights))):
            raise DomainError("values and weights must be finite")
        if np.any(weights < 0):
            raise DomainError("weights must be non-negative")
        keep = weights > 0
        if not np.any(keep):
            raise DomainError("all weights are zero")
        values, weights = values[keep], weights[keep]
        with np.errstate(over="ignore", invalid="ignore"):
            totals = (weights.sum(), np.sum(values * weights))
        if not np.all(np.isfinite(totals)):
            raise DomainError("the total weight and the weighted total of the values "
                              "must be finite")
        order = np.argsort(values, kind="stable")
        values, weights = values[order], weights[order]
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        comp = weights[::-1].cumsum()[::-1] / weights.sum()
        object.__setattr__(self, "complementary", comp)

    def __len__(self):
        return self.values.size

    @property
    def mean(self) -> float:
        """Weight-averaged value (for energy: the consumption temperature)."""
        return float(np.sum(self.values * self.weights) / self.weights.sum())

    def lorenz(self) -> LorenzCurve:
        """Lorenz curve of the weighted levels, prepending (0, 0)."""
        wsum = self.weights.sum()
        vw = self.values * self.weights
        vw_total = vw.sum()
        if vw_total <= 0:
            raise DegenerateCurveError("all values are zero; Lorenz curve undefined")
        x = np.concatenate([[0.0], np.cumsum(self.weights) / wsum])
        y = np.concatenate([[0.0], np.cumsum(vw) / vw_total])
        # guard float drift at the closing point
        x[-1] = 1.0
        y[-1] = 1.0
        return LorenzCurve(x, y)
