"""Closed-form and quadrature-backed distribution functions.

The centrepiece is :class:`TwoClassModel`, the three-parameter income
density

    P(r) = c * exp(-(r0/T) * arctan(r/r0)) / (1 + (r/r0)^2)^((alpha+1)/2)

which decays like exp(-r/T) for r << r0 and like r^-(1+alpha) for
r >> r0.  The normalisation constant c and the complementary CDF have no
closed form, so the model carries a quadrature grid: trapezoid sums on a
log-spaced grid, with the far tail added analytically from the power-law
asymptote (the arctan prefactor saturates, so the tail integral is exact
up to O(r0/r_max) corrections).

The module also holds the Lorenz/Gini analytics shared by the fitting and
energy pipelines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MalformedCurveError, NoIntersectionError
from .io import load_json_object

__all__ = [
    "TwoClassModel",
    "LorenzCurve",
    "lorenz_exponential",
    "lorenz_two_class",
    "sample_lorenz_curve",
    "tail_fraction",
    "class_boundary",
]


def _as_float_array(r):
    arr = np.asarray(r, dtype=float)
    return arr, arr.ndim == 0


class TwoClassModel:
    """Interpolating income distribution with parameters (T, alpha, r0).

    T is the temperature of the exponential body, alpha the tail exponent
    of the complementary CDF, and r0 the crossover income.  ``c`` is the
    normalisation constant, fixed at construction so the density
    integrates to one on [0, inf).

    Parameters
    ----------
    T, alpha, r0 : float
        Model parameters; require T > 0, alpha > 1, r0 > 0.
    points_per_decade : int
        Resolution of the internal log grid.  The default keeps the
        normalisation and CDF accurate to ~1e-7 relative.
    tail_mass_bound : float
        The grid is extended until the analytic tail remainder holds less
        than this fraction of the total mass.
    """

    def __init__(self, T: float, alpha: float, r0: float,
                 points_per_decade: int = 3000, tail_mass_bound: float = 1e-9):
        if not (T > 0 and alpha > 1 and r0 > 0):
            raise DomainError(
                f"two-class model needs T > 0, alpha > 1, r0 > 0; "
                f"got T={T}, alpha={alpha}, r0={r0}")
        self.T = float(T)
        self.alpha = float(alpha)
        self.r0 = float(r0)
        self._tail_factor = math.exp(-(self.r0 / self.T) * (math.pi / 2.0))

        # Two-pass grid construction: a coarse pass estimates the total
        # mass, which fixes r_max so the analytic tail remainder is below
        # tail_mass_bound of the total.
        r_lin = min(self.T, self.r0) / 100.0
        coarse_max = 1e4 * max(self.T, self.r0)
        coarse = np.concatenate([
            np.linspace(0.0, r_lin, 64, endpoint=False),
            np.geomspace(r_lin, coarse_max, 2000),
        ])
        mass_est = np.trapezoid(self._raw_pdf(coarse), coarse)
        r_max = self.r0 * (self._tail_factor * self.r0
                           / (self.alpha * tail_mass_bound * mass_est)) ** (1.0 / self.alpha)
        r_max = max(r_max, 100.0 * max(self.T, self.r0))

        n_log = int(np.ceil(np.log10(r_max / r_lin) * points_per_decade))
        self._grid = np.concatenate([
            np.linspace(0.0, r_lin, 512, endpoint=False),
            np.geomspace(r_lin, r_max, n_log),
        ])
        self._raw = self._raw_pdf(self._grid)
        seg = 0.5 * (self._raw[1:] + self._raw[:-1]) * np.diff(self._grid)
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._tail_mass = (self._tail_factor * self.r0
                           * (self.r0 / r_max) ** self.alpha / self.alpha)
        self.c = 1.0 / (self._cum[-1] + self._tail_mass)
        self._r_max = r_max
        # complementary CDF at grid nodes, used for interpolation/sampling
        self._comp = 1.0 - self.c * self._cum

    # -- internals ---------------------------------------------------------

    def _raw_pdf(self, r):
        r = np.asarray(r, dtype=float)
        x = r / self.r0
        return np.exp(-(self.r0 / self.T) * np.arctan(x)) / (1.0 + x * x) ** ((self.alpha + 1.0) / 2.0)

    # -- public surface ----------------------------------------------------

    def pdf(self, r):
        """Probability density P(r); accepts scalars or arrays, r >= 0."""
        arr, scalar = _as_float_array(r)
        if np.any(arr < 0):
            raise DomainError("income must be non-negative")
        out = self.c * self._raw_pdf(arr)
        return float(out) if scalar else out

    def cdf(self, r):
        """Complementary CDF C(r) = integral of the pdf over [r, inf)."""
        arr, scalar = _as_float_array(r)
        if np.any(arr < 0):
            raise DomainError("income must be non-negative")
        arr1 = np.atleast_1d(arr)
        out = np.empty_like(arr1)
        far = arr1 >= self._r_max
        if np.any(far):
            out[far] = (self.c * self._tail_factor * self.r0 ** (self.alpha + 1.0)
                        * arr1[far] ** (-self.alpha) / self.alpha)
        near = ~far
        if np.any(near):
            rn = arr1[near]
            idx = np.searchsorted(self._grid, rn, side="right") - 1
            idx = np.clip(idx, 0, self._grid.size - 2)
            left = self._grid[idx]
            # trapezoid correction inside the bracketing grid segment
            corr = 0.5 * (self._raw[idx] + self._raw_pdf(rn)) * (rn - left)
            out[near] = 1.0 - self.c * (self._cum[idx] + corr)
        out = np.clip(out, 0.0, 1.0)
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def inverse_cdf(self, comp_values):
        """Income r at which the complementary CDF equals the given value."""
        arr, scalar = _as_float_array(comp_values)
        if np.any((arr <= 0) | (arr > 1)):
            raise DomainError("complementary CDF values must lie in (0, 1]")
        out = np.interp(-np.atleast_1d(arr), -self._comp, self._grid)
        return float(out[0]) if scalar else out.reshape(arr.shape)

    @property
    def tail_prefactor(self) -> float:
        """c2 in the tail asymptote of the complementary CDF,
        C(r) -> c2 * r^-alpha for r >> r0."""
        return (self.c * self._tail_factor * self.r0 ** (self.alpha + 1.0)
                / self.alpha)

    def mean(self) -> float:
        """First moment, with the analytic power-law tail remainder."""
        seg = 0.5 * (self._grid[1:] * self._raw[1:]
                     + self._grid[:-1] * self._raw[:-1]) * np.diff(self._grid)
        tail = (self._tail_factor * self.r0 ** (self.alpha + 1.0)
                * self._r_max ** (1.0 - self.alpha) / (self.alpha - 1.0))
        return float(self.c * (np.sum(seg) + tail))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n incomes by inverse transform on the complementary CDF."""
        u = rng.random(n)
        # u == 0 would map beyond the grid; nudge into the open interval
        u = np.maximum(u, 1e-12)
        return self.inverse_cdf(u)

    def to_json(self) -> str:
        return json.dumps({"T": self.T, "alpha": self.alpha, "r0": self.r0, "c": self.c})

    @classmethod
    def from_json(cls, text: str) -> "TwoClassModel":
        obj = load_json_object(text, "two-class model")
        return cls(obj["T"], obj["alpha"], obj["r0"])

    def __repr__(self):
        return f"TwoClassModel(T={self.T:g}, alpha={self.alpha:g}, r0={self.r0:g}, c={self.c:.6g})"


# ---------------------------------------------------------------------------
# Lorenz curves and the Gini coefficient
# ---------------------------------------------------------------------------

_CURVE_TOL = 1e-9


@dataclass(frozen=True)
class LorenzCurve:
    """Monotone curve from (0,0) to (1,1); x is the population share,
    y the resource share.  Duplicate x values are allowed and represent a
    vertical jump (used by the two-class curve at x = 1).  ``gini`` is
    twice the area between the diagonal and the curve, by trapezoid."""

    x: np.ndarray
    y: np.ndarray
    gini: float = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.size < 2 or x.size != y.size:
            raise MalformedCurveError("a Lorenz curve needs at least two (x, y) points")
        if abs(x[0]) > _CURVE_TOL or abs(y[0]) > _CURVE_TOL:
            raise MalformedCurveError("Lorenz curve must start at (0, 0)")
        if abs(x[-1] - 1) > _CURVE_TOL or abs(y[-1] - 1) > _CURVE_TOL:
            raise MalformedCurveError("Lorenz curve must end at (1, 1)")
        if np.any(np.diff(x) < -_CURVE_TOL) or np.any(np.diff(y) < -_CURVE_TOL):
            raise MalformedCurveError("Lorenz coordinates must be non-decreasing")
        if np.any(y > x + 1e-7):
            raise MalformedCurveError("Lorenz curve must lie on or below the diagonal")
        object.__setattr__(self, "gini", 1.0 - 2.0 * float(np.trapezoid(y, x)))

    def __len__(self):
        return self.x.size


def lorenz_exponential(x):
    """Lorenz curve of the exponential distribution: y = x + (1-x) ln(1-x).

    Independent of the temperature.  x = 1 is handled by the continuity
    limit y -> 1.
    """
    arr, scalar = _as_float_array(x)
    if np.any((arr < 0) | (arr > 1)):
        raise DomainError("population fraction must lie in [0, 1]")
    one_minus = 1.0 - np.atleast_1d(arr)
    out = np.where(one_minus > 0,
                   np.atleast_1d(arr) + one_minus * np.log(np.where(one_minus > 0, one_minus, 1.0)),
                   1.0)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def lorenz_two_class(x, f: float):
    """Exponential Lorenz curve rescaled by (1-f) plus a jump f at x = 1.

    f is the income share of the upper tail; the jump encodes a class of
    negligible population holding that share.
    """
    if not 0 <= f < 1:
        raise DomainError(f"tail income fraction must lie in [0, 1); got {f}")
    arr, scalar = _as_float_array(x)
    base = np.atleast_1d(np.asarray(lorenz_exponential(arr), dtype=float))
    out = (1.0 - f) * base + f * (np.atleast_1d(arr) == 1.0)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def sample_lorenz_curve(f: float = 0.0, n: int = 10001) -> LorenzCurve:
    """Sample lorenz_two_class on a uniform grid, keeping the pre-jump
    point (1, 1-f) so the jump is visible in plots and CSV output."""
    if n < 2:
        raise DomainError("need at least two sample points")
    x = np.linspace(0.0, 1.0, n)
    y = np.atleast_1d(lorenz_two_class(x, f))
    if f > 0:
        x = np.append(np.append(x[:-1], 1.0), 1.0)
        y = np.append(np.append(y[:-1], 1.0 - f), 1.0)
    return LorenzCurve(x, y)


# ---------------------------------------------------------------------------
# Two-class summary quantities
# ---------------------------------------------------------------------------


def tail_fraction(T: float, mean_income: float) -> float:
    """Income share of the upper tail, f = 1 - T/<r>.

    T is the lower-class temperature and mean_income the average over the
    whole system; T > mean_income signals a non-physical fit.
    """
    if T <= 0 or mean_income <= 0:
        raise DomainError("temperature and mean income must be positive")
    if T > mean_income:
        raise DomainError(
            f"temperature {T:g} exceeds mean income {mean_income:g}: "
            "tail fraction would be negative")
    return 1.0 - T / mean_income


def class_boundary(T: float, alpha: float, exp_prefactor: float,
                   pl_prefactor: float, bracket: tuple[float, float] = (1.0, 100.0),
                   tol: float = 1e-12) -> tuple[float, float]:
    """Intersection r* of the fitted exponential and power-law CDFs.

    Solves exp_prefactor * exp(-r/T) = pl_prefactor * r^-alpha by
    bisection on r in [bracket[0]*T, bracket[1]*T].  Returns (r_star,
    upper_fraction) where upper_fraction = exp(-r*/T) is the implied
    population share of the upper class.
    """
    if T <= 0 or alpha <= 0 or exp_prefactor <= 0 or pl_prefactor <= 0:
        raise DomainError("class_boundary needs positive T, alpha and prefactors")

    def gap(r):
        return math.log(exp_prefactor) - r / T - math.log(pl_prefactor) + alpha * math.log(r)

    lo, hi = bracket[0] * T, bracket[1] * T
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo, math.exp(-lo / T)
    if g_hi == 0.0:
        return hi, math.exp(-hi / T)
    if g_lo * g_hi > 0:
        raise NoIntersectionError(
            "fitted exponential and power-law CDFs do not cross in "
            f"[{lo:g}, {hi:g}]; the fits are degenerate")
    while hi - lo > tol * T:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            lo = hi = mid
            break
        if g_lo * g_mid < 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    r_star = 0.5 * (lo + hi)
    return r_star, math.exp(-r_star / T)
