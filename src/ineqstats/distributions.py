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

:class:`LevelQuadrature` is the fitting counterpart: fixed Gauss-Legendre
nodes built once for a set of income levels, which give the complementary
CDF at those levels for any (T, alpha, r0) without building a grid.

The module also holds the Lorenz/Gini analytics shared by the fitting and
energy pipelines.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MalformedCurveError, NoIntersectionError
from .io import load_json_object

__all__ = [
    "TwoClassModel",
    "LevelQuadrature",
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


# Resolution of TwoClassModel's log grid: the normalisation and the CDF
# are accurate to ~1e-7 relative, and the grid is extended until the
# analytic tail remainder holds less than _TAIL_MASS_BOUND of the mass.
_POINTS_PER_DECADE = 3000
_TAIL_MASS_BOUND = 1e-9
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_parameters(T, alpha, r0) -> None:
    if not (T > 0 and alpha > 1 and r0 > 0):
        raise DomainError(
            f"two-class model needs T > 0, alpha > 1, r0 > 0; "
            f"got T={T}, alpha={alpha}, r0={r0}")


def _raw_density(r, T, alpha, r0):
    """The two-class density without its normalisation constant c."""
    x = r / r0
    return np.exp(-(r0 / T) * np.arctan(x)) / (1.0 + x * x) ** ((alpha + 1.0) / 2.0)


def _tail_mass(T, alpha, r0, r_max) -> float:
    """Unnormalised mass beyond r_max from the power-law asymptote."""
    tail_factor = math.exp(-(r0 / T) * (math.pi / 2.0))
    return tail_factor * r0 * (r0 / r_max) ** alpha / alpha


class TwoClassModel:
    """Interpolating income distribution with parameters (T, alpha, r0).

    T is the temperature of the exponential body, alpha the tail exponent
    of the complementary CDF, and r0 the crossover income.  ``c`` is the
    normalisation constant, fixed at construction so the density
    integrates to one on [0, inf).

    The model carries a log-spaced grid of 3 000 points per decade,
    accurate to ~1e-7 relative; to evaluate the CDF at fixed levels for
    many parameter sets, use :class:`LevelQuadrature` instead.

    Parameters
    ----------
    T, alpha, r0 : float
        Model parameters; require T > 0, alpha > 1, r0 > 0.
    """

    def __init__(self, T: float, alpha: float, r0: float):
        _check_parameters(T, alpha, r0)
        self.T = float(T)
        self.alpha = float(alpha)
        self.r0 = float(r0)
        self._tail_factor = math.exp(-(self.r0 / self.T) * (math.pi / 2.0))

        # Two-pass grid construction: a coarse pass estimates the total
        # mass, which fixes r_max so the analytic tail remainder is below
        # _TAIL_MASS_BOUND of the total.
        r_lin = min(self.T, self.r0) / 100.0
        coarse_max = 1e4 * max(self.T, self.r0)
        coarse = np.concatenate([
            np.linspace(0.0, r_lin, 64, endpoint=False),
            np.geomspace(r_lin, coarse_max, 2000),
        ])
        mass_est = np.trapezoid(self._raw_pdf(coarse), coarse)
        r_max = self.r0 * (self._tail_factor * self.r0
                           / (self.alpha * _TAIL_MASS_BOUND * mass_est)) ** (1.0 / self.alpha)
        r_max = max(r_max, 100.0 * max(self.T, self.r0))

        n_log = int(np.ceil(np.log10(r_max / r_lin) * _POINTS_PER_DECADE))
        self._grid = np.concatenate([
            np.linspace(0.0, r_lin, 512, endpoint=False),
            np.geomspace(r_lin, r_max, n_log),
        ])
        self._raw = self._raw_pdf(self._grid)
        seg = 0.5 * (self._raw[1:] + self._raw[:-1]) * np.diff(self._grid)
        self._cum = np.concatenate([[0.0], np.cumsum(seg)])
        self._tail_mass = _tail_mass(self.T, self.alpha, self.r0, r_max)
        self.c = 1.0 / (self._cum[-1] + self._tail_mass)
        self._r_max = r_max
        # complementary CDF at grid nodes, used for interpolation/sampling
        self._comp = 1.0 - self.c * self._cum

    # -- internals ---------------------------------------------------------

    def _raw_pdf(self, r):
        return _raw_density(np.asarray(r, dtype=float), self.T, self.alpha, self.r0)

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
        C(r) -> c2 * r^-alpha for r >> r0.  Summed in logs, because
        r0^(alpha+1) alone can overflow where the product does not; a c2
        beyond the float range reads inf."""
        log_c2 = (math.log(self.c) - (self.r0 / self.T) * (math.pi / 2.0)
                  + (self.alpha + 1.0) * math.log(self.r0) - math.log(self.alpha))
        return math.exp(log_c2) if log_c2 < _LOG_FLOAT_MAX else math.inf

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


# 8-point Gauss-Legendre rule on [-1, 1], written out so that getting it
# needs neither numpy.polynomial nor an eigenvalue solve.
_GL_HALF_NODES = np.array([0.1834346424956498, 0.525532409916329,
                           0.7966664774136267, 0.9602898564975363])
_GL_HALF_WEIGHTS = np.array([0.362683783378362, 0.31370664587788727,
                             0.22238103445337448, 0.10122853629037626])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])

# Widest quadrature panel, in ln r.  Where the exponential body still
# holds C >= 1e-12 out near 30 T (r0 ~ 50 T), panels 0.5 wide are off by
# ~2e-9 relative; at 0.25 the error stays at rounding level.
_PANEL_WIDTH = 0.25
_LOW_FRACTION = 1e-3   # log panels start at this fraction of the first positive level
_TOP_FACTOR = 1e8      # ... and stop at this multiple of the last level


class LevelQuadrature:
    """Complementary CDF of the two-class model at fixed income levels.

    The nodes depend on the levels alone, so one instance serves every
    (T, alpha, r0) a fit tries, at the cost of ~1 250 density evaluations
    per call for a 50-level table instead of a :class:`TwoClassModel`
    grid.  The breakpoints are the positive levels, 1e-3 x the first of
    them and R = 1e8 x the last; each interval between breakpoints is
    split into equal panels at most 0.25 wide in ln r, each integrated by
    8-point Gauss-Legendre in ln r, and one linear panel covers
    [0, first breakpoint].  The mass beyond R is the analytic power-law
    tail.  Masses are summed from the top down, so C(L) keeps full
    relative precision deep in the tail.

    The linear panel resolves the body only while the first positive
    level is below a few thousand times min(T, r0); income tables start
    far below that.
    """

    def __init__(self, levels):
        levels = np.asarray(levels, dtype=float)
        if levels.ndim != 1 or levels.size == 0:
            raise DomainError("need a non-empty one-dimensional array of levels")
        if not np.all(np.isfinite(levels)) or np.any(levels < 0):
            raise DomainError("income levels must be finite and non-negative")
        # with no positive level every C is 1, and any node set gives that
        positive = levels[levels > 0] if np.any(levels > 0) else np.ones(1)
        top = min(_TOP_FACTOR * float(positive.max()), sys.float_info.max)
        breaks = np.unique(np.concatenate([[_LOW_FRACTION * positive.min()],
                                           positive, [top]]))
        ln_breaks = np.log(breaks)
        span = np.diff(ln_breaks)
        splits = np.ceil(span / _PANEL_WIDTH).astype(int)
        first_panel = np.concatenate([[0], np.cumsum(splits)])
        # each panel's interval and its place in it give the panel's start
        interval = np.repeat(np.arange(splits.size), splits)
        place = np.arange(interval.size) - first_panel[interval]
        width = (span / splits)[interval]
        start = ln_breaks[interval] + place * width
        u = (start + 0.5 * width)[:, None] + (0.5 * width)[:, None] * _GL_NODES
        r = np.exp(u)
        low = 0.5 * breaks[0]
        # Stored from the top down, after a first slot that ccdf fills with
        # the analytic mass beyond the last breakpoint, so that cumulative
        # sums are the masses above each node.
        nodes = np.concatenate([low * (1.0 + _GL_NODES), r.ravel(), [breaks[-1]]])
        weights = np.concatenate([low * _GL_WEIGHTS,
                                  ((0.5 * width)[:, None] * _GL_WEIGHTS * r).ravel(),
                                  [0.0]])
        self._nodes = nodes[::-1].copy()
        self._weights = weights[::-1].copy()
        # the last node above each level: 8 per panel, the linear panel
        # included, lie between a level's breakpoint and the bottom
        below = np.where(levels > 0,
                         8 * (1 + first_panel[np.searchsorted(breaks, levels)]), 0)
        self._last_above = self._nodes.size - 1 - below

    def ccdf(self, T: float, alpha: float, r0: float) -> np.ndarray:
        """C(L) at each level for parameters (T, alpha, r0)."""
        _check_parameters(T, alpha, r0)
        # nodes far beyond r0 overflow x*x; their density is 0 either way
        with np.errstate(over="ignore"):
            mass = _raw_density(self._nodes, T, alpha, r0) * self._weights
        mass[0] = _tail_mass(T, alpha, r0, self._nodes[0])
        above = np.cumsum(mass)
        return above[self._last_above] / above[-1]


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
