"""Closed-form and quadrature-backed distribution functions.

The centrepiece is :class:`TwoClassModel`, the three-parameter income
density

    P(r) = c * exp(-(r0/T) * arctan(r/r0)) / (1 + (r/r0)^2)^((alpha+1)/2)

which decays like exp(-r/T) for r << r0 and like r^-(1+alpha) for
r >> r0.  The normalisation constant c and the complementary CDF have no
closed form; they have one integration rule, :class:`LevelQuadrature`,
Gauss-Legendre panels in ln r between breakpoints at the requested
income levels.  The model builds it at its own scales T and r0 (plus the
requested incomes, for the CDF); fits build it once at a table's levels
for every (T, alpha, r0) they try.

The module also holds the Lorenz/Gini analytics shared by the fitting and
energy pipelines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, MalformedCurveError, NoIntersectionError

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


def _incomes(r):   # r >= 0 takes inf and refuses NaN
    arr, scalar = _as_float_array(r)
    if not np.all(arr >= 0):
        raise DomainError("income must be non-negative")
    return arr, scalar


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_parameters(T, alpha, r0) -> None:
    if not (0 < T < math.inf and 1 < alpha < math.inf and 0 < r0 < math.inf):
        raise DomainError(
            f"two-class model needs finite T > 0, alpha > 1, r0 > 0; "
            f"got T={T}, alpha={alpha}, r0={r0}")


def _raw_density(r, T, alpha, r0):
    """The two-class density without its normalisation constant c.  Far
    beyond r0, x, x*x and its power overflow, which callers ignore."""
    x = r / r0
    return np.exp(-(r0 / T) * np.arctan(x)) / (1.0 + x * x) ** ((alpha + 1.0) / 2.0)


def _tail_mass(T, alpha, r0, R) -> float:
    """Unnormalised mass beyond R: the power-law asymptote from r0 on,
    and below r0, where that does not hold, the bound
    T exp(-(r0/T) arctan(R/r0)).  Summed in logs, so it underflows to 0
    and never forms 0 * inf."""
    if R >= r0:
        log_mass = (-(r0 / T) * (math.pi / 2.0) + math.log(r0)
                    + alpha * math.log(r0 / R) - math.log(alpha))
    else:
        log_mass = math.log(T) - (r0 / T) * math.atan(R / r0)
    return math.exp(log_mass)


def _tail_log_gradient(T, alpha, r0, R) -> tuple[float, float, float]:
    """Derivatives of ln _tail_mass(T, alpha, r0, R) with respect to
    (ln T, ln(alpha - 1), ln r0), on the same two branches."""
    if R >= r0:
        body = (r0 / T) * (math.pi / 2.0)
        return body, (alpha - 1.0) * (math.log(r0 / R) - 1.0 / alpha), 1.0 + alpha - body
    u = R / r0
    body = (r0 / T) * math.atan(u)
    return 1.0 + body, 0.0, (R / T) / (1.0 + u * u) - body


_NEWTON_STEPS = 7   # inverse_cdf converges in 5 from its start; 2 spare


class TwoClassModel:
    """Interpolating income distribution with parameters (T, alpha, r0).

    T is the temperature of the exponential body, alpha the tail exponent
    of the complementary CDF, and r0 the crossover income.  ``c`` is the
    normalisation constant, fixed at construction so the density
    integrates to one on [0, inf).

    Parameters
    ----------
    T, alpha, r0 : float
        Model parameters; require finite T > 0, alpha > 1, r0 > 0.
    """

    def __init__(self, T: float, alpha: float, r0: float):
        _check_parameters(T, alpha, r0)
        self.T, self.alpha, self.r0 = float(T), float(alpha), float(r0)
        quadrature = LevelQuadrature([self.T, self.r0])
        nodes = quadrature._nodes
        with np.errstate(over="ignore"):
            mass = quadrature._masses(self.T, self.alpha, self.r0)
        self.c = 1.0 / mass.sum()
        # beyond R = nodes[0] the density is the power law, whose first
        # moment is R alpha / (alpha - 1) times its mass
        self._mean = self.c * (nodes[1:] @ mass[1:]
                               + mass[0] * nodes[0] * self.alpha / (self.alpha - 1.0))
        comp = self.c * np.cumsum(mass)   # C near each node, for inverse_cdf
        self._start_nodes, self._start_ln_comp = nodes[comp > 0], np.log(comp[comp > 0])

    def pdf(self, r):
        """Probability density P(r); accepts scalars or arrays, r >= 0."""
        arr, scalar = _incomes(r)
        with np.errstate(over="ignore"):
            out = self.c * _raw_density(arr, self.T, self.alpha, self.r0)
        return float(out) if scalar else out

    def cdf(self, r):
        """Complementary CDF C(r) = integral of the pdf over [r, inf)."""
        arr, scalar = _incomes(r)
        finite = arr < np.inf
        # T and r0 as breakpoints keep the first, linear panel below the body
        quadrature = LevelQuadrature(np.append([self.T, self.r0], np.where(finite, arr, 0.0)))
        comp = quadrature.ccdf(self.T, self.alpha, self.r0)[2:].reshape(arr.shape)
        out = np.where(finite, comp, 0.0)
        return float(out) if scalar else out

    def inverse_cdf(self, comp_values):
        """Income r at which the complementary CDF equals the given value.

        Starts from r interpolated against ln C over the quadrature nodes,
        or, below C at the top node, on the power-law tail through it;
        then takes Newton steps on ``cdf``, which rise monotonically to the
        root after the first because C is convex on [0, inf).
        """
        arr, scalar = _as_float_array(comp_values)
        if not np.all((arr > 0) & (arr <= 1)):
            raise DomainError("complementary CDF values must lie in (0, 1]")
        ln_u, top = np.log(arr), self._start_ln_comp[0]
        # r stays where the tail start overflows or the density underflows
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            r = (np.interp(ln_u, self._start_ln_comp, self._start_nodes)
                 * np.exp(np.maximum(top - ln_u, 0.0) / self.alpha))
            for _ in range(_NEWTON_STEPS):
                step = (self.cdf(r) - arr) / self.pdf(r)
                r = np.where(np.isfinite(step), np.maximum(r + step, 0.0), r)
        return float(r) if scalar else r

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
        return float(self._mean)

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
    (T, alpha, r0) a fit tries.  The breakpoints are the positive levels,
    1e-3 x the first of them and R = 1e8 x the last; each interval
    between breakpoints is split into equal panels at most 0.25 wide in
    ln r, each integrated by 8-point Gauss-Legendre in ln r, and one
    linear panel covers [0, first breakpoint].  The mass beyond R is
    added analytically.  Masses are summed from the top down, so C(L)
    keeps full relative precision deep in the tail.

    The linear panel resolves the body only while the first positive
    level is below a few thousand times min(T, r0), as it is in income
    tables and in :class:`TwoClassModel`, which adds T and r0 as levels.
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
        # Stored from the top down, after a slot at R for the mass beyond
        # it, so that cumulative sums are the masses above each node.
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

    def _masses(self, T: float, alpha: float, r0: float) -> np.ndarray:
        """Unnormalised mass of each node, the slot at R included."""
        mass = _raw_density(self._nodes, T, alpha, r0) * self._weights
        mass[0] = _tail_mass(T, alpha, r0, self._nodes[0])
        return mass

    def ccdf(self, T: float, alpha: float, r0: float) -> np.ndarray:
        """C(L) at each level for parameters (T, alpha, r0), in [0, 1];
        NaN only where every density underflows, as in runaway fits."""
        _check_parameters(T, alpha, r0)
        with np.errstate(over="ignore", invalid="ignore"):
            above = np.cumsum(self._masses(T, alpha, r0))
            return above[self._last_above] / above[-1]

    def _ccdf_gradient(self, T: float, alpha: float,
                       r0: float) -> tuple[np.ndarray, np.ndarray]:
        """``ccdf(T, alpha, r0)`` and its derivatives with respect to
        x = (ln T, ln(alpha - 1), ln r0), one row per level.

        C = S/Z, with S the mass above a level and Z the total mass, so
        dC = (dS - C dZ)/Z, where dS sums mass * d(ln mass)/dx over the
        nodes above.  With u = r/r0, a node's d(ln mass)/dx is
        ((r0/T) atan u, -(alpha-1)/2 ln(1+u^2),
        -(r0/T) atan u + (r/T + (alpha+1) u^2)/(1+u^2)); the slot at R
        takes that of its tail mass, and a node whose mass underflows
        adds nothing.
        """
        _check_parameters(T, alpha, r0)
        nodes = self._nodes
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # the masses of _masses, from terms the derivatives share
            u = nodes / r0
            body = (r0 / T) * np.arctan(u)
            spread = 1.0 + u * u
            mass = np.exp(-body) / spread ** ((alpha + 1.0) / 2.0) * self._weights
            mass[0] = _tail_mass(T, alpha, r0, nodes[0])
            above = np.cumsum(mass)
            comp = above[self._last_above] / above[-1]
            grad = np.empty((3, nodes.size))
            grad[0] = body
            grad[1] = np.log(spread) * (-0.5 * (alpha - 1.0))
            # (r/T + (alpha+1) u^2)/(1+u^2), also where u^2 is inf
            grad[2] = (nodes / T - (alpha + 1.0)) / spread + (alpha + 1.0) - body
            grad[:, 0] = _tail_log_gradient(T, alpha, r0, nodes[0])
            grad *= mass
            if not mass.all():
                grad[:, mass == 0.0] = 0.0   # not 0 * inf
            d_above = np.cumsum(grad, axis=1)
            d_comp = (d_above[:, self._last_above] - comp * d_above[:, -1:]) / above[-1]
        return comp, d_comp.T


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
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise MalformedCurveError("Lorenz coordinates must be finite")
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
    if not np.all((arr >= 0) & (arr <= 1)):
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


_LORENZ_SAMPLES = 10001


def sample_lorenz_curve(f: float = 0.0) -> LorenzCurve:
    """Sample lorenz_two_class at 10 001 uniform points, keeping the
    pre-jump point (1, 1-f) so the jump is visible in plots and CSV output."""
    x = np.linspace(0.0, 1.0, _LORENZ_SAMPLES)
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
    if not (0 < T < math.inf and 0 < mean_income < math.inf):
        raise DomainError("temperature and mean income must be positive and finite")
    if T > mean_income:
        raise DomainError(
            f"temperature {T:g} exceeds mean income {mean_income:g}: "
            "tail fraction would be negative")
    return 1.0 - T / mean_income


_BOUNDARY_BRACKET = (1.0, 100.0)   # search range for r*, in units of T
_BOUNDARY_TOL = 1e-12              # bisection stops below this width, in units of T


def class_boundary(T: float, alpha: float, pl_prefactor: float) -> tuple[float, float]:
    """Intersection r* of the exponential CDF exp(-r/T) and a power-law CDF.

    Solves exp(-r/T) = pl_prefactor * r^-alpha by bisection on r in
    [T, 100 T] to a width of 1e-12 T.  Returns (r_star, upper_fraction)
    where upper_fraction = exp(-r*/T) is the implied population share of
    the upper class.
    """
    if not all(math.isfinite(v) and v > 0 for v in (T, alpha, pl_prefactor)):
        raise DomainError("class_boundary needs finite, positive T, alpha and prefactor")

    def gap(r):
        return -r / T - math.log(pl_prefactor) + alpha * math.log(r)

    lo, hi = _BOUNDARY_BRACKET[0] * T, _BOUNDARY_BRACKET[1] * T
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo, math.exp(-lo / T)
    if g_hi == 0.0:
        return hi, math.exp(-hi / T)
    if g_lo * g_hi > 0:
        raise NoIntersectionError(
            "fitted exponential and power-law CDFs do not cross in "
            f"[{lo:g}, {hi:g}]; the fits are degenerate")
    while hi - lo > _BOUNDARY_TOL * T:
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
