"""Stationary and transient solutions of the income diffusion equation

    dP/dt = d/dr [A(r) P] + d^2/dr^2 [B(r) P]

for additive (A = A0, B = B0), multiplicative (A = a r, B = b r^2) and
combined (A = A0 + a r, B = B0 + b r^2) drift/diffusion.  The stationary
solution is P_s = (c / B) exp(-int A/B dr), computed by cumulative
trapezoid quadrature and normalised on the grid.

The transient stepper takes explicit Euler steps on cell masses with the
linear Scharfetter-Gummel interface flux (Scharfetter & Gummel 1969;
Chang & Cooper 1970), whose zero-flux condition Q[i+1]/Q[i] = e^{-h s}
on Q = B P is the trapezoid drift integral; so the quadrature stationary
solution is an exact fixed point of the discrete evolution, and "start
stationary, stay stationary" holds to rounding error rather than to
truncation error.  The flux rates are computed once per call, and a step
is refused unless it keeps every cell's mass non-negative.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigurationError, DomainError, SingularDiffusionError
from .io import whole_number

__all__ = [
    "KIND_ADDITIVE",
    "KIND_MULTIPLICATIVE",
    "KIND_COMBINED",
    "DriftDiffusionSpec",
    "GridDistribution",
    "make_grid",
    "stationary_solution",
    "evolve_transient",
    "delta_r2_diagnostic",
]

KIND_ADDITIVE = "additive"
KIND_MULTIPLICATIVE = "multiplicative"
KIND_COMBINED = "combined"

_FIELDS_BY_KIND = {
    KIND_ADDITIVE: ("a0", "b0"),
    KIND_MULTIPLICATIVE: ("a", "b"),
    KIND_COMBINED: ("a0", "a", "b0", "b"),
}


@dataclass(frozen=True)
class DriftDiffusionSpec:
    """Drift/diffusion coefficients.  a0 and b0 are the additive
    constants, a and b the multiplicative rates; which must be present
    depends on ``kind``, and the others must be None.  Derived scales:
    T = b0/a0, r0 = sqrt(b0/b), alpha = 1 + a/b."""

    kind: str
    a0: float | None = None
    a: float | None = None
    b0: float | None = None
    b: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _FIELDS_BY_KIND:
            raise DomainError(f"unknown drift/diffusion kind {self.kind!r}")
        for name in ("a0", "a", "b0", "b"):
            value = getattr(self, name)
            if name not in _FIELDS_BY_KIND[self.kind]:
                if value is not None:
                    raise DomainError(
                        f"{self.kind} spec takes no {name}; got {value!r}")
            elif (isinstance(value, bool) or not isinstance(value, Real)
                  or not 0 < value <= sys.float_info.max):   # larger ints overflow float()
                raise DomainError(
                    f"{self.kind} spec needs a finite {name} > 0; got {value!r}")

    # -- derived scales ----------------------------------------------------

    @property
    def temperature(self) -> float:
        """T = b0/a0, the exponential-body scale."""
        if self.a0 is None or self.b0 is None:
            raise DomainError(f"temperature undefined for kind {self.kind!r}")
        return self.b0 / self.a0

    @property
    def crossover_income(self) -> float:
        """r0 = sqrt(b0/b), where additive and multiplicative diffusion
        contribute equally."""
        if self.b0 is None or self.b is None:
            raise DomainError(f"crossover undefined for kind {self.kind!r}")
        return math.sqrt(self.b0 / self.b)

    @property
    def pareto_exponent(self) -> float:
        """alpha = 1 + a/b, the exponent of the multiplicative stationary tail."""
        if self.a is None or self.b is None:
            raise DomainError(f"Pareto exponent undefined for kind {self.kind!r}")
        return 1.0 + self.a / self.b

    def scale(self) -> float:
        """Largest characteristic income of the spec (grid sizing)."""
        if self.kind == KIND_ADDITIVE:
            return self.temperature
        if self.kind == KIND_MULTIPLICATIVE:
            return 1.0  # scale-free; caller picks the grid
        return max(self.temperature, self.crossover_income)

    # -- coefficients ------------------------------------------------------

    def drift(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.a0 is not None:
            out = out + self.a0
        if self.a is not None:
            out = out + self.a * r
        return out

    def diffusion(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.b0 is not None:
            out = out + self.b0
        if self.b is not None:
            out = out + self.b * r * r
        return out

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        obj = {"kind": self.kind}
        for name in _FIELDS_BY_KIND[self.kind]:
            obj[name] = getattr(self, name)
        return json.dumps(obj, sort_keys=True)

    # -- convenience constructors ------------------------------------------

    @classmethod
    def additive(cls, a0: float, b0: float) -> "DriftDiffusionSpec":
        return cls(KIND_ADDITIVE, a0=a0, b0=b0)

    @classmethod
    def multiplicative(cls, a: float, b: float) -> "DriftDiffusionSpec":
        return cls(KIND_MULTIPLICATIVE, a=a, b=b)

    @classmethod
    def combined(cls, a0: float, a: float, b0: float, b: float) -> "DriftDiffusionSpec":
        return cls(KIND_COMBINED, a0=a0, a=a, b0=b0, b=b)


def _cell_widths(grid: np.ndarray) -> np.ndarray:
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    return w


@dataclass
class GridDistribution:
    """Density values on a strictly increasing grid."""

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 3:
            raise DomainError("grid must be 1-d with at least three points")
        if np.any(np.diff(self.grid) <= 0):
            raise DomainError("grid must be strictly increasing")
        if self.grid.shape != self.density.shape:
            raise DomainError("grid and density shapes differ")
        if not np.all(np.isfinite(self.density)):
            raise DomainError("density must be finite everywhere")
        if np.any(self.density < -1e-12):
            raise DomainError("density must be non-negative")

    @property
    def mass(self) -> float:
        return float(np.sum(self.density * _cell_widths(self.grid)))

    def normalized(self) -> "GridDistribution":
        m = self.mass
        if m <= 0:
            raise DomainError("cannot normalise a zero-mass distribution")
        return GridDistribution(self.grid, self.density / m)

    def l1_distance(self, other: "GridDistribution") -> float:
        if other.grid.shape != self.grid.shape or np.any(other.grid != self.grid):
            raise DomainError("distributions live on different grids")
        return float(np.sum(np.abs(self.density - other.density) * _cell_widths(self.grid)))


_LINEAR_POINTS = 300   # points of the linear stretch below the knee
MAX_GRID_POINTS = 10 ** 7   # log grid points; denser grids are refused


def make_grid(spec: DriftDiffusionSpec, r_max: float | None = None,
              r_min: float = 0.0, points_per_decade: int = 2000) -> np.ndarray:
    """Default solver grid: 300 linear points below scale/100, log above.

    For the multiplicative kind (B(0) = 0) pass r_min > 0 and the grid is
    purely log-spaced; the other kinds start at r = 0 and refuse any other
    r_min.
    """
    points_per_decade = whole_number(points_per_decade, "points_per_decade")
    if points_per_decade < 1:
        raise ConfigurationError(
            f"points_per_decade must be at least 1; got {points_per_decade}")
    scale = spec.scale()
    if r_max is None:
        r_max = 1e4 * scale
    if r_max < 50 * scale:
        raise ConfigurationError(f"r_max must be at least 50x the spec scale {scale:g}")
    if spec.kind == KIND_MULTIPLICATIVE:
        if r_min <= 0:
            raise SingularDiffusionError(
                "multiplicative diffusion vanishes at r = 0; start the grid at r_min > 0")
        return _log_spaced(r_min, r_max, points_per_decade)
    if r_min != 0:
        raise ConfigurationError(
            f"the {spec.kind} grid starts at r = 0; r_min is for the multiplicative kind")
    knee = scale / 100.0
    return np.concatenate([
        np.linspace(0.0, knee, _LINEAR_POINTS, endpoint=False),
        _log_spaced(knee, r_max, points_per_decade),
    ])


def _log_spaced(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    """ceil(decades * points_per_decade) log-spaced points from lo to hi."""
    if 0 < lo < hi:
        n = np.ceil(np.log10(hi / lo) * points_per_decade)
        if MAX_GRID_POINTS < n < np.inf:
            raise ConfigurationError(f"{n:.0f} log grid points exceed the ceiling "
                                     f"of {MAX_GRID_POINTS}")
        if n < np.inf:
            return np.geomspace(lo, hi, int(n))
    raise ConfigurationError(
        f"no finite log grid from {lo:g} to {hi:g} "
        f"at {points_per_decade} points per decade")


def _interface_drift(spec: DriftDiffusionSpec, grid: np.ndarray):
    """B on the grid, and on each interval x = h (s[i] + s[i+1])/2 with
    s = A/B: the trapezoid drift integral, which makes the stationary
    solution an exact fixed point of the stepper."""
    with np.errstate(all="ignore"):
        B = spec.diffusion(grid)
        s = spec.drift(grid) / B
        x = 0.5 * (s[1:] + s[:-1]) * np.diff(grid)
    if np.any(B <= 0):
        raise SingularDiffusionError(
            "diffusion coefficient vanishes on the grid; "
            "for the multiplicative kind use a grid starting at r > 0")
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(x))):
        raise DomainError(f"drift or diffusion overflows on the grid up to r = {grid[-1]:g}")
    return B, x


def stationary_solution(spec: DriftDiffusionSpec,
                        grid: np.ndarray | None = None) -> GridDistribution:
    """P_s = (c / B) exp(-int_0^r A/B dr'), normalised to unit mass on the
    grid.  The drift integral is a cumulative trapezoid sum."""
    if grid is None:
        grid = make_grid(spec)
    grid = np.asarray(grid, dtype=float)
    B, seg = _interface_drift(spec, grid)
    drift_integral = np.concatenate([[0.0], np.cumsum(seg)])
    with np.errstate(under="ignore"):
        psi = np.exp(-drift_integral) / B
    return GridDistribution(grid, psi).normalized()


def _bernoulli(x: np.ndarray) -> np.ndarray:
    """x / (e^x - 1), which is 1 at x = 0 and 0 where e^x overflows."""
    with np.errstate(over="ignore"):
        return np.divide(x, np.expm1(x), out=np.ones_like(x), where=x != 0)


def evolve_transient(p0: GridDistribution, spec: DriftDiffusionSpec,
                     dt: float, steps: int) -> GridDistribution:
    """Advance the diffusion equation with explicit Euler steps on the
    cell masses m = P w, with reflecting (zero-flux) boundaries at both
    grid ends.

    The flux from cell i+1 into cell i is the linear Scharfetter-Gummel
    flux F = d Q[i+1] - c Q[i] on Q = B P, with x = h (s[i] + s[i+1])/2,
    s = A/B, c = x/(e^x - 1)/h and d = x/(1 - e^-x)/h.  Each flux leaves
    one cell and enters its neighbour, so mass is conserved to rounding
    error.  Requires the positivity bound dt <= 1 / (largest rate at which
    a cell's mass flows out), about 0.5 h^2 / B where diffusion dominates.
    """
    steps = whole_number(steps, "steps")
    if steps < 1:
        raise DomainError("need at least one step")
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive; got {dt!r}")
    grid = p0.grid
    B, x = _interface_drift(spec, grid)
    h = np.diff(grid)
    w = _cell_widths(grid)
    # per-step fractions of a cell's mass that cross to the left and right
    left = dt * _bernoulli(-x) / h * B[1:] / w[1:]
    right = dt * _bernoulli(x) / h * B[:-1] / w[:-1]
    outflow = np.zeros_like(grid)
    outflow[1:] += left
    outflow[:-1] += right
    largest = float(np.max(outflow))
    if not largest <= 1.0:
        raise ConfigurationError(
            f"dt={dt:g} violates the positivity bound {dt / largest:g} "
            "(1 / largest cell outflow rate)")

    m = p0.density * w
    hi, lo = m[1:], m[:-1]   # views, so each step writes into m
    flux = np.empty_like(left)
    back = np.empty_like(left)
    for _ in range(steps):
        np.multiply(left, hi, out=flux)
        np.multiply(right, lo, out=back)
        flux -= back
        lo += flux
        hi -= flux
    return GridDistribution(grid, m / w)


def delta_r2_diagnostic(r, spec: DriftDiffusionSpec):
    """Mean rate of change of r^2 per unit time: 2 (B(r) - r A(r)).

    Positive values mean the income-square grows at that r.  For the
    additive kind the sign flips exactly at r = T; for the multiplicative
    kind with a = b it vanishes identically, the scale-free stationarity
    criterion equivalent to alpha = 2.
    """
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("income must be finite")
    out = 2.0 * (spec.diffusion(arr) - arr * spec.drift(arr))
    return float(out) if np.ndim(r) == 0 else out

