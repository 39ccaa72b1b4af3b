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
truncation error.  The flux rates, and from them a band of the many-step
operator, are computed once per call, and a step is refused unless it
keeps every cell's mass non-negative.
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


JUMP_STEPS = 32   # the most steps one jump of the transient advances
_BAND_BUDGET = 2 ** 26   # bytes the band build of one call may hold


def _jump_width(steps: int, points: int) -> int:
    """Steps per jump for ``steps`` steps on ``points`` cells.  A k-step
    band takes k banded products to build, each about as dear as a jump,
    so k = sqrt(steps) spends least on the build and the steps/k jumps
    together; at most JUMP_STEPS, and narrower where the build, about 10 k
    floats a cell, would pass _BAND_BUDGET.  One step is the floor."""
    return max(1, min(JUMP_STEPS, math.isqrt(steps), _BAND_BUDGET // (80 * points)))


def _flux_band(powers: np.ndarray) -> np.ndarray:
    """The (n - 1, 2k) band whose row i, dotted with the masses of cells
    i-k+1 .. i+k, is the net mass that k steps move from cell i+1 and
    above into cell i and below.  ``powers`` is A^k diagonal-major, of
    shape (2k + 1, n): row k+d, column l holds A^k[l+d, l], the fraction
    of cell l's mass that ends in cell l+d.  Each coefficient is a tail
    sum of one column of non-negative fractions, so no cancellation loses
    the small ones: -sum over d >= i-l+1 for l <= i, sum over d <= i-l
    for l > i."""
    k, n = powers.shape[0] // 2, powers.shape[1]
    width = n + 2 * k
    # column k+l of row p holds the coefficient of cell l for window slot p
    coef = np.zeros((2 * k + 1, width))
    np.cumsum(powers[2 * k:k:-1], axis=0, out=coef[:k, k:k + n])
    np.negative(coef[:k], out=coef[:k])
    np.cumsum(powers[:k], axis=0, out=coef[2 * k - 1:k - 1:-1, k:k + n])
    # rows of length width + 1 skew slot p of interface i onto column i+p+1
    skew = coef.ravel()[1:1 + 2 * k * (width + 1)].reshape(2 * k, width + 1)
    return np.ascontiguousarray(skew[:, :n - 1].T)


def _flux_bands(left: np.ndarray, right: np.ndarray, widths) -> dict[int, np.ndarray]:
    """Flux bands of each width in ``widths``, from the one-step fractions:
    a step moves ``left[i]`` of cell i+1's mass into cell i and
    ``right[i]`` of cell i's into cell i+1.  A^(j+1) = A^j A, where A
    keeps the rest of a cell's mass in place, takes A^j's columns l-1, l
    and l+1 into column l; diagonal-major, those are one flat buffer read
    at offsets n-1, 0 and 1-n."""
    n = left.size + 1
    top = max(widths)
    rows = 2 * top + 3   # diagonals -top-1 .. top+1; the outer two stay zero
    mid = top + 1
    into = np.zeros((3, n))   # A[l+1, l], A[l, l] and A[l-1, l] by column
    into[0, :-1] = right
    into[2, 1:] = left
    # 1 - (the cell's outflow), summed as the positivity check sums it, so >= 0
    into[1] = 1.0 - (into[0] + into[2])
    power = np.zeros((rows, n))
    power[mid - 1:mid + 2] = into[::-1]
    spare = np.zeros((rows, n))
    bands = {}
    for j in range(1, top + 1):
        if j in widths:
            bands[j] = _flux_band(power[mid - j:mid + j + 1])
        if j < top:
            # the neighbours of diagonals -j-1 .. j+1 lie in rows mid-j-2 ..
            # mid+j+2, inside the buffer; a column's wrap into the next
            # row meets a zero of ``into``
            flat = power.ravel()
            step = flat.strides[0]
            neighbours = np.lib.stride_tricks.as_strided(
                flat[(mid - j - 2) * n + 1:], shape=(3, 2 * j + 3, n),
                strides=((n - 1) * step, n * step, step), writeable=False)
            np.einsum("krl,kl->rl", neighbours, into, out=spare[mid - j - 1:mid + j + 2])
            power, spare = spare, power
    return bands


_last_bands = None   # (left, right, widths, bands) of the latest band build


def _cached_flux_bands(left: np.ndarray, right: np.ndarray,
                       widths: tuple[int, ...]) -> dict[int, np.ndarray]:
    """``_flux_bands(left, right, widths)``, or the bands of the latest
    build when it had the same widths and bit for bit the same fractions;
    only that one build is kept."""
    global _last_bands
    if _last_bands is not None:
        last_left, last_right, last_widths, bands = _last_bands
        if (last_widths == widths
                and np.array_equal(last_left.view(np.int64), left.view(np.int64))
                and np.array_equal(last_right.view(np.int64), right.view(np.int64))):
            return bands
        _last_bands = None   # free the old entry before the new build
    bands = _flux_bands(left, right, widths)
    _last_bands = left, right, widths, bands
    return bands


def evolve_transient(p0: GridDistribution, spec: DriftDiffusionSpec,
                     dt: float, steps: int) -> GridDistribution:
    """Advance the diffusion equation with explicit Euler steps on the
    cell masses m = P w, with reflecting (zero-flux) boundaries at both
    grid ends.

    The flux from cell i+1 into cell i is the linear Scharfetter-Gummel
    flux F = d Q[i+1] - c Q[i] on Q = B P, with x = h (s[i] + s[i+1])/2,
    s = A/B, c = x/(e^x - 1)/h and d = x/(1 - e^-x)/h.  Requires the
    positivity bound dt <= 1 / (largest rate at which a cell's mass flows
    out), about 0.5 h^2 / B where diffusion dominates.

    The steps are taken k at a time: each jump dots a precomputed band of
    the k-step operator A^k with the 2k masses around every interface,
    which gives the net mass k steps move across it, and that mass leaves
    one cell and enters its neighbour, so mass is conserved to rounding
    error.  ``steps`` = q k + r takes q jumps of k steps and one of r.
    The width k is sqrt(steps), so that the k banded products that build
    the band cost no more than the jumps; at most JUMP_STEPS = 32, and
    narrower where the build would hold more than 64 MiB, about 10 k
    floats a cell, down to single steps on the largest grids.  The result
    equals single steps to rounding error.

    The bands of the latest call stay in a one-entry cache, so a call
    with the same spec, grid and dt, and a step count that gives the same
    widths, builds none and gives the same bytes.  The entry holds under
    32 k bytes a cell, the two rate arrays it was built from included:
    at most 0.4 x _BAND_BUDGET (about 26 MiB) wherever the budget sets k,
    and 32 bytes a cell on grids of more than about 840 000 cells, where
    k is 1.
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

    def fractions(dt):
        """Per-step fractions of a cell's mass that cross to the left and
        right, and the largest fraction that leaves one cell (inf or NaN
        where a huge dt overflows)."""
        with np.errstate(over="ignore", invalid="ignore"):
            left = dt * _bernoulli(-x) / h * B[1:] / w[1:]
            right = dt * _bernoulli(x) / h * B[:-1] / w[:-1]
            outflow = np.zeros_like(grid)
            outflow[1:] += left
            outflow[:-1] += right
        return left, right, float(np.max(outflow))

    left, right, largest = fractions(dt)
    if not largest <= 1.0:
        largest_rate = fractions(1.0)[2]
        raise ConfigurationError(
            f"dt={dt:g} violates the positivity bound {1 / largest_rate:g} "
            "(1 / largest cell outflow rate)")

    k = _jump_width(steps, grid.size)
    jumps, rest = divmod(steps, k)
    schedule = {k: jumps, rest: 1} if rest else {k: jumps}
    bands = _cached_flux_bands(left, right, tuple(schedule))
    padded = np.zeros(grid.size + 2 * k - 2)   # k-1 empty cells at each end
    m = padded[k - 1:k - 1 + grid.size]
    np.multiply(p0.density, w, out=m)
    hi, lo = m[1:], m[:-1]   # views, so each jump writes into m
    flux = np.empty_like(left)
    for width, times in schedule.items():
        windows = np.lib.stride_tricks.sliding_window_view(
            padded[k - width:padded.size - k + width], 2 * width)
        for _ in range(times):
            np.vecdot(bands[width], windows, out=flux)
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
    with np.errstate(over="ignore", invalid="ignore"):
        out = 2.0 * (spec.diffusion(arr) - arr * spec.drift(arr))
    if not np.all(np.isfinite(out)):
        raise DomainError("the rate of change of r^2 overflows a float")
    return float(out) if np.ndim(r) == 0 else out

