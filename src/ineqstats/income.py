"""Two-class income fitting pipeline.

The empirical complementary CDF built from a binned income table is
fitted in stages, following the procedure used for annual tax data:

1. exponential regression of ln C vs r over the body window
   (temperature T),
2. power-law regression of ln C vs ln r over the tail window
   (Pareto exponent alpha),
3. golden-section search for the crossover income r0 minimising the
   log mean-square deviation between the model CDF and the data.

The staged estimates inherit a visible finite-window bias on data drawn
from the interpolating model itself (the body window reaches into the
crossover region, the tail window is not yet asymptotic), so
``fit_report`` by default follows up with a joint least-squares
refinement of (T, alpha, r0) on the per-bin masses, weighted by counts.
Per-bin residuals are close to independent, unlike cumulative-CDF
residuals, which makes the refinement statistically well behaved.  It is
a Levenberg-Marquardt search, typically 20-40 CDF evaluations per table;
``refine_parameters`` gives its step cap and stopping rule.

Stage 3, the refinement and the final residual only ever need the model
CDF at the table's own levels, so each evaluates it through one
:class:`~ineqstats.distributions.LevelQuadrature`: fixed Gauss-Legendre
nodes built once from the levels, reused for every (T, alpha, r0) the
search tries, in place of a :class:`TwoClassModel` per try.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .distributions import LevelQuadrature, TwoClassModel, class_boundary
from .errors import (DomainError, FormatError, InsufficientDataError,
                     NoIntersectionError)
from .io import read_csv_rows, record_line, usable_row, whole_number
from .weighted import WeightedCDF

__all__ = [
    "IncomeBinTable",
    "TemperatureFit",
    "ParetoFit",
    "CrossoverFit",
    "FitReport",
    "fit_temperature",
    "fit_pareto_exponent",
    "fit_crossover",
    "refine_parameters",
    "fit_report",
    "sample_income_table",
]

MODE_IN_BIN = "in-bin"
MODE_AT_OR_ABOVE = "at-or-above"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERATIONS = 40      # golden-section steps of the crossover search
_LM_DAMPING = 1e-3           # initial Levenberg-Marquardt damping
_LM_DIFF_STEP = 1e-6         # forward-difference step, in the log parameters
_LM_MAX_STEP = 1.0           # largest move of one log parameter in one step
_LM_MIN_STEP = 1e-10         # a shorter step ends the refinement
_LM_RTOL = 1e-12             # so does a relative decrease no larger than this
_LM_ITERATIONS = 100
_LN_MAX = 700.0              # math.exp leaves the normal floats beyond +-708
_COMP_MIN = 1e-4             # lowest complementary-CDF target of a sampled table
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class IncomeBinTable:
    """Counts of returns per income bin.  ``levels`` are the strictly
    increasing bin lower edges (the published income levels); counts[i]
    covers [levels[i], levels[i+1]) and the last bin is open-ended."""

    levels: np.ndarray
    counts: np.ndarray
    year: int | None = None

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "counts", counts)
        if levels.size == 0 or levels.size != counts.size:
            raise DomainError("need matching, non-empty levels and counts")
        if not np.all(np.isfinite(levels)):
            raise DomainError("income levels must be finite")
        if np.any(np.diff(levels) <= 0):
            raise DomainError("income levels must be strictly increasing")
        if np.any(counts < 0):
            raise DomainError("counts must be non-negative")
        total = sum(counts.tolist())   # Python ints: an int64 sum would wrap
        if total > _INT64.max:
            raise DomainError("table total exceeds 64-bit counts")
        if total < 1:
            raise DomainError("table holds no returns")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_complementary(cls, levels, counts_at_or_above,
                           year: int | None = None) -> "IncomeBinTable":
        """Build from complementary counts (returns at or above each level)."""
        comp = np.asarray(counts_at_or_above, dtype=np.int64)
        if np.any(np.diff(comp) > 0):
            raise DomainError("complementary counts must be non-increasing")
        counts = np.concatenate([-np.diff(comp), comp[-1:]])
        return cls(levels, counts, year)

    @classmethod
    def from_csv(cls, path, mode: str = MODE_AT_OR_ABOVE,
                 year: int | None = None) -> "IncomeBinTable":
        """Read `level_kusd,<counts>` rows; ``mode`` says whether the count
        column is per-bin or at-or-above."""
        levels, counts = [], []
        for record, row in read_csv_rows(path):
            try:
                level = float(row[0])
                count = whole_number(float(row[1]), "count")
                if abs(count) > _INT64.max:
                    raise ValueError(f"count {row[1]} lies beyond 64-bit counts")
            except (ValueError, IndexError) as exc:
                if not usable_row(path, record, row, 2, "two columns"):
                    continue
                raise FormatError(f"{path}:{record_line(path, record)}: {exc}") from exc
            levels.append(level)
            counts.append(count)
        if not levels:
            raise FormatError(f"{path}: no data rows")
        if mode == MODE_AT_OR_ABOVE:
            return cls.from_complementary(levels, counts, year)
        if mode == MODE_IN_BIN:
            return cls(levels, counts, year)
        raise DomainError(f"unknown table mode {mode!r}")

    def bin_incomes(self, top_bin_alpha: float) -> WeightedCDF:
        """Each bin's returns at one income, weighted by count: the bin
        midpoint, and for the open top bin the power-law conditional mean
        level * alpha/(alpha-1).  Its mean and Lorenz curve are the table's."""
        if top_bin_alpha <= 1:
            raise DomainError("top-bin exponent must exceed 1 for a finite mean")
        top = self.levels[-1] * top_bin_alpha / (top_bin_alpha - 1.0)
        mid = 0.5 * (self.levels[:-1] + self.levels[1:])
        return WeightedCDF(np.append(mid, top), self.counts)


# ---------------------------------------------------------------------------
# Staged fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemperatureFit:
    temperature: float
    prefactor: float       # c1 in c1 * exp(-r/T)
    residual: float        # mean squared residual of ln C
    n_points: int
    window: tuple[float, float]


@dataclass(frozen=True)
class ParetoFit:
    alpha: float
    prefactor: float       # c2 in c2 * r^-alpha
    residual: float
    n_points: int
    window: tuple[float, float]


@dataclass(frozen=True)
class CrossoverFit:
    r0: float
    residual: float        # objective value at the minimum
    degenerate: bool       # argmin pinned at a bracket edge
    method: str            # "golden" or "grid"


def _window_points(cdf: WeightedCDF, window: tuple[float, float]):
    lo, hi = window
    mask = (cdf.complementary >= lo) & (cdf.complementary <= hi)
    return cdf.values[mask], cdf.complementary[mask]


def fit_temperature(cdf: WeightedCDF,
                    window: tuple[float, float] = (0.1, 0.95)) -> TemperatureFit:
    """Exponential fit of the body: slope of ln C vs r gives -1/T."""
    r, comp = _window_points(cdf, window)
    if r.size < 3:
        raise InsufficientDataError(
            f"temperature window C in {window} holds {r.size} points; need 3")
    ln_c = np.log(comp)
    try:
        with np.errstate(over="raise"):   # polyfit sums the squared levels
            slope, intercept = np.polyfit(r, ln_c, 1)
    except FloatingPointError:
        raise DomainError(f"body levels up to {r[-1]:g} overflow the temperature fit") from None
    if slope >= 0:
        raise DomainError("body CDF does not decay; cannot assign a temperature")
    residual = float(np.mean((ln_c - (slope * r + intercept)) ** 2))
    return TemperatureFit(float(-1.0 / slope), math.exp(float(intercept)),
                          residual, r.size, window)


def fit_pareto_exponent(cdf: WeightedCDF,
                        window: tuple[float, float] = (0.001, 0.03)) -> ParetoFit:
    """Power-law fit of the tail: slope of ln C vs ln r gives -alpha."""
    r, comp = _window_points(cdf, window)
    if r.size < 3 or np.any(r <= 0):
        raise InsufficientDataError(
            f"tail window C in {window} holds {r.size} usable points; need 3")
    ln_r, ln_c = np.log(r), np.log(comp)
    slope, intercept = np.polyfit(ln_r, ln_c, 1)
    if slope >= 0:
        raise DomainError("tail CDF does not decay; cannot assign an exponent")
    residual = float(np.mean((ln_c - (slope * ln_r + intercept)) ** 2))
    return ParetoFit(float(-slope), math.exp(float(intercept)), residual,
                     r.size, window)


def _log_mse(theory: np.ndarray, comp: np.ndarray) -> float:
    return float(np.sum(np.log(theory / comp) ** 2))


def fit_crossover(cdf: WeightedCDF, temperature: float,
                  alpha: float) -> CrossoverFit:
    """Golden-section search (on ln r0) for the crossover income.

    Minimises sum_n ln^2[C_t(r_n) / C_e(r_n)] over every level with data,
    T and alpha held fixed, in 40 steps over r0 in [T/10, 100 T].  If the
    initial probes reveal a non-unimodal shape (both ends below the
    interior), fall back to a 1000-point log-spaced grid scan and return
    its global minimum.  An argmin pinned at a bracket edge is degenerate
    (typical for data with no tail, where r0 runs away upward).
    """
    if temperature <= 0 or alpha <= 1:
        raise DomainError("need temperature > 0 and alpha > 1")
    bracket = (temperature / 10.0, 100.0 * temperature)
    if len(cdf) < 3:
        raise InsufficientDataError("need at least three levels with data")

    quadrature = LevelQuadrature(cdf.values)

    def objective(ln_r0: float) -> float:
        return _log_mse(quadrature.ccdf(temperature, alpha, math.exp(ln_r0)),
                        cdf.complementary)

    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)

    if objective(lo) < f1 and objective(hi) < f2:
        # non-unimodal: dense grid scan
        grid = np.linspace(lo, hi, 1000)
        vals = [objective(g) for g in grid]
        best = int(np.argmin(vals))
        r0 = math.exp(grid[best])
        degenerate = best in (0, len(grid) - 1)
        return CrossoverFit(r0, vals[best], degenerate, "grid")

    a, b = lo, hi
    for _ in range(_GOLDEN_ITERATIONS):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
    ln_best = 0.5 * (a + b)
    r0 = math.exp(ln_best)
    degenerate = (r0 <= bracket[0] * 1.05) or (r0 >= bracket[1] / 1.05)
    return CrossoverFit(r0, objective(ln_best), degenerate, "golden")


# ---------------------------------------------------------------------------
# Joint refinement
# ---------------------------------------------------------------------------


def _levenberg_marquardt(residuals, x0):
    """Minimise |residuals(x)|^2 from x0 by damped Gauss-Newton steps.

    ``residuals(x)`` is None where x is undefined (never at x0).  Each
    step solves (J'J + lam D) dx = -J'r, with J by forward differences
    (backward where the forward point is undefined) and D the diagonal of
    J'J floored at 1e-12 of its largest entry, then shrinks dx so that no
    coordinate moves by more than _LM_MAX_STEP.  A step that does not
    lower the sum of squares is refused and lam grows tenfold; an
    accepted one divides lam by ten.
    """
    x = np.asarray(x0, dtype=float)
    r = residuals(x)
    cost = float(r @ r)
    lam = _LM_DAMPING
    for _ in range(_LM_ITERATIONS):
        jac = np.empty((r.size, x.size))
        for i, h in enumerate(np.eye(x.size) * _LM_DIFF_STEP):
            r_h = residuals(x + h)
            if r_h is not None:
                jac[:, i] = (r_h - r) / _LM_DIFF_STEP
            else:
                r_h = residuals(x - h)
                jac[:, i] = 0.0 if r_h is None else (r - r_h) / _LM_DIFF_STEP
        a = jac.T @ jac
        g = jac.T @ r
        d = np.diag(a)
        if not d.max() > 0:   # the residuals do not move at all
            break
        d = np.maximum(d, 1e-12 * d.max())
        while True:
            step = np.linalg.solve(a + lam * np.diag(d), -g)
            step *= min(1.0, _LM_MAX_STEP / np.abs(step).max(initial=1e-300))
            if np.abs(step).max() < _LM_MIN_STEP:
                return x
            r_new = residuals(x + step)
            cost_new = math.inf if r_new is None else float(r_new @ r_new)
            if cost_new < cost:
                break
            lam *= 10.0
        lam /= 10.0
        x, r, decrease, cost = x + step, r_new, cost - cost_new, cost_new
        if decrease <= _LM_RTOL * (cost + decrease):
            break
    return x


def refine_parameters(table: IncomeBinTable, temperature: float, alpha: float,
                      r0: float) -> tuple[float, float, float]:
    """Joint least-squares refinement of (T, alpha, r0).

    Minimises sum_n w_n ln^2(q_n / p_n) over the observed bin fractions
    q_n, with model bin masses p_n and weights w_n = counts (the inverse
    variance of ln q_n up to a constant), as the squared length of the
    residuals sqrt(w_n) ln(q_n / p_n).  The search runs in
    (ln T, ln(alpha-1), ln r0) from the staged estimates by
    Levenberg-Marquardt with a forward-difference Jacobian: each step
    moves no log parameter by more than 1, so the runaway fits of
    tail-less tables walk out instead of jumping, and the search stops
    when the sum of squares falls by at most 1e-12 of itself, when the
    step falls below 1e-10, or after 100 iterations.  A point where alpha
    rounds to 1, a log parameter lies beyond +-700 (where math.exp
    overflows or underflows) or the CCDF is NaN is refused.
    """
    counts = table.counts
    q = counts / table.total
    pos = counts > 0
    ln_q = np.log(q[pos])
    sqrt_w = np.sqrt(counts[pos].astype(float))
    quadrature = LevelQuadrature(table.levels)

    def residuals(x):
        if np.abs(x).max() > _LN_MAX:
            return None
        alpha = 1.0 + math.exp(x[1])
        if alpha <= 1.0:   # ln(alpha - 1) so low that alpha rounds to 1
            return None
        comp = quadrature.ccdf(math.exp(x[0]), alpha, math.exp(x[2]))
        p = np.append(comp[:-1] - comp[1:], comp[-1])
        res = sqrt_w * (ln_q - np.log(np.maximum(p[pos], 1e-300)))
        # a NaN CCDF (0/0 where every density underflows) rejects the point
        return None if math.isnan(res.sum()) else res

    x0 = [math.log(temperature), math.log(max(alpha - 1.0, 1e-3)), math.log(r0)]
    best = _levenberg_marquardt(residuals, x0)
    return math.exp(best[0]), 1.0 + math.exp(best[1]), math.exp(best[2])


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """Fitted parameters and derived inequality measures for one table."""

    year: int | None
    temperature: float
    alpha: float
    r0: float
    r_star: float | None
    upper_class_fraction: float | None
    tail_fraction: float
    gini: float                 # (1 + f) / 2
    gini_lorenz: float          # from the empirical Lorenz curve
    mean_income: float
    residual: float             # mean-square log deviation of the CDF fit
    temperature_staged: float
    alpha_staged: float
    r0_staged: float
    refined: bool
    degenerate_tail: bool
    crossover_method: str       # "golden" or "grid", from fit_crossover

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def table_row(self) -> str:
        """One row shaped like the annual-parameters table."""
        year = self.year if self.year is not None else "-"
        r_star = f"{self.r_star:7.1f}" if self.r_star is not None else "      -"
        return (f"{year}  T={self.temperature:6.2f}  alpha={self.alpha:5.3f}  "
                f"r0={self.r0:7.2f}  r*={r_star}  f={100 * self.tail_fraction:5.1f}%  "
                f"G={self.gini:.3f}")


def fit_report(table: IncomeBinTable,
               exp_window: tuple[float, float] = (0.1, 0.95),
               tail_window: tuple[float, float] = (0.001, 0.03),
               refine: bool = True) -> FitReport:
    """Run the full pipeline on one table.

    Stages: temperature, Pareto exponent, crossover; then (by default)
    the joint per-bin refinement, which removes the finite-window bias of
    the staged estimates.  The mean income uses bin midpoints with the
    open top bin at the conditional mean implied by the staged tail fit
    (the regression actually performed on the observed tail).  Derived:
    f = 1 - T/<r> (clamped at 0 for tail-less data), G = (1 + f)/2, and
    the class boundary r* from the intersection of the two staged fits.
    """
    cdf = WeightedCDF(table.levels, table.counts)
    tfit = fit_temperature(cdf, exp_window)
    pfit = fit_pareto_exponent(cdf, tail_window)
    xfit = fit_crossover(cdf, tfit.temperature, max(pfit.alpha, 1.01))

    temperature, alpha, r0 = tfit.temperature, pfit.alpha, xfit.r0
    if refine:
        temperature, alpha, r0 = refine_parameters(table, temperature,
                                                   max(alpha, 1.01), r0)

    incomes = table.bin_incomes(max(pfit.alpha, 1.0001))
    f = 1.0 - temperature / incomes.mean
    degenerate_tail = f <= 0 or xfit.degenerate
    f = max(f, 0.0)
    gini = (1.0 + f) / 2.0
    gini_lorenz = incomes.lorenz().gini

    final_model = TwoClassModel(temperature, alpha, r0)
    try:
        # boundary between the classes of the fitted distribution: where
        # the body anchor exp(-r/T) meets the exact tail asymptote; the
        # prefactor underflows to zero when the tail is negligible, and
        # leaves the float range only for fits that ran away
        prefactor = final_model.tail_prefactor
        if not 0 < prefactor < math.inf:
            raise NoIntersectionError("tail prefactor outside the float range")
        r_star, upper_fraction = class_boundary(temperature, alpha, 1.0, prefactor)
    except NoIntersectionError:
        r_star, upper_fraction = None, None
        degenerate_tail = True

    theory = LevelQuadrature(cdf.values).ccdf(temperature, alpha, r0)
    residual = _log_mse(theory, cdf.complementary) / len(cdf)

    return FitReport(
        year=table.year,
        temperature=float(temperature),
        alpha=float(alpha),
        r0=float(r0),
        r_star=r_star,
        upper_class_fraction=upper_fraction,
        tail_fraction=float(f),
        gini=float(gini),
        gini_lorenz=float(gini_lorenz),
        mean_income=incomes.mean,
        residual=float(residual),
        temperature_staged=tfit.temperature,
        alpha_staged=pfit.alpha,
        r0_staged=float(xfit.r0),
        refined=bool(refine),
        degenerate_tail=bool(degenerate_tail),
        crossover_method=xfit.method,
    )


def sample_income_table(model: TwoClassModel, n_samples: int,
                        rng: np.random.Generator, n_levels: int = 50,
                        year: int | None = None) -> IncomeBinTable:
    """Draw incomes from the model and bin them at levels placed at
    log-spaced complementary-CDF targets spanning [1e-4, 1]."""
    if n_levels < 3:
        raise DomainError("need at least three levels")
    targets = np.geomspace(1.0, _COMP_MIN, n_levels)
    levels = model.inverse_cdf(targets)
    levels[0] = 0.0
    # inverse transform puts the income of a uniform u in bin k when
    # targets[k] >= u > targets[k+1], so the uniforms are binned directly
    bins = np.searchsorted(-targets, -rng.random(n_samples), side="right") - 1
    return IncomeBinTable(levels, np.bincount(bins, minlength=n_levels), year)
