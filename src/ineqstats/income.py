"""Two-class income fitting pipeline.

The empirical complementary CDF built from a binned income table is
fitted in stages, following the procedure used for annual tax data:

1. exponential regression of ln C vs r over the body window
   (temperature T),
2. power-law regression of ln C vs ln r over the tail window
   (Pareto exponent alpha),
3. a 7-point scan of ln r0 over [T/10, 100 T], refined by a parabola
   through the best point and its neighbours, for the crossover income
   r0 minimising the log mean-square deviation of the model CDF.

The staged estimates inherit a visible finite-window bias on data drawn
from the interpolating model itself (the body window reaches into the
crossover region, the tail window is not yet asymptotic), so
``fit_report`` by default follows up with a joint least-squares
refinement of (T, alpha, r0) on the per-bin masses, weighted by counts.
Per-bin residuals are close to independent, unlike cumulative-CDF
residuals, which makes the refinement statistically well behaved.  It is
a Levenberg-Marquardt search with the exact Jacobian, typically 6-15
evaluations of the CDF and its gradient per table; ``refine_parameters``
gives its step cap and stopping rule.

Stage 3, the refinement and the final residual only ever need the model
CDF at the table's own levels, so they evaluate it through a
:class:`~ineqstats.distributions.LevelQuadrature` (stage 3 and the residual
share one): fixed Gauss-Legendre nodes built once from the levels, reused
for every (T, alpha, r0) a search tries, in place of a model per try.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .distributions import LevelQuadrature, TwoClassModel, class_boundary, tail_fraction
from .errors import (DomainError, FormatError, InsufficientDataError,
                     NoIntersectionError)
from .io import read_csv_rows, record_line, usable_row, whole_number, whole_numbers
from .weighted import WeightedCDF

__all__ = [
    "IncomeBinTable",
    "TemperatureFit",
    "ParetoFit",
    "FitReport",
    "fit_temperature",
    "fit_pareto_exponent",
    "refine_parameters",
    "fit_report",
    "sample_income_table",
]

MODE_IN_BIN = "in-bin"
MODE_AT_OR_ABOVE = "at-or-above"

_LM_DAMPING = 1e-3           # initial Levenberg-Marquardt damping
_LM_MAX_STEP = 1.0           # largest move of one log parameter in one step
_LM_MIN_STEP = 1e-10         # a shorter step ends the refinement
_LM_RTOL = 1e-12             # so does a relative decrease no larger than this
_LM_ITERATIONS = 100
_P_MIN = 1e-300              # model bin masses are clipped here before the log
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
        counts = whole_numbers(self.counts, "counts")
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
        comp = whole_numbers(counts_at_or_above, "complementary counts")
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
    residual: float        # mean squared residual of ln C


@dataclass(frozen=True)
class ParetoFit:
    alpha: float
    residual: float


def _window_line(cdf: WeightedCDF, window: tuple[float, float],
                 log_r: bool) -> tuple[float, float]:
    """Slope of the least-squares line of ln C against r (against ln r when
    ``log_r``) over the levels whose C lies in ``window``, and the mean
    squared residual of ln C about it.  The slope must be negative."""
    part, fit = ("tail", "Pareto exponent") if log_r else ("body", "temperature")
    lo, hi = window
    mask = (cdf.complementary >= lo) & (cdf.complementary <= hi)
    r, comp = cdf.values[mask], cdf.complementary[mask]
    unusable = ""
    if log_r and np.any(r <= 0):
        unusable = f" ({np.count_nonzero(r <= 0)} more at levels <= 0, which have no ln r)"
        r, comp = r[r > 0], comp[r > 0]
    if r.size < 3:
        raise InsufficientDataError(
            f"{part} window C in {window} holds {r.size} usable points{unusable}; need 3")
    x, ln_c = (np.log(r) if log_r else r), np.log(comp)
    try:
        with np.errstate(over="raise"):   # polyfit sums the squared levels
            slope, intercept = np.polyfit(x, ln_c, 1)
    except FloatingPointError:
        raise DomainError(f"{part} levels up to {r[-1]:g} overflow the {fit} fit") from None
    if slope >= 0:
        raise DomainError(f"{part} CDF does not decay; cannot assign a {fit}")
    return float(slope), float(np.mean((ln_c - (slope * x + intercept)) ** 2))


def fit_temperature(cdf: WeightedCDF,
                    window: tuple[float, float] = (0.1, 0.95)) -> TemperatureFit:
    """Exponential fit of the body: slope of ln C vs r gives -1/T."""
    slope, residual = _window_line(cdf, window, log_r=False)
    return TemperatureFit(-1.0 / slope, residual)


def fit_pareto_exponent(cdf: WeightedCDF,
                        window: tuple[float, float] = (0.001, 0.03)) -> ParetoFit:
    """Power-law fit of the tail: slope of ln C vs ln r gives -alpha."""
    slope, residual = _window_line(cdf, window, log_r=True)
    return ParetoFit(-slope, residual)


def _log_mse(theory: np.ndarray, comp: np.ndarray) -> float:
    return float(np.sum(np.log(theory / comp) ** 2))


def _fit_crossover(quadrature: LevelQuadrature, comp: np.ndarray, temperature: float,
                   alpha: float) -> tuple[float, bool]:
    """Seven-point scan (on ln r0) for the crossover income.

    Evaluates sum_n ln^2[C_t(r_n) / C_e(r_n)] over the levels of
    ``quadrature``, whose empirical complementary CDF is ``comp``, with T
    and alpha fixed, at r0 = T/10 .. 100 T in steps of a factor sqrt(10).
    Returns the vertex of the parabola in ln r0 through the best point and
    its neighbours, or a best end point flagged degenerate (typical for
    data with no tail, where r0 runs away upward).
    """
    ln_r0 = np.linspace(math.log(temperature / 10.0), math.log(100.0 * temperature), 7)
    cost = [_log_mse(quadrature.ccdf(temperature, alpha, math.exp(x)), comp) for x in ln_r0]
    i = int(np.argmin(cost))
    if i in (0, len(cost) - 1):
        return math.exp(ln_r0[i]), True
    # argmin's first minimum has left > best <= right: the parabola opens upward
    left, best, right = cost[i - 1:i + 2]
    shift = 0.5 * (left - right) / (left - 2.0 * best + right)
    return math.exp(ln_r0[i] + shift * (ln_r0[1] - ln_r0[0])), False


# ---------------------------------------------------------------------------
# Joint refinement
# ---------------------------------------------------------------------------


def _capped_step(m, g):
    """The step dx solving m dx = -g with no coordinate moving by more than
    _LM_MAX_STEP: a coordinate that would move further is held at the cap,
    and the others minimise dx'm dx/2 + g'dx again, until none would.

    Shrinking the whole of dx instead stalls the search once one column of
    J is nearly flat, as ln(alpha-1) is where alpha runs to 1: that
    coordinate's step is then huge, and the shrink leaves T and r0 fixed.
    """
    step = np.linalg.solve(m, -g)
    fixed = over = np.abs(step) > _LM_MAX_STEP
    while over.any():
        step[over] = np.copysign(_LM_MAX_STEP, step[over])
        free = ~fixed
        if not free.any():
            break
        step[free] = np.linalg.solve(m[np.ix_(free, free)],
                                     -g[free] - m[np.ix_(free, fixed)] @ step[fixed])
        over = free & (np.abs(step) > _LM_MAX_STEP)
        fixed = fixed | over
    return step


def _levenberg_marquardt(residuals, x0):
    """Minimise |r(x)|^2 from x0 by damped Gauss-Newton steps.

    ``residuals(x)`` gives r and its Jacobian J at x, or None where x is
    undefined (a DomainError at x0).  Each step solves
    (J'J + lam D) dx = -J'r, with D the diagonal of J'J floored at 1e-12
    of its largest entry, with no coordinate moving by more than
    _LM_MAX_STEP (see _capped_step).  A step that does not lower the sum
    of squares, or whose damped system is singular, is refused and lam
    grows tenfold; an accepted one divides lam by ten.
    """
    x = np.asarray(x0, dtype=float)
    point = residuals(x)
    if point is None:
        raise DomainError("the refinement start lies where the model CDF is undefined")
    r, jac = point
    cost = float(r @ r)
    lam = _LM_DAMPING
    for _ in range(_LM_ITERATIONS):
        a = jac.T @ jac
        g = jac.T @ r
        d = np.diag(a)
        if not d.max() > 0:   # the residuals do not move at all
            break
        d = np.maximum(d, 1e-12 * d.max())
        while True:
            try:
                step = _capped_step(a + lam * np.diag(d), g)
            except np.linalg.LinAlgError:   # collinear columns, lam too small to part them
                lam *= 10.0
                continue
            if np.abs(step).max() < _LM_MIN_STEP:
                return x
            trial = residuals(x + step)
            cost_new = math.inf if trial is None else float(trial[0] @ trial[0])
            if cost_new < cost:
                break
            lam *= 10.0
        lam /= 10.0
        x, (r, jac), decrease, cost = x + step, trial, cost - cost_new, cost_new
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
    Levenberg-Marquardt with the exact Jacobian of the residuals (a bin
    whose p_n is clipped at 1e-300 gets a zero row): each step moves no
    log parameter by more than 1, so the runaway fits of tail-less tables
    walk out instead of jumping, and the search stops when the sum of
    squares falls by at most 1e-12 of itself, when the step falls below
    1e-10, or after 100 iterations.  A point where alpha rounds to 1, a
    log parameter lies beyond +-700 (where math.exp overflows or
    underflows) or the CCDF is NaN is refused, and so is a start with T or
    r0 not finite and positive, or alpha not finite.
    """
    if not (0 < temperature < math.inf and 0 < r0 < math.inf and math.isfinite(alpha)):
        raise DomainError(f"cannot refine from T={temperature!r}, alpha={alpha!r}, r0={r0!r}")
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
        comp, d_comp = quadrature._ccdf_gradient(math.exp(x[0]), alpha, math.exp(x[2]))
        p = np.append(comp[:-1] - comp[1:], comp[-1])[pos]
        res = sqrt_w * (ln_q - np.log(np.maximum(p, _P_MIN)))
        # a NaN CCDF (0/0 where every density underflows) rejects the point
        if math.isnan(res.sum()):
            return None
        dp = np.concatenate([d_comp[:-1] - d_comp[1:], d_comp[-1:]])[pos]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d_ln_p = dp / p[:, None]
        d_ln_p[p < _P_MIN] = 0.0   # the residual of a clipped p does not move
        return res, -sqrt_w[:, None] * d_ln_p

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
    the class boundary r* where exp(-r/T) meets the model's exact tail asymptote.
    """
    cdf = WeightedCDF(table.levels, table.counts)
    tfit = fit_temperature(cdf, exp_window)
    pfit = fit_pareto_exponent(cdf, tail_window)
    quadrature = LevelQuadrature(cdf.values)
    r0_staged, degenerate_crossover = _fit_crossover(
        quadrature, cdf.complementary, tfit.temperature, max(pfit.alpha, 1.01))

    temperature, alpha, r0 = tfit.temperature, pfit.alpha, r0_staged
    if refine:
        temperature, alpha, r0 = refine_parameters(table, temperature,
                                                   max(alpha, 1.01), r0)

    incomes = table.bin_incomes(max(pfit.alpha, 1.0001))
    degenerate_tail = temperature >= incomes.mean or degenerate_crossover
    f = tail_fraction(min(temperature, incomes.mean), incomes.mean)
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
        r_star, upper_fraction = class_boundary(temperature, alpha, prefactor)
    except NoIntersectionError:
        r_star, upper_fraction = None, None
        degenerate_tail = True

    theory = quadrature.ccdf(temperature, alpha, r0)
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
        r0_staged=r0_staged,
        refined=bool(refine),
        degenerate_tail=bool(degenerate_tail),
    )


def sample_income_table(model: TwoClassModel, n_samples: int,
                        rng: np.random.Generator, n_levels: int = 50,
                        year: int | None = None) -> IncomeBinTable:
    """Draw incomes from the model and bin them at levels placed at
    log-spaced complementary-CDF targets spanning [1e-4, 1]."""
    n_samples = whole_number(n_samples, "n_samples")
    n_levels = whole_number(n_levels, "n_levels")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    if n_levels < 3:
        raise DomainError("need at least three levels")
    targets = np.geomspace(1.0, _COMP_MIN, n_levels)
    levels = model.inverse_cdf(targets)
    levels[0] = 0.0
    # inverse transform puts the income of a uniform u in bin k when
    # targets[k] >= u > targets[k+1], so the uniforms are binned directly
    bins = np.searchsorted(-targets, -rng.random(n_samples), side="right") - 1
    return IncomeBinTable(levels, np.bincount(bins, minlength=n_levels), year)
