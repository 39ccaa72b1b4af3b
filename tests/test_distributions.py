import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from ineqstats import (DomainError, LevelQuadrature, LorenzCurve,
                       MalformedCurveError, NoIntersectionError, TwoClassModel,
                       class_boundary, lorenz_exponential, lorenz_two_class,
                       sample_lorenz_curve, tail_fraction)
from ineqstats.distributions import _tail_log_gradient, _tail_mass


def quad_mass_above(model, r):
    """Independent oracle: adaptive quadrature of the unnormalised pdf
    over [r, inf)."""
    def raw(s):
        return (math.exp(-(model.r0 / model.T) * math.atan(s / model.r0))
                / (1 + (s / model.r0) ** 2) ** ((model.alpha + 1) / 2))
    return integrate.quad(raw, r, np.inf, limit=400)[0]


def quad_complementary(model, r):
    return quad_mass_above(model, r) / quad_mass_above(model, 0.0)


class TestTwoClassModel:
    @pytest.mark.parametrize("bad", [(0, 2, 100), (40, 1.0, 100), (40, 2, 0),
                                     (-1, 2, 100), (40, 0.5, 100), (40, 2, -5),
                                     (math.inf, 2, 100), (40, math.inf, 100),
                                     (40, 2, math.inf), (math.nan, 2, 100),
                                     (40, math.nan, 100), (40, 2, math.nan)])
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(DomainError):
            TwoClassModel(*bad)

    @pytest.mark.parametrize("params", [(48, 1.34, 113), (40, 1.5, 100),
                                        (33, 1.63, 76), (1, 2.0, 0.5)])
    def test_normalized_on_grid(self, params):
        # trapezoid rule on a grid of the test's own, 3 000 points per
        # decade, plus the power-law tail mass R P(R) / alpha beyond its top
        model = TwoClassModel(*params)
        scale = max(model.T, model.r0)
        grid = np.concatenate([[0.0], np.geomspace(1e-3 * min(model.T, model.r0),
                                                   1e8 * scale, 3000 * 14 + 1)])
        tail = grid[-1] * model.pdf(grid[-1]) / model.alpha
        mass = np.trapezoid(model.pdf(grid), grid) + tail
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("params", [(48, 1.34, 113), (40, 1.5, 100),
                                        (33, 1.63, 76), (1, 2.0, 0.5)])
    def test_normalization_against_quadrature_oracle(self, params):
        model = TwoClassModel(*params)
        assert model.c * quad_mass_above(model, 0.0) == pytest.approx(1.0, rel=1e-10)
        assert model.cdf(0.0) == 1.0

    def test_low_r_slope_is_minus_one_over_t(self):
        # r0 >> T: the density reduces to exp(-r/T), log-slope -1/T at 0
        model = TwoClassModel(1.0, 2.0, 1e6)
        eps = 1e-6
        slope = (math.log(model.pdf(eps)) - math.log(model.pdf(0.0))) / eps
        assert slope == pytest.approx(-1.0, abs=1e-3)

    def test_exponential_limit_pointwise(self):
        model = TwoClassModel(1.0, 2.0, 1e6)
        r = np.linspace(0.0, 10.0, 2001)
        rel = np.abs(model.pdf(r) / (np.exp(-r) / 1.0) - 1.0)
        assert rel.max() < 1e-4

    def test_tail_loglog_slope(self):
        model = TwoClassModel(40, 1.5, 100)
        r = 1e4 * model.r0
        num = (math.log(model.pdf(r * 1.05)) - math.log(model.pdf(r / 1.05)))
        den = math.log(1.05 ** 2)
        assert num / den == pytest.approx(-(1 + model.alpha), abs=1e-2)

    def test_cdf_matches_quadrature_oracle(self):
        model = TwoClassModel(40, 1.5, 100)
        # frozen from the scipy.integrate.quad oracle above
        assert quad_complementary(model, 40.0) == pytest.approx(0.3359920225, abs=2e-9)
        assert model.cdf(40.0) == pytest.approx(0.3359920225, abs=1e-6)

    def test_cdf_monotone_on_random_pairs(self):
        model = TwoClassModel(48, 1.34, 113)
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 5000, 1000)
        b = rng.uniform(0, 5000, 1000)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(model.cdf(lo) >= model.cdf(hi))

    def test_cdf_pdf_duality(self):
        model = TwoClassModel(40, 1.5, 100)
        r = np.linspace(1.0, 400.0, 400)
        h = 1e-3
        numeric = (model.cdf(r + h) - model.cdf(r - h)) / (2 * h)
        assert np.abs(numeric + model.pdf(r)).max() < 1e-6

    def test_inverse_cdf_round_trip(self):
        comp = np.geomspace(1.0, 1e-12, 60)
        for params in [(48, 1.34, 113), (40, 1.01, 100), (1, 4.0, 0.5),
                       (1, 2.0, 1e6), (1, 1.01, 1e3)]:
            model = TwoClassModel(*params)
            r = model.inverse_cdf(comp)
            assert np.all(np.abs(model.cdf(r) / comp - 1.0) <= 1e-12)

    @pytest.mark.filterwarnings("error")
    def test_cdf_at_and_beyond_the_top_node(self):
        # the model's own top quadrature node is R = 1e8 x max(T, r0)
        r = 1e8 * np.geomspace(1.0, 1e9, 40)
        for params in [(1.0, 2.0, 1e6), (48, 1.34, 113), (1, 1.01, 0.5)]:
            model = TwoClassModel(*params)
            far = model.cdf(r * max(model.T, model.r0))
            assert np.all(np.isfinite(far)) and np.all(np.diff(far) <= 0)
            assert np.all((far >= 0) & (far <= 1))
            assert model.cdf(np.inf) == 0.0
        assert model.cdf(np.array([[0.0, np.inf], [1.0, 2.0]])).shape == (2, 2)

    def test_negative_income_rejected(self):
        model = TwoClassModel(40, 1.5, 100)
        with pytest.raises(DomainError):
            model.pdf(-1.0)
        with pytest.raises(DomainError):
            model.cdf(np.array([1.0, -2.0]))
        # and NaN, which pdf once returned where cdf refused it
        for method in (model.pdf, model.cdf):
            for r in (math.nan, [1.0, math.nan]):
                with pytest.raises(DomainError, match="income must be non-negative"):
                    method(r)

    def test_mean_against_quadrature_oracle(self):
        model = TwoClassModel(48, 1.34, 113)
        def raw(s):
            return (math.exp(-(113 / 48) * math.atan(s / 113))
                    / (1 + (s / 113) ** 2) ** 1.17)
        total, _ = integrate.quad(raw, 0, np.inf, limit=600)
        first, _ = integrate.quad(lambda s: s * raw(s), 0, np.inf, limit=600)
        assert model.mean() == pytest.approx(first / total, rel=1e-4)


def quad_ccdf_at_levels(levels, T, alpha, r0):
    """Independent oracle for C at each level: adaptive quadrature of the
    density in ln r, piece by piece between the levels and unit steps of
    ln r, with the pieces summed from the top down.  Mass beyond
    1e32 * r0 (below 1e-32 of the total for alpha > 1) is left out, so
    the oracle reads 0 for levels above that."""
    def log_density(s):
        x = s / r0
        log_1px2 = 2 * math.log(x) + math.log1p(x ** -2) if x > 1 else math.log1p(x * x)
        return -(r0 / T) * math.atan(x) - 0.5 * (alpha + 1) * log_1px2

    def in_log(u):
        return math.exp(u + log_density(math.exp(u)))

    positive = levels[levels > 0]
    lo = 1e-4 * min(T, r0, *positive)
    hi = 1e32 * r0
    cuts = np.unique(np.concatenate([np.exp(np.arange(math.log(lo), math.log(hi), 1.0)),
                                     positive[positive < hi], [hi]]))
    pieces = [integrate.quad(in_log, math.log(a), math.log(b), epsabs=0,
                             epsrel=1e-13, limit=200)[0]
              for a, b in zip(cuts[:-1], cuts[1:])]
    head = integrate.quad(lambda s: math.exp(log_density(s)), 0, cuts[0],
                          epsabs=0, epsrel=1e-13)[0]
    above = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
    index = np.minimum(np.searchsorted(cuts, levels), cuts.size - 1)
    return np.where(levels > 0, above[index] / (head + above[0]), 1.0)


def _irs_levels(first, ratios):
    levels = first * np.cumprod([1.0, *ratios])
    return levels[levels <= 100.0]


# Level sets in units of T: a table from 0 through the body and tail, a
# table whose first level is positive, IRS-shaped wide bins (each level
# 2 to 10 times the last, up to 100 T) and levels reaching 1e300.
_LEVEL_SETS = st.one_of(
    st.builds(lambda lo, hi, n: np.concatenate([[0.0], np.geomspace(lo, hi, n)]),
              st.floats(0.01, 1.0), st.floats(2.0, 40.0), st.integers(3, 60)),
    st.builds(lambda first, step, n: first * step ** np.arange(n),
              st.floats(1e-3, 3.0), st.floats(1.05, 3.0), st.integers(1, 40)),
    st.builds(_irs_levels, st.floats(0.01, 1.0),
              st.lists(st.floats(2.0, 10.0), min_size=1, max_size=12)),
    st.builds(lambda n: np.concatenate([[0.0], np.geomspace(0.1, 1e300, n)]),
              st.integers(3, 40)),
)


class TestLevelQuadrature:
    @settings(max_examples=40, deadline=None)
    @given(T=st.floats(0.1, 1000.0),
           alpha=st.floats(1.01, 4.0),
           log_ratio=st.floats(math.log(0.05), math.log(50.0)),
           levels=_LEVEL_SETS)
    # r0 = 50 T keeps the body exponential out to the levels near 30 T
    # where C is still above 1e-12; panels 0.5 wide in ln r miss by 2e-9
    @example(T=1.0, alpha=2.0, log_ratio=math.log(50.0),
             levels=np.concatenate([[0.0], np.geomspace(0.5, 30.0, 40)]))
    def test_ccdf_matches_quadrature_oracle(self, T, alpha, log_ratio, levels):
        r0 = T * math.exp(log_ratio)
        levels = levels * T if levels[-1] < 1e200 else levels
        quadrature = LevelQuadrature(levels)
        got = quadrature.ccdf(T, alpha, r0)
        want = quad_ccdf_at_levels(levels, T, alpha, r0)
        checked = want >= 1e-12
        assert np.all(np.abs(got[checked] / want[checked] - 1.0) <= 1e-10)
        assert np.all(got >= 0) and np.all(got <= 1)

    def test_agrees_with_model_cdf(self):
        levels = np.concatenate([[0.0], np.geomspace(1.0, 5000.0, 30)])
        quadrature = LevelQuadrature(levels)
        for params in [(48, 1.34, 113), (40, 1.5, 100), (1, 2.0, 0.5)]:
            model = TwoClassModel(*params)
            assert quadrature.ccdf(*params) == pytest.approx(model.cdf(levels), rel=1e-6)

    def test_zero_level_is_one(self):
        assert LevelQuadrature([0.0, 10.0]).ccdf(40, 1.5, 100)[0] == 1.0

    @pytest.mark.parametrize("bad", [[], [-1.0, 2.0], [1.0, np.inf], [[1.0, 2.0]]])
    def test_invalid_levels_rejected(self, bad):
        with pytest.raises(DomainError):
            LevelQuadrature(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            LevelQuadrature([0.0, 10.0]).ccdf(40, 1.0, 100)

    @pytest.mark.parametrize("T, alpha, r0", [(48.0, 1.34, 113.0), (30.0, 2.5, 20.0),
                                              (50.0, 1.1, 5000.0), (10.0, 1.5, 1e-3),
                                              (50.0, 1.5, 1e12), (5.0, 1.0 + 1e-9, 300.0)])
    @pytest.mark.filterwarnings("error")
    def test_gradient_matches_central_differences(self, T, alpha, r0):
        quadrature = LevelQuadrature(np.concatenate([[0.0], np.geomspace(1.0, 5000.0, 30)]))
        comp, grad = quadrature._ccdf_gradient(T, alpha, r0)
        assert np.array_equal(comp, quadrature.ccdf(T, alpha, r0))
        x, h = np.log([T, alpha - 1.0, r0]), 1e-5
        for i, step in enumerate(np.eye(3) * h):
            up, down = (quadrature.ccdf(*(np.exp(x + s) + [0.0, 1.0, 0.0])) for s in (step, -step))
            assert grad[:, i] == pytest.approx((up - down) / (2 * h), rel=1e-6, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_gradient_is_finite_where_node_masses_underflow(self):
        # r0 = 1e-150: far above it the density underflows to 0 while
        # ln(1 + u^2) is inf, and C is still finite
        quadrature = LevelQuadrature(np.concatenate([[0.0], np.geomspace(1.0, 5000.0, 30)]))
        comp, grad = quadrature._ccdf_gradient(1.0, 1.01, 1e-150)
        assert np.all(np.isfinite(comp)) and np.all(np.isfinite(grad))

    # R at or above r0 takes the power-law branch of the tail mass, R below r0 the other
    @pytest.mark.parametrize("T, alpha, r0, R", [(48.0, 1.34, 113.0, 5e11), (30.0, 2.5, 20.0, 40.0),
                                                 (50.0, 1.5, 400.0, 100.0), (5.0, 1.2, 300.0, 100.0)])
    def test_tail_slot_gradient_matches_central_differences(self, T, alpha, r0, R):
        def ln_mass(x):
            return math.log(_tail_mass(math.exp(x[0]), 1.0 + math.exp(x[1]), math.exp(x[2]), R))

        x, h = np.log([T, alpha - 1.0, r0]), 1e-6
        want = [(ln_mass(x + step) - ln_mass(x - step)) / (2 * h) for step in np.eye(3) * h]
        assert _tail_log_gradient(T, alpha, r0, R) == pytest.approx(want, rel=1e-7, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_runaway_parameters_warn_nothing(self):
        levels = np.linspace(0.0, 150.0, 20)
        quadrature = LevelQuadrature(levels)
        # r0 far above the top level: the density overflows at the upper nodes
        assert np.all(np.isfinite(quadrature.ccdf(33.0, 1e3, 1e3 * levels[-1])))
        # r0 far above the top node, 1e8 x the top level, where the tail
        # mass used to form 0 * inf
        for r0 in (1e11 * levels[-1], 1e3, 1.5e13):
            ccdf = quadrature.ccdf(33.0, 1e3, r0)
            assert np.all(np.isfinite(ccdf)) and np.all((ccdf >= 0) & (ccdf <= 1))


class TestLorenz:
    def test_exponential_endpoints(self):
        assert lorenz_exponential(0.0) == 0.0
        assert lorenz_exponential(1.0) == 1.0

    def test_exponential_midpoint_closed_form(self):
        # 0.5 + 0.5 ln 0.5; cross-checked by quadrature of the parametric
        # Lorenz integrals with an exponential density
        expected = 0.15342640972002736
        assert lorenz_exponential(0.5) == pytest.approx(expected, abs=1e-12)
        T = 7.3
        r_half = -T * math.log(0.5)
        num, _ = integrate.quad(lambda r: r * math.exp(-r / T) / T, 0, r_half)
        den, _ = integrate.quad(lambda r: r * math.exp(-r / T) / T, 0, np.inf)
        assert num / den == pytest.approx(expected, abs=1e-9)

    def test_exponential_domain(self):
        with pytest.raises(DomainError):
            lorenz_exponential(-0.1)
        with pytest.raises(DomainError):
            lorenz_exponential(1.1)

    @pytest.mark.parametrize("x", [math.nan, [0.2, math.nan]])
    def test_exponential_nan_rejected(self, x):
        with pytest.raises(DomainError):
            lorenz_exponential(x)

    def test_two_class_reduces_to_exponential_at_f_zero(self):
        x = np.linspace(0, 1, 101)
        assert np.array_equal(lorenz_two_class(x, 0.0), np.atleast_1d(lorenz_exponential(x)))

    def test_two_class_jump_at_one(self):
        for f in (0.1, 0.215, 0.5):
            assert lorenz_two_class(1.0, f) == 1.0
            assert lorenz_two_class(1.0 - 1e-9, f) == pytest.approx(1.0 - f, abs=1e-7)

    def test_two_class_value(self):
        # 0.785 * (0.99 + 0.01 ln 0.01), direct evaluation
        assert lorenz_two_class(0.99, 0.215) == pytest.approx(0.7409994140400135, abs=1e-12)

    def test_two_class_domain(self):
        with pytest.raises(DomainError):
            lorenz_two_class(0.5, 1.0)
        with pytest.raises(DomainError):
            lorenz_two_class(0.5, -0.01)


class TestGini:
    def test_diagonal_is_zero(self):
        curve = LorenzCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert curve.gini == 0.0

    def test_exponential_gini_is_half(self):
        curve = sample_lorenz_curve(0.0)
        assert curve.gini == pytest.approx(0.5, abs=0.005)

    @pytest.mark.parametrize("f", [0.0, 0.1, 0.215, 0.4])
    def test_two_class_gini_formula(self, f):
        curve = sample_lorenz_curve(f)
        assert curve.gini == pytest.approx((1 + f) / 2, abs=0.005)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=2, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_gini_bounds_on_empirical_curves(self, values):
        from ineqstats import WeightedCDF
        curve = WeightedCDF(np.array(values), np.ones(len(values))).lorenz()
        assert -1e-9 <= curve.gini <= 1.0

    def test_malformed_curves_rejected(self):
        with pytest.raises(MalformedCurveError):
            LorenzCurve(np.array([0.0]), np.array([0.0]))
        with pytest.raises(MalformedCurveError):
            LorenzCurve(np.array([0.1, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(MalformedCurveError):
            LorenzCurve(np.array([0.0, 1.0]), np.array([0.0, 0.9]))
        with pytest.raises(MalformedCurveError):
            # above the diagonal
            LorenzCurve(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.9, 1.0]))

    @pytest.mark.parametrize("x, y", [([np.nan, 1.0], [0.0, 1.0]),
                                      ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
                                      ([0.0, np.inf, 1.0], [0.0, 0.5, 1.0])])
    def test_non_finite_coordinates_rejected(self, x, y):
        with pytest.raises(MalformedCurveError, match="finite"):
            LorenzCurve(np.array(x), np.array(y))


class TestTailFraction:
    def test_equal_mean_gives_zero(self):
        assert tail_fraction(61.15, 61.15) == 0.0

    def test_table_anchor(self):
        f = tail_fraction(48.0, 61.15)
        assert f == pytest.approx(0.215, abs=0.001)
        assert (1 + f) / 2 == pytest.approx(0.607, abs=0.01)

    def test_halving(self):
        assert tail_fraction(30.0, 60.0) == pytest.approx(0.5, abs=1e-12)

    def test_non_physical_rejected(self):
        with pytest.raises(DomainError):
            tail_fraction(70.0, 61.15)
        with pytest.raises(DomainError):
            tail_fraction(-1.0, 10.0)

    @pytest.mark.parametrize("T, mean_income", [(math.nan, 61.15), (48.0, math.nan),
                                                (48.0, math.inf), (math.inf, math.inf)])
    def test_non_finite_rejected(self, T, mean_income):
        with pytest.raises(DomainError):
            tail_fraction(T, mean_income)


class TestClassBoundary:
    def test_constructed_intersection_at_3_5_t(self):
        T, alpha = 48.0, 1.5
        r_target = 3.5 * T
        c2 = math.exp(-3.5) * r_target ** alpha
        r_star, frac = class_boundary(T, alpha, c2)
        assert r_star == pytest.approx(r_target, rel=1e-9)
        assert frac == pytest.approx(math.exp(-3.5), rel=1e-9)
        assert frac == pytest.approx(0.030, abs=0.001)

    def test_prefactor_shift_matches_grid_scan_oracle(self):
        # baseline crossing deep in the tail (5T) so it survives scaling
        # the power-law prefactor up by e; verify both against a brute
        # force grid scan of the log gap
        T, alpha = 50.0, 1.0
        c2 = math.exp(-5.0) * (5 * T) ** alpha
        results = []
        for scale in (1.0, math.e):
            r_star, _ = class_boundary(T, alpha, scale * c2)
            grid = np.linspace(T, 100 * T, 100000)
            gap = np.abs(-grid / T - np.log(scale * c2) + alpha * np.log(grid))
            r_oracle = grid[np.argmin(gap)]
            assert r_star == pytest.approx(r_oracle, abs=grid[1] - grid[0])
            results.append(r_star)
        assert results[0] == pytest.approx(5 * T, rel=1e-9)
        assert results[1] < results[0]   # raising the power law pulls r* in

    def test_no_intersection_raises(self):
        # exponential branch above the power law through the whole bracket
        with pytest.raises(NoIntersectionError):
            class_boundary(1.0, 1.0, 1e-60)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            class_boundary(-1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            class_boundary(1.0, 1.5, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_inputs_rejected(self, bad, position):
        args = [1.0, 1.5, 1.0]
        args[position] = bad
        with pytest.raises(DomainError, match="finite"):
            class_boundary(*args)
