import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineqstats import DomainError, WeightedCDF


class TestWeightedCdf:
    def test_sorts_by_value(self):
        cdf = WeightedCDF(np.array([3.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
        assert cdf.values.tolist() == [1.0, 2.0, 3.0]
        assert cdf.complementary.tolist() == [1.0, 0.75, 0.25]

    def test_zero_weights_dropped(self):
        cdf = WeightedCDF(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
        assert cdf.values.tolist() == [1.0, 3.0]

    def test_mean(self):
        cdf = WeightedCDF(np.array([1.0, 3.0]), np.array([1.0, 3.0]))
        assert cdf.mean == 2.5

    def test_validation(self):
        with pytest.raises(DomainError):
            WeightedCDF(np.array([]), np.array([]))
        with pytest.raises(DomainError):
            WeightedCDF(np.array([1.0]), np.array([-1.0]))
        with pytest.raises(DomainError):
            WeightedCDF(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    @pytest.mark.parametrize("values, weights", [([1.0, np.nan], [1.0, 1.0]),
                                                 ([np.inf], [1.0]), ([1.0], [np.nan]),
                                                 ([1.0, 2.0], [np.inf, 1.0]),
                                                 # finite cells, totals beyond float
                                                 ([1.0, 2.0], [1e308, 1e308]),
                                                 ([1e300, 2.0], [1e300, 5.0])])
    def test_non_finite_refused(self, values, weights):
        with pytest.raises(DomainError, match="must be finite"):
            WeightedCDF(np.array(values), np.array(weights))

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1e6),
                              st.floats(min_value=0.1, max_value=1e6)),
                    min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_complementary_invariants(self, pairs):
        values = np.array([p[0] for p in pairs])
        weights = np.array([p[1] for p in pairs])
        cdf = WeightedCDF(values, weights)
        assert cdf.complementary[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(cdf.complementary) <= 1e-12)
        assert np.all(cdf.complementary > 0)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e4),
                    min_size=2, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_lorenz_under_diagonal(self, values):
        cdf = WeightedCDF(np.array(values), np.ones(len(values)))
        curve = cdf.lorenz()
        assert np.all(curve.y <= curve.x + 1e-9)
        assert curve.x[0] == 0.0 and curve.y[0] == 0.0
        assert curve.x[-1] == 1.0 and curve.y[-1] == 1.0
