import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import loglog_slope
from ineqstats import fokker_planck
from ineqstats.io import build_config, json_object
from ineqstats import (ConfigurationError, DomainError, DriftDiffusionSpec,
                       FormatError, GridDistribution, SingularDiffusionError, TwoClassModel,
                       delta_r2_diagnostic,
                       evolve_transient, make_grid, stationary_solution)

K = fokker_planck.JUMP_STEPS


def cell_widths(grid):
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    return w


def dense_generator(spec, grid):
    """The stepper's generator on cell masses as a dense matrix: the flux
    from cell i+1 into cell i is d_i B_{i+1} m_{i+1}/w_{i+1} - c_i B_i m_i/w_i.
    Written for drift A > 0, so that x > 0 and e^-x cannot overflow."""
    w = cell_widths(grid)
    B = spec.diffusion(grid)
    s = spec.drift(grid) / B
    h = np.diff(grid)
    x = 0.5 * (s[1:] + s[:-1]) * h
    d = x / -np.expm1(-x) / h
    c = d * np.exp(-x)
    into_left = d * B[1:] / w[1:]
    into_right = c * B[:-1] / w[:-1]
    G = np.zeros((grid.size, grid.size))
    i = np.arange(grid.size - 1)
    G[i, i + 1] += into_left
    G[i + 1, i + 1] -= into_left
    G[i + 1, i] += into_right
    G[i, i] -= into_right
    return G


def dense_transient(spec, grid, dt, steps, m0):
    """m0 after ``steps`` steps of I + dt G by a dense matrix power in long
    double.  In float64 the columns of I + dt G sum to 1 only to rounding,
    so the oracle itself would drift by up to about 1e-16 of the mass a
    step; the tolerance allows for platforms whose long double is float64."""
    step = np.eye(grid.size, dtype=np.longdouble) + np.longdouble(dt) * dense_generator(spec, grid)
    want = (np.linalg.matrix_power(step, steps) @ m0).astype(float)
    return want, 2 * steps * float(np.finfo(np.longdouble).eps)


class TestSpec:
    def test_kinds_require_their_fields(self):
        with pytest.raises(DomainError):
            DriftDiffusionSpec("additive", a0=1.0)
        with pytest.raises(DomainError):
            DriftDiffusionSpec("multiplicative", a=1.0, b=0.0)
        with pytest.raises(DomainError):
            DriftDiffusionSpec("something", a0=1.0, b0=1.0)

    def test_derived_scales(self):
        spec = DriftDiffusionSpec.combined(a0=500.0, a=1.0, b0=2e4, b=2.0)
        assert spec.temperature == pytest.approx(40.0)
        assert spec.crossover_income == pytest.approx(100.0)
        assert spec.pareto_exponent == pytest.approx(1.5)

    def test_coefficients(self):
        spec = DriftDiffusionSpec.combined(a0=2.0, a=0.5, b0=8.0, b=0.25)
        r = np.array([0.0, 2.0])
        assert np.allclose(spec.drift(r), [2.0, 3.0])
        assert np.allclose(spec.diffusion(r), [8.0, 9.0])

    def test_json_round_trip(self):
        spec = DriftDiffusionSpec.combined(a0=500.0, a=1.0, b0=2e4, b=2.0)
        again = build_config(DriftDiffusionSpec, json_object(spec.to_json(), "spec"),
                             "spec")
        assert again == spec
        blob = json.loads(spec.to_json())
        assert blob["kind"] == "combined"


class TestStationary:
    def test_additive_matches_exponential(self):
        spec = DriftDiffusionSpec.additive(a0=2.0, b0=80.0)   # T = 40
        dist = stationary_solution(spec)
        T = 40.0
        sel = dist.grid <= 10 * T
        rel = np.abs(dist.density[sel] / (np.exp(-dist.grid[sel] / T) / T) - 1)
        assert rel.max() < 1e-4

    def test_combined_matches_closed_form(self):
        spec = DriftDiffusionSpec.combined(a0=500.0, a=1.0, b0=2e4, b=2.0)
        dist = stationary_solution(spec)
        model = TwoClassModel(spec.temperature, spec.pareto_exponent,
                              spec.crossover_income)
        closed = model.pdf(dist.grid)
        inner = slice(1, -1)
        rel = np.abs(dist.density[inner] / closed[inner] - 1)
        assert rel.max() < 1e-4

    def test_multiplicative_tail_slope(self):
        spec = DriftDiffusionSpec.multiplicative(a=1.0, b=2.0)   # alpha = 1.5
        grid = np.geomspace(1.0, 1e6, 8000)
        dist = stationary_solution(spec, grid)
        slope = loglog_slope(dist.grid, dist.density, 1e2, 1e5)
        assert slope == pytest.approx(-(1 + 1.5), abs=1e-3)

    def test_multiplicative_needs_positive_grid(self):
        spec = DriftDiffusionSpec.multiplicative(a=1.0, b=2.0)
        with pytest.raises(SingularDiffusionError):
            stationary_solution(spec, np.linspace(0.0, 10.0, 100))
        with pytest.raises(SingularDiffusionError):
            make_grid(spec, r_max=1e4)

    def test_unit_mass(self):
        for spec in (DriftDiffusionSpec.additive(a0=1.0, b0=1.0),
                     DriftDiffusionSpec.combined(a0=500.0, a=1.0, b0=2e4, b=2.0)):
            dist = stationary_solution(spec)
            assert dist.mass == pytest.approx(1.0, abs=1e-6)

    def test_zero_flux_residual(self):
        spec = DriftDiffusionSpec.additive(a0=1.0, b0=1.0)
        grid = np.linspace(0.0, 20.0, 4001)
        dist = stationary_solution(spec, grid)
        Q = spec.diffusion(grid) * dist.density
        resid = np.gradient(Q, grid) + spec.drift(grid) * dist.density
        assert np.abs(resid[5:-5]).max() < 1e-4

    def test_grid_ceiling_refused_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "geomspace", no_allocation)
        spec = DriftDiffusionSpec.additive(a0=1.0, b0=1.0)
        with pytest.raises(ConfigurationError, match="ceiling"):
            make_grid(spec, points_per_decade=fokker_planck.MAX_GRID_POINTS // 6 + 1)
        spec = DriftDiffusionSpec.multiplicative(a=1.0, b=2.0)
        with pytest.raises(ConfigurationError, match="ceiling"):
            make_grid(spec, r_min=1.0, r_max=1e7, points_per_decade=10 ** 12)

    @pytest.mark.parametrize("spec", [DriftDiffusionSpec.additive(a0=1.0, b0=40.0),
                                      DriftDiffusionSpec.combined(1.0, 0.5, 40.0, 0.01)])
    def test_r_min_only_for_the_multiplicative_kind(self, spec):
        # the grid of these kinds starts at 0, so an r_min was once dropped
        with pytest.raises(ConfigurationError, match="r_min"):
            make_grid(spec, r_min=5.0)
        assert np.array_equal(make_grid(spec, r_min=0), make_grid(spec))

    @pytest.mark.parametrize("points", [2.5, True, "2000", np.nan])
    def test_points_per_decade_is_a_whole_number(self, points):
        spec = DriftDiffusionSpec.additive(a0=1.0, b0=1.0)
        with pytest.raises(FormatError, match="points_per_decade must be a whole number"):
            make_grid(spec, points_per_decade=points)
        assert np.array_equal(make_grid(spec, points_per_decade=100.0),
                              make_grid(spec, points_per_decade=100))

    def test_grid_must_cover_the_scale(self):
        spec = DriftDiffusionSpec.additive(a0=1.0, b0=1.0)
        with pytest.raises(ConfigurationError):
            make_grid(spec, r_max=10.0)


class TestTransient:
    @pytest.fixture()
    def additive_setup(self):
        spec = DriftDiffusionSpec.additive(a0=1.0, b0=1.0)   # T = 1
        grid = np.linspace(0.0, 15.0, 401)
        stat = stationary_solution(spec, grid)
        dr = grid[1] - grid[0]
        dt = 0.4 * dr ** 2
        return spec, grid, stat, dt

    def test_stationary_is_fixed_point(self, additive_setup):
        spec, grid, stat, dt = additive_setup
        out = evolve_transient(stat, spec, dt, 1000)
        assert out.l1_distance(stat) < 1e-6

    def test_mass_conserved_every_step(self, additive_setup):
        spec, grid, stat, dt = additive_setup
        w = cell_widths(grid)
        pulse = np.exp(-0.5 * ((grid - 5.0) / 0.2) ** 2)
        pulse /= np.sum(pulse * w)
        dist = GridDistribution(grid, pulse)
        for _ in range(20):
            dist = evolve_transient(dist, spec, dt, 25)
            assert dist.mass == pytest.approx(1.0, abs=1e-8)

    def test_pulse_converges_to_stationary(self, additive_setup):
        spec, grid, stat, dt = additive_setup
        w = cell_widths(grid)
        pulse = np.exp(-0.5 * ((grid - 5.0) / 0.2) ** 2)
        pulse /= np.sum(pulse * w)
        dist = GridDistribution(grid, pulse)
        steps_per_leg = int(5.0 / dt)
        distances = []
        for _ in range(5):
            dist = evolve_transient(dist, spec, dt, steps_per_leg)
            distances.append(dist.l1_distance(stat))
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 1e-3

    def test_stability_bound_enforced(self, additive_setup):
        spec, grid, stat, dt = additive_setup
        with pytest.raises(ConfigurationError):
            evolve_transient(stat, spec, 10 * dt, 10)

    @pytest.mark.parametrize("dt", [-1e-4, 0.0, float("nan")])
    def test_non_positive_step_refused(self, additive_setup, dt):
        spec, grid, stat, _ = additive_setup
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            evolve_transient(stat, spec, dt, 1000)

    @pytest.mark.parametrize("steps", [2.5, float("nan"), True])
    def test_step_count_is_a_whole_number(self, additive_setup, steps):
        spec, grid, stat, dt = additive_setup
        with pytest.raises(FormatError, match="steps must be a whole number"):
            evolve_transient(stat, spec, dt, steps)
        assert evolve_transient(stat, spec, dt, 2.0).l1_distance(stat) < 1e-6

    @pytest.fixture()
    def drift_dominated(self):
        # cell Peclet number h * A/B = 2.5, where 0.4 h^2 / B is too long a step
        spec = DriftDiffusionSpec.additive(a0=10.0, b0=1.0)
        grid = np.linspace(0.0, 15.0, 61)
        return spec, grid, stationary_solution(spec, grid)

    def test_unstable_step_refused(self, drift_dominated):
        spec, grid, stat = drift_dominated
        dt = 0.4 * (grid[1] - grid[0]) ** 2
        with pytest.raises(ConfigurationError, match="positivity bound"):
            evolve_transient(stat, spec, dt, 10)

    @pytest.mark.parametrize("dt", [1e308, np.inf])
    def test_huge_step_refused_with_the_bound_and_no_warning(self, drift_dominated, dt):
        # dt = 1e308 overflowed with four warnings and named the bound 0;
        # dt = inf gave an invalid-value warning
        spec, grid, stat = drift_dominated

        def bound(dt):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigurationError) as excinfo:
                    evolve_transient(stat, spec, dt, 1)
            return float(re.search(r"positivity bound (\S+) ", str(excinfo.value))[1])

        assert bound(dt) == bound(1.0) > 0

    def test_largest_accepted_step_keeps_density_non_negative(self, drift_dominated):
        spec, grid, stat = drift_dominated
        lo, hi = 0.0, 0.4 * (grid[1] - grid[0]) ** 2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                evolve_transient(stat, spec, mid, 1)
                lo = mid
            except ConfigurationError:
                hi = mid
        pulse = np.exp(-0.5 * ((grid - 5.0) / 0.5) ** 2)
        pulse /= np.sum(pulse * cell_widths(grid))
        for start in (stat, GridDistribution(grid, pulse)):
            out = evolve_transient(start, spec, lo, 5000)
            assert np.all(out.density >= 0)
            assert out.mass == pytest.approx(start.mass, abs=1e-12)

    def test_matches_dense_generator(self):
        spec = DriftDiffusionSpec.combined(a0=1.0, a=0.5, b0=1.0, b=0.25)
        grid = 15.0 * np.linspace(0.0, 1.0, 41) ** 1.5
        w = cell_widths(grid)
        B = spec.diffusion(grid)
        s = spec.drift(grid) / B
        h = np.diff(grid)
        x = 0.5 * (s[1:] + s[:-1]) * h
        c = x / np.expm1(x) / h
        d = x / -np.expm1(-x) / h
        # flux from cell i+1 into cell i: d_i B_{i+1} m_{i+1}/w_{i+1} - c_i B_i m_i/w_i
        into_left = d * B[1:] / w[1:]
        into_right = c * B[:-1] / w[:-1]
        G = np.zeros((grid.size, grid.size))
        i = np.arange(grid.size - 1)
        G[i, i + 1] += into_left
        G[i + 1, i + 1] -= into_left
        G[i + 1, i] += into_right
        G[i, i] -= into_right
        dt = 0.9 / np.max(-np.diag(G))
        m0 = np.exp(-0.5 * ((grid - 5.0) / 1.0) ** 2) * w
        m0 /= m0.sum()
        out = evolve_transient(GridDistribution(grid, m0 / w), spec, dt, 50)
        want = np.linalg.matrix_power(np.eye(grid.size) + dt * G, 50) @ m0
        assert np.abs(out.density * w - want).max() < 1e-13

    @pytest.mark.parametrize("steps", [
        1, K - 1, K, K + 1, 3 * K + 5,          # narrow jumps, as the width rule gives
        K * K, K * K + K - 1, 2 * K * K + 3])    # full jumps, with and without a rest
    def test_jumps_match_dense_matrix_power(self, steps):
        spec = DriftDiffusionSpec.combined(a0=1.0, a=0.5, b0=1.0, b=0.25)
        grid = 15.0 * np.linspace(0.0, 1.0, 41) ** 1.5
        w = cell_widths(grid)
        dt = 0.9 / np.max(-np.diag(dense_generator(spec, grid)))
        m0 = np.exp(-0.5 * ((grid - 5.0) / 1.0) ** 2) * w
        m0 /= m0.sum()
        out = evolve_transient(GridDistribution(grid, m0 / w), spec, dt, steps)
        want, drift = dense_transient(spec, grid, dt, steps, m0)
        assert np.abs(out.density * w - want).max() < 1e-13 + drift

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["additive", "multiplicative", "combined"]),
           log_coefs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           points=st.integers(5, 200), shape=st.floats(1.0, 3.0),
           at_bound=st.booleans(), fraction=st.floats(0.01, 1.0),
           steps=st.integers(1, 2500), seed=st.integers(0, 2 ** 32 - 1))
    def test_jumps_keep_density_non_negative_and_mass(self, kind, log_coefs, points, shape,
                                                      at_bound, fraction, steps, seed):
        a0, a, b0, b = 10.0 ** np.array(log_coefs)
        if kind == "multiplicative":
            spec = DriftDiffusionSpec.multiplicative(a, b)
            grid = np.geomspace(1.0, 10.0 ** (0.5 + 1.25 * (shape - 1.0)), points)
        else:
            spec = (DriftDiffusionSpec.additive(a0, b0) if kind == "additive"
                    else DriftDiffusionSpec.combined(a0, a, b0, b))
            grid = 20.0 * spec.scale() * np.linspace(0.0, 1.0, points) ** shape
        rng = np.random.default_rng(seed)
        density = rng.random(points) ** 4 * (rng.random(points) < 0.7)
        density[points // 2] = 1.0
        w = cell_widths(grid)
        density /= np.sum(density * w)
        start = GridDistribution(grid, density)
        # the largest dt the positivity check accepts, found by bisection
        lo, hi = 0.0, 2.0 / np.max(-np.diag(dense_generator(spec, grid)))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                evolve_transient(start, spec, mid, 1)
                lo = mid
            except ConfigurationError:
                hi = mid
        dt = lo if at_bound else fraction * lo
        out = evolve_transient(start, spec, dt, steps)
        assert out.density.min() >= 0.0
        assert abs(np.sum(out.density * w) - 1.0) <= 1e-14
        if points <= 60:
            want, drift = dense_transient(spec, grid, dt, steps, density * w)
            assert np.abs(out.density * w - want).max() <= 1e-13 + drift

    @staticmethod
    def _count_band_builds(monkeypatch):
        builds = []
        flux_bands = fokker_planck._flux_bands

        def counting(left, right, widths):
            builds.append(widths)
            return flux_bands(left, right, widths)

        monkeypatch.setattr(fokker_planck, "_flux_bands", counting)
        return builds

    @staticmethod
    def _pulse(grid):
        w = cell_widths(grid)
        m0 = np.exp(-0.5 * ((grid - 5.0) / 1.0) ** 2) * w
        return GridDistribution(grid, m0 / m0.sum() / w)

    def test_repeated_call_reuses_its_bands(self, monkeypatch):
        builds = self._count_band_builds(monkeypatch)
        spec = DriftDiffusionSpec.combined(a0=1.0, a=0.5, b0=1.0, b=0.25)
        grid = 15.0 * np.linspace(0.0, 1.0, 41) ** 1.5
        dt = 0.9 / np.max(-np.diag(dense_generator(spec, grid)))
        start = self._pulse(grid)
        first = evolve_transient(start, spec, dt, K * K + 3)
        again = evolve_transient(start, spec, dt, K * K + 3)
        assert builds == [(K, 3)]
        assert again.density.tobytes() == first.density.tobytes()
        # another start state on the same spec, grid and dt builds none either
        later = evolve_transient(first, spec, dt, K * K + 3)
        assert builds == [(K, 3)]
        monkeypatch.setattr(fokker_planck, "_last_bands", None)
        assert evolve_transient(first, spec, dt, K * K + 3).density.tobytes() == \
            later.density.tobytes()
        assert builds == [(K, 3)] * 2

    @pytest.mark.parametrize("change", ["dt", "spec", "grid", "steps"])
    def test_changed_call_misses_the_cache(self, monkeypatch, change):
        builds = self._count_band_builds(monkeypatch)
        spec = DriftDiffusionSpec.combined(a0=1.0, a=0.5, b0=1.0, b=0.25)
        grid = 15.0 * np.linspace(0.0, 1.0, 41) ** 1.5
        dt = 0.9 / np.max(-np.diag(dense_generator(spec, grid)))
        steps = K * K + 3
        evolve_transient(self._pulse(grid), spec, dt, steps)
        if change == "dt":
            dt *= 0.5
        elif change == "spec":
            spec = DriftDiffusionSpec.combined(a0=1.0, a=0.25, b0=1.0, b=0.25)
            dt = 0.9 / np.max(-np.diag(dense_generator(spec, grid)))
        elif change == "grid":   # as many cells, placed otherwise
            grid = 15.0 * np.linspace(0.0, 1.0, 41) ** 1.4
            dt = 0.9 / np.max(-np.diag(dense_generator(spec, grid)))
        else:
            steps = K * K + 5
        start = self._pulse(grid)
        out = evolve_transient(start, spec, dt, steps)
        assert len(builds) == 2
        w = cell_widths(grid)
        want, drift = dense_transient(spec, grid, dt, steps, start.density * w)
        assert np.abs(out.density * w - want).max() < 1e-13 + drift

    def test_jump_width_rule(self):
        width, budget = fokker_planck._jump_width, fokker_planck._BAND_BUDGET
        # few steps: sqrt(steps), so the build costs no more than the jumps
        assert [width(n, 401) for n in (1, 3, 4, 10, K * K - 1, K * K, 10 ** 9)] == \
            [1, 1, 2, 3, K - 1, K, K]
        # a huge grid: narrower, down to single steps on the largest make_grid allows
        assert width(10 ** 9, 10 ** 5) == budget // (80 * 10 ** 5) < K
        assert width(10 ** 9, fokker_planck.MAX_GRID_POINTS) == 1

    def test_band_build_stays_within_its_memory_budget(self, monkeypatch):
        # where the budget sets the width, the call's peak allocation is
        # the budget plus a few arrays of the grid's size
        monkeypatch.setattr(fokker_planck, "_BAND_BUDGET", 2 ** 21)
        points = 5000
        spec = DriftDiffusionSpec.additive(a0=1.0, b0=1.0)
        grid = np.linspace(0.0, 15.0, points)
        start = stationary_solution(spec, grid)
        dt = 0.4 * (grid[1] - grid[0]) ** 2
        assert 1 < fokker_planck._jump_width(1000, points) < K
        tracemalloc.start()
        try:
            out = evolve_transient(start, spec, dt, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 21 + 20 * 8 * points
        assert out.l1_distance(start) < 1e-12

    def test_relaxation_rate_is_slowest_mode(self, additive_setup):
        # additive kind on [0, L]: slowest mode a0^2/(4 b0) + b0 (pi/L)^2
        spec, grid, stat, dt = additive_setup
        slowest = 0.25 + (np.pi / 15.0) ** 2
        pulse = np.exp(-0.5 * ((grid - 5.0) / 0.2) ** 2)
        pulse /= np.sum(pulse * cell_widths(grid))
        at_40 = evolve_transient(GridDistribution(grid, pulse), spec, dt, round(40.0 / dt))
        steps = round(4.0 / dt)
        at_44 = evolve_transient(at_40, spec, dt, steps)
        rate = np.log(at_40.l1_distance(stat) / at_44.l1_distance(stat)) / (steps * dt)
        assert rate == pytest.approx(slowest, rel=0.01)


class TestDiagnostics:
    def test_additive_sign_change_at_temperature(self):
        spec = DriftDiffusionSpec.additive(a0=2.0, b0=80.0)   # T = 40
        assert delta_r2_diagnostic(39.999, spec) > 0
        assert delta_r2_diagnostic(40.001, spec) < 0
        assert delta_r2_diagnostic(40.0, spec) == 0.0

    def test_balanced_rates_vanish_identically(self):
        spec = DriftDiffusionSpec.multiplicative(a=0.7, b=0.7)
        r = np.linspace(0.0, 1e6, 1001)
        assert np.all(delta_r2_diagnostic(r, spec) == 0.0)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), [1.0, float("-inf")]])
    def test_non_finite_income_refused(self, r):
        # a NaN once came back as the rate
        with pytest.raises(DomainError, match="income must be finite"):
            delta_r2_diagnostic(r, DriftDiffusionSpec.additive(a0=2.0, b0=80.0))

    @pytest.mark.parametrize("r", [1e308, [1.0, 1e308]])
    def test_rate_beyond_float_refused(self, r):
        # 2 (B - r A) overflowed with numpy's warning and came back as -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                delta_r2_diagnostic(r, DriftDiffusionSpec.additive(1, 40))

    def test_subcritical_drift_grows_quadratically(self):
        a, b = 0.5, 2.0
        spec = DriftDiffusionSpec.multiplicative(a=a, b=b)
        r = np.array([0.5, 1.0, 10.0])
        assert np.allclose(delta_r2_diagnostic(r, spec), 2 * (b - a) * r ** 2)
        assert np.all(delta_r2_diagnostic(r, spec) > 0)

    def test_alpha_from_coefficients(self):
        assert DriftDiffusionSpec.multiplicative(a=1.0, b=1.0).pareto_exponent == 2.0
        assert DriftDiffusionSpec.multiplicative(a=0.5, b=1.0).pareto_exponent == 1.5
        with pytest.raises(DomainError):
            DriftDiffusionSpec.additive(a0=1.0, b0=40.0).pareto_exponent

    def test_alpha_round_trip_with_tail_slope(self):
        a, b = 0.8, 1.0
        spec = DriftDiffusionSpec.multiplicative(a=a, b=b)
        grid = np.geomspace(1.0, 1e6, 8000)
        dist = stationary_solution(spec, grid)
        slope = loglog_slope(dist.grid, dist.density, 1e2, 1e5)
        assert -slope - 1 == pytest.approx(spec.pareto_exponent, abs=1e-2)
