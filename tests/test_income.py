import csv
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st
from scipy.optimize import least_squares

from ineqstats import (DomainError, FormatError, IncomeBinTable,
                       InsufficientDataError, TwoClassModel, WeightedCDF,
                       fit_pareto_exponent, fit_report, fit_temperature,
                       income, lorenz_exponential, refine_parameters,
                       sample_income_table)
from ineqstats.distributions import LevelQuadrature
from ineqstats.income import MODE_AT_OR_ABOVE, MODE_IN_BIN


@pytest.fixture(scope="module")
def model_2007():
    return TwoClassModel(48.0, 1.34, 113.0)


@pytest.fixture(scope="module")
def table_2007(model_2007):
    rng = np.random.default_rng(20260808)
    return sample_income_table(model_2007, 100_000, rng, n_levels=50, year=2007)


def exponential_table(T=33.0, n_levels=20):
    """Exact exponential complementary counts (deterministic rounding)."""
    levels = np.linspace(0.0, 4.5 * T, n_levels)
    comp = np.round(1e9 * np.exp(-levels / T)).astype(np.int64)
    return IncomeBinTable.from_complementary(levels, comp)


def alpha_underflow_table():
    """Seeded tail-less table (T = 171, Poisson counts) on which the search
    in ln(alpha - 1) runs so low that 1 + exp(x) rounds to 1.0."""
    rng = np.random.default_rng(27)
    T = 171.0
    levels = np.linspace(0.0, 4.75 * T, 42)
    comp = np.exp(-levels / T)
    mass = np.append(comp[:-1] - comp[1:], comp[-1])
    return IncomeBinTable(levels, rng.poisson(80624 * mass))


def tailless_tables(count):
    """The first ``count`` tables of the seeded tail-less fuzz: T ~ U(5, 200),
    10-60 levels on [0, U(3, 8) T], 10^U(4, 9) returns with exponential
    complementary counts, Poisson-resampled per bin in odd tables."""
    rng = np.random.default_rng(300)
    for i in range(count):
        T = rng.uniform(5, 200)
        n_levels = int(rng.integers(10, 61))
        levels = np.linspace(0.0, rng.uniform(3, 8) * T, n_levels)
        comp = np.round(10 ** rng.uniform(4, 9) * np.exp(-levels / T)).astype(np.int64)
        counts = np.append(comp[:-1] - comp[1:], comp[-1])
        if i % 2:
            counts = rng.poisson(counts.astype(float))
        yield levels, counts


def fit_crossover(cdf, T, alpha):
    """(r0, degenerate) of the staged crossover search on ``cdf``."""
    return income._fit_crossover(LevelQuadrature(cdf.values), cdf.complementary, T, alpha)


class TestTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            IncomeBinTable(np.array([1.0, 1.0]), np.array([1, 1]))
        with pytest.raises(DomainError):
            IncomeBinTable(np.array([1.0, 2.0]), np.array([0, 0]))
        with pytest.raises(DomainError):
            IncomeBinTable(np.array([1.0, 2.0]), np.array([1, -1]))

    @pytest.mark.parametrize("levels", [[0.0, 10.0, np.nan, 40.0], [0.0, 10.0, np.inf],
                                        [-np.inf, 0.0, 10.0]])
    def test_non_finite_levels_refused(self, levels):
        # a NaN passes the strictly-increasing test, as every comparison is False
        with pytest.raises(DomainError, match="income levels must be finite"):
            IncomeBinTable(np.array(levels), np.ones(len(levels), dtype=np.int64))

    @pytest.mark.parametrize("year", [math.nan, math.inf, 2007.5])
    def test_year_is_a_whole_number(self, year):
        # a NaN year was once accepted by both
        with pytest.raises(FormatError, match="year must be a whole number"):
            IncomeBinTable(np.array([0.0, 10.0]), np.array([3, 1]), year)
        with pytest.raises(FormatError, match="year must be a whole number"):
            sample_income_table(TwoClassModel(40.0, 1.5, 100.0), 100,
                                np.random.default_rng(1), year=year)
        assert IncomeBinTable(np.array([0.0, 10.0]), np.array([3, 1]), 2007.0).year == 2007

    @pytest.mark.parametrize("counts", [[1.5, 2.7, 1], [1, np.nan, 1], [1, np.inf, 1],
                                        [True, False, True]])
    @pytest.mark.filterwarnings("error")
    def test_counts_are_whole_numbers(self, counts):
        # [1.5, 2.7, 1] was once truncated to [1, 2, 1], and a NaN raised
        # numpy's bare ValueError
        with pytest.raises(FormatError, match="counts must be whole numbers"):
            IncomeBinTable([0.0, 1.0, 2.0], counts)
        with pytest.raises(FormatError, match="counts must be whole numbers"):
            IncomeBinTable.from_complementary([0.0, 1.0, 2.0], counts[::-1])
        table = IncomeBinTable([0.0, 1.0, 2.0], [2.0, 1e3, 0.0])
        assert table.counts.tolist() == [2, 1000, 0]

    def test_from_complementary(self):
        table = IncomeBinTable.from_complementary([0.0, 10.0, 20.0], [100, 40, 15])
        assert table.counts.tolist() == [60, 25, 15]
        assert table.total == 100

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "irs.csv"
        path.write_text("level_kusd,returns_at_or_above\n0,100\n10,40\n20,15\n")
        table = IncomeBinTable.from_csv(path, mode=MODE_AT_OR_ABOVE, year=2007)
        assert table.counts.tolist() == [60, 25, 15]
        assert table.year == 2007
        path2 = tmp_path / "bins.csv"
        path2.write_text("level_kusd,returns_in_bin\n0,60\n10,25\n20,15\n")
        table2 = IncomeBinTable.from_csv(path2, mode=MODE_IN_BIN)
        assert np.array_equal(table2.counts, table.counts)

    def test_csv_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("level_kusd,returns_at_or_above\n0,100\nten,50\n")
        with pytest.raises(FormatError, match="bad.csv:3"):
            IncomeBinTable.from_csv(path)

    def test_csv_errors_name_the_file_line_after_a_multi_line_cell(self, tmp_path):
        # record 3 starts on file line 4: the quoted level of record 2 spans two lines
        path = tmp_path / "bad.csv"
        path.write_text('level_kusd,returns_at_or_above\n"0\n",100\nten,50\n')
        with pytest.raises(FormatError, match=r"bad\.csv:4: could not convert"):
            IncomeBinTable.from_csv(path)
        path.write_text('level_kusd,returns_at_or_above\n"0\n",100\n10\n')
        with pytest.raises(FormatError, match=r"bad\.csv:4: expected two columns"):
            IncomeBinTable.from_csv(path)

    @pytest.mark.parametrize("rows, error", [
        pytest.param(b"10,40\n", None, id="good"),
        pytest.param(b"ten,40\n", r":4: could not convert", id="bad-level"),
        pytest.param(b"10\n", r":4: expected two columns", id="short-row"),
        pytest.param(b"10," + b"9" * 131073 + b"\n", r":4: field larger than field limit",
                     id="over-long-cell"),
        pytest.param(b"10,40\n\xf4,1\n", r": not UTF-8 text \(byte 0xf4\)", id="not-utf8"),
    ])
    def test_csv_is_opened_once(self, tmp_path, opens, rows, error):
        path = tmp_path / "irs.csv"
        path.write_bytes(b'level_kusd,returns_at_or_above\n"0\n",100\n' + rows)
        opens.clear()
        if error is None:
            assert IncomeBinTable.from_csv(path).counts.tolist() == [60, 40]
        else:
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}{error}"):
                IncomeBinTable.from_csv(path)
        assert opens == {str(path): 1}

    def test_mean_income_top_bin_convention(self):
        # two bins: [0, 10) with 3 returns, [10, inf) with 1 return at the
        # power-law conditional mean 10 * 2 = 20 for alpha = 2
        table = IncomeBinTable(np.array([0.0, 10.0]), np.array([3, 1]))
        assert table.bin_incomes(2.0).mean == pytest.approx((3 * 5 + 20) / 4)


def reference_from_csv(path, mode):
    """The whole-file parse that ``IncomeBinTable.from_csv`` must match:
    all rows read at once, the header and blank rows skipped, a short row
    refused, then the table built from every level and count.  A row is
    named by the file line it starts on: each earlier row took one line
    plus one per line break inside its cells."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    starts = np.cumsum([1] + [1 + "".join(row).count("\n") for row in rows])
    levels, counts = [], []
    for lineno, row in zip(starts[1:], rows[1:]):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise FormatError(f"{path}:{lineno}: expected two columns")
        try:
            level, count = float(row[0]), float(row[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
        if count % 1 != 0:          # fractions, inf and NaN
            raise FormatError(f"{path}:{lineno}: count must be a whole number; got {count!r}")
        if abs(int(count)) > np.iinfo(np.int64).max:
            raise FormatError(f"{path}:{lineno}: count {row[1]} lies beyond 64-bit counts")
        levels.append(level)
        counts.append(int(count))
    if not levels:
        raise FormatError(f"{path}: no data rows")
    if mode == MODE_IN_BIN:
        return IncomeBinTable(levels, counts)
    return IncomeBinTable.from_complementary(levels, counts)


def table_outcome(build):
    try:
        table = build()
    except (FormatError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return table.levels.tolist(), table.counts.tolist()


_BAD_COUNTS = st.sampled_from(["2.5", "x", "", " ", "1e20", "inf", "nan", "-3"])
_BAD_LEVELS = st.sampled_from(["ten", "", " ", "1\n0"])
_BLANK_CELLS = st.lists(st.sampled_from(["", " ", "  ", "\t"]), min_size=0, max_size=4)
_SHORT_ROWS = st.sampled_from([["5"], ["x"], [" 7 "], [""]])


@st.composite
def income_file_rows(draw):
    """Data rows with rising levels and mostly falling whole counts, mixed
    with blank rows of any width, short rows and faulty cells; a level
    cell may span two file lines."""
    rows, level, count = [], 0, 1000
    for kind in draw(st.lists(st.sampled_from("dddddbsf"), min_size=1, max_size=12)):
        if kind == "b":
            rows.append(draw(_BLANK_CELLS))
        elif kind == "s":
            rows.append(draw(_SHORT_ROWS))
        else:
            level += draw(st.integers(1, 20))
            count -= draw(st.integers(0, 200))
            cells = [draw(st.sampled_from([str(level), f" {level} ", f"{level}.0",
                                           f"{level}\n"])),
                     draw(st.sampled_from([str(count), f" {count}", f"{count}e0"]))]
            if kind == "f":
                cells[draw(st.integers(0, 1))] = draw(st.one_of(_BAD_LEVELS, _BAD_COUNTS))
            rows.append(cells + draw(st.sampled_from([[], ["note"], [""]])))
    return rows


class TestFromCsvMatchesWholeFileParse:
    @seed(20261019)
    @settings(max_examples=250, deadline=None)
    @given(rows=income_file_rows(), mode=st.sampled_from([MODE_IN_BIN, MODE_AT_OR_ABOVE]))
    def test_same_table_or_error(self, tmp_path_factory, rows, mode):
        path = tmp_path_factory.mktemp("income") / "table.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["level_kusd", "returns"])
            writer.writerows(rows)
        assert (table_outcome(lambda: IncomeBinTable.from_csv(path, mode=mode))
                == table_outcome(lambda: reference_from_csv(path, mode)))


class TestEmpiricalCdf:
    def test_single_level(self):
        table = IncomeBinTable(np.array([5.0]), np.array([10]))
        cdf = WeightedCDF(table.levels, table.counts)
        assert cdf.complementary.tolist() == [1.0]

    def test_two_equal_levels(self):
        table = IncomeBinTable(np.array([1.0, 2.0]), np.array([5, 5]))
        cdf = WeightedCDF(table.levels, table.counts)
        assert cdf.complementary.tolist() == [1.0, 0.5]

    def test_sampling_within_binomial_bands(self, model_2007, table_2007):
        cdf = WeightedCDF(table_2007.levels, table_2007.counts)
        n = table_2007.total
        theory = np.atleast_1d(model_2007.cdf(cdf.values))
        sigma = np.sqrt(theory * (1 - theory) / n)
        inside = np.abs(cdf.complementary - theory) <= 3 * sigma + 1e-12
        # all levels inside the 3-sigma binomial band (the deepest level
        # holds ~10 samples, so allow a single excursion)
        assert inside.sum() >= inside.size - 1

    @seed(61)
    @settings(max_examples=60, deadline=None)
    @given(T=st.floats(0.1, 1000.0), alpha=st.floats(1.01, 4.0),
           log_ratio=st.floats(math.log(0.05), math.log(1e4)),
           n_levels=st.integers(3, 60),
           u=st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=100))
    def test_binning_uniforms_matches_binning_incomes(self, T, alpha, log_ratio,
                                                      n_levels, u):
        # sample_income_table bins its uniforms against the targets; that
        # is binning the incomes inverse_cdf draws from them by the levels
        model = TwoClassModel(T, alpha, T * math.exp(log_ratio))
        targets = np.geomspace(1.0, 1e-4, n_levels)
        u = np.array(u)
        # within the inverse's rounding of a target either bin is right
        assume(np.all(np.abs(u[:, None] / targets - 1.0) > 1e-12))
        levels = model.inverse_cdf(targets)
        levels[0] = 0.0
        by_income = np.searchsorted(levels, model.inverse_cdf(u), side="right") - 1
        by_uniform = np.searchsorted(-targets, -u, side="right") - 1
        assert np.array_equal(by_income, by_uniform)

    @pytest.mark.parametrize("sizes", [{"n_samples": 2.5}, {"n_samples": math.nan},
                                       {"n_levels": 3.5}, {"n_levels": True}])
    def test_sample_sizes_are_whole_numbers(self, sizes):
        # 2.5 once raised a bare TypeError from numpy, and True ran as one level
        sizes = {"n_samples": 1000, "n_levels": 10, **sizes}
        with pytest.raises(FormatError, match="must be a whole number"):
            sample_income_table(TwoClassModel(40.0, 1.5, 100.0), rng=np.random.default_rng(1),
                                **sizes)
        with pytest.raises(DomainError, match="at least one sample"):   # was numpy's ValueError
            sample_income_table(TwoClassModel(40.0, 1.5, 100.0), -1, np.random.default_rng(1))
        table = sample_income_table(TwoClassModel(40.0, 1.5, 100.0), 1e3,
                                    np.random.default_rng(1), n_levels=10.0)
        assert (table.levels.size, table.total) == (10, 1000)


class TestStagedFits:
    def test_exact_exponential_recovers_temperature(self):
        table = exponential_table(T=33.0)
        cdf = WeightedCDF(table.levels, table.counts)
        fit = fit_temperature(cdf)
        assert fit.temperature == pytest.approx(33.0, rel=1e-6)
        assert fit.residual < 1e-10

    def test_window_too_small(self):
        table = exponential_table(n_levels=20)
        cdf = WeightedCDF(table.levels, table.counts)
        with pytest.raises(InsufficientDataError):
            fit_temperature(cdf, window=(0.21, 0.22))

    def test_tail_window_counts_only_positive_levels(self):
        # ln r has no value at a level <= 0, so such levels are not usable
        levels = np.linspace(-400.0, -10.0, 30)
        comp = np.round(1e6 * np.exp(-(levels + 400.0) / 40.0)).astype(np.int64)
        table = IncomeBinTable.from_complementary(levels, comp)
        with pytest.raises(InsufficientDataError,
                           match=r"holds 0 usable points \(10 more at levels <= 0"):
            fit_pareto_exponent(WeightedCDF(table.levels, table.counts))

    def test_tail_window_fits_its_positive_levels(self):
        levels = np.array([-1000.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
        comp = np.array([1.0, 0.03, 0.025, *(0.02 * np.array([1.0, 2.0, 4.0, 8.0]) ** -1.5)])
        table = IncomeBinTable.from_complementary(levels, np.round(1e9 * comp).astype(np.int64))
        fit = fit_pareto_exponent(WeightedCDF(table.levels, table.counts))
        assert fit.alpha == pytest.approx(1.5, rel=1e-6)

    def test_staged_temperature_on_model_data(self, table_2007):
        # the body window reaches into the crossover region, so the staged
        # estimate carries a known upward bias of several percent; the
        # 2 percent recovery is a property of the refined pipeline
        fit = fit_temperature(WeightedCDF(table_2007.levels, table_2007.counts))
        assert abs(fit.temperature / 48.0 - 1) < 0.10

    def test_exact_power_law_recovers_alpha(self):
        levels = np.geomspace(10.0, 1e4, 30)
        comp = np.round(1e10 * levels ** -1.63).astype(np.int64)
        table = IncomeBinTable.from_complementary(levels, comp)
        fit = fit_pareto_exponent(WeightedCDF(table.levels, table.counts),
                                  window=(0.0, 1.0))
        assert fit.alpha == pytest.approx(1.63, rel=1e-4)

    def test_wrong_window_reports_large_residual(self):
        table = exponential_table(T=33.0, n_levels=40)
        cdf = WeightedCDF(table.levels, table.counts)
        tail = fit_pareto_exponent(cdf, window=(0.001, 0.03))
        body = fit_pareto_exponent(cdf, window=(0.4, 0.95))
        # fitting a power law across the exponential body misfits far more
        # per point than the asymptotically-straight deep tail
        assert body.residual > 10 * tail.residual

    def test_crossover_round_trip_with_true_parameters(self):
        # the scan places r0 within one step (a factor sqrt(10)) of the
        # truth, at an objective no higher than at any of its 7 points
        model = TwoClassModel(40.0, 1.5, 100.0)
        rng = np.random.default_rng(90210)
        table = sample_income_table(model, 100_000, rng, n_levels=50)
        cdf = WeightedCDF(table.levels, table.counts)
        r0, degenerate = fit_crossover(cdf, 40.0, 1.5)
        assert not degenerate
        assert abs(math.log(r0 / 100.0)) < 0.5 * math.log(10.0)
        quadrature = LevelQuadrature(cdf.values)

        def objective(r0):
            return income._log_mse(quadrature.ccdf(40.0, 1.5, r0), cdf.complementary)

        scan = np.geomspace(4.0, 4000.0, 7)
        assert objective(r0) <= min(objective(x) for x in scan)

    def test_crossover_scan_makes_seven_evaluations(self, table_2007, monkeypatch):
        calls = []
        ccdf = LevelQuadrature.ccdf

        def counting(self, *args):
            calls.append(args)
            return ccdf(self, *args)

        monkeypatch.setattr(LevelQuadrature, "ccdf", counting)
        fit_crossover(WeightedCDF(table_2007.levels, table_2007.counts), 48.0, 1.34)
        assert len(calls) == 7

    def test_crossover_local_minimum_certificate(self):
        model = TwoClassModel(40.0, 1.5, 100.0)
        rng = np.random.default_rng(90210)
        table = sample_income_table(model, 100_000, rng, n_levels=50)
        cdf = WeightedCDF(table.levels, table.counts)
        r0, _ = fit_crossover(cdf, 40.0, 1.5)
        mask = cdf.complementary > 0

        def objective(r0):
            m = TwoClassModel(40.0, 1.5, r0)
            theory = np.atleast_1d(m.cdf(cdf.values[mask]))
            return float(np.sum(np.log(theory / cdf.complementary[mask]) ** 2))

        assert objective(r0) <= objective(r0 / 2)
        assert objective(r0) <= objective(2 * r0)

    def test_crossover_degenerate_on_pure_exponential(self):
        table = exponential_table(T=33.0, n_levels=40)
        cdf = WeightedCDF(table.levels, table.counts)
        r0, degenerate = fit_crossover(cdf, 33.0, 1.5)
        assert degenerate
        assert r0 > 1000.0   # pushed toward the upper bracket


class TestRefinedPipeline:
    def test_round_trip_identifiability(self, table_2007):
        report = fit_report(table_2007)
        assert report.refined
        assert abs(report.temperature / 48.0 - 1) < 0.02
        assert abs(report.alpha / 1.34 - 1) < 0.05
        assert abs(report.r0 / 113.0 - 1) < 0.10

    def test_derived_quantities_match_table_row(self, table_2007):
        report = fit_report(table_2007)
        assert report.tail_fraction == pytest.approx(0.215, abs=0.02)
        assert report.gini == pytest.approx(0.60, abs=0.015)
        assert report.r_star is not None
        assert report.r_star > report.temperature
        # boundary near 3.5 T with a ~3 percent upper class
        assert report.r_star / report.temperature == pytest.approx(3.6, abs=0.4)
        assert report.upper_class_fraction == pytest.approx(0.03, abs=0.01)

    def test_gini_consistency_with_lorenz(self, table_2007):
        # the interpolating body is slightly more unequal than a pure
        # exponential, so the empirical-Lorenz Gini sits a structural
        # ~0.016 above the idealised (1+f)/2 at these parameters; 0.03
        # covers that offset plus sampling noise
        report = fit_report(table_2007)
        assert abs(report.gini_lorenz - report.gini) < 0.03
        assert report.gini_lorenz > report.gini

    def test_pure_exponential_data(self):
        report = fit_report(exponential_table(T=33.0, n_levels=40))
        assert report.tail_fraction == pytest.approx(0.0, abs=0.02)
        assert report.gini == pytest.approx(0.5, abs=0.01)
        assert report.degenerate_tail

    @pytest.mark.filterwarnings("error")
    def test_runaway_tail_fit_is_degenerate(self):
        # with no tail in the data the refinement runs r0 and alpha far
        # out, where r0^(alpha+1) overflows although the tail prefactor
        # underflows to zero, and where the density and the tail mass
        # overflow without a warning
        report = fit_report(exponential_table(T=33.0, n_levels=20))
        assert report.degenerate_tail
        assert report.r_star is None
        assert report.temperature == pytest.approx(33.0, rel=1e-3)

    @pytest.mark.filterwarnings("error")
    def test_alpha_never_rounds_to_one(self):
        report = fit_report(alpha_underflow_table())
        assert report.alpha > 1.0
        assert report.degenerate_tail
        TwoClassModel(171.0, math.nextafter(1.0, 2.0), 1e4).mean()

    def test_empirical_lorenz_matches_closed_form_for_exponential(self):
        table = exponential_table(T=33.0, n_levels=60)
        curve = table.bin_incomes(top_bin_alpha=5.0).lorenz()
        closed = np.atleast_1d(lorenz_exponential(curve.x))
        assert np.abs(curve.y - closed).max() < 0.01

    def test_scale_covariance(self, table_2007):
        report = fit_report(table_2007)
        scaled = IncomeBinTable(table_2007.levels * 3.0, table_2007.counts, 2007)
        report_scaled = fit_report(scaled)
        assert report_scaled.temperature == pytest.approx(3 * report.temperature, rel=1e-3)
        assert report_scaled.r0 == pytest.approx(3 * report.r0, rel=1e-3)
        assert report_scaled.r_star == pytest.approx(3 * report.r_star, rel=1e-3)
        assert report_scaled.alpha == pytest.approx(report.alpha, rel=1e-3)
        assert report_scaled.tail_fraction == pytest.approx(report.tail_fraction, abs=1e-4)
        assert report_scaled.gini == pytest.approx(report.gini, abs=1e-4)

    def test_report_json_and_row(self, table_2007):
        report = fit_report(table_2007)
        blob = report.to_json()
        assert '"temperature"' in blob
        row = report.table_row()
        assert "2007" in row and "G=" in row

    def test_staged_only_mode(self, table_2007):
        report = fit_report(table_2007, refine=False)
        assert not report.refined
        assert report.temperature == report.temperature_staged

    def test_fit_builds_at_most_one_model(self, table_2007, monkeypatch):
        # the crossover search, the refinement and the residual evaluate
        # the CDF through a LevelQuadrature; only the final model that
        # gives the tail prefactor is built
        builds = []
        build = TwoClassModel.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            build(self, *args, **kwargs)

        monkeypatch.setattr(TwoClassModel, "__init__", counting)
        fit_report(table_2007)
        assert len(builds) <= 1

    @pytest.mark.filterwarnings("error")
    def test_runaway_fits_stay_finite_or_refuse(self):
        # on tables without a tail alpha and r0 run away; every step moves
        # a log parameter by at most 1, so they walk out and never overflow
        outcomes = []
        for levels, counts in tailless_tables(40):
            try:
                report = fit_report(IncomeBinTable(levels, counts))
            except (InsufficientDataError, DomainError) as exc:
                outcomes.append(type(exc).__name__)
                continue
            assert all(math.isfinite(v) for v in
                       (report.temperature, report.alpha, report.r0))
            assert report.alpha > 1.0
            outcomes.append("fit")
        # the staged fits refuse five tables; every other one fits
        assert outcomes.count("fit") == 35

    @pytest.mark.filterwarnings("error")
    def test_collinear_runaway_fit_ends_cleanly(self):
        # on table 289 of the tail-less fuzz the exact Jacobian's ln(alpha-1)
        # and ln r0 columns turn collinear after the damping has been divided
        # down, so the damped system is singular; that step is refused
        *_, (levels, counts) = tailless_tables(290)
        report = fit_report(IncomeBinTable(levels, counts))
        assert all(math.isfinite(v) for v in (report.temperature, report.alpha, report.r0))
        assert report.alpha > 1.0

    def test_singular_damped_system_is_a_refused_step(self):
        def residuals(x):   # one residual of x0 + 2 x1: collinear columns
            e = math.exp(x[0] + 2.0 * x[1])
            return np.array([e]), lambda: np.array([[e, 2.0 * e]])

        # every step is accepted, so lam falls below the rounding of 1 + lam
        x = income._levenberg_marquardt(residuals, [0.0, 0.0])
        assert x[0] + 2.0 * x[1] < -50.0

    def test_refine_parameters_standalone(self, model_2007, table_2007):
        T, alpha, r0 = refine_parameters(table_2007, 51.0, 1.6, 80.0)
        assert abs(T / 48 - 1) < 0.02
        assert abs(alpha / 1.34 - 1) < 0.05
        assert abs(r0 / 113 - 1) < 0.10

    @pytest.mark.parametrize("start", [(-1.0, 1.6, 80.0), (0.0, 1.6, 80.0),
                                       (51.0, 1.6, 0.0), (51.0, 1.6, -80.0),
                                       (math.inf, 1.6, 80.0), (51.0, math.inf, 80.0),
                                       (51.0, 1.6, math.inf), (math.nan, 1.6, 80.0),
                                       (51.0, math.nan, 80.0), (51.0, 1.6, math.nan),
                                       (51.0, 1e300, 80.0), (1e-300, 1.6, 80.0)])
    def test_refine_parameters_refuses_a_bad_start(self, table_2007, start):
        with pytest.raises(DomainError):
            refine_parameters(table_2007, *start)


def weighted_log_residuals(table, x):
    """sqrt(n_k) ln(q_k / p_k) over the bins with returns, at the log
    parameters x = (ln T, ln(alpha - 1), ln r0)."""
    pos = table.counts > 0
    comp = LevelQuadrature(table.levels).ccdf(math.exp(x[0]), 1.0 + math.exp(x[1]),
                                              math.exp(x[2]))
    p = np.append(comp[:-1] - comp[1:], comp[-1])[pos]
    return np.sqrt(table.counts[pos]) * np.log(table.counts[pos] / table.total / p)


def staged_start(table):
    staged = fit_report(table, refine=False)
    return staged.temperature_staged, max(staged.alpha_staged, 1.01), staged.r0_staged


def seeded_table(params, rng_seed):
    return sample_income_table(TwoClassModel(*params), 100_000,
                               np.random.default_rng(rng_seed), n_levels=50)


class TestRefinementReachesTheMinimum:
    @pytest.mark.parametrize("params, rng_seed", [(None, None),
                                                  ((40.0, 1.5, 100.0), 90210),
                                                  ((33.0, 1.63, 76.0), 7),
                                                  ((60.0, 1.3, 141.0), 11)])
    def test_matches_least_squares_oracle(self, table_2007, params, rng_seed):
        table = table_2007 if params is None else seeded_table(params, rng_seed)
        T, alpha, r0 = staged_start(table)
        x0 = [math.log(T), math.log(alpha - 1.0), math.log(r0)]
        oracle = least_squares(lambda x: weighted_log_residuals(table, x), x0,
                               method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        refined = refine_parameters(table, T, alpha, r0)
        x = [math.log(refined[0]), math.log(refined[1] - 1.0), math.log(refined[2])]
        objective = float(np.sum(weighted_log_residuals(table, x) ** 2))
        assert objective == pytest.approx(float(oracle.fun @ oracle.fun), rel=1e-10)
        expected = np.exp(oracle.x) + [0.0, 1.0, 0.0]
        assert np.allclose(refined, expected, rtol=1e-5, atol=0.0)

    @pytest.mark.parametrize("params, rng_seed", [(None, None),
                                                  ((40.0, 1.5, 100.0), 90210),
                                                  ((33.0, 1.63, 76.0), 7),
                                                  ((60.0, 1.3, 141.0), 11)])
    def test_staged_start_reaches_the_minimum_of_the_true_start(self, table_2007,
                                                                params, rng_seed):
        # the crossover scan is coarse, but the refinement it starts ends
        # where a refinement started at the true parameters does
        table = table_2007 if params is None else seeded_table(params, rng_seed)
        report = fit_report(table)
        from_truth = refine_parameters(table, *(params or (48.0, 1.34, 113.0)))
        assert np.allclose([report.temperature, report.alpha, report.r0], from_truth,
                           rtol=1e-6, atol=0.0)

    def test_tail_running_to_alpha_one_still_fits_t_and_r0(self):
        # alpha is not identified on this table and runs to 1, where the
        # ln(alpha-1) column of J is nearly flat and its step huge; a step
        # shrunk as a whole to the cap then left T and r0 where they were
        # and stopped at a sum of squares of 25.58
        table = sample_income_table(TwoClassModel(60.0, 1.82, 276.0), 28_000,
                                    np.random.default_rng(140), n_levels=37)
        T, alpha, r0 = staged_start(table)
        oracle = least_squares(lambda x: weighted_log_residuals(table, x),
                               [math.log(T), math.log(alpha - 1.0), math.log(r0)],
                               method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        report = fit_report(table)
        assert report.alpha - 1.0 < 1e-6
        x = [math.log(report.temperature), math.log(report.alpha - 1.0), math.log(report.r0)]
        objective = float(np.sum(weighted_log_residuals(table, x) ** 2))
        assert objective == pytest.approx(float(oracle.fun @ oracle.fun), rel=1e-9)

    def test_clipped_bins_do_not_stop_the_search(self, table_2007):
        # from T = 2 nine observed bins have model mass below 1e-300; their
        # residuals do not move, so their Jacobian rows are zero, not NaN
        refined = refine_parameters(table_2007, 2.0, 50.0, 1000.0)
        from_staged = refine_parameters(table_2007, *staged_start(table_2007))
        assert np.allclose(refined, from_staged, rtol=1e-6, atol=0.0)

    def test_evaluation_budget(self, table_2007, monkeypatch):
        # with the exact Jacobian a least-squares step reaches the minimum
        # in about 10 evaluations of the CCDF and its gradient; forward
        # differences needed about 30 CCDFs, a 220-step simplex over 500
        start = staged_start(table_2007)
        calls = []
        ccdf_gradient = LevelQuadrature._ccdf_gradient

        def counting(self, *args):
            calls.append(args)
            return ccdf_gradient(self, *args)

        monkeypatch.setattr(LevelQuadrature, "_ccdf_gradient", counting)
        refine_parameters(table_2007, *start)
        assert 0 < len(calls) <= 20
