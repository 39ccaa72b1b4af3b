import numpy as np
import pytest

from conftest import requires_wri, wri_data_dir
from ineqstats import (CountryRecord, DegenerateCurveError, DomainError,
                       EmptyJoinError, FormatError, LorenzCurve, ingest_wri,
                       per_capita_kw, slope_profile, weighted_cdf)
from ineqstats.wri_fixture import (FIXTURE_YEARS, WORLD_AVERAGE_KW,
                                   fixture_records, write_fixture_csvs)


def rec(name, eps, pop, year=2005, per_capita=True):
    return CountryRecord(name, name[:3].upper(), year, eps, pop, per_capita)


class TestUnits:
    def test_one_toe_per_year(self):
        # 1 toe/yr over one person: 41.85e9 J / 3.15576e7 s = 1326.1 W
        record = CountryRecord("X", "XXX", 2005, 0.001, 1.0)  # 0.001 ktoe
        assert per_capita_kw(record) == pytest.approx(1.3261464750171115, rel=1e-12)

    def test_zero_energy(self):
        assert per_capita_kw(CountryRecord("X", "XXX", 2005, 0.0, 5.0)) == 0.0

    def test_population_scaling(self):
        one = per_capita_kw(CountryRecord("X", "XXX", 2005, 3.0, 1e6))
        two = per_capita_kw(CountryRecord("X", "XXX", 2005, 3.0, 2e6))
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_per_capita_passthrough(self):
        assert per_capita_kw(rec("US", 10.4, 3e8)) == 10.4

    def test_bad_population(self):
        with pytest.raises(DomainError):
            CountryRecord("X", "XXX", 2005, 1.0, 0.0)


def write_pair(tmp_path, energy_rows, population_rows):
    e = tmp_path / "energy.csv"
    p = tmp_path / "population.csv"
    e.write_text("country,year,value\n" + "\n".join(energy_rows) + "\n")
    p.write_text("country,year,value\n" + "\n".join(population_rows) + "\n")
    return e, p


class TestIngest:
    def test_single_country_join(self, tmp_path):
        e, p = write_pair(tmp_path, ["United States,2005,2340000"],
                          ["United States,2005,295500000"])
        records, drops = ingest_wri(e, p, 2005)
        assert len(records) == 1
        assert drops.n_dropped == 0
        assert records[0].label == "UNI"

    def test_join_semantics_missing_side(self, tmp_path):
        e, p = write_pair(tmp_path, ["United States,2005,2340000"],
                          ["France,2005,61000000"])
        with pytest.raises(EmptyJoinError) as excinfo:
            ingest_wri(e, p, 2005)
        assert excinfo.value.drops.n_dropped == 2   # one missing on each side

    def test_non_numeric_dropped_and_reported(self, tmp_path):
        e, p = write_pair(tmp_path,
                          ["USA,2005,2340000", "Narnia,2005,.."],
                          ["USA,2005,295500000", "Narnia,2005,1000"])
        records, drops = ingest_wri(e, p, 2005)
        assert len(records) == 1
        assert drops.n_dropped == 1
        assert drops.dropped[0][0] == "Narnia"

    def test_format_error_carries_line(self, tmp_path):
        e = tmp_path / "energy.csv"
        e.write_text("country,year,value\nUSA,2005\n")
        p = tmp_path / "population.csv"
        p.write_text("country,year,value\nUSA,2005,1\n")
        with pytest.raises(FormatError, match="energy.csv:2"):
            ingest_wri(e, p, 2005)

    def test_fixture_csv_round_trip(self, tmp_path):
        e, p = tmp_path / "e.csv", tmp_path / "p.csv"
        write_fixture_csvs(e, p)
        records, drops = ingest_wri(e, p, 2005, per_capita=True)
        assert len(records) == 22
        assert drops.n_dropped == 0
        by_name = {r.name: r for r in records}
        assert per_capita_kw(by_name["United States"]) == 10.4


class TestWeightedCdf:
    def test_single_country(self):
        cdf = weighted_cdf([rec("A", 2.0, 10.0)])
        assert cdf.complementary.tolist() == [1.0]

    def test_two_equal_populations(self):
        cdf = weighted_cdf([rec("A", 1.0, 5.0), rec("B", 3.0, 5.0)])
        assert cdf.values.tolist() == [1.0, 3.0]
        assert cdf.complementary.tolist() == [1.0, 0.5]

    def test_fixture_ratios_to_world_average(self):
        records = fixture_records(2005)
        by_label = {r.label: per_capita_kw(r) for r in records}
        world = WORLD_AVERAGE_KW[2005]
        assert 4.0 < by_label["USA"] / world < 5.0
        assert 0.2 < by_label["IND"] / world < 0.3

    def test_world_average_small_case(self):
        assert weighted_cdf([rec("A", 1.0, 5.0), rec("B", 3.0, 5.0)]).mean == 2.0

    def test_fixture_world_average_oracle(self):
        # independent spreadsheet-style sum over the fixture rows
        records = fixture_records(2005)
        num = sum(r.energy * r.population for r in records)
        den = sum(r.population for r in records)
        assert weighted_cdf(records).mean == pytest.approx(num / den, rel=1e-12)
        assert weighted_cdf(records).mean == pytest.approx(2.7463022473, rel=1e-9)


class TestLorenzEnergy:
    def test_equal_consumption_on_diagonal(self):
        curve = weighted_cdf([rec("A", 2.0, 5.0), rec("B", 2.0, 5.0)]).lorenz()
        assert curve.gini == pytest.approx(0.0, abs=1e-12)

    def test_concentration_limit(self):
        curve = weighted_cdf([rec("A", 1e-9, 1e9), rec("B", 1e9, 1.0)]).lorenz()
        assert curve.gini > 0.99

    def test_all_zero_energy_degenerate(self):
        with pytest.raises(DegenerateCurveError):
            weighted_cdf([rec("A", 0.0, 1.0), rec("B", 0.0, 2.0)]).lorenz()

    def test_permutation_invariance(self):
        records = fixture_records(2005)
        rng = np.random.default_rng(0)
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = weighted_cdf(records).lorenz()
        b = weighted_cdf(shuffled).lorenz()
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert weighted_cdf(records).rows() == weighted_cdf(shuffled).rows()

    def test_convexity(self):
        curve = weighted_cdf(fixture_records(1990)).lorenz()
        slopes = np.diff(curve.y) / np.diff(curve.x)
        assert np.all(np.diff(slopes) > -1e-9)

    def test_fixture_gini_trend_decreases(self):
        ginis = [weighted_cdf(fixture_records(y)).lorenz().gini for y in FIXTURE_YEARS]
        assert ginis[0] > ginis[1] > ginis[2]


class TestSlopeProfile:
    def test_constructed_kink_located(self):
        # two straight segments meeting at x = 0.7
        x = np.concatenate([np.linspace(0, 0.7, 8), np.linspace(0.7, 1.0, 4)[1:]])
        y = np.where(x <= 0.7, 0.25 * x, 0.25 * 0.7 + 2.75 * (x - 0.7))
        profile = slope_profile(LorenzCurve(x, y))
        assert profile.kink_x == pytest.approx(0.7, abs=1e-9)

    def test_diagonal_has_no_jump(self):
        curve = LorenzCurve(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        profile = slope_profile(curve)
        assert np.allclose(profile.slopes, 1.0)
        assert profile.max_jump == pytest.approx(0.0, abs=1e-12)

    def test_fixture_slopes_rise_through_the_kink(self):
        # on the 22-country fixture the largest jump sits at the small
        # high-consumption states near x = 1; the developing/developed
        # grouping statement needs the full country set (gated below)
        profile = slope_profile(weighted_cdf(fixture_records(1990)).lorenz())
        assert profile.kink_x > 0.7
        assert profile.max_jump > 0.5


@requires_wri
class TestFullWriDataset:
    """Optional checks against real WRI downloads (energy.csv and
    population.csv with country,year,value rows, energy in ktoe/yr)."""

    def _records(self, year):
        base = wri_data_dir()
        return ingest_wri(f"{base}/energy.csv", f"{base}/population.csv", year)[0]

    def test_join_count_2005(self):
        assert len(self._records(2005)) == 135

    @pytest.mark.parametrize("year,avg", [(1990, 2.2), (2000, 2.2), (2005, 2.3)])
    def test_world_averages(self, year, avg):
        assert weighted_cdf(self._records(year)).mean == pytest.approx(avg, abs=0.1)

    def test_gini_trend(self):
        ginis = [weighted_cdf(self._records(y)).lorenz().gini for y in (1990, 2000, 2005)]
        assert ginis[0] > ginis[1] > ginis[2]

    def test_kink_separates_country_groups_1990(self):
        records = self._records(1990)
        profile = slope_profile(weighted_cdf(records).lorenz())
        ordered = sorted(records, key=lambda r: (per_capita_kw(r), r.label, r.name))
        x_cum = np.cumsum([r.population for r in ordered]) / sum(
            r.population for r in ordered)
        position = {r.label: x for r, x in zip(ordered, x_cum)}
        for developing in ("MEX", "BRA", "CHN", "IND"):
            assert position[developing] <= profile.kink_x + 1e-9
        for developed in ("GBR", "FRA", "AUS", "RUS", "USA"):
            assert position[developed] > profile.kink_x - 1e-9
