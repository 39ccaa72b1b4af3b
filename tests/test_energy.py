import csv

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import ineqstats.energy as energy_module
from conftest import (FIXTURE_YEARS, WORLD_AVERAGE_KW, WRI_FIXTURE, fixture_year,
                      requires_wri, wri_data_dir)
from ineqstats import (CountryRecord, DegenerateCurveError, DomainError,
                       EmptyJoinError, FormatError, LorenzCurve, ingest_wri,
                       per_capita_kw, slope_profile, weighted_cdf)


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

    @pytest.mark.parametrize("energy, population", [(np.nan, 1.0), (np.inf, 1.0),
                                                    (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_refused(self, energy, population):
        with pytest.raises(DomainError, match="must be finite"):
            CountryRecord("X", "XXX", 2005, energy, population)


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

    def test_non_finite_values_dropped_as_non_numeric(self, tmp_path):
        e, p = write_pair(tmp_path,
                          ["A,2005,1", "B,2005,nan", "C,2005,inf", "D,2005,4"],
                          ["A,2005,10", "B,2005,10", "C,2005,10", "D,2005,nan"])
        records, drops = ingest_wri(e, p, 2005)
        assert [r.name for r in records] == ["A"]
        assert drops.dropped == (("B", "non-numeric energy value"),
                                 ("C", "non-numeric energy value"),
                                 ("D", "non-numeric population value"))

    def test_format_error_carries_line(self, tmp_path):
        e = tmp_path / "energy.csv"
        e.write_text("country,year,value\nUSA,2005\n")
        p = tmp_path / "population.csv"
        p.write_text("country,year,value\nUSA,2005,1\n")
        with pytest.raises(FormatError, match="energy.csv:2"):
            ingest_wri(e, p, 2005)

    def test_fixture_csv_round_trip(self):
        records, drops = ingest_wri(*WRI_FIXTURE, 2005, per_capita=True)
        assert len(records) == 22
        assert drops.n_dropped == 0
        by_name = {r.name: r for r in records}
        assert per_capita_kw(by_name["United States"]) == 10.4

    def test_bad_year_in_another_years_row_raises(self, tmp_path):
        e, p = write_pair(tmp_path, ["USA,2005,2340000", "USA,19x0,1", "USA,1990,5"],
                          ["USA,2005,295500000"])
        with pytest.raises(FormatError, match=r"energy.csv:3: bad year '19x0'"):
            ingest_wri(e, p, 2005)

    def test_errors_name_the_file_line_after_a_multi_line_name(self, tmp_path):
        # record 3 starts on file line 4: the quoted name of record 2 spans two lines
        e, p = write_pair(tmp_path, ['"A\nB",2005,1', "USA,19x0,1"], ["USA,2005,1"])
        with pytest.raises(FormatError, match=r"energy\.csv:4: bad year '19x0'"):
            ingest_wri(e, p, 2005)
        e, p = write_pair(tmp_path, ['"A\nB",2005,1', "USA,2005"], ["USA,2005,1"])
        with pytest.raises(FormatError, match=r"energy\.csv:4: expected country,year,value"):
            ingest_wri(e, p, 2005)

    @pytest.mark.parametrize("rows, lines", [
        (["A,1990,5", "B,1990,1", "A,1990,7"], (4, 2)),
        (["A,1990,5", " A ,1990,7"], (3, 2)),                      # names are stripped
        (['"A\nB",1990,1', "C,1990,5", "C,1990,7"], (5, 4)),      # the CSV reader's path
    ])
    def test_second_row_of_a_country_in_the_year_refused(self, tmp_path, rows, lines):
        e, p = write_pair(tmp_path, rows, ["A,1990,10", "C,1990,10"])
        with pytest.raises(FormatError, match=rf"energy\.csv:{lines[0]}: second 1990 row "
                                              rf"for '\w' \(the first is on line {lines[1]}\)"):
            ingest_wri(e, p, 1990)

    def test_rows_of_other_years_are_not_checked_for_duplicates(self, tmp_path):
        e, p = write_pair(tmp_path, ["A,1990,5", "A,2000,6", "A,2000,7"], ["A,1990,10"])
        records, drops = ingest_wri(e, p, 1990)
        assert [(r.name, r.energy) for r in records] == [("A", 5.0)]
        assert drops.n_dropped == 0

    @pytest.mark.parametrize("year", [2 ** 63, -2 ** 63 - 1, 10 ** 9])
    def test_year_beyond_any_cell_is_an_empty_join(self, tmp_path, year):
        e, p = write_pair(tmp_path, ["A,1990,5", "B,999999999,1"], ["A,1990,10"])
        with pytest.raises(EmptyJoinError, match=f"no usable country rows for {year}"):
            ingest_wri(e, p, year)


def reference_ingest(energy_csv, population_csv, year):
    """The whole-file join that ``ingest_wri`` must match: parse every row
    of both files into (name, year) keys, then keep the requested year.
    Returns ("format", message) or ("join", [(name, energy, population)],
    dropped).  A row is named by the file line it starts on: each earlier
    row took one line plus one per line break inside its cells.  A second
    row of one country in the requested year is refused."""
    def parse(path):
        out, first = {}, {}
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
            starts = np.cumsum([1] + [1 + "".join(row).count("\n") for row in rows])
            for lineno, row in zip(starts[1:], rows[1:]):
                if not any(cell.strip() for cell in row):
                    continue
                if len(row) < 3:
                    raise FormatError(f"{path}:{lineno}: expected country,year,value")
                try:
                    row_year = int(row[1])
                except ValueError:
                    raise FormatError(f"{path}:{lineno}: bad year {row[1]!r}") from None
                try:
                    value = float(row[2])
                except ValueError:
                    value = None
                if value is not None and not np.isfinite(value):
                    value = None
                key = (row[0].strip(), row_year)
                if row_year == year and key in first:
                    raise FormatError(f"{path}:{lineno}: second {year} row for {key[0]!r} "
                                      f"(the first is on line {first[key]})")
                first[key] = lineno
                out[key] = value
        return out

    try:
        energy, population = parse(energy_csv), parse(population_csv)
    except FormatError as exc:
        return "format", str(exc)
    names = {n for n, y in energy if y == year} | {n for n, y in population if y == year}
    records, dropped = [], []
    for name in sorted(names):
        e, p = energy.get((name, year)), population.get((name, year))
        if (name, year) not in energy:
            dropped.append((name, "missing from energy file"))
        elif (name, year) not in population:
            dropped.append((name, "missing from population file"))
        elif e is None:
            dropped.append((name, "non-numeric energy value"))
        elif p is None:
            dropped.append((name, "non-numeric population value"))
        elif p <= 0:
            dropped.append((name, "non-positive population"))
        elif e < 0:
            dropped.append((name, "negative energy"))
        else:
            records.append((name, e, p))
    return "join", records, tuple(dropped)


def ingest_outcome(energy_csv, population_csv, year):
    try:
        records, drops = ingest_wri(energy_csv, population_csv, year)
    except EmptyJoinError as exc:
        return "join", [], exc.drops.dropped
    except FormatError as exc:
        return "format", str(exc)
    assert drops.joined == len(records)
    assert all(r.year == year for r in records)
    return "join", [(r.name, r.energy, r.population) for r in records], drops.dropped


YEARS = (1990, 2000, 2005)
_NAME_LIST = ["A", " A ", "B", "Korea, Rep.", "Côte d'Ivoire", "Saint\nLucia"]
_NAMES = st.sampled_from(_NAME_LIST)


def _year_cells(year):
    return st.sampled_from([str(year), f" {year} ", f"{year} "])


_YEAR_CELLS = st.sampled_from(YEARS).flatmap(_year_cells)
_VALUES = st.sampled_from(["12", "7", " 4.5 ", "1e6", "2.5e-1", "0", "-3", "n/a",
                           "", "..", " ", "x1", "nan", "inf", "-inf"])
_DATA_ROW = st.tuples(_NAMES, _YEAR_CELLS, _VALUES).map(list)
_BLANK_ROW = st.lists(st.sampled_from(["", " ", "  ", "\t"]), min_size=0, max_size=4)
# structural faults, none of them in a row of the requested year
_FAULT_ROW = st.sampled_from([["C", "1980"], ["C"], ["C", "19x0", "5"],
                              ["C", "", "5"], ["C", "1980.0", "5"]])


@st.composite
def wri_file_rows(draw):
    """Data rows of unique (stripped name, year) keys with, in 1 file of 4,
    a second row of one key, then blank rows and now and then a fault."""
    rows = draw(st.lists(_DATA_ROW, min_size=3, max_size=12,
                         unique_by=lambda row: (row[0].strip(), int(row[1]))))
    if draw(st.integers(0, 3)) == 3:   # a second row of one country and year
        name, year, _ = draw(st.sampled_from(rows))
        twin = draw(st.sampled_from([n for n in _NAME_LIST if n.strip() == name.strip()]))
        rows.insert(draw(st.integers(0, len(rows))),
                    [twin, draw(_year_cells(int(year))), draw(_VALUES)])
    for blank in draw(st.lists(_BLANK_ROW, max_size=4)):
        rows.insert(draw(st.integers(0, len(rows))), blank)
    if draw(st.integers(0, 7)) == 3:
        rows.insert(draw(st.integers(0, len(rows))), draw(_FAULT_ROW))
    return rows


class TestIngestMatchesWholeFileParse:
    @seed(20261018)
    @settings(max_examples=250, deadline=None)
    @given(energy_rows=wri_file_rows(), population_rows=wri_file_rows(),
           year=st.sampled_from(YEARS))
    def test_same_records_drops_and_errors(self, tmp_path_factory, energy_rows,
                                           population_rows, year):
        base = tmp_path_factory.mktemp("ingest")
        paths = []
        for name, rows in (("energy.csv", energy_rows), ("population.csv", population_rows)):
            path = base / name
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["country", "year", "value"])
                writer.writerows(rows)
            paths.append(path)
        assert ingest_outcome(*paths, year) == reference_ingest(*paths, year)


# Plain files, which the numpy scan reads: digit-only years, names with no
# comma, quote, CR, newline or NUL (but other Unicode line separators, which
# the CSV reader keeps inside a cell), and no blank rows.
_PLAIN_NAMES = st.sampled_from(["A", " A ", "B", "Korea Rep.", "Côte d'Ivoire",
                                "\u2028C\x85", "D\t", ""])
_PLAIN_VALUES = st.one_of(st.sampled_from(["12", "7", " 4.5 ", "1e6"]), _VALUES)
_PLAIN_YEARS = YEARS + (0, 999_999_999)
_PLAIN_YEAR_CELLS = st.one_of(*[st.just(str(y)) for y in YEARS],
                              st.sampled_from([str(y) for y in _PLAIN_YEARS]))


@st.composite
def plain_file_rows(draw):
    rows = draw(st.lists(st.tuples(_PLAIN_NAMES, _PLAIN_YEAR_CELLS, _PLAIN_VALUES),
                         min_size=3, max_size=16,
                         unique_by=lambda row: (row[0].strip(), row[1])))
    if rows and draw(st.integers(0, 3)) == 3:   # a second row of one country and year
        name, year, _ = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), (name, year, draw(_PLAIN_VALUES)))
    return rows


def write_plain(path, rows):
    path.write_text("".join(f"{name},{year},{value}\n" for name, year, value in
                            [("country", "year", "value"), *rows]), encoding="utf-8")


class TestPlainScan:
    @seed(20261019)
    @settings(max_examples=250, deadline=None)
    @given(energy_rows=plain_file_rows(), population_rows=plain_file_rows(),
           year=st.one_of(st.sampled_from(YEARS), st.sampled_from(_PLAIN_YEARS + (2 ** 70,))))
    def test_scan_matches_whole_file_parse(self, tmp_path_factory, energy_rows,
                                           population_rows, year):
        base = tmp_path_factory.mktemp("plain")
        paths = base / "energy.csv", base / "population.csv"
        for path, rows in zip(paths, (energy_rows, population_rows)):
            write_plain(path, rows)
            assert energy_module._year_rows_plain(path.read_bytes(), year) is not None
        assert ingest_outcome(*paths, year) == reference_ingest(*paths, year)

    def test_plain_file_is_read_without_the_csv_reader(self, monkeypatch):
        e, p = WRI_FIXTURE
        want = ingest_outcome(e, p, 2005)

        def refuse(path):
            raise AssertionError(f"csv reader opened {path}")

        monkeypatch.setattr(energy_module, "read_csv_rows", refuse)
        assert ingest_outcome(e, p, 2005) == want
        assert len(want[1]) == 22


_PLAIN_ENERGY = "country,year,value\nA,1990,5\nCôte d'Ivoire,1990,7\nB,2000,3\n"


@pytest.mark.parametrize("energy, plain", [
    pytest.param(_PLAIN_ENERGY.replace("A,1990", '"A",1990'), False, id="quoted-name"),
    pytest.param(_PLAIN_ENERGY.replace("\n", "\r\n"), False, id="crlf"),
    pytest.param(_PLAIN_ENERGY.replace("5\n", "5\n\n"), False, id="blank-line"),
    pytest.param(_PLAIN_ENERGY.replace("A,1990,5", "A,1990,5,x"), False, id="fourth-column"),
    pytest.param(_PLAIN_ENERGY.replace("A,1990", "A, 1990"), False, id="space-in-year"),
    pytest.param(_PLAIN_ENERGY.replace("A,1990", "A,01990"), True, id="leading-zero-year"),
    pytest.param(_PLAIN_ENERGY.replace("B,2000", "B,1234567890"), False, id="ten-digit-year"),
    pytest.param(_PLAIN_ENERGY.rstrip("\n"), False, id="no-final-newline"),
    pytest.param(_PLAIN_ENERGY.replace("B,", "B\0,"), False, id="nul-byte"),
    pytest.param(_PLAIN_ENERGY.encode().replace(b"\xc3\xb4", b"\xf4"), False, id="not-utf8"),
    pytest.param(_PLAIN_ENERGY.replace("B,", "B" * 131070 + ","), False,
                 id="over-long-line"),
    pytest.param(_PLAIN_ENERGY.replace("B,", "B" * 131073 + ","), False,
                 id="over-long-cell"),
])
def test_file_that_is_not_plain_gets_the_csv_readers_outcome(tmp_path, monkeypatch,
                                                             energy, plain):
    """Each file differs from a plain one in one way.  All but the
    leading-zero year, which is still 1-9 digits, go to the CSV reader."""
    e, p = tmp_path / "energy.csv", tmp_path / "population.csv"
    e.write_bytes(energy if isinstance(energy, bytes) else energy.encode())
    p.write_text("country,year,value\nA,1990,10\nCôte d'Ivoire,1990,20\n")
    assert (energy_module._year_rows_plain(e.read_bytes(), 1990) is not None) == plain
    outcome = ingest_outcome(e, p, 1990)
    monkeypatch.setattr(energy_module, "_year_rows_plain", lambda data, year: None)
    assert outcome == ingest_outcome(e, p, 1990)


class TestWeightedCdf:
    def test_single_country(self):
        cdf = weighted_cdf([rec("A", 2.0, 10.0)])
        assert cdf.complementary.tolist() == [1.0]

    def test_two_equal_populations(self):
        cdf = weighted_cdf([rec("A", 1.0, 5.0), rec("B", 3.0, 5.0)])
        assert cdf.values.tolist() == [1.0, 3.0]
        assert cdf.complementary.tolist() == [1.0, 0.5]

    def test_fixture_ratios_to_world_average(self):
        by_name = {r.name: per_capita_kw(r) for r in fixture_year(2005)}
        world = WORLD_AVERAGE_KW[2005]
        assert 4.0 < by_name["United States"] / world < 5.0
        assert 0.2 < by_name["India"] / world < 0.3

    def test_world_average_small_case(self):
        assert weighted_cdf([rec("A", 1.0, 5.0), rec("B", 3.0, 5.0)]).mean == 2.0

    def test_fixture_world_average_oracle(self):
        # independent spreadsheet-style sum over the fixture rows
        records = fixture_year(2005)
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
        records = fixture_year(2005)
        rng = np.random.default_rng(0)
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = weighted_cdf(records).lorenz()
        b = weighted_cdf(shuffled).lorenz()
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        for name in ("values", "complementary"):
            assert np.array_equal(getattr(weighted_cdf(records), name),
                                  getattr(weighted_cdf(shuffled), name))

    def test_convexity(self):
        curve = weighted_cdf(fixture_year(1990)).lorenz()
        slopes = np.diff(curve.y) / np.diff(curve.x)
        assert np.all(np.diff(slopes) > -1e-9)

    def test_fixture_gini_trend_decreases(self):
        ginis = [weighted_cdf(fixture_year(y)).lorenz().gini for y in FIXTURE_YEARS]
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
        profile = slope_profile(weighted_cdf(fixture_year(1990)).lorenz())
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
        position = {r.name: x for r, x in zip(ordered, x_cum)}
        for developing in ("Mexico", "Brazil", "China", "India"):
            assert position[developing] <= profile.kink_x + 1e-9
        for developed in ("United Kingdom", "France", "Australia", "Russia", "United States"):
            assert position[developed] > profile.kink_x - 1e-9
