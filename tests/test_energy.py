import csv
import hashlib
import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import ineqstats.energy as energy_module
from conftest import (FIXTURE_YEARS, WORLD_AVERAGE_KW, WRI_FIXTURE, fixture_year,
                      quoted_crlf, requires_wri, wri_data_dir)
from ineqstats import (CountryTable, DegenerateCurveError, DomainError,
                       EmptyJoinError, FormatError, LorenzCurve, ingest_wri,
                       slope_profile, weighted_cdf)
from ineqstats.io import inputs_read, recording_inputs


def countries(*rows, year=2005, per_capita=True):
    """A table of (name, energy, population) rows."""
    names, energy, population = zip(*rows)
    return CountryTable(names, energy, population, year, per_capita)


def kw_by_name(table):
    return dict(zip(table.names, table.per_capita_kw().tolist()))


class TestUnits:
    def test_one_toe_per_year(self):
        # 1 toe/yr over one person: 41.85e9 J / 3.15576e7 s = 1326.1 W
        table = countries(("X", 0.001, 1.0), per_capita=False)  # 0.001 ktoe
        assert table.per_capita_kw()[0] == pytest.approx(1.3261464750171115, rel=1e-12)

    def test_zero_energy(self):
        assert countries(("X", 0.0, 5.0), per_capita=False).per_capita_kw()[0] == 0.0

    def test_population_scaling(self):
        one, two = countries(("X", 3.0, 1e6), ("Y", 3.0, 2e6), per_capita=False).per_capita_kw()
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_per_capita_passthrough(self):
        assert countries(("US", 10.4, 3e8)).per_capita_kw()[0] == 10.4

    def test_bad_population(self):
        with pytest.raises(DomainError):
            countries(("X", 1.0, 0.0), per_capita=False)

    @pytest.mark.parametrize("energy, population", [(np.nan, 1.0), (np.inf, 1.0),
                                                    (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_refused(self, energy, population):
        with pytest.raises(DomainError, match="must be finite"):
            countries(("X", energy, population), per_capita=False)


class TestCountryTable:
    @pytest.mark.parametrize("energy, population, why", [
        (np.nan, 1.0, "energy and population must be finite"),
        (-np.inf, 1.0, "energy and population must be finite"),
        (1.0, np.inf, "energy and population must be finite"),
        (1.0, 0.0, "population must be positive"),
        (1.0, -5.0, "population must be positive"),
        (-1e-300, 1.0, "energy must be non-negative"),
    ])
    def test_refusal_names_the_country(self, energy, population, why):
        rows = [("Chad", 1.0, 2.0), ("Benin", energy, population), ("Angola", 3.0, 4.0)]
        with pytest.raises(DomainError, match=f"^Benin: {why}$"):
            countries(*rows)

    def test_first_bad_country_in_name_order_is_named(self):
        rows = [("Chad", -1.0, 2.0), ("Benin", 1.0, 0.0), ("Angola", 3.0, 4.0)]
        with pytest.raises(DomainError, match="^Benin: population must be positive$"):
            countries(*rows)

    def test_rows_sorted_by_name(self):
        table = countries(("C", 3.0, 30.0), ("A", 1.0, 10.0), ("B", 2.0, 20.0))
        assert table.names == ("A", "B", "C")
        assert table.energy.tolist() == [1.0, 2.0, 3.0]
        assert table.population.tolist() == [10.0, 20.0, 30.0]
        assert len(table) == 3

    def test_name_given_twice_refused(self):
        with pytest.raises(DomainError, match="^A: country given twice$"):
            countries(("B", 1.0, 1.0), ("A", 1.0, 1.0), ("A", 2.0, 1.0))

    def test_columns_must_match_the_names(self):
        with pytest.raises(DomainError, match="for each of 2 countries"):
            CountryTable(("A", "B"), [1.0], [1.0, 2.0], 2005)

    @pytest.mark.parametrize("year", ["x", "2005", 2005.5, True, None])
    def test_year_must_be_a_whole_number(self, year):
        with pytest.raises(FormatError, match="^year must be a whole number"):
            CountryTable(("A",), [1.0], [1.0], year)

    def test_integral_float_year_is_an_int(self):
        year = CountryTable(("A",), [1.0], [1.0], 2005.0).year
        assert year == 2005 and type(year) is int

    def test_columns_are_read_only(self):
        energy = np.array([1.0, 2.0])
        table = CountryTable(("A", "B"), energy, [1.0, 2.0], 2005)
        energy[0] = 9.0   # the table holds its own copy
        assert table.energy.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            table.population[0] = 0.0

    @pytest.mark.parametrize("rows", [
        [("United States", 5.0, 300.0), ("United Kingdom", 5.0, 60.0), ("India", 0.5, 1e3)],
        [("United Kingdom", 5.0, 60.0), ("India", 0.5, 1e3), ("United States", 5.0, 300.0)],
        [("India", 0.5, 1e3), ("United States", 5.0, 300.0), ("United Kingdom", 5.0, 60.0)],
    ])
    def test_equal_consumption_ties_break_by_name(self, rows):
        # both names once had the label "UNI"; the name alone orders them
        cdf = weighted_cdf(countries(*rows))
        assert cdf.values.tolist() == [0.5, 5.0, 5.0]
        assert cdf.weights.tolist() == [1e3, 60.0, 300.0]


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
        table, drops = ingest_wri(e, p, 2005)
        assert table.names == ("United States",)
        assert (table.year, table.per_capita) == (2005, False)
        assert drops.n_dropped == 0

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
        table, drops = ingest_wri(e, p, 2005)
        assert len(table) == 1
        assert drops.n_dropped == 1
        assert drops.dropped[0][0] == "Narnia"

    def test_non_finite_values_dropped_as_non_numeric(self, tmp_path):
        e, p = write_pair(tmp_path,
                          ["A,2005,1", "B,2005,nan", "C,2005,inf", "D,2005,4"],
                          ["A,2005,10", "B,2005,10", "C,2005,10", "D,2005,nan"])
        table, drops = ingest_wri(e, p, 2005)
        assert table.names == ("A",)
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
        table, drops = ingest_wri(*WRI_FIXTURE, 2005, per_capita=True)
        assert len(table) == 22
        assert drops.n_dropped == 0
        assert kw_by_name(table)["United States"] == 10.4

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
        table, drops = ingest_wri(e, p, 1990)
        assert (table.names, table.energy.tolist()) == (("A",), [5.0])
        assert drops.n_dropped == 0

    @pytest.mark.parametrize("year", ["2005", 2005.5, True])
    def test_year_that_is_not_a_whole_number_refused_before_any_open(self, tmp_path, opens,
                                                                     year):
        e, p = write_pair(tmp_path, ["A,2005,5"], ["A,2005,10"])
        opens.clear()
        with pytest.raises(FormatError, match=f"^year must be a whole number; got {year!r}$"):
            ingest_wri(e, p, year)
        assert not opens

    def test_integral_float_year_is_an_int(self, tmp_path):
        e, p = write_pair(tmp_path, ["A,2005,5"], ["A,2005,10"])
        table, _ = ingest_wri(e, p, 2005.0)
        assert table.year == 2005 and type(table.year) is int

    @pytest.mark.parametrize("year", [2 ** 63, -2 ** 63 - 1, 10 ** 9, 2 ** 70])
    def test_year_beyond_any_cell_is_an_empty_join(self, tmp_path, year):
        e, p = write_pair(tmp_path, ["A,1990,5", "B,999999999,1"], ["A,1990,10"])
        with pytest.raises(EmptyJoinError, match=f"no usable country rows for {year}"):
            ingest_wri(e, p, year)


@pytest.mark.parametrize("population, error", [
    pytest.param(b"A,1990,10\n", None, id="plain"),
    pytest.param(b'"A","1990","10"\r\n', None, id="quoted"),
    pytest.param(b"A,19x0,10\n", r":3: bad year '19x0'", id="bad-year"),
    pytest.param(b"A,1990,10\nA,1990,11\n", r":4: second 1990 row", id="second-row"),
    pytest.param(b'"A",1990,10\n"A",1990,11\n', r":4: second 1990 row",
                 id="second-row-quoted"),
    pytest.param(b"A,1990\n", r":3: expected country,year,value", id="short-row"),
    pytest.param(b"A,1990," + b"9" * 131073 + b"\n", r":3: field larger than field limit",
                 id="over-long-cell"),
    pytest.param(b"A\xf4,1990,10\n", r": not UTF-8 text \(byte 0xf4\)", id="not-utf8"),
])
def test_ingest_opens_each_file_once(tmp_path, opens, population, error):
    # energy is read first, so a fault in population comes after both opens
    e, p = tmp_path / "energy.csv", tmp_path / "population.csv"
    e.write_bytes(quoted_crlf(WRI_FIXTURE[0]) + b'"A","1990","5"\r\n')
    p.write_bytes(b"country,year,value\nB,2000,1\n" + population)
    opens.clear()
    if error is None:
        table, _ = ingest_wri(e, p, 1990)
        assert table.names == ("A",)
    else:
        with pytest.raises(FormatError, match=f"^{re.escape(str(p))}{error}"):
            ingest_wri(e, p, 1990)
    assert opens == {str(e): 1, str(p): 1}


class TestKeptYearTable:
    """The tables of the latest two files read without error are kept,
    keyed on their exact bytes, so later years of one pair parse neither
    file again."""

    @staticmethod
    def _count_parses(monkeypatch):
        parses = []
        year_table = energy_module._year_table

        def counting(path, data):
            parses.append(path)
            return year_table(path, data)

        monkeypatch.setattr(energy_module, "_year_table", counting)
        return parses

    def test_all_years_of_a_pair_parse_each_file_once(self, tmp_path, monkeypatch):
        quoted = tmp_path / "energy.csv", tmp_path / "population.csv"
        for path, source in zip(quoted, WRI_FIXTURE):
            path.write_bytes(quoted_crlf(source))
        years = FIXTURE_YEARS + (1980,)
        parses = self._count_parses(monkeypatch)
        for pair in (WRI_FIXTURE, quoted):
            want = [reference_ingest(*pair, year) for year in years]
            for _ in range(2):
                assert [ingest_outcome(*pair, year) for year in years] == want
        assert parses == [*WRI_FIXTURE, *quoted]

    def test_file_rewritten_in_place_gives_its_new_rows(self, tmp_path):
        # same length, same mtime: only the bytes tell the two apart
        e, p = tmp_path / "energy.csv", tmp_path / "population.csv"
        e.write_text("country,year,value\nA,1990,5\nB,1990,6\n")
        p.write_text("country,year,value\nA,1990,10\nB,1990,20\n")
        assert kw_by_name(ingest_wri(e, p, 1990, per_capita=True)[0]) == {"A": 5.0, "B": 6.0}
        stat = e.stat()
        e.write_text("country,year,value\nA,1990,7\nB,2000,6\n")
        os.utime(e, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert e.stat().st_size == stat.st_size and e.stat().st_mtime_ns == stat.st_mtime_ns
        table, drops = ingest_wri(e, p, 1990, per_capita=True)
        assert kw_by_name(table) == {"A": 7.0}
        assert drops.dropped == (("B", "missing from energy file"),)

    @pytest.mark.parametrize("rows, error", [
        pytest.param("A,1990,5\nA,19x0,6\n", r":3: bad year '19x0'", id="bad-year"),
        pytest.param("A,1990,5\nA,1990,6\n", r":3: second 1990 row", id="second-row"),
        # the year's rows before a bad row are checked first
        pytest.param("A,1990,5\nA,1990,6\nA,19x0,7\n", r":3: second 1990 row",
                     id="second-row-then-bad-year"),
    ])
    def test_file_with_a_bad_row_is_never_kept(self, tmp_path, monkeypatch, rows, error):
        # the same bytes at two paths: each read parses its file, and its error names its path
        paths = [tmp_path / "one.csv", tmp_path / "two.csv"]
        for path in paths:
            path.write_text("country,year,value\n" + rows)
        parses = self._count_parses(monkeypatch)
        for path in paths * 2:
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}{error}"):
                ingest_wri(path, WRI_FIXTURE[1], 1990)
        assert parses == paths * 2
        assert energy_module._year_tables == ()

    def test_at_most_two_entries_and_none_above_the_budget(self, tmp_path, monkeypatch):
        paths = []
        for k in range(3):
            path = tmp_path / f"file{k}.csv"
            path.write_text("country,year,value\n" +
                            "".join(f"A{i},1990,{k}\n" for i in range(1 + 100 * k)))
            paths.append(path)
        files = [path.read_bytes() for path in paths]

        def kept():
            return [data for data, _, _ in energy_module._year_tables]

        for path in paths:
            energy_module._read_country_year_csv(path, 1990)
        assert kept() == files[:0:-1]
        # a hit moves its entry to the front, so the other is dropped first
        energy_module._read_country_year_csv(paths[1], 1990)
        energy_module._read_country_year_csv(paths[0], 1990)
        assert kept() == [files[0], files[1]]

        def size(entry):   # the file, and 24 bytes a row: line, name reference and value
            data, table, _ = entry
            return len(data) + 24 * sum(len(names) for _, names, _ in table.values())

        budget = size(energy_module._year_tables[1])
        assert size(energy_module._year_tables[0]) < budget
        monkeypatch.setattr(energy_module, "_TABLE_BUDGET", budget)
        monkeypatch.setattr(energy_module, "_year_tables", ())
        for path, data in zip(paths, files):
            assert len(energy_module._read_country_year_csv(path, 1990)) == data.count(b"\n") - 1
        assert kept() == files[1::-1]
        assert all(size(entry) <= budget for entry in energy_module._year_tables)
        assert_digests_are_of_the_kept_bytes()

    def test_threads_sharing_the_memo_get_their_own_rows(self, tmp_path):
        # a race can drop an entry, never pair one file's bytes with another's table
        e, p = WRI_FIXTURE
        scaled = tmp_path / "scaled.csv"
        scaled.write_text(e.read_text().replace(".", "1."))
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(quoted_crlf(e))
        pairs = [(e, p), (scaled, p), (quoted, p), (scaled, e)]
        want = {pair: [ingest_outcome(*pair, year) for year in FIXTURE_YEARS] for pair in pairs}
        failures = []

        def read(pair):
            for _ in range(20):
                got = [ingest_outcome(*pair, year) for year in FIXTURE_YEARS]
                if got != want[pair]:
                    failures.append(pair)

        threads = [threading.Thread(target=read, args=(pair,), daemon=True) for pair in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(energy_module._year_tables) <= 2
        for kept, table, _ in energy_module._year_tables:
            assert (table, None) == energy_module._year_table("kept", kept)
        assert_digests_are_of_the_kept_bytes()

    def test_reading_every_year_twice_hashes_each_file_once(self, monkeypatch):
        hashed = []
        sha256 = hashlib.sha256

        def counting(data=b"", **kwargs):
            hashed.append(bytes(data))
            return sha256(data, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counting)
        files = [path.read_bytes() for path in WRI_FIXTURE]
        with recording_inputs():
            for _ in range(2):
                for year in FIXTURE_YEARS:
                    ingest_wri(*WRI_FIXTURE, year, per_capita=True)
            recorded = inputs_read()
        assert hashed == files
        assert recorded == {str(path): sha256(data).hexdigest()
                            for path, data in zip(WRI_FIXTURE, files)}
        assert_digests_are_of_the_kept_bytes()


def assert_digests_are_of_the_kept_bytes():
    assert all(digest == hashlib.sha256(data).hexdigest()
               for data, _, digest in energy_module._year_tables)


def reference_ingest(energy_csv, population_csv, year):
    """The whole-file join that ``ingest_wri`` must match: parse every row
    of both files into (name, year) keys, then keep the requested year.
    Returns ("format", message) or ("join", [(name, energy, population)],
    dropped).  A row is named by the file line it starts on: each earlier
    row took one line plus one per line break inside its cells.  A second
    row of one country in the requested year is refused.  Bytes that are
    not UTF-8 and a record the CSV reader refuses are FormatErrors too,
    the latter after the rows before it."""
    def parse(path):
        out, first = {}, {}
        rows, refused = [], None
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                rows.extend(csv.reader(fh))   # keeps the rows before a refused record
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: not UTF-8 text "
                                  f"(byte 0x{exc.object[exc.start]:02x})") from None
            except csv.Error as exc:
                refused = exc
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
        if refused is not None:
            raise FormatError(f"{path}:{starts[-1]}: {refused}")
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
        table, drops = ingest_wri(energy_csv, population_csv, year)
    except EmptyJoinError as exc:
        return "join", [], exc.drops.dropped
    except FormatError as exc:
        return "format", str(exc)
    assert drops.joined == len(table)
    assert table.year == year
    rows = zip(table.names, table.energy.tolist(), table.population.tolist())
    return "join", list(rows), drops.dropped


YEARS = (1990, 2000, 2005)
# besides a quoted line break: Unicode line separators, which the CSV reader keeps
# inside a cell, a tab that strips away, and an empty name
_NAME_LIST = ["A", " A ", "B", "Korea, Rep.", "Côte d'Ivoire", "Saint\nLucia",
              "\u2028C\x85", "D\t", ""]
_NAMES = st.sampled_from(_NAME_LIST)


def _year_cells(year):
    return st.sampled_from([str(year), f" {year} ", f"{year} "])


# now and then a year that no ingest here requests: 0, or the largest of nine digits
_YEAR_CELLS = st.one_of(*map(st.just, YEARS),
                        st.sampled_from(YEARS + (0, 999_999_999))).flatmap(_year_cells)
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
           years=st.lists(st.sampled_from(YEARS), min_size=2, max_size=4))
    def test_same_records_drops_and_errors(self, tmp_path_factory, energy_rows,
                                           population_rows, years):
        """Each pair is read for several years in a row, so a file's later
        years come from its kept table."""
        base = tmp_path_factory.mktemp("ingest")
        paths = []
        for name, rows in (("energy.csv", energy_rows), ("population.csv", population_rows)):
            path = base / name
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["country", "year", "value"])
                writer.writerows(rows)
            paths.append(path)
        for year in years:
            assert ingest_outcome(*paths, year) == reference_ingest(*paths, year)


_REGULAR_ENERGY = "country,year,value\nA,1990,5\nCôte d'Ivoire,1990,7\nB,2000,3\n"


@pytest.mark.parametrize("energy", [
    pytest.param(_REGULAR_ENERGY.replace("A,1990", '"A",1990'), id="quoted-name"),
    pytest.param(_REGULAR_ENERGY.replace("\n", "\r\n"), id="crlf"),
    pytest.param(_REGULAR_ENERGY.replace("5\n", "5\n\n"), id="blank-line"),
    pytest.param(_REGULAR_ENERGY.replace("A,1990,5", "A,1990,5,x"), id="fourth-column"),
    pytest.param(_REGULAR_ENERGY.replace("A,1990", "A, 1990"), id="space-in-year"),
    pytest.param(_REGULAR_ENERGY.replace("A,1990", "A,01990"), id="leading-zero-year"),
    pytest.param(_REGULAR_ENERGY.replace("B,2000", "B,1234567890"), id="ten-digit-year"),
    pytest.param(_REGULAR_ENERGY.rstrip("\n"), id="no-final-newline"),
    pytest.param(_REGULAR_ENERGY.replace("B,", "B\0,"), id="nul-byte"),
    pytest.param(_REGULAR_ENERGY.encode().replace(b"\xc3\xb4", b"\xf4"), id="not-utf8"),
    pytest.param(_REGULAR_ENERGY.replace("B,", "B" * 131070 + ","), id="over-long-line"),
    pytest.param(_REGULAR_ENERGY.replace("B,", "B" * 131073 + ","), id="over-long-cell"),
])
def test_file_that_is_not_plain_gets_the_csv_readers_outcome(tmp_path, energy):
    """Each irregular file gives ``reference_ingest``'s outcome, the CSV
    reader's parse of the whole file: each differs in one way from a file
    of one unquoted, LF-ended record per line."""
    e, p = tmp_path / "energy.csv", tmp_path / "population.csv"
    e.write_bytes(energy if isinstance(energy, bytes) else energy.encode())
    p.write_text("country,year,value\nA,1990,10\nCôte d'Ivoire,1990,20\n")
    assert ingest_outcome(e, p, 1990) == reference_ingest(e, p, 1990)


class TestWeightedCdf:
    def test_single_country(self):
        cdf = weighted_cdf(countries(("A", 2.0, 10.0)))
        assert cdf.complementary.tolist() == [1.0]

    def test_two_equal_populations(self):
        cdf = weighted_cdf(countries(("A", 1.0, 5.0), ("B", 3.0, 5.0)))
        assert cdf.values.tolist() == [1.0, 3.0]
        assert cdf.complementary.tolist() == [1.0, 0.5]

    def test_fixture_ratios_to_world_average(self):
        by_name = kw_by_name(fixture_year(2005))
        world = WORLD_AVERAGE_KW[2005]
        assert 4.0 < by_name["United States"] / world < 5.0
        assert 0.2 < by_name["India"] / world < 0.3

    def test_world_average_small_case(self):
        assert weighted_cdf(countries(("A", 1.0, 5.0), ("B", 3.0, 5.0))).mean == 2.0

    def test_fixture_world_average_oracle(self):
        # independent spreadsheet-style sum over the fixture rows
        table = fixture_year(2005)
        rows = list(zip(table.energy.tolist(), table.population.tolist()))
        num = sum(e * p for e, p in rows)
        den = sum(p for _, p in rows)
        assert weighted_cdf(table).mean == pytest.approx(num / den, rel=1e-12)
        assert weighted_cdf(table).mean == pytest.approx(2.7463022473, rel=1e-9)


class TestLorenzEnergy:
    def test_equal_consumption_on_diagonal(self):
        curve = weighted_cdf(countries(("A", 2.0, 5.0), ("B", 2.0, 5.0))).lorenz()
        assert curve.gini == pytest.approx(0.0, abs=1e-12)

    def test_concentration_limit(self):
        curve = weighted_cdf(countries(("A", 1e-9, 1e9), ("B", 1e9, 1.0))).lorenz()
        assert curve.gini > 0.99

    def test_all_zero_energy_degenerate(self):
        with pytest.raises(DegenerateCurveError):
            weighted_cdf(countries(("A", 0.0, 1.0), ("B", 0.0, 2.0))).lorenz()

    def test_permutation_invariance(self):
        table = fixture_year(2005)
        rows = list(zip(table.names, table.energy, table.population))
        np.random.default_rng(0).shuffle(rows)
        shuffled = countries(*rows)
        a = weighted_cdf(table).lorenz()
        b = weighted_cdf(shuffled).lorenz()
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        for name in ("values", "complementary"):
            assert np.array_equal(getattr(weighted_cdf(table), name),
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

    def _table(self, year):
        base = wri_data_dir()
        return ingest_wri(f"{base}/energy.csv", f"{base}/population.csv", year)[0]

    def test_join_count_2005(self):
        assert len(self._table(2005)) == 135

    @pytest.mark.parametrize("year,avg", [(1990, 2.2), (2000, 2.2), (2005, 2.3)])
    def test_world_averages(self, year, avg):
        assert weighted_cdf(self._table(year)).mean == pytest.approx(avg, abs=0.1)

    def test_gini_trend(self):
        ginis = [weighted_cdf(self._table(y)).lorenz().gini for y in (1990, 2000, 2005)]
        assert ginis[0] > ginis[1] > ginis[2]

    def test_kink_separates_country_groups_1990(self):
        table = self._table(1990)
        profile = slope_profile(weighted_cdf(table).lorenz())
        order = np.argsort(table.per_capita_kw(), kind="stable")
        x_cum = np.cumsum(table.population[order]) / table.population.sum()
        position = {table.names[i]: x for i, x in zip(order.tolist(), x_cum)}
        for developing in ("Mexico", "Brazil", "China", "India"):
            assert position[developing] <= profile.kink_x + 1e-9
        for developed in ("United Kingdom", "France", "Australia", "Russia", "United States"):
            assert position[developed] > profile.kink_x - 1e-9
