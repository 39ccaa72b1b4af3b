import numpy as np
import pytest

from ineqstats import FormatError
from ineqstats.io import read_csv_rows, record_line, usable_row, write_csv


@pytest.mark.parametrize("row", [[], [""], [" ", "\t"], ["", "", "", ""]])
def test_blank_row_is_skipped(row):
    assert usable_row("t.csv", 4, row, 3, "country,year,value") is False


@pytest.mark.parametrize("row", [["A"], ["A", "2005"], ["", "2005"]])
def test_short_row_names_its_line(row, tmp_path, monkeypatch):
    # the line is looked up in the file, where record 4 starts on line 4
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text("country,year,value\nA,2005,1\nB,2005,2\nC\n")
    with pytest.raises(FormatError, match=r"^t\.csv:4: expected country,year,value$"):
        usable_row("t.csv", 4, row, 3, "country,year,value")


def test_record_line_counts_the_lines_of_quoted_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('country,year,value\n"A\nB",2005,1\n\n"C\n\nD",2005,2\nE\n')
    records = [record for record, _ in read_csv_rows(path)]
    assert records == [2, 3, 4, 5]
    assert [record_line(path, record) for record in records] == [2, 4, 5, 8]
    with pytest.raises(FormatError, match=r"t\.csv:8: expected country,year,value$"):
        usable_row(path, 5, ["E"], 3, "country,year,value")


@pytest.mark.parametrize("row", [["A", "x", "1"], ["", "", "1"], ["A", "2005", "1", "z"]])
def test_full_row_keeps_its_parse_error(row):
    assert usable_row("t.csv", 4, row, 3, "country,year,value") is True


def test_reader_yields_every_row_after_the_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("country,year,value\nA,2005,1\n\n , \nB\n")
    assert list(read_csv_rows(path)) == [(2, ["A", "2005", "1"]), (3, []),
                                         (4, [" ", " "]), (5, ["B"])]


def test_reader_of_an_empty_file_yields_nothing(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    assert list(read_csv_rows(path)) == []


def test_numpy_scalars_are_written_as_python_numbers(tmp_path):
    columns = ([0.1, 2.5e17], [3, -7], [1e-300, 1.0])
    write_csv(tmp_path / "python.csv", ("x", "n", "y"), columns)
    x, n, y = columns
    write_csv(tmp_path / "numpy.csv", ("x", "n", "y"),
              (np.array(x, dtype=np.float64), np.array(n, dtype=np.int64),
               np.array(y, dtype=np.float64)))
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    assert (tmp_path / "python.csv").read_text() == "x,n,y\n0.1,3,1e-300\n2.5e+17,-7,1.0\n"


def test_ragged_columns_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ("x", "y"), (np.arange(3), np.arange(2)))
    assert not (tmp_path / "t.csv").exists()


def test_over_long_cell_names_the_line_its_record_starts_on(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('country,year,value\nA,2005,1\n"B\n' + "x" * 131072 + '",2005,2\n')
    with pytest.raises(FormatError, match=r"t\.csv:3: field larger than field limit"):
        list(read_csv_rows(path))
