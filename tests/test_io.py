import numpy as np
import pytest

from ineqstats import FormatError
from ineqstats.io import read_csv_rows, usable_row, write_csv


@pytest.mark.parametrize("row", [[], [""], [" ", "\t"], ["", "", "", ""]])
def test_blank_row_is_skipped(row):
    assert usable_row("t.csv", 4, row, 3, "country,year,value") is False


@pytest.mark.parametrize("row", [["A"], ["A", "2005"], ["", "2005"]])
def test_short_row_names_its_line(row):
    with pytest.raises(FormatError, match=r"^t\.csv:4: expected country,year,value$"):
        usable_row("t.csv", 4, row, 3, "country,year,value")


def test_reader_names_the_line_each_record_starts_on():
    data = b'country,year,value\n"A\nB",2005,1\n\n"C\n\nD",2005,2\nE\n'
    rows = list(read_csv_rows("t.csv", data))
    assert [line for line, _ in rows] == [2, 4, 5, 8]
    line, row = rows[-1]
    with pytest.raises(FormatError, match=r"^t\.csv:8: expected country,year,value$"):
        usable_row("t.csv", line, row, 3, "country,year,value")


@pytest.mark.parametrize("row", [["A", "x", "1"], ["", "", "1"], ["A", "2005", "1", "z"]])
def test_full_row_keeps_its_parse_error(row):
    assert usable_row("t.csv", 4, row, 3, "country,year,value") is True


def test_reader_yields_every_row_after_the_header():
    data = b"country,year,value\nA,2005,1\n\n , \nB\n"
    assert list(read_csv_rows("t.csv", data)) == [(2, ["A", "2005", "1"]), (3, []),
                                                  (4, [" ", " "]), (5, ["B"])]


def test_reader_of_an_empty_file_yields_nothing():
    assert list(read_csv_rows("t.csv", b"")) == []


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


def test_over_long_cell_names_the_line_its_record_starts_on():
    data = ('country,year,value\nA,2005,1\n"B\n' + "x" * 131072 + '",2005,2\n').encode()
    with pytest.raises(FormatError, match=r"^t\.csv:3: field larger than field limit"):
        list(read_csv_rows("t.csv", data))
    with pytest.raises(FormatError, match=r"^t\.csv:1: field larger than field limit"):
        list(read_csv_rows("t.csv", b'"' + b"x" * 131073 + b'"\nA,2005,1\n'))


def test_bytes_that_are_not_utf8_are_refused_before_any_row():
    # the bad row on line 2 comes first in the file, but the whole file is
    # decoded before any row is read
    data = b"country,year,value\nA\nB,2005,1\nC\xf4,2005,2\n"
    with pytest.raises(FormatError, match=r"^t\.csv: not UTF-8 text \(byte 0xf4\)$"):
        next(read_csv_rows("t.csv", data))
