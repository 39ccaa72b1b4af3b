import pytest

from ineqstats import FormatError
from ineqstats.io import read_csv_rows, usable_row


@pytest.mark.parametrize("row", [[], [""], [" ", "\t"], ["", "", "", ""]])
def test_blank_row_is_skipped(row):
    assert usable_row("t.csv", 4, row, 3, "country,year,value") is False


@pytest.mark.parametrize("row", [["A"], ["A", "2005"], ["", "2005"]])
def test_short_row_names_its_line(row):
    with pytest.raises(FormatError, match=r"^t\.csv:4: expected country,year,value$"):
        usable_row("t.csv", 4, row, 3, "country,year,value")


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
