import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ineqstats import FormatError
from ineqstats._shortest import BLOCK_ROWS, CUTOVER
from ineqstats.io import (inputs_read, read_csv_rows, read_text, recording_inputs,
                          usable_row, write_csv)


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


def reference_csv(header, columns) -> str:
    """The CSV ``write_csv`` must write, joined str() by str(), row by row."""
    cols = [col.tolist() if isinstance(col, np.ndarray) else col for col in columns]
    lines = [",".join(header)]
    for i in range(len(cols[0])):
        lines.append(",".join(str(col[i]) for col in cols))
    return "\n".join(lines) + "\n"


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2e-308, 1e16, 1e-5])
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from([-2 ** 63, 2 ** 63 - 1])
_UINT64 = st.integers(0, 2 ** 64 - 1) | st.sampled_from([2 ** 64 - 1])


@st.composite
def _columns(draw):
    """1-3 columns of a few rows, or of enough rows, over one or more
    blocks, that a table of float64 columns takes the numpy formatter:
    there each column repeats a short draw.  Half the columns are float64."""
    rows = draw(st.integers(0, 50) | st.integers(CUTOVER, 2 * BLOCK_ROWS + 1))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.just("float64") | st.sampled_from(["int64", "uint64", "list"]))
        if kind == "list":
            cells = st.one_of(_FLOATS, _INT64, st.booleans())
            drawn = draw(st.lists(cells, min_size=min(rows, 1), max_size=min(rows, 40)))
            columns.append((drawn * rows)[:rows])
        else:
            cells = {"float64": _FLOATS, "int64": _INT64, "uint64": _UINT64}[kind]
            drawn = draw(st.lists(cells, min_size=min(rows, 1), max_size=min(rows, 40)))
            columns.append(np.resize(np.array(drawn, dtype=kind), rows))
    return columns


@given(_columns())
@settings(max_examples=200, deadline=None)
def test_writer_matches_a_cell_by_cell_join(tmp_path_factory, columns):
    header = [f"c{j}%s" for j in range(len(columns))]   # a header cell is no format
    path = tmp_path_factory.getbasetemp() / "writer.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == reference_csv(header, columns).encode()


def written_floats(tmp_path, values) -> list[str]:
    """The cells that ``write_csv`` writes for the float64 ``values``, put
    in a column long enough for the numpy formatter."""
    column = np.resize(np.asarray(values, dtype=np.float64), max(len(values), CUTOVER))
    write_csv(tmp_path / "floats.csv", ("x",), (column,))
    return (tmp_path / "floats.csv").read_text().splitlines()[1:len(values) + 1]


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_float_cells_are_str_of_any_bit_pattern(tmp_path_factory, patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert written_floats(tmp_path_factory.getbasetemp(), values) == [
        str(v) for v in values.tolist()]


def test_float_cells_are_str_at_the_edges_of_each_notation(tmp_path):
    powers = [2.0 ** e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    values = np.array(powers + [2.0 ** 53 + k for k in range(-20, 21)] + [
        1e16, 9999999999999998.0, 1e-4, 1e-5, 0.0001, 0.00012, 2.2250738585072014e-308,
        5e-324, 1.7976931348623157e308, -0.0, 0.0, 123.0, 0.5, float("inf"), float("nan")])
    with np.errstate(over="ignore"):      # the largest float's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    values = np.concatenate([values, -values])
    assert written_floats(tmp_path, values) == [str(v) for v in values.tolist()]


def test_a_large_table_is_written_within_the_memory_of_one_join(tmp_path):
    # the join of str() cells peaked at 1.96 MiB on this 12 300-row table
    r = np.geomspace(1e-3, 4e3, 12300)
    columns = (r, np.exp(-r / 40) / 40)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "solution.csv", ("r", "density"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.95 * 2 ** 20
    assert (tmp_path / "solution.csv").read_bytes() == reference_csv(
        ("r", "density"), columns).encode()


def test_each_thread_records_the_inputs_it_read(tmp_path):
    paths = [tmp_path / f"{i}.json" for i in range(2)]
    for i, path in enumerate(paths):
        path.write_text(f'{{"thread": {i}}}')
    both_read = threading.Barrier(2, timeout=10)
    records = {}

    def run(path):
        with recording_inputs():
            read_text(path)
            both_read.wait()   # each thread has read before either looks at its record
            records[path] = inputs_read()

    threads = [threading.Thread(target=run, args=(path,)) for path in paths]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert records == {path: {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
                       for path in paths}
    read_text(paths[0])
    assert inputs_read() == {}   # outside a record nothing is entered


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
