"""CSV/JSON input parsing, and emission with deterministic formatting.

CSV files are written by column: each cell is str() of a Python value,
so a float is its shortest round-trip repr ('.' decimal separator), and
identical data produces byte-identical files.

Each input is opened once.  Its reader enters the SHA-256 of the bytes
it read in the record of the running CLI command, which
``recording_inputs`` opens for one ``with`` block in one thread or task;
outside such a block nothing is recorded.  A manifest takes its digests
from that record, so they are those of the bytes the run used, a pipe's
included, never of what the path holds once the outputs are written.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import json
from contextvars import ContextVar
from io import StringIO
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError

__all__ = ["write_csv", "write_json", "sha256_file", "recording_inputs",
           "inputs_read", "record_input", "read_input", "read_text", "read_csv_rows",
           "usable_row", "json_object", "build_config", "whole_number", "whole_numbers"]


def write_csv(path, header, columns) -> None:
    """Write equal-length numpy arrays or lists as the columns of a CSV
    file, formatted in one ``%`` operation under the header (its ``%``
    doubled): each cell is ``%s``, that is str(), of a Python value (an
    array's ``tolist()``, so numpy numbers print as Python's).  Ragged
    columns raise ValueError before the file is created; no rows give the
    header alone."""
    cols = [col.tolist() if isinstance(col, np.ndarray) else list(col) for col in columns]
    rows = len(cols[0]) if cols else 0
    if any(len(col) != rows for col in cols):
        raise ValueError(f"columns of unequal length: {[len(col) for col in cols]}")
    cells = [None] * (rows * len(cols))
    for j, col in enumerate(cols):
        cells[j::len(cols)] = col
    row = ",".join(["%s"] * len(cols)) + "\n"
    form = ",".join(header).replace("%", "%%") + "\n" + row * rows
    Path(path).write_text(form % tuple(cells), encoding="utf-8")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def sha256_file(path) -> str:
    """SHA-256 of the file at ``path`` as it is now: what a manifest's
    digest of an input that is a regular file should equal while the file
    is unchanged."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _not_utf8(path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})")


_inputs: ContextVar[dict[str, str] | None] = ContextVar("ineqstats_inputs", default=None)


@contextlib.contextmanager
def recording_inputs():
    """Open a record of the inputs read for the ``with`` block, in this
    thread or task only; ``inputs_read`` returns it."""
    token = _inputs.set({})
    try:
        yield
    finally:
        _inputs.reset(token)


def inputs_read() -> dict[str, str]:
    """SHA-256 of the bytes read from each input path in the open record;
    empty outside ``recording_inputs``."""
    return dict(_inputs.get() or {})


def record_input(path, data: bytes, digest: str | None = None) -> None:
    """Enter the SHA-256 of ``data``, the bytes read from input ``path``,
    in the open record; ``digest``, when the caller holds it already,
    spares the hashing.  Outside ``recording_inputs`` this does nothing."""
    record = _inputs.get()
    if record is not None:
        record[str(path)] = digest or hashlib.sha256(data).hexdigest()


def read_input(path) -> bytes:
    """The bytes of the input file ``path``, read in one open and recorded."""
    with open(path, "rb") as fh:
        data = fh.read()
    record_input(path, data)
    return data


def read_text(path) -> str:
    """Contents of a UTF-8 text input, read by ``read_input``; other bytes
    raise FormatError."""
    data = read_input(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def read_csv_rows(path, data: bytes):
    """Yield (line, row) for every record of the CSV file ``path`` after
    its header, blank and short rows included, parsed from ``data``, the
    file's bytes as its caller read them once; ``line`` is the file line
    the record starts on (the header's is 1), which differs from the
    record's place after a quoted cell that spans lines.  A caller hands a
    row that fails to parse to ``usable_row``.  Bytes that are not UTF-8
    raise FormatError before any row is yielded, and so does a record the
    CSV reader refuses (a cell longer than ``csv.field_size_limit()``),
    named by its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    reader = csv.reader(StringIO(text, newline=""))
    line = 1
    try:
        next(reader, None)
        line = reader.line_num + 1
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise FormatError(f"{path}:{line}: {exc}") from exc


def usable_row(path, line: int, row: list[str], n_columns: int, expected: str) -> bool:
    """Whether a row that failed to parse is an error: False for a blank
    row, which the caller skips; ``FormatError("path:line: expected
    <expected>")`` for a row of fewer than ``n_columns`` cells, where
    ``line`` is the file line the row starts on; else True."""
    if not "".join(row).strip():
        return False
    if len(row) < n_columns:
        raise FormatError(f"{path}:{line}: expected {expected}")
    return True


def json_object(text: str, what: str) -> dict:
    """The JSON object in ``text``; anything else raises FormatError naming ``what``."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:   # bad syntax, too many digits, too deep
        raise FormatError(f"bad {what} JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{what} JSON must be an object, not {type(obj).__name__}")
    return obj


def build_config(cls, values: dict, what: str):
    """``cls(**values)``; ``cls`` checks the values, and a missing or
    unknown key raises DomainError naming the key and ``what``."""
    try:
        inspect.signature(cls).bind(**values)
    except TypeError as exc:
        raise DomainError(f"{what}: {exc}") from exc
    return cls(**values)


def whole_number(value, what: str) -> int:
    """``value`` as an int: integers and integral floats such as 1e3
    pass; bool, str, fractions, inf, NaN and anything else raise
    FormatError naming ``what``."""
    if isinstance(value, Real) and not isinstance(value, bool) and value % 1 == 0:
        return int(value)
    raise FormatError(f"{what} must be a whole number; got {value!r}")


def whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array, the array form of ``whole_number``:
    integers that int64 holds pass (an int64 array without a copy), and so
    do integral floats within int64; bools, fractions, inf, NaN and
    anything else raise FormatError naming ``what``."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        ints = arr.astype(np.int64, copy=False)
        if np.can_cast(arr.dtype, np.int64) or np.all(ints >= 0):   # uint64 past int64 wraps
            return ints
    if arr.dtype.kind == "f" and np.all(
            (np.floor(arr) == arr) & (-2.0 ** 63 <= arr) & (arr < 2.0 ** 63)):
        return arr.astype(np.int64)
    raise FormatError(f"{what} must be whole numbers that fit 64-bit integers")
