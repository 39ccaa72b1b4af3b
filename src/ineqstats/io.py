"""CSV/JSON input parsing, and emission with deterministic formatting.

Floats are written with repr() of the Python float (shortest round-trip
form, '.' decimal separator), so identical data produces byte-identical
files.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError

__all__ = ["format_cell", "write_csv", "write_json", "sha256_file", "read_text",
           "read_csv_rows", "record_line", "usable_row", "json_object", "build_config",
           "whole_number", "whole_numbers"]


def format_cell(value) -> str:
    if isinstance(value, float):   # np.float64 too, whose repr names its type
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _not_utf8(path, exc: UnicodeDecodeError) -> FormatError:
    return FormatError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})")


def read_text(path) -> str:
    """Contents of a UTF-8 text file; other bytes raise FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def read_csv_rows(path):
    """Yield (record, row) for every row of a UTF-8 CSV file after its
    header, blank and short rows included, numbering records from 2 (the
    header is record 1); a caller hands a row that fails to parse to
    ``usable_row`` and names it in an error by ``record_line``.  Bytes
    that are not UTF-8 raise FormatError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            next(reader, None)
            yield from enumerate(reader, start=2)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def record_line(path, record: int) -> int:
    """The file line on which CSV record ``record`` of ``path`` starts,
    numbered as ``read_csv_rows`` numbers records.  The two differ after
    a quoted cell that spans lines, so the file is read again up to the
    record; only an error message pays for that."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in range(record - 1):
            next(reader)
        return reader.line_num + 1


def usable_row(path, record: int, row: list[str], n_columns: int, expected: str) -> bool:
    """Whether a row that failed to parse is an error: False for a blank
    row, which the caller skips; ``FormatError("path:line: expected
    <expected>")`` for a row of fewer than ``n_columns`` cells, naming the
    file line the record starts on; else True."""
    if not "".join(row).strip():
        return False
    if len(row) < n_columns:
        raise FormatError(f"{path}:{record_line(path, record)}: expected {expected}")
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
