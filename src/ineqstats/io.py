"""CSV/JSON input parsing, and emission with deterministic formatting.

Floats are written with repr() of the Python float (shortest round-trip
form, '.' decimal separator), so identical data produces byte-identical
files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from .errors import FormatError

__all__ = ["format_cell", "write_csv", "write_json", "sha256_file",
           "read_text", "read_csv_rows", "load_json_object"]


def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
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


def read_csv_rows(path, n_columns: int, expected: str):
    """Yield (lineno, row) for each data row of a UTF-8 CSV file.

    The first line is a header and is skipped, as are blank rows.  A row
    with fewer than ``n_columns`` cells raises
    ``FormatError("path:line: expected <expected>")``, and bytes that are
    not UTF-8 raise FormatError too.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if lineno == 1 or not "".join(row).strip():
                    continue
                if len(row) < n_columns:
                    raise FormatError(f"{path}:{lineno}: expected {expected}")
                yield lineno, row
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc


def load_json_object(text: str, what: str) -> dict:
    """Parse JSON text that must hold an object; ``what`` names the
    document in the FormatError raised for anything else."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad {what} JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{what} JSON must be an object, "
                          f"not {type(obj).__name__}")
    return obj
