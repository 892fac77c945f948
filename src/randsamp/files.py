"""How randsamp reads and writes its text files.

Every file is UTF-8; a leading byte-order mark is accepted on input. A file
that cannot be opened or decoded, and a field that is not a finite number,
raise ValueError naming the file (and the line), which the CLI reports as a
usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np


def read_lines(path) -> list[tuple[int, str]]:
    """The non-blank lines of a file, stripped, with their 1-based numbers."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return [(no, line.strip()) for no, line in enumerate(text.split("\n"), 1) if line.strip()]


def write(text: str, path=None) -> None:
    """Write text to path as UTF-8, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _cell(value) -> str:
    """A CSV field: a float as its shortest round-trip decimal ('nan' marks a
    failed run), None as empty, anything else as str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def csv_text(header: str, rows) -> str:
    """A CSV document: the header line, then one line per row of cells."""
    lines = [header]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    """doc as strict JSON with sorted keys and a trailing newline; a NaN or
    infinite float raises ValueError instead of being written."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def finite_field(path, line_no: int, name: str, text: str) -> float:
    """The finite number in a CSV field; name says which field, for the error."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}: line {line_no}: {name} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line_no}: {name} {text!r} is not finite")
    return value


def read_column(path, column: str) -> np.ndarray:
    """The finite numbers in the named column of a CSV file with a header;
    a field may be quoted, as spreadsheet tools write them."""
    rows = [(no, next(csv.reader([line]))) for no, line in read_lines(path)]
    if not rows:
        raise ValueError(f"{path}: empty file, expected a header with a {column!r} column")
    header = rows[0][1]
    if column not in header:
        raise ValueError(f"{path}: no {column!r} column in header {header}")
    idx = header.index(column)
    values = []
    for no, fields in rows[1:]:
        if len(fields) <= idx:
            raise ValueError(f"{path}: line {no} has no {column!r} field")
        values.append(finite_field(path, no, f"{column!r} field", fields[idx]))
    return np.array(values)
