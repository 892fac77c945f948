"""How randsamp reads and writes its text files, and checks its arguments.

Every file is UTF-8; a leading byte-order mark is accepted on input. A file
that cannot be opened or decoded, and a field that is not a finite number,
raise ValueError naming the file (and the line), which the CLI reports as a
usage error. So does an argument that breaks the rule of its kind (a count, a
positive real, a choice or sample times), naming the parameter and the value.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np


def check_count(name: str, value, least: int, even: bool = False) -> None:
    """Require an int or numpy integer >= least, and even if even; a bool or any float, 4.0 too, fails."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least or even and value % 2:
        raise ValueError(f"{name} must be {'an even' if even else 'an'} integer >= {least}, got {value}")


def check_positive(name: str, value) -> None:
    """Require a positive, finite int, float or numpy number; a bool, a string or NaN fails."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not real or not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_choice(what: str, value, choices: tuple) -> None:
    """Reject a name that is not one of choices; what says what it names."""
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")


def check_undersampled(m: int, n_grid: int, stacklevel: int) -> None:
    """Warn when M samples exceed the N grid points; every operand a solve
    reads, an observation matrix or the closed form's sensing tables, is
    checked here when it is made. stacklevel counts from the caller."""
    if m > n_grid:
        message = f"M={m} exceeds N={n_grid}; expected the under-sampled regime M <= N"
        warnings.warn(message, stacklevel=stacklevel + 1)


def grid_units(times, interval: float, n_grid: int) -> np.ndarray:
    """Sample times in grid units, t / T, after checking the matrix builders'
    arguments: nonempty 1-D finite times, an interval that is positive and
    finite and an integer n_grid >= 2."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    check_positive("interval", interval)
    check_count("n_grid", n_grid, 2)
    with np.errstate(over="ignore"):
        u = times / interval
    if not np.all(np.isfinite(u)):
        raise ValueError(f"times / interval must be finite; interval {interval} overflows it")
    return u


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
    """doc as strict JSON with sorted keys and a trailing newline; a numpy
    integer is written as an integer, and a NaN or infinite float raises
    ValueError instead of being written."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=int) + "\n"


def finite_field(path, line_no: int, name: str, text: str) -> float:
    """The finite number in a CSV field; name says which field, for the error."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}: line {line_no}: {name} {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line_no}: {name} {text!r} is not finite")
    return value


def read_rows(path) -> list[tuple[int, list[str]]]:
    """The fields of each non-blank line of a CSV file, with the line's
    1-based number; a field may be quoted, as spreadsheet tools write them."""
    return [(no, next(csv.reader([line]))) for no, line in read_lines(path)]


def read_column(path, column: str) -> np.ndarray:
    """The finite numbers in the named column of a CSV file with a header."""
    rows = read_rows(path)
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
