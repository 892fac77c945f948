import json
import math

import numpy as np
import pytest

from randsamp.files import csv_text, json_text, read_lines


def test_csv_cells():
    # Floats, numpy's included, as shortest round-trip decimals; integers,
    # numpy's included, as integers; None as an empty cell.
    rows = [(0, 0.1, None, "mean"), (np.int64(7), np.float64(1 / 3), math.nan, 2.0)]
    assert csv_text("a,b,c,d", rows) == "a,b,c,d\n0,0.1,,mean\n7,0.3333333333333333,nan,2.0\n"


def test_json_is_strict():
    assert json.loads(json_text({"b": 1.5, "a": None})) == {"a": None, "b": 1.5}
    with pytest.raises(ValueError):
        json_text({"error": math.nan})


def test_read_lines_numbers_non_blank_lines_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "f.cfg"
    path.write_bytes("\ufeffruns=2\r\n\n  seed = 7 \né=1\n".encode("utf-8"))
    assert read_lines(path) == [(1, "runs=2"), (3, "seed = 7"), (4, "é=1")]
