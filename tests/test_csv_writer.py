"""CSV writer: byte-for-byte against a per-cell reference formatter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmarray.experiments import write_csv


def _reference_cell(value, precision):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision - 1}e}"
    return str(value)


def _reference_bytes(header, rows, precision):
    lines = [",".join(header)]
    lines += [",".join(_reference_cell(cell, precision) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _written(tmp_path, header, rows, precision):
    path = tmp_path / "out.csv"
    write_csv(str(path), header, rows, precision)
    return path.read_bytes()


FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
          1.7976931348623157e308, 1.0 / 3.0, -2.5e-17, 123456789.0]

MIXED_ROWS = [
    # every row shape of the experiments, and shapes only the fallback formats
    (1, 0.5, -0.0, "2-6-10-14", None, None, None, None),
    (1, 0.5, -0.0, "2-6-10-14", 1.0, 2.0, 3.0, 4.0),
    (17, math.nan, math.inf, "x", -math.inf, 5e-324, 1.7976931348623157e308, 0.0),
    (True, False, 0, -7, 10**30, "", "a b", 1e-300),
    (np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
     2, 3.0, "s", None),
    (3, 0.1, 0.2, "tail", 0.3, 0.4, 0.5, 0.6),
    (1, 0.5, -0.0, "2-6-10-14", None, None, None, None),
]
HEADER = ("a", "b", "c", "d", "e", "f", "g", "h")


@pytest.mark.parametrize("precision", [1, 12, 17])
def test_mixed_row_shapes_match_the_per_cell_rule(tmp_path, precision):
    assert (_written(tmp_path, HEADER, MIXED_ROWS, precision)
            == _reference_bytes(HEADER, MIXED_ROWS, precision))


@pytest.mark.parametrize("precision", [1, 12, 17])
def test_every_float_kind_matches_the_per_cell_rule(tmp_path, precision):
    rows = [(value, np.float64(value), -value) for value in FLOATS]
    written = _written(tmp_path, ("x", "np_x", "minus_x"), rows, precision)
    assert written == _reference_bytes(("x", "np_x", "minus_x"), rows, precision)


def test_cells_of_each_type(tmp_path):
    rows = [(None, True, False, 0, -12, "str", 0.25)]
    written = _written(tmp_path, ("none", "t", "f", "zero", "int", "str", "float"), rows, 3)
    assert written == b"none,t,f,zero,int,str,float\n,true,false,0,-12,str,2.50e-01\n"


def test_empty_table_is_the_header_line(tmp_path):
    assert _written(tmp_path, ("n", "c"), [], 12) == b"n,c\n"


def test_lf_endings_and_no_carriage_return(tmp_path):
    written = _written(tmp_path, HEADER, MIXED_ROWS, 12)
    assert b"\r" not in written
    assert written.endswith(b"\n")
    assert written.count(b"\n") == len(MIXED_ROWS) + 1


_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(alphabet="abcxyz-_ %d", max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(_cells, min_size=3, max_size=3).map(tuple), max_size=12),
       precision=st.integers(min_value=1, max_value=17))
def test_random_mixed_rows_match_the_per_cell_rule(tmp_path_factory, rows, precision):
    tmp_path = tmp_path_factory.getbasetemp()
    assert (_written(tmp_path, ("a", "b", "c"), rows, precision)
            == _reference_bytes(("a", "b", "c"), rows, precision))
