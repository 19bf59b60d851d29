"""CSV writer: byte-for-byte against a per-cell reference formatter.

The writer formats all-float columns in numpy (see
experiments._float_cells); the adversarial values below sit where a
float64 computation of the `%e` digits could go wrong: decimal ties and
near-ties, powers of ten and their neighbours, carries into the next
decade, and scale factors 10^k at and past the exact range |k| <= 22.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmarray.experiments import CSV_BLOCK_ROWS, write_csv


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


_special_floats = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                                   5e-324, -5e-324, 2.2250738585072014e-308,
                                   1.7976931348623157e308])
_float_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=1e-30, max_value=1e40).flatmap(lambda x: st.sampled_from([x, -x])),
    _special_floats,
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_float_values, _float_values.map(np.float64)), max_size=40),
       precision=st.integers(min_value=1, max_value=17))
def test_float_columns_match_the_per_cell_rule(tmp_path_factory, rows, precision):
    tmp_path = tmp_path_factory.getbasetemp()
    assert (_written(tmp_path, ("x", "np_x"), rows, precision)
            == _reference_bytes(("x", "np_x"), rows, precision))


def _adversarial_floats():
    rng = np.random.default_rng(20)
    values = []
    for e in range(-25, 30, 3):
        # decimal ties at 12 digits: the nearest double to d.ddddddddddd5 x 10^e
        values += [float(f"{d}5e{e}") for d in rng.integers(10**11, 10**12, 4).tolist()]
    # exact binary ties at 12 digits: 13-digit integers ending in 5
    values += [float(10 * d + 5) for d in rng.integers(10**11, 10**12, 8).tolist()]
    for e in range(-30, 41):
        power = float(f"1e{e}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, math.inf)]
    for digits in range(1, 18):
        for e in (-20, -1, 0, 7, 25):
            # 9.99...95 x 10^e: rounds up into the next decade at some precisions
            carry = float("9" * digits + f"5e{e - digits}")
            values += [carry, np.nextafter(carry, 0.0), np.nextafter(carry, math.inf)]
    for e in (-10, -11, -12, 32, 33, 34):
        # scale factor |k| = 21, 22, 23 at 12 digits
        values += [m * 10.0**e for m in (1.0, 1.5, 3.141592653589793, 9.999999999995)]
    values += [-v for v in values]
    return values


ADVERSARIAL = _adversarial_floats()


@pytest.mark.parametrize("precision", range(1, 18))
def test_adversarial_floats_match_the_per_cell_rule(tmp_path, precision):
    rows = [(value, np.float64(value)) for value in ADVERSARIAL]
    assert (_written(tmp_path, ("x", "np_x"), rows, precision)
            == _reference_bytes(("x", "np_x"), rows, precision))


@pytest.mark.parametrize("count", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_row_counts_around_the_block_size(tmp_path, count):
    values = (ADVERSARIAL * (count // len(ADVERSARIAL) + 1))[:count]
    rows = [(i, value, None if i % 7 else "label") for i, value in enumerate(values)]
    written = _written(tmp_path, ("i", "x", "s"), rows, 12)
    assert written == _reference_bytes(("i", "x", "s"), rows, 12)
    assert written.count(b"\n") == count + 1


def test_text_cells_keep_their_exact_bytes(tmp_path):
    texts = ["\x00", "a\x00", "", "λ = 2π c / ω", "\u00e9t\u00e9", "tab\tend", "9.5e+00"]
    rows = [(text, text) for text in texts]
    written = _written(tmp_path, ("a", "b"), rows, 12)
    assert written == "".join(["a,b\n"] + [f"{t},{t}\n" for t in texts]).encode("utf-8")


@pytest.mark.parametrize("rows", [
    [(1.0, 2.0), (3.0,)],
    [(1.0, 2.0, 3.0)],
    [()],
], ids=["short", "long", "empty"])
def test_row_length_other_than_the_header_raises(tmp_path, rows):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="header of 2"):
        write_csv(str(path), ("a", "b"), rows, 12)
    assert not path.exists()


@pytest.mark.parametrize("precision", [18, 30, 400])
def test_precisions_past_float64_match_the_per_cell_rule(tmp_path, precision):
    rows = [(value, -value) for value in FLOATS + ADVERSARIAL[:50]]
    assert (_written(tmp_path, ("x", "minus_x"), rows, precision)
            == _reference_bytes(("x", "minus_x"), rows, precision))


def test_precision_below_one_raises(tmp_path):
    with pytest.raises(ValueError, match="precision"):
        write_csv(str(tmp_path / "out.csv"), ("a",), [(1.0,)], 0)
