"""CSV / JSON / SVG writers: formats, determinism, parseability."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgap import TimeGrid
from subgap.io import (
    complex_columns,
    write_csv,
    write_json,
    write_signal_csv,
    write_spectrum_csv,
    write_svg_lines,
)
from subgap.core import SampledSignal, forward_spectrum


def _cell(value) -> str:
    """The per-cell rule write_csv replaced, kept as its oracle."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot format {type(value).__name__} as a CSV cell")


def _lines(path):
    return path.read_text(encoding="utf-8").split("\n")


def test_columns_are_formatted_by_dtype(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(
        path,
        [
            ("f", [0.5, np.float64(-1.0)]),
            ("i", [3, np.int64(7)]),
            ("b", [True, False]),
        ],
    )
    assert _lines(path)[1:3] == [
        "5.0000000000000000e-01,3,1",
        "-1.0000000000000000e+00,7,0",
    ]
    for values in ([1.0 + 2.0j], ["label"], [1, None]):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "bad.csv", [("x", values)])


def test_float_cells_round_trip_exactly(tmp_path):
    values = [1 / 3, np.pi, 2.0**-52, -1e300]
    write_csv(tmp_path / "t.csv", [("v", values)])
    assert [float(cell) for cell in _lines(tmp_path / "t.csv")[1:-1]] == values


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [("a", [1, 3]), ("b", [2.0, 4.0])])
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,2.0000000000000000e+00"
    assert lines[2] == "3,4.0000000000000000e+00"
    assert text.endswith("\n")
    assert "\r" not in text


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", [("a", [1, 3]), ("b", [2])])
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", [("a", [[1, 3]])])


_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]
)
#: column dtype -> cell strategy
_CELLS = {
    np.float64: _FLOATS,
    np.float32: st.floats(width=32),
    np.int64: st.integers(-(2**63), 2**63 - 1),
    np.uint8: st.integers(0, 255),
    np.bool_: st.booleans(),
}


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 6))
    dtypes = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=4))
    return [
        (f"c{i}", np.array(draw(st.lists(_CELLS[d], min_size=n, max_size=n)), dtype=d))
        for i, d in enumerate(dtypes)
    ]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


@settings(max_examples=300)
@given(_tables())
def test_write_csv_matches_the_per_cell_rule(csv_path, table):
    write_csv(csv_path, table)
    rows = [",".join(_cell(v) for v in row) for row in zip(*(v for _, v in table))]
    header = ",".join(name for name, _ in table)
    assert csv_path.read_bytes() == ("\n".join([header, *rows]) + "\n").encode()


@given(
    st.lists(st.complex_numbers()).map(lambda v: np.array(v, dtype=complex))
    | st.lists(st.text()).map(lambda v: np.array(v, dtype=str))
)
def test_write_csv_refuses_complex_and_text_columns(csv_path, values):
    with pytest.raises(TypeError):
        write_csv(csv_path, [("x", values)])


def test_signal_and_spectrum_headers(tmp_path):
    grid = TimeGrid(-1.0, 0.25, 8)
    s = SampledSignal(grid, np.arange(8.0) + 0.0j)
    write_signal_csv(tmp_path / "s.csv", s)
    write_spectrum_csv(tmp_path / "h.csv", forward_spectrum(s))
    assert (tmp_path / "s.csv").read_text().split("\n")[0] == "t,re,im"
    assert (tmp_path / "h.csv").read_text().split("\n")[0] == "w,re,im"
    assert len((tmp_path / "s.csv").read_text().strip().split("\n")) == 9


def test_complex_columns_naming():
    cols = complex_columns("s_hat", np.array([1.0 + 2.0j]))
    assert [name for name, _ in cols] == ["s_hat", "s_hat_im"]
    assert cols[0][1][0] == 1.0 and cols[1][1][0] == 2.0


def test_write_json_is_sorted_and_deterministic(tmp_path):
    payload = {"zeta": 1, "alpha": {"b": np.float64(2.0), "a": np.arange(3)}}
    write_json(tmp_path / "a.json", payload)
    write_json(tmp_path / "b.json", payload)
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    loaded = json.loads(a)
    assert list(loaded) == ["alpha", "zeta"]
    assert loaded["alpha"]["a"] == [0, 1, 2]


def test_write_json_survives_non_finite(tmp_path):
    write_json(tmp_path / "n.json", {"v": float("inf"), "w": float("nan")})
    loaded = json.loads((tmp_path / "n.json").read_text())
    assert loaded["v"] == "inf"


def test_svg_is_wellformed_with_one_polyline_per_series(tmp_path):
    x = np.linspace(0.0, 1.0, 50)
    path = tmp_path / "p.svg"
    write_svg_lines(
        path,
        [("sin", x, np.sin(x)), ("cos", x, np.cos(x))],
        title="two traces",
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2
    text = path.read_text()
    assert "sin" in text and "cos" in text and "two traces" in text
