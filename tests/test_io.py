"""CSV / JSON / SVG writers: formats, determinism, parseability."""

import json
import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgap import TimeGrid
from subgap.io import (
    _escape,
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
        x,
        [("sin", np.sin(x)), ("cos", np.cos(x))],
        title="two traces",
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2
    text = path.read_text()
    assert "sin" in text and "cos" in text and "two traces" in text


def test_svg_escapes_labels_and_title(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    path = write_svg_lines(tmp_path / "p.svg", x, [("a<b & c", x)], title="x > y & z")
    texts = [e.text for e in ET.parse(path).getroot().iter() if e.tag.endswith("text")]
    assert texts[:2] == ["x > y & z", "a<b & c"]


@given(st.text())
def test_svg_text_is_escaped_as_saxutils_does(text):
    assert _escape(text) == escape(text)


@pytest.mark.parametrize("v", [1e300, -1e300, 2.0**53, -(2.0**53), 1.0, 0.0])
def test_svg_widens_a_flat_range_at_any_magnitude(tmp_path, v):
    flat = np.full(3, v)
    with np.errstate(invalid="raise", divide="raise"):
        path = write_svg_lines(tmp_path / "p.svg", flat, [("flat", flat)])
    root = ET.parse(path).getroot()
    (line,) = [e for e in root.iter() if e.tag.endswith("polyline")]
    coords = [float(c) for pt in line.get("points").split() for c in pt.split(",")]
    assert coords == [46.0, 354.0] * 3
    if v + 1.0 > v:  # widened by 1 wherever adding 1 takes effect
        texts = [e.text for e in root.iter() if e.tag.endswith("text")]
        assert texts[-3] == texts[-1] == f"{v + 1.0:.4g}"


def test_svg_series_one_sample_short_raises(tmp_path):
    x = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ValueError, match="50 values"):
        write_svg_lines(tmp_path / "p.svg", x, [("sin", np.sin(x)), ("cos", x[1:])])


def _svg_coord(x: float) -> str:
    return f"{x:.2f}"


def _per_series_svg(path, series, title=""):
    """The per-series writer that write_svg_lines replaced, kept as its oracle."""
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    width, height = 640, 400
    margin = 46.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def to_px(x, y):
        px = margin + (np.asarray(x, dtype=float) - x_lo) / (x_hi - x_lo) * plot_w
        py = height - margin - (
            np.asarray(y, dtype=float) - y_lo
        ) / (y_hi - y_lo) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_svg_coord(margin)}" y="{_svg_coord(margin)}" '
        f'width="{_svg_coord(plot_w)}" height="{_svg_coord(plot_h)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_svg_coord(width / 2)}" y="{_svg_coord(margin - 16)}" '
            'text-anchor="middle" font-family="sans-serif" font-size="14">'
            f"{title}</text>"
        )
    for i, (label, x, y) in enumerate(series):
        px, py = to_px(x, y)
        pts = " ".join(
            f"{_svg_coord(a)},{_svg_coord(b)}" for a, b in zip(px, py)
        )
        color = palette[i % len(palette)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        ly = margin + 16 + 16 * i
        parts.append(
            f'<line x1="{_svg_coord(margin + 8)}" y1="{_svg_coord(ly - 4)}" '
            f'x2="{_svg_coord(margin + 28)}" y2="{_svg_coord(ly - 4)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_svg_coord(margin + 34)}" y="{_svg_coord(ly)}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    labels = [
        (margin, height - margin + 16, "start", f"{x_lo:.4g}"),
        (width - margin, height - margin + 16, "end", f"{x_hi:.4g}"),
        (margin - 6, height - margin, "end", f"{y_lo:.4g}"),
        (margin - 6, margin + 4, "end", f"{y_hi:.4g}"),
    ]
    for x, y, anchor, text in labels:
        parts.append(
            f'<text x="{_svg_coord(x)}" y="{_svg_coord(y)}" '
            f'text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="11">{text}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path


_SVG_VALUES = st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, 1e300, -1e300]
)


@st.composite
def _charts(draw):
    n = draw(st.integers(1, 24))
    x = np.array(draw(st.lists(_SVG_VALUES, min_size=n, max_size=n)))
    series = []
    for i in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            y = np.full(n, draw(_SVG_VALUES))
        else:
            y = np.array(draw(st.lists(_SVG_VALUES, min_size=n, max_size=n)))
        series.append((f"s{i}", y))
    return x, series, draw(st.sampled_from(["", "a title"]))


@pytest.fixture(scope="module")
def svg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("svg")


@settings(max_examples=300)
@given(_charts())
def test_write_svg_lines_matches_the_per_series_writer(svg_dir, chart):
    # the old writer widened a flat range by adding 1, which at |v| >= 2^53
    # leaves it flat and maps every point to nan; the new one widens it by
    # one ulp there and writes the old bytes everywhere else
    x, series, title = chart
    with np.errstate(invalid="raise", divide="raise"):
        new = write_svg_lines(svg_dir / "new.svg", x, series, title=title).read_bytes()
    with np.errstate(all="ignore"):
        old = _per_series_svg(
            svg_dir / "old.svg", [(label, x, y) for label, y in series], title
        ).read_bytes()
    ys = np.concatenate([y for _, y in series])
    lost = [lo + 1.0 == lo for lo, hi in ((x.min(), x.max()), (ys.min(), ys.max())) if hi <= lo]
    if any(lost):
        assert b"nan" in old and b"nan" not in new
    else:
        assert new == old
