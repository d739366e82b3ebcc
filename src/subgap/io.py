"""Deterministic artifact writers: CSV, JSON, and a minimal SVG line chart.

Every writer produces byte-identical output for identical inputs: CSV
columns are formatted by their dtype, floats as %.16e (17 significant
digits, enough to round-trip a double), integers as written and bools as
1/0; JSON keys are sorted, and newlines are always "\\n".  Figures are
emitted as data (CSV) with a static SVG rendering; there is no plotting
dependency.  Every chart draws its series over one shared x, with
coordinates written to two decimals and its text escaped for XML.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .core import SampledSignal, Spectrum

__all__ = [
    "write_csv",
    "write_signal_csv",
    "write_spectrum_csv",
    "write_density_csv",
    "complex_columns",
    "write_json",
    "write_svg_lines",
]


def write_csv(path, columns) -> Path:
    """Write ``columns``, a list of (name, values) pairs of equal length.

    Each column is formatted once, by its dtype: floats as %.16e, integers
    as written and bools as 1/0.  A column of any other dtype or shape
    raises TypeError, and columns of unequal length raise ValueError.
    """
    path = Path(path)
    names, cells = [], []
    for name, values in columns:
        v = np.asarray(values)
        if v.dtype.kind not in "biuf":
            raise TypeError(f"column `{name}` is {v.dtype}, not float, int or bool")
        rule = "{:.16e}" if v.dtype.kind == "f" else "{:d}"
        names.append(name)
        cells.append(list(map(rule.format, v.tolist())))
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"columns differ in length: {[len(c) for c in cells]}")
    lines = [",".join(names), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_signal_csv(path, s: SampledSignal) -> Path:
    """Time-domain samples as `t,re,im`."""
    t, v = s.grid.times, s.values
    return write_csv(path, [("t", t), ("re", v.real), ("im", v.imag)])


def write_spectrum_csv(path, spec: Spectrum) -> Path:
    """Frequency-domain samples as `w,re,im`."""
    w, v = spec.grid.frequencies, spec.values
    return write_csv(path, [("w", w), ("re", v.real), ("im", v.imag)])


def write_density_csv(path, rho) -> Path:
    """The entries of a ``quantum.DensityMatrix`` as `j,k,re,im`, row-major."""
    m = rho.p_grid.size
    j, k = np.divmod(np.arange(m * m), m)
    v = rho.elements.ravel()
    return write_csv(path, [("j", j), ("k", k), ("re", v.real), ("im", v.imag)])


def complex_columns(name: str, values) -> list[tuple[str, np.ndarray]]:
    """A complex series as two adjacent columns, `name` and `name_im`."""
    v = np.asarray(values, dtype=complex)
    return [(name, v.real), (f"{name}_im", v.imag)]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not np.isfinite(f):
            return repr(f)
        return f
    return obj


def write_json(path, obj) -> Path:
    """Sorted-key, indented JSON with numpy values coerced to plain Python."""
    path = Path(path)
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
    return path


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

#: the one rule for every SVG coordinate: two decimals
_coord = "{:.2f}".format


def _escape(text: str) -> str:
    """``text`` with &, < and > escaped, as ``xml.sax.saxutils.escape`` does;
    importing that module would pull urllib.request into every CLI start."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_text(x, y, size, text, anchor=None) -> str:
    """A <text> element at (x, y) holding ``text`` escaped; ``anchor`` sets
    its text-anchor if given."""
    at = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_coord(x)}" y="{_coord(y)}"{at} font-family="sans-serif" '
        f'font-size="{size}">{_escape(text)}</text>'
    )


def _span(values) -> tuple[float, float]:
    """The range of ``values``; a flat one is widened by 1, or by one ulp
    where adding 1 changes nothing (|v| >= 2^53)."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi <= lo:
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    return lo, hi


def write_svg_lines(path, x, series, title: str = "") -> Path:
    """Static SVG line chart, 640 x 400 pixels.

    ``series`` is a list of (label, y) pairs drawn as polylines over one
    shared ``x``, with the axis ranges printed at the corners and a small
    legend; a ``y`` whose length differs from ``x``'s raises ValueError.
    Labels and the title are escaped for XML, and a flat x or y range is
    widened, so finite data gives finite coordinates at any magnitude.
    Intended for quick inspection of the CSV data, nothing more.
    """
    path = Path(path)
    width, height, margin = 640, 400, 46.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    if any(y.shape != x.shape for y in ys):
        raise ValueError(f"every series needs {x.size} values, one per x")
    (x_lo, x_hi), (y_lo, y_hi) = _span(x), _span(ys)
    px = list(map(_coord, (margin + (x - x_lo) / (x_hi - x_lo) * plot_w).tolist()))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_coord(margin)}" y="{_coord(margin)}" '
        f'width="{_coord(plot_w)}" height="{_coord(plot_h)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        parts.append(_svg_text(width / 2, margin - 16, 14, title, "middle"))
    for i, ((label, _), y) in enumerate(zip(series, ys)):
        py = height - margin - (y - y_lo) / (y_hi - y_lo) * plot_h
        pts = " ".join(map(",".join, zip(px, map(_coord, py.tolist()))))
        pen = f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.5"/>'
        ly = margin + 16 + 16 * i
        parts += [
            f'<polyline points="{pts}" fill="none" {pen}',
            f'<line x1="{_coord(margin + 8)}" y1="{_coord(ly - 4)}" '
            f'x2="{_coord(margin + 28)}" y2="{_coord(ly - 4)}" {pen}',
            _svg_text(margin + 34, ly, 12, label),
        ]
    corners = [
        (margin, height - margin + 16, "start", x_lo),
        (width - margin, height - margin + 16, "end", x_hi),
        (margin - 6, height - margin, "end", y_lo),
        (margin - 6, margin + 4, "end", y_hi),
    ]
    parts += [_svg_text(cx, cy, 11, f"{v:.4g}", a) for cx, cy, a, v in corners]
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
