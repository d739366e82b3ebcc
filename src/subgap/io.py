"""Deterministic artifact writers: CSV, JSON, and a minimal SVG line chart.

Every writer produces byte-identical output for identical inputs: floats
are printed as %.16e (17 significant digits, enough to round-trip a
double), JSON keys are sorted, and newlines are always "\\n".  Figures are
emitted as data (CSV) with an optional static SVG rendering; there is no
plotting dependency.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import SampledSignal, Spectrum
from .quantum import DensityMatrix

__all__ = [
    "format_cell",
    "write_csv",
    "write_signal_csv",
    "write_spectrum_csv",
    "write_density_csv",
    "complex_columns",
    "write_json",
    "write_svg_lines",
]


def format_cell(value) -> str:
    """One CSV cell: floats as %.16e, bools as 1/0, ints and text as-is."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot format {type(value).__name__} as a CSV cell")


def write_csv(path, header, rows) -> Path:
    """Write ``rows`` (iterables of cells) under a ``header`` list."""
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        cells = [format_cell(c) for c in row]
        if len(cells) != len(header):
            raise ValueError(
                f"row has {len(cells)} cells, header has {len(header)}"
            )
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_signal_csv(path, s: SampledSignal) -> Path:
    """Time-domain samples as `t,re,im`."""
    t = s.grid.times
    return write_csv(
        path, ["t", "re", "im"],
        zip(t, s.values.real, s.values.imag),
    )


def write_spectrum_csv(path, spec: Spectrum) -> Path:
    """Frequency-domain samples as `w,re,im`."""
    w = spec.grid.frequencies
    return write_csv(
        path, ["w", "re", "im"],
        zip(w, spec.values.real, spec.values.imag),
    )


def write_density_csv(path, rho: DensityMatrix) -> Path:
    """Density-matrix entries as `j,k,re,im`, row-major."""
    m = rho.p_grid.size
    rows = (
        (j, k, rho.elements[j, k].real, rho.elements[j, k].imag)
        for j in range(m)
        for k in range(m)
    )
    return write_csv(path, ["j", "k", "re", "im"], rows)


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

#: size of every chart, in pixels
_SVG_WIDTH = 640
_SVG_HEIGHT = 400


def _svg_coord(x: float) -> str:
    return f"{x:.2f}"


def write_svg_lines(path, series, title: str = "") -> Path:
    """Static SVG line chart, 640 x 400 pixels.

    ``series`` is a list of (label, x, y) triples drawn as polylines over
    a shared frame, with the axis ranges printed at the corners and a
    small legend.  Intended for quick inspection of the CSV data, nothing
    more.
    """
    path = Path(path)
    width, height = _SVG_WIDTH, _SVG_HEIGHT
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
        py = height - margin - (np.asarray(y, dtype=float) - y_lo) / (y_hi - y_lo) * plot_h
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
        color = _PALETTE[i % len(_PALETTE)]
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
