"""Uniform-grid signals, spectra, and the Fourier conventions used throughout.

The continuum transform pair adopted by every module is

    s_hat(w) = int s(t) exp(+2 pi i w t) dt
    s(t)     = int s_hat(w) exp(-2 pi i w t) dw

discretized as Riemann sums on an n-point uniform time grid and its dual
frequency grid (spacing dw = 1/(n dt)).  Keeping the dt/dw weights explicit
makes the discrete pair exactly unitary: Parseval holds to machine precision,
the round trip is the identity, and discrete norms approximate their
continuum counterparts with a quantifiable O(dt) error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "TimeGrid",
    "FrequencyGrid",
    "Interval",
    "SampledSignal",
    "Spectrum",
    "default_grid",
    "forward_spectrum",
    "inverse_signal",
    "l2_norm",
    "inner_product",
    "make_demo_signal",
]


def _keep_arrays(record, **dtypes):
    """Store on the frozen ``record`` a read-only copy of each named array
    field, cast to its dtype; returns the copies.  Every record keeps its
    arrays by this rule, so a caller's arrays stay writable and unchanged."""
    kept = []
    for name, dtype in dtypes.items():
        arr = np.array(getattr(record, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)
        kept.append(arr)
    return kept


def _is_int(value) -> bool:
    """The one rule of a count: an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _grid_values(record):
    """Keep ``record.values`` as complex, one value per point of its grid."""
    (vals,) = _keep_arrays(record, values=complex)
    if vals.shape != (record.grid.n,):
        raise ValueError(
            f"values shape {vals.shape} does not match grid n={record.grid.n}"
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = t_start + k*dt for k = 0..n-1.

    Parameters
    ----------
    t_start : float
        Location of the first sample, in seconds.
    dt : float
        Sample spacing, > 0.
    n : int
        Number of samples, an integer (a numpy integer is stored as int);
        must be even (power of two recommended, so the dual grid splits
        symmetrically around w = 0).

    A grid whose span n*dt, end, spacing dw = 1/(n*dt), dual edge
    (n/2)*dw or largest ramp phase (n/2)*dw*t_start overflows raises
    ValueError, since its transforms would be NaN.
    """

    t_start: float
    dt: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.dt)):
            raise ValueError(
                f"t_start and dt must be finite, got {self.t_start}, {self.dt}"
            )
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not _is_int(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        span = self.n * self.dt
        edge = self.n // 2 * (1.0 / span)
        derived = (span, self.t_start + span, edge, edge * self.t_start)
        if not all(map(math.isfinite, derived)):
            raise ValueError(
                f"grid t_start={self.t_start}, dt={self.dt}, n={self.n} overflows: "
                "n*dt, t_start + n*dt, 1/(n*dt) and (n/2)*t_start/(n*dt) must be finite"
            )

    @property
    def span(self):
        """Total length n*dt of the observation interval."""
        return self.n * self.dt

    @property
    def t_end(self):
        """One spacing past the last sample: the grid covers [t_start, t_end)."""
        return self.t_start + self.span

    @property
    def times(self):
        """The n sample instants."""
        return self.t_start + self.dt * np.arange(self.n)

    @property
    def dual(self):
        """The dual frequency grid."""
        return FrequencyGrid(self)


@dataclass(frozen=True)
class FrequencyGrid:
    """Dual grid of a :class:`TimeGrid`: frequencies k/(n dt), k = -n/2..n/2-1."""

    time_grid: TimeGrid

    @property
    def n(self):
        return self.time_grid.n

    @property
    def dw(self):
        """Frequency spacing 1/(n dt)."""
        return 1.0 / self.time_grid.span

    @property
    def frequencies(self):
        return (np.arange(self.n) - self.n // 2) * self.dw


@dataclass(frozen=True)
class Interval:
    """Closed-open interval [center - width/2, center + width/2).

    Used for both frequency bands [W] and time windows [T] (and their
    quantum counterparts [P], [X]).  Membership is half-open at the right
    edge so that interval tilings partition the grid without double
    counting boundary bins.
    """

    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise ValueError(
                f"center and width must be finite, got {self.center}, {self.width}"
            )
        if self.width <= 0:
            raise ValueError(f"width must be > 0, got {self.width}")

    @property
    def lo(self):
        return self.center - 0.5 * self.width

    @property
    def hi(self):
        return self.center + 0.5 * self.width

    def mask(self, coords):
        """Boolean membership of ``coords`` (bin centers) in the interval."""
        coords = np.asarray(coords)
        return (coords >= self.lo) & (coords < self.hi)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Complex amplitudes on a uniform time grid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    __post_init__ = _grid_values


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex amplitudes on the dual frequency grid of a time grid."""

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    __post_init__ = _grid_values


def default_grid():
    """The desk-scale default grid: t in [-32, 32), n = 4096 (dt = dw = 1/64).

    Resolves a W = 2 band with 128 bins and keeps the demo signal's
    truncation tail below 1e-6 of its peak.
    """
    return TimeGrid(t_start=-32.0, dt=1.0 / 64, n=4096)


def _weight(obj):
    if isinstance(obj, SampledSignal):
        return obj.grid.dt
    if isinstance(obj, Spectrum):
        return obj.grid.dw
    raise TypeError(f"expected SampledSignal or Spectrum, got {type(obj).__name__}")


@functools.lru_cache(maxsize=4)
def _ramp(grid: TimeGrid) -> np.ndarray:
    """The read-only table exp(2 pi i w_j t_start) on the dual grid, the
    phase reduced mod 1 first; built once per grid (equal grids share it)."""
    ramp = np.exp(2j * np.pi * np.mod(grid.dual.frequencies * grid.t_start, 1.0))
    ramp.setflags(write=False)
    return ramp


@functools.lru_cache(maxsize=1)
def _dft(s: SampledSignal) -> np.ndarray:
    """The read-only ``np.fft.ifft(s.values)`` of the last signal, the one
    forward FFT of a signal's values.  Keyed by identity, which cannot go
    stale: a signal is ``eq=False`` and its values are read-only."""
    spec = np.fft.ifft(s.values)
    spec.setflags(write=False)
    return spec


def forward_spectrum(s: SampledSignal) -> Spectrum:
    """Riemann-sum transform s_hat(w_j) = dt * sum_k s(t_k) exp(+2 pi i w_j t_k).

    Computed through the FFT: with t_k = t_start + k dt and
    w_j = (j - n/2) dw the kernel splits into a standard inverse DFT and a
    phase ramp carrying t_start, so the sum is exact to rounding.  The
    ramp's phase w_j t_start is reduced mod 1 before it is scaled by 2 pi,
    so its rounding error does not grow with |w_j t_start|.  The ramp
    depends on the grid alone and is built once per grid, and the FFT
    comes from :func:`_dft`, so a warm call is a shift and two products.
    """
    g = s.grid
    spec = g.dt * g.n * np.fft.fftshift(_dft(s))
    return Spectrum(g.dual, spec * _ramp(g))


def inverse_signal(spec: Spectrum) -> SampledSignal:
    """Exact inverse of :func:`forward_spectrum` (negative kernel, dw weights)."""
    tg = spec.grid.time_grid
    g = spec.values * _ramp(tg).conj()
    vals = spec.grid.dw * np.fft.fft(np.fft.ifftshift(g))
    return SampledSignal(tg, vals)


def l2_norm(obj) -> float:
    """Weighted discrete L2 norm: sqrt(sum |v_k|^2 * dt) (dw for spectra)."""
    w = _weight(obj)
    return float(np.sqrt(w * np.sum(np.abs(obj.values) ** 2)))


def inner_product(a, b) -> complex:
    """Hermitian inner product <a, b> = sum conj(a_k) b_k * dt, linear in b.

    Both arguments must be of the same kind and live on the same grid.
    """
    if type(a) is not type(b):
        raise GridMismatchError(
            f"cannot pair {type(a).__name__} with {type(b).__name__}"
        )
    if a.grid != b.grid:
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    return complex(_weight(a) * np.vdot(a.values, b.values))


def make_demo_signal(grid: TimeGrid) -> SampledSignal:
    """The running test signal s(t) = 2(1 - cos 2 pi t)/(2 pi t)^2 = sinc(t)^2.

    Non-negative, s(0) = 1 (removable singularity filled by its limit),
    s(+-1/2) = 4/pi^2, s(+-1) = 0; its transform is the unit triangle on
    [-1, 1], i.e. bandwidth W = 2.

    The grid must span at least [-16, 16]; on shorter grids the truncated
    tail would exceed 1e-6 of the peak.
    """
    if grid.t_start > -16.0 or grid.t_end < 16.0:
        raise ValueError(
            "grid must span at least [-16, 16]; got "
            f"[{grid.t_start}, {grid.t_end})"
        )
    return SampledSignal(grid, np.sinc(grid.times) ** 2)
