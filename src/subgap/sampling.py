"""Comb sampling, sinc reconstruction, periodization, and spectral copies.

Sampling a signal at instants k*T periodizes its transform with period
1/T (Poisson summation).  For a signal bandlimited to width W <= 1/T the
copies do not overlap and sinc interpolation is exact; when an interval
shorter than the sample spacing has additionally been erased from the
signal, the periodized copies of the erased data can be folded back into
the band, which is the copy-sum recovery implemented here: the band
restriction of

    s_hat(w) = r_hat(w) + sum_{k>=1} [r_hat(w - k/T) + r_hat(w + k/T)]

recovers s_hat, provided r agrees with s at every sample instant (the
erased gap must sit strictly between samples).  On a grid with t = 0 as a
grid point the spectrum is periodic, the copies are cyclic shifts, and the
sum is exact once it reaches k = T/(2 dt): it then equals the periodized
spectrum of the samples, which is s_hat on the band.  r_hat is
``forward_spectrum``'s, whose FFT comes from core's one signal memo, so the
copy sums of every order and the first term of one r share one FFT.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    _is_int,
    _keep_arrays,
    Interval,
    SampledSignal,
    Spectrum,
    TimeGrid,
    _ramp,
    forward_spectrum,
)
from .errors import GridMismatchError
from .projections import _band_mask, _concentration_operator, band_project

__all__ = [
    "CombSamples",
    "SpectralCopyConfig",
    "SpectralCopyResult",
    "BandApproxResult",
    "comb_sample",
    "sinc_reconstruct",
    "band_interpolate",
    "periodized_spectrum",
    "spectral_copy_recover",
    "band_approx_first_term",
    "integral_equation_residual",
]


def _aligned(value: float, step: float) -> int | None:
    """Integer ratio value/step, or None if not integral to 1e-9 relative."""
    ratio = value / step
    if not math.isfinite(ratio):
        return None
    nearest = round(ratio)
    if abs(ratio - nearest) > 1e-9 * max(1.0, abs(ratio)):
        return None
    return int(nearest)


def _multiple(what: str, value: float, step: float) -> int:
    """value/step as a positive integer; ValueError naming ``what`` if not."""
    ratio = _aligned(value, step)
    if ratio is None or ratio < 1:
        raise ValueError(f"{what} {value} is not an integer multiple of {step}")
    return ratio


def _origin(grid: TimeGrid) -> int:
    """Index of t = 0 on ``grid``, possibly outside 0..n-1; ValueError if none."""
    i0 = _aligned(-grid.t_start, grid.dt)
    if i0 is None:
        raise ValueError(f"t=0 is not a grid point of {grid}; the comb is anchored at 0")
    return i0


@dataclass(frozen=True, eq=False)
class CombSamples:
    """Samples {k*period: values[k]} read off a dense grid.

    ``offsets`` are int64 integers k (else ValueError); the source grid is kept
    so spectra and interpolants can be rebuilt without re-specifying geometry.
    """

    grid: TimeGrid
    period: float
    offsets: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be finite and > 0, got {self.period}")
        given = np.asarray(self.offsets, dtype=float)
        if not np.all((np.abs(given) < 2.0**63) & (given == np.trunc(given))):
            raise ValueError("offsets must be integers of magnitude below 2**63")
        offsets, values = _keep_arrays(self, offsets=int, values=complex)
        if offsets.shape != values.shape or offsets.ndim != 1:
            raise ValueError("offsets and values must be 1-d and equally long")

    @property
    def instants(self):
        """The sample times k*period."""
        return self.offsets * self.period


@dataclass(frozen=True)
class SpectralCopyConfig:
    """Geometry of a copy-sum recovery.

    ``t_sn`` is the sampling period, ``t_ds`` the width of the erased gap;
    both must stay below 1/W (equality of the two is allowed then), and
    copies are summed for shifts k = 1..k_max, an int of at most
    t_sn/(2 dt) on a grid of spacing dt, where the sum is exact.
    """

    band: Interval
    t_sn: float
    t_ds: float
    k_max: int

    def __post_init__(self):
        if not (0.0 < self.t_ds <= self.t_sn + 1e-12):
            raise ValueError(
                f"need 0 < t_ds <= t_sn, got t_ds={self.t_ds}, t_sn={self.t_sn}"
            )
        if self.t_sn > 1.0 / self.band.width + 1e-12:
            raise ValueError(f"t_sn={self.t_sn} exceeds 1/W={1.0 / self.band.width}")
        if not (_is_int(self.k_max) and self.k_max >= 0):
            raise ValueError(f"k_max must be an integer >= 0, got {self.k_max!r}")


@dataclass(frozen=True)
class SpectralCopyResult:
    """Copy-sum output: the band-restricted sum and the order ``k_used`` it
    was summed to (the config's ``k_max``)."""

    spectrum: Spectrum
    k_used: int


@dataclass(frozen=True)
class BandApproxResult:
    """Band restriction of an erased signal's spectrum, with offset model."""

    approx: Spectrum
    predicted_offset: float
    regime: str


def comb_sample(s: SampledSignal, period: float) -> CombSamples:
    """Read s(k*period) off the grid for every k*period inside the span.

    The period must be an integer multiple of the grid spacing and t = 0
    must be a grid point, so the reads are exact (no interpolation hides
    in the sampling step itself).
    """
    g = s.grid
    stride = _multiple("period", period, g.dt)
    i0 = _origin(g)
    k_lo = int(np.ceil(-i0 / stride))
    k_hi = int(np.floor((g.n - 1 - i0) / stride))
    offsets = np.arange(k_lo, k_hi + 1)
    values = s.values[i0 + offsets * stride]
    return CombSamples(grid=g, period=float(period), offsets=offsets, values=values)


@functools.lru_cache(maxsize=8)
def _sinc_kernel(first: int, count: int, m: int) -> np.ndarray:
    """The read-only FFT of sinc(d/m) over the ``count`` lags d = first,
    first + 1, ..., zero-padded to the next power of two at or above
    ``count``; built once per geometry."""
    size = 1 << (count - 1).bit_length()
    kernel = np.fft.fft(np.sinc(np.arange(first, first + count) / m), size)
    kernel.setflags(write=False)
    return kernel


def sinc_reconstruct(c: CombSamples, at: TimeGrid) -> SampledSignal:
    """Interpolation s(t) = sum_k c_k sinc((t - k*period)/period).

    Reproduces the samples exactly and is bandlimited to width 1/period up
    to the truncation leakage of the finite sample set, which falls off as
    1/(distance to the grid edge).

    ``at`` must lie on the comb's lattice: period/dt = m and t_start/dt
    integers, else ValueError.  The series is then one linear FFT
    convolution of the comb, zero-stuffed at stride m, with sinc(d/m):
    O(N log N) for N = at.n + m * K.  The kernel's transform depends on
    the geometry alone and comes from :func:`_sinc_kernel`, so a warm call
    makes two FFTs, the comb's and the one back.
    """
    m = _multiple("period", c.period, at.dt)
    a = -_origin(at)
    # the stuffed comb spans k_lo..k_hi; initial=0 keeps empty combs valid
    k_lo = int(c.offsets.min(initial=0))
    length = (int(c.offsets.max(initial=0)) - k_lo) * m + 1
    comb = np.zeros(length, dtype=complex)
    np.add.at(comb, (c.offsets - k_lo) * m, c.values)
    # out[i] pairs comb[q] with the kernel at lag a + i - k_lo*m - q
    kernel = _sinc_kernel(a - k_lo * m - (length - 1), length - 1 + at.n, m)
    full = np.fft.ifft(np.fft.fft(comb, kernel.size) * kernel)
    return SampledSignal(at, full[length - 1 : length - 1 + at.n])


def band_interpolate(c: CombSamples, band: Interval) -> SampledSignal:
    """Bandlimited-to-``band`` version of the sinc reconstruction on ``c.grid``.

    Requires W <= 1/period, i.e. the target band must fit inside the
    reconstruction band; then for samples of a W-bandlimited signal the
    output reproduces the signal (no aliasing).
    """
    if band.width > 1.0 / c.period + 1e-12:
        raise ValueError(f"band width {band.width} exceeds 1/period = {1.0 / c.period}")
    return band_project(sinc_reconstruct(c, c.grid), band)


def periodized_spectrum(c: CombSamples) -> Spectrum:
    """Spectrum of the sample comb: period * sum_k c_k exp(2 pi i w k period).

    By Poisson summation this equals sum_m s_hat(w - m/period): the
    original spectrum tiled with period 1/period.  With no aliasing the
    restriction to the signal band reproduces s_hat.

    Zero-stuffing the comb onto ``c.grid`` (t = 0 at index 0) turns the
    sum into one inverse FFT, O(n log n), with exact integer phases.
    """
    g = c.grid
    stride = _multiple("period", c.period, g.dt)
    comb = np.zeros(g.n, dtype=complex)
    np.add.at(comb, (c.offsets * stride) % g.n, c.values)
    return Spectrum(g.dual, c.period * g.n * np.fft.fftshift(np.fft.ifft(comb)))


def spectral_copy_recover(r: SampledSignal, cfg: SpectralCopyConfig) -> SpectralCopyResult:
    """Fold periodized copies of the observed spectrum back into the band.

    Evaluates P_W [r_hat(w) + sum_{k=1..k_max} r_hat(w - k/t_sn) +
    r_hat(w + k/t_sn)] on the dense grid, each copy a cyclic shift by n/m
    bins, m = t_sn/dt (at 2k = m the two shifts coincide and count once).
    Valid for any r that agrees with the source at the instants k*t_sn, in
    particular for a gap erased strictly between two samples; at k_max =
    m // 2 the sum is their periodized spectrum, exact on the band.
    ValueError unless m is an integer dividing n, t = 0 is a grid point
    and k_max <= m // 2, past which the copies only repeat.  Each shift up
    to k_max is gathered on the band's bins alone and added in order of k.
    """
    g = r.grid
    m = _multiple("t_sn", cfg.t_sn, g.dt)
    _origin(g)
    if g.n % m:
        raise ValueError(f"t_sn/dt = {m} does not divide n = {g.n}")
    if cfg.k_max > m // 2:
        raise ValueError(f"k_max = {cfg.k_max} exceeds t_sn/(2 dt) = {m // 2}, the exact order")
    keep = _band_mask(g, cfg.band)
    rhat = forward_spectrum(r).values
    bins = np.flatnonzero(keep)
    total = rhat[bins]
    for k in range(1, cfg.k_max + 1):
        shift = k * (g.n // m)
        copies = rhat.take(bins - shift, mode="wrap")
        if 2 * k < m:
            copies = copies + rhat.take(bins + shift, mode="wrap")
        total += copies
    acc = np.zeros(g.n, dtype=complex)
    acc[keep] = total
    return SpectralCopyResult(spectrum=Spectrum(g.dual, acc), k_used=cfg.k_max)


def band_approx_first_term(r: SampledSignal, band: Interval, t_ds: float) -> BandApproxResult:
    """The zeroth copy term P_W r_hat with its first-order offset model.

    For a gap of width t_ds with W*t_ds << 1, erasing depresses the in-band
    spectrum by the nearly constant offset W*t_ds * (mean of s_hat over the
    band).  Since only r is observed, the offset is estimated by inverting
    the model to first order: offset = t_ds * int_[W] r_hat / (1 - W*t_ds).
    The regime flag is "ok", "marginal" (W*t_ds > 0.25), or "distorted"
    (W*t_ds >= 1, where the band restriction no longer approximates
    anything and recovery is impossible).  ``t_ds`` must be finite and > 0.
    """
    if not (math.isfinite(t_ds) and t_ds > 0):
        raise ValueError(f"t_ds must be finite and > 0, got {t_ds}")
    keep = _band_mask(r.grid, band)
    rhat = forward_spectrum(r).values
    vals = np.where(keep, rhat, 0.0)
    wt = band.width * t_ds
    integral = float(np.real(r.grid.dual.dw * np.sum(rhat[keep])))
    if abs(1.0 - wt) > 1e-12:
        offset = t_ds * integral / (1.0 - wt)
    else:
        offset = float("inf")
    if wt >= 1.0:
        regime = "distorted"
    elif wt > 0.25:
        regime = "marginal"
    else:
        regime = "ok"
    return BandApproxResult(
        approx=Spectrum(r.grid.dual, vals), predicted_offset=offset, regime=regime
    )


def integral_equation_residual(
    s_hat: Spectrum, r_hat: Spectrum, band: Interval, t_ds: float
) -> float:
    """L2 residual of the in-band relation between erased and source spectra.

    Erasing the window [-t_ds/2, t_ds/2) from a signal bandlimited to [W]
    ties the two spectra through

        r_hat(w) = s_hat(w) - int_[W] K(w - w') s_hat(w') dw'

    where K is the transform of the gate indicator.  On the grid K is the
    Dirichlet sum dt * sum_{t in gate} exp(2 pi i (w - w') t), not its
    continuum limit t_ds * sinc(t_ds (w - w')), which would leave an O(dt)
    floor; the folded integral is then P_W P_T P_W s_hat, read off the
    operator's E as ramp * E (E^H (conj(ramp) * s_hat)) / n, O(M K) with
    no FFT (ValueError for a band holding no bin).  Matched pairs give
    residuals at rounding level, far below 1e-6.
    """
    if s_hat.grid != r_hat.grid:
        raise GridMismatchError("spectra live on different grids")
    g = s_hat.grid.time_grid
    op = _concentration_operator(g, band, Interval(0.0, t_ds))
    keep = _band_mask(g, band)
    ramp, s_in = _ramp(g)[keep], s_hat.values[keep]
    folded = ramp * (op.e @ (op.e.conj().T @ (ramp.conj() * s_in))) / g.n
    resid = r_hat.values[keep] - s_in + folded
    return float(np.sqrt(s_hat.grid.dw * np.sum(np.abs(resid) ** 2)))
