"""Band and time-window projectors, concentration ratios, and norm bounds.

``band_project`` (P_W) zeroes spectrum bins outside a frequency interval;
``time_gate`` (P_T) zeroes samples outside a time window.  Both are
orthogonal projections, and the composite P_W P_T P_W (the prolate
concentration operator) has operator norm bounded by the time-bandwidth
product WT.  Everything here is a continuum inequality evaluated on a
grid, so bounds carry an explicit discretization slack ``eps_grid``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Interval, SampledSignal, TimeGrid, l2_norm
from .errors import BoundViolationError, NotBandlimitedError

__all__ = [
    "band_project",
    "time_gate",
    "complement_gate",
    "out_of_band_fraction",
    "smear_response",
    "eps_grid",
    "concentration_ratio",
    "prolate_matrix",
    "prolate_eigenvalues",
    "operator_norm_sq",
    "band_spill_ratio",
    "segment_compatibility",
]

#: relative energy threshold below which a signal counts as bandlimited
BANDLIMIT_TOL = 1e-10


def _check_band(grid: TimeGrid, band: Interval):
    nyq = 0.5 / grid.dt
    if band.lo < -nyq - 1e-12 or band.hi > nyq + 1e-12:
        raise ValueError(
            f"band [{band.lo}, {band.hi}) exceeds the Nyquist range "
            f"[-{nyq}, {nyq}) of dt={grid.dt}"
        )


def _check_window(grid: TimeGrid, window: Interval):
    if window.lo < grid.t_start - 1e-12 or window.hi > grid.t_end + 1e-12:
        raise ValueError(
            f"window [{window.lo}, {window.hi}) lies outside the grid span "
            f"[{grid.t_start}, {grid.t_end})"
        )


def band_project(s: SampledSignal, band: Interval) -> SampledSignal:
    """Apply P_W: zero all spectrum bins outside ``band``, transform back.

    The ``t_start`` phase ramps of :func:`forward_spectrum` and
    :func:`inverse_signal` cancel around the diagonal mask, so P_W is one
    FFT pair with the mask in unshifted bin order.
    """
    _check_band(s.grid, band)
    keep = np.fft.ifftshift(band.mask(s.grid.dual.frequencies))
    return SampledSignal(s.grid, np.fft.fft(np.fft.ifft(s.values) * keep))


def time_gate(s: SampledSignal, window: Interval) -> SampledSignal:
    """Apply P_T: zero all samples outside ``window``."""
    _check_window(s.grid, window)
    keep = window.mask(s.grid.times)
    return SampledSignal(s.grid, np.where(keep, s.values, 0.0))


def complement_gate(s: SampledSignal, window: Interval) -> SampledSignal:
    """Apply 1 - P_T: zero all samples inside ``window``."""
    _check_window(s.grid, window)
    keep = window.mask(s.grid.times)
    return SampledSignal(s.grid, np.where(keep, 0.0, s.values))


def out_of_band_fraction(s: SampledSignal, band: Interval) -> float:
    """Relative L2 norm of the part of ``s`` outside ``band`` (0 for in-band)."""
    total = l2_norm(s)
    if total == 0.0:
        return 0.0
    leak = l2_norm(SampledSignal(s.grid, s.values - band_project(s, band).values))
    return leak / total


def _require_bandlimited(s: SampledSignal, band: Interval, what: str):
    """Raise NotBandlimitedError when ``s`` leaks more than BANDLIMIT_TOL."""
    frac = out_of_band_fraction(s, band)
    if not frac <= BANDLIMIT_TOL:
        raise NotBandlimitedError(
            f"{what} has relative out-of-band energy {frac:.3e} > {BANDLIMIT_TOL}"
        )


def smear_response(band: Interval, delta_t) -> complex:
    """Closed-form gap response G(dt; W) = int_[W] exp(-2 pi i w dt) dw.

    Equals W * exp(-2 pi i w0 dt) * sinc(W dt): the response of the band
    projector to a point disturbance cannot average to zero for
    |dt| < 1/W, which is what spreads a time gap across the whole band.
    Vectorized over ``delta_t``.
    """
    delta_t = np.asarray(delta_t, dtype=float)
    out = band.width * np.exp(-2j * np.pi * band.center * delta_t)
    out = out * np.sinc(band.width * delta_t)
    if out.ndim == 0:
        return complex(out)
    return out


def eps_grid(grid: TimeGrid, band: Interval, window: Interval) -> float:
    """Documented discretization slack 10*dt*(W + 1/T) for the WT bounds.

    The bound inequalities are continuum statements; on a grid the interval
    edges quantize to bins, which this conservative slack absorbs.
    """
    return 10.0 * grid.dt * (band.width + 1.0 / window.width)


def concentration_ratio(s: SampledSignal, band: Interval, window: Interval) -> float:
    """Conditional-measurement ratio <P_W s, P_T P_W s> / ||P_W s||^2.

    The fraction of the bandlimited part's energy found inside the time
    window; bounded by min(1, WT + eps_grid).  Rejects inputs with no
    in-band energy.
    """
    sw = band_project(s, band)
    denom = l2_norm(sw) ** 2
    if denom <= 1e-24 * l2_norm(s) ** 2:
        raise ValueError("signal has no energy inside the band")
    ratio = l2_norm(time_gate(sw, window)) ** 2 / denom
    limit = min(1.0, band.width * window.width + eps_grid(s.grid, band, window))
    if not ratio <= limit + 1e-12:
        raise BoundViolationError(f"concentration {ratio} exceeds bound {limit}")
    return ratio


def _gated_exponentials(grid: TimeGrid, band: Interval, window: Interval):
    """The exact-phase basis E_mk = exp(2 pi i ((m k) mod n) / n).

    Rows run over the M in-band bins m, taken in unshifted FFT order
    (m = f mod n for the signed bin f, rows in ascending frequency), and
    columns over the indices k of the K gated samples.  The phase is
    reduced mod n in integers, so it is exact before the one rounding of
    the exponential.  With q = n * ifft(r) on the in-band bins, P_W P_T P_W
    is c * E E^H on in-band data and the window's samples of P_W x are
    E^H (q + E h) / n, where h holds x on the window and x is r outside it;
    c = dt * dw = 1/n.  The t_start phase ramps of the transform pair
    cancel in both, so E carries none.  Returns (E, c, bins, gates).
    Uncached: callers read E from :func:`_concentration_operator`.
    """
    _check_band(grid, band)
    _check_window(grid, window)
    n = grid.n
    bins = (np.flatnonzero(band.mask(grid.dual.frequencies)) - n // 2) % n
    gates = np.flatnonzero(window.mask(grid.times))
    if bins.size == 0:
        raise ValueError("band contains no frequency bins")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    e = roots[np.outer(bins, gates) % n]
    return e, grid.dt * grid.dual.dw, bins, gates


@dataclass(frozen=True)
class _ConcentrationOperator:
    """P_W P_T P_W = c * E E^H with lambda0 and the Gram matrix it came from.

    ``gram`` is E^H E when K < M, else E E^H.  Its arrays are read-only:
    every caller on the same (grid, band, window) shares the record.
    """

    e: np.ndarray
    c: float
    bins: np.ndarray
    gates: np.ndarray
    lambda0: float
    gram: np.ndarray


@functools.lru_cache(maxsize=1)
def _concentration_operator(grid: TimeGrid, band: Interval, window: Interval):
    """The one build of E and lambda0 per (grid, band, window).

    One entry covers every repeat: a report and then its solves, three
    solvers in a row, a noise sweep, operator_norm_sq then prolate_matrix.
    """
    e, c, bins, gates = _gated_exponentials(grid, band, window)
    gram = e.conj().T @ e if e.shape[1] < e.shape[0] else e @ e.conj().T
    lam = float(c * np.linalg.eigvalsh(gram)[-1]) if e.shape[1] else 0.0
    for a in (e, bins, gates, gram):
        a.setflags(write=False)
    return _ConcentrationOperator(e, c, bins, gates, lam, gram)


def prolate_matrix(grid: TimeGrid, band: Interval, window: Interval) -> np.ndarray:
    """The operator P_W P_T P_W restricted to the in-band spectral basis.

    With w_j the M in-band bin frequencies (ascending) and t_k the gated
    sample instants, the matrix is B = dt * dw * F F^H with
    F_jk = exp(2 pi i w_j t_k).  F is built as the exact-phase basis E of
    the solvers times the row phase exp(2 pi i mod(w_j t_start, 1)),
    which the spectral basis of :func:`forward_spectrum` carries.  B is
    Hermitian PSD with trace dt*dw*M*K ~ WT, and its largest eigenvalue
    equals ||P_T P_W||^2.  The dense M x M oracle for
    :func:`operator_norm_sq` and the direct solve, on their shared E.
    """
    op = _concentration_operator(grid, band, window)
    wb = grid.dual.frequencies[band.mask(grid.dual.frequencies)]
    f = np.exp(2j * np.pi * np.mod(wb * grid.t_start, 1.0))[:, None] * op.e
    return op.c * (f @ f.conj().T)


def prolate_eigenvalues(grid: TimeGrid, band: Interval, window: Interval) -> np.ndarray:
    """All eigenvalues of the in-band concentration matrix, descending."""
    return np.linalg.eigvalsh(prolate_matrix(grid, band, window))[::-1]


def operator_norm_sq(grid: TimeGrid, band: Interval, window: Interval) -> float:
    """Largest eigenvalue lambda0 of P_W P_T P_W, by one Hermitian eigensolve.

    c * E E^H and c * E^H E share their nonzero eigenvalues, so lambda0 is
    the top eigenvalue of the smaller Gram matrix, of dimension min(M, K)
    (M in-band bins, K gated samples).  Equals the squared operator norm
    ||P_T P_W||^2 and satisfies 0 <= lambda0 <= min(1, WT + eps_grid);
    a window holding no sample gives 0.  Cached with the solvers' E.
    """
    return _concentration_operator(grid, band, window).lambda0


def band_spill_ratio(s_w: SampledSignal, band: Interval, window: Interval) -> float:
    """Out-of-band energy fraction of the gated segment P_T s_W.

    For a signal bandlimited to [W], gating to a window of width T forces
    at least 1 - WT of the segment's energy outside the band:
    <g|(1-P_W)|g> / <g|g> >= 1 - WT - eps_grid with g = P_T s_W, the
    complement of :func:`segment_compatibility`.  That spill is precisely
    what the recovery formulas fold back.
    """
    _require_bandlimited(s_w, band, "input")
    ratio = 1.0 - segment_compatibility(s_w, window, band)
    floor = 1.0 - band.width * window.width - eps_grid(s_w.grid, band, window)
    if not ratio >= floor - 1e-12:
        raise BoundViolationError(f"spill {ratio} below bound {floor}")
    return ratio


def segment_compatibility(r: SampledSignal, window: Interval, band: Interval) -> float:
    """In-band energy fraction of the windowed segment: <r|P_T P_W P_T|r>/<r|P_T|r>.

    A value of 1 (to tolerance) certifies the segment is consistent with
    the band; since the ratio is bounded by |T|*W, certification is only
    possible when the segment is longer than 1/W.
    """
    g = time_gate(r, window)
    denom = l2_norm(g) ** 2
    if denom <= 0.0:
        raise ValueError("signal has no energy inside the window")
    return l2_norm(band_project(g, band)) ** 2 / denom
