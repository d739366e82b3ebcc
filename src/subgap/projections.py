"""Band and time-window projectors, concentration ratios, and norm bounds.

``band_project`` (P_W) zeroes spectrum bins outside a frequency interval;
``time_gate`` (P_T) zeroes samples outside a time window.  Both are
orthogonal projections.  The composite P_W P_T P_W (the prolate
concentration operator) is built once per (grid, band, window) for the
solvers, the ratios here and sampling's integral-equation residual; its
top eigenvalue lambda0 is at most its trace M*K/n ~ WT, and every
concentration ratio is checked against that lambda0 by one guard.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Interval, SampledSignal, TimeGrid, _dft
from .errors import BoundViolationError, NotBandlimitedError

__all__ = [
    "band_project",
    "time_gate",
    "complement_gate",
    "out_of_band_fraction",
    "smear_response",
    "concentration_ratio",
    "operator_norm_sq",
    "band_spill_ratio",
    "segment_compatibility",
]

#: relative energy threshold below which a signal counts as bandlimited
BANDLIMIT_TOL = 1e-10
#: absolute slack of every check of a concentration ratio against lambda0
LAMBDA0_TOL = 1e-12


def _band_mask(grid: TimeGrid, band: Interval) -> np.ndarray:
    """``band``'s bins of ``grid.dual``, ascending; ValueError past Nyquist."""
    nyq = 0.5 / grid.dt
    if band.lo < -nyq - 1e-12 or band.hi > nyq + 1e-12:
        raise ValueError(
            f"band [{band.lo}, {band.hi}) exceeds the Nyquist range "
            f"[-{nyq}, {nyq}) of dt={grid.dt}"
        )
    return band.mask(grid.dual.frequencies)


def _window_mask(grid: TimeGrid, window: Interval) -> np.ndarray:
    """``window``'s samples of ``grid``; ValueError outside the grid span."""
    if window.lo < grid.t_start - 1e-12 or window.hi > grid.t_end + 1e-12:
        raise ValueError(
            f"window [{window.lo}, {window.hi}) lies outside the grid span "
            f"[{grid.t_start}, {grid.t_end})"
        )
    return window.mask(grid.times)


def band_project(s: SampledSignal, band: Interval) -> SampledSignal:
    """Apply P_W: zero all spectrum bins outside ``band``, transform back.

    The ``t_start`` phase ramps of :func:`forward_spectrum` and
    :func:`inverse_signal` cancel around the diagonal mask, so P_W is one
    FFT pair with the mask in unshifted bin order, the forward half from
    the memo :func:`core._dft`.
    """
    keep = np.fft.ifftshift(_band_mask(s.grid, band))
    return SampledSignal(s.grid, np.fft.fft(_dft(s) * keep))


def time_gate(s: SampledSignal, window: Interval) -> SampledSignal:
    """Apply P_T: zero all samples outside ``window``."""
    keep = _window_mask(s.grid, window)
    return SampledSignal(s.grid, np.where(keep, s.values, 0.0))


def complement_gate(s: SampledSignal, window: Interval) -> SampledSignal:
    """Apply 1 - P_T: zero all samples inside ``window``."""
    keep = _window_mask(s.grid, window)
    return SampledSignal(s.grid, np.where(keep, 0.0, s.values))


def out_of_band_fraction(s: SampledSignal, band: Interval) -> float:
    """Relative L2 norm ||s - P_W s|| / ||s|| of the part outside ``band``.

    One inverse FFT, from :func:`core._dft`, and Parseval; 0 for a zero
    signal, NaN for a non-finite one.
    """
    keep = np.fft.ifftshift(_band_mask(s.grid, band))
    power = np.abs(_dft(s)) ** 2
    total = power.sum()
    if total == 0.0:
        return 0.0
    return math.sqrt(power[~keep].sum() / total) if math.isfinite(total) else math.nan


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
    return complex(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=4)
def _roots_of_unity(n: int) -> np.ndarray:
    """The read-only table exp(2 pi i k / n), k = 0..n-1, built once per n."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.setflags(write=False)
    return roots


def _gated_exponentials(grid: TimeGrid, band: Interval, window: Interval):
    """The exact-phase basis E_mk = exp(2 pi i ((m k) mod n) / n).

    Rows run over the M in-band bins m, taken in unshifted FFT order
    (m = f mod n for the signed bin f, rows in ascending frequency), and
    columns over the indices k of the K gated samples.  The phase is
    reduced mod n in integers, so it is exact before the one rounding of
    the exponential.  With q = n * ifft(r) on the in-band bins, P_W P_T P_W
    is E E^H / n on in-band data and the window's samples of P_W x are
    E^H (q + E h) / n, where h holds x on the window and x is r outside it.
    The t_start phase ramps of the transform pair cancel in both, so E
    carries none.  Returns (E, bins, gates), E gathered from
    :func:`_roots_of_unity`.  Uncached: callers read E from
    :func:`_concentration_operator`.
    """
    n = grid.n
    bins = (np.flatnonzero(_band_mask(grid, band)) - n // 2) % n
    gates = np.flatnonzero(_window_mask(grid, window))
    if bins.size == 0:
        raise ValueError("band contains no frequency bins")
    e = _roots_of_unity(n)[np.outer(bins, gates) % n]
    return e, bins, gates


@dataclass(frozen=True, eq=False)
class _ConcentrationOperator:
    """P_W P_T P_W = E E^H / n with lambda0 and the scaled Gram matrix A.

    ``on_window`` is K < M, the one decision of the Gram dimension: ``a``
    is then A = E^H E / n, on the window's K samples, else E E^H / n, on
    the M in-band bins; lambda0, a series step and the direct solve all
    use it as it is.  Its arrays are read-only: one record is shared.
    """

    e: np.ndarray
    bins: np.ndarray
    gates: np.ndarray
    lambda0: float
    on_window: bool
    a: np.ndarray


@functools.lru_cache(maxsize=1)
def _concentration_operator(grid: TimeGrid, band: Interval, window: Interval):
    """The one build of E and lambda0 per (grid, band, window).

    One entry covers every repeat: a report and then its solves, three
    solvers in a row, a noise sweep, operator_norm_sq then both ratios;
    the integral-equation residual reads E from it too.
    """
    e, bins, gates = _gated_exponentials(grid, band, window)
    on_window = gates.size < bins.size
    a = (e.conj().T @ e if on_window else e @ e.conj().T) / grid.n
    lam = float(np.linalg.eigvalsh(a)[-1]) if gates.size else 0.0
    for arr in (e, bins, gates, a):
        arr.setflags(write=False)
    return _ConcentrationOperator(e, bins, gates, lam, on_window, a)


def _dirichlet_kernel(grid: TimeGrid, band: Interval, window: Interval) -> np.ndarray:
    """Slepian's discrete prolate kernel: the spectrum of P_W P_T P_W without E.

    For M consecutive bins and K consecutive gates, E E^H / n and E^H E / n
    are, up to a diagonal phase similarity, the real symmetric Toeplitz
    R_ij = sin(pi L (i - j) / n) / (n sin(pi (i - j) / n)), d = min(M, K)
    square with L = max(M, K) and diagonal L/n: the audit's oracle for
    lambda0, with trace M*K/n, from the two masks alone.  The phase is
    reduced mod 2 pi in integers; an empty window gives a 0 x 0 matrix.
    """
    n = grid.n
    d, l = sorted((int(_band_mask(grid, band).sum()), int(_window_mask(grid, window).sum())))
    k = np.arange(d)
    lag = np.sin(np.pi * (l * k[1:] % (2 * n)) / n) / (n * np.sin(np.pi * k[1:] / n))
    return np.append(l / n, lag)[np.abs(k[:, None] - k)]


def operator_norm_sq(grid: TimeGrid, band: Interval, window: Interval) -> float:
    """Largest eigenvalue lambda0 of P_W P_T P_W, by one Hermitian eigensolve.

    E E^H / n and E^H E / n share their nonzero eigenvalues, so lambda0 is
    the top eigenvalue of the smaller one, A, of dimension min(M, K) (M
    in-band bins, K gated samples).  Equals the squared operator norm
    ||P_T P_W||^2 and satisfies 0 <= lambda0 <= trace = M*K/n ~ WT;
    a window holding no sample gives 0.  Cached with the solvers' E.
    """
    return _concentration_operator(grid, band, window).lambda0


def _bounded_by_lambda0(ratio: float, op: _ConcentrationOperator, what: str) -> float:
    """``ratio`` as a float, checked against op.lambda0 to LAMBDA0_TOL.

    Each ratio is a Rayleigh quotient of P_W P_T P_W or P_T P_W P_T (one
    nonzero spectrum), so one above lambda0 is a numerical fault.
    """
    if not ratio <= op.lambda0 + LAMBDA0_TOL:
        raise BoundViolationError(f"{what} {ratio} exceeds lambda0 = {op.lambda0}")
    return float(ratio)


def concentration_ratio(s: SampledSignal, band: Interval, window: Interval) -> float:
    """Conditional-measurement ratio <P_W s, P_T P_W s> / ||P_W s||^2.

    The fraction of the bandlimited part's energy inside the window:
    ||E^H q||^2 / (n ||q||^2), q the in-band bins of :func:`core._dft` of s.
    Rejects non-finite input and input with no in-band energy.  A new
    (grid, band, window) first builds E and lambda0, O(MK min(M, K)).
    """
    op = _concentration_operator(s.grid, band, window)
    spec = _dft(s)
    q = spec[op.bins]
    denom = np.vdot(q, q).real
    if not math.isfinite(denom):
        raise ValueError(f"in-band energy of the signal is not finite: {denom}")
    if denom <= 1e-24 * np.vdot(spec, spec).real:
        raise ValueError("signal has no energy inside the band")
    ratio = np.linalg.norm(q.conj() @ op.e) ** 2 / (s.grid.n * denom)
    return _bounded_by_lambda0(ratio, op, "concentration")


def band_spill_ratio(s_w: SampledSignal, band: Interval, window: Interval) -> float:
    """Out-of-band energy fraction of the gated segment P_T s_W.

    For a signal bandlimited to [W], gating to a window of width T forces
    at least 1 - lambda0 (lambda0 ~ WT) of the segment's energy outside
    the band: 1 - :func:`segment_compatibility`, which checks the bound.
    That spill is precisely what the recovery formulas fold back.
    """
    _require_bandlimited(s_w, band, "input")
    return 1.0 - segment_compatibility(s_w, band, window)


def segment_compatibility(s: SampledSignal, band: Interval, window: Interval) -> float:
    """In-band energy fraction of the windowed segment: <s|P_T P_W P_T|s>/<s|P_T|s>.

    ||E g||^2 / (n ||g||^2) with g the window's samples: no transform, but
    a new (grid, band, window) first builds E and lambda0, O(MK min(M, K))
    as in operator_norm_sq.  A value of 1 (to tolerance) certifies the
    segment consistent with the band, which lambda0 ~ WT allows only for
    a segment longer than 1/W.  Non-finite window samples raise ValueError.
    """
    op = _concentration_operator(s.grid, band, window)
    g = s.values[op.gates]
    denom = np.vdot(g, g).real
    if not math.isfinite(denom):
        raise ValueError(f"window energy of the signal is not finite: {denom}")
    if denom <= 0.0:
        raise ValueError("signal has no energy inside the window")
    ratio = np.linalg.norm(op.e @ g) ** 2 / (s.grid.n * denom)
    return _bounded_by_lambda0(ratio, op, "segment compatibility")
