"""Erasure of a time interval and its deterministic inversion.

An eraser 1 - P_T removes every sample inside a window [T] from a signal
bandlimited to [W].  For WT < 1 the map s |-> (1 - P_T) s is injective on
the bandlimited subspace and its inverse is the geometric operator series
(1 - P_T P_W)^{-1} = sum_k (P_T P_W)^k, which contracts at rate
||P_T P_W|| <= sqrt(WT).  This module provides the series solver, a
variant that iterates entirely on bandlimited data, an in-band direct
solve, and a noise-amplification sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Interval,
    SampledSignal,
    Spectrum,
    TimeGrid,
    forward_spectrum,
    inverse_signal,
    l2_norm,
)
from .errors import GridMismatchError, NotBandlimitedError, RefusalError
from .projections import (
    BANDLIMIT_TOL,
    band_project,
    complement_gate,
    _gated_exponentials,
    operator_norm_sq,
    out_of_band_fraction,
    time_gate,
)

__all__ = [
    "ErasureModel",
    "RecoveryReport",
    "InvertibilityReport",
    "StabilityRow",
    "erase",
    "invertibility_report",
    "recover_neumann",
    "recover_band_neumann",
    "recover_direct",
    "noise_stability_sweep",
]

#: extra headroom below 1 required of the discrete operator norm
LAMBDA_MARGIN = 1e-6


@dataclass(frozen=True)
class ErasureModel:
    """The erasure channel: unobserved window, source band, optional noise.

    ``noise`` models observational noise on the *kept* samples, so it must
    vanish on the erased window.
    """

    window: Interval
    source_band: Interval
    noise: SampledSignal | None = None

    def __post_init__(self):
        if self.noise is not None:
            inside = self.window.mask(self.noise.grid.times)
            if np.any(np.abs(self.noise.values[inside]) > 0.0):
                raise ValueError("noise must vanish on the erased window")


@dataclass(frozen=True)
class InvertibilityReport:
    """Whether (1 - P_T P_W) can be inverted on the bandlimited subspace."""

    lambda0: float
    wt: float
    wt_ok: bool
    lambda0_ok: bool
    invertible: bool


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of an iterative recovery.

    ``residual_history`` holds the relative update norm of each iteration;
    it decays geometrically at ``contraction_estimate`` <= sqrt(WT) while
    the solver runs.  ``recovered`` is None when the solver refused.
    """

    recovered: SampledSignal | None
    iterations: int
    residual_history: np.ndarray = field(repr=False)
    contraction_estimate: float
    refused: bool
    reason: str | None
    converged: bool


@dataclass(frozen=True)
class StabilityRow:
    """One noise level of a stability sweep."""

    sigma: float
    err: float
    amplification: float
    bound: float


def erase(s_w: SampledSignal, model: ErasureModel) -> SampledSignal:
    """Apply the erasure channel: r = (1 - P_T) s_W + n.

    The input must be bandlimited to ``model.source_band`` (the receiver
    knows the band); out-of-band energy above 1e-10 relative is rejected.
    """
    frac = out_of_band_fraction(s_w, model.source_band)
    if not frac <= BANDLIMIT_TOL:
        raise NotBandlimitedError(
            f"signal has relative out-of-band energy {frac:.3e} > {BANDLIMIT_TOL}; "
            "erase() is defined for bandlimited inputs"
        )
    r = complement_gate(s_w, model.window)
    if model.noise is not None:
        if model.noise.grid != s_w.grid:
            raise GridMismatchError("noise grid differs from signal grid")
        r = SampledSignal(s_w.grid, r.values + model.noise.values)
    return r


def invertibility_report(grid: TimeGrid, band: Interval, window: Interval) -> InvertibilityReport:
    """Check WT < 1 and lambda0 <= 1 - 1e-6, reported separately.

    WT >= 1 is the fatal case (the eraser can hide a genuinely bandlimited
    waveform); the extra lambda0 margin guards discretization corner cases
    where WT < 1 but the discrete operator is near singular.
    """
    wt = band.width * window.width
    lam = operator_norm_sq(grid, band, window)
    wt_ok = wt < 1.0
    lam_ok = lam <= 1.0 - LAMBDA_MARGIN
    return InvertibilityReport(
        lambda0=lam, wt=wt, wt_ok=wt_ok, lambda0_ok=lam_ok,
        invertible=wt_ok and lam_ok,
    )


def _default_k_max(wt: float, tol: float) -> int:
    if wt <= 0.0:
        return 50
    rho = math.sqrt(min(wt, 1.0 - 1e-12))
    if rho <= 0.0:
        return 50
    return int(math.ceil(math.log(tol) / math.log(rho))) + 50


def _refusal(report: InvertibilityReport) -> RecoveryReport:
    reason = (
        f"not invertible: WT={report.wt:.6g} (ok={report.wt_ok}), "
        f"lambda0={report.lambda0:.6g} (ok={report.lambda0_ok})"
    )
    return RecoveryReport(
        recovered=None, iterations=0, residual_history=np.empty(0),
        contraction_estimate=float("nan"), refused=True, reason=reason,
        converged=False,
    )


def _neumann_loop(b: SampledSignal, apply_step, tol: float, k_max: int) -> RecoveryReport:
    x = b
    rel_history = []
    abs_history = []
    converged = False
    reason = None
    iterations = 0
    for _ in range(k_max):
        iterations += 1
        new = SampledSignal(b.grid, b.values + apply_step(x).values)
        abs_up = l2_norm(SampledSignal(b.grid, new.values - x.values))
        rel = abs_up / max(l2_norm(new), 1e-300)
        rel_history.append(rel)
        abs_history.append(abs_up)
        x = new
        if rel < tol:
            converged = True
            break
        if len(abs_history) >= 2 and abs_history[-1] > abs_history[-2]:
            reason = "update norm stopped decreasing; halted at the attainable floor"
            break
    else:
        reason = f"k_max={k_max} exhausted before reaching tol={tol}"
    ratios = [
        a / b_ for a, b_ in zip(abs_history[1:], abs_history[:-1]) if b_ > 0.0
    ]
    contraction = max(ratios) if ratios else 0.0
    return RecoveryReport(
        recovered=x, iterations=iterations,
        residual_history=np.asarray(rel_history), contraction_estimate=contraction,
        refused=False, reason=reason, converged=converged,
    )


def recover_neumann(
    r: SampledSignal,
    band: Interval,
    window: Interval,
    tol: float = 1e-10,
    k_max: int | None = None,
) -> RecoveryReport:
    """Recover s_W from r = (1 - P_T) s_W by x_{k+1} = r + P_T P_W x_k.

    The iterates converge to the unique bandlimited preimage at geometric
    rate ||P_T P_W|| <= sqrt(WT); with zero noise the final relative error
    is <= tol/(1 - sqrt(lambda0)).  Refuses (without iterating) when the
    invertibility report fails.
    """
    report = invertibility_report(r.grid, band, window)
    if not report.invertible:
        return _refusal(report)
    if k_max is None:
        k_max = _default_k_max(report.wt, tol)
    return _neumann_loop(
        r, lambda x: time_gate(band_project(x, band), window), tol, k_max
    )


def recover_band_neumann(
    r: SampledSignal,
    band: Interval,
    window: Interval,
    tol: float = 1e-10,
    k_max: int | None = None,
) -> RecoveryReport:
    """Variant of :func:`recover_neumann` iterating on bandlimited data only.

    Solves (1 - P_W P_T) s_W = P_W r via y_{k+1} = P_W r + P_W P_T y_k, so
    every iterate is bandlimited and already free of the time gap; the
    zeroth iterate P_W r is itself a useful first-order approximation for
    small WT.  Converges to the same fixed point as :func:`recover_neumann`.
    """
    report = invertibility_report(r.grid, band, window)
    if not report.invertible:
        return _refusal(report)
    if k_max is None:
        k_max = _default_k_max(report.wt, tol)
    return _neumann_loop(
        band_project(r, band),
        lambda y: band_project(time_gate(y, window), band),
        tol,
        k_max,
    )


def recover_direct(r: SampledSignal, band: Interval, window: Interval) -> SampledSignal:
    """Direct in-band solve of (1 - P_W P_T) s_hat = P_W r_hat.

    Works in the in-band spectral basis, where the restricted operator is
    I - B with B = c E E^H the in-band concentration matrix (M in-band
    bins, K gated samples).  The solve runs in dimension min(M, K): for
    K < M by the Woodbury identity
    (I - c E E^H)^{-1} b = b + c E (I - c E^H E)^{-1} E^H b.  Since I - B
    is Hermitian with B PSD, its condition number is at most
    1/(1 - lambda0), so at most 1e6 once the invertibility report passes.
    Cross-checks the series solvers to 1e-8.

    Raises
    ------
    RefusalError
        If the invertibility report fails or the in-band dimension M
        exceeds 4096.
    """
    report = invertibility_report(r.grid, band, window)
    if not report.invertible:
        raise RefusalError(
            f"refusing direct solve: WT={report.wt:.6g}, lambda0={report.lambda0:.6g}"
        )
    e, c = _gated_exponentials(r.grid, band, window)
    m, k = e.shape
    if m > 4096:
        raise RefusalError(f"in-band dimension {m} exceeds 4096")
    rhat = forward_spectrum(r)
    keep = band.mask(rhat.grid.frequencies)
    rhs = rhat.values[keep]
    eh = e.conj().T
    if k < m:
        sol = rhs + c * (e @ np.linalg.solve(np.eye(k) - c * (eh @ e), eh @ rhs))
    else:
        sol = np.linalg.solve(np.eye(m) - c * (e @ eh), rhs)
    full = np.zeros(r.grid.n, dtype=complex)
    full[keep] = sol
    return inverse_signal(Spectrum(rhat.grid, full))


def noise_stability_sweep(
    s_w: SampledSignal,
    band: Interval,
    window: Interval,
    noise_levels,
    seed: int = 0,
    tol: float = 1e-10,
) -> list[StabilityRow]:
    """Recovery error versus noise strength on the kept samples.

    For each sigma, complex white noise of L2 norm sigma (fixed seed, zeroed
    on the window) is added to the erased signal and the series solver is
    run.  The amplification err/sigma is bounded by the geometric-series
    constant 1/(1 - sqrt(lambda0)) plus 10% slack; each row carries both,
    so the caller can check them.
    """
    report = invertibility_report(s_w.grid, band, window)
    if not report.invertible:
        raise RefusalError(
            f"refusing stability sweep: WT={report.wt:.6g}, lambda0={report.lambda0:.6g}"
        )
    bound = 1.1 / (1.0 - math.sqrt(report.lambda0))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(s_w.grid.n) + 1j * rng.standard_normal(s_w.grid.n)
    raw[window.mask(s_w.grid.times)] = 0.0
    unit = raw / l2_norm(SampledSignal(s_w.grid, raw))
    rows = []
    for sigma in noise_levels:
        sigma = float(sigma)
        model = ErasureModel(
            window=window, source_band=band,
            noise=SampledSignal(s_w.grid, sigma * unit) if sigma > 0.0 else None,
        )
        rec = recover_neumann(erase(s_w, model), band, window, tol=tol)
        err = l2_norm(SampledSignal(s_w.grid, rec.recovered.values - s_w.values))
        amp = err / sigma if sigma > 0.0 else 0.0
        rows.append(StabilityRow(sigma=sigma, err=err, amplification=amp, bound=bound))
    return rows
