"""Erasure of a time interval and its deterministic inversion.

An eraser 1 - P_T removes every sample inside a window [T] from a signal
bandlimited to [W].  For WT < 1 the map s |-> (1 - P_T) s is injective on
the bandlimited subspace and its inverse is the geometric operator series
(1 - P_T P_W)^{-1} = sum_k (P_T P_W)^k, which contracts at rate
||P_T P_W|| <= sqrt(WT).  This module provides the series solver, a
variant that iterates entirely on bandlimited data, an in-band direct
solve, and a noise-amplification sweep.

Every term of the series after the first changes the signal only inside
the window, so the solvers work in the exact-phase basis E of the M
in-band bins and the K gated samples (``projections._gated_exponentials``).
That basis and lambda0 are built once per (grid, band, window) and shared
by the refusal check and all three solvers.  A series step is two M x K
products, O(M K) work, which is less than one length-n FFT whenever WT < 1
(M K <= WT n + M + K); each solve makes one FFT of its input and at most
one back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Interval, SampledSignal, TimeGrid, l2_norm
from .errors import GridMismatchError, NotBandlimitedError, RefusalError
# band_project is unused here but stays bound: perfbench's tracer smoke
# test checks that wrapping reaches subgap.recovery.band_project
from .projections import (  # noqa: F401
    BANDLIMIT_TOL,
    _concentration_operator,
    band_project,
    complement_gate,
    out_of_band_fraction,
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
    be finite and vanish on the erased window.
    """

    window: Interval
    source_band: Interval
    noise: SampledSignal | None = None

    def __post_init__(self):
        if self.noise is not None:
            if not np.all(np.isfinite(self.noise.values)):
                raise ValueError("noise must be finite")
            inside = self.window.mask(self.noise.grid.times)
            if not np.all(np.abs(self.noise.values[inside]) <= 0.0):
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


def _report(band: Interval, window: Interval, lam: float) -> InvertibilityReport:
    wt = band.width * window.width
    wt_ok = wt < 1.0
    lam_ok = lam <= 1.0 - LAMBDA_MARGIN
    return InvertibilityReport(
        lambda0=lam, wt=wt, wt_ok=wt_ok, lambda0_ok=lam_ok,
        invertible=wt_ok and lam_ok,
    )


def invertibility_report(grid: TimeGrid, band: Interval, window: Interval) -> InvertibilityReport:
    """Check WT < 1 and lambda0 <= 1 - 1e-6, reported separately.

    WT >= 1 is the fatal case (the eraser can hide a genuinely bandlimited
    waveform); the extra lambda0 margin guards discretization corner cases
    where WT < 1 but the discrete operator is near singular.
    """
    return _report(band, window, _concentration_operator(grid, band, window).lambda0)


def _default_k_max(wt: float, tol: float) -> int:
    if wt <= 0.0:
        return 50
    rho = math.sqrt(min(wt, 1.0 - 1e-12))
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


def _prepared(r: SampledSignal, band: Interval, window: Interval):
    """The shared build of E for both the refusal check and the solve.

    Returns (report, op, q) with q = n * ifft(r) on the in-band bins; q is
    None when the report refuses.
    """
    op = _concentration_operator(r.grid, band, window)
    report = _report(band, window, op.lambda0)
    q = np.fft.ifft(r.values)[op.bins] * r.grid.n if report.invertible else None
    return report, op, q


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a complex vector: its own arithmetic, not its overhead."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _in_band_signal(grid: TimeGrid, bins: np.ndarray, u: np.ndarray) -> SampledSignal:
    """The bandlimited signal fft(u on ``bins``) / n, for u in units of q."""
    full = np.zeros(grid.n, dtype=complex)
    full[bins] = u
    return SampledSignal(grid, np.fft.fft(full) / grid.n)


def _neumann_loop(e, q, n: int, measure, tol: float, k_max: int):
    """Iterate h_i = E^H (q + E h_{i-1}) / n from h_0 = 0 on the window.

    Each step is two M x K products and also forms u_i = q + E h_i, the
    in-band coefficients of the band iterate.  ``measure(h, u, h_prev,
    u_prev)`` returns the step's update norm and the new iterate's norm,
    in any one unit.  Returns the report fields and the final (h, u).
    """
    eh = e.conj().T
    h = np.zeros(e.shape[1], dtype=complex)
    u = q
    rel_history = []
    abs_history = []
    converged = False
    reason = None
    iterations = 0
    for _ in range(k_max):
        iterations += 1
        h_new = (eh @ u) / n
        u_new = q + e @ h_new
        abs_up, nrm = measure(h_new, u_new, h, u)
        h, u = h_new, u_new
        rel = abs_up / max(nrm, 1e-300)
        rel_history.append(rel)
        abs_history.append(abs_up)
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
    fields = dict(
        iterations=iterations, residual_history=np.asarray(rel_history),
        contraction_estimate=contraction, refused=False, reason=reason,
        converged=converged,
    )
    return fields, h, u


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
    invertibility report fails.  Each x_k equals r outside the window, so
    the series runs on the window's K samples at O(M K) per step, after
    one FFT of r.
    """
    report, op, q = _prepared(r, band, window)
    if not report.invertible:
        return _refusal(report)
    if k_max is None:
        k_max = _default_k_max(report.wt, tol)
    r_t = r.values[op.gates]
    outside = np.delete(r.values, op.gates)
    out_sq = float(np.vdot(outside, outside).real)

    def measure(h, u, h_prev, u_prev):
        x_t = r_t + h
        return (
            _norm(h - h_prev),
            math.sqrt(out_sq + float(np.vdot(x_t, x_t).real)),
        )

    fields, h, _ = _neumann_loop(op.e, q, r.grid.n, measure, tol, k_max)
    x = r.values.copy()
    x[op.gates] = r_t + h
    return RecoveryReport(recovered=SampledSignal(r.grid, x), **fields)


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
    y_k = fft(u_k) / n for in-band coefficients u_k = q + E h_k, so each
    step costs O(M K) and the update norm is ||u_k - u_{k-1}|| / sqrt(n)
    by Parseval; one FFT pair per solve.
    """
    report, op, q = _prepared(r, band, window)
    if not report.invertible:
        return _refusal(report)
    if k_max is None:
        k_max = _default_k_max(report.wt, tol)

    def measure(h, u, h_prev, u_prev):
        return _norm(u - u_prev), _norm(u)

    fields, _, u = _neumann_loop(op.e, q, r.grid.n, measure, tol, k_max)
    return RecoveryReport(recovered=_in_band_signal(r.grid, op.bins, u), **fields)


def recover_direct(r: SampledSignal, band: Interval, window: Interval) -> SampledSignal:
    """Direct in-band solve of (1 - P_W P_T) s_hat = P_W r_hat.

    Works on the in-band coefficients u = n * ifft(s) of the solution,
    where the restricted operator is I - B with B = c E E^H the in-band
    concentration matrix (M in-band bins, K gated samples, E the
    exact-phase basis, c = 1/n) and the right-hand side is q = n * ifft(r)
    on the band.  The solve runs in dimension min(M, K): for K < M by the
    Woodbury identity
    (I - c E E^H)^{-1} q = q + c E (I - c E^H E)^{-1} E^H q, with the
    min(M, K) Gram matrix that lambda0 came from.  Since I - B
    is Hermitian with B PSD, its condition number is at most
    1/(1 - lambda0), so at most 1e6 once the invertibility report passes.
    Cross-checks the series solvers to 1e-8.

    Raises
    ------
    RefusalError
        If the invertibility report fails or the in-band dimension M
        exceeds 4096.
    """
    report, op, q = _prepared(r, band, window)
    if not report.invertible:
        raise RefusalError(
            f"refusing direct solve: WT={report.wt:.6g}, lambda0={report.lambda0:.6g}"
        )
    e = op.e
    m, k = e.shape
    if m > 4096:
        raise RefusalError(f"in-band dimension {m} exceeds 4096")
    n = r.grid.n
    if k < m:
        u = q + e @ np.linalg.solve(np.eye(k) - op.gram / n, (e.conj().T @ q) / n)
    else:
        u = np.linalg.solve(np.eye(m) - op.gram / n, q)
    return _in_band_signal(r.grid, op.bins, u)


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
