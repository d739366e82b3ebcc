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
That basis, lambda0 and the min(M, K) Gram matrix G of E are built once
per (grid, band, window) and shared by the refusal check and all three
solvers.  A series step multiplies by G alone, O(min(M, K)^2) work; below
the limit M K <= WT n + M + K, so min(M, K) is about sqrt(n) at most.
Each solve makes one FFT of its input, at most one back, and at most two
M x K products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Interval, SampledSignal, TimeGrid, l2_norm
from .errors import GridMismatchError, RefusalError
# band_project is unused here but stays bound: perfbench's tracer smoke
# test checks that wrapping reaches subgap.recovery.band_project
from .projections import (  # noqa: F401
    _concentration_operator,
    _require_bandlimited,
    band_project,
    complement_gate,
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

#: largest min(M, K) system the direct solve takes on
DIRECT_SOLVE_DIM_LIMIT = 4096


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

    @property
    def reason(self) -> str:
        """The refusal reason: WT and lambda0, each with its verdict."""
        return (
            f"not invertible: WT={self.wt:.6g} (ok={self.wt_ok}), "
            f"lambda0={self.lambda0:.6g} (ok={self.lambda0_ok})"
        )

    def _require(self, what: str):
        """Unless the gap is invertible, raise RefusalError naming ``what``
        with :attr:`reason`, and carrying this report as ``exc.report``."""
        if not self.invertible:
            raise RefusalError(f"refusing {what}: {self.reason}", report=self)


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
    _require_bandlimited(s_w, model.source_band, "erase() input")
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
    return RecoveryReport(
        recovered=None, iterations=0, residual_history=np.empty(0),
        contraction_estimate=float("nan"), refused=True, reason=report.reason,
        converged=False,
    )


def _prepared(r: SampledSignal, band: Interval, window: Interval):
    """The shared build of E for both the refusal check and the solve.

    Returns (report, op, q, c): q = n * ifft(r) on the in-band bins and c
    the right-hand side of (I - G/n) z = c, E^H q / n when K < M (z is the
    window's h) and q otherwise (z is u); None when the report refuses.
    """
    op = _concentration_operator(r.grid, band, window)
    report = _report(band, window, op.lambda0)
    if not report.invertible:
        return report, op, None, None
    q = np.fft.ifft(r.values)[op.bins] * r.grid.n
    on_window = op.gram.shape[0] < q.size
    return report, op, q, op.e.conj().T @ q / r.grid.n if on_window else q


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a complex vector: its own arithmetic, not its overhead."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _gram_norm(g: np.ndarray, d: np.ndarray) -> float:
    """||E d|| (K < M) or ||E^H d|| (K >= M) from the Gram matrix G of E."""
    return math.sqrt(max(np.vdot(d, g @ d).real, 0.0))


def _in_band_signal(grid: TimeGrid, bins: np.ndarray, u: np.ndarray) -> SampledSignal:
    """The bandlimited signal fft(u on ``bins``) / n, for u in units of q."""
    full = np.zeros(grid.n, dtype=complex)
    full[bins] = u
    return SampledSignal(grid, np.fft.fft(full) / grid.n)


def _neumann_loop(g, c, n: int, measure, tol: float, k_max: int):
    """Iterate z_i = c + (G/n) z_{i-1} from z_0 = 0 in the Gram dimension.

    A step is one product with the min(M, K) Gram matrix G.  With c from
    :func:`_prepared`, z_i = h_i when K < M, else u_{i-1}.  ``measure(z_i,
    z_{i-1}, G z_i)`` returns the update norm and the new iterate's norm,
    in any one unit.  Returns the report fields and the final (z, G z).
    """
    z = gz = np.zeros_like(c)
    rel_history = []
    abs_history = []
    converged = False
    reason = None
    iterations = 0
    for _ in range(k_max):
        iterations += 1
        z_new = c + gz / n
        gz_new = g @ z_new
        abs_up, nrm = measure(z_new, z, gz_new)
        z, gz = z_new, gz_new
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
    return fields, z, gz


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
    invertibility report fails.  Each x_k equals r outside the window, and
    its window samples h_k = E^H u_{k-1} / n follow the series in dimension
    min(M, K) at O(min(M, K)^2) per step, after one FFT of r.
    """
    report, op, q, c = _prepared(r, band, window)
    if not report.invertible:
        return _refusal(report)
    if k_max is None:
        k_max = _default_k_max(report.wt, tol)
    n, g, on_window = r.grid.n, op.gram, c.size < q.size
    r_t = r.values[op.gates]
    outside = np.delete(r.values, op.gates)
    out_sq = float(np.vdot(outside, outside).real)
    er = None if on_window else op.e @ r_t
    in_sq = out_sq + _norm(r_t) ** 2

    def measure(z, z_prev, gz):
        if on_window:  # z is h
            return _norm(z - z_prev), math.sqrt(out_sq + _norm(r_t + z) ** 2)
        # z is u_{k-1} and h = E^H z / n: ||r_t + h||^2 expands with E r_t
        cross = 2.0 * np.vdot(er, z).real / n + np.vdot(z, gz).real / n**2
        return _gram_norm(g, z - z_prev) / n, math.sqrt(in_sq + cross)

    fields, z, _ = _neumann_loop(g, c, n, measure, tol, k_max)
    x = r.values.copy()
    x[op.gates] = r_t + (z if on_window else op.e.conj().T @ z / n)
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
    y_k = fft(u_k) / n for u_k = q + E h_k, so the update norm is
    ||u_k - u_{k-1}|| / sqrt(n) by Parseval; the series runs in dimension
    min(M, K) at O(min(M, K)^2) per step, with one FFT pair per solve.
    """
    report, op, q, c = _prepared(r, band, window)
    if not report.invertible:
        return _refusal(report)
    if k_max is None:
        k_max = _default_k_max(report.wt, tol)
    n, g, on_window = r.grid.n, op.gram, c.size < q.size
    q_sq = _norm(q) ** 2

    def measure(z, z_prev, gz):
        if on_window:  # z is h: ||q + E h||^2 = ||q||^2 + 2 n Re(c^H h) + h^H G h
            u_sq = q_sq + 2.0 * n * np.vdot(c, z).real + np.vdot(z, gz).real
            return _gram_norm(g, z - z_prev), math.sqrt(u_sq)
        u = q + gz / n  # z is u_{k-1}
        return _norm(u - z), _norm(u)

    fields, z, gz = _neumann_loop(g, c, n, measure, tol, k_max)
    u = q + op.e @ z if on_window else q + gz / n
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
        If the invertibility report fails or the solved dimension
        min(M, K) exceeds ``DIRECT_SOLVE_DIM_LIMIT`` = 4096.
    """
    report, op, q, c = _prepared(r, band, window)
    report._require("direct solve")
    if c.size > DIRECT_SOLVE_DIM_LIMIT:
        raise RefusalError(
            f"direct-solve dimension min(M, K) = {c.size} exceeds "
            f"{DIRECT_SOLVE_DIM_LIMIT}"
        )
    z = np.linalg.solve(np.eye(c.size) - op.gram / r.grid.n, c)
    u = q + op.e @ z if c.size < q.size else z
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
    so the caller can check them.  ``s_w`` is erased, and so checked for
    bandlimitedness, once for the whole sweep; a sigma that is negative or
    not finite raises ValueError.
    """
    report = invertibility_report(s_w.grid, band, window)
    report._require("stability sweep")
    sigmas = [float(sigma) for sigma in noise_levels]
    if not all(math.isfinite(sigma) and sigma >= 0.0 for sigma in sigmas):
        raise ValueError(f"noise levels must be finite and >= 0, got {sigmas}")
    bound = 1.1 / (1.0 - math.sqrt(report.lambda0))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(s_w.grid.n) + 1j * rng.standard_normal(s_w.grid.n)
    raw[window.mask(s_w.grid.times)] = 0.0
    unit = raw / l2_norm(SampledSignal(s_w.grid, raw))
    clean = erase(s_w, ErasureModel(window=window, source_band=band))
    rows = []
    for sigma in sigmas:
        r = clean
        if sigma > 0.0:
            r = SampledSignal(s_w.grid, clean.values + sigma * unit)
        rec = recover_neumann(r, band, window, tol=tol)
        err = l2_norm(SampledSignal(s_w.grid, rec.recovered.values - s_w.values))
        amp = err / sigma if sigma > 0.0 else 0.0
        rows.append(StabilityRow(sigma=sigma, err=err, amplification=amp, bound=bound))
    return rows
