"""Erasure of a time interval and its deterministic inversion.

An eraser 1 - P_T removes every sample inside a window [T] from a signal
bandlimited to [W].  For WT < 1 the map s |-> (1 - P_T) s is injective on
the bandlimited subspace and its inverse is the geometric operator series
(1 - P_T P_W)^{-1} = sum_k (P_T P_W)^k.  Every update after the first
lies in the window, where a step applies P_T P_W P_T, so the series
contracts at lambda0 = ||P_T P_W||^2 <= WT.  This module provides the
series solver, a variant that iterates entirely on bandlimited data, an
in-band direct solve, and a noise-amplification sweep.

Every term of the series after the first changes the signal only inside
the window, so the solvers work in the exact-phase basis E of the M
in-band bins and the K gated samples (``projections._gated_exponentials``).
That basis, lambda0 and A = G/n, the min(M, K) Gram matrix G of E over n,
are built once per (grid, band, window) and shared by the refusal check
and all three solvers.  The FFT of an erased signal comes from core's one
signal memo, ``core._dft``: three solves of one signal make one FFT of it
between them, after the report passes, and each forms its right-hand
side from the in-band bins.  A series step is one product with A,
O(min(M, K)^2) work; below the limit M K <= WT n + M + K, so min(M, K) is
about sqrt(n) at most.  Each solve then makes at most one FFT back and at
most two M x K products, neither of which copies E.  Each report stores
only the values that decide it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Interval, SampledSignal, TimeGrid, _dft, _is_int, _keep_arrays, l2_norm
from .errors import RefusalError
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
    """The erasure channel: the unobserved window and the source band."""

    window: Interval
    source_band: Interval


@dataclass(frozen=True)
class InvertibilityReport:
    """Whether (1 - P_T P_W) is invertible, read from lambda0 and WT alone."""

    lambda0: float
    wt: float

    @property
    def wt_ok(self) -> bool:
        return self.wt < 1.0

    @property
    def lambda0_ok(self) -> bool:
        return self.lambda0 <= 1.0 - LAMBDA_MARGIN

    @property
    def invertible(self) -> bool:
        return self.wt_ok and self.lambda0_ok

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


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Outcome of an iterative recovery.

    ``residual_history`` holds the relative update norm of each iteration,
    decaying at ``contraction_estimate``, which tends to lambda0 =
    ||P_T P_W||^2 <= WT.  ``recovered`` is
    None when the solver refused; ``reason`` is None when it converged.
    """

    recovered: SampledSignal | None
    residual_history: np.ndarray = field(repr=False)
    contraction_estimate: float
    reason: str | None

    def __post_init__(self):
        _keep_arrays(self, residual_history=float)

    @property
    def iterations(self) -> int:
        return self.residual_history.size

    @property
    def refused(self) -> bool:
        return self.recovered is None

    @property
    def converged(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class StabilityRow:
    """One noise level of a stability sweep."""

    sigma: float
    err: float
    amplification: float


def erase(s_w: SampledSignal, model: ErasureModel) -> SampledSignal:
    """Apply the erasure channel: r = (1 - P_T) s_W.

    The input must be bandlimited to ``model.source_band`` (the receiver
    knows the band); out-of-band energy above 1e-10 relative is rejected.
    """
    _require_bandlimited(s_w, model.source_band, "erase() input")
    return complement_gate(s_w, model.window)


def invertibility_report(grid: TimeGrid, band: Interval, window: Interval) -> InvertibilityReport:
    """Check WT < 1 and lambda0 <= 1 - 1e-6, reported separately.

    WT >= 1 is the fatal case (the eraser can hide a genuinely bandlimited
    waveform); the extra lambda0 margin guards discretization corner cases
    where WT < 1 but the discrete operator is near singular.
    """
    lam = _concentration_operator(grid, band, window).lambda0
    return InvertibilityReport(lambda0=lam, wt=band.width * window.width)


def _step_limit(wt: float, tol: float, k_max: int | None) -> int:
    """``k_max``, or by default the steps to ``tol`` at rate sqrt(WT) plus 50;
    ValueError names ``k_max`` unless it is None or an integer >= 0, not a
    bool, and ``tol`` unless it is finite and > 0, or 0 with a k_max."""
    if k_max is not None and not (_is_int(k_max) and k_max >= 0):
        raise ValueError(f"k_max must be an integer >= 0 or None, got {k_max!r}")
    if not (math.isfinite(tol) and (tol > 0.0 or (tol == 0.0 and k_max is not None))):
        raise ValueError(f"tol must be finite and > 0 (0 only with a k_max), got {tol!r}")
    if k_max is not None:
        return k_max
    if wt <= 0.0:
        return 50
    rho = math.sqrt(min(wt, 1.0 - 1e-12))
    return int(math.ceil(math.log(tol) / math.log(rho))) + 50


def _refusal(report: InvertibilityReport) -> RecoveryReport:
    return RecoveryReport(
        recovered=None, residual_history=(),
        contraction_estimate=float("nan"), reason=report.reason,
    )


def _prepared(r: SampledSignal, band: Interval, window: Interval):
    """The refusal check, then the transform of ``r`` that every solve shares.

    Returns (report, op, q, c): q = n * ifft(r) on the in-band bins and c
    the right-hand side of (I - A) z = c, E^H q / n when K < M (z is the
    window's h) and q otherwise (z is u); None when the report refuses.
    :func:`invertibility_report` decides on every call from the cached
    lambda0; only a passing report reads the FFT of r, from
    :func:`core._dft`, so a refusal makes none.
    """
    op = _concentration_operator(r.grid, band, window)
    report = invertibility_report(r.grid, band, window)
    if not report.invertible:
        return report, op, None, None
    n = r.grid.n
    q = _dft(r)[op.bins] * n
    c = (q.conj() @ op.e).conj() / n if op.on_window else q  # E^H q / n
    return report, op, q, c


def _sq(x: np.ndarray) -> float:
    """The squared L2 norm of a complex vector, by one BLAS dot."""
    return np.vdot(x, x).real


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_sq(x))


def _a_norm_sq(z, z_prev, az, az_prev) -> float:
    """d^H A d for d = z - z_prev, from the products A z and A z_prev."""
    return max(np.vdot(z - z_prev, az - az_prev).real, 0.0)


def _in_band_signal(grid: TimeGrid, bins: np.ndarray, u: np.ndarray) -> SampledSignal:
    """The bandlimited signal fft(u on ``bins``) / n, for u in units of q."""
    full = np.zeros(grid.n, dtype=complex)
    full[bins] = u
    return SampledSignal(grid, np.fft.fft(full) / grid.n)


def _neumann_loop(a, c, measure, tol: float, k_max: int):
    """Iterate z_i = c + A z_{i-1} from z_0 = 0 in the Gram dimension.

    A = G/n is the operator's own, and a step is one product with it.
    With c from :func:`_prepared`, z_i = h_i when K < M, else u_{i-1}.
    ``measure(z_i, z_{i-1}, A z_i, A z_{i-1})`` returns the update norm
    and the new iterate's norm, in any one unit; A (z_i - z_{i-1}) is the
    difference of the last two products, so it costs no third.  Returns
    the report fields and the final (z, A z).
    """
    z = az = np.zeros_like(c)
    rel_history = []
    abs_history = []
    reason = None
    for _ in range(k_max):
        z_new = c + az
        az_new = a.dot(z_new)  # the BLAS gemv of `@` at less call overhead
        abs_up, nrm = measure(z_new, z, az_new, az)
        z, az = z_new, az_new
        rel = abs_up / max(nrm, 1e-300)
        rel_history.append(rel)
        abs_history.append(abs_up)
        if rel < tol:
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
        residual_history=rel_history,
        contraction_estimate=contraction, reason=reason,
    )
    return fields, z, az


def recover_neumann(
    r: SampledSignal,
    band: Interval,
    window: Interval,
    tol: float = 1e-10,
    k_max: int | None = None,
) -> RecoveryReport:
    """Recover s_W from r = (1 - P_T) s_W by x_{k+1} = r + P_T P_W x_k.

    The iterates converge to the unique bandlimited preimage; every update
    after the first lies in the window and shrinks by P_T P_W P_T, so the
    series contracts at lambda0 = ||P_T P_W||^2 <= WT.  Refuses (without
    iterating) when the invertibility report fails.  Each x_k equals r
    outside the window, and its window samples h_k = E^H u_{k-1} / n
    follow the series in dimension min(M, K) at O(min(M, K)^2) per step,
    after one FFT of r.
    """
    k_max = _step_limit(band.width * window.width, tol, k_max)
    report, op, _, c = _prepared(r, band, window)
    if not report.invertible:
        return _refusal(report)
    n, on_window = r.grid.n, op.on_window
    # the gates are one contiguous run, so the samples outside the window
    # are the two slices around it
    k0 = op.gates[0] if op.gates.size else 0
    before, r_t, after = np.split(r.values, [k0, k0 + op.gates.size])
    out_sq = _sq(before) + _sq(after)
    er = None if on_window else op.e @ r_t
    in_sq = out_sq + _sq(r_t)

    def measure(z, z_prev, az, az_prev):
        if on_window:  # z is h
            return _norm(z - z_prev), math.sqrt(out_sq + _sq(r_t + z))
        # z is u_{k-1} and h = E^H z / n, so ||h - h_prev||^2 = d^H A d / n
        # and ||r_t + h||^2 expands with E r_t
        cross = (2.0 * np.vdot(er, z).real + np.vdot(z, az).real) / n
        return math.sqrt(_a_norm_sq(z, z_prev, az, az_prev) / n), math.sqrt(in_sq + cross)

    fields, z, _ = _neumann_loop(op.a, c, measure, tol, k_max)
    x = r.values.copy()
    x[op.gates] = r_t + (z if on_window else (z.conj() @ op.e).conj() / n)
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
    k_max = _step_limit(band.width * window.width, tol, k_max)
    report, op, q, c = _prepared(r, band, window)
    if not report.invertible:
        return _refusal(report)
    n, on_window = r.grid.n, op.on_window
    q_sq = _sq(q)

    def measure(z, z_prev, az, az_prev):
        if on_window:  # z is h: ||q + E h||^2 = ||q||^2 + n (2 Re(c^H h) + h^H A h)
            u_sq = q_sq + n * (2.0 * np.vdot(c, z).real + np.vdot(z, az).real)
            return math.sqrt(n * _a_norm_sq(z, z_prev, az, az_prev)), math.sqrt(u_sq)
        u = q + az  # z is u_{k-1}
        return _norm(u - z), _norm(u)

    fields, z, az = _neumann_loop(op.a, c, measure, tol, k_max)
    u = q + op.e @ z if on_window else q + az
    return RecoveryReport(recovered=_in_band_signal(r.grid, op.bins, u), **fields)


def recover_direct(r: SampledSignal, band: Interval, window: Interval) -> SampledSignal:
    """Direct in-band solve of (1 - P_W P_T) s_hat = P_W r_hat.

    Works on the in-band coefficients u = n * ifft(s) of the solution,
    where the restricted operator is I - B with B = E E^H / n the in-band
    concentration matrix (M in-band bins, K gated samples, E the
    exact-phase basis) and the right-hand side is q = n * ifft(r) on the
    band.  The solve runs in dimension min(M, K): for K < M by the
    Woodbury identity
    (I - E E^H / n)^{-1} q = q + E (I - A)^{-1} E^H q / n, with the
    operator's A = E^H E / n that lambda0 came from.  Since I - B
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
    z = np.linalg.solve(np.eye(c.size) - op.a, c)
    u = q + op.e @ z if op.on_window else z
    return _in_band_signal(r.grid, op.bins, u)


def noise_stability_sweep(
    s_w: SampledSignal,
    band: Interval,
    window: Interval,
    noise_levels,
    seed: int = 0,
) -> tuple[list[StabilityRow], float]:
    """Recovery error versus noise strength on the kept samples.

    For each sigma, complex white noise of L2 norm sigma (fixed seed, zeroed
    on the window) is added to the erased signal and the series solver is
    run to tol = 1e-10.  The amplification err/sigma is bounded by the
    geometric-series constant 1/(1 - sqrt(lambda0)) plus 10% slack, one
    value for the sweep: returns (rows, bound), so the caller can check
    each row against it.  ``s_w`` is erased, and so checked for
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
    noise = complement_gate(SampledSignal(s_w.grid, raw), window)
    unit = noise.values / l2_norm(noise)
    clean = erase(s_w, ErasureModel(window=window, source_band=band))
    rows = []
    for sigma in sigmas:
        r = clean
        if sigma > 0.0:
            r = SampledSignal(s_w.grid, clean.values + sigma * unit)
        rec = recover_neumann(r, band, window, tol=1e-10)
        err = l2_norm(SampledSignal(s_w.grid, rec.recovered.values - s_w.values))
        amp = err / sigma if sigma > 0.0 else 0.0
        rows.append(StabilityRow(sigma=sigma, err=err, amplification=amp))
    return rows, bound
