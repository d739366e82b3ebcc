"""Recovery of momentum-limited quantum states with a coordinate gap.

The coordinate/momentum analogue of the classical erasure problem, in the
convention 2 pi hbar = 1 with <x|p> = exp(+2 pi i p x) (note the opposite
sign from the signal-side transform).  A state momentum-limited to a band
[P] that loses an interval [X] of its coordinate dependence can be
recovered whenever XP < 1:

* gating (1 - P_X) spills momentum outside [P];
* smoothing P_P closes the coordinate gap;
* the original state is the geometric series
  (1 - P_P P_X P_P)^{-1} P_P psi_M up to normalization.

Only the kernel's sign differs from the signal side, so each momentum-side
operator is the conjugate of a signal-side one, applied to the state's twin
conj psi (built once per state): momentum_spectrum(psi) =
conj(forward_spectrum(conj psi)), P_P = conj P_W conj and P_X = P_T.  The
transform pair, the inner product, the norm, the projectors (P_X is
:func:`time_gate`), the concentration bound, the refusal policy and the
Neumann series thus exist once; :func:`recover_state` raises
NonConvergenceError when the series stops short of its tolerance.

The smoothed state is observable through free evolution: the coordinate
diagonal rho(x, t) of exp(-iHt) rho exp(+iHt), H = p^2/2m, exposes each
off-diagonal momentum pair through its own frequency omega(p) - omega(p'),
so a least-squares fit over (x, t) samples recovers the density matrix.
The momentum-diagonal populations enter rho(x, t) only through their sum
(their spatial factor is identically 1), so the fit solves for the
off-diagonals plus the trace and completes individual populations under a
rank-1 assumption; see :func:`tomography_solve`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .core import (
    _keep_arrays,
    Interval,
    SampledSignal,
    Spectrum,
    TimeGrid,
    forward_spectrum,
    inner_product,
    inverse_signal,
    l2_norm,
)
from .errors import (
    BoundViolationError,
    DegenerateDesignError,
    NonConvergenceError,
    RefusalError,
)
from .projections import (
    _band_mask,
    _require_bandlimited,
    band_project,
    complement_gate,
    concentration_ratio,
)
from .recovery import invertibility_report, recover_band_neumann

__all__ = [
    "WaveFunction",
    "PhaseSpaceWindows",
    "DensityMatrix",
    "EvolutionSamples",
    "TomographyResult",
    "momentum_spectrum",
    "position_wave",
    "momentum_limit",
    "fidelity",
    "landau_pollak_ratio",
    "gate_state",
    "momentum_smooth",
    "recover_state",
    "build_density",
    "evolve_diagonal_series",
    "tomography_solve",
    "rank1_extract",
]

#: second eigenvalue above which a density matrix is not numerically rank 1
RANK1_TOL = 1e-6

#: design condition number above which tomography refuses
DESIGN_COND_LIMIT = 1e10

#: design condition number up to which tomography solves its normal
#: equations; past it, and always when refusing, it solves by SVD
GRAM_COND_LIMIT = 1e6

#: rows per block of the in-place inverse Cholesky factor
_CHOLESKY_BLOCK = 128


@dataclass(frozen=True, eq=False)
class WaveFunction(SampledSignal):
    """Complex amplitudes <x|psi> on a coordinate grid (a TimeGrid reused).

    ``normalized`` marks states known to have unit norm (checked to 1e-12
    at construction).
    """

    normalized: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.normalized:
            nrm = l2_norm(self)
            if not abs(nrm - 1.0) <= 1e-12:
                raise ValueError(f"flagged normalized but ||psi|| = {nrm!r}")

    @cached_property
    def _twin(self) -> SampledSignal:
        """conj psi, built once; the momentum side hands it to the signal side."""
        return _conj(self)


@dataclass(frozen=True)
class PhaseSpaceWindows:
    """The coordinate window [X] and momentum band [P] of one experiment."""

    x_window: Interval
    p_band: Interval

    @property
    def xp(self):
        """The phase-space product XP that gates every recovery guarantee."""
        return self.x_window.width * self.p_band.width


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian matrix rho_jk on a finite momentum grid.

    ``p_grid`` lists the bin momenta (uniform spacing; the symmetric-grid
    tests leave out p = 0, so the bin weight is taken as the smallest
    spacing).  ``grid`` optionally remembers the coordinate grid the matrix
    was built on, letting :func:`rank1_extract` rebuild a wavefunction.
    Non-finite entries, an empty or repeated p_grid, or mass not > 0 raise ValueError.
    """

    p_grid: np.ndarray = field(repr=False)
    elements: np.ndarray = field(repr=False)
    mass: float = 1.0
    grid: TimeGrid | None = None

    def __post_init__(self):
        p, e = _keep_arrays(self, p_grid=float, elements=complex)
        _require_finite(p_grid=p, elements=e)
        if p.ndim != 1 or e.shape != (p.size, p.size):
            raise ValueError(
                f"elements shape {e.shape} does not match p_grid size {p.size}"
            )
        _bin_weight(p, self.mass, need=1)
        scale = max(1.0, float(np.max(np.abs(e))))
        if np.max(np.abs(e - e.conj().T)) > 1e-12 * scale:
            raise ValueError("elements are not Hermitian to 1e-12")

    @property
    def trace(self):
        return float(np.real(np.trace(self.elements)))

    @property
    def bin_weight(self):
        """Momentum measure per bin: the smallest grid spacing."""
        return _bin_weight(self.p_grid, self.mass)

    @property
    def omegas(self):
        """Free-evolution frequencies omega(p) = p^2 / (2 m)."""
        return self.p_grid**2 / (2.0 * self.mass)


@dataclass(frozen=True, eq=False)
class EvolutionSamples:
    """Readings of the coordinate diagonal rho(x, t), shape (t, x)."""

    x_points: np.ndarray = field(repr=False)
    t_points: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        x, t, v = _keep_arrays(self, x_points=float, t_points=float, values=float)
        if v.shape != (t.size, x.size):
            raise ValueError(
                f"values shape {v.shape} does not match (t, x) = ({t.size}, {x.size})"
            )
        _require_finite(x_points=x, t_points=t, values=v)
        if v.size and v.min() < -1e-10:
            raise ValueError(
                f"probability readings must be >= -1e-10, got min {v.min():.3e}"
            )


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Density-matrix fit plus its diagnostics.

    ``populations_resolved`` is False when the off-diagonals were too small
    to pin individual populations (only their sum is then meaningful);
    ``psd_projected`` reports that the positivity guard fired.  ``solver``
    names the path that fitted the design: ``"gram"`` (refined normal
    equations) or ``"svd"``.

    ``condition_number`` is the design's exact condition number.  The SVD
    path, and a Gram fit that needed it for the path switch, know it when
    they return; otherwise ``_condition`` holds the design's phase factors
    and computes it once, on first read, as sqrt(lmax / lmin) of the
    rebuilt Gram matrix.
    """

    rho: DensityMatrix
    residual: float
    populations_resolved: bool
    psd_projected: bool
    solver: str
    _condition: Callable[[], float] = field(repr=False)

    @cached_property
    def condition_number(self) -> float:
        return self._condition()


def _require_finite(**fields):
    """Raise ValueError naming the first field with a non-finite entry."""
    for name, arr in fields.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")


def _bin_weight(p: np.ndarray, mass: float, need: int = 2) -> float:
    """The momentum measure per bin, the smallest spacing of ``p``; ValueError
    names ``mass`` unless finite and > 0, ``p_grid`` on a repeated momentum."""
    if not (np.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and > 0, got {mass!r}")
    if p.size < need:
        raise ValueError(f"need at least {need} momentum bins")
    dp = float(np.min(np.diff(np.sort(p)), initial=np.inf))
    if not dp > 0.0:
        raise ValueError("p_grid contains duplicate momenta")
    return dp


def _conj(obj, kind=SampledSignal):
    """The complex conjugate of a wavefunction or spectrum, as a ``kind``."""
    return kind(obj.grid, np.conj(obj.values))


def _normalized(psi, empty: str) -> WaveFunction:
    """``psi`` divided by its norm; ValueError(``empty``) unless the norm is > 0."""
    nrm = l2_norm(psi)
    if not nrm > 0.0:
        raise ValueError(empty)
    return WaveFunction(psi.grid, psi.values / nrm, normalized=True)


def momentum_spectrum(psi: WaveFunction) -> Spectrum:
    """psi_hat(p) = dx * sum_x psi(x) exp(-2 pi i p x) on the dual grid.

    The conjugate of :func:`forward_spectrum`: conj(forward_spectrum(conj psi)).
    """
    return _conj(forward_spectrum(psi._twin), Spectrum)


def position_wave(spec: Spectrum) -> WaveFunction:
    """Inverse of :func:`momentum_spectrum`: psi(x) = dp * sum_p psi_hat exp(+2 pi i p x)."""
    return _conj(inverse_signal(_conj(spec, Spectrum)), WaveFunction)


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """|<a|b>| / (||a|| ||b||): overlap magnitude, phase-free.

    The overlap is :func:`inner_product`, so states on different grids
    raise GridMismatchError; ValueError when either state has norm 0.
    """
    overlap = abs(inner_product(a, b))
    na, nb = l2_norm(a), l2_norm(b)
    if not (na > 0.0 and nb > 0.0):
        raise ValueError(f"fidelity needs two nonzero states, got norms {na}, {nb}")
    return overlap / (na * nb)


def momentum_limit(psi: WaveFunction, band: Interval) -> WaveFunction:
    """Apply P_P: zero momentum components outside ``band`` (conj P_W conj)."""
    return _conj(band_project(psi._twin, band), WaveFunction)


def landau_pollak_ratio(psi: WaveFunction, windows: PhaseSpaceWindows) -> float:
    """Conditional probability <psi|P_P P_X P_P|psi> / <psi|P_P|psi>.

    Bounded by lambda0 ~ XP of P_P P_X P_P: a momentum-limited
    state cannot concentrate in a coordinate window smaller than the
    uncertainty limit allows.  The signal-side :func:`concentration_ratio`
    of conj psi, which raises :class:`BoundViolationError` past lambda0.
    """
    return concentration_ratio(psi._twin, windows.p_band, windows.x_window)


def gate_state(psi_p: WaveFunction, windows: PhaseSpaceWindows) -> WaveFunction:
    """Post-measurement state psi_M = (1 - P_X) psi_P / ||(1 - P_X) psi_P||.

    The input must be momentum-limited to [P].  The gated state vanishes
    on [X] and, by the spill bound, carries momentum outside [P]: the gap
    spoils the momentum limit.
    """
    _require_bandlimited(psi_p._twin, windows.p_band, "state (in momentum)")
    gated = complement_gate(psi_p, windows.x_window)
    return _normalized(gated, "gating removed the entire state")


def momentum_smooth(psi_m: WaveFunction, windows: PhaseSpaceWindows) -> WaveFunction:
    """Normalized P_P psi_M: momentum-limited again, coordinate gap closed.

    Equals (1 - P_P P_X P_P) psi_P up to normalization when psi_M came
    from :func:`gate_state`; inside [X] its profile is the original state
    minus the band kernel averaged over the window, so the gap is smoothed
    away rather than empty.
    """
    limited = momentum_limit(psi_m, windows.p_band)
    return _normalized(limited, "state has no energy inside the momentum band")


def recover_state(
    psi_m_projected: WaveFunction,
    windows: PhaseSpaceWindows,
    tol: float = 1e-8,
    k_max: int | None = None,
) -> WaveFunction:
    """Invert the gap: psi_P from the series sum_k (P_P P_X P_P)^k P_P psi_M.

    The conjugate of :func:`recover_band_neumann` on conj psi_M, with [P]
    as the band and [X] as the window, normalized at the end (the scale
    lost to gating is a normalization constant).  The map is linear
    before that, so a global phase on the input reappears on the output.
    Raises RefusalError from the invertibility report (XP >= 1, reported
    as WT, or lambda0 > 1 - 1e-6), and NonConvergenceError when the
    series stops before its relative update falls below ``tol``.
    """
    report = invertibility_report(psi_m_projected.grid, windows.p_band, windows.x_window)
    report._require("state recovery")
    rep = recover_band_neumann(
        psi_m_projected._twin, windows.p_band, windows.x_window, tol, k_max
    )
    if not rep.converged:
        raise NonConvergenceError(f"state recovery stopped: {rep.reason}")
    return _normalized(_conj(rep.recovered, WaveFunction), "recovered state is zero")


def build_density(psi: WaveFunction, band: Interval) -> DensityMatrix:
    """Rank-1 density matrix of ``psi`` on the momentum bins inside ``band``.

    The state must be momentum-limited to the band; coefficients are
    normalized so the trace is exactly 1.  The guard's FFT of the twin is reused.
    """
    _require_bandlimited(psi._twin, band, "state (in momentum)")
    spec = momentum_spectrum(psi)
    keep = _band_mask(psi.grid, band)
    p_grid = spec.grid.frequencies[keep]
    c = spec.values[keep] * np.sqrt(spec.grid.dw)
    nrm = np.linalg.norm(c)
    if nrm <= 0.0:
        raise ValueError("state has no energy inside the momentum band")
    c = c / nrm
    return DensityMatrix(
        p_grid=p_grid, elements=np.outer(c, c.conj()), mass=1.0, grid=psi.grid
    )


def evolve_diagonal_series(rho: DensityMatrix, x_points, t_points) -> EvolutionSamples:
    """Coordinate diagonal rho(x, t) under free evolution.

    rho(x, t) = dp * sum_jk exp(2 pi i (p_j - p_k) x) exp(-i (w_j - w_k) t)
    rho_jk, real by Hermiticity; the x points need not lie on any grid.
    With B[t, x, j] = exp(-i w_j t) exp(2 pi i p_j x), each reading is
    dp * (B rho B^H)[t, x], one batched product over every (t, x).
    """
    x = np.asarray(x_points, dtype=float)
    t = np.asarray(t_points, dtype=float)
    _require_finite(x_points=x, t_points=t)
    u = np.exp(-1j * np.outer(t, rho.omegas))
    b = u[:, None, :] * np.exp(2j * np.pi * np.outer(x, rho.p_grid))[None, :, :]
    vals = np.einsum("txj,txj->tx", b @ rho.elements, b.conj())
    imag = np.max(np.abs(vals.imag), axis=1, initial=0.0)
    scale = np.max(np.abs(vals.real), axis=1, initial=1.0)
    bad = np.flatnonzero(~(imag <= 1e-10 * scale))
    if bad.size:
        i = bad[0]
        raise BoundViolationError(
            f"density has imaginary part {imag[i]:.3e} at t={t[i]}"
        )
    return EvolutionSamples(x_points=x, t_points=t, values=rho.bin_weight * vals.real)


def tomography_solve(
    samples: EvolutionSamples,
    p_grid,
    mass: float = 1.0,
    grid: TimeGrid | None = None,
) -> TomographyResult:
    """Least-squares fit of the density matrix to evolution samples.

    Each off-diagonal pair (j, k) contributes the sampled waveform
    2 dp [Re rho_jk cos(phi) - Im rho_jk sin(phi)],
    phi = 2 pi (p_j - p_k) x - (w_j - w_k) t, while every diagonal element
    contributes the same constant dp: individual populations are invisible
    beyond their sum.  The design therefore carries one trace column plus
    two columns per pair; after solving, populations are completed from
    the rank-1 relations rho_jj rho_kk = |rho_jk|^2 (log-magnitude least
    squares, then scaled to the fitted trace).  When the off-diagonals are
    too small to support that (e.g. a diagonal truth), the trace is spread
    uniformly and ``populations_resolved`` is set False.

    The samples form a t-by-x grid, so each pair's phase factor separates,
    exp(i phi) = U[t, a] V[x, a] with U = exp(-i t (w_j - w_k)) and
    V = exp(2 pi i x (p_j - p_k)), and the design is never built on the
    main path.  Its Gram matrix G comes from the Hadamard products
    (U^H U)∘(V^H V) and (U^T U)∘(V^T V); D^T y and the fitted values cost
    O(n_t n_x P) for P pairs; the condition number is sqrt(lmax / lmin)
    of G.  G is overwritten by the inverse of its Cholesky factor,
    G = L L^T, and up to ``GRAM_COND_LIMIT`` = 1e6 the fit solves the
    normal equations as L^-T (L^-1 D^T y) and takes two steps of
    iterative refinement (the residual y - D sol, formed separably, is
    solved for a correction).  Near the limit the explicit inverse leaves
    the first solve up to ~1e3 times further from the SVD solution than
    an LU solve would; the second step brings it back to the SVD's
    accuracy.  Past 1e6, or when G is not positive definite, it builds
    the dense design and solves by SVD (``np.linalg.lstsq``); ``solver``
    names the path taken.

    The switch needs no eigensolve on the main path: lmax <= ||G||_F and
    1/lmin <= trace(G^-1) = ||L^-1||_F^2, so the bound
    sqrt(||G||_F ||L^-1||_F^2) at most 1e6 proves the Gram path.  Only
    above it does the exact ``eigvalsh`` of a rebuilt G decide.  Otherwise
    the Gram fit's condition number is computed on the first read of
    ``condition_number``.

    Needs at least M^2 samples.  Only the SVD path refuses: with the list
    of degenerate pairs, when the design's condition number exceeds 1e10
    (an (x, t) sampling that fails to separate two pairs).
    """
    p = np.asarray(p_grid, dtype=float)
    _require_finite(p_grid=p)
    dp = _bin_weight(p, mass)
    m = p.size
    om = p**2 / (2.0 * mass)
    x, t, y = samples.x_points, samples.t_points, samples.values
    if y.size < m * m:
        raise ValueError(
            f"need at least M^2 = {m * m} samples to determine the matrix, got {y.size}"
        )
    j, k = np.triu_indices(m, 1)
    pairs = list(zip(j.tolist(), k.tolist()))
    dpj = p[j] - p[k]
    dom = om[j] - om[k]
    u = np.exp(-1j * np.outer(t, dom))
    v = np.exp(2j * np.pi * np.outer(x, dpj))
    linv, condition = _gram_factor(u, v, dp)
    if linv is not None:
        solver = "gram"
        sol, r = np.zeros(linv.shape[0]), y
        for _ in range(3):  # the solve, then two refinement steps
            sol += linv.T @ (linv @ _separable_rhs(u, v, r, dp))
            r = y - _separable_fit(u, v, sol, dp)
        residual = float(np.linalg.norm(r))
    else:
        solver = "svd"
        design = _dense_design(x, t, dpj, dom, dp)
        sol, _, _, sv = np.linalg.lstsq(design, y.ravel(), rcond=None)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
        if cond > DESIGN_COND_LIMIT:
            degenerate = _degenerate_pairs(u, v, pairs)
            raise DegenerateDesignError(
                f"tomography design condition number {cond:.3e} exceeds "
                f"{DESIGN_COND_LIMIT:.0e}; unseparated pairs: {degenerate}",
                pairs=degenerate,
            )
        residual = float(np.linalg.norm(design @ sol - y.ravel()))
        condition = partial(float, cond)
    trace = float(sol[0])
    off = np.zeros((m, m), dtype=complex)
    off[j, k] = sol[1::2] + 1j * sol[2::2]
    off += off.conj().T
    diag, resolved = _complete_populations(off, trace, m, pairs)
    rho_fit = off + np.diag(diag)
    evals, evecs = np.linalg.eigh(rho_fit)
    psd_projected = False
    if evals.min() < -1e-10:
        clipped = np.clip(evals, 0.0, None)
        rho_fit = (evecs * clipped) @ evecs.conj().T
        tr = float(np.real(np.trace(rho_fit)))
        if tr > 0.0 and trace > 0.0:
            rho_fit = rho_fit * (trace / tr)
        psd_projected = True
    return TomographyResult(
        rho=DensityMatrix(p_grid=p, elements=rho_fit, mass=mass, grid=grid),
        residual=residual,
        populations_resolved=resolved,
        psd_projected=psd_projected,
        solver=solver,
        _condition=condition,
    )


def _gram_factor(u: np.ndarray, v: np.ndarray, dp: float):
    """(L^-1, condition) for the Gram path, or (None, None) for the SVD path.

    L is the Cholesky factor of the Gram matrix G = L L^T.  ``condition``
    returns the design's condition number, sqrt(lmax / lmin) of G: the
    value this switch computed when its bound did not settle the path,
    otherwise a deferred ``eigvalsh`` of a rebuilt G.  Only one G-sized
    array is held at a time.
    """
    g = _separable_gram(u, v, dp)
    fro = np.linalg.norm(g)
    try:
        _inverse_cholesky(g)
    except np.linalg.LinAlgError:
        return None, None
    # cond^2 = lmax / lmin <= ||G||_F trace(G^-1) = ||G||_F ||L^-1||_F^2
    if fro * np.vdot(g, g) <= GRAM_COND_LIMIT**2:
        return g, partial(_gram_cond, u, v, dp)
    del g
    cond = _gram_cond(u, v, dp)
    if not cond <= GRAM_COND_LIMIT:
        return None, None
    g = _separable_gram(u, v, dp)
    _inverse_cholesky(g)
    return g, partial(float, cond)


def _gram_cond(u: np.ndarray, v: np.ndarray, dp: float) -> float:
    """sqrt(lmax / lmin) of the Gram matrix, inf unless lmin > 0."""
    lam = np.linalg.eigvalsh(_separable_gram(u, v, dp))
    return float(np.sqrt(lam[-1] / lam[0])) if lam[0] > 0.0 else float("inf")


def _inverse_cholesky(g: np.ndarray) -> None:
    """Overwrite the positive definite ``g`` with L^-1, where g = L L^T.

    Blocked by rows (Golub & Van Loan, Matrix Computations, 4.2).  With
    L^-1[:i, :i] already in the rows above, the next block row of L is
    x = G[i:j, :i] L^-T[:i, :i].  The Schur block G[i:j, i:j] - x x^T is
    L22 L22^T, so the block row of L^-1 is [-L22^-1 x L^-1[:i, :i],
    L22^-1, 0].  LinAlgError when ``g`` is not positive definite.
    """
    d = g.shape[0]
    for i in range(0, d, _CHOLESKY_BLOCK):
        j = min(i + _CHOLESKY_BLOCK, d)
        x = g[i:j, :i] @ g[:i, :i].T
        inv22 = np.tril(np.linalg.inv(np.linalg.cholesky(g[i:j, i:j] - x @ x.T)))
        g[i:j, :i] = -inv22 @ (x @ g[:i, :i])
        g[i:j, i:j] = inv22
        g[i:j, j:] = 0.0


def _separable_gram(u: np.ndarray, v: np.ndarray, dp: float) -> np.ndarray:
    """D^T D of the tomography design from its factors U (t) and V (x).

    The design is dp [1, 2 Re Z, -2 Im Z] with columns interleaved as
    (trace, Re c_1, Im c_1, Re c_2, ...) and Z = U ⊙ V row by row.  With
    H = Z^H Z = (U^H U)∘(V^H V) and K = Z^T Z = (U^T U)∘(V^T V), the
    cos-cos, sin-sin and cos-sin blocks are 2 dp^2 times Re(H + K),
    Re(H - K) and -Im(H + K); the trace row holds the column sums of Z.
    """
    g = np.empty((1 + 2 * u.shape[1],) * 2)
    cc, ss, cs = g[1::2, 1::2], g[2::2, 2::2], g[1::2, 2::2]
    h = u.conj().T @ u
    h *= v.conj().T @ v
    np.copyto(cc, h.real)
    np.copyto(ss, h.real)
    np.negative(h.imag, out=cs)
    del h
    k = u.T @ u
    k *= v.T @ v
    cc += k.real
    ss -= k.real
    cs -= k.imag
    del k
    g[2::2, 1::2] = cs.T
    zsum = u.sum(axis=0) * v.sum(axis=0)
    g[0, 0] = 0.5 * u.shape[0] * v.shape[0]
    g[0, 1::2] = g[1::2, 0] = zsum.real
    g[0, 2::2] = g[2::2, 0] = -zsum.imag
    g *= 2.0 * dp * dp
    return g


def _separable_rhs(u: np.ndarray, v: np.ndarray, y: np.ndarray, dp: float) -> np.ndarray:
    """D^T y for readings y of shape (t, x): dp [sum y, 2 Re Z^T y, -2 Im Z^T y]."""
    w = np.einsum("ta,ta->a", u, y @ v)
    rhs = np.empty(1 + 2 * w.size)
    rhs[0] = y.sum()
    rhs[1::2] = 2.0 * w.real
    rhs[2::2] = -2.0 * w.imag
    return dp * rhs


def _separable_fit(u: np.ndarray, v: np.ndarray, sol: np.ndarray, dp: float) -> np.ndarray:
    """D sol as a (t, x) array: dp sol_0 + 2 dp Re(U diag(c) V^T)."""
    c = sol[1::2] + 1j * sol[2::2]
    return dp * (sol[0] + 2.0 * ((u * c) @ v.T).real)


def _dense_design(x, t, dpj, dom, dp: float) -> np.ndarray:
    """The samples-by-columns design, rows in (t outer, x inner) order.

    Each phase is written into its cosine slot and overwritten in place,
    so the design is the only array of its size.
    """
    design = np.empty((t.size, x.size, 1 + 2 * dpj.size))
    cos, sin = design[:, :, 1::2], design[:, :, 2::2]
    np.subtract(2.0 * np.pi * dpj * x[:, None], dom * t[:, None, None], out=cos)
    np.sin(cos, out=sin)
    np.cos(cos, out=cos)
    sin *= -2.0 * dp
    cos *= 2.0 * dp
    design[:, :, 0] = dp
    return design.reshape(t.size * x.size, -1)


def _degenerate_pairs(u: np.ndarray, v: np.ndarray, pairs):
    """Pairs whose sampled phase factors are nearly parallel (or constant).

    The overlaps |Z^H Z| / N come from the factors as |(U^H U)∘(V^H V)| / N
    and the trace overlaps |Z^T 1| / N as |U.sum(0) V.sum(0)| / N.
    """
    n = u.shape[0] * v.shape[0]
    near = 1.0 - 1e-6
    trace = np.abs(u.sum(axis=0) * v.sum(axis=0)) / n > near
    overlap = np.abs((u.conj().T @ u) * (v.conj().T @ v)) / n > near
    a, b = np.nonzero(np.triu(overlap, 1))
    return [(pairs[i], "trace") for i in np.flatnonzero(trace)] + [
        (pairs[i], pairs[j]) for i, j in zip(a, b)
    ]


def _complete_populations(off: np.ndarray, trace: float, m: int, pairs):
    """Populations from |rho_jk|^2 = rho_jj rho_kk, scaled to the trace."""
    jk = np.array(pairs)
    mags = np.abs(off[jk[:, 0], jk[:, 1]])
    jk, mags = jk[mags > 1e-12], mags[mags > 1e-12]
    a = np.zeros((mags.size, m))  # one row per resolved pair, 1 at j and k
    a[np.arange(mags.size)[:, None], jk] = 1.0
    uniform = np.full(m, trace / m if trace > 0 else 1.0 / m)
    if mags.size < m:
        return uniform, False
    u, _, rank, _ = np.linalg.lstsq(a, np.log(mags), rcond=None)
    if rank < m:
        return uniform, False
    diag = np.exp(2.0 * u)
    total = diag.sum()
    if not np.isfinite(total) or total <= 0.0 or trace <= 0.0:
        return uniform, False
    return diag * (trace / total), True


def rank1_extract(rho: DensityMatrix) -> WaveFunction:
    """Principal eigenvector of a numerically rank-1 density matrix.

    Returns the corresponding momentum-limited wavefunction on the
    coordinate grid ``rho.grid`` (ValueError when it is None), with the
    phase convention that the largest-magnitude momentum coefficient is
    real and positive.  Refuses when the second eigenvalue exceeds 1e-6;
    ValueError unless the largest is > 0.
    """
    g = rho.grid
    if g is None:
        raise ValueError("no coordinate grid: build rho with one")
    evals, evecs = np.linalg.eigh(rho.elements)
    if not evals[-1] > 0.0:
        raise ValueError(f"density matrix has no positive eigenvalue: {evals[-1]}")
    if rho.p_grid.size >= 2 and evals[-2] > RANK1_TOL:
        raise RefusalError(
            "density matrix is not rank 1; eigenvalues (descending): "
            f"{np.array2string(evals[::-1], precision=3)}"
        )
    v = evecs[:, -1]
    lead = int(np.argmax(np.abs(v)))
    v = v * np.exp(-1j * np.angle(v[lead]))
    freqs = g.dual.frequencies
    # a momentum past either end clips to the end bin and fails the match
    idx = np.clip(np.rint((rho.p_grid - freqs[0]) / g.dual.dw), 0, g.n - 1).astype(int)
    if np.any(np.abs(freqs[idx] - rho.p_grid) > 1e-9):
        raise ValueError("p_grid does not align with the grid's momentum bins")
    full = np.zeros(g.n, dtype=complex)
    full[idx] = v / np.sqrt(g.dual.dw)
    return _normalized(position_wave(Spectrum(g.dual, full)), "extracted state is zero")
