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
operator is the conjugate of a signal-side one: momentum_spectrum(psi) =
conj(forward_spectrum(conj psi)), P_P = conj P_W conj and P_X = P_T.  The
transform pair, the projectors, the concentration bound, the refusal
policy and the Neumann series thus exist once; :func:`recover_state`
raises NonConvergenceError when the series stops short of its tolerance.

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
from .errors import (
    BoundViolationError,
    DegenerateDesignError,
    NonConvergenceError,
    NotBandlimitedError,
    RefusalError,
)
from .projections import (
    band_project,
    complement_gate,
    concentration_ratio,
    out_of_band_fraction,
    time_gate,
)
from .recovery import recover_band_neumann

__all__ = [
    "WaveFunction",
    "PhaseSpaceWindows",
    "DensityMatrix",
    "EvolutionSamples",
    "TomographyResult",
    "momentum_spectrum",
    "position_wave",
    "momentum_limit",
    "position_gate",
    "wf_norm",
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

#: relative momentum leakage below which a state counts as momentum-limited
MOMENTUM_LIMIT_TOL = 1e-10

#: second eigenvalue above which a density matrix is not numerically rank 1
RANK1_TOL = 1e-6

#: design condition number above which tomography refuses
DESIGN_COND_LIMIT = 1e10


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
            nrm = wf_norm(self)
            if not abs(nrm - 1.0) <= 1e-12:
                raise ValueError(f"flagged normalized but ||psi|| = {nrm!r}")


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
    """

    p_grid: np.ndarray = field(repr=False)
    elements: np.ndarray = field(repr=False)
    mass: float = 1.0
    grid: TimeGrid | None = None

    def __post_init__(self):
        p = np.array(self.p_grid, dtype=float)
        e = np.array(self.elements, dtype=complex)
        if p.ndim != 1 or e.shape != (p.size, p.size):
            raise ValueError(
                f"elements shape {e.shape} does not match p_grid size {p.size}"
            )
        scale = max(1.0, float(np.max(np.abs(e))) if e.size else 1.0)
        if np.max(np.abs(e - e.conj().T)) > 1e-12 * scale:
            raise ValueError("elements are not Hermitian to 1e-12")
        p.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "elements", e)

    @property
    def trace(self):
        return float(np.real(np.trace(self.elements)))

    @property
    def bin_weight(self):
        """Momentum measure per bin: the smallest grid spacing."""
        if self.p_grid.size < 2:
            raise ValueError("need at least two momentum bins")
        return float(np.min(np.diff(np.sort(self.p_grid))))

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
        x = np.array(self.x_points, dtype=float)
        t = np.array(self.t_points, dtype=float)
        v = np.array(self.values, dtype=float)
        if v.shape != (t.size, x.size):
            raise ValueError(
                f"values shape {v.shape} does not match (t, x) = ({t.size}, {x.size})"
            )
        if v.size and v.min() < -1e-10:
            raise ValueError(
                f"probability readings must be >= -1e-10, got min {v.min():.3e}"
            )
        for name, arr in (("x_points", x), ("t_points", t), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Density-matrix fit plus its diagnostics.

    ``populations_resolved`` is False when the off-diagonals were too small
    to pin individual populations (only their sum is then meaningful);
    ``psd_projected`` reports that the positivity guard fired.
    """

    rho: DensityMatrix
    condition_number: float
    residual: float
    populations_resolved: bool
    psd_projected: bool


def _conj(obj, kind=SampledSignal):
    """The complex conjugate of a wavefunction or spectrum, as a ``kind``."""
    return kind(obj.grid, np.conj(obj.values))


def momentum_spectrum(psi: WaveFunction) -> Spectrum:
    """psi_hat(p) = dx * sum_x psi(x) exp(-2 pi i p x) on the dual grid.

    The conjugate of :func:`forward_spectrum`: conj(forward_spectrum(conj psi)).
    """
    return _conj(forward_spectrum(_conj(psi)), Spectrum)


def position_wave(spec: Spectrum, normalized: bool = False) -> WaveFunction:
    """Inverse of :func:`momentum_spectrum`: psi(x) = dp * sum_p psi_hat exp(+2 pi i p x)."""
    s = inverse_signal(_conj(spec, Spectrum))
    return WaveFunction(s.grid, np.conj(s.values), normalized=normalized)


def wf_norm(psi: WaveFunction) -> float:
    """dx-weighted L2 norm of a wavefunction (:func:`l2_norm`)."""
    return l2_norm(psi)


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """|<a|b>| / (||a|| ||b||): overlap magnitude, phase-free."""
    if a.grid != b.grid:
        raise ValueError("wavefunctions live on different grids")
    num = abs(a.grid.dt * np.vdot(a.values, b.values))
    return float(num / (wf_norm(a) * wf_norm(b)))


def momentum_limit(psi: WaveFunction, band: Interval) -> WaveFunction:
    """Apply P_P: zero momentum components outside ``band`` (conj P_W conj)."""
    return _conj(band_project(_conj(psi), band), WaveFunction)


def position_gate(psi: WaveFunction, window: Interval) -> WaveFunction:
    """Apply P_X: zero coordinate samples outside ``window`` (P_T)."""
    return WaveFunction(psi.grid, time_gate(psi, window).values)


def _require_momentum_limited(psi: WaveFunction, band: Interval):
    leak = out_of_band_fraction(_conj(psi), band)
    if not leak <= MOMENTUM_LIMIT_TOL:
        raise NotBandlimitedError(
            f"state has relative momentum leakage {leak:.3e} outside the band"
        )


def landau_pollak_ratio(psi: WaveFunction, windows: PhaseSpaceWindows) -> float:
    """Conditional probability <psi|P_P P_X P_P|psi> / <psi|P_P|psi>.

    Bounded by min(1, XP + eps_grid): a momentum-limited state cannot
    concentrate in a coordinate window smaller than the uncertainty limit
    allows.  The signal-side :func:`concentration_ratio` of conj psi, which
    raises :class:`BoundViolationError` past that bound.
    """
    return concentration_ratio(_conj(psi), windows.p_band, windows.x_window)


def gate_state(psi_p: WaveFunction, windows: PhaseSpaceWindows) -> WaveFunction:
    """Post-measurement state psi_M = (1 - P_X) psi_P / ||(1 - P_X) psi_P||.

    The input must be momentum-limited to [P].  The gated state vanishes
    on [X] and, by the spill bound, carries momentum outside [P]: the gap
    spoils the momentum limit.
    """
    _require_momentum_limited(psi_p, windows.p_band)
    gated = complement_gate(psi_p, windows.x_window)
    nrm = l2_norm(gated)
    if nrm <= 0.0:
        raise ValueError("gating removed the entire state")
    return WaveFunction(psi_p.grid, gated.values / nrm, normalized=True)


def momentum_smooth(psi_m: WaveFunction, windows: PhaseSpaceWindows) -> WaveFunction:
    """Normalized P_P psi_M: momentum-limited again, coordinate gap closed.

    Equals (1 - P_P P_X P_P) psi_P up to normalization when psi_M came
    from :func:`gate_state`; inside [X] its profile is the original state
    minus the band kernel averaged over the window, so the gap is smoothed
    away rather than empty.
    """
    limited = momentum_limit(psi_m, windows.p_band)
    nrm = wf_norm(limited)
    if nrm <= 0.0:
        raise ValueError("state has no energy inside the momentum band")
    return WaveFunction(psi_m.grid, limited.values / nrm, normalized=True)


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
    Raises RefusalError when the invertibility report fails (XP >= 1 or
    lambda0 > 1 - 1e-6), and NonConvergenceError when the series stops
    before its relative update falls below ``tol``.
    """
    rep = recover_band_neumann(
        _conj(psi_m_projected), windows.p_band, windows.x_window, tol, k_max
    )
    if rep.refused:
        raise RefusalError(
            f"state recovery needs XP < 1 (reported as WT); {rep.reason}"
        )
    if not rep.converged:
        raise NonConvergenceError(f"state recovery stopped: {rep.reason}")
    x = rep.recovered
    return WaveFunction(x.grid, np.conj(x.values) / l2_norm(x), normalized=True)


def build_density(psi: WaveFunction, band: Interval) -> DensityMatrix:
    """Rank-1 density matrix of ``psi`` on the momentum bins inside ``band``.

    The state must be momentum-limited to the band; coefficients are
    normalized so the trace is exactly 1.
    """
    _require_momentum_limited(psi, band)
    spec = momentum_spectrum(psi)
    keep = band.mask(spec.grid.frequencies)
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
    """
    x = np.asarray(x_points, dtype=float)
    t = np.asarray(t_points, dtype=float)
    om = rho.omegas
    dp = rho.bin_weight
    phases = np.exp(2j * np.pi * np.outer(x, rho.p_grid))
    rows = np.empty((t.size, x.size))
    for i, ti in enumerate(t):
        u = np.exp(-1j * om * ti)
        rho_t = (u[:, None] * rho.elements) * u.conj()[None, :]
        vals = np.einsum("xj,jk,xk->x", phases, rho_t, phases.conj())
        imag = np.max(np.abs(vals.imag))
        if not imag <= 1e-10 * max(1.0, np.max(np.abs(vals.real))):
            raise BoundViolationError(f"density has imaginary part {imag:.3e} at t={ti}")
        rows[i] = dp * vals.real
    return EvolutionSamples(x_points=x, t_points=t, values=rows)


def _pair_indices(m: int):
    return [(j, k) for j in range(m) for k in range(j + 1, m)]


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

    Needs at least M^2 samples.  Refuses with the list of degenerate pairs
    when the design's condition number exceeds 1e10 (an (x, t) sampling
    that fails to separate two pairs).
    """
    p = np.asarray(p_grid, dtype=float)
    m = p.size
    if m < 2:
        raise ValueError("need at least two momentum bins")
    om = p**2 / (2.0 * mass)
    dp = float(np.min(np.diff(np.sort(p))))
    if dp <= 0.0:
        raise ValueError("p_grid contains duplicate momenta")
    x = samples.x_points
    t = samples.t_points
    y = samples.values.ravel()
    pairs = _pair_indices(m)
    if y.size < m * m:
        raise ValueError(
            f"need at least M^2 = {m * m} samples to determine the matrix, got {y.size}"
        )
    dpj = np.array([p[j] - p[k] for j, k in pairs])
    dom = np.array([om[j] - om[k] for j, k in pairs])
    # phase[i_t, i_x, i_pair], flattened in the same (t outer, x inner) order as y
    phi = (
        2.0 * np.pi * dpj[None, None, :] * x[None, :, None]
        - dom[None, None, :] * t[:, None, None]
    ).reshape(y.size, len(pairs))
    design = np.empty((y.size, 1 + 2 * len(pairs)))
    design[:, 0] = dp
    design[:, 1::2] = 2.0 * dp * np.cos(phi)
    design[:, 2::2] = -2.0 * dp * np.sin(phi)
    sol, _, _, sv = np.linalg.lstsq(design, y, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    if cond > DESIGN_COND_LIMIT:
        degenerate = _degenerate_pairs(phi, pairs)
        raise DegenerateDesignError(
            f"tomography design condition number {cond:.3e} exceeds "
            f"{DESIGN_COND_LIMIT:.0e}; unseparated pairs: {degenerate}",
            pairs=degenerate,
        )
    residual = float(np.linalg.norm(design @ sol - y))
    trace = float(sol[0])
    off = np.zeros((m, m), dtype=complex)
    for i, (j, k) in enumerate(pairs):
        off[j, k] = sol[1 + 2 * i] + 1j * sol[2 + 2 * i]
        off[k, j] = off[j, k].conjugate()
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
    rho = DensityMatrix(p_grid=p, elements=rho_fit, mass=mass, grid=grid)
    return TomographyResult(
        rho=rho,
        condition_number=cond,
        residual=residual,
        populations_resolved=resolved,
        psd_projected=psd_projected,
    )


def _degenerate_pairs(phi: np.ndarray, pairs):
    """Pairs whose sampled phase factors are nearly parallel (or constant)."""
    z = np.exp(1j * phi)
    ns = z.shape[0]
    bad = []
    for a in range(len(pairs)):
        # a pair indistinguishable from the trace column
        if abs(z[:, a].sum()) / ns > 1.0 - 1e-6:
            bad.append((pairs[a], "trace"))
    gram = np.abs(z.conj().T @ z) / ns
    for a in range(len(pairs)):
        for b_ in range(a + 1, len(pairs)):
            if gram[a, b_] > 1.0 - 1e-6:
                bad.append((pairs[a], pairs[b_]))
    return bad


def _complete_populations(off: np.ndarray, trace: float, m: int, pairs):
    """Populations from |rho_jk|^2 = rho_jj rho_kk, scaled to the trace."""
    mags = np.abs(off)
    rows = []
    rhs = []
    for j, k in pairs:
        if mags[j, k] > 1e-12:
            row = np.zeros(m)
            row[j] = 1.0
            row[k] = 1.0
            rows.append(row)
            rhs.append(np.log(mags[j, k]))
    uniform = np.full(m, trace / m if trace > 0 else 1.0 / m)
    if len(rows) < m:
        return uniform, False
    a = np.asarray(rows)
    if np.linalg.matrix_rank(a) < m:
        return uniform, False
    u, *_ = np.linalg.lstsq(a, np.asarray(rhs), rcond=None)
    diag = np.exp(2.0 * u)
    total = diag.sum()
    if not np.isfinite(total) or total <= 0.0 or trace <= 0.0:
        return uniform, False
    return diag * (trace / total), True


def rank1_extract(rho: DensityMatrix, grid: TimeGrid | None = None) -> WaveFunction:
    """Principal eigenvector of a numerically rank-1 density matrix.

    Returns the corresponding momentum-limited wavefunction on the
    coordinate grid (taken from ``rho.grid`` unless given), with the phase
    convention that the largest-magnitude momentum coefficient is real and
    positive.  Refuses when the second eigenvalue exceeds 1e-6.
    """
    g = grid if grid is not None else rho.grid
    if g is None:
        raise ValueError("no coordinate grid: pass grid= or build rho with one")
    evals, evecs = np.linalg.eigh(rho.elements)
    if rho.p_grid.size >= 2 and evals[-2] > RANK1_TOL:
        raise RefusalError(
            "density matrix is not rank 1; eigenvalues (descending): "
            f"{np.array2string(evals[::-1], precision=3)}"
        )
    v = evecs[:, -1]
    lead = int(np.argmax(np.abs(v)))
    v = v * np.exp(-1j * np.angle(v[lead]))
    freqs = g.dual.frequencies
    idx = np.rint((rho.p_grid - freqs[0]) / g.dual.dw).astype(int)
    if np.any(np.abs(freqs[idx] - rho.p_grid) > 1e-9):
        raise ValueError("p_grid does not align with the grid's momentum bins")
    full = np.zeros(g.n, dtype=complex)
    full[idx] = v / np.sqrt(g.dual.dw)
    psi = position_wave(Spectrum(g.dual, full))
    nrm = wf_norm(psi)
    return WaveFunction(g, psi.values / nrm, normalized=True)
