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

from .core import Interval, SampledSignal, Spectrum, TimeGrid
from .errors import (
    BoundViolationError,
    DegenerateDesignError,
    NotBandlimitedError,
    RefusalError,
)
from .projections import eps_grid, operator_norm_sq

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
            if abs(nrm - 1.0) > 1e-12:
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


def momentum_spectrum(psi: WaveFunction) -> Spectrum:
    """psi_hat(p) = dx * sum_x psi(x) exp(-2 pi i p x) on the dual grid."""
    g = psi.grid
    p = g.dual.frequencies
    vals = g.dt * np.fft.fftshift(np.fft.fft(psi.values))
    vals = vals * np.exp(-2j * np.pi * p * g.t_start)
    return Spectrum(g.dual, vals)


def position_wave(spec: Spectrum, normalized: bool = False) -> WaveFunction:
    """Inverse of :func:`momentum_spectrum`: psi(x) = dp * sum_p psi_hat exp(+2 pi i p x)."""
    tg = spec.grid.time_grid
    p = spec.grid.frequencies
    g = spec.values * np.exp(2j * np.pi * p * tg.t_start)
    vals = spec.grid.dw * tg.n * np.fft.ifft(np.fft.ifftshift(g))
    return WaveFunction(tg, vals, normalized=normalized)


def wf_norm(psi: WaveFunction) -> float:
    """dx-weighted L2 norm of a wavefunction."""
    return float(np.sqrt(psi.grid.dt * np.sum(np.abs(psi.values) ** 2)))


def fidelity(a: WaveFunction, b: WaveFunction) -> float:
    """|<a|b>| / (||a|| ||b||): overlap magnitude, phase-free."""
    if a.grid != b.grid:
        raise ValueError("wavefunctions live on different grids")
    num = abs(a.grid.dt * np.vdot(a.values, b.values))
    return float(num / (wf_norm(a) * wf_norm(b)))


def momentum_limit(psi: WaveFunction, band: Interval) -> WaveFunction:
    """Apply P_P: zero momentum components outside ``band``."""
    spec = momentum_spectrum(psi)
    keep = band.mask(spec.grid.frequencies)
    return position_wave(Spectrum(spec.grid, np.where(keep, spec.values, 0.0)))


def position_gate(psi: WaveFunction, window: Interval) -> WaveFunction:
    """Apply P_X: zero coordinate samples outside ``window``."""
    keep = window.mask(psi.grid.times)
    return WaveFunction(psi.grid, np.where(keep, psi.values, 0.0))


def _momentum_leak(psi: WaveFunction, band: Interval) -> float:
    total = wf_norm(psi)
    if total == 0.0:
        return 0.0
    kept = momentum_limit(psi, band)
    return wf_norm(WaveFunction(psi.grid, psi.values - kept.values)) / total


def landau_pollak_ratio(psi: WaveFunction, windows: PhaseSpaceWindows) -> float:
    """Conditional probability <psi|P_P P_X P_P|psi> / <psi|P_P|psi>.

    Bounded by min(1, XP + eps_grid): a momentum-limited state cannot
    concentrate in a coordinate window smaller than the uncertainty limit
    allows.
    """
    limited = momentum_limit(psi, windows.p_band)
    denom = wf_norm(limited) ** 2
    if denom <= 1e-24 * wf_norm(psi) ** 2:
        raise ValueError("state has no energy inside the momentum band")
    num = wf_norm(position_gate(limited, windows.x_window)) ** 2
    ratio = num / denom
    limit = min(
        1.0, windows.xp + eps_grid(psi.grid, windows.p_band, windows.x_window)
    )
    if not ratio <= limit + 1e-12:
        raise BoundViolationError(f"ratio {ratio} exceeds bound {limit}")
    return ratio


def gate_state(psi_p: WaveFunction, windows: PhaseSpaceWindows) -> WaveFunction:
    """Post-measurement state psi_M = (1 - P_X) psi_P / ||(1 - P_X) psi_P||.

    The input must be momentum-limited to [P].  The gated state vanishes
    on [X] and, by the spill bound, carries momentum outside [P]: the gap
    spoils the momentum limit.
    """
    leak = _momentum_leak(psi_p, windows.p_band)
    if leak > MOMENTUM_LIMIT_TOL:
        raise NotBandlimitedError(
            f"state has relative momentum leakage {leak:.3e} outside the band"
        )
    gated = psi_p.values - position_gate(psi_p, windows.x_window).values
    nrm = wf_norm(WaveFunction(psi_p.grid, gated))
    if nrm <= 0.0:
        raise ValueError("gating removed the entire state")
    return WaveFunction(psi_p.grid, gated / nrm, normalized=True)


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

    Requires XP < 1 (and the discrete operator norm below 1 - 1e-6); the
    overall scale lost to gating is treated as a normalization constant,
    fixed at the end.  The map is linear before that normalization, so a
    global phase on the input reappears unchanged on the output.

    The operator norm is evaluated with the signal-side power iteration:
    the quantum concentration matrix is the transpose of the classical one
    (opposite transform sign), hence has the same spectrum.
    """
    xp = windows.xp
    lam = operator_norm_sq(psi_m_projected.grid, windows.p_band, windows.x_window)
    if xp >= 1.0 or lam > 1.0 - 1e-6:
        raise RefusalError(
            f"state recovery needs XP < 1; got XP={xp:.6g}, lambda0={lam:.6g}"
        )
    if k_max is None:
        rho = np.sqrt(min(xp, 1.0 - 1e-12)) if xp > 0 else 0.0
        k_max = 50 if rho <= 0 else int(np.ceil(np.log(tol) / np.log(rho))) + 50
    b = momentum_limit(psi_m_projected, windows.p_band)
    x = b
    for _ in range(k_max):
        step = momentum_limit(
            position_gate(x, windows.x_window), windows.p_band
        )
        new = WaveFunction(b.grid, b.values + step.values)
        rel = wf_norm(WaveFunction(b.grid, new.values - x.values)) / max(
            wf_norm(new), 1e-300
        )
        x = new
        if rel < tol:
            break
    nrm = wf_norm(x)
    return WaveFunction(x.grid, x.values / nrm, normalized=True)


def build_density(psi: WaveFunction, band: Interval) -> DensityMatrix:
    """Rank-1 density matrix of ``psi`` on the momentum bins inside ``band``.

    The state must be momentum-limited to the band; coefficients are
    normalized so the trace is exactly 1.
    """
    leak = _momentum_leak(psi, band)
    if leak > MOMENTUM_LIMIT_TOL:
        raise NotBandlimitedError(
            f"state has relative momentum leakage {leak:.3e} outside the band"
        )
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
