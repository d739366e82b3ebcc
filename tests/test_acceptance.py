"""End-to-end checks of the package's headline guarantees.

One test per externally stated requirement, in order; run with -v to get
one pass/fail line each.  Everything here goes through the public API
and builds its own instances, so a failure points at the library, not at
test plumbing.
"""

import numpy as np
import pytest

from subgap import (
    DensityMatrix,
    ErasureModel,
    Interval,
    PhaseSpaceWindows,
    RefusalError,
    SpectralCopyConfig,
    TimeGrid,
    WaveFunction,
    band_approx_first_term,
    band_interpolate,
    band_project,
    band_spill_ratio,
    build_density,
    comb_sample,
    complement_gate,
    default_grid,
    erase,
    evolve_diagonal_series,
    fidelity,
    forward_spectrum,
    gate_state,
    inverse_signal,
    invertibility_report,
    l2_norm,
    make_demo_signal,
    momentum_limit,
    momentum_smooth,
    operator_norm_sq,
    out_of_band_fraction,
    periodized_spectrum,
    rank1_extract,
    recover_band_neumann,
    recover_direct,
    recover_neumann,
    recover_state,
    spectral_copy_recover,
    time_gate,
    tomography_solve,
)
from subgap.experiments import run_quantum_pipeline
from subgap.projections import _dirichlet_kernel

# one (W, T) pair per product W*T in {0.1, 0.25, 0.5, 0.9}
SWEEP = [(1.6, 0.0625), (1.0, 0.25), (2.0, 0.25), (3.6, 0.25)]
BAND = Interval(0.0, 2.0)
GAP = Interval(0.0, 0.25)

Q_GRID = TimeGrid(-4.0, 0.125, 64)
Q_BAND = Interval(0.0, 1.0)  # 8 momentum bins at dp = 1/8


def _signal(grid):
    return band_project(make_demo_signal(grid), BAND)


def _gapped(grid):
    s_w = _signal(grid)
    return s_w, erase(s_w, ErasureModel(window=GAP, source_band=BAND))


def _q_state(band=Q_BAND):
    x = Q_GRID.times
    raw = np.exp(-np.pi * (x - 0.25) ** 2) * np.exp(2j * np.pi * 0.15 * x)
    lim = momentum_limit(WaveFunction(Q_GRID, raw), band)
    return WaveFunction(Q_GRID, lim.values / l2_norm(lim), normalized=True)


def test_01_concentration_operator_norm_bounded_below_one(grid):
    """lambda0 <= trace, dense oracle to 1e-8, trace = WT +- 2%."""
    for w, t in SWEEP:
        band, window = Interval(0.0, w), Interval(0.0, t)
        lam = operator_norm_sq(grid, band, window)
        trace = float(np.trace(_dirichlet_kernel(grid, band, window)))
        assert lam <= trace + 1e-12, (w, t)
        dense = np.linalg.eigvalsh(_dirichlet_kernel(grid, band, window))[::-1][0]
        assert abs(lam - dense) <= 1e-8, (w, t)
        assert abs(trace - w * t) <= 0.02 * w * t, (w, t)


def test_02_gap_below_the_limit_is_recovered_exactly(grid):
    """W=2, T=1/4 erasure: rel error <= 1e-6, solvers agree, contraction."""
    s_w, r = _gapped(grid)
    report = recover_neumann(r, BAND, GAP)
    assert not report.refused and report.converged
    rel = l2_norm(
        type(s_w)(grid, report.recovered.values - s_w.values)
    ) / l2_norm(s_w)
    assert rel <= 1e-6
    direct = recover_direct(r, BAND, GAP)
    agree = np.max(np.abs(direct.values - report.recovered.values))
    assert agree <= 1e-8 * np.max(np.abs(s_w.values))
    assert report.contraction_estimate <= np.sqrt(0.5) + 0.02


def test_03_band_domain_iteration_matches_and_stays_bandlimited(grid):
    """Band-side series equals the signal-side one; iterates stay in band."""
    s_w, r = _gapped(grid)
    plain = recover_neumann(r, BAND, GAP)
    banded = recover_band_neumann(r, BAND, GAP)
    diff = np.max(np.abs(banded.recovered.values - plain.recovered.values))
    assert diff <= 1e-8 * np.max(np.abs(s_w.values))
    # replay the band-side iteration and watch every iterate
    term = band_project(r, BAND)
    total = term
    for _ in range(60):
        term = band_project(time_gate(term, GAP), BAND)
        total = type(total)(grid, total.values + term.values)
        assert out_of_band_fraction(total, BAND) <= 1e-12


def test_04_recovery_refuses_at_the_uncertainty_limit(grid):
    """W=2, T=1 (WT=2): every solver refuses, no output is produced."""
    s_w = _signal(grid)
    window = Interval(0.0, 1.0)
    r = erase(s_w, ErasureModel(window=window, source_band=BAND))
    for solver in (recover_neumann, recover_band_neumann):
        report = solver(r, BAND, window)
        assert report.refused
        assert report.recovered is None
        assert "WT" in report.reason
    with pytest.raises(RefusalError) as info:
        recover_direct(r, BAND, window)
    assert info.value.report == invertibility_report(grid, BAND, window)


def test_05_time_gating_spills_energy_out_of_band(grid):
    """Erasing [T] pushes at least 1 - lambda0 of the lost energy off band."""
    for w, t in SWEEP:
        band, window = Interval(0.0, w), Interval(0.0, t)
        s_w = band_project(make_demo_signal(grid), band)
        spill = band_spill_ratio(s_w, band, window)
        assert spill >= 1.0 - operator_norm_sq(grid, band, window), (w, t)


def test_06_nyquist_sampling_is_exact_undersampling_aliases(grid):
    """T=1/4 comb + band interpolation rebuilds s; T=1 aliases on the band."""
    s_w = _signal(grid)
    rebuilt = band_interpolate(comb_sample(s_w, 0.25), BAND)
    interior = np.abs(grid.times) <= grid.span / 4.0
    err = np.max(np.abs(rebuilt.values[interior] - s_w.values[interior]))
    assert err <= 1e-6 * np.max(np.abs(s_w.values))
    s_hat = forward_spectrum(s_w)
    folded = periodized_spectrum(comb_sample(s_w, 1.0))
    on_band = BAND.mask(s_hat.grid.frequencies)
    dev = np.max(np.abs(folded.values[on_band] - s_hat.values[on_band]))
    assert dev >= 1e-2


def test_07_spectral_copy_sum_improves_with_each_copy(grid):
    """T_DS = T_SN = 1/4: band L2 error strictly falls over k_max 0,1,2."""
    s_w = _signal(grid)
    window = Interval(0.125, 0.25 - grid.dt)  # gap between sample instants
    r = erase(s_w, ErasureModel(window=window, source_band=BAND))
    s_hat = forward_spectrum(s_w)
    on_band = BAND.mask(s_hat.grid.frequencies)
    errs = []
    for k in range(3):
        cfg = SpectralCopyConfig(
            band=BAND, t_sn=0.25, t_ds=window.width, k_max=k
        )
        rec = spectral_copy_recover(r, cfg)
        diff = rec.spectrum.values[on_band] - s_hat.values[on_band]
        errs.append(float(np.sqrt(s_hat.grid.dw * np.sum(np.abs(diff) ** 2))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < errs[0]


def test_08_narrow_gap_band_restriction_error_is_first_order(grid):
    """sup |P_W r_hat - s_hat| <= 2 W T (mean s_hat); shrinks with T."""
    s_w = _signal(grid)
    s_hat = forward_spectrum(s_w)
    on_band = BAND.mask(s_hat.grid.frequencies)
    band_integral = float(np.real(s_hat.grid.dw * s_hat.values[on_band].sum()))
    sups = []
    for t_ds in (1.0, 0.25, 1.0 / 64):
        window = Interval(0.125, t_ds)
        r = erase(s_w, ErasureModel(window=window, source_band=BAND))
        approx = band_approx_first_term(r, BAND, t_ds)
        sups.append(
            np.max(np.abs(approx.approx.values[on_band] - s_hat.values[on_band]))
        )
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] <= 2.0 * BAND.width * (1.0 / 64) * (band_integral / BAND.width)


def test_09_momentum_limited_state_recovered_through_the_gap():
    """P=2, X=1/4 (XP = 1/2): fidelity >= 1 - 1e-8; refusal at XP >= 1."""
    band = Interval(0.0, 2.0)
    windows = PhaseSpaceWindows(x_window=Interval(0.0, 0.25), p_band=band)
    psi = _q_state(band)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    rec = recover_state(smooth, windows)
    assert fidelity(rec, psi) >= 1.0 - 1e-8
    at_limit = PhaseSpaceWindows(x_window=Interval(0.0, 0.5), p_band=band)
    with pytest.raises(RefusalError):
        recover_state(psi, at_limit)


def test_10_free_evolution_tomography_and_full_pipeline():
    """8-bin density from 16x16 (x,t) samples to 1e-6; pipeline fidelity."""
    rng = np.random.default_rng(7)
    xs = rng.uniform(Q_GRID.t_start, Q_GRID.t_end, 16)
    ts = rng.uniform(0.0, 500.0, 16)
    freqs = Q_GRID.dual.frequencies
    for p_grid in (
        freqs[Q_BAND.mask(freqs)],
        np.array([-0.5, -0.375, -0.25, -0.125, 0.125, 0.25, 0.375, 0.5]),
    ):
        c = rng.standard_normal(p_grid.size) + 1j * rng.standard_normal(
            p_grid.size
        )
        c /= np.linalg.norm(c)
        rho = DensityMatrix(
            p_grid=p_grid, elements=np.outer(c, c.conj()), grid=Q_GRID
        )
        fit = tomography_solve(
            evolve_diagonal_series(rho, xs, ts), p_grid, grid=Q_GRID
        )
        assert np.max(np.abs(fit.rho.elements - rho.elements)) <= 1e-6
    # evolve -> fit -> rank-1 extract -> fill the gap
    windows = PhaseSpaceWindows(x_window=Interval(0.0, 0.5), p_band=Q_BAND)
    psi = _q_state()
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    rho = build_density(smooth, Q_BAND)
    fit = tomography_solve(
        evolve_diagonal_series(rho, xs, ts), rho.p_grid, grid=Q_GRID
    )
    rec = recover_state(rank1_extract(fit.rho), windows)
    assert fidelity(rec, psi) >= 1.0 - 1e-6


def test_11_transform_identities_and_deterministic_artifacts(grid, tmp_path):
    """Parseval to 1e-10, round trip to 1e-12, byte-identical outputs."""
    rng = np.random.default_rng(11)
    s = type(_signal(grid))(
        grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    )
    s_hat = forward_spectrum(s)
    time_energy = l2_norm(s) ** 2
    freq_energy = float(s_hat.grid.dw * np.sum(np.abs(s_hat.values) ** 2))
    assert abs(time_energy - freq_energy) <= 1e-10 * time_energy
    back = inverse_signal(s_hat)
    assert np.max(np.abs(back.values - s.values)) <= 1e-12 * np.max(
        np.abs(s.values)
    )
    run_quantum_pipeline(tmp_path / "one", seed=7)
    run_quantum_pipeline(tmp_path / "two", seed=7)
    names = sorted(p.name for p in (tmp_path / "one").glob("*.csv"))
    assert names
    for name in names:
        a = (tmp_path / "one" / name).read_bytes()
        assert a == (tmp_path / "two" / name).read_bytes(), name
