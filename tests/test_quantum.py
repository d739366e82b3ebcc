"""Momentum-limited states: gating, smoothing, tomography, recovery."""

import numpy as np
import pytest

import subgap.quantum
from subgap import (
    BoundViolationError,
    DegenerateDesignError,
    DensityMatrix,
    Interval,
    NotBandlimitedError,
    PhaseSpaceWindows,
    RefusalError,
    WaveFunction,
    build_density,
    eps_grid,
    evolve_diagonal_series,
    fidelity,
    gate_state,
    landau_pollak_ratio,
    momentum_limit,
    momentum_smooth,
    momentum_spectrum,
    position_gate,
    position_wave,
    rank1_extract,
    recover_state,
    tomography_solve,
    wf_norm,
)

P_BAND = Interval(0.0, 1.0)  # momenta in [-1/2, 1/2), 8 bins at dp = 1/8


def _state(qgrid, band=P_BAND, shift=0.25, kick=0.15):
    """A smooth momentum-limited state with complex structure."""
    x = qgrid.times
    raw = np.exp(-np.pi * (x - shift) ** 2) * np.exp(2j * np.pi * kick * x)
    lim = momentum_limit(WaveFunction(qgrid, raw), band)
    return WaveFunction(qgrid, lim.values / wf_norm(lim), normalized=True)


def test_momentum_transform_round_trip(qgrid):
    rng = np.random.default_rng(21)
    psi = WaveFunction(
        qgrid, rng.standard_normal(qgrid.n) + 1j * rng.standard_normal(qgrid.n)
    )
    back = position_wave(momentum_spectrum(psi))
    assert np.max(np.abs(back.values - psi.values)) <= 1e-12 * np.max(
        np.abs(psi.values)
    )


def test_momentum_tone_sign_convention(qgrid):
    # <x|p> = e^{+2 pi i p x}: the e^{+...} tone is the momentum-p state
    p0 = 0.25
    psi = WaveFunction(qgrid, np.exp(2j * np.pi * p0 * qgrid.times))
    spec = momentum_spectrum(psi)
    peak = spec.grid.frequencies[int(np.argmax(np.abs(spec.values)))]
    assert peak == pytest.approx(p0)


def test_normalized_flag_is_checked(qgrid):
    with pytest.raises(ValueError):
        WaveFunction(qgrid, np.ones(qgrid.n), normalized=True)
    WaveFunction(qgrid, np.ones(qgrid.n) / np.sqrt(8.0), normalized=True)


def test_momentum_projectors_idempotent(qgrid):
    rng = np.random.default_rng(22)
    psi = WaveFunction(
        qgrid, rng.standard_normal(qgrid.n) + 1j * rng.standard_normal(qgrid.n)
    )
    window = Interval(0.0, 0.5)
    once = momentum_limit(psi, P_BAND)
    twice = momentum_limit(once, P_BAND)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)
    gated = position_gate(psi, window)
    np.testing.assert_array_equal(
        position_gate(gated, window).values, gated.values
    )


@pytest.mark.parametrize(
    "p,x", [(1.0, 0.25), (1.0, 0.5), (2.0, 0.25), (2.0, 0.375)]
)
def test_window_probability_bounded_by_xp(qgrid, p, x):
    windows = PhaseSpaceWindows(x_window=Interval(0.0, x), p_band=Interval(0.0, p))
    psi = _state(qgrid, windows.p_band)
    ratio = landau_pollak_ratio(psi, windows)
    cap = min(1.0, p * x + eps_grid(qgrid, windows.p_band, windows.x_window))
    assert 0.0 <= ratio <= cap


def test_window_probability_needs_band_energy(qgrid):
    # a pure tone far outside the band has no in-band weight
    tone = WaveFunction(qgrid, np.exp(2j * np.pi * 2.5 * qgrid.times))
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    with pytest.raises(ValueError):
        landau_pollak_ratio(tone, windows)


def test_window_probability_above_its_bound_raises(qgrid, monkeypatch):
    # a negative grid slack pushes the bound below any attainable ratio
    monkeypatch.setattr(subgap.quantum, "eps_grid", lambda *args: -1.0)
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    with pytest.raises(BoundViolationError):
        landau_pollak_ratio(_state(qgrid), windows)


def test_gate_state_vanishes_on_window_and_spills(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    gated = gate_state(psi, windows)
    assert wf_norm(gated) == pytest.approx(1.0, abs=1e-12)
    assert np.all(gated.values[windows.x_window.mask(qgrid.times)] == 0.0)
    # the gap forces momentum outside the band: same floor as the classical
    # band spill, normalized by the in-window weight of the original state
    raw = psi.values - position_gate(psi, windows.x_window).values
    out = WaveFunction(
        qgrid, raw - momentum_limit(WaveFunction(qgrid, raw), P_BAND).values
    )
    win = wf_norm(position_gate(psi, windows.x_window)) ** 2
    floor = 1.0 - windows.xp - eps_grid(qgrid, P_BAND, windows.x_window)
    assert wf_norm(out) ** 2 / win >= floor


def test_gate_state_requires_momentum_limited_input(qgrid):
    raw = WaveFunction(qgrid, np.exp(-np.pi * qgrid.times**2))
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    with pytest.raises(NotBandlimitedError):
        gate_state(raw, windows)


def test_non_finite_states_are_rejected(qgrid):
    vals = _state(qgrid).values.copy()
    vals[5] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(qgrid, vals, normalized=True)
    psi = WaveFunction(qgrid, vals)
    with pytest.raises(NotBandlimitedError):
        gate_state(psi, PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND))
    with pytest.raises(NotBandlimitedError):
        build_density(psi, P_BAND)


def test_momentum_smooth_matches_kernel_form(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    # P_P (1 - P_X) psi, written with the explicit band kernel
    # K(x - y) = dp * sum_{p in band} e^{2 pi i p (x - y)}
    x = qgrid.times
    p = qgrid.dual.frequencies[P_BAND.mask(qgrid.dual.frequencies)]
    kernel = qgrid.dual.dw * np.exp(
        2j * np.pi * np.outer(x, p)
    ) @ np.exp(-2j * np.pi * np.outer(p, x))
    inside = windows.x_window.mask(x)
    folded = psi.values - qgrid.dt * kernel[:, inside] @ psi.values[inside]
    folded = folded / np.sqrt(qgrid.dt * np.sum(np.abs(folded) ** 2))
    assert np.max(np.abs(smooth.values - folded)) <= 1e-8


def test_recover_state_inverts_the_gap(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    rec = recover_state(smooth, windows)
    assert fidelity(rec, psi) >= 1.0 - 1e-8


def test_recover_state_is_phase_covariant(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    rec = recover_state(smooth, windows)
    theta = 0.8
    turned = WaveFunction(
        qgrid, np.exp(1j * theta) * smooth.values, normalized=True
    )
    rec_turned = recover_state(turned, windows)
    assert np.max(
        np.abs(rec_turned.values - np.exp(1j * theta) * rec.values)
    ) <= 1e-8


def test_recover_state_refuses_at_the_limit(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 1.0), Interval(0.0, 1.0))
    psi = _state(qgrid)
    with pytest.raises(RefusalError):
        recover_state(psi, windows)


def test_build_density_rank1_unit_trace(qgrid):
    psi = _state(qgrid)
    rho = build_density(psi, P_BAND)
    assert rho.trace == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho.elements)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(evals[-2]) <= 1e-12
    assert rho.p_grid.size == 8
    with pytest.raises(NotBandlimitedError):
        build_density(
            WaveFunction(qgrid, np.exp(-np.pi * qgrid.times**2)), P_BAND
        )


def test_evolution_at_time_zero_is_position_density(qgrid):
    psi = _state(qgrid)
    rho = build_density(psi, P_BAND)
    samples = evolve_diagonal_series(rho, qgrid.times, [0.0])
    np.testing.assert_allclose(
        samples.values[0], np.abs(psi.values) ** 2, atol=1e-12
    )


def test_evolution_conserves_norm(qgrid):
    psi = _state(qgrid)
    rho = build_density(psi, P_BAND)
    samples = evolve_diagonal_series(rho, qgrid.times, [0.0, 1.0, 5.0, 10.0])
    totals = qgrid.dt * samples.values.sum(axis=1)
    np.testing.assert_allclose(totals, 1.0, atol=1e-8)


def _random_pure_density(qgrid, seed, p_grid=None):
    rng = np.random.default_rng(seed)
    if p_grid is None:
        freqs = qgrid.dual.frequencies
        p_grid = freqs[P_BAND.mask(freqs)]
    c = rng.standard_normal(p_grid.size) + 1j * rng.standard_normal(p_grid.size)
    c = c / np.linalg.norm(c)
    return DensityMatrix(p_grid=p_grid, elements=np.outer(c, c.conj()), grid=qgrid)


def _sample_points(qgrid, seed, n_x=16, n_t=16, t_max=500.0):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(qgrid.t_start, qgrid.t_end, n_x),
        rng.uniform(0.0, t_max, n_t),
    )


def test_tomography_round_trip(qgrid):
    rho = _random_pure_density(qgrid, 31)
    xs, ts = _sample_points(qgrid, 32)
    fit = tomography_solve(evolve_diagonal_series(rho, xs, ts), rho.p_grid, grid=qgrid)
    assert np.max(np.abs(fit.rho.elements - rho.elements)) <= 1e-6
    assert fit.populations_resolved
    assert fit.condition_number < 1e3
    assert fit.residual <= 1e-8


def test_tomography_handles_degenerate_frequencies(qgrid):
    # the symmetric grid has omega(p) = omega(-p), so distinct pairs share
    # beat frequencies and only the x dependence separates them
    p_grid = np.array([-0.5, -0.375, -0.25, -0.125, 0.125, 0.25, 0.375, 0.5])
    rho = _random_pure_density(qgrid, 33, p_grid=p_grid)
    xs, ts = _sample_points(qgrid, 34)
    fit = tomography_solve(evolve_diagonal_series(rho, xs, ts), p_grid, grid=qgrid)
    assert np.max(np.abs(fit.rho.elements - rho.elements)) <= 1e-6
    assert fit.condition_number < 1e3


def test_tomography_refuses_unseparating_samples(qgrid):
    # with a single observation time, pairs sharing Delta p collapse onto
    # the same two quadrature columns and the fit cannot tell them apart
    rho = _random_pure_density(qgrid, 35)
    xs, _ = _sample_points(qgrid, 36)
    samples = evolve_diagonal_series(rho, xs, np.zeros(16))
    with pytest.raises(DegenerateDesignError) as info:
        tomography_solve(samples, rho.p_grid, grid=qgrid)
    assert len(info.value.pairs) > 0


def test_tomography_diagonal_truth(qgrid):
    # populations enter the data only through their sum; the fit must say so
    freqs = qgrid.dual.frequencies
    p_grid = freqs[P_BAND.mask(freqs)]
    probs = np.linspace(1.0, 2.0, p_grid.size)
    probs /= probs.sum()
    rho = DensityMatrix(p_grid=p_grid, elements=np.diag(probs), grid=qgrid)
    xs, ts = _sample_points(qgrid, 37)
    fit = tomography_solve(evolve_diagonal_series(rho, xs, ts), p_grid, grid=qgrid)
    off = fit.rho.elements - np.diag(np.diag(fit.rho.elements))
    assert np.max(np.abs(off)) <= 1e-8
    assert not fit.populations_resolved
    assert fit.rho.trace == pytest.approx(1.0, abs=1e-8)


def test_tomography_needs_enough_samples(qgrid):
    rho = _random_pure_density(qgrid, 38)
    xs, ts = _sample_points(qgrid, 39, n_x=3, n_t=3)
    with pytest.raises(ValueError):
        tomography_solve(evolve_diagonal_series(rho, xs, ts), rho.p_grid)


def test_rank1_extract_round_trip(qgrid):
    psi = _state(qgrid)
    rec = rank1_extract(build_density(psi, P_BAND))
    assert fidelity(rec, psi) >= 1.0 - 1e-10
    # phase convention: the dominant momentum coefficient is real positive
    spec = momentum_spectrum(rec)
    lead = spec.values[int(np.argmax(np.abs(spec.values)))]
    assert abs(lead.imag) <= 1e-10 * abs(lead)
    assert lead.real > 0.0


def test_rank1_extract_refuses_mixed_states(qgrid):
    a = _random_pure_density(qgrid, 40)
    b = _random_pure_density(qgrid, 41)
    mixed = DensityMatrix(
        p_grid=a.p_grid,
        elements=0.5 * a.elements + 0.5 * b.elements,
        grid=qgrid,
    )
    with pytest.raises(RefusalError):
        rank1_extract(mixed)


def test_fidelity_is_phase_free(qgrid):
    psi = _state(qgrid)
    turned = WaveFunction(qgrid, np.exp(0.7j) * psi.values, normalized=True)
    assert fidelity(psi, turned) == pytest.approx(1.0, abs=1e-12)
