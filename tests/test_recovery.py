"""The erasure channel and the three gap solvers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subgap import (
    ErasureModel,
    Interval,
    NotBandlimitedError,
    RefusalError,
    SampledSignal,
    TimeGrid,
    band_project,
    erase,
    invertibility_report,
    l2_norm,
    make_demo_signal,
    noise_stability_sweep,
    out_of_band_fraction,
    prolate_eigenvalues,
    recover_band_neumann,
    recover_direct,
    recover_neumann,
    time_gate,
)

WINDOW = Interval(0.0, 0.25)  # WT = 0.5 with the W = 2 band


def _erased(s_w, band, window=WINDOW):
    return erase(s_w, ErasureModel(window=window, source_band=band))


def test_erase_zeroes_window_and_keeps_rest(grid, band, s_w):
    r = _erased(s_w, band)
    inside = WINDOW.mask(grid.times)
    assert np.all(r.values[inside] == 0.0)
    np.testing.assert_array_equal(r.values[~inside], s_w.values[~inside])


def test_erase_requires_bandlimited_input(grid, band):
    # the raw demo signal has ~1e-4 out-of-band energy from the finite window
    with pytest.raises(NotBandlimitedError):
        erase(make_demo_signal(grid), ErasureModel(window=WINDOW, source_band=band))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_erase_rejects_non_finite_samples(grid, band, s_w, bad):
    vals = s_w.values.copy()
    vals[grid.n // 3] = bad
    with pytest.raises(NotBandlimitedError):
        erase(SampledSignal(grid, vals), ErasureModel(window=WINDOW, source_band=band))


def test_noise_must_vanish_on_the_window(grid, band):
    bad = SampledSignal(grid, np.ones(grid.n))
    with pytest.raises(ValueError):
        ErasureModel(window=WINDOW, source_band=band, noise=bad)


def test_invertibility_report(grid, band):
    ok = invertibility_report(grid, band, WINDOW)
    assert ok.invertible and ok.wt == pytest.approx(0.5)
    assert 0.0 < ok.lambda0 < 1.0
    bad = invertibility_report(grid, band, Interval(0.0, 1.0))
    assert not bad.invertible
    assert not bad.wt_ok
    assert bad.wt == pytest.approx(2.0)


def test_series_recovery_is_exact(grid, band, s_w):
    rec = recover_neumann(_erased(s_w, band), band, WINDOW)
    assert rec.converged and not rec.refused
    err = l2_norm(SampledSignal(grid, rec.recovered.values - s_w.values))
    assert err / l2_norm(s_w) <= 1e-6
    # the update norms decay geometrically, so the tail is monotone
    hist = rec.residual_history
    assert rec.iterations == hist.size
    assert np.all(np.diff(hist[2:]) < 0.0)


def test_contraction_rate_matches_operator_norm(grid, band, s_w):
    rec = recover_neumann(_erased(s_w, band), band, WINDOW)
    report = invertibility_report(grid, band, WINDOW)
    # successive updates shrink at most by ||P_T P_W|| = sqrt(lambda0)
    assert rec.contraction_estimate <= np.sqrt(report.lambda0) + 0.02
    assert rec.contraction_estimate <= np.sqrt(0.5) + 0.02


def test_band_variant_matches_time_variant(grid, band, s_w):
    r = _erased(s_w, band)
    a = recover_neumann(r, band, WINDOW)
    b = recover_band_neumann(r, band, WINDOW)
    diff = l2_norm(SampledSignal(grid, a.recovered.values - b.recovered.values))
    assert diff / l2_norm(s_w) <= 1e-8
    assert out_of_band_fraction(b.recovered, band) <= 1e-12


def test_band_iterates_stay_bandlimited(grid, band, s_w):
    # mirror the band-side iteration y <- P_W r + P_W P_T y step by step
    r = _erased(s_w, band)
    y = band_project(r, band)
    b = y
    for _ in range(60):
        y = SampledSignal(
            grid, b.values + band_project(time_gate(y, WINDOW), band).values
        )
        assert out_of_band_fraction(y, band) <= 1e-12
    lib = recover_band_neumann(r, band, WINDOW)
    diff = l2_norm(SampledSignal(grid, y.values - lib.recovered.values))
    assert diff / l2_norm(s_w) <= 1e-8


def test_direct_solve_agrees_with_series(grid, band, s_w):
    r = _erased(s_w, band)
    series = recover_neumann(r, band, WINDOW).recovered
    direct = recover_direct(r, band, WINDOW)
    diff = l2_norm(SampledSignal(grid, series.values - direct.values))
    assert diff / l2_norm(s_w) <= 1e-8


@pytest.mark.parametrize(
    "w,t", [(2.0, 0.25), (0.25, 3.0)], ids=["K<M", "K>=M"]
)
def test_direct_and_band_solvers_recover_the_truth(grid, random_bandlimited, w, t):
    # both sides of the min(M, K) selection: M = 128 bins over K = 16
    # samples (Woodbury), and M = 16 bins over K = 192 samples
    band = Interval(0.3, w)
    window = Interval(-1.1, t)
    s = random_bandlimited(band, seed=9)
    r = _erased(s, band, window)
    scale = l2_norm(s)
    direct = recover_direct(r, band, window)
    assert l2_norm(SampledSignal(grid, direct.values - s.values)) <= 1e-12 * scale
    series = recover_band_neumann(r, band, window).recovered
    assert l2_norm(SampledSignal(grid, series.values - s.values)) <= 1e-8 * scale


def test_all_solvers_refuse_past_the_limit(grid, band, s_w):
    window = Interval(0.0, 1.0)  # WT = 2
    r = _erased(s_w, band, window)
    for solver in (recover_neumann, recover_band_neumann):
        rec = solver(r, band, window)
        assert rec.refused and rec.recovered is None
        assert not rec.converged
        assert "WT" in rec.reason
    with pytest.raises(RefusalError):
        recover_direct(r, band, window)


def test_iteration_budget_reported_honestly(band, s_w):
    r = _erased(s_w, band)
    starved = recover_neumann(r, band, WINDOW, tol=1e-10, k_max=3)
    assert not starved.converged and not starved.refused
    assert starved.iterations == 3


def test_noise_amplification_bounded(grid, band, s_w):
    sigmas = (1e-6, 1e-4, 1e-2)
    rows = noise_stability_sweep(s_w, band, WINDOW, sigmas, seed=5)
    errs = [row.err for row in rows]
    assert all(row.amplification <= row.bound for row in rows)
    # the channel is linear, so error grows with the noise level
    assert errs[0] < errs[1] < errs[2]
    # and the clean-data error sits at solver tolerance, far below sigma
    clean = noise_stability_sweep(s_w, band, WINDOW, (0.0,), seed=5)[0]
    assert clean.err <= 1e-8
    assert clean.amplification == 0.0


def test_stability_sweep_refuses_past_the_limit(band, s_w):
    with pytest.raises(RefusalError):
        noise_stability_sweep(s_w, band, Interval(0.0, 1.0), (1e-4,))


@given(
    w=st.floats(0.25, 4.0),
    t=st.floats(1.0 / 16, 2.0),
    place=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_solve_is_linear_and_refusal_is_exact(w, t, place, seed):
    grid = TimeGrid(-8.0, 1.0 / 64, 1024)
    band = Interval(0.0, w)
    window = Interval(grid.t_start + t / 2 + place * (grid.span - t), t)
    lam = prolate_eigenvalues(grid, band, window)[0]
    refuse = w * t >= 1.0 or lam > 1.0 - 1e-6
    rng = np.random.default_rng(seed)
    r1, r2 = (
        SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
        for _ in range(2)
    )
    # refusal is decided before the first iteration, so one step suffices
    for solver in (recover_neumann, recover_band_neumann):
        assert solver(r1, band, window, k_max=1).refused == refuse
    if refuse:
        with pytest.raises(RefusalError):
            recover_direct(r1, band, window)
        return
    a, b = 0.6 - 1.3j, 2.1 + 0.4j
    mix = recover_direct(SampledSignal(grid, a * r1.values + b * r2.values), band, window)
    d1 = recover_direct(r1, band, window).values
    d2 = recover_direct(r2, band, window).values
    scale = abs(a) * np.linalg.norm(d1) + abs(b) * np.linalg.norm(d2)
    # a backward-stable solve is accurate to eps times cond = 1/(1 - lambda0)
    assert np.linalg.norm(mix.values - a * d1 - b * d2) <= 1e-12 / (1.0 - lam) * scale
