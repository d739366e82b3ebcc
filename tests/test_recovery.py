"""The erasure channel and the three gap solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgap import (
    ErasureModel,
    Interval,
    NotBandlimitedError,
    PhaseSpaceWindows,
    RefusalError,
    SampledSignal,
    TimeGrid,
    WaveFunction,
    band_project,
    default_grid,
    erase,
    invertibility_report,
    l2_norm,
    make_demo_signal,
    noise_stability_sweep,
    out_of_band_fraction,
    recover_band_neumann,
    recover_direct,
    recover_neumann,
    recover_state,
    time_gate,
)
from subgap import core, projections, recovery
from subgap.experiments import run_stability

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
    # successive updates shrink by lambda0 = ||P_T P_W||^2; sqrt(lambda0)
    # and sqrt(WT) are looser caps
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
    with pytest.raises(RefusalError) as info:
        recover_direct(r, band, window)
    assert info.value.report == invertibility_report(grid, band, window)
    assert str(info.value) == f"refusing direct solve: {rec.reason}"


def test_lambda0_margin_refuses_below_wt_one():
    # WT = 0.9894 < 1, yet M + K = 33 + 2 exceeds n = 34, so a bandlimited
    # vector vanishes off the window and lambda0 is 1 (1.0000000000000002
    # in floating point): every solver must refuse through lambda0 alone
    grid = TimeGrid(-17.0, 1.0, 34)
    band = Interval(0.0, 0.97)
    window = Interval(-1.5, 1.02)
    report = invertibility_report(grid, band, window)
    assert report.wt_ok and not report.lambda0_ok and not report.invertible
    rng = np.random.default_rng(9)
    s = band_project(SampledSignal(grid, rng.standard_normal(grid.n)), band)
    r = _erased(s, band, window)
    for solver in (recover_neumann, recover_band_neumann):
        rec = solver(r, band, window)
        assert rec.refused and rec.recovered is None
        assert "lambda0=1 (ok=False)" in rec.reason
    with pytest.raises(RefusalError):
        recover_direct(r, band, window)
    with pytest.raises(RefusalError):
        noise_stability_sweep(s, band, window, (1e-4,))
    psi = WaveFunction(grid, np.conj(s.values))
    with pytest.raises(RefusalError):
        recover_state(psi, PhaseSpaceWindows(x_window=window, p_band=band))


@pytest.mark.parametrize(
    "tol,k_max",
    [(0.0, None), (-1e-10, None), (np.nan, None), (np.inf, None), (-np.inf, None)]
    + [(np.nan, 5), (np.inf, 5), (-1e-10, 5)]
    + [(1e-10, -3), (1e-10, True), (1e-10, 2.5)],
)
def test_series_solvers_reject_a_bad_tol(grid, band, s_w, tol, k_max):
    # without a k_max these died in the default step count with a math
    # domain error, a NaN conversion or an OverflowError; with one, a NaN
    # tol silently ran all k_max steps.  tol = 0 is allowed with a k_max.
    # A k_max of -3 returned r unrecovered, True ran one step and 2.5
    # raised TypeError; None and 5 are the valid ones
    message = "tol must be finite" if k_max in (None, 5) else "k_max must be an integer"
    r = _erased(s_w, band)
    psi = WaveFunction(grid, np.conj(s_w.values))
    windows = PhaseSpaceWindows(x_window=WINDOW, p_band=band)
    calls = [
        lambda: recover_neumann(r, band, WINDOW, tol, k_max),
        lambda: recover_band_neumann(r, band, WINDOW, tol, k_max),
        lambda: recover_state(psi, windows, tol, k_max),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("n,invertible", [(200, True), (216, False)])
def test_lambda0_margin_width_is_pinned(n, invertible):
    # M = 2 in-band bins over K = n - 2 gated samples, WT < 1 on both grids:
    # 1 - lambda0 = 2 (1 - cos(pi/n)) / n is 1.23e-6 at n = 200 and 9.79e-7
    # at n = 216, either side of LAMBDA_MARGIN = 1e-6, so a margin of 0 or
    # one widened to 1.3e-6 fails one of the two cases
    grid = TimeGrid(0.0, 1.0, n)
    dw = grid.dual.dw
    band = Interval(dw / 2, 1.0001 * dw)
    window = Interval((n - 1) / 2, n - 2.99)
    assert band.mask(grid.dual.frequencies).sum() == 2
    assert window.mask(grid.times).sum() == n - 2
    report = invertibility_report(grid, band, window)
    assert report.wt_ok and report.lambda0 < 1.0
    gap = 2.0 * (1.0 - np.cos(np.pi / n)) / n
    assert 1.0 - report.lambda0 == pytest.approx(gap, rel=1e-6)
    assert report.lambda0_ok is report.invertible is invertible


def test_iteration_budget_reported_honestly(band, s_w):
    r = _erased(s_w, band)
    starved = recover_neumann(r, band, WINDOW, tol=1e-10, k_max=3)
    assert not starved.converged and not starved.refused
    assert starved.iterations == 3


def test_noise_amplification_bounded(grid, band, s_w):
    sigmas = (1e-6, 1e-4, 1e-2)
    rows, bound = noise_stability_sweep(s_w, band, WINDOW, sigmas, seed=5)
    errs = [row.err for row in rows]
    assert all(row.amplification <= bound for row in rows)
    # the channel is linear, so error grows with the noise level
    assert errs[0] < errs[1] < errs[2]
    # and the clean-data error sits at solver tolerance, far below sigma
    clean = noise_stability_sweep(s_w, band, WINDOW, (0.0,), seed=5)[0][0]
    assert clean.err <= 1e-8
    assert clean.amplification == 0.0


def test_stability_sweep_refuses_past_the_limit(band, s_w):
    window = Interval(0.0, 1.0)
    with pytest.raises(RefusalError) as info:
        noise_stability_sweep(s_w, band, window, (1e-4,))
    report = invertibility_report(s_w.grid, band, window)
    assert info.value.report == report
    assert str(info.value) == f"refusing stability sweep: {report.reason}"


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
    lam = np.linalg.eigvalsh(projections._dirichlet_kernel(grid, band, window))[::-1][0]
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


@given(
    wt=st.floats(0.05, 1.2),
    count=st.integers(4, 128),
    first=st.integers(1, 1024 - 128),
    moved=st.integers(1, 1024 - 128),
    seed=st.integers(0, 2**32 - 1),
)
def test_neumann_solvers_are_linear_and_shift_covariant(wt, count, first, moved, seed):
    grid = TimeGrid(-8.0, 1.0 / 64, 1024)
    band = Interval(0.0, wt / (count * grid.dt))
    shift = moved - first

    def window(start):
        # gates samples start .. start + count - 1; its edges lie midway
        # between samples, so a shift by whole samples moves every bin
        lo = grid.t_start + (start - 0.5) * grid.dt
        return Interval(lo + 0.5 * count * grid.dt, count * grid.dt)

    rng = np.random.default_rng(seed)
    r1, r2 = (
        rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        for _ in range(2)
    )
    a, b = 0.6 - 1.3j, 2.1 + 0.4j
    for solver in (recover_neumann, recover_band_neumann):
        # tol = 0 runs exactly k_max steps, so every run is the same linear map
        def run(values, start=first):
            rec = solver(SampledSignal(grid, values), band, window(start), 0.0, 8)
            return None if rec.refused else rec.recovered.values

        d1, d2 = run(r1), run(r2)
        if d1 is None:
            assert run(np.roll(r1, shift), moved) is None
            continue
        mix = run(a * r1 + b * r2)
        scale = abs(a) * np.linalg.norm(d1) + abs(b) * np.linalg.norm(d2)
        assert np.linalg.norm(mix - a * d1 - b * d2) <= 1e-12 * scale
        rolled = run(np.roll(r1, shift), moved)
        moved_off = np.linalg.norm(rolled - np.roll(d1, shift))
        assert moved_off <= 1e-12 * np.linalg.norm(d1)


def _fft_recursion(r, band, window, k_max, band_side):
    """The series solvers as whole-grid FFT recursions, tol = 0.

    x <- r + P_T P_W x from x = r, or y <- P_W r + P_W P_T y from
    y = P_W r, with each step's relative update norm and the same halting
    rule as the library: the reference the window-space loop must match.
    """
    if band_side:
        b = band_project(r, band)

        def step(y):
            return band_project(time_gate(y, window), band)
    else:
        b = r

        def step(x):
            return time_gate(band_project(x, band), window)

    x = b
    rel, ups = [], []
    for _ in range(k_max):
        new = b.values + step(x).values
        ups.append(np.linalg.norm(new - x.values))
        rel.append(ups[-1] / np.linalg.norm(new))
        x = SampledSignal(r.grid, new)
        if len(ups) >= 2 and ups[-1] > ups[-2]:
            break
    ratios = [b_ / a_ for a_, b_ in zip(ups, ups[1:]) if a_ > 0.0]
    return x.values, np.asarray(rel), max(ratios, default=0.0)


@pytest.mark.parametrize("k_max", [1, 8])
@pytest.mark.parametrize("data", ["erased", "raw"])
@pytest.mark.parametrize(
    "case",
    [
        # M = 128 bins over K = 25 samples
        (default_grid(), Interval(0.0, 2.0), Interval(-3.7, 0.4), False),
        # an off-centre band: M = 16 bins over K = 192 samples
        (default_grid(), Interval(0.6, 0.25), Interval(5.2, 3.0), False),
        # a window that opens at the grid's first sample, on a grid whose
        # t_start and dt are not dyadic
        (TimeGrid(-10.3, 0.01, 2048), Interval(-0.4, 2.0), Interval(-10.15, 0.3), True),
    ],
    ids=["K<M", "K>=M", "first-sample"],
)
def test_series_solvers_follow_the_fft_recursion_step_for_step(case, data, k_max):
    grid, band, window, opens_at_start = case
    assert window.mask(grid.times)[0] == opens_at_start
    rng = np.random.default_rng(17)
    r = SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    if data == "erased":
        r = _erased(band_project(r, band), band, window)
    # the raw data are neither bandlimited nor zero on the window
    for solver, band_side in ((recover_neumann, False), (recover_band_neumann, True)):
        rec = solver(r, band, window, 0.0, k_max)
        x, rel, contraction = _fft_recursion(r, band, window, k_max, band_side)
        assert rec.iterations == rel.size == k_max
        np.testing.assert_allclose(rec.residual_history, rel, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(rec.contraction_estimate, contraction, rtol=1e-13, atol=0.0)
        assert np.linalg.norm(rec.recovered.values - x) <= 1e-13 * np.linalg.norm(x)


@st.composite
def _gap_problems(draw):
    """A grid of n <= 256 samples, a band of M bins and a window of K
    samples with WT = M K / n < 1, edges midway between bins and samples."""
    n = 2 * draw(st.integers(4, 128))
    grid = TimeGrid(draw(st.floats(-50.0, 50.0)), draw(st.floats(0.01, 1.0)), n)
    m = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, (n - 1) // m))
    first_bin = draw(st.integers(1, n - m))
    first_sample = draw(st.integers(1, n - k))
    dw = grid.dual.dw
    band = Interval(grid.dual.frequencies[first_bin] + 0.5 * (m - 1) * dw, m * dw)
    window = Interval(grid.times[first_sample] + 0.5 * (k - 1) * grid.dt, k * grid.dt)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = SampledSignal(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return r, band, window


@settings(max_examples=60)
@given(_gap_problems())
def test_solvers_match_a_dense_oracle(problem):
    r, band, window = problem
    grid = r.grid
    # P_W and P_T as n x n matrices, from the projectors on identity columns
    eye = np.eye(grid.n)
    pw = np.column_stack([band_project(SampledSignal(grid, e), band).values for e in eye])
    pt = np.column_stack([time_gate(SampledSignal(grid, e), window).values for e in eye])
    report = invertibility_report(grid, band, window)
    runs = [solver(r, band, window, tol=1e-12) for solver in (recover_neumann, recover_band_neumann)]
    assert [rec.refused for rec in runs] == [not report.invertible] * 2
    if not report.invertible:
        with pytest.raises(RefusalError):
            recover_direct(r, band, window)
        return
    oracle = np.linalg.solve(np.eye(grid.n) - pw @ pt, pw @ r.values)
    limit = 1e-10 / (1.0 - report.lambda0) * np.linalg.norm(oracle)
    assert all(rec.converged for rec in runs)
    series, band_series = (rec.recovered.values for rec in runs)
    # the time-side iterate is r outside the window; its band part is s_W
    assert np.linalg.norm(pw @ series - oracle) <= limit
    assert np.linalg.norm(band_series - oracle) <= limit
    assert np.linalg.norm(recover_direct(r, band, window).values - oracle) <= limit


def test_series_steps_make_no_fft(grid, band, s_w, monkeypatch):
    # one erased signal is transformed once: a report and all three solvers
    # on it make one ifft between them, the band variant and the direct
    # solve one fft back each; a longer series then adds no FFT at all
    r = _erased(s_w, band)
    core._dft.cache_clear()
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    def count(run):
        calls.clear()
        out = run()
        return list(calls), out

    invertibility_report(grid, band, WINDOW)
    for solver in (recover_neumann, recover_band_neumann, recover_direct):
        solver(r, band, WINDOW)
    assert calls == ["ifft", "fft", "fft"]
    for solver, back in ((recover_neumann, []), (recover_band_neumann, ["fft"])):
        short, _ = count(lambda: solver(r, band, WINDOW, 0.0, 4))
        long, rec = count(lambda: solver(r, band, WINDOW, 0.0, 40))
        assert rec.iterations > 4
        assert short == long == back


def test_erase_makes_one_transform(band, s_w, monkeypatch):
    # the bandlimit guard is one inverse FFT, and the gate needs none
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    _erased(s_w, band)
    assert calls == ["ifft"]


def test_stability_run_erases_once(tmp_path, monkeypatch):
    # the run's own band projection, one bandlimit check of s_W for the
    # whole sweep, and one transform of each of the three sigmas' data
    calls = []
    real = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    assert run_stability(tmp_path)["passed"]
    assert len(calls) == 5


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("first", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-3])
def test_stability_sweep_rejects_a_non_finite_sigma(band, s_w, bad, first):
    sigmas = (bad, 1e-4) if first else (1e-4, bad)
    with pytest.raises(ValueError, match="finite"):
        noise_stability_sweep(s_w, band, WINDOW, sigmas)


def test_direct_solve_bounds_the_solved_dimension(band, s_w, monkeypatch):
    # W = 2, T = 1/4 on the default grid: M = 128 in-band bins, K = 16
    # gated samples, so the Woodbury path solves a 16 x 16 system
    r = _erased(s_w, band)
    monkeypatch.setattr(recovery, "DIRECT_SOLVE_DIM_LIMIT", 16)
    err = recover_direct(r, band, WINDOW).values - s_w.values
    assert np.max(np.abs(err)) <= 1e-8
    monkeypatch.setattr(recovery, "DIRECT_SOLVE_DIM_LIMIT", 15)
    with pytest.raises(RefusalError, match="min\\(M, K\\) = 16 exceeds 15") as info:
        recover_direct(r, band, WINDOW)
    assert info.value.report is None
