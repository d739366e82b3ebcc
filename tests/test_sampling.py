"""Comb sampling, sinc interpolation, periodization, and copy recovery."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subgap import (
    CombSamples,
    ErasureModel,
    GridMismatchError,
    Interval,
    SampledSignal,
    SpectralCopyConfig,
    Spectrum,
    TimeGrid,
    band_approx_first_term,
    band_interpolate,
    band_project,
    comb_sample,
    erase,
    forward_spectrum,
    integral_equation_residual,
    inverse_signal,
    make_demo_signal,
    out_of_band_fraction,
    periodized_spectrum,
    sinc_reconstruct,
    spectral_copy_recover,
    time_gate,
)
from subgap import core, experiments, projections

T_SN = 0.25


def test_comb_sample_reads_exact_instants(grid, s_w):
    c = comb_sample(s_w, T_SN)
    np.testing.assert_allclose(c.instants, c.offsets * T_SN)
    stride = round(T_SN / grid.dt)
    i0 = round(-grid.t_start / grid.dt)
    np.testing.assert_array_equal(c.values, s_w.values[i0 + c.offsets * stride])
    # instants cover the whole grid
    assert c.instants[0] == grid.t_start
    assert c.instants[-1] == grid.t_end - T_SN


def test_comb_sample_requires_commensurate_period(s_w):
    with pytest.raises(ValueError):
        comb_sample(s_w, 0.3)  # 0.3 / dt = 19.2 samples


def test_sinc_series_interpolates_its_own_samples(grid, s_w):
    c = comb_sample(s_w, T_SN)
    recon = sinc_reconstruct(c, grid)
    stride = round(T_SN / grid.dt)
    i0 = round(-grid.t_start / grid.dt)
    idx = i0 + c.offsets * stride
    np.testing.assert_allclose(recon.values[idx], c.values, atol=1e-12)


def test_band_interpolation_exact_on_interior(grid, band, s_w):
    recon = band_interpolate(comb_sample(s_w, T_SN), band)
    interior = np.abs(grid.times) <= grid.span / 4.0
    err = np.max(np.abs(recon.values[interior] - s_w.values[interior]))
    assert err / np.max(np.abs(s_w.values)) <= 1e-6
    assert out_of_band_fraction(recon, band) <= 1e-12


def test_band_interpolation_rejects_undersampling(band, s_w):
    # period 1 cannot carry a band of width 2
    with pytest.raises(ValueError):
        band_interpolate(comb_sample(s_w, 1.0), band)


def test_oversampled_periodization_matches_on_band(band, s_w):
    # copies sit 1/T_SN = 4 apart, so none reaches the width-2 band
    per = periodized_spectrum(comb_sample(s_w, T_SN))
    s_hat = forward_spectrum(s_w)
    keep = band.mask(per.grid.frequencies)
    assert np.max(np.abs(per.values[keep] - s_hat.values[keep])) <= 1e-10


def test_undersampled_periodization_aliases_on_band(band, s_w):
    per = periodized_spectrum(comb_sample(s_w, 1.0))
    s_hat = forward_spectrum(s_w)
    keep = band.mask(per.grid.frequencies)
    # spacing-1 copies of the width-2 triangle overlap it everywhere
    assert np.max(np.abs(per.values[keep] - s_hat.values[keep])) >= 1e-2


def _gap_between_samples(grid):
    # erase strictly between the instants 0 and T_SN, edges observed
    return Interval(T_SN / 2.0, T_SN - grid.dt)


def _band_l2(spec_values, s_hat, keep):
    diff = spec_values[keep] - s_hat.values[keep]
    return float(np.sqrt(s_hat.grid.dw * np.sum(np.abs(diff) ** 2)))


def _rel_band_l2(got, want, keep):
    return np.linalg.norm(got[keep] - want[keep]) / np.linalg.norm(want[keep])


def test_copy_sum_error_strictly_decreases(grid, band, s_w):
    window = _gap_between_samples(grid)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    s_hat = forward_spectrum(s_w)
    keep = band.mask(s_hat.grid.frequencies)
    errs = []
    for k in range(3):
        cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=window.width, k_max=k)
        result = spectral_copy_recover(r, cfg)
        assert result.k_used == k
        errs.append(_band_l2(result.spectrum.values, s_hat, keep))
    assert errs[0] > errs[1] > errs[2]
    # convergence is slow: no term wins more than a modest factor
    assert errs[2] > 0.1


def test_copy_errors_read_every_order_from_one_transform(grid, band, s_w, monkeypatch):
    # the run erases the gap as wide as T_SN itself; its errors and k_max
    # spectrum equal the per-order calls, from one forward FFT of r for
    # every order up to the full one
    window = _gap_between_samples(grid)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    s_hat = forward_spectrum(s_w)
    keep = band.mask(s_hat.grid.frequencies)
    sums = [
        spectral_copy_recover(
            r, SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=window.width, k_max=k)
        ).spectrum
        for k in range(4)
    ]
    calls, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda x: calls.append(x) or ifft(x))
    checks = []
    errs, spectrum = experiments._copy_errors(checks, s_w, s_hat, band, T_SN, 3)
    # the erasure's bandlimit check transforms s_w, and all k_max + 2 copy
    # sums share the one transform of the run's r
    assert len(calls) == 2 and calls[0] is s_w.values and calls[1] is not s_w.values
    assert errs == [_band_l2(spec.values, s_hat, keep) for spec in sums]
    assert np.array_equal(spectrum.values, sums[3].values)
    assert [c["name"] for c in checks if c["passed"]] == [
        "copy_sum_error_decreases", "copy_sum_exact_at_full_order"
    ]


def test_copy_sums_and_first_term_share_one_transform_of_r(grid, band, s_w, monkeypatch):
    window = _gap_between_samples(grid)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    calls, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **kw: calls.append(a) or ifft(*a, **kw))
    for k in range(9):  # every order up to the full one, T_SN/(2 dt) = 8
        cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=window.width, k_max=k)
        spectral_copy_recover(r, cfg)
    band_approx_first_term(r, band, window.width)
    assert len(calls) == 1


def test_copy_sums_after_an_eviction_equal_the_cold_call(grid, band, s_w):
    window = _gap_between_samples(grid)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=window.width, k_max=3)

    def outputs():
        return (
            spectral_copy_recover(r, cfg).spectrum.values,
            band_approx_first_term(r, band, window.width).approx.values,
        )

    cold = outputs()
    core._dft(s_w)  # the one entry now holds another signal
    misses = core._dft.cache_info().misses
    evicted = outputs()
    assert core._dft.cache_info().misses == misses + 1
    for a, b in zip(cold, evicted):
        assert np.array_equal(a, b)


def test_spectrum_memo_is_the_transform_and_read_only(s_w):
    vals = core._dft(s_w)
    assert vals.tobytes() == np.fft.ifft(s_w.values).tobytes()
    assert core._dft(s_w) is vals
    assert not vals.flags.writeable


def test_copy_sum_is_exact_at_full_order_and_stops_there(grid, band, s_w):
    # T_SN/dt = 16: the copies k = -8..8 (k = +-8 one shift of n/2) tile
    # the periodic grid spectrum once
    window = _gap_between_samples(grid)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    s_hat = forward_spectrum(s_w)
    keep = band.mask(s_hat.grid.frequencies)
    cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=window.width, k_max=8)
    result = spectral_copy_recover(r, cfg)
    assert _rel_band_l2(result.spectrum.values, s_hat.values, keep) <= 1e-12
    assert result.k_used == 8
    with pytest.raises(ValueError, match="k_max"):
        spectral_copy_recover(r, dataclasses.replace(cfg, k_max=50))


def test_copy_shift_must_align_with_frequency_bins(band, s_w):
    r = s_w  # no gap needed to exercise the geometry check
    cfg = SpectralCopyConfig(band=band, t_sn=0.3, t_ds=0.3, k_max=1)
    with pytest.raises(ValueError):
        spectral_copy_recover(r, cfg)
    # t_sn/dt = 3 does not divide n = 4096: 1/t_sn falls between bins
    cfg = SpectralCopyConfig(band=band, t_sn=3 / 64, t_ds=3 / 64, k_max=1)
    with pytest.raises(ValueError, match="divide"):
        spectral_copy_recover(r, cfg)


def test_copy_config_validation(band):
    with pytest.raises(ValueError):
        SpectralCopyConfig(band=band, t_sn=0.25, t_ds=0.3, k_max=1)  # gap > period
    with pytest.raises(ValueError):
        SpectralCopyConfig(band=band, t_sn=0.6, t_ds=0.25, k_max=1)  # period > 1/W
    with pytest.raises(ValueError):
        SpectralCopyConfig(band=band, t_sn=0.25, t_ds=0.25, k_max=-1)


@pytest.mark.parametrize(
    "make",
    [
        lambda s, band: comb_sample(s, math.inf),
        lambda s, band: comb_sample(s, math.nan),
        lambda s, band: CombSamples(s.grid, math.inf, [0], [1.0]),
        lambda s, band: CombSamples(s.grid, math.nan, [0], [1.0]),
        lambda s, band: SpectralCopyConfig(band=band, t_sn=0.25, t_ds=0.25, k_max=2.5),
        lambda s, band: SpectralCopyConfig(band=band, t_sn=0.25, t_ds=0.25, k_max=True),
        lambda s, band: band_approx_first_term(s, band, -0.25),
        lambda s, band: band_approx_first_term(s, band, math.nan),
    ],
    ids=[
        "comb-inf", "comb-nan", "period-inf", "period-nan",
        "k_max-float", "k_max-bool", "t_ds-negative", "t_ds-nan",
    ],
)
def test_bad_sampling_input_is_rejected_when_constructed(s_w, band, make):
    with pytest.raises(ValueError):
        make(s_w, band)


def test_comb_offsets_must_be_integers(grid):
    # the int cast turned [0.5, 1.9, -2.7] into [0, 1, -2] and 1e30 into
    # -2**63 silently, so instants and periodized_spectrum used sample
    # times nobody gave
    for bad in (
        [0.5, 1.9, -2.7],
        [0.0, np.inf, 1.0],
        np.array([0.0, 1.0, np.nan]),
        np.array([0.0, 1.0, 1e30]),
    ):
        with pytest.raises(ValueError, match="offsets"):
            CombSamples(grid, T_SN, bad, [1.0, 2.0, 3.0])
    c = CombSamples(grid, T_SN, np.array([0.0, 1.0, -2.0]), [1.0, 2.0, 3.0])
    assert c.offsets.dtype.kind == "i"
    np.testing.assert_array_equal(c.instants, [0.0, T_SN, -2.0 * T_SN])


@st.composite
def _copy_cases(draw):
    """A grid with t = 0 on it, t_sn = m dt with m | n, a band of at most
    1/t_sn, a random signal bandlimited to it, and a gap of grid points
    strictly between two comb instants."""
    m = draw(st.integers(2, 32))
    n = m * draw(st.integers(max(1, 128 // m), 2048 // m))
    if n % 2:
        n *= 2
    dt = 1.0 / 32
    i0 = draw(st.integers(0, n - 1))
    grid = TimeGrid(-i0 * dt, dt, n)
    # the band covers bins lo..lo+bins-1; its edges sit between bins
    bins = draw(st.integers(1, n // m))
    lo = draw(st.integers(-n // 2 + 1, n // 2 - bins))
    band = Interval((lo + bins / 2 - 0.5) / grid.span, bins / grid.span)
    s_w = band_project(_random_signal(grid, draw(st.integers(0, 2**16))), band)
    start = draw(st.integers(1, n - 1).filter(lambda i: (i - i0) % m))
    length = draw(st.integers(1, min(m - (start - i0) % m, n - start)))
    gap = Interval(grid.t_start + (start + length / 2 - 0.5) * dt, length * dt)
    return m, band, s_w, gap


@given(_copy_cases())
def test_copy_sum_at_full_order_is_the_periodized_spectrum(case):
    m, band, s_w, gap = case
    t_sn = m * s_w.grid.dt
    r = erase(s_w, ErasureModel(window=gap, source_band=band))
    cfg = SpectralCopyConfig(band=band, t_sn=t_sn, t_ds=gap.width, k_max=m // 2)
    got = spectral_copy_recover(r, cfg).spectrum.values
    keep = band.mask(s_w.grid.dual.frequencies)
    assert _rel_band_l2(got, forward_spectrum(s_w).values, keep) <= 1e-12
    # Poisson summation by an independent kernel: the comb's own spectrum
    poisson = periodized_spectrum(comb_sample(r, t_sn)).values
    assert _rel_band_l2(got, poisson, keep) <= 1e-12
    with pytest.raises(ValueError, match="k_max"):
        spectral_copy_recover(r, dataclasses.replace(cfg, k_max=m // 2 + 1))


def _rolled_copy_sum(r, band, m, k):
    """The copy sum by its definition: r_hat plus, for j = 1..k, its cyclic
    shifts by +-j n/m bins (one shift at 2j = m), then banded."""
    rhat = forward_spectrum(r).values
    step = r.grid.n // m
    acc = rhat.copy()
    for j in range(1, k + 1):
        pair = np.roll(rhat, j * step)
        if 2 * j != m:
            pair += np.roll(rhat, -j * step)
        acc += pair
    acc[~band.mask(r.grid.dual.frequencies)] = 0.0
    return acc


@given(_copy_cases())
def test_copy_sum_is_bitwise_the_rolled_definition_at_every_order(case):
    m, band, s_w, gap = case
    r = erase(s_w, ErasureModel(window=gap, source_band=band))
    for k in range(m // 2 + 1):
        cfg = SpectralCopyConfig(band=band, t_sn=m * r.grid.dt, t_ds=gap.width, k_max=k)
        got = spectral_copy_recover(r, cfg).spectrum.values
        assert np.array_equal(got, _rolled_copy_sum(r, band, m, k)), k


def test_copy_sum_is_not_exact_when_the_gap_swallows_a_sample(band, s_w):
    # [0, 1/4) erases the comb instant t = 0 itself
    r = erase(s_w, ErasureModel(window=Interval(0.125, 0.25), source_band=band))
    cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=0.25, k_max=8)
    got = spectral_copy_recover(r, cfg).spectrum.values
    keep = band.mask(s_w.grid.dual.frequencies)
    assert _rel_band_l2(got, forward_spectrum(s_w).values, keep) > 0.1


def test_copy_sum_refuses_a_grid_without_t_zero(band):
    # off the lattice the grid spectrum is not periodic and the wrap is wrong
    off = TimeGrid(-32.0 + 1.0 / 192, 1.0 / 64, 4096)
    s = band_project(_random_signal(off, 4), band)
    cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=T_SN / 2, k_max=1)
    with pytest.raises(ValueError, match="t=0"):
        spectral_copy_recover(s, cfg)


def test_copy_sum_below_the_old_clip_equals_zero_filled_shifts(grid, band, s_w):
    # the sum with zero-filled shifts, pair by pair, as it was computed
    # before copies wrapped: up to k = 7 no in-band bin reaches the fill
    r = erase(s_w, ErasureModel(window=_gap_between_samples(grid), source_band=band))
    r_hat = forward_spectrum(r).values
    keep = band.mask(grid.dual.frequencies)
    step = round(grid.n * grid.dt / T_SN)
    for k in range(8):
        cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=T_SN - grid.dt, k_max=k)
        acc = r_hat.copy()
        for j in range(1, k + 1):
            pair = np.zeros_like(r_hat)
            pair[j * step:] += r_hat[: grid.n - j * step]
            pair[: grid.n - j * step] += r_hat[j * step:]
            acc += pair
        got = spectral_copy_recover(r, cfg).spectrum.values
        assert np.array_equal(got[keep], acc[keep]), k


@pytest.mark.parametrize(
    "t_ds,regime",
    [(1.0 / 64, "ok"), (0.25, "marginal"), (1.0, "distorted")],
)
def test_band_restriction_regimes(grid, band, s_w, t_ds, regime):
    window = Interval(T_SN / 2.0, t_ds)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    result = band_approx_first_term(r, band, t_ds)
    assert result.regime == regime


def test_first_term_at_the_limit_has_an_infinite_offset(grid, band, s_w):
    # at W*t_ds = 1 the first-order model's 1/(1 - W*t_ds) has no value
    t_ds = 1.0 / band.width
    r = erase(s_w, ErasureModel(window=Interval(T_SN / 2.0, t_ds), source_band=band))
    result = band_approx_first_term(r, band, t_ds)
    assert band.width * t_ds == 1.0
    assert result.predicted_offset == math.inf and result.regime == "distorted"


def test_first_order_offset_prediction(grid, band, s_w):
    # for a narrow gap the model pins the uniform offset to ~5%
    t_ds = 1.0 / 64
    window = Interval(T_SN / 2.0, t_ds)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    result = band_approx_first_term(r, band, t_ds)
    s_hat = forward_spectrum(s_w)
    keep = band.mask(s_hat.grid.frequencies)
    sup = np.max(np.abs(result.approx.values[keep] - s_hat.values[keep]))
    assert abs(sup / result.predicted_offset - 1.0) <= 0.2


def test_integral_equation_residual_matched_pair(grid, band, s_w):
    # the residual operator uses the gap centered at t = 0
    t_ds = 0.25
    window = Interval(0.0, t_ds)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    resid = integral_equation_residual(
        forward_spectrum(s_w), forward_spectrum(r), band, t_ds
    )
    assert resid <= 1e-6


def test_integral_equation_residual_flags_mismatch(grid, band, s_w):
    # handing the ungapped signal as r violates the relation by O(T_DS)
    t_ds = 0.25
    s_hat = forward_spectrum(s_w)
    resid = integral_equation_residual(s_hat, s_hat, band, t_ds)
    assert resid >= 1e-3


def test_integral_equation_residual_rejects_spectra_on_two_grids(grid, band, s_w):
    other = TimeGrid(grid.t_start, grid.dt, grid.n // 2)
    s_hat = forward_spectrum(s_w)
    r_hat = Spectrum(other.dual, np.zeros(other.n))
    with pytest.raises(GridMismatchError, match="different grids"):
        integral_equation_residual(s_hat, r_hat, band, 0.25)
    with pytest.raises(GridMismatchError, match="different grids"):
        integral_equation_residual(r_hat, s_hat, band, 0.25)


# -- the FFT kernels against direct evaluation of their defining sums ------

SMALL = TimeGrid(-4.0, 1.0 / 32, 256)


def _random_signal(grid, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return SampledSignal(grid, raw)


def _sup_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("period", [0.25, 1.0])
@pytest.mark.parametrize("where", ["grid", "instants", "shifted", "beyond"])
def test_sinc_series_matches_dense_sum(period, where):
    c = comb_sample(_random_signal(SMALL, 1), period)
    at = {
        "grid": SMALL,
        "instants": TimeGrid(float(c.instants[0]), period, c.offsets.size),
        "shifted": TimeGrid(SMALL.t_start + 37 * SMALL.dt, SMALL.dt, 128),
        "beyond": TimeGrid(2.0, period / 2, 40),  # runs past the last sample
    }[where]
    dense = np.sinc((at.times[:, None] - c.instants[None, :]) / period) @ c.values
    assert _sup_rel(sinc_reconstruct(c, at).values, dense) <= 1e-12


def test_sinc_series_rejects_grid_off_the_comb_lattice():
    c = comb_sample(_random_signal(SMALL, 1), 0.25)
    with pytest.raises(ValueError):
        sinc_reconstruct(c, TimeGrid(-4.0, 0.1, 64))  # period/dt = 2.5
    with pytest.raises(ValueError):
        sinc_reconstruct(c, TimeGrid(-4.0 + SMALL.dt / 2, SMALL.dt, 64))  # t=0 off


@pytest.mark.parametrize("period", [0.25, 1.0])
def test_periodized_spectrum_matches_dense_sum(period):
    c = comb_sample(_random_signal(SMALL, 2), period)
    freqs = SMALL.dual.frequencies
    dense = period * np.exp(2j * np.pi * np.outer(freqs, c.instants)) @ c.values
    assert _sup_rel(periodized_spectrum(c).values, dense) <= 1e-12


@pytest.mark.parametrize("t_ds", [2.0 / 32, 0.25, 1.0])
def test_integral_equation_residual_matches_dirichlet_form(t_ds):
    band = Interval(0.25, 3.0)
    fg = SMALL.dual
    rng = np.random.default_rng(3)
    s_hat, r_hat = (
        Spectrum(fg, rng.standard_normal(fg.n) + 1j * rng.standard_normal(fg.n))
        for _ in range(2)
    )
    keep = band.mask(fg.frequencies)
    w = fg.frequencies[keep]
    times = SMALL.times
    tb = times[(times >= -t_ds / 2) & (times < t_ds / 2)]
    delta = np.subtract.outer(w, w)[:, :, None]
    kernel = SMALL.dt * np.exp(2j * np.pi * delta * tb).sum(axis=-1)
    s_in, r_in = s_hat.values[keep], r_hat.values[keep]
    resid = r_in - s_in + fg.dw * (kernel @ s_in)
    dense = np.sqrt(fg.dw * np.sum(np.abs(resid) ** 2))
    got = integral_equation_residual(s_hat, r_hat, band, t_ds)
    assert abs(got - dense) <= 1e-12 * dense


def _residual_by_fft_pair(s_hat, r_hat, band, t_ds):
    """The residual as an FFT pair around the gate: P_W P_T P_W s_hat as
    forward_spectrum(time_gate(inverse_signal(P_W s_hat)))."""
    fg = s_hat.grid
    keep = band.mask(fg.frequencies)
    s_w = inverse_signal(Spectrum(fg, np.where(keep, s_hat.values, 0.0)))
    folded = forward_spectrum(time_gate(s_w, Interval(0.0, t_ds))).values[keep]
    resid = r_hat.values[keep] - s_hat.values[keep] + folded
    return float(np.sqrt(fg.dw * np.sum(np.abs(resid) ** 2)))


def _residual_case(n, dt, off, i0, bins, lo, frac, seed):
    """Two unrelated random spectra on the grid t_start = -(i0 + off) dt, the
    band of bins lo..lo+bins-1 and a gate filling ``frac`` of the widest
    [-t_ds/2, t_ds/2) inside the span (off = 0.5 puts t = 0 between samples)."""
    grid = TimeGrid(-(i0 + off) * dt, dt, n)
    band = Interval((lo + bins / 2 - 0.5) / grid.span, bins / grid.span)
    t_ds = 2.0 * min(-grid.t_start, grid.t_end) * frac
    rng = np.random.default_rng(seed)
    s_hat, r_hat = (
        Spectrum(grid.dual, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for _ in range(2)
    )
    return s_hat, r_hat, band, t_ds


#: a gate of K = 32 samples against M = 2 bins, and one that holds no sample
WIDE_GATE = _residual_case(64, 1.0 / 32, 0.0, 32, 2, 3, 0.5, 4)
EMPTY_GATE = _residual_case(64, 1.0 / 32, 0.5, 20, 9, -4, 0.01, 5)


@st.composite
def _residual_cases(draw):
    n = 2 * draw(st.integers(2, 128))
    bins = draw(st.integers(1, n - 1))
    return _residual_case(
        n,
        draw(st.sampled_from([1.0 / 32, 0.1, 0.75])),
        draw(st.sampled_from([0.0, 0.5])),
        draw(st.integers(1, n - 2)),
        bins,
        draw(st.integers(-n // 2 + 1, n // 2 - bins)),
        draw(st.floats(1e-3, 1.0)),
        draw(st.integers(0, 2**16)),
    )


def test_residual_examples_hold_a_wide_and_an_empty_gate():
    shapes = []
    for s_hat, _, band, t_ds in (WIDE_GATE, EMPTY_GATE):
        op = projections._concentration_operator(s_hat.grid.time_grid, band, Interval(0.0, t_ds))
        shapes.append(op.e.shape)
    assert shapes == [(2, 32), (9, 0)]


@given(_residual_cases())
@example(WIDE_GATE)
@example(EMPTY_GATE)
def test_integral_equation_residual_is_the_fft_pair_through_the_gate(case):
    want = _residual_by_fft_pair(*case)
    assert abs(integral_equation_residual(*case) - want) <= 1e-12 * want


def test_integral_equation_residual_makes_no_fft(band, s_w, monkeypatch):
    s_hat = forward_spectrum(s_w)
    r = erase(s_w, ErasureModel(window=Interval(0.0, 0.25), source_band=band))
    r_hat = forward_spectrum(r)

    def refuse(*args, **kwargs):
        raise AssertionError("the residual made an FFT")

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert integral_equation_residual(s_hat, r_hat, band, 0.25) <= 1e-6


def test_integral_equation_residual_rejects_a_band_with_no_bin():
    # [3/64, 5/64) lies between the bins 0 and 1/8 of SMALL's dual grid
    s_hat = Spectrum(SMALL.dual, np.ones(SMALL.n, dtype=complex))
    with pytest.raises(ValueError, match="no frequency bins"):
        integral_equation_residual(s_hat, s_hat, Interval(1 / 16, 1 / 32), 0.25)


def test_sampling_kernels_stay_small_at_scale():
    # n = 2^16 at period 1/4: a dense n x K kernel would need about 4 GiB
    grid = TimeGrid(-512.0, 1.0 / 64, 1 << 16)
    band = Interval(0.0, 2.0)
    s_w = band_project(make_demo_signal(grid), band)
    tracemalloc.start()
    try:
        c = comb_sample(s_w, 0.25)
        recon = band_interpolate(c, band)
        per = periodized_spectrum(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert recon.grid == grid and per.grid == grid.dual
