"""Comb sampling, sinc interpolation, periodization, and copy recovery."""

import tracemalloc

import numpy as np
import pytest

from subgap import (
    ErasureModel,
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
    make_demo_signal,
    out_of_band_fraction,
    periodized_spectrum,
    sinc_reconstruct,
    spectral_copy_recover,
)

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


def test_copy_sum_error_strictly_decreases(grid, band, s_w):
    window = _gap_between_samples(grid)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    s_hat = forward_spectrum(s_w)
    keep = band.mask(s_hat.grid.frequencies)
    errs = []
    for k in range(3):
        cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=window.width, k_max=k)
        result = spectral_copy_recover(r, cfg)
        assert result.k_used == k and not result.clipped
        errs.append(_band_l2(result.spectrum.values, s_hat, keep))
    assert errs[0] > errs[1] > errs[2]
    # convergence is slow: no term wins more than a modest factor
    assert errs[2] > 0.1


def test_copy_sum_clipping_reported(grid, band, s_w):
    window = _gap_between_samples(grid)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    cfg = SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=window.width, k_max=50)
    result = spectral_copy_recover(r, cfg)
    assert result.clipped
    # the grid spans +-32 Hz, the band edge sits at 1: room for 7 shifts of 4
    assert result.k_used == 7
    assert result.k_requested == 50
    assert result.last_term_l2 > 0.0


def test_copy_shift_must_align_with_frequency_bins(band, s_w):
    r = s_w  # no gap needed to exercise the geometry check
    cfg = SpectralCopyConfig(band=band, t_sn=0.3, t_ds=0.3, k_max=1)
    with pytest.raises(ValueError):
        spectral_copy_recover(r, cfg)


def test_copy_config_validation(band):
    with pytest.raises(ValueError):
        SpectralCopyConfig(band=band, t_sn=0.25, t_ds=0.3, k_max=1)  # gap > period
    with pytest.raises(ValueError):
        SpectralCopyConfig(band=band, t_sn=0.6, t_ds=0.25, k_max=1)  # period > 1/W
    with pytest.raises(ValueError):
        SpectralCopyConfig(band=band, t_sn=0.25, t_ds=0.25, k_max=-1)


@pytest.mark.parametrize(
    "t_ds,regime",
    [(1.0 / 64, "ok"), (0.25, "marginal"), (1.0, "distorted")],
)
def test_band_restriction_regimes(grid, band, s_w, t_ds, regime):
    window = Interval(T_SN / 2.0, t_ds)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    result = band_approx_first_term(r, band, t_ds)
    assert result.regime == regime


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
