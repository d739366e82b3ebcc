"""Projector algebra, the concentration operator, and its bounds."""

import dataclasses

import numpy as np
import pytest

from subgap import projections
from subgap import (
    BoundViolationError,
    Interval,
    NotBandlimitedError,
    PhaseSpaceWindows,
    SampledSignal,
    Spectrum,
    TimeGrid,
    WaveFunction,
    band_project,
    band_spill_ratio,
    complement_gate,
    concentration_ratio,
    forward_spectrum,
    inner_product,
    inverse_signal,
    l2_norm,
    landau_pollak_ratio,
    make_demo_signal,
    operator_norm_sq,
    out_of_band_fraction,
    prolate_eigenvalues,
    prolate_matrix,
    segment_compatibility,
    smear_response,
    time_gate,
)

# (W, T) pairs realizing WT in {0.1, 0.25, 0.5, 0.9} on the default grid
SWEEP = [(1.6, 1.0 / 16), (1.0, 0.25), (2.0, 0.25), (3.6, 0.25)]

# one pair on each side of the min(M, K) selection on the default grid:
# M = 128 in-band bins over K = 16 gated samples, and M = 16 over K = 192
FEW_SAMPLES = (2.0, 0.25)
FEW_BINS = (0.25, 3.0)


def _random_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return SampledSignal(
        grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    )


def test_projectors_idempotent(grid, band):
    s = _random_signal(grid, 0)
    window = Interval(0.0, 0.25)
    once = band_project(s, band)
    np.testing.assert_allclose(
        band_project(once, band).values, once.values, atol=1e-12
    )
    gated = time_gate(s, window)
    np.testing.assert_array_equal(time_gate(gated, window).values, gated.values)


def test_projectors_self_adjoint(grid, band):
    a = _random_signal(grid, 1)
    b = _random_signal(grid, 2)
    window = Interval(0.0, 0.25)
    scale = l2_norm(a) * l2_norm(b)
    for proj in (lambda s: band_project(s, band), lambda s: time_gate(s, window)):
        lhs = inner_product(proj(a), b)
        rhs = inner_product(a, proj(b))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_band_project_equals_the_masked_transform_pair():
    # an off-centre band on a grid whose t_start and dt are not dyadic, so
    # the transform pair's t_start ramps are not exactly +-1
    grid = TimeGrid(-10.3, 0.01, 2048)
    band = Interval(3.7, 5.3)
    s = _random_signal(grid, 4)
    spec = forward_spectrum(s)
    keep = band.mask(spec.grid.frequencies)
    ramped = inverse_signal(Spectrum(spec.grid, np.where(keep, spec.values, 0.0)))
    diff = np.max(np.abs(band_project(s, band).values - ramped.values))
    assert diff <= 1e-14 * np.max(np.abs(s.values))


def test_gate_and_complement_partition(grid):
    s = _random_signal(grid, 3)
    window = Interval(0.3, 0.7)
    total = time_gate(s, window).values + complement_gate(s, window).values
    np.testing.assert_array_equal(total, s.values)


def test_out_of_band_fraction_extremes(grid, band, s_w):
    assert out_of_band_fraction(s_w, band) <= 1e-15
    # a tone outside the band has all of its energy out of band
    tone = SampledSignal(grid, np.exp(-2j * np.pi * 1.5 * grid.times))
    assert out_of_band_fraction(tone, Interval(0.0, 1.0)) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "grid,band",
    [
        (TimeGrid(-32.0, 1.0 / 64, 4096), Interval(0.0, 2.0)),
        # t_start and dt are not dyadic, and the band is off centre
        (TimeGrid(-10.3, 0.01, 2048), Interval(-0.4, 2.0)),
    ],
)
def test_out_of_band_fraction_is_the_two_transform_definition(grid, band):
    # one inverse FFT and Parseval against ||s - P_W s|| / ||s||
    raw = _random_signal(grid, 5)
    in_band = band_project(raw, band)
    off_band = SampledSignal(grid, raw.values - in_band.values)
    zero = SampledSignal(grid, np.zeros(grid.n))
    for s in (raw, in_band, off_band, zero):
        total = l2_norm(s)
        leak = l2_norm(SampledSignal(grid, s.values - band_project(s, band).values))
        expected = leak / total if total > 0.0 else 0.0
        assert abs(out_of_band_fraction(s, band) - expected) <= 1e-15
    assert out_of_band_fraction(zero, band) == 0.0
    assert out_of_band_fraction(off_band, band) == pytest.approx(1.0, abs=1e-15)


def test_smear_response_matches_quadrature():
    band = Interval(0.3, 1.2)
    w = np.linspace(band.lo, band.hi, (1 << 12) + 1)
    weights = np.ones(w.size)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    for dt in (0.0, 0.1, 0.7, -1.3):
        oracle = band.width / (w.size - 1) / 3.0 * np.sum(
            weights * np.exp(-2j * np.pi * w * dt)
        )
        assert abs(smear_response(band, dt) - oracle) <= 1e-9
    # at zero lag the response is just the band width
    assert smear_response(band, 0.0) == pytest.approx(band.width)


@pytest.mark.parametrize("w,t", SWEEP)
def test_operator_norm_bound_and_dense_agreement(grid, w, t):
    band = Interval(0.0, w)
    window = Interval(0.0, t)
    lam = operator_norm_sq(grid, band, window)
    trace = float(np.real(np.trace(prolate_matrix(grid, band, window))))
    assert 0.0 <= lam <= min(1.0, trace + 1e-12)
    evals = prolate_eigenvalues(grid, band, window)
    assert abs(lam - evals[0]) <= 1e-8
    # the whole spectrum sits in [0, 1] up to round-off
    assert evals[-1] >= -1e-12 and evals[0] <= 1.0 + 1e-12


@pytest.mark.parametrize("w,t", [FEW_SAMPLES, FEW_BINS])
def test_operator_norm_is_the_dense_top_eigenvalue(grid, w, t):
    band = Interval(0.0, w)
    window = Interval(0.0, t)
    lam = operator_norm_sq(grid, band, window)
    assert abs(lam - prolate_eigenvalues(grid, band, window)[0]) <= 1e-12
    # I - B is Hermitian with B PSD, so its condition number is at most
    # 1/(1 - lambda0): no separate condition check is needed once the
    # lambda0 margin holds
    b = prolate_matrix(grid, band, window)
    cond = np.linalg.cond(np.eye(b.shape[0]) - b)
    assert cond <= (1.0 + 1e-9) / (1.0 - lam)


@pytest.mark.parametrize("w,t", SWEEP)
def test_gram_trace_equals_time_bandwidth_product(grid, w, t):
    tr = float(np.real(np.trace(prolate_matrix(grid, band=Interval(0.0, w), window=Interval(0.0, t)))))
    assert abs(tr - w * t) <= 0.02 * w * t


def test_prolate_matrix_hermitian_psd(grid):
    b = prolate_matrix(grid, Interval(0.0, 2.0), Interval(0.0, 0.25))
    assert np.max(np.abs(b - b.conj().T)) <= 1e-14
    assert np.linalg.eigvalsh(b).min() >= -1e-12


def test_gated_energy_bounded_by_operator_norm(grid, band):
    window = Interval(0.0, 0.25)
    lam = operator_norm_sq(grid, band, window)
    for seed in range(3):
        s = _random_signal(grid, 10 + seed)
        gated = time_gate(band_project(s, band), window)
        assert l2_norm(gated) <= np.sqrt(lam) * l2_norm(s) * (1.0 + 1e-10)


@pytest.mark.parametrize("w,t", SWEEP)
def test_concentration_ratio_bounded(grid, w, t, random_bandlimited):
    band = Interval(0.0, w)
    window = Interval(0.0, t)
    cap = operator_norm_sq(grid, band, window)
    for seed in range(3):
        s = random_bandlimited(band, seed)
        ratio = concentration_ratio(s, band, window)
        assert 0.0 <= ratio <= cap
        # definition check against the raw projector norms
        manual = (l2_norm(time_gate(s, window)) / l2_norm(s)) ** 2
        assert ratio == pytest.approx(manual, rel=1e-10)


def test_concentration_rejects_out_of_band_signal(grid):
    tone = SampledSignal(grid, np.exp(-2j * np.pi * 1.5 * grid.times))
    with pytest.raises(ValueError):
        concentration_ratio(tone, Interval(0.0, 1.0), Interval(0.0, 0.25))


@pytest.mark.parametrize("w,t", SWEEP)
def test_band_spill_floor(grid, w, t, random_bandlimited):
    band = Interval(0.0, w)
    window = Interval(0.0, t)
    floor = 1.0 - operator_norm_sq(grid, band, window)
    for seed in range(3):
        spill = band_spill_ratio(random_bandlimited(band, 20 + seed), band, window)
        assert floor <= spill <= 1.0 + 1e-12


def test_broken_bounds_raise_typed_errors(grid, band, s_w, monkeypatch):
    # a lambda0 of 0 makes both bounds unsatisfiable
    window = Interval(0.0, 0.25)
    op = dataclasses.replace(
        projections._concentration_operator(grid, band, window), lambda0=0.0
    )
    monkeypatch.setattr(projections, "_concentration_operator", lambda *args: op)
    with pytest.raises(BoundViolationError):
        concentration_ratio(s_w, band, window)
    with pytest.raises(BoundViolationError):
        band_spill_ratio(s_w, band, window)


def test_band_spill_requires_bandlimited_input(grid, band):
    with pytest.raises(NotBandlimitedError):
        band_spill_ratio(make_demo_signal(grid), band, Interval(0.0, 0.25))


def test_band_spill_rejects_non_finite_input(grid, band, s_w):
    vals = s_w.values.copy()
    vals[0] = np.nan
    with pytest.raises(NotBandlimitedError):
        band_spill_ratio(SampledSignal(grid, vals), band, Interval(0.0, 0.25))


# index 2043 lies inside the window [-1/8, 1/8) of the default grid, 10 outside
NON_FINITE_RATIOS = {
    "concentration": concentration_ratio,
    "landau_pollak": lambda s, band, window: landau_pollak_ratio(
        WaveFunction(s.grid, np.conj(s.values)), PhaseSpaceWindows(window, band)
    ),
    "segment": lambda s, band, window: segment_compatibility(s, window, band),
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "ratio,index",
    [("concentration", 10), ("concentration", 2043), ("landau_pollak", 10),
     ("landau_pollak", 2043), ("segment", 2043)],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_concentration_ratios_reject_non_finite_input(grid, band, s_w, ratio, index, bad):
    # bad input, not a broken bound: ValueError before BoundViolationError
    vals = s_w.values.copy()
    vals[index] = bad
    with pytest.raises(ValueError, match="not finite"):
        NON_FINITE_RATIOS[ratio](SampledSignal(grid, vals), band, Interval(0.0, 0.25))


def test_segment_compatibility_bounded(grid, band):
    window = Interval(0.0, 0.25)
    cap = operator_norm_sq(grid, band, window)
    for seed in range(3):
        r = time_gate(_random_signal(grid, 30 + seed), window)
        assert segment_compatibility(r, window, band) <= cap


def test_subsample_window_gives_zero_norm(grid):
    # a window narrower than one grid step contains no samples at all
    tiny = Interval(grid.dt / 2.0 + 1e-6, 1e-7)
    assert operator_norm_sq(grid, Interval(0.0, 2.0), tiny) == 0.0


def test_ratios_read_the_cached_operator(grid, band, s_w, monkeypatch):
    # the concentration ratio takes one inverse FFT, the segment ratio none
    window = Interval(0.0, 0.25)
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    segment_compatibility(s_w, window, band)
    assert calls == []
    concentration_ratio(s_w, band, window)
    assert calls == ["ifft"]
