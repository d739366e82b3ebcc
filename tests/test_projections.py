"""Projector algebra, the concentration operator, and its bounds."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgap import projections
from subgap import (
    BoundViolationError,
    Interval,
    NotBandlimitedError,
    PhaseSpaceWindows,
    SampledSignal,
    SpectralCopyConfig,
    Spectrum,
    TimeGrid,
    WaveFunction,
    band_approx_first_term,
    band_interpolate,
    band_project,
    band_spill_ratio,
    complement_gate,
    concentration_ratio,
    build_density,
    comb_sample,
    forward_spectrum,
    inner_product,
    integral_equation_residual,
    inverse_signal,
    l2_norm,
    landau_pollak_ratio,
    make_demo_signal,
    operator_norm_sq,
    out_of_band_fraction,
    segment_compatibility,
    smear_response,
    spectral_copy_recover,
    time_gate,
)
from subgap.experiments import run_bounds_audit

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
    trace = float(np.trace(projections._dirichlet_kernel(grid, band, window)))
    assert 0.0 <= lam <= min(1.0, trace + 1e-12)
    evals = np.linalg.eigvalsh(projections._dirichlet_kernel(grid, band, window))[::-1]
    assert abs(lam - evals[0]) <= 1e-8
    # the whole spectrum sits in [0, 1] up to round-off
    assert evals[-1] >= -1e-12 and evals[0] <= 1.0 + 1e-12


@pytest.mark.parametrize("w,t", [FEW_SAMPLES, FEW_BINS])
def test_operator_norm_is_the_dense_top_eigenvalue(grid, w, t):
    band = Interval(0.0, w)
    window = Interval(0.0, t)
    lam = operator_norm_sq(grid, band, window)
    b = projections._dirichlet_kernel(grid, band, window)
    assert abs(lam - np.linalg.eigvalsh(b)[::-1][0]) <= 1e-12
    # I - B is symmetric with B PSD, so its condition number is at most
    # 1/(1 - lambda0): no separate condition check is needed once the
    # lambda0 margin holds
    cond = np.linalg.cond(np.eye(b.shape[0]) - b)
    assert cond <= (1.0 + 1e-9) / (1.0 - lam)


@pytest.mark.parametrize("w,t", SWEEP)
def test_gram_trace_equals_time_bandwidth_product(grid, w, t):
    tr = float(np.trace(projections._dirichlet_kernel(grid, Interval(0.0, w), Interval(0.0, t))))
    assert abs(tr - w * t) <= 0.02 * w * t


def test_dirichlet_kernel_symmetric_psd(grid):
    b = projections._dirichlet_kernel(grid, Interval(0.0, 2.0), Interval(0.0, 0.25))
    assert np.isrealobj(b) and np.max(np.abs(b - b.T)) <= 1e-14
    assert np.linalg.eigvalsh(b).min() >= -1e-12


@st.composite
def _placements(draw):
    """A grid with M consecutive bins and K consecutive gates anywhere inside
    it, min(M, K) <= 128; every edge lies a quarter step or more from a point."""
    n = 2 * draw(st.integers(4, 4096))
    grid = TimeGrid(draw(st.floats(-50.0, 50.0)), draw(st.floats(1e-3, 0.1)), n)
    small = st.integers(0, min(n - 2, 128))
    if draw(st.booleans()):
        m, k = max(draw(small), 1), draw(st.integers(0, n - 2))
    else:
        m, k = draw(st.integers(1, n - 1)), draw(small)
    j = draw(st.integers(1, n - m)) - n // 2 - 0.5
    band = Interval((j + 0.5 * m) * grid.dual.dw, m * grid.dual.dw)
    i = draw(st.integers(1, n - 1 - k)) - 0.5
    # K = 0 leaves a half-step window centred between two samples
    width = max(k, 0.5) * grid.dt
    return grid, band, Interval(grid.t_start + (i + 0.5 * k) * grid.dt, width)


@settings(max_examples=60)
@given(_placements())
def test_dirichlet_kernel_top_eigenvalue_is_lambda0(placement):
    # Slepian's closed form shares nothing with E, yet has its spectrum
    grid, band, window = placement
    r = projections._dirichlet_kernel(grid, band, window)
    lam = operator_norm_sq(grid, band, window)
    m, k = projections._band_mask(grid, band).sum(), projections._window_mask(grid, window).sum()
    assert r.shape == (min(m, k),) * 2 and min(m, k) <= 128
    top = np.linalg.eigvalsh(r)[-1] if r.size else 0.0
    assert abs(top - lam) <= 1e-12 * lam


def test_a_scaled_basis_fails_every_bounds_audit_check(tmp_path, monkeypatch):
    # E scaled by 1.001 raises lambda0 by 0.2%; the audit's oracle reads no
    # E, so every pair fails, and only under the scaling
    def passed():
        projections._concentration_operator.cache_clear()
        checks = run_bounds_audit(tmp_path)["checks"]
        return [c["passed"] for c in checks if c["name"].startswith("bounds_hold_")]

    real = projections._gated_exponentials

    def scaled(*args):
        e, bins, gates = real(*args)
        return e * 1.001, bins, gates

    try:
        assert passed() == [True] * 4
        monkeypatch.setattr(projections, "_gated_exponentials", scaled)
        assert passed() == [False] * 4
    finally:
        projections._concentration_operator.cache_clear()


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
    "segment": segment_compatibility,
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
        assert segment_compatibility(r, band, window) <= cap


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
    segment_compatibility(s_w, band, window)
    assert calls == []
    concentration_ratio(s_w, band, window)
    assert calls == ["ifft"]


def test_segment_compatibility_rejects_a_segment_with_no_energy(grid, band, s_w):
    # a window holding only zeros has no in-band fraction to report
    window = Interval(0.0, 0.25)
    r = complement_gate(s_w, window)
    with pytest.raises(ValueError, match="no energy inside the window"):
        segment_compatibility(r, band, window)


# every public function that takes a band, called with a band on the default
# grid; each must meet the band with the one Nyquist-checked mask
TAKES_A_BAND = {
    "band_project": lambda s, band: band_project(s, band),
    "out_of_band_fraction": lambda s, band: out_of_band_fraction(s, band),
    "operator_norm_sq": lambda s, band: operator_norm_sq(s.grid, band, Interval(0.0, 0.25)),
    "band_interpolate": lambda s, band: band_interpolate(comb_sample(s, 0.25), band),
    "build_density": lambda s, band: build_density(
        WaveFunction(s.grid, np.conj(s.values)), band  # momentum-limited to the band
    ),
    "band_approx_first_term": lambda s, band: band_approx_first_term(s, band, 0.25),
    "spectral_copy_recover": lambda s, band: spectral_copy_recover(
        s, SpectralCopyConfig(band=band, t_sn=0.25, t_ds=0.25, k_max=1)
    ),
    "integral_equation_residual": lambda s, band: integral_equation_residual(
        forward_spectrum(s), forward_spectrum(s), band, 0.25
    ),
}


@pytest.mark.parametrize("name", sorted(TAKES_A_BAND))
def test_a_band_past_nyquist_is_rejected_everywhere(grid, s_w, name):
    # [29, 33) crosses the +32 edge of dt = 1/64: no function may truncate
    # it silently to the bins that exist
    assert 0.5 / grid.dt == 32.0
    TAKES_A_BAND[name](s_w, Interval(0.0, 2.0))
    with pytest.raises(ValueError, match="Nyquist"):
        TAKES_A_BAND[name](s_w, Interval(31.0, 4.0))
