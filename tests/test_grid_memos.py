"""One table per grid for the transform pair's t_start ramp, and one per
comb geometry for the transform of the sinc-series kernel.

``forward_spectrum``, ``inverse_signal`` and ``integral_equation_residual``
read the ramp from ``core._ramp``, and ``sinc_reconstruct`` reads the
kernel's FFT from ``sampling._sinc_kernel``.  These tests check that each
table is the unmemoised expression bit for bit and read-only, count the
work a warm call still makes, and check that no output depends on
whether the table was cold, warm or evicted.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subgap import (
    Interval,
    SampledSignal,
    Spectrum,
    TimeGrid,
    comb_sample,
    forward_spectrum,
    integral_equation_residual,
    inverse_signal,
    operator_norm_sq,
    sinc_reconstruct,
)
from subgap import core, sampling

SMALL = TimeGrid(-4.0, 1.0 / 32, 256)


def _random_signal(grid, seed):
    rng = np.random.default_rng(seed)
    return SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))


def _fresh_ramp(grid):
    return np.exp(2j * np.pi * np.mod(grid.dual.frequencies * grid.t_start, 1.0))


@st.composite
def _grids(draw):
    t_start = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6))
    return TimeGrid(t_start, draw(st.floats(1e-3, 10.0)), 2 * draw(st.integers(1, 512)))


@given(_grids())
def test_ramp_is_the_formula_bit_for_bit_and_read_only(grid):
    ramp = core._ramp(grid)
    assert ramp.tobytes() == _fresh_ramp(grid).tobytes()
    with pytest.raises(ValueError):
        ramp[0] = 0.0
    # an equal grid, however its fields were typed or signed, shares the table
    twin = TimeGrid(np.float64(grid.t_start) + 0.0, np.float64(grid.dt), np.int64(grid.n))
    assert twin == grid and core._ramp(twin) is ramp


def test_a_signed_zero_start_shares_the_table_bit_for_bit():
    core._ramp.cache_clear()
    pos, neg = TimeGrid(0.0, 0.5, 8), TimeGrid(-0.0, 0.5, 8)
    assert core._ramp(neg) is core._ramp(pos)
    assert core._ramp(pos).tobytes() == _fresh_ramp(neg).tobytes()


@pytest.fixture
def exps(monkeypatch):
    """Calls of np.exp, counted from a cold ramp memo."""
    calls = []
    real = np.exp

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    core._ramp.cache_clear()
    yield calls
    core._ramp.cache_clear()


def test_warm_transforms_make_no_exponential(exps, grid):
    s = _random_signal(grid, 1)
    spec = forward_spectrum(s)
    assert len(exps) == 1
    band, window = Interval(0.0, 2.0), Interval(0.0, 0.25)
    operator_norm_sq(grid, band, window)  # builds E and its roots of unity
    exps.clear()
    forward_spectrum(s)
    inverse_signal(spec)
    # reads E from the operator and its ramp rows from the memo
    integral_equation_residual(spec, spec, band, window.width)
    assert exps == []


def _transform_pair(grid, seed):
    s = _random_signal(grid, seed)
    spec = Spectrum(grid.dual, s.values[::-1])
    return forward_spectrum(s).values, inverse_signal(spec).values


def test_ramp_memo_carries_no_state_between_calls(exps, grid):
    counts = []

    def run():
        exps.clear()
        out = _transform_pair(grid, 2)
        counts.append(len(exps))
        return out

    cold = run()
    warm = run()
    core._ramp.cache_clear()
    cleared = run()
    for n in (8, 16, 32, 64):  # four other grids push this one out
        forward_spectrum(_random_signal(TimeGrid(-1.0, 0.25, n), 0))
    evicted = run()
    assert counts == [1, 0, 1, 1]
    for values in (warm, cleared, evicted):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cold, values))


@pytest.fixture
def ffts(monkeypatch):
    """The names of the FFTs made, in order, from a cold kernel memo."""
    calls = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    sampling._sinc_kernel.cache_clear()
    yield calls
    sampling._sinc_kernel.cache_clear()


def _lattices(c, period):
    """Evaluation grids on the comb's lattice: the dense grid, the sample
    instants, a shifted piece and one running past the last sample."""
    return [
        SMALL,
        TimeGrid(float(c.instants[0]), period, c.offsets.size),
        TimeGrid(SMALL.t_start + 37 * SMALL.dt, SMALL.dt, 128),
        TimeGrid(2.0, period / 2, 40),
    ]


@pytest.mark.parametrize("period", [0.25, 1.0])
def test_warm_sinc_series_makes_two_ffts(ffts, period):
    c = comb_sample(_random_signal(SMALL, 3), period)
    sinc_reconstruct(c, SMALL)
    assert ffts == ["fft", "fft", "ifft"]
    ffts.clear()
    sinc_reconstruct(c, SMALL)
    assert ffts == ["fft", "ifft"]


@pytest.mark.parametrize("period", [0.25, 1.0])
def test_kernel_memo_carries_no_state_between_calls(ffts, period):
    c = comb_sample(_random_signal(SMALL, 4), period)
    ats = _lattices(c, period)
    counts = []

    def run():
        ffts.clear()
        out = [sinc_reconstruct(c, at).values for at in ats]
        counts.append(ffts.count("fft"))
        return out

    cold = run()
    warm = run()
    sampling._sinc_kernel.cache_clear()
    cleared = run()
    other = TimeGrid(-2.0, SMALL.dt, 64)
    for m in range(1, 9):  # eight other geometries push every entry out
        sinc_reconstruct(comb_sample(_random_signal(SMALL, 5), m * SMALL.dt), other)
    evicted = run()
    assert counts == [8, 4, 8, 8]
    for values in (warm, cleared, evicted):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(cold, values))
    # and the warm series still matches the dense sinc sum
    for at, got in zip(ats, warm):
        dense = np.sinc((at.times[:, None] - c.instants[None, :]) / period) @ c.values
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("first,count,m", [(-300, 511, 8), (-39, 79, 1), (0, 2, 3)])
def test_kernel_is_the_formula_bit_for_bit_and_read_only(first, count, m):
    kernel = sampling._sinc_kernel(first, count, m)
    size = 1 << (count - 1).bit_length()
    fresh = np.fft.fft(np.sinc(np.arange(first, first + count) / m), size)
    assert size >= count and kernel.tobytes() == fresh.tobytes()
    assert sampling._sinc_kernel(first, count, m) is kernel
    with pytest.raises(ValueError):
        kernel[0] = 0.0
