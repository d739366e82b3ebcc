import numpy as np
import pytest
from hypothesis import settings

from subgap import (
    Interval,
    SampledSignal,
    TimeGrid,
    band_project,
    default_grid,
    make_demo_signal,
)
from subgap import core

# property tests draw the same examples on every run
settings.register_profile("subgap", derandomize=True, deadline=None)
settings.load_profile("subgap")


@pytest.fixture(autouse=True)
def _cold_signal_memo():
    # the memo is keyed on a signal's identity: without a clear, an entry
    # for the session-scoped s_w would carry from one test into the next
    # and make the FFT counts depend on test order
    core._dft.cache_clear()


@pytest.fixture
def transforms(monkeypatch):
    """Inverse FFTs, counted from a cold signal memo."""
    calls = []
    real = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    core._dft.cache_clear()
    yield calls
    core._dft.cache_clear()


@pytest.fixture(scope="session")
def grid():
    return default_grid()


@pytest.fixture(scope="session")
def band():
    return Interval(0.0, 2.0)


@pytest.fixture(scope="session")
def s_w(grid, band):
    # the demo signal made exactly bandlimited on the grid
    return band_project(make_demo_signal(grid), band)


@pytest.fixture(scope="session")
def qgrid():
    # coordinate grid for the quantum tests: x in [-4, 4), dx = dp = 1/8
    return TimeGrid(-4.0, 0.125, 64)


@pytest.fixture
def random_bandlimited(grid):
    """Factory for seeded random signals bandlimited to a given band."""

    def make(band, seed=0):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        return band_project(SampledSignal(grid, raw), band)

    return make
