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

# property tests draw the same examples on every run
settings.register_profile("subgap", derandomize=True, deadline=None)
settings.load_profile("subgap")


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
