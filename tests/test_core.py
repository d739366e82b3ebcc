"""Grids, transforms, norms: the numerical foundation everything sits on."""

import dataclasses

import numpy as np
import pytest

from subgap import (
    CombSamples,
    DensityMatrix,
    EvolutionSamples,
    GridMismatchError,
    Interval,
    RecoveryReport,
    SampledSignal,
    Spectrum,
    TimeGrid,
    WaveFunction,
    forward_spectrum,
    inner_product,
    inverse_signal,
    l2_norm,
    make_demo_signal,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, -0.1, 64)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 64)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.1, 65)  # odd length has no symmetric frequency axis
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.1, 0)



@pytest.mark.parametrize("n", [4096.0, True, "4096", np.float64(64.0)])
def test_grid_rejects_a_non_integer_length(n):
    # a float n used to build a grid whose index arrays the solvers refused
    with pytest.raises(ValueError, match="n must be an integer"):
        TimeGrid(-32.0, 1.0 / 64, n)


def test_grid_stores_a_numpy_length_as_int():
    g = TimeGrid(-32.0, 1.0 / 64, np.int64(4096))
    assert type(g.n) is int
    assert g == TimeGrid(-32.0, 1.0 / 64, 4096)
    assert hash(g) == hash(TimeGrid(-32.0, 1.0 / 64, 4096))

@pytest.mark.parametrize(
    "make",
    [
        lambda: TimeGrid(0.0, float("nan"), 64),
        lambda: TimeGrid(float("inf"), 0.1, 64),
        lambda: Interval(0.0, float("inf")),
        lambda: Interval(float("nan"), 1.0),
    ],
    ids=["grid-dt-nan", "grid-start-inf", "interval-width-inf", "interval-center-nan"],
)
def test_non_finite_grid_and_interval_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_grid_layout():
    g = TimeGrid(-2.0, 0.25, 16)
    assert g.span == 4.0
    assert g.t_end == 2.0
    np.testing.assert_allclose(g.times, -2.0 + 0.25 * np.arange(16))
    f = g.dual
    assert f.dw == pytest.approx(1.0 / g.span)
    # zero sits on both axes
    assert g.times[g.n // 2] == 0.0
    assert f.frequencies[g.n // 2] == 0.0


def test_interval_membership_half_open():
    iv = Interval(0.0, 1.0)
    assert iv.lo == -0.5 and iv.hi == 0.5
    x = np.array([-0.6, -0.5, 0.0, 0.49, 0.5])
    np.testing.assert_array_equal(iv.mask(x), [False, True, True, True, False])
    with pytest.raises(ValueError):
        Interval(0.0, 0.0)


SMALL = TimeGrid(-2.0, 0.25, 16)

#: each frozen record over arrays, built from keyword arrays named as its fields
RECORDS = {
    "SampledSignal": (lambda **a: SampledSignal(SMALL, **a), {"values": np.arange(16.0)}),
    "Spectrum": (lambda **a: Spectrum(SMALL.dual, **a), {"values": np.arange(16.0)}),
    "WaveFunction": (lambda **a: WaveFunction(SMALL, **a), {"values": np.arange(16.0)}),
    "CombSamples": (
        lambda **a: CombSamples(SMALL, 0.5, **a),
        {"offsets": np.arange(-2, 3), "values": np.arange(5.0)},
    ),
    "DensityMatrix": (
        DensityMatrix,
        {"p_grid": np.array([-0.5, 0.5]), "elements": np.eye(2) / 2.0},
    ),
    "EvolutionSamples": (
        EvolutionSamples,
        {
            "x_points": np.array([0.0, 1.0]),
            "t_points": np.array([0.0, 1.0, 2.0]),
            "values": np.full((3, 2), 0.25),
        },
    ),
    "RecoveryReport.residual_history": (
        lambda **a: RecoveryReport(None, contraction_estimate=0.5, reason=None, **a),
        {"residual_history": np.array([0.5, 0.25])},
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_read_only_copies_of_their_arrays(name):
    # every array field rejects a write, and the caller's arrays stay
    # writable and unchanged
    build, inputs = RECORDS[name]
    given = {field: arr.copy() for field, arr in inputs.items()}
    record = build(**given)
    arrays = {
        f.name for f in dataclasses.fields(record)
        if isinstance(getattr(record, f.name), np.ndarray)
    }
    assert arrays == set(given)
    for field, arr in given.items():
        kept = getattr(record, field)
        with pytest.raises(ValueError, match="read-only"):
            kept[...] = 0
        np.testing.assert_array_equal(kept, inputs[field])
        assert arr.flags.writeable and not np.shares_memory(arr, kept)
        arr[...] = 0
        np.testing.assert_array_equal(kept, inputs[field])


def test_round_trip(grid):
    rng = np.random.default_rng(11)
    s = SampledSignal(
        grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    )
    back = inverse_signal(forward_spectrum(s))
    err = np.max(np.abs(back.values - s.values)) / np.max(np.abs(s.values))
    assert err <= 1e-12


def test_parseval(grid):
    rng = np.random.default_rng(12)
    s = SampledSignal(
        grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    )
    spec = forward_spectrum(s)
    assert abs(l2_norm(spec) ** 2 - l2_norm(s) ** 2) <= 1e-10 * l2_norm(s) ** 2


def test_transform_preserves_inner_products(grid):
    rng = np.random.default_rng(13)
    a = SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    b = SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    lhs = inner_product(a, b)
    rhs = inner_product(forward_spectrum(a), forward_spectrum(b))
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_tone_localizes_at_its_frequency(grid):
    # the e^{-2 pi i w t} tone is the frequency-w basis signal
    w0 = 0.5
    s = SampledSignal(grid, np.exp(-2j * np.pi * w0 * grid.times))
    spec = forward_spectrum(s)
    peak = spec.grid.frequencies[int(np.argmax(np.abs(spec.values)))]
    assert peak == pytest.approx(w0)
    # and its spectrum is a single bin, everything else at round-off
    rest = np.abs(spec.values) < 1e-9 * np.max(np.abs(spec.values))
    assert rest.sum() == grid.n - 1


def test_inner_product_conjugate_symmetry_and_grids(grid):
    rng = np.random.default_rng(14)
    a = SampledSignal(grid, rng.standard_normal(grid.n) * 1j)
    b = SampledSignal(grid, rng.standard_normal(grid.n) + 0j)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    other = TimeGrid(grid.t_start, grid.dt, grid.n // 2)
    c = SampledSignal(other, np.zeros(other.n))
    with pytest.raises(GridMismatchError):
        inner_product(a, c)
    with pytest.raises(GridMismatchError):
        inner_product(a, forward_spectrum(b))


def _at(s, t0):
    idx = int(np.searchsorted(s.grid.times, t0))
    assert s.grid.times[idx] == pytest.approx(t0, abs=1e-12)
    return s.values[idx]


def test_demo_signal_anchor_values(grid):
    s = make_demo_signal(grid)
    assert _at(s, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert _at(s, 0.5) == pytest.approx(4.0 / np.pi**2, abs=1e-12)
    assert _at(s, -0.5) == pytest.approx(4.0 / np.pi**2, abs=1e-12)
    assert abs(_at(s, 1.0)) <= 1e-14
    assert abs(_at(s, -1.0)) <= 1e-14


def test_demo_signal_energy(grid):
    # closed form: the energy integral of sinc^2 is 2/3
    s = make_demo_signal(grid)
    assert l2_norm(s) ** 2 == pytest.approx(2.0 / 3.0, abs=1e-4)


def _quadrature_oracle(w0, t_lo, t_hi, n=1 << 15):
    """Composite-Simpson transform of sinc^2 over the grid window."""
    t = np.linspace(t_lo, t_hi, n + 1)
    f = np.sinc(t) ** 2 * np.exp(2j * np.pi * w0 * t)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (t_hi - t_lo) / n / 3.0 * np.sum(weights * f)


@pytest.mark.parametrize("w0", [0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75])
def test_spectrum_matches_quadrature_oracle(grid, w0):
    spec = forward_spectrum(make_demo_signal(grid))
    j = int(np.searchsorted(spec.grid.frequencies, w0))
    assert spec.grid.frequencies[j] == pytest.approx(w0, abs=1e-12)
    oracle = _quadrature_oracle(w0, grid.t_start, grid.t_start + grid.span)
    assert abs(spec.values[j] - oracle) <= 1e-3


def test_spectrum_is_a_triangle(grid):
    # the infinite-time transform is max(0, 1 - |w|); the finite window
    # leaves a ~3e-3 tail at the vertex (1/(pi^2 * 32) from the cut-off)
    spec = forward_spectrum(make_demo_signal(grid))
    tri = np.clip(1.0 - np.abs(spec.grid.frequencies), 0.0, None)
    assert np.max(np.abs(spec.values - tri)) <= 3.5e-3


def test_transform_pair_matches_closed_form_at_the_grid_edge(grid):
    # an impulse at the last sample and a line at the lowest bin have
    # closed-form transforms whose phases w*t reach |w*t_start| = 1024 here
    w = grid.dual.frequencies
    impulse = np.zeros(grid.n)
    impulse[-1] = 1.0
    spec = forward_spectrum(SampledSignal(grid, impulse)).values
    closed = grid.dt * np.exp(2j * np.pi * np.mod(w * grid.times[-1], 1.0))
    assert np.max(np.abs(spec - closed)) <= 1e-14 * grid.dt
    line = np.zeros(grid.n, dtype=complex)
    line[0] = 1.0
    sig = inverse_signal(Spectrum(grid.dual, line)).values
    closed = grid.dual.dw * np.exp(-2j * np.pi * np.mod(w[0] * grid.times, 1.0))
    assert np.max(np.abs(sig - closed)) <= 1e-14 * grid.dual.dw
