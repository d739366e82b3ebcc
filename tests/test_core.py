"""Grids, transforms, norms: the numerical foundation everything sits on."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@pytest.mark.parametrize("record", [SampledSignal, Spectrum])
@pytest.mark.parametrize("shape", [(63,), (65,), (8, 8)])
def test_values_must_hold_one_value_per_grid_point(record, shape):
    grid = TimeGrid(0.0, 0.1, 64)
    where = grid if record is SampledSignal else grid.dual
    message = re.escape(f"values shape {shape} does not match grid n=64")
    with pytest.raises(ValueError, match=message):
        record(where, np.zeros(shape))


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


@pytest.mark.parametrize(
    "t_start,dt,n",
    [
        (0.0, 1e308, 4),  # n*dt is inf, and dw is 0
        (1e308, 2e307, 4),  # t_start + n*dt is inf
        (0.0, 1e-320, 4),  # 1/(n*dt) is inf
        (1.0, 1e-312, 4096),  # dw is finite, the dual grid's edge n/2 * dw is not
        (1e300, 1e-10, 4),  # the ramp phase w * t_start at that edge is inf
    ],
    ids=["span", "end", "dw", "dual-edge", "ramp-phase"],
)
def test_grid_rejects_derived_values_that_overflow(t_start, dt, n):
    # such a grid used to build, and its transforms came back all NaN
    with pytest.raises(ValueError, match="overflows"):
        TimeGrid(t_start, dt, n)


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


@pytest.mark.parametrize("name", RECORDS)
def test_records_over_arrays_compare_by_identity(name):
    # field-wise == would ask numpy for the truth value of an array
    build, inputs = RECORDS[name]
    record, twin = build(**inputs), build(**inputs)
    assert record == record and record != twin
    assert hash(record) == hash(record) and len({record, twin}) == 2


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


@st.composite
def _signal_pairs(draw):
    """Two seeded complex signals on a grid with t_start in [-1e6, 1e6]."""
    t_start = draw(st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6))
    grid = TimeGrid(t_start, draw(st.floats(1e-3, 10.0)), 2 * draw(st.integers(1, 128)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y = (
        SampledSignal(grid, rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
        for _ in range(2)
    )
    return x, y


_COEFFS = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@given(_signal_pairs(), _COEFFS, _COEFFS)
def test_transform_pair_is_linear(pair, a, b):
    x, y = pair
    dual = x.grid.dual
    for transform, make in (
        (forward_spectrum, lambda v: SampledSignal(x.grid, v)),
        (inverse_signal, lambda v: Spectrum(dual, v)),
    ):
        ax, by = a * transform(make(x.values)).values, b * transform(make(y.values)).values
        mixed = transform(make(a * x.values + b * y.values)).values
        scale = max(np.max(np.abs(ax)), np.max(np.abs(by)))
        assert np.max(np.abs(mixed - (ax + by))) <= 1e-12 * scale, transform.__name__


@given(_signal_pairs())
def test_transform_of_the_conjugate_is_the_mirrored_conjugate(pair):
    # s_hat of conj(s) at w is conj(s_hat(-w)); bin j holds w_j = (j - n/2) dw,
    # so -w_j sits at bin n - j, and bin 0 (w = -n/2 dw) has no mirror
    s, _ = pair
    spec = forward_spectrum(s).values
    conj = forward_spectrum(SampledSignal(s.grid, s.values.conj())).values
    j = np.arange(1, s.grid.n)
    assert np.max(np.abs(conj[j] - spec[s.grid.n - j].conj())) <= 1e-12 * np.max(np.abs(spec))


@given(
    st.integers(0, 8), st.integers(1, 8), st.integers(-(2**20), 2**20),
    st.integers(-256, 256), st.integers(0, 2**32 - 1),
)
def test_shifting_t_start_turns_the_spectrum_by_a_phase(k, p, start, j, seed):
    # moving t_start by j*dt multiplies s_hat(w) by exp(2 pi i w j dt); with
    # dt and n powers of two every phase here is exact, so the two grids'
    # ramps (two memo entries) agree to rounding even at |t_start| ~ 1e6
    dt, n = 2.0**-k, 2**p
    grid, moved = TimeGrid(start * dt, dt, n), TimeGrid((start + j) * dt, dt, n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec = forward_spectrum(SampledSignal(grid, vals)).values
    turned = np.exp(2j * np.pi * np.mod(grid.dual.frequencies * (j * dt), 1.0)) * spec
    got = forward_spectrum(SampledSignal(moved, vals)).values
    assert np.max(np.abs(got - turned)) <= 1e-12 * np.max(np.abs(spec))
