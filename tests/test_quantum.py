"""Momentum-limited states: gating, smoothing, tomography, recovery."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subgap import experiments, projections, quantum
from subgap.quantum import DESIGN_COND_LIMIT, GRAM_COND_LIMIT
from subgap.experiments import run_quantum_pipeline
from subgap import (
    BoundViolationError,
    DegenerateDesignError,
    DensityMatrix,
    EvolutionSamples,
    GridMismatchError,
    Interval,
    NonConvergenceError,
    NotBandlimitedError,
    PhaseSpaceWindows,
    RefusalError,
    SampledSignal,
    Spectrum,
    TimeGrid,
    WaveFunction,
    build_density,
    default_grid,
    evolve_diagonal_series,
    fidelity,
    gate_state,
    inner_product,
    invertibility_report,
    landau_pollak_ratio,
    momentum_limit,
    momentum_smooth,
    momentum_spectrum,
    l2_norm,
    operator_norm_sq,
    position_wave,
    rank1_extract,
    recover_direct,
    recover_state,
    time_gate,
    tomography_solve,
)

P_BAND = Interval(0.0, 1.0)  # momenta in [-1/2, 1/2), 8 bins at dp = 1/8


def _state(qgrid, band=P_BAND, shift=0.25, kick=0.15):
    """A smooth momentum-limited state with complex structure."""
    x = qgrid.times
    raw = np.exp(-np.pi * (x - shift) ** 2) * np.exp(2j * np.pi * kick * x)
    lim = momentum_limit(WaveFunction(qgrid, raw), band)
    return WaveFunction(qgrid, lim.values / l2_norm(lim), normalized=True)


def test_momentum_transform_round_trip(qgrid):
    rng = np.random.default_rng(21)
    psi = WaveFunction(
        qgrid, rng.standard_normal(qgrid.n) + 1j * rng.standard_normal(qgrid.n)
    )
    back = position_wave(momentum_spectrum(psi))
    assert np.max(np.abs(back.values - psi.values)) <= 1e-12 * np.max(
        np.abs(psi.values)
    )


def test_momentum_tone_sign_convention(qgrid):
    # <x|p> = e^{+2 pi i p x}: the e^{+...} tone is the momentum-p state
    p0 = 0.25
    psi = WaveFunction(qgrid, np.exp(2j * np.pi * p0 * qgrid.times))
    spec = momentum_spectrum(psi)
    peak = spec.grid.frequencies[int(np.argmax(np.abs(spec.values)))]
    assert peak == pytest.approx(p0)


def test_momentum_transform_matches_closed_form_at_the_grid_edge():
    # <x|p> = e^{+2 pi i p x}: an impulse at the last sample and a line at
    # the lowest bin, with phases p*x reaching |p*x_start| = 1024
    grid = default_grid()
    p = grid.dual.frequencies
    impulse = np.zeros(grid.n)
    impulse[-1] = 1.0
    spec = momentum_spectrum(WaveFunction(grid, impulse)).values
    closed = grid.dt * np.exp(-2j * np.pi * np.mod(p * grid.times[-1], 1.0))
    assert np.max(np.abs(spec - closed)) <= 1e-14 * grid.dt
    line = np.zeros(grid.n, dtype=complex)
    line[0] = 1.0
    psi = position_wave(Spectrum(grid.dual, line)).values
    closed = grid.dual.dw * np.exp(2j * np.pi * np.mod(p[0] * grid.times, 1.0))
    assert np.max(np.abs(psi - closed)) <= 1e-14 * grid.dual.dw


def test_normalized_flag_is_checked(qgrid):
    with pytest.raises(ValueError):
        WaveFunction(qgrid, np.ones(qgrid.n), normalized=True)
    WaveFunction(qgrid, np.ones(qgrid.n) / np.sqrt(8.0), normalized=True)



@pytest.mark.parametrize(
    "step, message",
    [
        (gate_state, "gating removed the entire state"),
        (momentum_smooth, "state has no energy inside the momentum band"),
    ],
)
def test_a_zero_state_is_not_normalized(qgrid, step, message):
    windows = PhaseSpaceWindows(x_window=Interval(0.0, 1.0), p_band=P_BAND)
    with pytest.raises(ValueError, match=message):
        step(WaveFunction(qgrid, np.zeros(qgrid.n)), windows)

def test_momentum_projectors_idempotent(qgrid):
    rng = np.random.default_rng(22)
    psi = WaveFunction(
        qgrid, rng.standard_normal(qgrid.n) + 1j * rng.standard_normal(qgrid.n)
    )
    window = Interval(0.0, 0.5)
    once = momentum_limit(psi, P_BAND)
    twice = momentum_limit(once, P_BAND)
    np.testing.assert_allclose(twice.values, once.values, atol=1e-12)
    gated = time_gate(psi, window)
    np.testing.assert_array_equal(
        time_gate(gated, window).values, gated.values
    )


@pytest.mark.parametrize(
    "p,x", [(1.0, 0.25), (1.0, 0.5), (2.0, 0.25), (2.0, 0.375)]
)
def test_window_probability_bounded_by_xp(qgrid, p, x):
    windows = PhaseSpaceWindows(x_window=Interval(0.0, x), p_band=Interval(0.0, p))
    psi = _state(qgrid, windows.p_band)
    ratio = landau_pollak_ratio(psi, windows)
    cap = operator_norm_sq(qgrid, windows.p_band, windows.x_window)
    assert 0.0 <= ratio <= cap


def test_window_probability_needs_band_energy(qgrid):
    # a pure tone far outside the band has no in-band weight
    tone = WaveFunction(qgrid, np.exp(2j * np.pi * 2.5 * qgrid.times))
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    with pytest.raises(ValueError):
        landau_pollak_ratio(tone, windows)


def test_window_probability_above_its_bound_raises(qgrid, monkeypatch):
    # a lambda0 of 0 pushes the bound below any attainable ratio
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    op = dataclasses.replace(
        projections._concentration_operator(qgrid, P_BAND, windows.x_window),
        lambda0=0.0,
    )
    monkeypatch.setattr(projections, "_concentration_operator", lambda *args: op)
    with pytest.raises(BoundViolationError):
        landau_pollak_ratio(_state(qgrid), windows)


def test_ratio_within_the_guard_slack_passes_the_pipeline_check(
    qgrid, monkeypatch, tmp_path
):
    # the guard and the report check share one slack: a ratio just above a
    # lowered lambda0, which the guard accepts, must not fail the report
    ratio = run_quantum_pipeline(tmp_path / "a")["metrics"]["window_probability"]
    key = (qgrid, P_BAND, Interval(0.0, 0.5))
    build = projections._concentration_operator
    op = dataclasses.replace(
        build(*key), lambda0=ratio - 0.5 * projections.LAMBDA0_TOL
    )
    monkeypatch.setattr(
        projections,
        "_concentration_operator",
        lambda *args: op if args == key else build(*args),
    )
    report = run_quantum_pipeline(tmp_path / "b")
    assert report["metrics"]["window_probability"] > op.lambda0
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]


def test_pipeline_records_a_degenerate_design_as_a_failed_check(monkeypatch, tmp_path):
    pairs = [((0, 1), (2, 3)), ((1, 2), "trace")]
    exc = DegenerateDesignError("tomography design condition number 3e12", pairs=pairs)

    def degenerate(*args, **kwargs):
        raise exc

    monkeypatch.setattr(experiments, "tomography_solve", degenerate)
    report = run_quantum_pipeline(tmp_path)
    assert not report["passed"]
    assert report["artifacts"] == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed == [
        {
            "name": "tomography_design_well_conditioned",
            "passed": False,
            "value": {
                "error": "tomography design condition number 3e12",
                "pairs": ["((0, 1), (2, 3))", "((1, 2), 'trace')"],
            },
            "threshold": "design condition number below 1e10",
        }
    ]
    assert report["checks"][-1] == failed[0]


def test_pipeline_records_a_fit_that_is_not_rank_1_as_a_failed_check(
    monkeypatch, tmp_path
):
    # rank1_extract refuses such a fit, and used to be called before the
    # rank-1 check was recorded: the refusal escaped the runner
    passing = [c["name"] for c in run_quantum_pipeline(tmp_path / "a")["checks"]]
    solve = experiments.tomography_solve

    def mixed(*args, **kwargs):
        fit = solve(*args, **kwargs)
        m = fit.rho.p_grid.size
        elements = 0.9 * fit.rho.elements + 0.1 * np.eye(m) / m
        rho = dataclasses.replace(fit.rho, elements=elements)
        return dataclasses.replace(fit, rho=rho)

    monkeypatch.setattr(experiments, "tomography_solve", mixed)
    out = tmp_path / "b"
    report = run_quantum_pipeline(out)
    assert not report["passed"]
    assert report["artifacts"] == []
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    names = [c["name"] for c in report["checks"]]
    assert names == passing[: passing.index("fitted_matrix_rank1") + 1]
    rank1 = report["checks"][-1]
    assert not rank1["passed"] and rank1["value"] > quantum.RANK1_TOL
    assert "extract_fidelity" not in report["metrics"]


def test_pipeline_transforms_each_state_once(transforms, tmp_path):
    # the input's smoothing, its ratio and gate guard, the gated state's
    # smoothing, the density's guard and spectrum, and the recovery: each
    # of the 5 states is transformed once, through its twin
    assert run_quantum_pipeline(tmp_path)["passed"]
    assert len(transforms) == 5


def test_gate_to_recover_transforms_each_state_once(qgrid, transforms):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    transforms.clear()
    psi_t = momentum_smooth(gate_state(psi, windows), windows)
    rho = build_density(psi_t, P_BAND)
    rng = np.random.default_rng(0)
    xs, ts = rng.uniform(qgrid.t_start, qgrid.t_end, 12), rng.uniform(0.0, 500.0, 12)
    samples = evolve_diagonal_series(rho, xs, ts)
    fit = tomography_solve(samples, rho.p_grid, grid=qgrid)
    rec = recover_state(rank1_extract(fit.rho), windows)
    assert fidelity(rec, psi) >= 1.0 - 1e-6
    assert len(transforms) == 4


def test_a_state_carries_one_read_only_twin(qgrid):
    psi = _state(qgrid)
    twin = psi._twin
    assert psi._twin is twin
    assert type(twin) is SampledSignal and twin.grid == qgrid
    np.testing.assert_array_equal(twin.values, np.conj(psi.values))
    assert not twin.values.flags.writeable


def test_fidelity_is_the_normalized_inner_product(qgrid):
    a, b = _state(qgrid), _state(qgrid, shift=-0.5, kick=0.05)
    want = abs(inner_product(a, b)) / (l2_norm(a) * l2_norm(b))
    assert fidelity(a, b) == want < 1.0


def test_gate_state_vanishes_on_window_and_spills(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    gated = gate_state(psi, windows)
    assert l2_norm(gated) == pytest.approx(1.0, abs=1e-12)
    assert np.all(gated.values[windows.x_window.mask(qgrid.times)] == 0.0)
    # the gap forces momentum outside the band: same floor as the classical
    # band spill, normalized by the in-window weight of the original state
    raw = psi.values - time_gate(psi, windows.x_window).values
    out = WaveFunction(
        qgrid, raw - momentum_limit(WaveFunction(qgrid, raw), P_BAND).values
    )
    win = l2_norm(time_gate(psi, windows.x_window)) ** 2
    floor = 1.0 - operator_norm_sq(qgrid, P_BAND, windows.x_window)
    assert l2_norm(out) ** 2 / win >= floor


def test_gate_state_requires_momentum_limited_input(qgrid):
    raw = WaveFunction(qgrid, np.exp(-np.pi * qgrid.times**2))
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    with pytest.raises(NotBandlimitedError):
        gate_state(raw, windows)


def test_non_finite_states_are_rejected(qgrid):
    vals = _state(qgrid).values.copy()
    vals[5] = np.nan
    with pytest.raises(ValueError):
        WaveFunction(qgrid, vals, normalized=True)
    psi = WaveFunction(qgrid, vals)
    with pytest.raises(NotBandlimitedError):
        gate_state(psi, PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND))
    with pytest.raises(NotBandlimitedError):
        build_density(psi, P_BAND)


def test_momentum_smooth_matches_kernel_form(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    # P_P (1 - P_X) psi, written with the explicit band kernel
    # K(x - y) = dp * sum_{p in band} e^{2 pi i p (x - y)}
    x = qgrid.times
    p = qgrid.dual.frequencies[P_BAND.mask(qgrid.dual.frequencies)]
    kernel = qgrid.dual.dw * np.exp(
        2j * np.pi * np.outer(x, p)
    ) @ np.exp(-2j * np.pi * np.outer(p, x))
    inside = windows.x_window.mask(x)
    folded = psi.values - qgrid.dt * kernel[:, inside] @ psi.values[inside]
    folded = folded / np.sqrt(qgrid.dt * np.sum(np.abs(folded) ** 2))
    assert np.max(np.abs(smooth.values - folded)) <= 1e-8


def test_recover_state_inverts_the_gap(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    rec = recover_state(smooth, windows)
    assert fidelity(rec, psi) >= 1.0 - 1e-8


def test_recover_state_is_phase_covariant(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    psi = _state(qgrid)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    rec = recover_state(smooth, windows)
    theta = 0.8
    turned = WaveFunction(
        qgrid, np.exp(1j * theta) * smooth.values, normalized=True
    )
    rec_turned = recover_state(turned, windows)
    assert np.max(
        np.abs(rec_turned.values - np.exp(1j * theta) * rec.values)
    ) <= 1e-8


def test_recover_state_refuses_at_the_limit(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 1.0), Interval(0.0, 1.0))
    psi = _state(qgrid)
    with pytest.raises(RefusalError) as info:
        recover_state(psi, windows)
    report = invertibility_report(qgrid, windows.p_band, windows.x_window)
    assert info.value.report == report
    assert str(info.value) == f"refusing state recovery: {report.reason}"


def test_recover_state_raises_when_the_series_is_cut_short(qgrid):
    windows = PhaseSpaceWindows(Interval(0.0, 0.5), P_BAND)
    smooth = momentum_smooth(gate_state(_state(qgrid), windows), windows)
    with pytest.raises(NonConvergenceError):
        recover_state(smooth, windows, k_max=2)


# the three cases split m in [2, 32] at 8 and 16; each is named by its top
@pytest.mark.parametrize(
    "m_range", [(2, 8), (9, 16), (17, 32)], ids=["8", "16", "32"]
)
@settings(max_examples=70)
@given(
    data=st.data(),
    xp=st.floats(0.05, 1.5),
    place=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_recover_state_matches_the_conjugate_direct_solve(
    qgrid, m_range, data, xp, place, seed
):
    # independent oracle: the in-band direct solve of the signal side,
    # applied to conj psi_M and conjugated back
    m = data.draw(st.integers(*m_range), label="m")
    rng = np.random.default_rng(seed)
    p_band = Interval(0.0, m * qgrid.dual.dw)
    x = xp / p_band.width
    lo, hi = qgrid.t_start + x / 2, qgrid.t_end - x / 2
    windows = PhaseSpaceWindows(Interval(lo + place * (hi - lo), x), p_band)
    coef = np.zeros(qgrid.n, dtype=complex)
    coef[p_band.mask(qgrid.dual.frequencies)] = (
        rng.standard_normal(m) + 1j * rng.standard_normal(m)
    )
    psi = position_wave(Spectrum(qgrid.dual, coef))
    psi = WaveFunction(qgrid, psi.values / l2_norm(psi), normalized=True)
    smooth = momentum_smooth(gate_state(psi, windows), windows)
    report = invertibility_report(qgrid, p_band, windows.x_window)
    tol = 1e-8
    if not report.invertible:
        with pytest.raises(RefusalError):
            recover_state(smooth, windows, tol=tol)
        return
    rec = recover_state(smooth, windows, tol=tol)
    direct = recover_direct(
        SampledSignal(qgrid, np.conj(smooth.values)), p_band, windows.x_window
    )
    oracle = np.conj(direct.values) / l2_norm(direct)
    diff = l2_norm(WaveFunction(qgrid, rec.values - oracle))
    assert diff <= tol / (1.0 - np.sqrt(report.lambda0))


def test_populations_need_an_odd_cycle_of_resolved_pairs():
    # |rho_jk| = sqrt(rho_jj rho_kk) fixes the populations only when the
    # resolved pairs join every bin through an odd cycle: one pair cannot
    # order two populations, and an even cycle leaves one scale free, so
    # both fall back to uniform populations marked unresolved, as does a
    # fitted trace of 0 or less, which leaves nothing to scale them to
    p = np.array([0.4, 0.3, 0.2, 0.1])
    off = np.sqrt(np.outer(p, p)) * (1.0 - np.eye(4))
    every = [(j, k) for j in range(4) for k in range(j + 1, 4)]
    diag, resolved = quantum._complete_populations(off, 1.0, 4, every)
    assert resolved
    np.testing.assert_allclose(diag, p, rtol=1e-12)
    diag, resolved = quantum._complete_populations(off, -0.5, 4, every)
    assert not resolved
    np.testing.assert_array_equal(diag, np.full(4, 0.25))
    for m, pairs in ((2, [(0, 1)]), (4, [(0, 1), (1, 2), (2, 3), (0, 3)])):
        diag, resolved = quantum._complete_populations(off[:m, :m], 0.8, m, pairs)
        assert not resolved
        np.testing.assert_array_equal(diag, np.full(m, 0.8 / m))


def test_build_density_rank1_unit_trace(qgrid):
    psi = _state(qgrid)
    rho = build_density(psi, P_BAND)
    assert rho.trace == pytest.approx(1.0, abs=1e-12)
    evals = np.linalg.eigvalsh(rho.elements)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert abs(evals[-2]) <= 1e-12
    assert rho.p_grid.size == 8
    with pytest.raises(NotBandlimitedError):
        build_density(
            WaveFunction(qgrid, np.exp(-np.pi * qgrid.times**2)), P_BAND
        )


def test_build_density_rejects_a_zero_state(qgrid):
    # a zero state passes the bandlimit check and has no coefficient to
    # normalize
    with pytest.raises(ValueError, match="no energy inside the momentum band"):
        build_density(WaveFunction(qgrid, np.zeros(qgrid.n, dtype=complex)), P_BAND)


def test_evolution_at_time_zero_is_position_density(qgrid):
    psi = _state(qgrid)
    rho = build_density(psi, P_BAND)
    samples = evolve_diagonal_series(rho, qgrid.times, [0.0])
    np.testing.assert_allclose(
        samples.values[0], np.abs(psi.values) ** 2, atol=1e-12
    )


def test_evolution_conserves_norm(qgrid):
    psi = _state(qgrid)
    rho = build_density(psi, P_BAND)
    samples = evolve_diagonal_series(rho, qgrid.times, [0.0, 1.0, 5.0, 10.0])
    totals = qgrid.dt * samples.values.sum(axis=1)
    np.testing.assert_allclose(totals, 1.0, atol=1e-8)


def _random_pure_density(qgrid, seed, p_grid=None):
    rng = np.random.default_rng(seed)
    if p_grid is None:
        freqs = qgrid.dual.frequencies
        p_grid = freqs[P_BAND.mask(freqs)]
    c = rng.standard_normal(p_grid.size) + 1j * rng.standard_normal(p_grid.size)
    c = c / np.linalg.norm(c)
    return DensityMatrix(p_grid=p_grid, elements=np.outer(c, c.conj()), grid=qgrid)


@pytest.mark.parametrize("field", ["x_points", "t_points", "values"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evolution_samples_reject_non_finite_readings(qgrid, field, bad):
    # a NaN reading used to pass the >= -1e-10 check and fail later in eigh
    rho = _random_pure_density(qgrid, 40)
    good = evolve_diagonal_series(rho, np.linspace(-3.0, 3.0, 8), np.linspace(0.0, 50.0, 8))
    parts = {
        "x_points": good.x_points.copy(),
        "t_points": good.t_points.copy(),
        "values": good.values.copy(),
    }
    parts[field][1] = bad
    with pytest.raises(ValueError, match=field):
        EvolutionSamples(**parts)


@pytest.mark.parametrize("field", ["p_grid", "elements", "mass"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_and_tomography_reject_non_finite_input(qgrid, field, bad):
    # a NaN element used to surface as a BoundViolationError from
    # evolve_diagonal_series, and a NaN momentum as a LinAlgError from eigh
    rho = _random_pure_density(qgrid, 40)
    samples = evolve_diagonal_series(rho, np.linspace(-3.0, 3.0, 8), np.linspace(0.0, 50.0, 8))
    parts = {"p_grid": rho.p_grid.copy(), "elements": rho.elements.copy(), "mass": 1.0}
    if field == "mass":
        parts["mass"] = bad
    else:
        parts[field][1] = bad
    with pytest.raises(ValueError, match=field):
        DensityMatrix(**parts)
    if field != "elements":
        with pytest.raises(ValueError, match=field):
            tomography_solve(samples, parts["p_grid"], mass=parts["mass"])


def test_density_rejects_an_empty_grid_with_its_own_message():
    # numpy's "zero-size array to reduction operation maximum" used to
    # escape from the Hermitian check
    with pytest.raises(ValueError, match="need at least 1 momentum bins"):
        DensityMatrix(p_grid=[], elements=np.zeros((0, 0)))


@pytest.mark.parametrize(
    "p_grid,elements,message",
    [
        ([0.125, 0.25], np.eye(3) / 3.0, r"elements shape \(3, 3\) does not match"),
        ([[0.125, 0.25]], np.eye(2) / 2.0, r"does not match p_grid size 2"),
        ([0.125, 0.25], [[0.5, 0.1], [0.2, 0.5]], "not Hermitian"),
        ([0.125, 0.25], [[0.5, 0.1j], [0.1j, 0.5]], "not Hermitian"),
    ],
)
def test_density_rejects_a_misshapen_or_non_hermitian_matrix(p_grid, elements, message):
    with pytest.raises(ValueError, match=message):
        DensityMatrix(p_grid=p_grid, elements=elements)


def test_density_accepts_rounding_level_asymmetry():
    # the Hermitian check is relative to the largest entry, at 1e-12
    e = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
    DensityMatrix(p_grid=[0.125, 0.25], elements=e)
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(p_grid=[0.125, 0.25], elements=e + [[0.0, 0.0], [1e-11, 0.0]])


@pytest.mark.parametrize(
    "values,message",
    [
        (np.zeros((3, 2)), r"values shape \(3, 2\) does not match \(t, x\) = \(2, 3\)"),
        (np.zeros(6), r"values shape \(6,\) does not match"),
        (np.full((2, 3), -2e-10), "probability readings must be >= -1e-10"),
    ],
)
def test_evolution_samples_reject_a_misshapen_or_negative_reading(values, message):
    with pytest.raises(ValueError, match=message):
        EvolutionSamples(x_points=[0.0, 0.5, 1.0], t_points=[0.0, 1.0], values=values)


def test_evolution_samples_allow_rounding_below_zero():
    samples = EvolutionSamples(
        x_points=[0.0, 0.5, 1.0], t_points=[0.0, 1.0], values=np.full((2, 3), -1e-10)
    )
    assert samples.values.min() == -1e-10


@pytest.mark.parametrize(
    "field,p_grid,mass",
    [
        ("p_grid", [0.125, 0.125, 0.25], 1.0),
        ("mass", [0.0, 0.125, 0.25], 0.0),
        ("mass", [0.0, 0.125, 0.25], -1.0),
    ],
)
def test_density_and_tomography_reject_degenerate_grid_or_mass(field, p_grid, mass):
    # a repeated momentum used to give bin_weight 0, so rho(x, t) read 0
    # for a trace-1 state; mass 0 gave infinite omegas and a LinAlgError
    elements = np.eye(3) / 3.0
    good = DensityMatrix(p_grid=[0.0, 0.125, 0.25], elements=elements)
    samples = evolve_diagonal_series(good, np.linspace(-3.0, 3.0, 4), np.linspace(0.0, 50.0, 4))
    with pytest.raises(ValueError, match=field):
        DensityMatrix(p_grid=p_grid, elements=elements, mass=mass)
    with pytest.raises(ValueError, match=field):
        tomography_solve(samples, p_grid, mass=mass)


def _sample_points(qgrid, seed, n_x=16, n_t=16, t_max=500.0):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(qgrid.t_start, qgrid.t_end, n_x),
        rng.uniform(0.0, t_max, n_t),
    )


def test_tomography_round_trip(qgrid):
    rho = _random_pure_density(qgrid, 31)
    xs, ts = _sample_points(qgrid, 32)
    fit = tomography_solve(evolve_diagonal_series(rho, xs, ts), rho.p_grid, grid=qgrid)
    assert np.max(np.abs(fit.rho.elements - rho.elements)) <= 1e-6
    assert fit.populations_resolved
    assert fit.condition_number < 1e3
    assert fit.residual <= 1e-8


def test_tomography_handles_degenerate_frequencies(qgrid):
    # the symmetric grid has omega(p) = omega(-p), so distinct pairs share
    # beat frequencies and only the x dependence separates them
    p_grid = np.array([-0.5, -0.375, -0.25, -0.125, 0.125, 0.25, 0.375, 0.5])
    rho = _random_pure_density(qgrid, 33, p_grid=p_grid)
    xs, ts = _sample_points(qgrid, 34)
    fit = tomography_solve(evolve_diagonal_series(rho, xs, ts), p_grid, grid=qgrid)
    assert np.max(np.abs(fit.rho.elements - rho.elements)) <= 1e-6
    assert fit.condition_number < 1e3


def test_tomography_refuses_unseparating_samples(qgrid):
    # with a single observation time, pairs sharing Delta p collapse onto
    # the same two quadrature columns and the fit cannot tell them apart
    rho = _random_pure_density(qgrid, 35)
    xs, _ = _sample_points(qgrid, 36)
    samples = evolve_diagonal_series(rho, xs, np.zeros(16))
    with pytest.raises(DegenerateDesignError) as info:
        tomography_solve(samples, rho.p_grid, grid=qgrid)
    assert len(info.value.pairs) > 0
    assert info.value.report is None


def test_tomography_diagonal_truth(qgrid):
    # populations enter the data only through their sum; the fit must say so
    freqs = qgrid.dual.frequencies
    p_grid = freqs[P_BAND.mask(freqs)]
    probs = np.linspace(1.0, 2.0, p_grid.size)
    probs /= probs.sum()
    rho = DensityMatrix(p_grid=p_grid, elements=np.diag(probs), grid=qgrid)
    xs, ts = _sample_points(qgrid, 37)
    fit = tomography_solve(evolve_diagonal_series(rho, xs, ts), p_grid, grid=qgrid)
    off = fit.rho.elements - np.diag(np.diag(fit.rho.elements))
    assert np.max(np.abs(off)) <= 1e-8
    assert not fit.populations_resolved
    assert fit.rho.trace == pytest.approx(1.0, abs=1e-8)


def test_tomography_needs_enough_samples(qgrid):
    rho = _random_pure_density(qgrid, 38)
    xs, ts = _sample_points(qgrid, 39, n_x=3, n_t=3)
    with pytest.raises(ValueError):
        tomography_solve(evolve_diagonal_series(rho, xs, ts), rho.p_grid)


def test_rank1_extract_round_trip(qgrid):
    psi = _state(qgrid)
    rec = rank1_extract(build_density(psi, P_BAND))
    assert fidelity(rec, psi) >= 1.0 - 1e-10
    # phase convention: the dominant momentum coefficient is real positive
    spec = momentum_spectrum(rec)
    lead = spec.values[int(np.argmax(np.abs(spec.values)))]
    assert abs(lead.imag) <= 1e-10 * abs(lead)
    assert lead.real > 0.0


def test_rank1_extract_refuses_mixed_states(qgrid):
    a = _random_pure_density(qgrid, 40)
    b = _random_pure_density(qgrid, 41)
    mixed = DensityMatrix(
        p_grid=a.p_grid,
        elements=0.5 * a.elements + 0.5 * b.elements,
        grid=qgrid,
    )
    with pytest.raises(RefusalError) as info:
        rank1_extract(mixed)
    assert info.value.report is None



@pytest.mark.parametrize("p_lo", [10.0, -12.0])
def test_rank1_extract_rejects_momenta_off_the_grid(qgrid, p_lo):
    # qgrid's momentum bins span [-4, 4); 10 used to index past the end
    rho = DensityMatrix(
        p_grid=[p_lo, p_lo + 0.125], elements=[[0.5, 0.5], [0.5, 0.5]], grid=qgrid
    )
    with pytest.raises(ValueError, match="does not align with the grid's momentum"):
        rank1_extract(rho)


def test_rank1_extract_rejects_a_matrix_with_no_positive_eigenvalue(qgrid):
    # eigh of the zero matrix used to hand back an arbitrary basis state
    rho = DensityMatrix(p_grid=[0.125, 0.25], elements=np.zeros((2, 2)), grid=qgrid)
    with pytest.raises(ValueError, match="no positive eigenvalue") as info:
        rank1_extract(rho)
    assert not isinstance(info.value, RefusalError)


def test_rank1_extract_needs_a_coordinate_grid(qgrid):
    rho = build_density(_state(qgrid), P_BAND)
    gridless = DensityMatrix(p_grid=rho.p_grid, elements=rho.elements)
    with pytest.raises(ValueError, match="no coordinate grid") as info:
        rank1_extract(gridless)
    assert not isinstance(info.value, RefusalError)


def test_fidelity_is_phase_free(qgrid):
    psi = _state(qgrid)
    turned = WaveFunction(qgrid, np.exp(0.7j) * psi.values, normalized=True)
    assert fidelity(psi, turned) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_across_grids_is_a_grid_mismatch(qgrid):
    psi = _state(qgrid)
    shifted = WaveFunction(TimeGrid(qgrid.t_start + qgrid.dt, qgrid.dt, qgrid.n), psi.values)
    with pytest.raises(GridMismatchError) as info:
        fidelity(psi, shifted)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("zero_first", [True, False])
def test_fidelity_rejects_a_zero_state(qgrid, zero_first):
    # the overlap over a zero norm used to come back NaN
    psi, zero = _state(qgrid), WaveFunction(qgrid, np.zeros(qgrid.n))
    with pytest.raises(ValueError, match="two nonzero states"):
        fidelity(zero, psi) if zero_first else fidelity(psi, zero)


def _band_p_grid(qgrid, m):
    freqs = qgrid.dual.frequencies
    return freqs[Interval(0.0, m * qgrid.dual.dw).mask(freqs)]


def _dense_design(samples, p_grid):
    """The samples-by-columns design written out entry by entry."""
    om = p_grid**2 / 2.0
    dp = float(np.min(np.diff(p_grid)))
    pairs = [(j, k) for j in range(p_grid.size) for k in range(j + 1, p_grid.size)]
    j, k = np.array(pairs).T
    rows = []
    for t in samples.t_points:
        for x in samples.x_points:
            phi = 2.0 * np.pi * (p_grid[j] - p_grid[k]) * x - (om[j] - om[k]) * t
            row = np.empty(1 + 2 * len(pairs))
            row[0] = dp
            row[1::2] = 2.0 * dp * np.cos(phi)
            row[2::2] = -2.0 * dp * np.sin(phi)
            rows.append(row)
    return np.array(rows), pairs


def _lstsq_oracle(samples, p_grid):
    """Dense SVD least squares: (trace, pair coefficients, condition number)."""
    design, pairs = _dense_design(samples, p_grid)
    sol, _, _, sv = np.linalg.lstsq(design, samples.values.ravel(), rcond=None)
    return sol[0], sol[1::2] + 1j * sol[2::2], sv[0] / sv[-1]


def _fitted_pairs(fit):
    j, k = np.triu_indices(fit.rho.p_grid.size, 1)
    return fit.rho.elements[j, k]


def _assert_matches_lstsq(fit, samples, rel):
    trace, coef, cond = _lstsq_oracle(samples, fit.rho.p_grid)
    assert not fit.psd_projected
    scale = np.max(np.abs(coef))
    assert np.max(np.abs(_fitted_pairs(fit) - coef)) <= rel * scale
    assert abs(fit.rho.trace - trace) <= rel * abs(trace)
    return cond


@pytest.mark.parametrize("m,seed", [(8, 50), (16, 51), (32, 52)])
def test_gram_path_matches_lstsq(qgrid, m, seed):
    p_grid = _band_p_grid(qgrid, m)
    rho = _random_pure_density(qgrid, seed, p_grid=p_grid)
    n = 3 * m // 2
    xs, ts = _sample_points(qgrid, seed + 1000, n_x=n, n_t=n)
    samples = evolve_diagonal_series(rho, xs, ts)
    fit = tomography_solve(samples, p_grid, grid=qgrid)
    assert fit.solver == "gram"
    cond = _assert_matches_lstsq(fit, samples, 1e-10)
    assert fit.condition_number == pytest.approx(cond, rel=1e-5)


def test_gram_path_needs_its_refinement_step(qgrid):
    # cond 4.5e5: the bare normal-equation solve misses lstsq by ~2e-7,
    # one refinement step brings it back to ~1e-11
    p_grid = _band_p_grid(qgrid, 16)
    rho = _random_pure_density(qgrid, 320, p_grid=p_grid)
    xs, ts = _sample_points(qgrid, 1320, n_x=24, n_t=24)
    samples = evolve_diagonal_series(rho, xs, ts)
    fit = tomography_solve(samples, p_grid, grid=qgrid)
    assert fit.solver == "gram"
    assert 1e5 <= fit.condition_number <= GRAM_COND_LIMIT
    _assert_matches_lstsq(fit, samples, 1e-10)


def test_ill_conditioned_design_takes_the_svd_path(qgrid):
    # a short observation span barely separates pairs that share Delta p
    rho = _random_pure_density(qgrid, 35)
    xs, ts = _sample_points(qgrid, 36, t_max=40.0)
    samples = evolve_diagonal_series(rho, xs, ts)
    fit = tomography_solve(samples, rho.p_grid, grid=qgrid)
    assert fit.solver == "svd"
    assert GRAM_COND_LIMIT < fit.condition_number <= DESIGN_COND_LIMIT
    _, _, cond = _lstsq_oracle(samples, rho.p_grid)
    assert fit.condition_number == pytest.approx(cond, rel=1e-12)
    assert np.max(np.abs(fit.rho.elements - rho.elements)) <= 1e-6


def test_gram_path_never_holds_the_dense_design(qgrid):
    m = 32
    p_grid = _band_p_grid(qgrid, m)
    rho = _random_pure_density(qgrid, 52, p_grid=p_grid)
    xs, ts = _sample_points(qgrid, 1052, n_x=48, n_t=48)
    samples = evolve_diagonal_series(rho, xs, ts)
    design_bytes = samples.values.size * (1 + m * (m - 1)) * 8
    tracemalloc.start()
    try:
        fit = tomography_solve(samples, p_grid, grid=qgrid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fit.solver == "gram"
    assert peak < design_bytes


@pytest.mark.parametrize("d", [1, 127, 128, 129, 993])
def test_inverse_cholesky_matches_the_inverse_of_the_numpy_factor(d):
    # one block short of, at and past the 128-row block edge, and the
    # M = 32 design's 993 columns; the scaled columns make cond(G) ~ 3e6
    rng = np.random.default_rng(d)
    b = rng.standard_normal((2 * d, d)) * np.logspace(0.0, 3.0, d)
    g = b.T @ b
    want = np.linalg.inv(np.linalg.cholesky(g))
    got = g.copy()
    quantum._inverse_cholesky(got)
    # the forward error of an inverse factor, relative to its largest
    # entry, is at most of order cond(G) eps
    tol = np.linalg.cond(g) * np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    assert np.all(got[np.triu_indices(d, 1)] == 0.0)


@pytest.mark.parametrize("bad", [0, 128])
def test_inverse_cholesky_rejects_a_matrix_that_is_not_positive_definite(bad):
    # a negative pivot in the first block, and in the block past the edge
    rng = np.random.default_rng(bad)
    b = rng.standard_normal((258, 129))
    g = b.T @ b
    g[bad, bad] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        quantum._inverse_cholesky(g)


#: (M, density seed, sample seed, samples per axis, t_max) of the designs
#: the path switch is pinned on
SWITCH_CASES = {
    "M8": (8, 50, 1050, 12, 500.0),
    "M16": (16, 51, 1051, 24, 500.0),
    "M32": (32, 52, 1052, 48, 500.0),
    "refinement": (16, 320, 1320, 24, 500.0),  # cond 4.5e5
    "near-limit": (16, 393, 1393, 24, 200.0),  # cond 7.4e5
    "svd": (8, 35, 36, 16, 40.0),  # cond 1.1e7
}


def _switch_case(qgrid, case):
    m, seed, point_seed, n, t_max = SWITCH_CASES[case]
    p_grid = _band_p_grid(qgrid, m)
    rho = _random_pure_density(qgrid, seed, p_grid=p_grid)
    xs, ts = _sample_points(qgrid, point_seed, n_x=n, n_t=n, t_max=t_max)
    return evolve_diagonal_series(rho, xs, ts), p_grid


def _factors(samples, p_grid):
    """The design's phase factors U, V and dp, formed as the fit forms them."""
    om = p_grid**2 / 2.0
    j, k = np.triu_indices(p_grid.size, 1)
    u = np.exp(-1j * np.outer(samples.t_points, om[j] - om[k]))
    v = np.exp(2j * np.pi * np.outer(samples.x_points, p_grid[j] - p_grid[k]))
    return u, v, float(np.min(np.diff(p_grid)))


def _eigvalsh_cond(u, v, dp):
    """sqrt(lmax / lmin) from eigvalsh of the Gram matrix, inf unless lmin > 0."""
    lam = np.linalg.eigvalsh(quantum._separable_gram(u, v, dp))
    return float(np.sqrt(lam[-1] / lam[0])) if lam[0] > 0.0 else float("inf")


@pytest.mark.parametrize("case", SWITCH_CASES)
def test_gram_path_exactly_when_the_eigvalsh_cond_is_within_the_limit(qgrid, case):
    samples, p_grid = _switch_case(qgrid, case)
    cond = _eigvalsh_cond(*_factors(samples, p_grid))
    fit = tomography_solve(samples, p_grid, grid=qgrid)
    assert (fit.solver == "gram") == (cond <= GRAM_COND_LIMIT)
    if fit.solver == "gram":
        assert fit.condition_number == cond


def test_gram_path_near_the_limit_needs_its_second_refinement_step(qgrid):
    # lstsq itself is good to ~cond eps = 1.6e-10 here.  With the explicit
    # inverse factor one refinement step leaves the fit 3.4e-9 from it, and
    # the second brings it to 4e-11 (an LU solve and one step gave 1.2e-10)
    samples, p_grid = _switch_case(qgrid, "near-limit")
    fit = tomography_solve(samples, p_grid, grid=qgrid)
    assert fit.solver == "gram"
    assert 7e5 <= fit.condition_number <= GRAM_COND_LIMIT
    _assert_matches_lstsq(fit, samples, 1e-9)


@pytest.mark.parametrize("case,during_fit", [("M32", 0), ("refinement", 1)])
def test_gram_fit_runs_eigvalsh_once_at_most(qgrid, monkeypatch, case, during_fit):
    # M32's bound proves the Gram path, so the condition number waits for
    # its first read; the refinement case's bound is above 1e6, so the
    # switch computes it during the fit
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    samples, p_grid = _switch_case(qgrid, case)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    fit = tomography_solve(samples, p_grid, grid=qgrid)
    assert fit.solver == "gram"
    assert len(calls) == during_fit
    first = fit.condition_number
    assert fit.condition_number == first
    assert len(calls) == 1


@settings(max_examples=60)
@given(
    m=st.integers(2, 8),
    n_x=st.integers(0, 8),
    n_t=st.integers(0, 8),
    t_max=st.sampled_from([5.0, 20.0, 100.0, 500.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_frobenius_trace_bound_is_at_least_the_condition_number(
    qgrid, m, n_x, n_t, t_max, seed
):
    # lmax <= ||G||_F and 1/lmin <= trace(G^-1) = ||L^-1||_F^2; past
    # cond ~1e7, G's own cond nears 1/eps and neither side is accurate
    xs, ts = _sample_points(qgrid, seed, n_x=m + n_x, n_t=m + n_t, t_max=t_max)
    samples = EvolutionSamples(xs, ts, np.zeros((ts.size, xs.size)))
    u, v, dp = _factors(samples, _band_p_grid(qgrid, m))
    cond = _eigvalsh_cond(u, v, dp)
    assume(cond <= 10.0 * GRAM_COND_LIMIT)
    g = quantum._separable_gram(u, v, dp)
    fro = np.linalg.norm(g)
    quantum._inverse_cholesky(g)
    assert np.sqrt(fro * np.vdot(g, g)) >= cond


def test_refusal_names_the_pairs_of_the_dense_overlap(qgrid):
    # the oracle: overlaps of the explicit phase factors exp(i phi), N x P
    rho = _random_pure_density(qgrid, 35)
    xs, _ = _sample_points(qgrid, 36)
    samples = evolve_diagonal_series(rho, xs, np.zeros(16))
    with pytest.raises(DegenerateDesignError) as info:
        tomography_solve(samples, rho.p_grid, grid=qgrid)
    design, pairs = _dense_design(samples, rho.p_grid)
    z = (design[:, 1::2] - 1j * design[:, 2::2]) / (2.0 * design[0, 0])
    ns = z.shape[0]
    gram = np.abs(z.conj().T @ z) / ns
    want = [(pairs[a], "trace") for a in range(len(pairs))
            if abs(z[:, a].sum()) / ns > 1.0 - 1e-6]
    want += [(pairs[a], pairs[b]) for a in range(len(pairs))
             for b in range(a + 1, len(pairs)) if gram[a, b] > 1.0 - 1e-6]
    assert want and info.value.pairs == want


def test_evolution_matches_the_explicit_double_sum(qgrid):
    rho = _random_pure_density(qgrid, 42)
    xs, ts = _sample_points(qgrid, 43, n_x=5, n_t=4, t_max=20.0)
    got = evolve_diagonal_series(rho, xs, ts).values
    p, om, dp = rho.p_grid, rho.omegas, rho.bin_weight
    want = np.zeros((ts.size, xs.size))
    for a, t in enumerate(ts):
        for b, x in enumerate(xs):
            total = 0.0
            for j in range(p.size):
                for k in range(p.size):
                    phase = 2.0 * np.pi * (p[j] - p[k]) * x - (om[j] - om[k]) * t
                    total += np.exp(1j * phase) * rho.elements[j, k]
            want[a, b] = dp * total.real
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_evolution_names_the_first_non_hermitian_time(qgrid):
    # a lone upper coupling is real at t = 0 and complex once it rotates
    rho = _random_pure_density(qgrid, 44)
    upper = np.zeros((rho.p_grid.size,) * 2, dtype=complex)
    upper[0, 1] = 1.0
    object.__setattr__(rho, "elements", upper)
    with pytest.raises(BoundViolationError, match=r"at t=1\.0$"):
        evolve_diagonal_series(rho, [0.0], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("field", ["x_points", "t_points"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evolution_rejects_non_finite_points_as_bad_input(qgrid, field, bad):
    # a NaN time or an infinite position used to raise RuntimeWarnings and
    # then a BoundViolationError, the error of a broken bound
    rho = _random_pure_density(qgrid, 44)
    points = {"x_points": np.linspace(-3.0, 3.0, 4), "t_points": np.linspace(0.0, 5.0, 4)}
    points[field][2] = bad
    with pytest.raises(ValueError, match=field):
        evolve_diagonal_series(rho, **points)
