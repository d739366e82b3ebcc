"""One build of the exact-phase basis E per (grid, band, window), and one
transform per erased signal.

The refusal check, the three gap solvers, ``operator_norm_sq``, the
concentration ratios and the integral-equation residual all read E and
lambda0 from one memoised record, and the three solvers read the FFT of a
signal from core's one signal memo, keyed on that signal.  These
tests count the uncached builds, transforms and Gram products behind
them, check that neither memo can carry state from one call into the
next, and walk the package's syntax tree so E can only be built in one
place.
"""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subgap
from subgap import (
    ErasureModel,
    Interval,
    RefusalError,
    SampledSignal,
    SpectralCopyConfig,
    TimeGrid,
    band_approx_first_term,
    band_project,
    concentration_ratio,
    erase,
    forward_spectrum,
    invertibility_report,
    out_of_band_fraction,
    recover_band_neumann,
    recover_direct,
    recover_neumann,
    spectral_copy_recover,
)
from subgap import core, projections, recovery
from subgap.experiments import EXPERIMENTS

#: one window with K < M (the Woodbury branch of the direct solve) and one
#: with K >= M, both at WT = 0.5 on the default grid
CASES = {
    "K<M": (Interval(0.0, 2.0), Interval(0.0, 0.25)),
    "K>=M": (Interval(0.0, 0.25), Interval(1.0, 2.0)),
}
SOLVERS = (recover_neumann, recover_band_neumann, recover_direct)


@pytest.fixture
def builds(monkeypatch):
    """Calls of the uncached build, counted from a cold memo."""
    calls = []
    real = projections._gated_exponentials

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(projections, "_gated_exponentials", counted)
    projections._concentration_operator.cache_clear()
    yield calls
    projections._concentration_operator.cache_clear()


def _erased(random_bandlimited, band, window):
    model = ErasureModel(window=window, source_band=band)
    return erase(random_bandlimited(band, 3), model)


def test_report_and_three_solvers_build_e_once(builds, grid, random_bandlimited):
    band, window = CASES["K<M"]
    r = _erased(random_bandlimited, band, window)
    invertibility_report(grid, band, window)
    for solver in SOLVERS:
        solver(r, band, window)
    assert len(builds) == 1


@pytest.mark.parametrize(
    "kind,expected",
    [("recovery", 1), ("stability", 1), ("bounds_audit", 4), ("quantum_pipeline", 1)],
)
def test_default_runs_build_e_once_per_window(builds, tmp_path, kind, expected):
    # recovery: one report and three solvers; stability: one report and a
    # solve per sigma; bounds_audit: operator_norm_sq and both ratios on
    # each of its four (W, T) pairs; quantum_pipeline: the window
    # probability, its cap and recover_state
    EXPERIMENTS[kind](tmp_path)
    assert len(builds) == expected


def _fields(out):
    if isinstance(out, SampledSignal):
        return (out.values,)
    return (out.recovered.values, out.residual_history, out.iterations, out.reason)


def _solve_all(r, band, window, order=SOLVERS):
    return {solver.__name__: _fields(solver(r, band, window)) for solver in order}


@pytest.mark.parametrize("case", sorted(CASES))
def test_memo_carries_no_state_between_calls(builds, grid, random_bandlimited, case):
    band, window = CASES[case]
    r = _erased(random_bandlimited, band, window)
    cold = _solve_all(r, band, window)
    warm = _solve_all(r, band, window)
    reverse = _solve_all(r, band, window, SOLVERS[::-1])
    invertibility_report(grid, band, Interval(-5.0, 0.25))  # evicts the entry
    evicted = _solve_all(r, band, window)
    assert len(builds) == 3
    for run in (warm, reverse, evicted):
        for name, fields in cold.items():
            assert all(np.array_equal(a, b) for a, b in zip(fields, run[name])), name

    e = projections._concentration_operator(grid, band, window).e
    with pytest.raises(ValueError):
        e[0, 0] = 0.0


def test_refusal_margin_is_applied_on_every_call(
    builds, grid, random_bandlimited, monkeypatch
):
    # a warm memo holds lambda0, not the decision taken from it
    band, window = CASES["K<M"]
    r = _erased(random_bandlimited, band, window)
    lam = invertibility_report(grid, band, window).lambda0
    monkeypatch.setattr(recovery, "LAMBDA_MARGIN", 1.0 - 0.5 * lam)
    report = invertibility_report(grid, band, window)
    assert report.wt_ok and not report.lambda0_ok and not report.invertible
    assert recover_neumann(r, band, window).refused
    assert recover_band_neumann(r, band, window).refused
    assert len(builds) == 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_signal_memo_carries_no_state_between_calls(
    transforms, random_bandlimited, case
):
    band, window = CASES[case]
    r = _erased(random_bandlimited, band, window)
    other = _erased(random_bandlimited, band, window)
    counts = []

    def run(order=SOLVERS):
        transforms.clear()
        out = _solve_all(r, band, window, order)
        counts.append(len(transforms))
        return out

    cold = run()
    warm = run()
    reverse = run(SOLVERS[::-1])
    recover_neumann(other, band, window)  # evicts r's entry
    evicted = run()
    assert counts == [1, 0, 0, 1]
    for fields in (warm, reverse, evicted):
        for name, expected in cold.items():
            assert all(np.array_equal(a, b) for a, b in zip(expected, fields[name])), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_memoised_signal_and_transform_are_read_only(random_bandlimited, case):
    band, window = CASES[case]
    r = _erased(random_bandlimited, band, window)
    recover_neumann(r, band, window)
    misses = core._dft.cache_info().misses
    spec = core._dft(r)  # the entry the solve left
    assert core._dft.cache_info().misses == misses
    for array in (r.values, spec):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_refusal_margin_is_applied_on_a_warm_signal_memo(
    transforms, grid, random_bandlimited, monkeypatch
):
    # the memo holds the FFT of r, not the decision: a margin raised after
    # a solve refuses the same signal, and the refusal makes no FFT
    band, window = CASES["K<M"]
    r = _erased(random_bandlimited, band, window)
    transforms.clear()
    assert recover_neumann(r, band, window).converged
    assert len(transforms) == 1
    lam = invertibility_report(grid, band, window).lambda0
    monkeypatch.setattr(recovery, "LAMBDA_MARGIN", 1.0 - 0.5 * lam)
    for solver in (recover_neumann, recover_band_neumann):
        assert solver(r, band, window).refused
    with pytest.raises(RefusalError):
        recover_direct(r, band, window)
    core._dft.cache_clear()
    assert recover_band_neumann(r, band, window).refused
    assert len(transforms) == 1


class _CountedGram(np.ndarray):
    """A Gram matrix that counts the products taken with it, or with any
    array scaled from it, by ``@`` or by ``dot``."""

    products = []

    def __matmul__(self, other):
        if self.ndim == 2:
            self.products.append(1)
        return super().__matmul__(other)

    def dot(self, other, *args):
        if self.ndim == 2:
            self.products.append(1)
        return super().dot(other, *args)


@pytest.mark.parametrize("solver", [recover_neumann, recover_band_neumann])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_series_step_is_one_gram_product(
    grid, random_bandlimited, monkeypatch, case, solver
):
    band, window = CASES[case]
    r = _erased(random_bandlimited, band, window)
    real = recovery._concentration_operator

    def counted(*args):
        op = real(*args)
        return dataclasses.replace(op, a=op.a.view(_CountedGram))

    monkeypatch.setattr(recovery, "_concentration_operator", counted)
    monkeypatch.setattr(_CountedGram, "products", [])
    for k in (1, 3, 6):
        _CountedGram.products.clear()
        rec = solver(r, band, window, 0.0, k)
        assert rec.iterations == k
        assert len(_CountedGram.products) == k


def test_e_is_built_in_one_place():
    # every reference to the uncached build under src/subgap, with the
    # function it sits in: only the memo may call it
    found = []
    for path in sorted(Path(subgap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and "_gated_exponentials" in {
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                }:
                    found.append((path.stem, fn.name))
        refs = [
            node.lineno
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "_gated_exponentials")
            or (isinstance(node, ast.Attribute) and node.attr == "_gated_exponentials")
            or (isinstance(node, ast.alias) and node.name == "_gated_exponentials")
        ]
        assert len(refs) == (path.stem == "projections"), (path.name, refs)
    assert found == [("projections", "_concentration_operator")]


def test_roots_table_is_read_only_and_carries_no_state(builds, grid, random_bandlimited):
    # E is gathered from one table of the n roots of unity per n; evicting
    # the table, the operator or both changes no bit of E or of any solve
    band, window = CASES["K<M"]
    r = _erased(random_bandlimited, band, window)
    projections._roots_of_unity.cache_clear()
    cold = _solve_all(r, band, window)
    op = projections._concentration_operator(grid, band, window)
    n = grid.n
    fresh = np.exp(2j * np.pi * np.arange(n) / n)[np.outer(op.bins, op.gates) % n]
    assert np.array_equal(op.e, fresh)
    for evict in (
        projections._roots_of_unity.cache_clear,
        projections._concentration_operator.cache_clear,
        lambda: (projections._roots_of_unity.cache_clear(),
                 projections._concentration_operator.cache_clear()),
    ):
        evict()
        run = _solve_all(r, band, window)
        for name, fields in cold.items():
            assert all(np.array_equal(a, b) for a, b in zip(fields, run[name])), name
        assert np.array_equal(projections._concentration_operator(grid, band, window).e, fresh)
    roots = projections._roots_of_unity(n)
    assert roots is projections._roots_of_unity(n)
    with pytest.raises(ValueError):
        roots[0] = 0.0


@st.composite
def _contiguous_supports(draw):
    """M contiguous in-band bins and K contiguous gated samples on n <= 160,
    with K drawn from anywhere, from the range (M - 1)(K - 1) < n, or from
    past the discrete uncertainty limit M + K > n."""
    n = 2 * draw(st.integers(2, 80))
    grid = TimeGrid(draw(st.floats(-50.0, 50.0)), draw(st.floats(0.01, 1.0)), n)
    m = draw(st.integers(1, n - 1))
    below = n - m if m == 1 else min(n - m, (n - 1) // (m - 1) + 1)
    ranges = [(1, n - 1), (1, below)] + ([(n - m + 1, n - 1)] if m > 1 else [])
    k = draw(st.integers(*draw(st.sampled_from(ranges))))
    first_bin = draw(st.integers(1, n - m))
    first_sample = draw(st.integers(1, n - k))
    dw = grid.dual.dw
    band = Interval(grid.dual.frequencies[first_bin] + 0.5 * (m - 1) * dw, m * dw)
    window = Interval(grid.times[first_sample] + 0.5 * (k - 1) * grid.dt, k * grid.dt)
    return grid, band, window, m, k


@settings(max_examples=200)
@given(_contiguous_supports())
def test_gram_top_eigenvalue_obeys_the_exact_grid_bounds(case):
    # trace(E E^H) / n = M K / n bounds lambda0; on the n-point cycle a
    # vector on K consecutive samples vanishes on at most K - 1 of the bins
    # off the band, so lambda0 = 1 exactly when M + K > n (Donoho & Stark).
    # Below the limit the test keeps to (M - 1)(K - 1) < n, because with
    # M ~ K ~ n/2 the gap 1 - lambda0 underflows
    grid, band, window, m, k = case
    op = projections._concentration_operator(grid, band, window)
    n = grid.n
    assert op.e.shape == (m, k) and op.a.shape == (min(m, k),) * 2
    assert op.lambda0 <= m * k / n + 1e-12
    if m + k > n:
        assert op.lambda0 >= 1.0 - 1e-12
    elif (m - 1) * (k - 1) < n:
        assert op.lambda0 < 1.0 - 1e-12


#: a gap strictly between the comb instants 0 and 1/4 of the copy sums, at
#: WT < 1 for the solvers
GAP = Interval(0.125, 0.25 - 1.0 / 64)


def _solved(solver):
    def run(r, band):
        rec = solver(r, band, GAP)
        if isinstance(rec, SampledSignal):
            return [rec.values]
        return [rec.recovered.values, rec.residual_history]

    return run


def _first_term(r, band):
    out = band_approx_first_term(r, band, GAP.width)
    return [out.approx.values, out.predicted_offset]


#: every reader of core._dft, each with the arrays and numbers it returns
CONSUMERS = {
    "forward_spectrum": lambda r, band: [forward_spectrum(r).values],
    "band_project": lambda r, band: [band_project(r, band).values],
    "out_of_band_fraction": lambda r, band: [out_of_band_fraction(r, band)],
    "concentration_ratio": lambda r, band: [
        concentration_ratio(r, band, Interval(-1.0, 2.0))
    ],
    **{solver.__name__: _solved(solver) for solver in SOLVERS},
    "spectral_copy_recover": lambda r, band: [
        spectral_copy_recover(
            r, SpectralCopyConfig(band=band, t_sn=0.25, t_ds=GAP.width, k_max=3)
        ).spectrum.values
    ],
    "band_approx_first_term": _first_term,
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_every_reader_of_the_signal_memo_is_bitwise_the_same_cold_warm_and_evicted(
    transforms, band, s_w, name
):
    # one ifft of r when the memo is cold or holds another signal, none when
    # it holds r, and the same bytes out each time
    r = erase(s_w, ErasureModel(window=GAP, source_band=band))
    run = CONSUMERS[name]
    outputs, counts = [], []
    for before in (core._dft.cache_clear, lambda: None, lambda: core._dft(s_w)):
        before()
        transforms.clear()
        outputs.append([np.asarray(x).tobytes() for x in run(r, band)])
        counts.append(len(transforms))
    assert counts == [1, 0, 1]
    assert outputs[0] == outputs[1] == outputs[2]


def test_erasing_a_signal_then_taking_its_spectrum_is_one_transform(
    band, s_w, monkeypatch
):
    # the bandlimit check of erase() leaves s in the memo for forward_spectrum
    calls, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda x: calls.append(x) or ifft(x))
    erase(s_w, ErasureModel(window=GAP, source_band=band))
    forward_spectrum(s_w)
    assert len(calls) == 1 and calls[0] is s_w.values
