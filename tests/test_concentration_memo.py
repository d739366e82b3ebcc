"""One build of the exact-phase basis E per (grid, band, window).

The refusal check, the three gap solvers, ``operator_norm_sq`` and
``prolate_matrix`` all read E and lambda0 from one memoised record.  These
tests count the uncached builds behind it, check that the shared record
cannot carry state from one call into the next, and walk the package's
syntax tree so E can only be built in one place.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import subgap
from subgap import (
    ErasureModel,
    Interval,
    SampledSignal,
    erase,
    invertibility_report,
    recover_band_neumann,
    recover_direct,
    recover_neumann,
)
from subgap import projections, recovery
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
    "kind,expected", [("recovery", 1), ("stability", 1), ("bounds_audit", 4)]
)
def test_default_runs_build_e_once_per_window(builds, tmp_path, kind, expected):
    # recovery: one report and three solvers; stability: one report and a
    # solve per sigma; bounds_audit: operator_norm_sq and prolate_matrix on
    # each of its four (W, T) pairs
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
