"""Each guard and export list is written once and shared by every caller.

The bandlimit check, the concentration bound, the refusal wording of an
invertibility report, the report check of a refusal, the test that t = 0
is a grid point and the package's export lists each used to be copied
into several places, where one copy could drift from the others.  These
walk the syntax trees and fail when a second copy appears.  A report's
verdicts and counts are likewise read from the fields that decide them,
never stored beside them.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import subgap
from subgap import core, errors, experiments, projections, quantum, recovery, sampling

SOURCES = sorted(Path(subgap.__file__).parent.glob("*.py"))


def _sites(tree, name):
    """(top-level name, innermost def, call) for each ``name(...)`` call."""
    sites = []

    def visit(node, top, inner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, top or child.name, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == name
            ):
                sites.append((top, inner, child))
            visit(child, top, inner)

    visit(tree, None, None)
    return sites


def test_not_bandlimited_error_is_raised_by_one_guard():
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.stem, fn) for _, fn, _ in _sites(tree, "NotBandlimitedError")]
    assert sites == [("projections", "_require_bandlimited")]


def test_concentration_bound_is_checked_by_one_guard():
    tree = ast.parse(Path(projections.__file__).read_text(encoding="utf-8"))
    sites = [fn for _, fn, _ in _sites(tree, "BoundViolationError")]
    assert sites == ["_bounded_by_lambda0"]


def _tree(module):
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def test_recovery_refusals_come_from_the_report_or_the_dimension_guard():
    # a refusal at the limit is worded and raised by the report alone;
    # recover_state refuses through it, so quantum keeps only rank1_extract
    sites = _sites(_tree(recovery), "RefusalError")
    in_report = [fn for top, fn, _ in sites if top == "InvertibilityReport"]
    others = [(top, call) for top, _, call in sites if top != "InvertibilityReport"]
    assert in_report == ["_require"]
    assert len(others) == 1
    top, call = others[0]
    names = {n.id for n in ast.walk(call) if isinstance(n, ast.Name)}
    assert top == "recover_direct" and "DIRECT_SOLVE_DIM_LIMIT" in names
    assert [top for top, _, _ in _sites(_tree(quantum), "RefusalError")] == [
        "rank1_extract"
    ]


def test_refusals_are_recorded_by_one_check():
    # one helper writes the check, and no handler asks the guard again
    text = "".join(path.read_text(encoding="utf-8") for path in SOURCES)
    assert text.count('"refusal_consistent_with_limit"') == 1
    handlers = [
        node for node in ast.walk(_tree(experiments))
        if isinstance(node, ast.ExceptHandler)
    ]
    assert handlers
    for handler in handlers:
        assert not _sites(handler, "invertibility_report"), ast.unparse(handler)


def test_t_zero_on_the_grid_is_decided_by_one_helper():
    # the comb, the sinc series and the copy sum all anchor at t = 0
    tree = _tree(sampling)
    on_t_start = [
        fn for _, fn, call in _sites(tree, "_aligned")
        if any(isinstance(n, ast.Attribute) and n.attr == "t_start" for n in ast.walk(call))
    ]
    assert on_t_start == ["_origin"]
    callers = sorted(fn for _, fn, _ in _sites(tree, "_origin"))
    assert callers == ["_copy_sums", "comb_sample", "sinc_reconstruct"]


def test_no_name_is_exported_by_two_modules():
    # the package star-imports these, so a repeated name would shadow
    modules = (core, errors, projections, recovery, sampling, quantum)
    names = [name for m in modules for name in m.__all__]
    assert len(names) == len(set(names))
    assert subgap.__all__ == ["__version__", *names]
    for m in modules:
        assert all(getattr(subgap, name) is getattr(m, name) for name in m.__all__)


def test_series_steps_stay_in_the_gram_dimension():
    # a Neumann step multiplies by the min(M, K) Gram matrix, never by the
    # M x K basis E: neither the loop nor the solvers' per-step measures
    # may refer to E, as ``e`` or ``op.e``
    tree = ast.parse(Path(recovery.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loops = [n for n in ast.walk(defs["_neumann_loop"]) if isinstance(n, ast.For)]
    measures = [
        n
        for name in ("recover_neumann", "recover_band_neumann")
        for n in ast.walk(defs[name])
        if isinstance(n, ast.FunctionDef) and n.name == "measure"
    ]
    assert len(loops) == 1 and len(measures) == 2
    for node in loops + measures:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert "e" not in names | attrs, ast.unparse(node)


def test_gram_orientation_is_decided_once():
    # "the Gram dimension is the window's, K < M" is worked out from array
    # sizes in the operator's one build; the solvers read op.on_window
    sites = []
    for module in (projections, recovery):
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.FunctionDef):
                sites += [
                    (module.__name__, node.name)
                    for cmp in ast.walk(node)
                    if isinstance(cmp, ast.Compare)
                    and all(
                        any(
                            isinstance(n, ast.Attribute) and n.attr in ("size", "shape")
                            for n in ast.walk(side)
                        )
                        for side in (cmp.left, *cmp.comparators)
                    )
                ]
    assert sites == [("subgap.projections", "_concentration_operator")]


def test_float_cells_are_formatted_in_one_function():
    # every CSV float goes through one column rule; a second %.16e outside
    # a docstring would be a second rule that could drift from it
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            node.body[0].value
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None
        }
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ".16e" in node.value
                and node not in docstrings
            ):
                owner = node
                while owner in parents and not isinstance(owner, ast.FunctionDef):
                    owner = parents[owner]
                sites.append((path.stem, getattr(owner, "name", None)))
    assert sites == [("io", "write_csv")]


def test_svg_coordinates_are_formatted_by_one_rule():
    # the frame, the labels and every polyline point share one two-decimal
    # rule; a second .2f outside a docstring could drift from it
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            node.body[0].value
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None
        }
        sites += [
            (path.stem, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and ".2f" in node.value
            and node not in docstrings
        ]
    assert sites == [("io", "{:.2f}")]


def test_arrays_are_frozen_by_core_or_in_a_memo():
    # every record keeps its arrays through core's one rule; only the memo
    # builders freeze in place, since copying E would cost time
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setflags"
            ):
                owner = node
                while owner in parents and not isinstance(owner, ast.FunctionDef):
                    owner = parents[owner]
                sites.append((path.stem, getattr(owner, "name", None)))
    assert sorted(sites) == [
        ("core", "_keep_arrays"),
        ("projections", "_concentration_operator"),
        ("projections", "_roots_of_unity"),
        ("recovery", "_transformed"),
    ]


def test_states_are_normalized_by_one_helper():
    # each normalized state is divided by its l2_norm in quantum._normalized,
    # which refuses a zero state with its caller's message
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [
            (path.stem, fn)
            for _, fn, call in _sites(tree, "WaveFunction")
            if any(k.arg == "normalized" for k in call.keywords)
        ]
    assert sites == [("quantum", "_normalized")]

def test_reports_store_only_what_decides_them():
    # every verdict and count is a property of these fields, so a report
    # that contradicts itself cannot be built
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(recovery.InvertibilityReport) == ["lambda0", "wt"]
    assert names(recovery.RecoveryReport) == [
        "recovered", "residual_history", "contraction_estimate", "reason"
    ]
    with pytest.raises(errors.RefusalError):
        recovery.InvertibilityReport(lambda0=0.99, wt=2.0)._require("a gap at WT = 2")
