"""Each guard and export list is written once and shared by every caller.

The bandlimit check, the concentration bound, the refusal wording of an
invertibility report, the report check of a refusal and the package's
export lists each used to be copied into several places, where one copy
could drift from the others.  These walk the syntax trees and fail when a
second copy appears.
"""

import ast
from pathlib import Path

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
