"""Each guard and export list is written once and shared by every caller.

The bandlimit check, the refusal wording of an invertibility report and
the package's export lists each used to be copied into several modules,
where one copy could drift from the others.  These walk the syntax trees
and fail when a second copy appears.
"""

import ast
from pathlib import Path

import subgap
from subgap import core, errors, projections, quantum, recovery, sampling

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


def test_recovery_refusals_come_from_the_report_or_the_dimension_guard():
    tree = ast.parse(Path(recovery.__file__).read_text(encoding="utf-8"))
    sites = _sites(tree, "RefusalError")
    in_report = [fn for top, fn, _ in sites if top == "InvertibilityReport"]
    others = [(top, call) for top, _, call in sites if top != "InvertibilityReport"]
    assert len(in_report) == 1
    assert len(others) == 1
    top, call = others[0]
    names = {n.id for n in ast.walk(call) if isinstance(n, ast.Name)}
    assert top == "recover_direct" and "DIRECT_SOLVE_DIM_LIMIT" in names


def test_no_name_is_exported_by_two_modules():
    # the package star-imports these, so a repeated name would shadow
    modules = (core, errors, projections, recovery, sampling, quantum)
    names = [name for m in modules for name in m.__all__]
    assert len(names) == len(set(names))
    assert subgap.__all__ == ["__version__", *names]
    for m in modules:
        assert all(getattr(subgap, name) is getattr(m, name) for name in m.__all__)
