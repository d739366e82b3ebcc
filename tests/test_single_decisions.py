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
    assert callers == ["comb_sample", "sinc_reconstruct", "spectral_copy_recover"]


def test_intervals_meet_a_grid_by_one_rule_each():
    # a band is masked only after its Nyquist check and a window only after
    # its span check, because only these two rules call Interval.mask
    sites = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                sites += [
                    (path.stem, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "mask"
                ]
    assert sorted(sites) == [("projections", "_band_mask"), ("projections", "_window_mask")]


def test_the_gated_basis_is_built_by_the_operator_alone():
    # E is built once per (grid, band, window) by the memoised operator; the
    # solvers, prolate_matrix and the integral-equation residual read op.e
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.stem, fn) for _, fn, _ in _sites(tree, "_gated_exponentials")]
    assert sites == [("projections", "_concentration_operator")]


def test_the_copy_sums_are_one_table_not_a_generator():
    assert not [n for n in ast.walk(_tree(sampling)) if isinstance(n, (ast.Yield, ast.YieldFrom))]


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


def _owned(path, match):
    """(module, innermost def) of each node in ``path`` that ``match`` accepts."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    sites = []
    for node in ast.walk(tree):
        if match(node):
            owner = node
            while owner in parents and not isinstance(owner, ast.FunctionDef):
                owner = parents[owner]
            sites.append((path.stem, getattr(owner, "name", None)))
    return sites


def test_arrays_are_frozen_by_core_or_in_a_memo():
    # every record keeps its arrays through core's one rule; only the memo
    # builders freeze in place, since copying E would cost time
    def freezes(node):
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setflags"
        )

    sites = [site for path in SOURCES for site in _owned(path, freezes)]
    assert sorted(sites) == [
        ("core", "_dft"),
        ("core", "_keep_arrays"),
        ("core", "_ramp"),
        ("projections", "_concentration_operator"),
        ("projections", "_roots_of_unity"),
        ("sampling", "_sinc_kernel"),
    ]


def test_a_signal_is_transformed_in_one_memo():
    # every forward FFT of a signal's values is core._dft's, and no other
    # memo is keyed on a record that hashes by identity, as a signal does
    def transforms_values(node):
        return (
            isinstance(node, ast.Call)
            and "ifft" in _names(node.func)
            and any(isinstance(a, ast.Attribute) and a.attr == "values" for a in node.args)
        )

    sites = [site for path in SOURCES for site in _owned(path, transforms_values)]
    assert sites == [("core", "_dft")]

    by_identity = {
        name
        for module in (core, projections, recovery, sampling, quantum)
        for name, cls in vars(module).items()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        and cls.__eq__ is object.__eq__
    }
    assert {"SampledSignal", "Spectrum", "WaveFunction"} <= by_identity
    keyed = []
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef) and "lru_cache" in {
                name for d in fn.decorator_list for name in _names(d)
            }:
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                assert all(a.annotation is not None for a in args), fn.name
                if any(_names(a.annotation) & by_identity for a in args):
                    keyed.append((path.stem, fn.name))
    assert keyed == [("core", "_dft")]


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


def test_invertibility_reports_are_built_in_one_place():
    # the solvers' refusal check reads its report from invertibility_report
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.stem, fn) for _, fn, _ in _sites(tree, "InvertibilityReport")]
    assert sites == [("recovery", "invertibility_report")]


def _names(node):
    """The names and attribute names inside ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_the_t_start_phase_is_reduced_in_one_place():
    # forward_spectrum, inverse_signal and prolate_matrix all take the ramp
    # exp(2 pi i mod(w t_start, 1)) from core._ramp
    def reduces_t_start(node):
        return (
            isinstance(node, ast.Call)
            and "mod" in _names(node.func)
            and "t_start" in _names(node)
        )

    sites = [site for path in SOURCES for site in _owned(path, reduces_t_start)]
    assert sites == [("core", "_ramp")]


def test_the_operator_holds_one_scaled_gram_matrix():
    # the operator keeps A = G/n, which lambda0, a series step and the direct
    # solve all use as it is: no unscaled Gram matrix, no dt * dw factor
    op = projections._ConcentrationOperator
    assert [f.name for f in dataclasses.fields(op)] == [
        "e", "bins", "gates", "lambda0", "on_window", "a"
    ]
    assert op.__eq__ is object.__eq__ and op.__hash__ is object.__hash__

    def reads_gram(node):
        return isinstance(node, ast.Attribute) and node.attr == "gram"

    def scales_by_dt_dw(node):  # as grid.dt * grid.dual.dw did
        product = isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        return product and {"dt", "dw"} <= _names(node)

    sites = [
        site
        for path in SOURCES
        for site in _owned(path, lambda n: reads_gram(n) or scales_by_dt_dw(n))
    ]
    assert sites == []


def test_the_writers_depend_on_core_alone():
    # write_density_csv reads a density matrix without importing quantum
    tree = _tree(subgap.io)
    modules = [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert [m for m in modules if m.startswith((".", "subgap"))] == [".core"]
