"""The library surface that the benchmark under perfbench/ binds.

perfbench/workloads.py calls the package as ``sg.<name>``, passes some
arguments by keyword and reads some result fields, the tracer in
perfbench/tracing.py binds some arguments by name and reads the files the
writers return, and the tracer's install test expects ``band_project`` to
be bound in ``subgap.recovery``.  A rename in the library breaks the
benchmark only when it runs; these tests fail first.  They read the
benchmark's sources and import nothing from it.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import subgap
from subgap import io

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: the parameters each hook in perfbench/tracing.py ``HOOKS`` binds by name
HOOK_PARAMS = {
    "sampling.sinc_reconstruct": ["c", "at"],
    "sampling.periodized_spectrum": ["c"],
    "sampling.integral_equation_residual": ["s_hat", "band", "t_ds"],
    "quantum.tomography_solve": ["samples", "p_grid", "mass", "grid"],
}


#: the result fields the sampling workload's check reads
RESULT_FIELDS = {
    "SpectralCopyResult": ["spectrum", "k_used"],
    "BandApproxResult": ["approx", "regime"],
}


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_every_name_the_workloads_call_resolves():
    names = {
        node.attr
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sg"
    }
    assert "recover_neumann" in names
    assert sorted(n for n in names if not hasattr(subgap, n)) == []


def test_every_keyword_the_workloads_pass_is_a_parameter():
    passed = {
        (node.func.attr, kw.arg)
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "sg"
        for kw in node.keywords
        if kw.arg is not None
    }
    assert ("SpectralCopyConfig", "t_ds") in passed
    unknown = sorted(
        (name, kw) for name, kw in passed
        if kw not in inspect.signature(getattr(subgap, name)).parameters
    )
    assert unknown == []


@pytest.mark.parametrize("name", sorted(RESULT_FIELDS))
def test_result_fields_the_sampling_check_reads_exist(name):
    read = {
        node.attr for node in ast.walk(_tree("workloads.py")) if isinstance(node, ast.Attribute)
    }
    fields = [f.name for f in dataclasses.fields(getattr(subgap, name))]
    assert [f for f in RESULT_FIELDS[name] if f not in read] == []
    assert [f for f in RESULT_FIELDS[name] if f not in fields] == []


def _hooked():
    for node in ast.walk(_tree("tracing.py")):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "HOOKS":
            return {key.value for key in node.value.keys}
    raise AssertionError("perfbench/tracing.py defines no HOOKS")


@pytest.mark.parametrize("name", sorted(HOOK_PARAMS))
def test_hooked_functions_keep_the_parameters_bound_by_name(name):
    assert name in _hooked()
    module, attr = name.split(".")
    fn = getattr(getattr(subgap, module), attr)
    assert attr in getattr(subgap, module).__all__
    params = list(inspect.signature(fn).parameters)
    assert [p for p in HOOK_PARAMS[name] if p not in params] == []


def test_writers_return_the_path_they_wrote(tmp_path):
    x = np.arange(3.0)
    csv = io.write_csv(tmp_path / "t.csv", [("x", x)])
    svg = io.write_svg_lines(tmp_path / "t.svg", x, [("x", x)])
    assert isinstance(csv, Path) and csv.stat().st_size > 0
    assert isinstance(svg, Path) and svg.name == "t.svg"


def test_band_project_is_bound_in_recovery():
    assert subgap.recovery.band_project is subgap.band_project
