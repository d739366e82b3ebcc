"""The momentum side reuses the signal side instead of copying it.

The quantum transform pair, P_P, P_X and the gap-inverting series are the
conjugates of their signal-side counterparts, so ``quantum.py`` calls
``core``, ``projections`` and ``recovery`` for them.  This walks the
module's syntax tree and fails on any ``np.fft`` reference, on a loop
outside the tomography code, where a second copy would show up first, on
an ``np.conj`` call outside ``_conj``, or on an overlap (``np.vdot``)
outside the tomography helpers: a state is conjugated once, into its
twin, and ``fidelity`` is ``core.inner_product``.
"""

import ast
from pathlib import Path

import subgap.quantum

TREE = ast.parse(Path(subgap.quantum.__file__).read_text(encoding="utf-8"))

#: the free-evolution and tomography code, which has no signal-side twin,
#: and the finiteness check of its inputs
LOOPS_ALLOWED = {
    "evolve_diagonal_series",
    "tomography_solve",
    "_inverse_cholesky",
    "_require_finite",
    "_degenerate_pairs",
}

#: the tomography fit and the helpers it alone calls
TOMOGRAPHY = {
    "tomography_solve",
    "_gram_factor",
    "_gram_cond",
    "_inverse_cholesky",
    "_separable_gram",
    "_separable_rhs",
    "_separable_fit",
    "_dense_design",
    "_degenerate_pairs",
    "_complete_populations",
}


def _callers(name):
    """The top-level definitions whose bodies call ``name``, spelled as given."""
    return {
        node.name
        for node in TREE.body
        if hasattr(node, "name")
        and any(
            isinstance(n, ast.Call) and ast.unparse(n.func) == name
            for n in ast.walk(node)
        )
    }


def test_quantum_module_makes_no_fft_call():
    found = [
        node.lineno
        for node in ast.walk(TREE)
        if (isinstance(node, ast.Attribute) and node.attr == "fft")
        or (isinstance(node, ast.ImportFrom) and "fft" in (node.module or ""))
        or (
            isinstance(node, (ast.Import, ast.ImportFrom))
            and any("fft" in alias.name for alias in node.names)
        )
    ]
    assert not found, f"np.fft referenced in quantum.py at lines {found}"


def test_quantum_module_loops_only_in_tomography():
    def loops(node):
        return [
            n.lineno for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))
        ]

    assert LOOPS_ALLOWED <= {getattr(n, "name", None) for n in TREE.body}
    found = [
        line
        for node in TREE.body
        if getattr(node, "name", None) not in LOOPS_ALLOWED
        for line in loops(node)
    ]
    assert not found, f"loop outside the tomography code at lines {found}"


def test_states_are_conjugated_only_by_conj():
    assert _callers("np.conj") == {"_conj"}


def test_overlaps_outside_tomography_go_through_inner_product():
    assert TOMOGRAPHY <= {getattr(n, "name", None) for n in TREE.body}
    assert _callers("np.vdot") <= TOMOGRAPHY
    assert "fidelity" in _callers("inner_product")
