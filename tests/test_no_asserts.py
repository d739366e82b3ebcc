"""Library code states its checks as typed errors, never as bare asserts.

``assert`` statements vanish under ``python -O``, so a guarantee written as
one is silently dropped; this walks every module of the package and fails
on any ``assert`` it finds.
"""

import ast
from pathlib import Path

import subgap

SOURCES = sorted(Path(subgap.__file__).parent.rglob("*.py"))


def test_no_bare_asserts_in_library_code():
    assert any(p.name == "sampling.py" for p in SOURCES)  # the walk sees the package
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare assert in library code: {found}"
