"""The statement lines of ``src/subgap`` that the tier-1 suite never runs.

Runs tier-1 in this process under a ``sys.settrace`` tracer limited to
``src/subgap`` (the standard library alone; no coverage package) and
prints each statement line that never ran as ``file:line: source``.
Then it lists the lines that ``unreached.txt`` does not explain and the
entries there whose line now runs, and exits 0 when there are neither
and every test passed.  Tests that start ``subgap`` as a subprocess are
not traced.  Extra arguments go to pytest::

    PYTHONPATH=src python tests/linecov.py [pytest args]

``unreached.txt`` holds one entry per unreached line: an exact fragment of
the line's source, flush left and found once in ``src/subgap``, then the
reason no test reaches it on indented lines.  Lines starting with ``#``
are comments.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subgap"
UNREACHED = Path(__file__).with_name("unreached.txt")


def entries(text: str | None = None) -> list[tuple[str, str]]:
    """The (fragment, reason) pairs of ``unreached.txt``, or of ``text``."""
    if text is None:
        text = UNREACHED.read_text(encoding="utf-8")
    found = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            fragment, reason = found[-1]
            found[-1] = (fragment, f"{reason} {line.strip()}".lstrip())
        else:
            found.append((line.rstrip(), ""))
    return found


def _docstrings(tree) -> set[int]:
    """The ids of the docstring expressions of a module, class or def."""
    ids = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                ids.add(id(body[0]))
    return ids


def statement_lines(source: str, filename: str) -> set[int]:
    """Lines where a statement other than a docstring starts and the
    compiled code holds an instruction."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    starts = {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in skip
    }
    compiled = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        compiled.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & compiled


def traced_run(pytest_args) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest under the tracer; return its exit status and the lines
    that ran, per source file of ``src/subgap``."""
    import pytest

    hits = {path: set() for path in SRC.glob("*.py")}
    resolved = {}

    def local(frame, event, arg):
        if event == "line":
            resolved[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = hits.get(Path(name).resolve())
        return local if resolved[name] is not None else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv=None) -> int:
    status, hits = traced_run(sys.argv[1:] if argv is None else argv)
    unreached = []
    for path in sorted(hits):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for n in sorted(statement_lines(source, str(path)) - hits[path]):
            unreached.append((f"{path.relative_to(ROOT)}:{n}", lines[n - 1].strip()))
    known = entries()
    print(f"\n{len(unreached)} statement lines of src/subgap never ran:")
    for where, text in unreached:
        print(f"{where}: {text}")
    unexplained = [
        (where, text) for where, text in unreached
        if not any(fragment in text for fragment, _ in known)
    ]
    stale = [
        fragment for fragment, _ in known
        if not any(fragment in text for _, text in unreached)
    ]
    print(f"\n{len(unexplained)} of them have no entry in {UNREACHED.name}:")
    for where, text in unexplained:
        print(f"{where}: {text}")
    print(f"\n{len(stale)} entries of {UNREACHED.name} name a line that ran:")
    for fragment in stale:
        print(fragment)
    return 1 if status or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
