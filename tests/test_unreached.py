"""Every line ``unreached.txt`` excuses is still in ``src/subgap``, once.

``linecov.py`` matches each unreached line to its entry by the fragment,
so a fragment that is gone, or that a second line also holds, would excuse
the wrong line or none.
"""

from pathlib import Path

import subgap
from linecov import entries

SOURCES = sorted(Path(subgap.__file__).parent.glob("*.py"))


def test_every_unreached_fragment_occurs_once_with_a_reason():
    text = [path.read_text(encoding="utf-8") for path in SOURCES]
    found = entries()
    assert found
    for fragment, reason in found:
        assert reason, fragment
        assert sum(t.count(fragment) for t in text) == 1, fragment


def test_entries_are_a_fragment_then_indented_reason_lines():
    text = "# note\n\nx = 1\n    one\n    two\ny()\n    three\n"
    assert entries(text) == [("x = 1", "one two"), ("y()", "three")]
