"""Every shipped run writes the numbers of the checked-in snapshot.

A change that moves any check value, threshold, metric or CSV number by
more than rounding fails here; see ``same_output.py`` to regenerate.
"""

import json

from same_output import SNAPSHOT, collect, differences, load


def test_runs_write_the_snapshot_numbers(tmp_path):
    found = differences(load(), collect(tmp_path))
    assert not found, "\n".join(found[:20])


def test_snapshot_tolerance_is_relative_with_an_absolute_floor():
    assert differences({"x": [1.0, 1e-15]}, {"x": [1.0 + 1e-13, 5e-15]}) == []
    assert differences({"lambda0": 0.5}, {"lambda0": 0.5 * (1.0 + 1e-9)}) == [
        "/lambda0: 0.5 -> 0.5000000005"
    ]
    assert differences(float("nan"), float("nan")) == []
    for old, new in [(2e-14, 4e-14), (True, 1), ("a", "b"), ([1.0], [1.0, 2.0]), ({"a": 1}, {"b": 1})]:
        assert differences(old, new), (old, new)


def test_snapshot_repeats_name_a_stored_run():
    runs = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert all(runs[v["same_as"]].keys() == {"report", "csv", "json"} for v in runs.values() if "same_as" in v)
