"""The numbers every shipped run writes, and the snapshot they are held to.

Runs every ``configs/*.json`` through ``subgap run``, ``subgap fig2`` and
``subgap audit``, and every other experiment at its defaults (the two
shortcuts are the defaults of ``fig2`` and ``bounds_audit``).  Of each
run it keeps the report's checks (name, verdict, value, threshold), its
metrics and its artifact names, every column of every CSV it writes and
every other JSON artifact it writes; never ``wall_time_s`` or
``timings``.  ``tests/test_same_output.py`` compares a fresh collection
with the checked-in ``same_output.json`` at relative 1e-12 with an
absolute floor of 1e-14.

Regenerate the snapshot after a change that is meant to move a number::

    PYTHONPATH=src python tests/same_output.py

and list every value that moved, with its old and new value, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from subgap.cli import main
from subgap.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = Path(__file__).with_name("same_output.json")
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

#: the report keys whose values are not the run's numbers
UNTIMED = ("wall_time_s", "timings")

REL_TOL = 1e-12
ABS_TOL = 1e-14


def _runs():
    """(name, run) pairs; each run takes an output directory."""

    def cli(*argv):
        def run(out):
            with contextlib.redirect_stdout(io.StringIO()):
                main([*argv, "--out", str(out)])

        return run

    runs = [(f"configs/{path.name}", cli("run", str(path))) for path in CONFIGS]
    runs += [("subgap fig2", cli("fig2")), ("subgap audit", cli("audit"))]
    runs += [
        (f"defaults/{kind}", lambda out, _kind=kind: EXPERIMENTS[_kind](out))
        for kind in sorted(EXPERIMENTS)
        if kind not in ("fig2", "bounds_audit")
    ]
    return runs


def _read_csv(path: Path) -> dict:
    with path.open(newline="", encoding="utf-8") as f:
        header, *rows = list(csv.reader(f))
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def _numbers(out: Path) -> dict:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for key in UNTIMED:
        report.pop(key, None)
    report.pop("config")
    tables = {p.name: _read_csv(p) for p in sorted(out.glob("*.csv"))}
    other = {
        p.name: json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(out.glob("*.json"))
        if p.name != "report.json"
    }
    return {"report": report, "csv": tables, "json": other}


def collect(workdir) -> dict:
    """The numbers of every run, each run written under ``workdir``."""
    workdir = Path(workdir)
    out = {}
    for i, (name, run) in enumerate(_runs()):
        run(workdir / str(i))
        out[name] = _numbers(workdir / str(i))
    return out


def differences(old, new, path="") -> list[str]:
    """Where ``new`` departs from ``old``: a number by more than
    REL_TOL relative and ABS_TOL absolute, anything else at all."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return [f"{path}: keys {sorted(old)} != {sorted(new)}"]
        return [d for k in old for d in differences(old[k], new[k], f"{path}/{k}")]
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} != {len(new)}"]
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in differences(a, b, f"{path}[{i}]")]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if numbers:
        if math.isnan(old) and math.isnan(new):
            return []
        if old == new or abs(old - new) <= max(REL_TOL * max(abs(old), abs(new)), ABS_TOL):
            return []
    elif type(old) is type(new) and old == new:
        return []
    return [f"{path}: {old!r} -> {new!r}"]


def _deduplicated(runs: dict) -> dict:
    """Each run's numbers, or ``{"same_as": name}`` for a repeat of an
    earlier run's exact numbers."""
    kept = {}
    for name, numbers in runs.items():
        twin = next((k for k, v in kept.items() if "same_as" not in v and v == numbers), None)
        kept[name] = {"same_as": twin} if twin else numbers
    return kept


def load() -> dict:
    """The snapshot with every repeat resolved to its numbers."""
    runs = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    return {k: runs[v["same_as"]] if "same_as" in v else v for k, v in runs.items()}


def main_regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = collect(tmp)
    text = json.dumps(_deduplicated(runs), indent=1, sort_keys=True)
    SNAPSHOT.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {SNAPSHOT}")
    return 0


if __name__ == "__main__":
    sys.exit(main_regenerate())
