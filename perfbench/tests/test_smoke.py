"""Smoke tests for the benchmark harness.

    python3 -m pytest perfbench/tests -q

They run one round of each workload through the real entry point, and
check the failure accounting and the span arithmetic on small fakes.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_appears_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.01",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    # on the library workloads nothing fails; cli_runs keeps the known crashes
    expected = 2 * result["attempted"] // 9 if name == "cli_runs" else 0
    assert result["failed"] == expected


def test_workload_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "recover_ladder", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


class Fake(workloads.Workload):
    """Three operations: one succeeds, one raises, one returns a wrong value."""

    name = "fake"
    round_size = 3
    rounds = 1

    def make_round(self, rng, r):
        return ["ok", "raise", "wrong"]

    def make_warmup(self, rng):
        return "ok"

    def execute(self, op):
        if op == "raise":
            raise RuntimeError("boom")
        return 1.0 if op == "ok" else 2.0

    def check(self, op, result):
        good = result == 1.0
        return workloads.Outcome(good, not good, error=abs(result - 1.0))


def test_failed_operations_are_counted(tmp_path):
    wl = Fake(None, 0, tmp_path)
    rows = run.run_ops(wl, range(3))
    failed, wrong = run.tally(rows)
    assert [i for i, _, _ in failed] == [1, 2]
    assert [i for i, _, _ in wrong] == [2]
    assert "RuntimeError: boom" in rows[1][2].note


def test_past_the_limit_stability_config_counts_as_failed(tmp_path):
    sg = run.import_subgap()
    wl = workloads.CliRuns(sg, 0, tmp_path, rounds=1)
    ids = [i for i, op in enumerate(wl.ops) if op.kind == "stability" and op.past_limit]
    (row,) = run.run_ops(wl, ids)
    assert not row[2].ok and not row[2].wrong
    assert row[2].note.startswith("RefusalError")


def test_self_time_is_duration_minus_children():
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.01)

    w_inner = tr.wrap("m.inner", inner)

    def outer(depth):
        if depth:
            return w_outer(depth - 1)
        w_inner()
        w_inner()
        time.sleep(0.01)

    w_outer = tr.wrap("m.outer", outer)
    tr.run_op(0, w_outer, 1)
    busy, self_s = tr.span_times()
    spans = {name: [s for s in tr.spans if s[0] == name] for name in ("op", "m.outer", "m.inner")}
    outer_spans = spans["m.outer"]
    # the recursive call is nested in the first, so busy counts only the outer one
    assert busy["m.outer"] == pytest.approx(outer_spans[0][2] - outer_spans[0][1])
    assert self_s["m.inner"] == pytest.approx(busy["m.inner"])
    total = sum(e - s for _, s, e, _, _ in outer_spans)
    assert self_s["m.outer"] == pytest.approx(total - (outer_spans[1][2] - outer_spans[1][1])
                                              - busy["m.inner"])
    # every span's self time plus its children's durations is its duration
    assert sum(self_s.values()) == pytest.approx(busy["op"])
    assert math.isclose(busy["m.inner"], 0.02, rel_tol=0.5)
    assert tr.counts[0] == {"m.outer.calls": 2, "m.inner.calls": 2}


def test_install_wraps_every_binding_and_restores():
    sg = run.import_subgap()
    import importlib

    cli = importlib.import_module("subgap.cli")
    experiments = importlib.import_module("subgap.experiments")
    originals = (sg.band_project, sg.recovery.band_project, experiments.EXPERIMENTS["fig2"])
    tr = tracing.Tracer()
    names = tr.install("subgap")
    try:
        assert "projections.band_project" in names and "cli.main" in names
        assert sg.band_project is not originals[0]
        assert sg.recovery.band_project is sg.band_project
        assert experiments.EXPERIMENTS["fig2"] is cli.run_fig2
    finally:
        tr.uninstall()
    assert (sg.band_project, sg.recovery.band_project, experiments.EXPERIMENTS["fig2"]) == originals


def test_determinism_store_flags_a_changed_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = Fake(None, 0, tmp_path)
    assert run.check_determinism(wl, "d" * 64, {0: {"signature": "a"}}) == []
    assert run.check_determinism(wl, "d" * 64, {0: {"signature": "a"}}) == []
    assert run.check_determinism(wl, "d" * 64, {0: {"signature": "b"}}) == ["op 0 signature"]
