"""Every tracked config under configs/ runs through `subgap run` and passes.

Each config is the runnable example of one of the paper's claims; the
README's "Worked examples" section names the checks that carry it.
"""

import json
from pathlib import Path

from subgap.cli import main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_every_config_runs_and_passes(tmp_path, capsys):
    # an empty or moved directory must fail, not pass vacuously
    assert len(CONFIGS) >= 5
    checks = {}
    for path in CONFIGS:
        out = tmp_path / path.stem
        assert main(["run", str(path), "--out", str(out)]) == 0, capsys.readouterr()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["passed"] is True, path.name
        checks[path.stem] = {check["name"] for check in report["checks"]}
    # past the limit the run passes by refusing, not by recovering
    assert checks["refusal_past_the_limit"] == {"refusal_consistent_with_limit"}
