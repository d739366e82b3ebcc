"""Config validation and the subgap command line."""

import dataclasses
import inspect
import json
import math
from pathlib import Path

import jsonschema
import pytest

from subgap import ConfigError, default_grid, recovery
from subgap.cli import OUTDIR_ENV, SCHEMAS, main, resolve_outdir, validate_config
from subgap.experiments import EXPERIMENTS, SPECS, default_quantum_grid

MINIMAL = {
    "fig2": {"experiment": "fig2", "W": 2.0, "T_DS": [1.0, 0.25], "T_SN": 0.25},
    "bounds_audit": {"experiment": "bounds_audit", "pairs": [[1.6, 0.0625]]},
    "recovery": {"experiment": "recovery", "W": 2.0, "T_DS": 0.25},
    "stability": {"experiment": "stability", "W": 2.0, "T_DS": 0.25},
    "sampling": {"experiment": "sampling", "W": 2.0, "T_SN": 0.25},
    "quantum_pipeline": {"experiment": "quantum_pipeline", "P": 1.0, "X": 0.5},
}


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_minimal_config_validates(kind):
    got_kind, kwargs, grid, seed, outdir = validate_config(MINIMAL[kind])
    assert got_kind == kind
    assert grid is None and seed == 0 and outdir is None
    if "W" in MINIMAL[kind]:
        assert kwargs["w"] == 2.0


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _run_cfg(tmp_path, cfg):
    return main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_every_schema_is_valid(kind):
    schema = SCHEMAS[kind]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_spec_keywords_are_runner_parameters(kind):
    assert set(SPECS) == set(EXPERIMENTS) == set(SCHEMAS)
    params = inspect.signature(EXPERIMENTS[kind]).parameters
    keywords = {kw for kw, _, _ in SPECS[kind].values()}
    assert keywords | {"outdir", "grid", "seed"} == set(params)
    assert params["seed"].default == 0


def _int_literals(value):
    """The JSON a user might write: integral floats without a decimal point."""
    if isinstance(value, dict):
        return {k: _int_literals(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_int_literals(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_report_echoes_every_spec_key(kind, tmp_path):
    """Every spec key set from the runner's default, written as int literals
    where integral, comes back in the report with numbers as floats."""
    params = inspect.signature(EXPERIMENTS[kind]).parameters
    grid = default_quantum_grid() if kind == "quantum_pipeline" else default_grid()
    echo = {key: params[kw].default for key, (kw, _, _) in SPECS[kind].items()}
    echo = json.loads(json.dumps(echo))
    echo.update(experiment=kind, seed=3)
    echo["grid"] = {"start": grid.t_start, "step": grid.dt, "n": grid.n}
    cfg = dict(_int_literals(echo), outdir=str(tmp_path / "out"))
    assert main(["run", str(_write_cfg(tmp_path, cfg))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # json.dumps tells 2 from 2.0, so this also checks the float echo
    assert json.dumps(report["config"], sort_keys=True) == json.dumps(
        echo, sort_keys=True
    )


@pytest.mark.parametrize(
    "cfg,field",
    [
        (dict(MINIMAL["fig2"], k_max=0), "k_max"),
        (dict(MINIMAL["sampling"], k_max=0), "k_max"),
        (dict(MINIMAL["fig2"], T_DS=[0.25, 0.25]), "T_DS"),
        (dict(MINIMAL["stability"], sigmas=[0.0, 0.001]), "sigmas.0"),
    ],
)
def test_degenerate_config_is_rejected(tmp_path, capsys, cfg, field):
    with pytest.raises(ConfigError, match=f"`{field}`"):
        validate_config(cfg)
    assert _run_cfg(tmp_path, cfg) == 2
    assert f"`{field}`" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg,field",
    [
        # json.loads reads NaN, Infinity and -Infinity as floats, which pass
        # every number schema: these crashed in the runner or named no field
        (dict(MINIMAL["quantum_pipeline"], t_max=float("inf")), "t_max"),
        (dict(MINIMAL["sampling"], T_SN=float("nan")), "T_SN"),
        (dict(MINIMAL["recovery"], grid={"start": -1.0, "step": math.inf, "n": 64}), "grid.step"),
        (dict(MINIMAL["fig2"], T_DS=[1.0, -math.inf]), "T_DS.1"),
    ],
)
def test_non_finite_number_is_rejected_with_its_field(tmp_path, capsys, cfg, field):
    with pytest.raises(ConfigError, match=f"`{field}`: must be a finite number"):
        validate_config(cfg)
    path = _write_cfg(tmp_path, cfg)
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid config: field `{field}`")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "cfg,message",
    [
        (dict(MINIMAL["recovery"], W=200.0), "Nyquist"),
        (dict(MINIMAL["recovery"], T_DS=100.0), "outside the grid"),
        (dict(MINIMAL["quantum_pipeline"], P=20.0), "Nyquist"),
        (
            dict(MINIMAL["quantum_pipeline"], P=2.0, X=0.25, n_x=20, n_t=12),
            "M^2 = 256",
        ),
        (dict(MINIMAL["sampling"], T_SN=0.3), "multiple"),
    ],
)
def test_config_that_does_not_fit_the_grid_exits_2(tmp_path, capsys, cfg, message):
    assert _run_cfg(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config:") and message in err


def test_fig2_without_the_copy_sum_case_exits_2(tmp_path, capsys):
    # no T_DS equals T_SN: the copy-sum check would silently vanish
    cfg = dict(MINIMAL["fig2"], T_DS=[1.0, 0.5])
    validate_config(cfg)
    assert _run_cfg(tmp_path, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: field `T_DS`")
    assert not (tmp_path / "o" / "report.json").exists()


def test_missing_field_is_named():
    cfg = {"experiment": "recovery", "T_DS": 0.25}
    with pytest.raises(ConfigError, match="W"):
        validate_config(cfg)


def test_unknown_key_rejected():
    cfg = dict(MINIMAL["recovery"], bogus=1)
    with pytest.raises(ConfigError, match="bogus"):
        validate_config(cfg)


def test_bad_grid_is_named():
    cfg = dict(MINIMAL["sampling"], grid={"start": -1.0, "step": 0.25, "n": 7})
    with pytest.raises(ConfigError, match="grid"):
        validate_config(cfg)


def test_config_must_be_an_object():
    with pytest.raises(ConfigError):
        validate_config([1, 2, 3])


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({"experiment": "frobnicate"})


def test_wrong_type_rejected():
    cfg = dict(MINIMAL["recovery"], W="two")
    with pytest.raises(ConfigError, match="W"):
        validate_config(cfg)


def test_outdir_precedence(monkeypatch, tmp_path):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env"))
    assert resolve_outdir("cli", "cfg") == Path("cli")
    assert resolve_outdir(None, "cfg") == Path("cfg")
    assert resolve_outdir(None, None) == tmp_path / "env"
    monkeypatch.delenv(OUTDIR_ENV)
    assert resolve_outdir(None, None) == Path("out")


def test_run_reports_and_exits_zero(tmp_path):
    cfg = _write_cfg(tmp_path, dict(MINIMAL["quantum_pipeline"], seed=7))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert report["experiment"] == "quantum_pipeline"
    tomo = json.loads((out / "tomography.json").read_text())
    assert set(tomo) >= {"condition_number", "residual", "rank_gap", "fidelity"}


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path, dict(MINIMAL["quantum_pipeline"], seed=7))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--seed", "123"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 123


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_run_names_missing_field_on_stderr(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"experiment": "recovery", "T_DS": 0.25})
    assert main(["run", str(cfg)]) == 2
    assert "W" in capsys.readouterr().err


def test_outdir_env_variable_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
    cfg = _write_cfg(tmp_path, dict(MINIMAL["quantum_pipeline"], seed=7))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_fig2_subcommand_and_column_names(tmp_path):
    out = tmp_path / "fig2"
    assert main(["fig2", "--out", str(out)]) == 0
    header = (out / "fig2.csv").read_text().split("\n")[0]
    assert header == (
        "w,s_hat,s_hat_im,pwr_hat_T1,pwr_hat_T1_im,pwr_hat_T025,"
        "pwr_hat_T025_im,pwr_hat_T0015625,pwr_hat_T0015625_im,"
        "recovered_k2,recovered_k2_im"
    )
    assert (out / "fig2.svg").exists()


def test_audit_subcommand_and_column_names(tmp_path):
    out = tmp_path / "audit"
    assert main(["audit", "--out", str(out)]) == 0
    lines = (out / "bounds_audit.csv").read_text().strip().split("\n")
    assert lines[0] == "W,T,WT,lambda0,conc_ratio,spill_ratio,pass"
    assert len(lines) == 5
    assert all(line.endswith(",1") for line in lines[1:])


#: one config past the limit per kind with a refusal branch
PAST_THE_LIMIT = {
    "recovery": {"T_DS": 1.0},
    "stability": {"T_DS": 0.5},
    "quantum_pipeline": {"X": 1.25},
}


@pytest.mark.parametrize(
    "kind,past",
    [pytest.param(kind, False, id=kind) for kind in sorted(PAST_THE_LIMIT)]
    + [pytest.param(kind, True, id=f"{kind}-past") for kind in sorted(PAST_THE_LIMIT)],
)
def test_runs_are_byte_identical(tmp_path, kind, past):
    # the second run starts with the concentration operator of the first
    # one's last (grid, band, window) still memoised
    overrides = PAST_THE_LIMIT[kind] if past else {}
    cfg = _write_cfg(tmp_path, dict(MINIMAL[kind], seed=7, **overrides))
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir() if p.name != "report.json")
    if past:  # a refusing run writes its report alone
        assert names == []
    else:
        assert any(name.endswith(".csv") for name in names), "expected CSV artifacts"
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    reports = [json.loads((out / "report.json").read_text()) for out in (out1, out2)]
    for report in reports:
        del report["wall_time_s"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "cfg,stage",
    [
        ({"experiment": "stability", "W": 2.0, "T_DS": 0.5}, "sweep"),
        ({"experiment": "quantum_pipeline", "P": 1.0, "X": 1.25}, "state recovery"),
    ],
)
def test_run_past_the_limit_records_the_refusal(tmp_path, cfg, stage):
    out = tmp_path / "out"
    assert main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    refusal = [c for c in report["checks"] if c["name"] == "refusal_consistent_with_limit"]
    assert len(refusal) == 1 and refusal[0]["passed"]
    assert stage in refusal[0]["threshold"]


def test_refusal_below_the_limit_fails_the_run(tmp_path, monkeypatch):
    # a guard that refuses at WT = 0.5 must not pass its own check: the
    # check compares the run's own W*T (X*P) with 1, not the guard's verdict
    real_report = recovery._report

    def over_strict(band, window, lam):
        rep = real_report(band, window, lam)
        if rep.wt < 0.5:
            return rep
        return dataclasses.replace(rep, wt_ok=False, invertible=False)

    monkeypatch.setattr(recovery, "_report", over_strict)
    runs = {
        "recovery": dict(w=2.0, t_ds=0.25),
        "stability": dict(w=2.0, t_ds=0.25),
        "quantum_pipeline": dict(p=1.0, x=0.5),
    }
    for kind, params in runs.items():
        got = EXPERIMENTS[kind](tmp_path / kind, **params)
        assert got["passed"] is False, kind
        check = [c for c in got["checks"] if c["name"] == "refusal_consistent_with_limit"]
        assert len(check) == 1 and check[0]["passed"] is False, kind


def test_direct_solve_runs_with_more_than_4096_in_band_bins(tmp_path):
    # M = 4915 in-band bins but K = 1 gated sample: the direct solve is 1 x 1
    cfg = {
        "experiment": "recovery",
        "W": 38.4,
        "T_DS": 0.015625,
        "grid": {"start": -64.0, "step": 0.015625, "n": 8192},
    }
    out = tmp_path / "out"
    assert main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert "series_matches_direct_solve" in {c["name"] for c in report["checks"]}
