"""Config validation and the subgap command line."""

import ast
import copy
import functools
import inspect
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import subgap
from subgap import ConfigError, default_grid, recovery
from subgap.cli import OUTDIR_ENV, SCHEMAS, main, resolve_outdir, validate_config
from subgap.experiments import EXPERIMENTS, SPECS, default_quantum_grid

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

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
    got_kind, kwargs, outdir = validate_config(MINIMAL[kind])
    assert got_kind == kind
    # seed and grid are left to the runner's defaults
    assert "grid" not in kwargs and "seed" not in kwargs and outdir is None
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


def _full(kind):
    """A config setting every spec key to the runner's default, plus seed and
    grid: the report's config echo of the run."""
    params = inspect.signature(EXPERIMENTS[kind]).parameters
    grid = default_quantum_grid() if kind == "quantum_pipeline" else default_grid()
    cfg = {key: params[kw].default for key, (kw, _, _) in SPECS[kind].items()}
    cfg = json.loads(json.dumps(cfg))
    cfg.update(experiment=kind, seed=3)
    cfg["grid"] = {"start": grid.t_start, "step": grid.dt, "n": grid.n}
    return cfg


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_report_echoes_every_spec_key(kind, tmp_path):
    """Every spec key set from the runner's default, written as int literals
    where integral, comes back in the report with numbers as floats."""
    echo = _full(kind)
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
        # T_SN/dt = 16: the copy sum is exact at k_max = 8 and goes no further
        (dict(MINIMAL["sampling"], k_max=9), "k_max"),
        # a tol of 1 or more ran no step and failed three checks
        (dict(MINIMAL["recovery"], tol=1.0), "tol"),
        # T_SN = dt: the gap trimmed by one step was empty, and the error
        # named no field
        (dict(MINIMAL["sampling"], T_SN=0.015625, k_max=1), "field `T_SN`"),
        (dict(MINIMAL["fig2"], T_DS=[0.015625], T_SN=0.015625), "field `T_SN`"),
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


@pytest.mark.parametrize(
    "cfg,field",
    [
        # the fig2 label drops the dot, so 1.5 and 15 both read T15
        (dict(MINIMAL["fig2"], T_DS=[1.5, 15.0, 0.25]), "T_DS"),
        (dict(MINIMAL["bounds_audit"], pairs=[[1.0, 0.25], [1.0, 0.25]]), "pairs"),
        # the key prints 6 significant digits
        (dict(MINIMAL["bounds_audit"], pairs=[[1.0, 0.25], [1 + 1e-7, 0.25]]), "pairs"),
        (dict(MINIMAL["stability"], sigmas=[1e-4, 1e-4]), "sigmas"),
    ],
)
def test_colliding_labels_exit_2(tmp_path, capsys, cfg, field):
    # two values with one label would write one check name twice
    validate_config(cfg)
    assert _run_cfg(tmp_path, cfg) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid config: field `{field}`")
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("kind,field", [("stability", "sigmas"), ("bounds_audit", "pairs")])
def test_a_runner_called_with_an_empty_list_is_rejected(tmp_path, kind, field):
    # only the schemas' minItems kept these away: an empty sigmas passed
    # with no check, and empty pairs died unpacking the CSV columns
    with pytest.raises(ValueError, match=f"field `{field}`: needs at least one value"):
        EXPERIMENTS[kind](tmp_path / "o", **{field: ()})
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize(
    "source",
    [p.name for p in CONFIGS] + [f"default {kind}" for kind in sorted(EXPERIMENTS)],
)
def test_check_names_are_unique(tmp_path, source):
    if source.startswith("default "):
        report = EXPERIMENTS[source.split()[1]](tmp_path)
    else:
        assert main(["run", str(CONFIG_DIR / source), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    names = [check["name"] for check in report["checks"]]
    assert names and len(names) == len(set(names))


@pytest.mark.parametrize("start", [-16.0, -48.0])
def test_sampling_interior_is_centred_on_the_grid(tmp_path, start):
    # the demo signal lives on [-16, 16]; the interior half is taken about
    # the grid's centre, not about t = 0
    grid = {"start": start, "step": 0.015625, "n": 4096}
    assert _run_cfg(tmp_path, dict(MINIMAL["sampling"], grid=grid)) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text(encoding="utf-8"))
    assert report["metrics"]["interior_error"] <= 1e-6


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


def test_grid_the_core_rejects_is_named_and_exits_2(tmp_path, capsys):
    # each field passes its schema, but the span n * step overflows, so
    # TimeGrid rejects the grid and the config names it
    cfg = dict(MINIMAL["recovery"], grid={"start": 0.0, "step": 1e308, "n": 4})
    with pytest.raises(ConfigError, match="`grid`: .*overflows"):
        validate_config(cfg)
    assert _run_cfg(tmp_path, cfg) == 2
    assert capsys.readouterr().err.startswith("error: invalid config: field `grid`")
    assert not (tmp_path / "o").exists()


def test_config_must_be_an_object():
    with pytest.raises(ConfigError):
        validate_config([1, 2, 3])


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({"experiment": "frobnicate"})
    # an unhashable value used to escape as a TypeError from the dict lookup
    with pytest.raises(ConfigError, match="experiment"):
        validate_config({"experiment": ["fig2"]})


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


def _assert_same_outputs(out1, out2):
    """Assert two run directories hold byte-identical artifacts and reports
    that are byte-identical apart from ``wall_time_s``; return the artifact
    names."""
    names = sorted(p.name for p in out1.iterdir() if p.name != "report.json")
    assert names == sorted(p.name for p in out2.iterdir() if p.name != "report.json")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    reports = [json.loads((out / "report.json").read_text()) for out in (out1, out2)]
    for report in reports:
        del report["wall_time_s"]
    # json.dumps tells 2 from 2.0, where == does not
    assert json.dumps(reports[0]) == json.dumps(reports[1])
    return names


#: one config past the limit per kind with a refusal branch
PAST_THE_LIMIT = {
    "recovery": {"T_DS": 1.0},
    "stability": {"T_DS": 0.5},
    "quantum_pipeline": {"X": 1.25},
}
#: one config below the limit per kind compared run to run; sampling sums
#: its copies to the full order, where the sum is exact
BELOW_THE_LIMIT = {
    "fig2": {},
    "sampling": {"k_max": 8},
    **{kind: {} for kind in PAST_THE_LIMIT},
}


@pytest.mark.parametrize(
    "kind,past",
    [pytest.param(kind, False, id=kind) for kind in sorted(BELOW_THE_LIMIT)]
    + [pytest.param(kind, True, id=f"{kind}-past") for kind in sorted(PAST_THE_LIMIT)],
)
def test_runs_are_byte_identical(tmp_path, kind, past):
    # the second run starts with the concentration operator of the first
    # one's last (grid, band, window) still memoised
    overrides = (PAST_THE_LIMIT if past else BELOW_THE_LIMIT)[kind]
    cfg = _write_cfg(tmp_path, dict(MINIMAL[kind], seed=7, **overrides))
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    names = _assert_same_outputs(out1, out2)
    if past:  # a refusing run writes its report alone
        assert names == []
    else:
        assert any(name.endswith(".csv") for name in names), "expected CSV artifacts"


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
    over_strict = property(lambda report: report.wt < 0.5)
    monkeypatch.setattr(recovery.InvertibilityReport, "wt_ok", over_strict)
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


def test_failed_check_is_printed_and_exits_1(tmp_path, capsys, monkeypatch):
    # the same over-strict guard, through the command line
    over_strict = property(lambda report: report.wt < 0.5)
    monkeypatch.setattr(recovery.InvertibilityReport, "wt_ok", over_strict)
    assert _run_cfg(tmp_path, MINIMAL["recovery"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] refusal_consistent_with_limit: value={" in out
    assert "CHECKS FAILED; report in" in out


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


#: the JSON Schema keywords the CLI's walker reads, and the types it knows
WALKER_KEYWORDS = {
    "type", "const", "properties", "required", "additionalProperties",
    "minimum", "exclusiveMinimum", "multipleOf",
    "items", "minItems", "maxItems", "uniqueItems",
}
WALKER_TYPES = {"object", "array", "string", "number", "integer"}
#: every shipped config, every MINIMAL config and one setting every key
BASES = {
    **{f"configs/{path.name}": json.loads(path.read_text()) for path in CONFIGS},
    **{f"minimal-{kind}": cfg for kind, cfg in MINIMAL.items()},
    **{f"full-{kind}": dict(_full(kind), outdir="out") for kind in SPECS},
}
_MISSING = object()


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_schemas_use_only_the_walkers_keywords():
    subs = [sub for schema in SCHEMAS.values() for sub in _subschemas(schema)]
    assert {keyword for sub in subs for keyword in sub} <= WALKER_KEYWORDS
    assert {sub["type"] for sub in subs if "type" in sub} <= WALKER_TYPES
    closed = {sub["additionalProperties"] for sub in subs if "additionalProperties" in sub}
    assert closed == {False}


def _faults(schema, value, path=()):
    """(path, replacement) for single faults of the valid ``value``, and for
    a few valid variants; a replacement of _MISSING deletes the key."""
    kind = schema.get("type")
    if path:
        yield path, True
        yield path, 1 if kind == "string" else "x"
    if kind in ("number", "integer"):
        for bad in (0, -1, float(value), value + 0.5, math.nan, math.inf, -math.inf):
            yield path, bad
    if "multipleOf" in schema:
        yield path, value + 1
    if kind == "object":
        for key in schema["required"]:
            yield (*path, key), _MISSING
        yield (*path, "bogus"), 1
        for key, item in value.items():
            yield from _faults(schema["properties"][key], item, (*path, key))
    if kind == "array":
        # empty; one item short; one item repeated, so also one too many
        for bad in ([], value[:-1], value + value[:1]):
            yield path, bad
        for i, item in enumerate(value):
            yield from _faults(schema["items"], item, (*path, i))


def _mutated(cfg, path, new):
    cfg = copy.deepcopy(cfg)
    *head, last = path
    node = functools.reduce(operator.getitem, head, cfg)
    if new is _MISSING:
        del node[last]
    else:
        node[last] = new
    return cfg


def _walker_path(cfg):
    """The field path validate_config names, [] for none; None if it accepts."""
    try:
        validate_config(cfg)
    except ConfigError as exc:
        named = re.match(r"field `([^`]*)`", str(exc))
        return named.group(1).split(".") if named else []
    return None


@pytest.mark.parametrize("name", sorted(BASES))
def test_walker_agrees_with_jsonschema(name):
    """jsonschema is the oracle: the same verdict on every single fault, and
    a field path that extends jsonschema's; only NaN and +-Infinity, which
    JSON Schema counts as numbers, are rejected by the walker alone."""
    base = BASES[name]
    schema = SCHEMAS[base["experiment"]]
    oracle = jsonschema.validators.validator_for(schema)(schema)
    verdicts = []
    for path, new in [((), None), *_faults(schema, base)]:
        cfg = base if not path else _mutated(base, path, new)
        error = jsonschema.exceptions.best_match(oracle.iter_errors(cfg))
        got = _walker_path(cfg)
        case = (path, new)
        if isinstance(new, float) and not math.isfinite(new):
            assert got == [str(p) for p in path], case
            continue
        if error is None:
            assert got is None, case
        else:
            expected = [str(p) for p in error.absolute_path]
            assert got is not None and got[: len(expected)] == expected, case
        verdicts.append(error is None)
    assert verdicts[0] and verdicts.count(False) >= 10 and verdicts.count(True) >= 2


#: every integer-typed key of SPECS, plus seed and grid.n
INTEGER_FIELDS = [
    (kind, (key,))
    for kind, spec in sorted(SPECS.items())
    for key, (_, schema, _) in spec.items()
    if schema["type"] == "integer"
] + [("quantum_pipeline", ("seed",)), ("sampling", ("grid", "n"))]


@pytest.mark.parametrize(
    "kind,path", INTEGER_FIELDS, ids=[f"{k}-{'.'.join(p)}" for k, p in INTEGER_FIELDS]
)
def test_integral_float_runs_as_its_integer(tmp_path, kind, path):
    # JSON Schema counts 16.0 as an integer; the runner must get the int 16,
    # where rng.uniform and range() used to raise TypeError
    cfg = _full(kind)
    value = functools.reduce(operator.getitem, path, cfg)
    assert isinstance(value, int)
    outs = []
    for literal in (value, float(value)):
        written = _write_cfg(tmp_path, _mutated(cfg, path, literal), f"{literal!r}.json")
        outs.append(tmp_path / repr(literal))
        assert main(["run", str(written), "--out", str(outs[-1])]) == 0
    _assert_same_outputs(*outs)


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "recovery", "W": 2, "T_DS": 1},
        {"experiment": "quantum_pipeline", "P": 1, "X": 1},
    ],
    ids=["recovery", "quantum_pipeline"],
)
def test_integral_number_runs_as_its_float(tmp_path, cfg):
    # JSON Schema counts 2 and 2.0 as one number, so the runner must get the
    # float 2.0: the int 2 used to reach the report as "WT": 2 (or "XP": 1)
    # in the metrics and the refusal check, where 2.0 wrote "WT": 2.0
    outs = []
    for spelling in (cfg, {k: float(v) if isinstance(v, int) else v for k, v in cfg.items()}):
        outs.append(tmp_path / str(len(outs)))
        written = _write_cfg(tmp_path, spelling, f"{len(outs)}.json")
        assert main(["run", str(written), "--out", str(outs[-1])]) == 0
    _assert_same_outputs(*outs)


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_seed_flag_meets_the_seed_schema(tmp_path, capsys, kind):
    # one rule for the flag and the field: stability used to exit 2 with
    # numpy's message and recovery to write "seed": -1 into its report
    out = tmp_path / "o"
    argv = ["run", str(_write_cfg(tmp_path, MINIMAL[kind])), "--out", str(out)]
    assert main([*argv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: field `seed`: -1 is less than"), err
    assert not out.exists()


def test_runtime_imports_numpy_and_the_standard_library_only():
    src = Path(subgap.__file__).resolve().parent
    code = "import sys, subgap.cli; print('jsonschema' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.strip() == "False"
    allowed = set(sys.stdlib_module_names) | {"numpy", "subgap"}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert {name.split(".")[0] for name in names} <= allowed, (path.name, names)
