"""Command line front end.

Three subcommands::

    subgap run <config.json> [--out DIR] [--seed N]
    subgap fig2 [--out DIR]
    subgap audit [--out DIR]

``run`` executes the experiment named in a strictly validated JSON config,
whose schema is built from ``experiments.SPECS``; ``fig2`` and ``audit``
are shortcuts for the two headline runs with their built-in default
configs.  The config is checked in one walk over its schema, which reads
the JSON Schema keywords ``type`` (object, array, string, number,
integer), ``const``, ``properties``, ``required``, ``additionalProperties:
false``, ``minimum``, ``exclusiveMinimum``, ``multipleOf``, ``items``,
``minItems``, ``maxItems`` and ``uniqueItems`` by JSON Schema's rules: a
bool is no number, and an integral float such as ``2.0`` is an integer,
which reaches the runner as the int ``2``.  ``--seed`` is checked against
the config's ``seed`` schema.  The output directory is resolved in order
from ``--out``, the config's ``outdir`` field, the ``SUBGAP_OUTDIR``
environment variable, and finally ``./out``.  Exit status is 0 when every
check in the run's report passed and 1 when one failed.  A config error
exits with status 2 and a diagnostic: the field the schema rejects or that
is NaN or infinite, or the runner's ``ValueError`` for a config that does
not fit the grid (a band past Nyquist, a window outside the grid, a
sampling period off its lattice, a copy order ``k_max`` past T_SN/(2 dt), a
grid without t = 0 as a point in ``sampling`` or ``fig2``, fewer tomography
samples than M^2), in ``fig2``, a ``T_DS`` list without ``T_SN``, or values
that would share a check name (``T_DS`` labels, ``bounds_audit`` pairs or
``stability`` sigmas).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .core import TimeGrid
from .errors import ConfigError
from .experiments import EXPERIMENTS, SPECS, run_bounds_audit, run_fig2

__all__ = ["OUTDIR_ENV", "SCHEMAS", "validate_config", "resolve_outdir", "main"]

OUTDIR_ENV = "SUBGAP_OUTDIR"

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "start": {"type": "number"},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "n": {"type": "integer", "minimum": 2, "multipleOf": 2},
    },
    "required": ["start", "step", "n"],
    "additionalProperties": False,
}

_COMMON = {
    "seed": {"type": "integer", "minimum": 0},
    "outdir": {"type": "string"},
    "grid": _GRID_SCHEMA,
}

#: one strict schema per experiment kind, built from its spec; unknown keys
#: are rejected
SCHEMAS = {
    kind: {
        "type": "object",
        "properties": {
            "experiment": {"const": kind},
            **_COMMON,
            **{key: schema for key, (_, schema, _) in spec.items()},
        },
        "required": ["experiment", *(key for key, (*_, req) in spec.items() if req)],
        "additionalProperties": False,
    }
    for kind, spec in SPECS.items()
}


def _fail(path, message):
    loc = ".".join(str(p) for p in path)
    raise ConfigError(f"field `{loc}`: {message}" if loc else message)


def _has_type(value, kind):
    """JSON Schema's ``type``: a bool is no number, and 2.0 is an integer."""
    if kind in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return kind == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, {"object": dict, "array": list, "string": str}[kind])


def _walk(schema, value, path=()):
    """``value`` checked against ``schema``, with integer-typed values as int.

    Raises ConfigError naming the dotted path of the first field rejected;
    NaN and +-Infinity are rejected wherever they appear.
    """
    if isinstance(value, float) and not math.isfinite(value):
        _fail(path, f"must be a finite number, got {value}")
    kind = schema.get("type")
    if kind is not None and not _has_type(value, kind):
        _fail(path, f"{value!r} is not of type {kind!r}")
    if "const" in schema and value != schema["const"]:
        _fail(path, f"{schema['const']!r} was expected")
    if "minimum" in schema and value < schema["minimum"]:
        _fail(path, f"{value!r} is less than the minimum of {schema['minimum']!r}")
    if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
        bound = schema["exclusiveMinimum"]
        _fail(path, f"{value!r} is less than or equal to the minimum of {bound!r}")
    if "multipleOf" in schema and value % schema["multipleOf"]:
        _fail(path, f"{value!r} is not a multiple of {schema['multipleOf']!r}")
    if kind == "integer":
        return int(value)
    if kind == "object":
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                _fail(path, f"{key!r} is a required property")
        extra = [key for key in value if key not in props]
        if extra and schema.get("additionalProperties") is False:
            _fail(path, f"Additional properties are not allowed ({extra[0]!r} was unexpected)")
        return {
            key: _walk(props[key], item, (*path, key)) if key in props else item
            for key, item in value.items()
        }
    if kind == "array":
        if len(value) < schema.get("minItems", 0):
            _fail(path, f"{value!r} is too short")
        if len(value) > schema.get("maxItems", math.inf):
            _fail(path, f"{value!r} is too long")
        items = schema.get("items", {})
        value = [_walk(items, item, (*path, i)) for i, item in enumerate(value)]
        if schema.get("uniqueItems") and any(
            item in value[i + 1 :] for i, item in enumerate(value)
        ):
            _fail(path, f"{value!r} has non-unique elements")
    return value


def validate_config(cfg):
    """Validate a parsed config and translate it to runner arguments.

    Returns (experiment kind, runner kwargs, grid or None, seed, outdir or
    None), integer fields as int.  Raises :class:`ConfigError` with the
    offending field named.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    kind = cfg.get("experiment")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise ConfigError(
            f"field `experiment` must be one of {sorted(SCHEMAS)}, got {kind!r}"
        )
    cfg = _walk(SCHEMAS[kind], cfg)
    kwargs = {kw: cfg[key] for key, (kw, *_) in SPECS[kind].items() if key in cfg}
    grid = None
    if "grid" in cfg:
        g = cfg["grid"]
        try:
            grid = TimeGrid(float(g["start"]), float(g["step"]), g["n"])
        except ValueError as exc:
            raise ConfigError(f"field `grid`: {exc}") from exc
    return kind, kwargs, grid, cfg.get("seed", 0), cfg.get("outdir")


def resolve_outdir(cli_out, cfg_out=None) -> Path:
    """--out beats the config's outdir beats $SUBGAP_OUTDIR beats ./out."""
    if cli_out is not None:
        return Path(cli_out)
    if cfg_out:
        return Path(cfg_out)
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return Path(env)
    return Path("out")


def _print_report(report, outdir):
    for check in report["checks"]:
        if check["passed"]:
            print(f"[PASS] {check['name']}")
        else:
            print(
                f"[FAIL] {check['name']}: value={check['value']!r} "
                f"threshold={check['threshold']!r}"
            )
    verdict = "all checks passed" if report["passed"] else "CHECKS FAILED"
    print(f"{verdict}; report in {Path(outdir) / 'report.json'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subgap",
        description="recovery of bandlimited signals and momentum-limited "
        "states from gaps below the uncertainty limit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the experiment in a JSON config")
    p_run.add_argument("config", type=Path, help="path to the config file")
    p_run.add_argument("--out", type=Path, default=None, help="output directory")
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    p_fig2 = sub.add_parser(
        "fig2", help="gapped-band restriction and copy recovery, default config"
    )
    p_fig2.add_argument("--out", type=Path, default=None, help="output directory")
    p_audit = sub.add_parser(
        "audit", help="concentration-bound audit over the standard sweep"
    )
    p_audit.add_argument("--out", type=Path, default=None, help="output directory")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        try:
            kind, kwargs, grid, seed, cfg_out = validate_config(cfg)
            if args.seed is not None:
                seed = _walk(_COMMON["seed"], args.seed, ("seed",))
        except ConfigError as exc:
            print(f"error: invalid config: {exc}", file=sys.stderr)
            return 2
        outdir = resolve_outdir(args.out, cfg_out)
        try:
            report = EXPERIMENTS[kind](outdir, seed=seed, grid=grid, **kwargs)
        except ValueError as exc:
            print(f"error: invalid config: {exc}", file=sys.stderr)
            return 2
    elif args.command == "fig2":
        outdir = resolve_outdir(args.out)
        report = run_fig2(outdir)
    else:
        outdir = resolve_outdir(args.out)
        report = run_bounds_audit(outdir)

    _print_report(report, outdir)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
