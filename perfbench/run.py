"""The subgap benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/`` and nowhere else.  ``--trace 0`` times the
operation loop and prints the end-to-end metrics; ``--trace 1`` times the
same loop untraced, replays the same operations with every public subgap
function wrapped (see ``tracing.py``), and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, sample counts, every traced function) goes to
``.bench_out/results/``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh processes timed per run: set-up probes (setup_s, and cli.import_s
#: in traced runs) and, on cli_runs only, cold CLI runs (cli_cold_s)
SETUP_PROBES = 5
COLD_RUNS = 5

#: the tail latency quantile.  Runs are whole rounds, so the operation at
#: this rank falls in the same size class whatever the number of rounds a
#: run completes (see README.md)
TAIL_Q = 0.9

#: seconds any one child process may take
CHILD_TIMEOUT = 120

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "max_rel_error_digits": "digits",
}

#: measured and printed with the end-to-end metrics, but not bounded: their
#: run-to-run spread on a shared host is too wide (cli_cold_s, cli_runs
#: only), or they are 0 or rounding-level on most workloads (see README.md)
REPORTED = {
    "cli_cold_s": "s",
    "failed_ratio": "ratio",
    "max_rel_error": "ratio",
}

_STAT_UNITS = {
    "calls": "calls/op", "self_s": "s/op", "busy_s": "s/op",
    "iterations": "iter/op", "bytes_computed": "B/op", "bytes_written": "B/op",
    "design_cells": "cells/op",
}

#: per-layer metrics: <module>.<function>.<stat>, per traced operation
PER_LAYER = {}
for _fn, _stats in [
    ("core.forward_spectrum", "calls self_s busy_s"),
    ("core.inverse_signal", "calls self_s busy_s"),
    ("projections.band_project", "calls self_s busy_s"),
    ("projections.time_gate", "calls self_s busy_s"),
    ("projections.operator_norm_sq", "calls"),
    ("projections.prolate_matrix", "calls self_s bytes_computed"),
    ("recovery.recover_neumann", "iterations"),
    ("recovery.recover_band_neumann", "iterations"),
    ("recovery.invertibility_report", "busy_s"),
    ("recovery.recover_direct", "busy_s self_s"),
    ("sampling.sinc_reconstruct", "calls self_s busy_s bytes_computed"),
    ("sampling.periodized_spectrum", "calls self_s busy_s bytes_computed"),
    ("sampling.integral_equation_residual", "calls self_s busy_s bytes_computed"),
    ("sampling.spectral_copy_recover", "calls self_s busy_s"),
    ("quantum.tomography_solve", "calls self_s design_cells"),
    ("quantum.evolve_diagonal_series", "calls self_s busy_s"),
    ("quantum.recover_state", "busy_s"),
    ("quantum.momentum_limit", "calls"),
    ("io.write_csv", "calls self_s bytes_written"),
    ("io.write_svg_lines", "self_s"),
    ("io.write_json", "self_s"),
    ("io.format_cell", "calls"),
    ("experiments.run_fig2", "busy_s"),
    ("experiments.run_bounds_audit", "busy_s"),
    ("experiments.run_recovery", "busy_s"),
    ("experiments.run_stability", "busy_s"),
    ("experiments.run_sampling", "busy_s"),
    ("experiments.run_quantum_pipeline", "busy_s"),
    ("cli.validate_config", "busy_s"),
    ("cli.main", "busy_s"),
]:
    for _stat in _stats.split():
        PER_LAYER[f"{_fn}.{_stat}"] = _STAT_UNITS[_stat]
PER_LAYER.update({
    "recovery.operator_applications": "calls/op",
    "recovery.solver_calls": "calls/op",
    "recovery.lambda0_evals_per_solve": "ratio",
    "recovery.refusals": "count/op",
    "cli.import_s": "s",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
})


class BenchError(Exception):
    """The benchmark cannot run here (no sources, a probe failed, ...)."""


# -- environment ------------------------------------------------------------


def import_subgap():
    """Import subgap from this checkout's src/, or raise BenchError."""
    if not (SRC / "subgap" / "__init__.py").is_file():
        raise BenchError(f"no subgap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import subgap

    if not Path(subgap.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"subgap imported from {subgap.__file__}, not from {SRC}")
    return subgap


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.glob("subgap/*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getter = getattr(handle, sym)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(args, wl, digest):
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": digest,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": wl.name,
        "seed": args.seed,
        "ops_in_list": len(wl.ops),
        "round_size": wl.round_size,
    }


# -- setup ------------------------------------------------------------------


def setup(name, seed, tmp):
    """Import, generate the inputs, run one untimed warm-up operation."""
    sg = import_subgap()
    import workloads

    wl = workloads.WORKLOADS[name](sg, seed, tmp)
    wl.check(wl.warmup, wl.execute(wl.warmup))
    return sg, wl


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def probe_setup(name, seed):
    """Wall time from spawning a fresh process to its 'ready' line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT)
    if line.strip() != "ready" or rc != 0:
        raise BenchError(f"setup probe failed (exit {rc}, said {line!r})")
    return ready


def cold_import():
    """Wall time of importing subgap.cli in a fresh process."""
    code = ("import time; t = time.perf_counter(); import subgap.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=False, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("importing subgap.cli failed")
    return float(proc.stdout)


def cold_cli(cfg, tmp, i):
    """Wall time of one fresh `python -m subgap.cli run` process."""
    path = tmp / f"cold{i}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    cmd = [sys.executable, "-m", "subgap.cli", "run", str(path), "--out", str(tmp / f"cold{i}")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, check=False,
                          timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"cold CLI run failed (exit {proc.returncode}): {cfg}")
    return wall


# -- the operation loop -----------------------------------------------------


def run_ops(wl, ids, tracer=None):
    """Run the given operations; return [(id, latency_s, Outcome)]."""
    import workloads

    rows = []
    for i in ids:
        op = wl.ops[i % len(wl.ops)]
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(i, wl.execute, op) if tracer else wl.execute(op)
        except Exception as exc:
            lat = time.perf_counter() - t0
            out = workloads.Outcome(False, False, note=f"{type(exc).__name__}: {exc}")
        else:
            lat = time.perf_counter() - t0
            try:
                out = wl.check(op, result)
            except Exception as exc:
                out = workloads.Outcome(False, True, note=f"check raised {type(exc).__name__}: {exc}")
        rows.append((i, lat, out))
    return rows


def run_for(wl, seconds, side=()):
    """Whole rounds, in list order, until the timed seconds reach ``seconds``.

    ``side`` holds untimed measurements (fresh-process probes) that are run
    between rounds, spread evenly over the run, so that they see the same
    mix of machine conditions as the loop does.  Returns (rows, side results).
    """
    rows, done = [], []
    busy = 0.0
    r = 0
    while busy < seconds or len(done) < len(side):
        if busy < seconds:
            ids = range(r * wl.round_size, (r + 1) * wl.round_size)
            new = run_ops(wl, ids)
            busy += sum(lat for _, lat, _ in new)
            rows += new
            r += 1
        while len(done) < len(side) and (
            busy >= seconds or busy >= seconds * (len(done) + 1) / (len(side) + 1)
        ):
            done.append(side[len(done)]())
    return rows, done


def tally(rows):
    """(failed rows, wrong rows): every non-success fails; ``wrong`` also
    marks a result that came back and failed its check."""
    return [r for r in rows if not r[2].ok], [r for r in rows if r[2].wrong]


def nearest_rank(q, n):
    """1-based nearest rank of quantile q among n sorted values."""
    return max(1, math.ceil(q * n))


# -- determinism ------------------------------------------------------------


def check_determinism(wl, digest, per_op):
    """Compare per-operation digests with earlier runs of the same list and code.

    ``per_op`` maps list index -> {kind: digest}.  Returns a list of
    mismatches; records new entries under .bench_out/determinism/.
    """
    store = OUT / "determinism" / f"{wl.name}-seed{wl.seed}-{len(wl.ops)}-{digest[:16]}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    mismatches = []
    for op, kinds in per_op.items():
        entry = known.setdefault(str(op), {})
        for kind, value in kinds.items():
            if value is None:
                continue
            if entry.setdefault(kind, value) != value:
                mismatches.append(f"op {op} {kind}")
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(store)
    return mismatches


def note_digest(per_op, mismatches, key, kind, value):
    """Record one digest for list entry ``key``; a repeat must match exactly."""
    if value is not None and per_op.setdefault(key, {}).setdefault(kind, value) != value:
        mismatches.append(f"op {key} {kind} (within run)")


def collect_digests(wl, rows, per_op, mismatches):
    for i, _, out in rows:
        for kind in ("signature", "artifacts"):
            note_digest(per_op, mismatches, i % len(wl.ops), kind, getattr(out, kind))


# -- metrics ----------------------------------------------------------------


def side_measurements(args, wl, tmp):
    """Setup probes and, on cli_runs, cold CLI runs, alternating, as
    zero-argument calls."""
    probes = [lambda: ("setup", probe_setup(wl.name, args.seed))] * SETUP_PROBES
    colds = []
    if wl.name == "cli_runs":
        colds = [lambda i=i: ("cold", cold_cli(wl.cold_config(), tmp, i))
                 for i in range(COLD_RUNS)]
    mixed = []
    while probes or colds:
        for queue in (colds, probes):
            if queue:
                mixed.append(queue.pop(0))
    return mixed


def end_to_end(wl, rows, side):
    lat = [r[1] for r in rows]
    ranked = sorted(lat)
    n = len(rows)
    ok = sum(1 for r in rows if r[2].ok)
    tail = nearest_rank(TAIL_Q, n)
    errors = [r[2].error for r in rows if r[2].ok and r[2].error is not None]
    max_err = max(errors) if errors else None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [v for kind, v in side if kind == "setup"]
    colds = [v for kind, v in side if kind == "cold"]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(lat),
        "op_p50_s": ranked[nearest_rank(0.5, n) - 1],
        "op_p90_s": ranked[tail - 1],
        "success_ratio": ok / n,
        "peak_rss_mb": peak_kb / 1024.0,
        "max_rel_error_digits": -math.log10(max(max_err, 1e-300)) if max_err is not None else 0.0,
    }
    reported = {"cli_cold_s": statistics.median(colds)} if colds else {}
    reported.update({"failed_ratio": (n - ok) / n, "max_rel_error": max_err})
    detail = {
        "samples": {"ops": n, "op_p90_s_quantile": TAIL_Q, "ops_beyond_p90": n - tail,
                    "setup_probes": setups, "cold_runs": colds},
        "latencies": [[i, wl.label(wl.ops[i % len(wl.ops)]), lat] for i, lat, _ in rows],
        "reported": reported,
        "loop_busy_s": sum(lat),
    }
    return values, detail


def per_layer(tracer, n_ops, overhead, import_s):
    busy, self_s = tracer.span_times()
    totals = tracer.totals()
    values = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if stat == "busy_s":
            values[name] = busy[fn] / n_ops
        elif stat == "self_s":
            values[name] = self_s[fn] / n_ops
        else:
            values[name] = totals[name] / n_ops
    solves = totals["recovery.solver_calls"]
    values.update({
        "recovery.lambda0_evals_per_solve":
            totals["recovery.lambda0_evals_in_solvers"] / solves if solves else 0.0,
        "cli.import_s": import_s,
        "trace.ops": n_ops,
        "trace.overhead_ratio": overhead,
    })
    every = {
        "note": "values per traced operation; bytes_computed is computed from the "
                "sizes of the dense arrays a kernel materialises, not measured",
        "busy_s": {k: v / n_ops for k, v in sorted(busy.items())},
        "self_s": {k: v / n_ops for k, v in sorted(self_s.items())},
        "counters_total": dict(sorted(totals.items())),
    }
    return values, every


# -- main -------------------------------------------------------------------


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="one of the workloads in workloads.py, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time setup_s)")
    return p.parse_args(argv)


def bench(args, tmp):
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    sg, wl = setup(args.workload, args.seed, tmp)
    main_setup_s = time.perf_counter() - _PROCESS_T0
    digest = source_digest()
    env = environment(args, wl, digest)
    per_op, mismatches = {}, []

    side = () if args.trace else side_measurements(args, wl, tmp)
    rows, side_results = run_for(wl, args.seconds / 2 if args.trace else args.seconds, side)
    collect_digests(wl, rows, per_op, mismatches)
    record = {"environment": env, "main_setup_s": main_setup_s}
    if args.trace:
        import tracing

        importlib.import_module("subgap.cli")
        tracer = tracing.Tracer()
        tracer.install(sg.__name__)
        try:
            traced = run_ops(wl, [i for i, _, _ in rows], tracer)
        finally:
            tracer.uninstall()
        collect_digests(wl, traced, per_op, mismatches)
        for op, d in tracer.op_digests().items():
            note_digest(per_op, mismatches, op % len(wl.ops), "counters", d)
        overhead = sum(r[1] for r in traced) / sum(r[1] for r in rows)
        import_s = statistics.median(cold_import() for _ in range(SETUP_PROBES))
        metrics, every = per_layer(tracer, len(traced), overhead, import_s)
        units = PER_LAYER
        record["traced"] = every
        rows = rows + traced
    else:
        metrics, detail = end_to_end(wl, rows, side_results)
        units = END_TO_END
        record.update(detail)
    mismatches += check_determinism(wl, digest, per_op)

    failed, wrong = tally(rows)
    record["failures"] = [{"op": i, "note": o.note} for i, _, o in failed]
    record["determinism_mismatches"] = mismatches
    result = {
        "correct": not wrong and not mismatches,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for key in ("commit", "source_sha256", "python", "numpy", "blas", "nproc", "ops_in_list"):
        print(f"  {key}: {env[key]}")
    print(f"  operations: {len(rows)} attempted, {len(failed)} failed, {len(wrong)} wrong")
    for note in sorted({o.note for _, _, o in failed}):
        print(f"  failure: {note}")
    for m in mismatches:
        print(f"  determinism mismatch: {m}")
    for k, v in result["metrics"].items():
        print(f"  {k:45s} {v['value']:.6g} {v['unit']}")
    for k, v in record.get("reported", {}).items():
        print(f"  {k:45s} {v if v is None else f'{v:.6g}'} {REPORTED[k]} (not bounded)")
    print(f"  full record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, each in its own process; prints their results by name."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse(argv)
    if args.workload == "all" and not args.setup_probe:
        return run_all(args)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, tmp)
            print("ready", flush=True)
            return 0
        return bench(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
