"""Spans and counters around subgap's public calls, added from outside its sources.

The tracer never edits a source file.  ``Tracer.install`` replaces every
public function of every loaded ``subgap.*`` module with a wrapper, in
every ``subgap`` module namespace (and module-level dict) that binds it, and
``uninstall`` puts the originals back.  A wrapper records a span (name,
start, end, parent, operation id) in memory, plus deterministic counters:
call counts, solver iterations, P_W applications inside solver spans, and
sizes computed from the dense arrays a kernel materialises.

Counters are kept per operation so two runs of the same operation list can
be compared exactly; times are aggregated after the traced pass ends.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: traced but not spanned: one call per CSV cell, so a span would dominate
COUNT_ONLY = {"io.format_cell"}

#: recovery solvers; P_W applications and lambda0 evaluations inside them
#: are counted as solver work
SOLVERS = {
    "recovery.recover_neumann",
    "recovery.recover_band_neumann",
    "recovery.recover_direct",
}


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_bins(mask_interval, coords):
    return int(mask_interval.mask(coords).sum())


def _prolate_bytes(fn, args, kwargs, result):
    # E (M x K, complex) and E E^H (M x M, complex)
    a = _bound(fn, args, kwargs)
    m = result.shape[0]
    k = _count_bins(a["window"], a["grid"].times)
    return {"bytes_computed": 16 * m * k + 16 * m * m}


def _sinc_bytes(fn, args, kwargs, result):
    # the (n, K) float kernel
    a = _bound(fn, args, kwargs)
    return {"bytes_computed": 8 * a["at"].n * a["c"].offsets.size}


def _periodized_bytes(fn, args, kwargs, result):
    # the (n, K) complex phase matrix
    c = _bound(fn, args, kwargs)["c"]
    return {"bytes_computed": 16 * c.grid.n * c.offsets.size}


def _residual_bytes(fn, args, kwargs, result):
    # the (M, M, K_gate) complex exponential tensor
    a = _bound(fn, args, kwargs)
    fg = a["s_hat"].grid
    times = fg.time_grid.times
    m = _count_bins(a["band"], fg.frequencies)
    t_ds = a["t_ds"]
    k = int(((times >= -0.5 * t_ds) & (times < 0.5 * t_ds)).sum())
    return {"bytes_computed": 16 * m * m * k}


def _design_cells(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    m = len(a["p_grid"])
    return {"design_cells": a["samples"].values.size * (1 + m * (m - 1))}


def _iterations(fn, args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _bytes_written(fn, args, kwargs, result):
    return {"bytes_written": result.stat().st_size}


#: per-function counters derived from arguments and results
HOOKS = {
    "projections.prolate_matrix": _prolate_bytes,
    "sampling.sinc_reconstruct": _sinc_bytes,
    "sampling.periodized_spectrum": _periodized_bytes,
    "sampling.integral_equation_residual": _residual_bytes,
    "quantum.tomography_solve": _design_cells,
    "recovery.recover_neumann": _iterations,
    "recovery.recover_band_neumann": _iterations,
    "io.write_csv": _bytes_written,
}


def _is_refusal(exc):
    return any(cls.__name__ == "RefusalError" for cls in type(exc).__mro__)


class Tracer:
    """Spans and per-operation counters for one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.solver_depth = 0
        self.counts = defaultdict(Counter)  # op id -> counter name -> value
        self._restore = []

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run one benchmark operation under a root span ``op``."""
        self.op = op_id
        idx = self._enter("op")
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def wrap(self, name, fn):
        counts = self.counts
        hook = HOOKS.get(name)
        solver = name in SOLVERS

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                counts[self.op][f"{name}.calls"] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            c = counts[self.op]
            c[f"{name}.calls"] += 1
            if self.solver_depth:
                if name == "projections.band_project":
                    c["recovery.operator_applications"] += 1
                elif name == "projections.operator_norm_sq":
                    c["recovery.lambda0_evals_in_solvers"] += 1
            if solver:
                c["recovery.solver_calls"] += 1
                self.solver_depth += 1
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if solver and _is_refusal(exc):
                    c["recovery.refusals"] += 1
                raise
            finally:
                self._exit(idx)
                if solver:
                    self.solver_depth -= 1
            if solver and getattr(result, "refused", False):
                c["recovery.refusals"] += 1
            if hook is not None:
                for key, value in hook(fn, args, kwargs, result).items():
                    c[f"{name}.{key}"] += value
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self, package="subgap"):
        """Wrap every public function of every loaded ``package.*`` module."""
        prefix = package + "."
        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == package or n.startswith(prefix)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            if not short:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._restore.append((setattr, mod, attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            val[key] = wrappers[item]
                            self._restore.append((dict.__setitem__, val, key, item))
        return sorted(f"{f.__module__[len(prefix):]}.{f.__name__}" for f in wrappers)

    def uninstall(self):
        for setter, target, key, original in reversed(self._restore):
            setter(target, key, original)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------

    def span_times(self):
        """Per span name: (busy seconds, self seconds).

        Self time is a span's duration minus the time its direct children
        cover (children run sequentially, so their durations add).  Busy
        time counts only spans not nested in another span of the same name.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = Counter()
        self_s = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_s[name] += dur - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] += dur
        return busy, self_s

    def totals(self):
        total = Counter()
        for c in self.counts.values():
            total.update(c)
        return total

    def op_digests(self):
        """sha256 of each operation's counters, for exact run-to-run checks."""
        return {
            op: hashlib.sha256(
                json.dumps(dict(sorted(c.items()))).encode()
            ).hexdigest()
            for op, c in self.counts.items()
        }
