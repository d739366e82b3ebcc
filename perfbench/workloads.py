"""The four benchmark workloads: inputs from a seed, one operation, its check.

Every workload builds a fixed list of operations from ``--seed`` before
timing starts.  The list is made of *rounds*: each round holds the same mix
of size classes (so every seed, and every run length in whole rounds, sees
the same mix), in a seeded order, with the random parameters drawn inside
each class.  Where a parameter changes the cost of an operation a lot (WT
sets the Neumann iteration count), its values are stratified over the round
so the per-round cost varies little between seeds.

An operation is split in two: ``execute`` makes the library calls and is
timed; ``check`` compares the result with the generated truth or with an
exact identity, using numpy alone, and is not timed.  Only the generated
inputs reach the library.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Outcome:
    """The checked result of one operation.

    ``ok`` is success; ``wrong`` marks a result that came back but failed
    its check (a crash is a failure that is not ``wrong``).  ``error`` is
    the largest relative error against the truth, when there is one;
    ``signature`` and ``artifacts`` are deterministic digests that two runs
    of the same operation must reproduce exactly.
    """

    ok: bool
    wrong: bool
    error: float | None = None
    signature: str | None = None
    artifacts: str | None = None
    note: str = ""


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def stratified(rng, k, lo, hi):
    """k draws from [lo, hi), one from each of k equal strata, in random order."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.uniform(size=k)) / k


def spectrum(values, grid):
    """The library's transform convention in plain numpy: (s_hat, frequencies)."""
    n = grid.n
    freqs = (np.arange(n) - n // 2) / (n * grid.dt)
    s_hat = grid.dt * n * np.fft.fftshift(np.fft.ifft(values))
    return s_hat * np.exp(2j * np.pi * freqs * grid.t_start), freqs


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def sup_rel(a, b, scale):
    return float(np.max(np.abs(a - b)) / scale)


def uniform_grid(sg, n):
    """Grid of n points at the default spacing dt = 1/64, centred on t = 0."""
    return sg.TimeGrid(-n / 128.0, 1.0 / 64, n)


class Workload:
    """A seeded operation list plus how to run and check one operation.

    Subclasses set ``name``, ``round_size`` and the default number of
    ``rounds`` to generate, and implement the methods below.  ``rounds`` is
    set so that a run of the benchmark's length never reaches the end of the
    list (the harness wraps around if it does).
    """

    name = ""
    round_size = 0
    rounds = 0

    def __init__(self, sg, seed, tmp: Path, rounds=None):
        self.sg = sg
        self.seed = seed
        self.tmp = tmp
        rng = np.random.default_rng(seed)
        n_rounds = rounds if rounds is not None else self.rounds
        self.ops = [op for r in range(n_rounds) for op in self.make_round(rng, r)]
        self.warmup = self.make_warmup(np.random.default_rng([seed, 1]))

    def make_round(self, rng, r):
        raise NotImplementedError

    def make_warmup(self, rng):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, result) -> Outcome:
        raise NotImplementedError

    def label(self, op) -> str:
        """Size class of an operation, for the per-operation record."""
        raise NotImplementedError


# -- recover_ladder --------------------------------------------------------


@dataclass
class LadderOp:
    n: int
    w: float
    wt: float
    band: object
    window: object
    truth: object


class RecoverLadder(Workload):
    """Erase a window from a random band-limited signal and recover it three ways.

    Round of 16: twelve n=4096 operations (W = 1, 2, 3, four each), three
    n=16384 (one per W) and one n=32768 (W cycles with the round).  Two of
    the n=4096 slots are refusal cases with WT in [1, 1.5]; the other WT
    values are stratified over [0.2, 0.95] within each size class.
    """

    name = "recover_ladder"
    round_size = 16
    rounds = 24

    def _op(self, rng, n, w, wt):
        sg = self.sg
        grid = uniform_grid(sg, n)
        band = sg.Interval(0.0, float(w))
        t = wt / w
        centre = rng.uniform(grid.t_start + t, grid.t_end - t)
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        truth = sg.band_project(sg.SampledSignal(grid, raw), band)
        return LadderOp(n, float(w), float(wt), band, sg.Interval(centre, t), truth)

    def make_round(self, rng, r):
        small = [(4096, w) for w in (1, 2, 3) for _ in range(4)]
        refuse = set(rng.choice(len(small), size=2, replace=False).tolist())
        kept = [s for i, s in enumerate(small) if i not in refuse]
        slots = list(zip(kept, stratified(rng, len(kept), 0.2, 0.95)))
        slots += [(small[i], rng.uniform(1.0, 1.5)) for i in sorted(refuse)]
        mid = [(16384, w) for w in (1, 2, 3)]
        slots += list(zip(mid, stratified(rng, 3, 0.2, 0.95)))
        slots.append(((32768, 1 + r % 3), rng.uniform(0.2, 0.95)))
        ops = [self._op(rng, n, w, wt) for (n, w), wt in slots]
        return [ops[i] for i in rng.permutation(len(ops))]

    def make_warmup(self, rng):
        return self._op(rng, 4096, 3, 0.5)

    def label(self, op):
        return f"n{op.n}-W{op.w:g}" + ("-past" if op.wt >= 1.0 else "")

    def execute(self, op):
        sg = self.sg
        r = sg.erase(op.truth, sg.ErasureModel(window=op.window, source_band=op.band))
        a = sg.recover_neumann(r, op.band, op.window)
        b = sg.recover_band_neumann(r, op.band, op.window)
        try:
            d = sg.recover_direct(r, op.band, op.window)
        except sg.RefusalError:
            d = None
        return a, b, d

    def check(self, op, result):
        a, b, d = result
        sig = digest([a.iterations, b.iterations, a.refused, b.refused, d is None])
        if op.wt >= 1.0:
            ok = (
                a.refused and b.refused and d is None
                and a.recovered is None and b.recovered is None
            )
            return Outcome(ok, not ok, signature=sig, note="" if ok else "no refusal")
        if a.refused or b.refused or d is None:
            return Outcome(False, True, signature=sig, note="refused below the limit")
        s = op.truth.values
        errors = [rel(x, s) for x in (a.recovered.values, b.recovered.values, d.values)]
        nrm = np.linalg.norm(s)
        agree = max(
            np.linalg.norm(a.recovered.values - d.values),
            np.linalg.norm(b.recovered.values - a.recovered.values),
        ) / nrm
        ok = max(errors) <= 1e-6 and agree <= 1e-8
        note = "" if ok else f"error {max(errors):.3e}, agreement {agree:.3e}"
        return Outcome(ok, not ok, max(errors), sig, note=note)


# -- sampling_copies -------------------------------------------------------


#: sampling period (below 1/W for every W drawn) and the undersampling period
T_SN = 0.25
T_UNDER = 1.0
K_MAX = 2


@dataclass
class SamplingOp:
    n: int
    band: object
    truth: object
    gap: object
    t_ds: float


class SamplingCopies(Workload):
    """Nyquist sampling, aliasing and spectral-copy gap filling of a pulse.

    Round of 5: two n=4096, two n=8192 and one n=16384 pulse, each a random
    sum of shifted, modulated sinc^2 kernels band-limited to W in [1, 3].
    """

    name = "sampling_copies"
    round_size = 5
    rounds = 32

    def _op(self, rng, n):
        sg = self.sg
        grid = uniform_grid(sg, n)
        w = rng.uniform(1.0, 3.0)
        band = sg.Interval(0.0, w)
        t = grid.times
        vals = np.zeros(n, dtype=complex)
        for _ in range(4):
            half = rng.uniform(0.2, 0.5) * w  # sinc^2(half t) spans [-half, half]
            f0 = rng.uniform(-(w / 2 - half), w / 2 - half)
            t0 = rng.uniform(-8.0, 8.0)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            vals += amp * np.sinc(half * (t - t0)) ** 2 * np.exp(-2j * np.pi * f0 * t)
        truth = sg.band_project(sg.SampledSignal(grid, vals), band)
        gap = sg.Interval(T_SN / 2, T_SN - grid.dt)  # strictly between samples
        t_ds = int(rng.integers(2, 9)) * grid.dt  # matched-pair gate, 2..8 bins
        return SamplingOp(n, band, truth, gap, t_ds)

    def make_round(self, rng, r):
        ops = [self._op(rng, n) for n in (4096, 4096, 8192, 8192, 16384)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def make_warmup(self, rng):
        return self._op(rng, 4096)

    def label(self, op):
        return f"n{op.n}"

    def execute(self, op):
        sg = self.sg
        s, band = op.truth, op.band
        c = sg.comb_sample(s, T_SN)
        at = sg.TimeGrid(float(c.instants[0]), T_SN, c.offsets.size)
        series = sg.sinc_reconstruct(c, at)
        interp = sg.band_interpolate(c, band)
        over = sg.periodized_spectrum(c)
        under = sg.periodized_spectrum(sg.comb_sample(s, T_UNDER))
        r = sg.erase(s, sg.ErasureModel(window=op.gap, source_band=band))
        copies = [
            sg.spectral_copy_recover(
                r, sg.SpectralCopyConfig(band=band, t_sn=T_SN, t_ds=op.gap.width, k_max=k)
            )
            for k in range(K_MAX + 1)
        ]
        first = sg.band_approx_first_term(r, band, op.gap.width)
        r2 = sg.erase(s, sg.ErasureModel(window=sg.Interval(0.0, op.t_ds), source_band=band))
        resid = sg.integral_equation_residual(
            sg.forward_spectrum(s), sg.forward_spectrum(r2), band, op.t_ds
        )
        return c, series, interp, over, under, r, copies, first, resid

    def check(self, op, result):
        c, series, interp, over, under, r, copies, first, resid = result
        grid = op.truth.grid
        s_hat, freqs = spectrum(op.truth.values, grid)
        keep = op.band.mask(freqs)
        scale = np.max(np.abs(s_hat))
        checks = {}
        # the sinc series reproduces its own samples
        checks["samples"] = (
            sup_rel(series.values, c.values, np.max(np.abs(c.values))), 1e-12
        )
        # the band-limited interpolant has no energy outside the band
        i_hat, _ = spectrum(interp.values, grid)
        checks["in_band"] = (
            float(np.linalg.norm(i_hat[~keep]) / np.linalg.norm(i_hat)), 1e-12
        )
        # oversampled comb: the periodized spectrum equals s_hat on the band
        checks["periodized"] = (sup_rel(over.values[keep], s_hat[keep], scale), 1e-10)
        # undersampled comb: Poisson summation, s_hat tiled every 1/T_UNDER
        stride = int(round(T_UNDER / grid.dt))
        tiled = sum(np.roll(s_hat, m * (grid.n // stride)) for m in range(stride))
        checks["aliased"] = (sup_rel(under.values, tiled, scale), 1e-10)
        # copy sums: P_W of r_hat plus its zero-filled shifts by k/T_SN
        r_hat, _ = spectrum(r.values, grid)
        r_scale = np.max(np.abs(r_hat))
        step = int(round(grid.n * grid.dt / T_SN))
        for k, res in enumerate(copies):
            acc = r_hat.copy()
            for j in range(1, res.k_used + 1):
                acc[j * step:] += r_hat[: grid.n - j * step]
                acc[: grid.n - j * step] += r_hat[j * step:]
            acc[~keep] = 0.0
            checks[f"copies_k{k}"] = (sup_rel(res.spectrum.values, acc, r_scale), 1e-12)
        checks["first_term"] = (
            sup_rel(first.approx.values, np.where(keep, r_hat, 0.0), r_scale), 1e-12
        )
        # matched pair: the in-band integral equation holds
        checks["integral_equation"] = (resid, 1e-6)
        bad = [f"{k} {v:.3e}" for k, (v, lim) in checks.items() if not v <= lim]
        sig = digest([res.k_used for res in copies] + [first.regime, c.offsets.size])
        s_norm = np.sqrt(np.sum(np.abs(s_hat) ** 2) / grid.span)
        error = max([v for k, (v, _) in checks.items() if k != "integral_equation"]
                    + [resid / s_norm])
        return Outcome(not bad, bool(bad), error, sig, note=", ".join(bad))


# -- quantum_tomography ----------------------------------------------------


T_MAX = 500.0


@dataclass
class QuantumOp:
    m: int
    xp: float
    windows: object
    truth: object
    xs: np.ndarray
    ts: np.ndarray


class QuantumTomography(Workload):
    """Gate, smooth, evolve, fit, extract and recover a momentum-limited state.

    Round of 8 on the default quantum grid (dp = 1/8): three M=8, three M=16
    and two M=32 states (P = 1, 2, 4), with XP stratified over [0.1, 0.9];
    one slot per round has XP in [1, 1.5] and must be refused.
    """

    name = "quantum_tomography"
    round_size = 8
    rounds = 48

    def __init__(self, sg, seed, tmp, rounds=None):
        experiments = importlib.import_module(sg.__name__ + ".experiments")
        self.grid = experiments.default_quantum_grid()
        super().__init__(sg, seed, tmp, rounds)

    def _op(self, rng, m, xp):
        sg = self.sg
        grid = self.grid
        p = m * grid.dual.dw
        x = xp / p
        centre = rng.uniform(grid.t_start + x, grid.t_end - x)
        windows = sg.PhaseSpaceWindows(
            x_window=sg.Interval(centre, x), p_band=sg.Interval(0.0, p)
        )
        keep = windows.p_band.mask(grid.dual.frequencies)
        coef = np.zeros(grid.n, dtype=complex)
        coef[keep] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        psi = sg.position_wave(sg.Spectrum(grid.dual, coef))
        truth = sg.WaveFunction(
            grid, psi.values / np.sqrt(grid.dt * np.sum(np.abs(psi.values) ** 2)),
            normalized=True,
        )
        n_s = int(round(1.5 * m))
        xs = rng.uniform(grid.t_start, grid.t_end, n_s)
        ts = rng.uniform(0.0, T_MAX, n_s)
        return QuantumOp(m, float(xp), windows, truth, xs, ts)

    def make_round(self, rng, r):
        sizes = [8, 8, 8, 16, 16, 16, 32, 32]
        refuse = int(rng.integers(len(sizes)))
        xps = list(stratified(rng, len(sizes) - 1, 0.1, 0.9))
        xps.insert(refuse, rng.uniform(1.0, 1.5))
        ops = [self._op(rng, m, xp) for m, xp in zip(sizes, xps)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def make_warmup(self, rng):
        return self._op(rng, 16, 0.5)

    def label(self, op):
        return f"M{op.m}" + ("-past" if op.xp >= 1.0 else "")

    def execute(self, op):
        sg = self.sg
        psi_m = sg.gate_state(op.truth, op.windows)
        psi_t = sg.momentum_smooth(psi_m, op.windows)
        rho = sg.build_density(psi_t, op.windows.p_band)
        samples = sg.evolve_diagonal_series(rho, op.xs, op.ts)
        fit = sg.tomography_solve(samples, rho.p_grid, mass=1.0, grid=op.truth.grid)
        extracted = sg.rank1_extract(fit.rho)
        try:
            recovered = sg.recover_state(extracted, op.windows)
        except sg.RefusalError:
            recovered = None
        return rho, fit, recovered

    def check(self, op, result):
        rho, fit, recovered = result
        tomo = float(np.max(np.abs(fit.rho.elements - rho.elements)))
        sig = digest([recovered is None, fit.populations_resolved, fit.psd_projected])
        if op.xp >= 1.0:
            ok = recovered is None and tomo <= 1e-6
            note = "" if ok else f"refused={recovered is None}, tomography {tomo:.3e}"
            return Outcome(ok, not ok, tomo, sig, note=note)
        if recovered is None:
            return Outcome(False, True, tomo, sig, note="refused below the limit")
        a, b = op.truth.values, recovered.values
        overlap = np.vdot(a, b)
        fid = abs(overlap) / (np.linalg.norm(a) * np.linalg.norm(b))
        dist = rel(b * np.exp(-1j * np.angle(overlap)), a)
        ok = tomo <= 1e-6 and fid >= 1.0 - 1e-6
        note = "" if ok else f"tomography {tomo:.3e}, fidelity {fid!r}"
        return Outcome(ok, not ok, max(tomo, dist), sig, note=note)


# -- cli_runs --------------------------------------------------------------


@dataclass
class CliOp:
    kind: str
    past_limit: bool
    path: Path


class _Discard:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def artifact_digest(outdir: Path) -> str:
    """sha256 over every artifact, ignoring report.json's wall-clock fields."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("wall_time_s", None)
            report.pop("timings", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class CliRuns(Workload):
    """``subgap run <config> --out <dir>`` in-process, every experiment kind.

    Pass of 9 configs: each of the six kinds below the limit, plus
    ``recovery``, ``stability`` and ``quantum_pipeline`` past it.  Seeds and
    gap widths vary; the fig2, bounds_audit and sampling geometry stays at
    the defaults their checks were written for.

    Creating and deleting thousands of files per run slowed every later run
    on an ext4 volume mounted with ``discard`` (throughput fell by a fifth
    over ten runs).  So a seed's config files are written once, next to the
    per-process directory, and reused; and each config kind writes into its
    own output directory, overwritten in place, rather than a new one that
    is deleted after every operation.
    """

    name = "cli_runs"
    round_size = 9
    rounds = 128

    def __init__(self, sg, seed, tmp, rounds=None):
        self.cli = importlib.import_module(sg.__name__ + ".cli")
        self.configs = tmp.parent / "cli_configs" / f"seed{seed}"
        self.outs = tmp / "outs"
        self.configs.mkdir(parents=True, exist_ok=True)
        self._count = 0
        super().__init__(sg, seed, tmp, rounds)

    def _write(self, cfg, past):
        path = self.configs / f"c{self._count}.json"
        self._count += 1
        text = json.dumps(cfg)
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
        return CliOp(cfg["experiment"], past, path)

    def make_round(self, rng, r):
        def seed():
            return int(rng.integers(1 << 20))

        cfgs = [
            ({"experiment": "fig2", "W": 2.0, "T_DS": [1.0, 0.25, 0.015625],
              "T_SN": 0.25, "seed": seed()}, False),
            ({"experiment": "bounds_audit",
              "pairs": [[1.6, 0.0625], [1.0, 0.25], [2.0, 0.25], [3.6, 0.25]],
              "seed": seed()}, False),
            ({"experiment": "recovery", "W": 2.0,
              "T_DS": int(rng.integers(10, 29)) / 64, "seed": seed()}, False),
            ({"experiment": "recovery", "W": 2.0,
              "T_DS": int(rng.integers(32, 49)) / 64, "seed": seed()}, True),
            ({"experiment": "stability", "W": 2.0, "T_DS": 0.25, "seed": seed()}, False),
            ({"experiment": "stability", "W": 2.0,
              "T_DS": int(rng.integers(32, 49)) / 64, "seed": seed()}, True),
            ({"experiment": "sampling", "W": 2.0, "T_SN": 0.25, "seed": seed()}, False),
            ({"experiment": "quantum_pipeline", "P": 1.0,
              "X": int(rng.integers(2, 7)) / 8, "seed": seed()}, False),
            ({"experiment": "quantum_pipeline", "P": 1.0,
              "X": int(rng.integers(8, 13)) / 8, "seed": seed()}, True),
        ]
        ops = [self._write(cfg, past) for cfg, past in cfgs]
        return [ops[i] for i in rng.permutation(len(ops))]

    def make_warmup(self, rng):
        return self._write(
            {"experiment": "fig2", "W": 2.0, "T_DS": [1.0, 0.25, 0.015625],
             "T_SN": 0.25, "seed": int(rng.integers(1 << 20))}, False)

    def label(self, op):
        return op.kind + ("-past" if op.past_limit else "")

    def execute(self, op):
        out = self.outs / self.label(op)
        with contextlib.redirect_stdout(_Discard()):
            rc = self.cli.main(["run", str(op.path), "--out", str(out)])
        return rc, out

    def check(self, op, result):
        rc, out = result
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        ok = rc == 0 and report["passed"] and report["experiment"] == op.kind
        metrics = report["metrics"]
        errors = [
            float(metrics[k]) for k in ("relative_error", "tomography_error")
            if isinstance(metrics.get(k), (int, float))
        ]
        note = "" if ok else f"exit {rc}, passed={report['passed']}"
        return Outcome(
            ok, not ok, max(errors) if errors else None,
            digest([rc]), artifact_digest(out), note,
        )

    def cold_config(self):
        """The config the cold CLI runs (cli_cold_s) time in fresh processes."""
        rng = np.random.default_rng([self.seed, 2])
        return {"experiment": "fig2", "W": 2.0, "T_DS": [1.0, 0.25, 0.015625],
                "T_SN": 0.25, "seed": int(rng.integers(1 << 20))}


WORKLOADS = {
    w.name: w for w in (RecoverLadder, SamplingCopies, QuantumTomography, CliRuns)
}
