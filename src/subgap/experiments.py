"""Experiment runners behind the CLI: each reproduces one study end to end.

Every runner takes an output directory plus keyword parameters, writes its
CSV/SVG artifacts and a ``report.json``, and returns the report dict.  A
report carries the echoed config, a list of named checks (measured value,
threshold, pass flag), free-form metrics, the artifact file list, and the
overall ``passed`` flag that drives the CLI exit status.  Module refusals
(gap at or past the uncertainty limit, degenerate tomography designs) are
recorded as structured entries rather than raised.

All numerical content is deterministic given the config and seed; only the
``wall_time_s`` field of the report varies between runs.
"""

from __future__ import annotations

import functools
import inspect
import time
from pathlib import Path

import numpy as np

from .core import (
    Interval,
    SampledSignal,
    TimeGrid,
    default_grid,
    forward_spectrum,
    l2_norm,
    make_demo_signal,
)
from .errors import DegenerateDesignError, RefusalError
from .io import (
    complex_columns,
    write_csv,
    write_density_csv,
    write_json,
    write_signal_csv,
    write_spectrum_csv,
    write_svg_lines,
)
from .projections import (
    LAMBDA0_TOL,
    _band_mask,
    band_project,
    band_spill_ratio,
    concentration_ratio,
    operator_norm_sq,
    out_of_band_fraction,
    prolate_matrix,
)
from .quantum import (
    DESIGN_COND_LIMIT,
    RANK1_TOL,
    PhaseSpaceWindows,
    WaveFunction,
    build_density,
    evolve_diagonal_series,
    fidelity,
    gate_state,
    landau_pollak_ratio,
    momentum_smooth,
    rank1_extract,
    recover_state,
    tomography_solve,
)
from .recovery import (
    LAMBDA_MARGIN,
    ErasureModel,
    erase,
    invertibility_report,
    noise_stability_sweep,
    recover_band_neumann,
    recover_direct,
    recover_neumann,
)
from .sampling import (
    SpectralCopyConfig,
    band_approx_first_term,
    band_interpolate,
    comb_sample,
    periodized_spectrum,
    spectral_copy_recover,
)

__all__ = [
    "EXPERIMENTS",
    "SPECS",
    "DEFAULT_SWEEP",
    "default_quantum_grid",
    "run_fig2",
    "run_bounds_audit",
    "run_recovery",
    "run_stability",
    "run_sampling",
    "run_quantum_pipeline",
]

#: (W, T) pairs realizing WT in {0.1, 0.25, 0.5, 0.9} on the default grid
DEFAULT_SWEEP = ((1.6, 1.0 / 16), (1.0, 0.25), (2.0, 0.25), (3.6, 0.25))

#: experiment kind -> {config key: (runner keyword, JSON schema, required)};
#: the CLI's schemas and key map and every report's config echo come from it
SPECS = {}
#: experiment kind -> runner
EXPERIMENTS = {}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
#: copy-sum orders: k_max = 0 would leave the decrease check vacuous
_COPIES = {"type": "integer", "minimum": 1}


def _array(items, **limits):
    return {"type": "array", "items": items, "minItems": 1, **limits}


def default_quantum_grid() -> TimeGrid:
    """Coordinate grid for the quantum runs: x in [-4, 4), dx = dp = 1/8."""
    return TimeGrid(-4.0, 0.125, 64)


def _check(checks, name, passed, value, threshold):
    checks.append(
        {
            "name": name,
            "passed": bool(passed),
            "value": value,
            "threshold": threshold,
        }
    )


def _at_most(checks, name, value, limit):
    _check(checks, name, value <= limit, value, limit)


def _at_least(checks, name, value, limit):
    _check(checks, name, value >= limit, value, limit)


def _limit_refusal(checks, report, label, product, what, refused=True):
    """Check a refusal by ``report`` against the run's own W*T (or X*P),
    ``product``: it passes when ``refused`` and either the product is at
    least 1 or lambda0 is within LAMBDA_MARGIN of 1, so a refusal below
    the limit fails the run."""
    _check(
        checks,
        "refusal_consistent_with_limit",
        refused and (product >= 1.0 or report.lambda0 > 1.0 - LAMBDA_MARGIN),
        {label: product, "lambda0": report.lambda0, "reason": report.reason},
        f"{what} only when {label} >= 1 or lambda0 > 1 - {LAMBDA_MARGIN:g}",
    )


def _echo(schema, value):
    """A parameter as the report echoes it: numbers as float, arrays by item."""
    if schema.get("type") == "number":
        return float(value)
    if schema.get("type") == "array":
        return [_echo(schema["items"], item) for item in value]
    return value


def _experiment(kind, grid_factory, **params):
    """Register the decorated body as the runner of ``kind``.

    ``params`` maps each config key to (runner keyword, JSON schema,
    required) and is stored as ``SPECS[kind]``.  The runner binds its
    call, creates ``outdir``, fills a missing ``grid`` from
    ``grid_factory``, runs the body, which returns (checks, metrics,
    artifacts), and writes and returns the report with the config echoed
    from ``params``.
    """

    def register(body):
        signature = inspect.signature(body)

        @functools.wraps(body)
        def runner(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            a["outdir"] = Path(a["outdir"])
            a["outdir"].mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            if a["grid"] is None:
                a["grid"] = grid_factory()
            checks, metrics, artifacts = body(**a)
            grid = a["grid"]
            config = {k: _echo(schema, a[kw]) for k, (kw, schema, _) in params.items()}
            config.update(experiment=kind, seed=a["seed"])
            config["grid"] = {"start": grid.t_start, "step": grid.dt, "n": grid.n}
            report = {
                "experiment": kind,
                "config": config,
                "checks": checks,
                "metrics": metrics,
                "artifacts": sorted(Path(f).name for f in artifacts),
                "passed": all(c["passed"] for c in checks),
                "wall_time_s": round(time.perf_counter() - t0, 3),
            }
            write_json(a["outdir"] / "report.json", report)
            return report

        SPECS[kind] = params
        EXPERIMENTS[kind] = runner
        return runner

    return register


def _sup(values) -> float:
    return float(np.max(np.abs(values)))


def _t_label(t_ds: float) -> str:
    return f"{t_ds:g}".replace(".", "")


def _distinct(field: str, labels: list[str]) -> list[str]:
    """``labels``, or ValueError naming ``field`` if empty or two values share one."""
    if not labels:
        raise ValueError(f"field `{field}`: needs at least one value")
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"field `{field}`: values share the labels {repeated}")
    return labels


def _demo(grid: TimeGrid, w: float):
    """The band of width w about 0, and the demo signal projected onto it."""
    band = Interval(0.0, w)
    return band, band_project(make_demo_signal(grid), band)


def _gap_window(t_sn: float, t_ds: float, dt: float) -> Interval:
    """The erased interval, kept strictly between comb sample instants.

    A gap as wide as the sampling period would swallow a sample and break
    the premise that the observed data agrees with the signal at every
    k*t_sn, so that case is trimmed by one grid step.
    """
    width = t_sn - dt if abs(t_ds - t_sn) <= 1e-12 else t_ds
    return Interval(t_sn / 2.0, width)


def _copy_errors(checks, s_w, s_hat, band, t_sn, k_max):
    """L2 band error of the copy-sum recovery of ``s_w`` for k = 0..k_max,
    with the gap as wide as the sampling period t_sn erased.

    Checks that the error decreases strictly in k, and that the sum at the
    full order k = t_sn/(2 dt) equals s_hat on the band to 1e-12 relative;
    returns the errors and the k_max spectrum.  Every order shares one FFT
    of r, and the k_max call runs first, so its guards decide a bad config.
    """
    window = _gap_window(t_sn, t_sn, s_w.grid.dt)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    in_band = _band_mask(s_w.grid, band)

    def copy_sum(k):
        cfg = SpectralCopyConfig(band=band, t_sn=t_sn, t_ds=window.width, k_max=k)
        return spectral_copy_recover(r, cfg).spectrum

    def err(spec):
        diff = spec.values[in_band] - s_hat.values[in_band]
        return float(np.sqrt(s_hat.grid.dw * np.sum(np.abs(diff) ** 2)))

    spectrum = copy_sum(k_max)
    errs = [err(copy_sum(k)) for k in range(k_max)] + [err(spectrum)]
    full_err = err(copy_sum(round(t_sn / s_w.grid.dt) // 2))
    _check(
        checks,
        "copy_sum_error_decreases",
        all(a > b for a, b in zip(errs, errs[1:])),
        errs,
        "L2 band error strictly decreasing in k_max",
    )
    s_norm = float(np.sqrt(s_hat.grid.dw * np.sum(np.abs(s_hat.values[in_band]) ** 2)))
    _at_most(checks, "copy_sum_exact_at_full_order", full_err / s_norm, 1e-12)
    return errs, spectrum


@_experiment(
    "fig2",
    default_grid,
    W=("w", _POSITIVE, True),
    T_DS=("t_ds_values", _array(_POSITIVE, uniqueItems=True), True),
    T_SN=("t_sn", _POSITIVE, True),
    k_max=("k_max", _COPIES, False),
)
def run_fig2(
    outdir,
    w: float = 2.0,
    t_ds_values=(1.0, 0.25, 1.0 / 64),
    t_sn: float = 0.25,
    k_max: int = 2,
    grid: TimeGrid | None = None,
    seed: int = 0,
):
    """Band restriction of gapped data for several gap widths, plus the
    copy-sum recovery of the t_ds = t_sn case.

    Writes one wide CSV over the display range |w| <= W: the reference
    spectrum, the band-restricted spectrum of each gapped signal (real and
    imaginary parts in adjacent columns), and the copy-sum reconstruction.
    Raises ValueError when no t_ds equals t_sn, since the copy sum would
    then have no case to run.
    """
    if not any(abs(t_ds - t_sn) <= 1e-12 for t_ds in t_ds_values):
        raise ValueError(
            f"field `T_DS` must contain T_SN = {t_sn:g}: the copy-sum "
            "recovery runs on the gap as wide as the sampling period"
        )
    labels = _distinct("T_DS", [_t_label(t_ds) for t_ds in t_ds_values])
    band, s_w = _demo(grid, w)
    s_hat = forward_spectrum(s_w)
    freqs = s_hat.grid.frequencies
    in_band = _band_mask(grid, band)
    band_integral = float(np.real(s_hat.grid.dw * s_hat.values[in_band].sum()))

    checks = []
    metrics = {"band_integral_s_hat": band_integral}
    columns = [("w", freqs)] + complex_columns("s_hat", s_hat.values)
    series = [("s_hat", s_hat.values.real)]

    sup_errs = {}
    for t_ds, label in zip(t_ds_values, labels):
        window = _gap_window(t_sn, t_ds, grid.dt)
        r = erase(s_w, ErasureModel(window=window, source_band=band))
        approx = band_approx_first_term(r, band, window.width)
        sup_err = _sup(approx.approx.values[in_band] - s_hat.values[in_band])
        sup_errs[t_ds] = sup_err
        report = invertibility_report(grid, band, window)
        metrics[f"sup_err_T{label}"] = sup_err
        metrics[f"regime_T{label}"] = approx.regime
        metrics[f"predicted_offset_T{label}"] = approx.predicted_offset
        metrics[f"invertible_T{label}"] = report.invertible
        if w * window.width >= 1.0:
            _check(
                checks,
                f"non_invertible_flagged_T{label}",
                (not report.invertible) and approx.regime == "distorted",
                {"invertible": report.invertible, "regime": approx.regime},
                "WT >= 1 must be flagged distorted and non-invertible",
            )
        columns += complex_columns(f"pwr_hat_T{label}", approx.approx.values)
        series.append((f"P_W r_hat, T_DS={t_ds:g}", approx.approx.values.real))

    order = sorted(t_ds_values, reverse=True)
    sups = [sup_errs[t] for t in order]
    _check(
        checks,
        "band_restriction_approaches_s_hat",
        all(a > b for a, b in zip(sups, sups[1:])),
        {f"T{_t_label(t)}": sup_errs[t] for t in order},
        "sup error strictly decreasing as t_ds shrinks",
    )
    t_min = min(t_ds_values)
    bound = 2.0 * w * t_min * (band_integral / w)
    _at_most(checks, "first_order_sup_bound", sup_errs[t_min], bound)

    metrics["copy_errors"], rec_spec = _copy_errors(checks, s_w, s_hat, band, t_sn, k_max)
    columns += complex_columns(f"recovered_k{k_max}", rec_spec.values)
    series.append((f"copy sum, k_max={k_max}", rec_spec.values.real))

    disp = np.abs(freqs) <= w + 1e-12
    artifacts = [
        write_csv(outdir / "fig2.csv", [(name, vals[disp]) for name, vals in columns]),
        write_svg_lines(
            outdir / "fig2.svg",
            freqs[disp],
            [(label, vals[disp]) for label, vals in series],
            title="band restriction of gapped data",
        ),
    ]
    return checks, metrics, artifacts


@_experiment(
    "bounds_audit",
    default_grid,
    pairs=("pairs", _array(_array(_POSITIVE, minItems=2, maxItems=2)), True),
)
def run_bounds_audit(
    outdir,
    pairs=DEFAULT_SWEEP,
    grid: TimeGrid | None = None,
    seed: int = 0,
):
    """Audit the concentration bounds over a (W, T) sweep.

    Per pair: the exact min(M, K) Gram-matrix lambda0 against the trace
    M*K/n of the M x M prolate matrix and against its dense eigensolve,
    that trace against WT, and the concentration ratio of the demo signal
    and the band spill of its gated copy against lambda0.
    """
    checks = []
    traces = {}
    keys = _distinct("pairs", [f"W={w:g},T={t:g}" for w, t in pairs])
    for key, (w, t) in zip(keys, pairs):
        band, s_w = _demo(grid, float(w))
        window = Interval(0.0, float(t))
        wt = float(w) * float(t)
        lam = operator_norm_sq(grid, band, window)
        b = prolate_matrix(grid, band, window)
        dense = float(np.linalg.eigvalsh(b)[-1])
        trace = float(np.real(np.trace(b)))
        conc = concentration_ratio(s_w, band, window)
        spill = band_spill_ratio(s_w, band, window)
        ok = (
            lam <= trace + 1e-12
            and abs(lam - dense) <= 1e-8
            and abs(trace - wt) <= 0.02 * wt
            and conc <= lam + LAMBDA0_TOL
            and spill >= 1.0 - lam - LAMBDA0_TOL
        )
        traces[key] = trace
        _check(
            checks,
            f"bounds_hold_{key}",
            ok,
            {
                "lambda0": lam,
                "dense_gap": abs(lam - dense),
                "trace": trace,
                "conc_ratio": conc,
                "spill_ratio": spill,
            },
            {
                "lambda0_max": trace + 1e-12,
                "dense_gap_max": 1e-8,
                "trace_rel_tol": 0.02,
                "conc_max": lam + LAMBDA0_TOL,
                "spill_min": 1.0 - lam - LAMBDA0_TOL,
            },
        )
    ws, ts = np.array(pairs, dtype=float).T
    columns = [("W", ws), ("T", ts), ("WT", ws * ts)]
    for k in ("lambda0", "conc_ratio", "spill_ratio"):
        columns.append((k, [c["value"][k] for c in checks]))
    columns.append(("pass", [c["passed"] for c in checks]))
    artifacts = [write_csv(outdir / "bounds_audit.csv", columns)]
    return checks, {"traces": traces}, artifacts


@_experiment(
    "recovery",
    default_grid,
    W=("w", _POSITIVE, True),
    T_DS=("t_ds", _POSITIVE, True),
    tol=("tol", _POSITIVE, False),
)
def run_recovery(
    outdir,
    w: float = 2.0,
    t_ds: float = 0.25,
    tol: float = 1e-10,
    grid: TimeGrid | None = None,
    seed: int = 0,
):
    """Erase a centered gap from the demo signal and run all three solvers.

    Below the uncertainty limit this checks exactness, solver agreement,
    the contraction rate, and bandlimitedness of the band-variant output.
    At or past the limit every solver must refuse and produce no signal;
    the run then passes when the refusals are consistent with WT >= 1.
    """
    band, s_w = _demo(grid, w)
    window = Interval(0.0, t_ds)
    r = erase(s_w, ErasureModel(window=window, source_band=band))
    inv = invertibility_report(grid, band, window)
    rec = recover_neumann(r, band, window, tol=tol)
    rec_band = recover_band_neumann(r, band, window, tol=tol)
    checks = []
    metrics = {
        "WT": inv.wt,
        "lambda0": inv.lambda0,
        "invertible": inv.invertible,
    }
    try:
        direct = recover_direct(r, band, window)
    except RefusalError as exc:
        if not rec.refused:
            raise
        metrics["direct_refusal"] = str(exc)
    if rec.refused:
        refused = rec_band.refused and "direct_refusal" in metrics
        what = "all solvers refuse, no output signal,"
        _limit_refusal(checks, inv, "WT", w * t_ds, what, refused)
        return checks, metrics, []

    def rel(a, b):
        return l2_norm(SampledSignal(grid, a.values - b.values)) / l2_norm(s_w)

    rel_err = rel(rec.recovered, s_w)
    agree = rel(rec.recovered, direct)
    band_agree = rel(rec_band.recovered, rec.recovered)
    oob = out_of_band_fraction(rec_band.recovered, band)
    metrics.update(
        {
            "iterations": rec.iterations,
            "relative_error": rel_err,
            "solver_agreement": agree,
            "band_variant_agreement": band_agree,
            "contraction_estimate": rec.contraction_estimate,
            "band_output_out_of_band": oob,
        }
    )
    _at_most(checks, "recovery_exact", rel_err, 1e-6)
    _at_most(checks, "series_matches_direct_solve", agree, 1e-8)
    _at_most(checks, "band_variant_matches", band_agree, 1e-8)
    _at_most(
        checks,
        "contraction_at_most_sqrt_wt",
        rec.contraction_estimate,
        float(np.sqrt(inv.wt)) + 0.02,
    )
    _at_most(checks, "band_variant_output_bandlimited", oob, 1e-12)
    artifacts = [
        write_csv(
            outdir / "recovery.csv",
            [
                ("iter", np.arange(1, rec.iterations + 1)),
                ("residual", rec.residual_history),
            ],
        ),
        write_signal_csv(outdir / "recovered.csv", rec.recovered),
        write_svg_lines(
            outdir / "recovery.svg",
            grid.times,
            [
                ("original", s_w.values.real),
                ("observed", r.values.real),
                ("recovered", rec.recovered.values.real),
            ],
            title="gap recovery",
        ),
    ]
    return checks, metrics, artifacts


@_experiment(
    "stability",
    default_grid,
    W=("w", _POSITIVE, True),
    T_DS=("t_ds", _POSITIVE, True),
    # at sigma = 0 the sweep reports amplification 0: a vacuous check
    sigmas=("sigmas", _array(_POSITIVE), False),
)
def run_stability(
    outdir,
    w: float = 2.0,
    t_ds: float = 0.25,
    sigmas=(1e-6, 1e-4, 1e-2),
    seed: int = 0,
    grid: TimeGrid | None = None,
):
    """Noise amplification of the series solver across noise levels.

    At or past the limit the sweep refuses and no artifacts are written;
    the run passes when the refusal is consistent with WT >= 1 (or lambda0
    at 1).
    """
    labels = _distinct("sigmas", [f"{sigma:g}" for sigma in sigmas])
    band, s_w = _demo(grid, w)
    window = Interval(0.0, t_ds)
    checks = []
    try:
        rows, bound = noise_stability_sweep(s_w, band, window, sigmas, seed=seed)
    except RefusalError as exc:
        inv = exc.report
        _limit_refusal(checks, inv, "WT", w * t_ds, "the sweep refuses")
        metrics = {"WT": inv.wt, "lambda0": inv.lambda0, "invertible": inv.invertible}
        return checks, metrics, []
    for label, row in zip(labels, rows):
        _at_most(
            checks,
            f"amplification_bounded_sigma={label}",
            row.amplification,
            bound,
        )
    columns = [(k, [getattr(row, k) for row in rows]) for k in ("sigma", "err", "amplification")]
    columns.append(("bound", [bound] * len(rows)))
    artifacts = [write_csv(outdir / "stability.csv", columns)]
    return checks, {"bound": bound if rows else None}, artifacts


@_experiment(
    "sampling",
    default_grid,
    W=("w", _POSITIVE, True),
    T_SN=("t_sn", _POSITIVE, True),
    k_max=("k_max", _COPIES, False),
)
def run_sampling(
    outdir,
    w: float = 2.0,
    t_sn: float = 0.25,
    k_max: int = 2,
    grid: TimeGrid | None = None,
    seed: int = 0,
):
    """Comb sampling at and above the critical period, plus copy recovery.

    Checks interpolation exactness on the interior half of the grid, about
    its centre, at period t_sn, the aliasing deviation of the periodized
    spectrum at period 1, and the copy-sum error decrease for the gapped
    signal.
    """
    band, s_w = _demo(grid, w)
    s_hat = forward_spectrum(s_w)
    freqs = s_hat.grid.frequencies
    in_band = _band_mask(grid, band)
    checks = []

    samples = comb_sample(s_w, t_sn)
    recon = band_interpolate(samples, band)
    interior = np.abs(grid.times - (grid.t_start + grid.span / 2.0)) <= grid.span / 4.0
    interior_err = _sup(recon.values[interior] - s_w.values[interior]) / _sup(
        s_w.values
    )
    _at_most(checks, "interpolation_exact_on_interior", interior_err, 1e-6)

    coarse = comb_sample(s_w, 1.0)
    aliased = periodized_spectrum(coarse)
    alias_dev = _sup(aliased.values[in_band] - s_hat.values[in_band])
    _at_least(checks, "undersampling_aliases_on_band", alias_dev, 1e-2)

    copy_errs, _ = _copy_errors(checks, s_w, s_hat, band, t_sn, k_max)

    artifacts = [
        write_signal_csv(outdir / "interpolated.csv", recon),
        write_spectrum_csv(outdir / "periodized.csv", aliased),
        write_csv(
            outdir / "copy_errors.csv",
            [("k_max", np.arange(len(copy_errs))), ("err", copy_errs)],
        ),
        write_svg_lines(
            outdir / "sampling.svg",
            freqs[in_band],
            [
                ("s_hat", s_hat.values[in_band].real),
                ("periodized, period 1", aliased.values[in_band].real),
            ],
            title="aliasing at the critical period",
        ),
    ]
    metrics = {
        "interior_error": interior_err,
        "aliasing_deviation": alias_dev,
        "copy_errors": copy_errs,
    }
    return checks, metrics, artifacts


def _pipeline_input(grid: TimeGrid, windows: PhaseSpaceWindows) -> WaveFunction:
    """A smooth momentum-limited state with nontrivial complex structure."""
    x = grid.times
    raw = np.exp(-np.pi * (x - 0.25) ** 2) * np.exp(2j * np.pi * 0.15 * x)
    return momentum_smooth(WaveFunction(grid, raw), windows)


@_experiment(
    "quantum_pipeline",
    default_quantum_grid,
    P=("p", _POSITIVE, True),
    X=("x", _POSITIVE, True),
    n_x=("n_x", {"type": "integer", "minimum": 1}, False),
    n_t=("n_t", {"type": "integer", "minimum": 1}, False),
    t_max=("t_max", _POSITIVE, False),
)
def run_quantum_pipeline(
    outdir,
    p: float = 1.0,
    x: float = 0.5,
    n_x: int = 16,
    n_t: int = 16,
    t_max: float = 500.0,
    seed: int = 0,
    grid: TimeGrid | None = None,
):
    """Full state recovery: gate, smooth, evolve, fit, extract, invert.

    A momentum-limited state loses the coordinate window [X]; the gated
    remainder is momentum-truncated and handed to free-evolution
    tomography on seeded random (x, t) samples.  The fitted density matrix
    is checked against the truth, reduced to its principal state, and the
    gap inverted; the report carries the end-to-end fidelity.  At or past
    the limit the inversion refuses and no artifacts are written; the run
    passes when the refusal is consistent with XP >= 1 (or lambda0 at 1).
    """
    windows = PhaseSpaceWindows(
        x_window=Interval(0.0, x), p_band=Interval(0.0, p)
    )
    psi_p = _pipeline_input(grid, windows)
    checks = []
    metrics = {"XP": windows.xp}

    ratio = landau_pollak_ratio(psi_p, windows)
    metrics["window_probability"] = ratio
    cap = operator_norm_sq(grid, windows.p_band, windows.x_window) + LAMBDA0_TOL
    _at_most(checks, "window_probability_bounded", ratio, cap)

    psi_m = gate_state(psi_p, windows)
    psi_t = momentum_smooth(psi_m, windows)
    rho_true = build_density(psi_t, windows.p_band)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(grid.t_start, grid.t_end, n_x)
    ts = rng.uniform(0.0, t_max, n_t)
    samples = evolve_diagonal_series(rho_true, xs, ts)
    try:
        fit = tomography_solve(samples, rho_true.p_grid, mass=1.0, grid=grid)
    except DegenerateDesignError as exc:
        _check(
            checks,
            "tomography_design_well_conditioned",
            False,
            {"error": str(exc), "pairs": [repr(p_) for p_ in exc.pairs or []]},
            "design condition number below 1e10",
        )
        return checks, metrics, []

    fit_err = _sup(fit.rho.elements - rho_true.elements)
    evals = np.linalg.eigvalsh(fit.rho.elements)
    rank_gap = float(evals[-1] - evals[-2])
    metrics.update(
        {
            "tomography_error": fit_err,
            "condition_number": fit.condition_number,
            "residual": fit.residual,
            "rank_gap": rank_gap,
            "populations_resolved": fit.populations_resolved,
            "psd_projected": fit.psd_projected,
        }
    )
    _at_most(checks, "tomography_max_abs_error", fit_err, 1e-6)
    cond = fit.condition_number
    _at_most(checks, "tomography_design_well_conditioned", cond, DESIGN_COND_LIMIT)
    _at_most(checks, "fitted_matrix_rank1", float(evals[-2]), RANK1_TOL)
    if not checks[-1]["passed"]:  # rank1_extract would refuse this fit
        return checks, metrics, []
    psi_extract = rank1_extract(fit.rho)
    metrics["extract_fidelity"] = fidelity(psi_extract, psi_t)
    try:
        psi_rec = recover_state(psi_extract, windows)
    except RefusalError as exc:
        metrics["recovery_refusal"] = str(exc)
        _limit_refusal(checks, exc.report, "XP", x * p, "state recovery refuses")
        return checks, metrics, []
    fid = fidelity(psi_rec, psi_p)
    metrics["pipeline_fidelity"] = fid
    _at_least(checks, "pipeline_fidelity", fid, 1.0 - 1e-6)
    artifacts = [
        write_density_csv(outdir / "density_true.csv", rho_true),
        write_density_csv(outdir / "density_fit.csv", fit.rho),
        write_signal_csv(outdir / "state_original.csv", psi_p),
        write_signal_csv(outdir / "state_gated.csv", psi_m),
        write_signal_csv(outdir / "state_recovered.csv", psi_rec),
        write_json(
            outdir / "tomography.json",
            {
                "condition_number": fit.condition_number,
                "residual": fit.residual,
                "rank_gap": rank_gap,
                "fidelity": fid,
            },
        ),
        write_svg_lines(
            outdir / "pipeline.svg",
            grid.times,
            [
                ("|psi_P|", np.abs(psi_p.values)),
                ("|psi_M|", np.abs(psi_m.values)),
                ("|recovered|", np.abs(psi_rec.values)),
            ],
            title="state recovery through the coordinate gap",
        ),
    ]
    return checks, metrics, artifacts
