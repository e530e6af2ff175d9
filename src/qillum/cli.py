"""Command-line front end: bounds, sweeps, crossover, state inspection, oracle checks.

Configuration precedence is flags > QI_* environment variables > key=value
config file > built-in defaults. Every command is deterministic: identical
invocations produce byte-identical file output, so there are no timestamps
anywhere. Exit codes: 0 success, 2 invalid input, 3 I/O failure, 4 resource
cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .bounds import (
    _closed_form_pair,
    coherent_exponent_coefficient,
    error_exponent_three_mode,
    error_exponent_two_mode,
    find_crossover,
    illumination_bhattacharyya,
    illumination_chernoff,
    power_overlap,  # unused here; the benchmark's tracer test reads qillum.cli.power_overlap
)
from .states import (
    IlluminationScenario,
    max_three_mode_correlation,
    separability_threshold,
    target_absent_cov,
    target_present_cov,
    three_mode_cov,
)
from .symplectic import Bipartition, is_physical, is_pure, log_negativity, symplectic_eigenvalues


# The six scenario keys, each a --flag, a QI_* variable and a config-file key,
# echoed in every JSON config: (type or choices, default, help).
KEYS = {
    "ns": (float, 0.01, "mean signal photon number"),
    "nb": (float, 100.0, "mean background photon number"),
    "kappa": (float, 0.01, "target reflectivity in [0, 1]"),
    "copies": (int, 1000000, "number of probe copies M"),
    "c": (float, None, "correlation amplitude (default: the maximal one for the model)"),
    "model": (("two-mode", "three-mode", "coherent"), "three-mode", None),
}
# The scenario field each sweep parameter sets.
PARAM_FIELDS = {"nS": "n_signal", "nB": "n_background", "kappa": "reflectivity", "M": "copies"}
EXTRA_ORDER = ("qb2", "qb3", "qb_coherent", "chernoff3")
# The probe behind each Bhattacharyya extra; chernoff3 is the three-mode Chernoff bound.
EXTRA_MODELS = {"qb2": "two-mode", "qb3": "three-mode", "qb_coherent": "coherent"}
STATE_TOKENS = ("initial3", "rho", "sigma")
# Most sweep rows: 100 rows with every extra take 60-70 ms in-process (2-CPU
# x86_64, one BLAS thread), so the cap allows a run of about a minute.
SWEEP_COUNT_CAP = 100_000
# Configuration keys a command does not read, each with the one value it runs
# (None: none). Setting such a key to anything else, by flag, QI_* variable or
# config file, is refused; oracle-check checks the two-mode pair only. The
# coherent probe has no correlation, so no command takes c with that model.
UNREAD_KEYS = {
    "sweep": {"c": None, "model": None},
    "crossover": dict.fromkeys(KEYS),
    "state-info": {"copies": None, "model": None},
    "oracle-check": {"c": None, "copies": None, "model": "two-mode"},
}


class CliError(Exception):
    """User-facing failure with a chosen exit code."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _fmt(x: float) -> str:
    # 12 significant digits, scientific, locale-free.
    return f"{x:.11e}"


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(3, f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _convert(key: str, raw: str):
    kind = KEYS[key][0]
    if isinstance(kind, tuple):
        if raw not in kind:
            raise CliError(2, f"unknown {key} {raw!r}; expected one of {kind}")
        return raw
    try:
        return kind(raw)
    except ValueError as exc:
        raise CliError(2, f"invalid value for {key}: {raw!r}") from exc


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(3, f"cannot read config {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(2, f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(2, f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise CliError(2, f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw.strip())
    return values


def resolve_config(args) -> dict:
    """Merge defaults, config file, environment, and flags, in rising priority.

    Returns the six keys, then `sources`: where each value came from. A key
    the command does not read (UNREAD_KEYS) exits 2 when it is set.
    """
    resolved = {key: default for key, (_, default, _) in KEYS.items()}
    sources = dict.fromkeys(KEYS, "default")
    if args.config:
        for key, value in _read_config_file(args.config).items():
            resolved[key] = value
            sources[key] = "config"
    for key in KEYS:
        raw = os.environ.get("QI_" + key.upper())
        if raw is not None:
            resolved[key] = _convert(key, raw)
            sources[key] = "env"
    for key in KEYS:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
            sources[key] = "flag"
    unread = UNREAD_KEYS.get(args.command, {})
    if resolved["model"] == "coherent":
        unread = {**unread, "c": None}
    for key, runs in unread.items():
        if sources[key] != "default" and resolved[key] != runs:
            if runs is None:
                raise CliError(2, f"{args.command} does not take {key} (set by {sources[key]})")
            raise CliError(
                2, f"{args.command} runs {key} {runs} only ({resolved[key]} set by {sources[key]})"
            )
        if runs is not None:
            resolved[key] = runs
    resolved["sources"] = sources
    return resolved


def _scenario(resolved: dict, **overrides) -> IlluminationScenario:
    fields = {
        "n_signal": resolved["ns"],
        "n_background": resolved["nb"],
        "reflectivity": resolved["kappa"],
        "copies": resolved["copies"],
        "correlation": resolved["c"],
    }
    fields.update(overrides)
    return IlluminationScenario(**fields)


def _finite(value):
    """value with every non-finite float, however deeply nested, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_report(config: dict, rows: list, diagnostics: dict) -> str:
    # Strict JSON: inf and nan, which text and CSV print, become null.
    report = {
        "schema": 1,
        "version": __version__,
        "config": config,
        "rows": rows,
        "diagnostics": diagnostics,
    }
    return json.dumps(_finite(report), indent=2, allow_nan=False) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once, on the first main call: QI_* values are read in resolve_config.
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Gaussian quantum illumination bounds and diagnostics.",
        epilog=f"Environment: {', '.join('QI_' + key.upper() for key in KEYS)} "
        "override defaults.",
    )
    parser.add_argument("--version", action="version", version=f"qillum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        for key, (kind, _, text) in KEYS.items():
            check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(f"--{key}", **check, default=None, help=text)
        p.add_argument("--format", dest="fmt", default=None, help="output format")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--config", default=None, help="key=value configuration file")
        return p

    add_command("bounds", "error-probability bounds for one scenario")
    p_sweep = add_command("sweep", "exponent comparison over a parameter grid")
    p_sweep.add_argument("--param", choices=tuple(PARAM_FIELDS), default="nS")
    p_sweep.add_argument("--start", type=float, default=0.01)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--spacing", choices=("linear", "log"), default="log")
    p_sweep.add_argument(
        "--extras",
        default="",
        help="comma-separated bound columns: qb2,qb3,qb_coherent,chernoff3",
    )
    p_sweep.add_argument("--plot", default=None, help="write an SVG of the ratio curve here")
    add_command("crossover", "signal strength where the probes tie")
    p_state = add_command("state-info", "covariance and entanglement summary")
    p_state.add_argument("--state", choices=STATE_TOKENS, default="rho")
    p_oracle = add_command("oracle-check", "two-mode closed form vs number-basis oracle")
    p_oracle.add_argument("--cutoff", type=int, default=20)
    p_oracle.add_argument(
        "--s-grid", default="0.25,0.5,0.75", help="comma-separated s values in (0, 1)"
    )
    return parser


def _asymptotic_exponent(scenario: IlluminationScenario, model: str) -> float:
    """kappa * gamma / n_b, with gamma at the probe's correlation."""
    if scenario.n_background <= 0:
        return math.inf
    if model == "three-mode":
        gamma = error_exponent_three_mode(scenario.n_signal, scenario.correlation)
    elif model == "two-mode":
        gamma = error_exponent_two_mode(scenario.n_signal, scenario.correlation)
    else:
        gamma = coherent_exponent_coefficient(scenario.n_signal)
    return scenario.reflectivity * gamma / scenario.n_background


def _log10_bound(bound) -> float:
    # log10(q^M / 2) from log q, finite where the bound itself underflows to 0.
    return (bound.copies * bound.diagnostics["log_overlap"] - math.log(2.0)) / math.log(10.0)


# Each command takes the parsed arguments and the resolved configuration and
# returns (config extras, rows, diagnostics, text renderer of the rows); _run
# emits either the JSON report or the renderer's text.


def cmd_bounds(args, resolved: dict):
    model = resolved["model"]
    scenario = _scenario(resolved)
    qc = illumination_chernoff(scenario, model)
    qb = qc.bhattacharyya
    row = {
        "model": model,
        "n_signal": scenario.n_signal,
        "n_background": scenario.n_background,
        "reflectivity": scenario.reflectivity,
        "copies": scenario.copies,
        "correlation": scenario.probe_correlation(model),
        "bhattacharyya_bound": qb.value,
        "chernoff_bound": qc.value,
        "log10_bhattacharyya_bound": _log10_bound(qb),
        "log10_chernoff_bound": _log10_bound(qc),
        "optimal_s": qc.s_used,
        "exponent_per_copy_qb": qb.diagnostics["exponent_per_copy"],
        "exponent_per_copy_qc": qc.diagnostics["exponent_per_copy"],
        "asymptotic_exponent_per_copy": _asymptotic_exponent(scenario, model),
    }
    return {}, [row], {}, _render_bounds


def _render_bounds(rows: list) -> str:
    # One "key: value" line per row field; the coherent probe has no correlation.
    lines = []
    for key, value in rows[0].items():
        if value is None:
            continue
        if key == "optimal_s":
            value = f"{value:.10f}"
        elif isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _sweep_row(resolved: dict, parameter: str, extras: list, value: float) -> dict:
    setting = max(1, int(round(value))) if parameter == "M" else value
    scenario = _scenario(resolved, **{PARAM_FIELDS[parameter]: setting})
    gamma2 = error_exponent_two_mode(scenario.n_signal)
    gamma3 = error_exponent_three_mode(scenario.n_signal)
    row = {
        "sweep_value": value,
        "n_s": scenario.n_signal,
        "gamma2": gamma2,
        "gamma3": gamma3,
        "ratio": gamma3 / gamma2 if gamma2 > 0 else math.nan,
    }
    results = {}
    if "chernoff3" in extras:
        results["chernoff3"] = illumination_chernoff(scenario, "three-mode")
        # Same states, one evaluation: qb3 is the search's s = 1/2 start.
        results["qb3"] = results["chernoff3"].bhattacharyya
    for extra in extras:
        if extra not in results:
            results[extra] = illumination_bhattacharyya(scenario, EXTRA_MODELS[extra])
        row[extra] = results[extra].value
    return row


def _render_csv(param: str, extras: list, rows: list) -> str:
    # The swept value leads each row; an nS sweep's value is its n_s column.
    lead = [] if param == "nS" else ["sweep_value"]
    keys = lead + ["n_s", "gamma2", "gamma3", "ratio"] + extras
    lines = [",".join(param if key == "sweep_value" else key for key in keys)]
    for row in rows:
        lines.append(",".join(_fmt(row[key]) for key in keys))
    return "\n".join(lines) + "\n"


def _render_ratio_svg(args, rows: list, crossover_ns: float) -> str:
    width, height = 800.0, 600.0
    left, right, top, bottom = 70.0, 775.0, 25.0, 545.0

    def xu(v: float) -> float:
        return math.log10(v) if args.spacing == "log" else v

    u0, u1 = xu(args.start), xu(args.stop)
    # n_s = 0 has no ratio: its nan is left out of the curve and the y range
    curve = [(xu(row["sweep_value"]), row["ratio"]) for row in rows if math.isfinite(row["ratio"])]
    ys = [y for _, y in curve] + [1.0]
    ymin, ymax = min(ys), max(ys)
    pad = 0.05 * (ymax - ymin) or 0.5
    y0, y1 = ymin - pad, ymax + pad

    def px(u: float) -> float:
        return left + (u - u0) / (u1 - u0) * (right - left)

    def py(y: float) -> float:
        return bottom - (y - y0) / (y1 - y0) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="black"/>',
    ]

    if args.spacing == "log":
        k0 = math.ceil(u0 - 1e-9)
        k1 = math.floor(u1 + 1e-9)
        ticks = [(10.0**k, f"{10.0 ** k:g}") for k in range(k0, k1 + 1)]
    else:
        ticks = [
            (args.start + i * (args.stop - args.start) / 4.0, "")
            for i in range(5)
        ]
        ticks = [(v, f"{v:g}") for v, _ in ticks]
    for value, label in ticks:
        x = px(xu(value))
        parts.append(
            f'<line x1="{x:.2f}" y1="{bottom:.2f}" x2="{x:.2f}" y2="{bottom + 6:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{bottom + 22:.2f}" font-size="14" text-anchor="middle">{label}</text>'
        )
    for i in range(5):
        y = y0 + i * (y1 - y0) / 4.0
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{py(y):.2f}" x2="{left:.2f}" y2="{py(y):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{py(y) + 5:.2f}" font-size="14" text-anchor="end">{y:.2f}</text>'
        )

    if y0 < 1.0 < y1:
        parts.append(
            f'<line x1="{left:.2f}" y1="{py(1.0):.2f}" x2="{right:.2f}" y2="{py(1.0):.2f}" '
            f'stroke="gray" stroke-dasharray="6,4"/>'
        )
    if args.param == "nS" and args.start <= crossover_ns <= args.stop:
        x = px(xu(crossover_ns))
        parts.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{bottom:.2f}" '
            f'stroke="gray" stroke-dasharray="6,4"/>'
        )

    points = " ".join(f"{px(u):.2f},{py(y):.2f}" for u, y in curve)
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb4" stroke-width="2"/>')
    axis_label = "n_s" if args.param == "nS" else args.param
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{height - 12:.2f}" font-size="16" '
        f'text-anchor="middle">{axis_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(top + bottom) / 2:.2f}" font-size="16" text-anchor="middle" '
        f'transform="rotate(-90 18 {(top + bottom) / 2:.2f})">gamma3 / gamma2</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _linear_grid(start: float, stop: float, count: int) -> list:
    """np.linspace(start, stop, count) for count >= 2, bit for bit, in Python floats."""
    delta, div = stop - start, count - 1
    step = delta / div  # if it underflows to 0, numpy scales the whole span instead
    grid = [i * step + start if step else i / div * delta + start for i in range(count)]
    grid[-1] = stop
    return grid


def cmd_sweep(args, resolved: dict):
    # argparse already holds --param and --spacing to their choices.
    if args.count < 2:
        raise CliError(2, "sweep needs at least 2 grid points")
    if args.count > SWEEP_COUNT_CAP:
        raise CliError(4, f"sweep count {args.count} > cap {SWEEP_COUNT_CAP}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise CliError(2, "sweep start and stop must be finite")
    if not args.start < args.stop:
        raise CliError(2, "sweep start must be below stop")
    if args.spacing == "log" and args.start <= 0:
        raise CliError(2, "log spacing requires a positive start")
    if args.param == "M" and args.start < 1:
        raise CliError(2, "copy-count sweeps must start at 1 or above")
    requested = [e for e in args.extras.split(",") if e]
    bad = [e for e in requested if e not in EXTRA_ORDER]
    if bad:
        raise CliError(2, f"unknown extras {bad}; choose from {EXTRA_ORDER}")
    extras = [e for e in EXTRA_ORDER if e in requested]
    if args.spacing == "log":
        ends = math.log10(args.start), math.log10(args.stop)
        grid = [10.0**x for x in _linear_grid(*ends, args.count)]
    else:
        grid = _linear_grid(args.start, args.stop, args.count)
    rows = [_sweep_row(resolved, args.param, extras, v) for v in grid]
    if args.plot is not None:
        _emit(_render_ratio_svg(args, rows, find_crossover().n_signal), args.plot)
    config = {
        "param": args.param,
        "start": args.start,
        "stop": args.stop,
        "count": args.count,
        "spacing": args.spacing,
        "extras": extras,
    }
    return config, rows, {"rows": len(rows)}, functools.partial(_render_csv, args.param, extras)


def cmd_crossover(args, resolved: dict):
    result = find_crossover()
    row = {"crossover_n_s": result.n_signal, "ratio_residual": result.residual}
    return {}, [row], {}, _render_crossover


def _render_crossover(rows: list) -> str:
    (row,) = rows
    return (
        f"crossover_n_s: {row['crossover_n_s']:.6f}\n"
        f"ratio_residual: {row['ratio_residual']:.3e}\n"
    )


def cmd_state_info(args, resolved: dict):
    scenario = _scenario(resolved)
    if args.state == "initial3":
        cov = three_mode_cov(scenario.n_signal, scenario.probe_correlation("three-mode"))
    elif args.state == "rho":
        cov = target_absent_cov(scenario)
    else:
        cov = target_present_cov(scenario)
    modes = cov.n
    row = {
        "state": args.state,
        "modes": modes,
        "covariance": [[float(v) for v in r] for r in cov.matrix],
        "symplectic_eigenvalues": [float(v) for v in symplectic_eigenvalues(cov)],
        "pure": bool(is_pure(cov)),
        "physical": bool(is_physical(cov)),
        "max_correlation": max_three_mode_correlation(scenario.n_signal),
        "separability_threshold": separability_threshold(scenario.n_signal),
        "log_negativity": {
            f"mode{j}_vs_rest": log_negativity(cov, Bipartition(n_modes=modes, transposed=(j,)))
            for j in range(modes)
        },
    }
    return {"state": args.state}, [row], {}, _render_state_info


def _render_state_info(rows: list) -> str:
    (row,) = rows
    lines = [f"state: {row['state']}", f"modes: {row['modes']}", "covariance:"]
    for r in row["covariance"]:
        lines.append("  " + " ".join(f"{v: .6e}" for v in r))
    nus = row["symplectic_eigenvalues"]
    lines.append("symplectic_eigenvalues: " + " ".join(_fmt(v) for v in nus))
    lines.append(f"pure: {'yes' if row['pure'] else 'no'}")
    lines.append(f"physical: {'yes' if row['physical'] else 'no'}")
    lines.append(f"max_correlation: {_fmt(row['max_correlation'])}")
    lines.append(f"separability_threshold: {_fmt(row['separability_threshold'])}")
    for key, value in row["log_negativity"].items():
        lines.append(f"log_negativity_{key}: {_fmt(value)}")
    return "\n".join(lines) + "\n"


def cmd_oracle_check(args, resolved: dict):
    try:
        s_values = [float(tok) for tok in args.s_grid.split(",") if tok]
    except ValueError as exc:
        raise CliError(2, f"bad s grid {args.s_grid!r}") from exc
    if not s_values or not all(0.0 < s < 1.0 for s in s_values):
        raise CliError(2, "s grid values must lie strictly inside (0, 1)")
    scenario = _scenario(resolved, copies=1)
    ns, nb, kappa = scenario.n_signal, scenario.n_background, scenario.reflectivity
    # Imported here, not at the top: no other command needs the oracle, so
    # their runs skip loading (and, without cached bytecode, compiling) it.
    from .fock import DimensionCapError, oracle_overlap, oracle_tail_budget

    try:
        budget = oracle_tail_budget(ns, nb, kappa, args.cutoff)["budget"]
        oracle_values = oracle_overlap(ns, nb, kappa, s_values, args.cutoff)
    except DimensionCapError as exc:
        raise CliError(4, str(exc)) from exc
    pair = _closed_form_pair(scenario, "two-mode")
    gaussian_values = [pair(s).value for s in s_values]
    rows = []
    for s, gaussian, oracle in zip(s_values, gaussian_values, oracle_values):
        gap = abs(gaussian - oracle) / max(abs(gaussian), 1e-300)
        rows.append(
            {
                "s": s,
                "gaussian_qs": gaussian,
                "oracle_qs": oracle,
                "relative_gap": gap,
                "tail_budget": budget,
                "flagged": bool(gap > 10.0 * budget),
            }
        )
    diagnostics = {"flagged": sum(row["flagged"] for row in rows)}
    config = {"cutoff": args.cutoff, "s_grid": s_values}
    return config, rows, diagnostics, _render_oracle_check


def _render_oracle_check(rows: list) -> str:
    lines = ["s gaussian_qs oracle_qs relative_gap tail_budget flag"]
    for row in rows:
        lines.append(
            f"{row['s']:.4f} {_fmt(row['gaussian_qs'])} {_fmt(row['oracle_qs'])} "
            f"{_fmt(row['relative_gap'])} {_fmt(row['tail_budget'])} "
            f"{'GAP' if row['flagged'] else 'ok'}"
        )
    lines.append(f"flagged: {sum(row['flagged'] for row in rows)}")
    return "\n".join(lines) + "\n"


# Each command with its --format choices; the first is the default.
_COMMANDS = {
    "bounds": (cmd_bounds, ("text", "json")),
    "sweep": (cmd_sweep, ("csv", "json")),
    "crossover": (cmd_crossover, ("text", "json")),
    "state-info": (cmd_state_info, ("text", "json")),
    "oracle-check": (cmd_oracle_check, ("text", "json")),
}


def _run(args) -> int:
    command, formats = _COMMANDS[args.command]
    resolved = resolve_config(args)
    fmt = formats[0] if args.fmt is None else args.fmt
    if fmt not in formats:
        raise CliError(2, f"format {fmt!r} not supported by {args.command}; use one of {formats}")
    config, rows, diagnostics, render = command(args, resolved)
    if fmt == "json":
        _emit(_json_report({**resolved, **config}, rows, diagnostics), args.out)
    else:
        _emit(render(rows), args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        return _run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {str(exc).splitlines()[0]}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
